"""End-to-end pipeline orchestration and the JSON construction record.

``run_pipeline`` chains every stage of the construction for one input
matrix.  ``build_record`` freezes the result into a versioned,
deterministic record, and ``check_record`` re-runs the construction from
the embedded configuration and checks the stored sections against it;
``verify_record`` does the same and raises if a check fails.

A record is written as canonical compact JSON: sorted keys and no
whitespace (``sort_keys=True, separators=(",", ":")``), which CPython
encodes in C.  Its SHA-256 ``content_hash`` covers the same canonical
text of ``config``, ``schema_version`` and ``sections``; only
``created_at`` is left out.  Each part is serialised once, and both the
hash payload and the record text are assembled from those strings.
Records in any other JSON layout (older ones are indented) load and
verify the same way, because verification re-serialises what it parses.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from typing import NamedTuple

from .decomposition import (
    StripDecomposition,
    build_decomposition,
    corner_selection,
    piece_map,
)
from .edgemaps import (
    EdgeMapSystem,
    all_periodic_points,
    build_edge_maps,
    census_rows,
    choose_initial_points,
    link_corner_partners,
)
from .errors import InvalidInputError, VerificationError
from .gluing import (
    ClassCensus,
    ExtendedPieceMap,
    IdentificationSchema,
    SurfaceReport,
    _refuse_oversized_window,
    assemble_surface,
    attach_strips,
    build_extended_map,
    classify_classes,
    enumerate_identifications,
)
from .markov import IncidenceReport, verify_stretch
from .spectral import (
    DEFAULT_TOL,
    IntMatrix,
    PerronData,
    _is_int,
    _Value,
    facts,
    perron_eigendata,
)

#: "14": ``class_census`` rows name each generator by its index, as
#: ``identifications`` orders them; README ("Older records") lists what
#: each earlier version stored
SCHEMA_VERSION = "14"


class PipelineResult(NamedTuple):
    """All intermediate and final objects of one construction run; the
    matrix is ``decomposition.facts.matrix``."""

    eigen: PerronData
    decomposition: StripDecomposition
    system: EdgeMapSystem
    points: dict
    extended: ExtendedPieceMap
    schema: IdentificationSchema
    census: ClassCensus
    surface: SurfaceReport
    incidence: IncidenceReport


def run_pipeline(
    M: IntMatrix, weak_perron_k: int | None = None
) -> PipelineResult:
    """Run the full construction on one irreducible matrix.

    The eigendata residual is bounded by ``DEFAULT_TOL``, the strip
    decomposition takes its permutations from ``corner_selection(M)``,
    the window is N + 3m and the surface is the double: the construction
    has no other settings.

    An ill-typed ``weak_perron_k``, and a window that M alone shows to be
    too large, are refused before any stage runs. Then every stage reads
    the facts of M off one ``facts(M)``, so each is computed once; the
    decomposition keeps them, and nothing is cached on M.
    """
    _check_weak_perron_k(weak_perron_k)
    _refuse_oversized_window(M, None)
    F = facts(M)
    eigen = perron_eigendata(F, DEFAULT_TOL)
    sigma, tau = corner_selection(F)
    D = build_decomposition(F, eigen, sigma, tau)
    P = piece_map(D)
    system = build_edge_maps(P)
    points = all_periodic_points(system)
    link_corner_partners(points)
    choose_initial_points(points)
    strips = attach_strips(system, points)
    ext = build_extended_map(system, strips, points)
    schema = enumerate_identifications(ext)
    census = classify_classes(schema, ext)
    surface = assemble_surface(ext, schema, census, weak_perron_k)
    incidence = verify_stretch(F, surface)
    return PipelineResult(
        eigen=eigen,
        decomposition=D,
        system=system,
        points=points,
        extended=ext,
        schema=schema,
        census=census,
        surface=surface,
        incidence=incidence,
    )


class ConstructionRecord(_Value):
    """Versioned JSON certificate for one construction run, stamped
    ``created_at`` with the current UTC time."""

    _fields = ("schema_version", "config", "sections", "created_at")

    def __init__(self, schema_version: str, config: dict, sections: dict):
        vars(self).update(
            schema_version=schema_version,
            config=config,
            sections=sections,
            created_at=datetime.now(timezone.utc).isoformat(
                timespec="microseconds"
            ),
        )

    def to_json_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "sections": self.sections,
            "created_at": self.created_at,
            "content_hash": self.content_hash(),
        }

    def to_json(self) -> str:
        """The record as canonical compact JSON, each part dumped once."""
        config = _canonical(self.config)
        version = _canonical(self.schema_version)
        sections = _canonical(self.sections)
        digest = _hash_hex(config, version, sections)
        # Sorted top-level key order: config, content_hash, created_at,
        # schema_version, sections.
        return (
            f'{{"config":{config},"content_hash":"{digest}",'
            f'"created_at":{_canonical(self.created_at)},'
            f'"schema_version":{version},"sections":{sections}}}'
        )

    def content_hash(self) -> str:
        """SHA-256 over everything except the timestamp."""
        return _hash_hex(
            _canonical(self.config),
            _canonical(self.schema_version),
            _canonical(self.sections),
        )


#: the one encoder of ``_canonical``; ``json.dumps`` with these arguments
#: would build a new one on every call
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
)


def _canonical(obj) -> str:
    """Canonical compact JSON: sorted keys, no whitespace.

    ``check_circular=False`` skips the encoder's bookkeeping of the
    containers it is inside, which the record's acyclic sections never
    need; the text is the same. A self-referencing object still raises,
    as ``RecursionError`` rather than ``ValueError``.
    """
    return _ENCODER.encode(obj)


def _hash_hex(config: str, version: str, sections: str) -> str:
    """SHA-256 of the canonical text of the hashed fields, from their texts.

    Equal to hashing ``_canonical({"config": ..., "schema_version": ...,
    "sections": ...})``: the keys are written in sorted order.  The parts
    are fed one by one, so the payload is never built as one string.
    """
    h = hashlib.sha256()
    for part in ('{"config":', config, ',"schema_version":', version,
                 ',"sections":', sections, "}"):
        h.update(part.encode("utf-8"))
    return h.hexdigest()


#: the keys of a record's ``config``, in the order of ``_config_dict``'s
#: parameters
_CONFIG_KEYS = (
    "matrix", "tol", "depth_cap", "corner_selection", "insert_genus",
    "weak_perron_k", "doubled",
)

def _config_dict(
    M: IntMatrix,
    tol: float,
    depth_cap: int | None,
    use_corner_selection: bool,
    insert_genus: bool,
    weak_perron_k: int | None,
    doubled: bool,
) -> dict:
    return dict(zip(_CONFIG_KEYS, (
        M.to_lists(), tol, depth_cap, use_corner_selection, insert_genus,
        weak_perron_k, doubled,
    )))


def _config(M: IntMatrix, weak_perron_k: int | None) -> dict:
    """The config of a record of M, the one statement of the settings the
    construction no longer has; the benchmark still passes all seven."""
    return _config_dict(M, DEFAULT_TOL, None, True, False, weak_perron_k, True)


def build_record(
    M: IntMatrix, weak_perron_k: int | None = None
) -> tuple[ConstructionRecord, PipelineResult]:
    """Run the pipeline and freeze the result into a record."""
    result = run_pipeline(M, weak_perron_k=weak_perron_k)
    sections = {
        "eigendata": result.eigen.to_json_dict(),
        "decomposition": result.decomposition.to_json_dict(),
        "edge_digraphs": {
            kind: result.system.maps[kind].export_digraph()
            for kind in result.system.maps
        },
        "periodic_points": census_rows(result.points),
        "identifications": result.schema.to_json_dict(),
        "class_census": result.census.to_json_dict(),
        "surface": result.surface.to_json_dict(),
        "incidence": result.incidence.to_json_dict(),
    }
    record = ConstructionRecord(
        schema_version=SCHEMA_VERSION, config=_config(M, weak_perron_k),
        sections=sections,
    )
    return record, result


def load_record(text: str) -> dict:
    """Parse a stored record, checking its schema version and shape.

    The record must be a JSON object whose ``sections`` is an object and
    whose ``config``, key for key and type for type, is the ``_config``
    that ``build_record`` writes for its ``matrix`` and ``weak_perron_k``;
    anything else raises :class:`InvalidInputError`.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # bad syntax, an integer past the digit limit, or too deep nesting
        raise InvalidInputError(f"record is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInputError("record is not a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise InvalidInputError(
            f"record schema version {version!r} is not supported "
            f"(expected {SCHEMA_VERSION!r})"
        )
    config = data.get("config")
    if not isinstance(config, dict):
        raise InvalidInputError("record config is missing or not an object")
    if set(config) != set(_CONFIG_KEYS):
        raise InvalidInputError(
            f"record config must hold exactly the keys {list(_CONFIG_KEYS)}, "
            f"not {sorted(config)}"
        )
    try:
        M = IntMatrix(config["matrix"])
    except InvalidInputError as exc:
        raise InvalidInputError(f"record config.{exc}") from None
    _check_weak_perron_k(config["weak_perron_k"], "record config.")
    for key, written in _config(M, config["weak_perron_k"]).items():
        value = config[key]
        if not (type(value) is type(written) and value == written):
            raise InvalidInputError(
                f"record config.{key} {value!r} is not {written!r}, the value "
                "every record holds"
            )
    if not isinstance(data.get("sections"), dict):
        raise InvalidInputError("record sections are missing or not an object")
    return data


def _check_weak_perron_k(value, where="") -> None:
    """Raise :class:`InvalidInputError` unless ``weak_perron_k`` is
    ``None`` or an int; ``where`` prefixes its name in the message."""
    if not (value is None or _is_int(value)):
        raise InvalidInputError(
            f"{where}weak_perron_k {value!r} is neither null nor an integer"
        )


class SectionCheck(NamedTuple):
    """One check of ``check_record``: a section, or the content hash.

    ``stored_bytes`` is the length of the stored section's canonical text
    (ASCII, so also its byte count); None for a section missing from the
    record and for the content hash.
    """

    name: str
    passed: bool
    detail: str
    stored_bytes: int | None


def check_record(data: dict) -> list[SectionCheck]:
    """Re-run the construction from the embedded config and diff sections.

    Returns one check per section, stored or recomputed, in name order,
    then one for the content hash.  The detail of a section that differs
    names the first JSON path at which it does, such as
    ``eigendata.lambda``.
    """
    cfg = data["config"]
    M = IntMatrix(cfg["matrix"])
    fresh, _ = build_record(M, weak_perron_k=cfg["weak_perron_k"])
    stored = {name: _canonical(section) for name, section in data["sections"].items()}
    results = []
    for name in sorted(stored.keys() | fresh.sections.keys()):
        if name not in stored:
            ok, detail = False, "missing from the stored record"
        elif name not in fresh.sections:
            ok, detail = False, "not produced by the recomputation"
        else:
            expected = _canonical(fresh.sections[name])
            ok = stored[name] == expected
            detail = "match"
            if not ok:
                path = _first_difference(
                    json.loads(stored[name]), json.loads(expected), name
                )
                detail = f"stored section differs from recomputation at {path}"
        size = len(stored[name]) if name in stored else None
        results.append(SectionCheck(name, ok, detail, size))
    sections = "{" + ",".join(
        f"{_canonical(name)}:{stored[name]}" for name in sorted(stored)
    ) + "}"
    hash_ok = data.get("content_hash") == _hash_hex(
        _canonical(cfg), _canonical(data["schema_version"]), sections
    )
    results.append(SectionCheck(
        "content_hash", hash_ok, "match" if hash_ok else "hash mismatch", None
    ))
    return results


def require_passed(results: list[SectionCheck]) -> list[SectionCheck]:
    """``results``, unless a check failed: then raise
    :class:`VerificationError` naming each failed check and its detail."""
    failures = [check for check in results if not check.passed]
    if failures:
        raise VerificationError(
            "record verification failed: "
            + ", ".join(f"{c.name} ({c.detail})" for c in failures),
            expected="stored sections equal to recomputation",
            actual=[c.name for c in failures],
        )
    return results


def verify_record(data: dict) -> list[SectionCheck]:
    """``check_record``, raising :class:`VerificationError` if any check
    fails."""
    return require_passed(check_record(data))


def _first_difference(stored, fresh, path: str) -> str:
    """The first JSON path, in sorted key order, at which two parsed JSON
    values differ; ``path`` itself when they differ at the top."""
    if isinstance(stored, dict) and isinstance(fresh, dict):
        for key in sorted(stored.keys() | fresh.keys()):
            if key not in stored or key not in fresh:
                return f"{path}.{key}"
            if _canonical(stored[key]) != _canonical(fresh[key]):
                return _first_difference(stored[key], fresh[key], f"{path}.{key}")
    elif isinstance(stored, list) and isinstance(fresh, list):
        for i, (a, b) in enumerate(zip(stored, fresh)):
            if _canonical(a) != _canonical(b):
                return _first_difference(a, b, f"{path}[{i}]")
        if len(stored) != len(fresh):
            return f"{path}[{min(len(stored), len(fresh))}]"
    return path

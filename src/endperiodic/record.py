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

#: "8": ``incidence`` holds the Sturm bracket of the stretch factor and
#: its two sign-change counts, with no copy of the doubled matrix and no
#: second radius; ``surface`` has no ``doubled`` (``config.doubled``), and
#: ``identifications`` no ``depth_cap``, ``escape_depth`` or
#: ``nesting_period`` (``config.depth_cap`` and the edge digraphs);
#: "7": no field that the edge digraphs or the matrix give: a stored side
#: writes its depth-1 edge state as ``[rect, a, b]``, each later edge state
#: as ``[a, b]`` and its strip-entry state as ``["S", za, zb]`` (the rects
#: follow the edge digraph), with no ``tail_orbits``; ``periodic_points``
#: rows have no ``period``, ``orbit`` or ``position`` (the digraph cycle
#: through the rect gives them); ``decomposition`` has no
#: ``vertical_order``/``horizontal_order`` (the canonical labels of
#: ``config.matrix``), and ``sigma``/``tau`` list the positions of their
#: images in that order;
#: "6": each fact is written once: an edge state is ``[rect, a, b]`` and a
#: strip-entry state ``["S", rect, za, zb]`` (the side gives the kind, and
#: the height at entry is 0), with no ``stabilization_depth``, which the
#: stored sides give; ``sigma``/``tau`` list their images in the order of
#: their domains; ``periodic_points`` has no ``initial`` (``position`` 0),
#: ``surface`` no copy of the identifications' ``nesting_period`` and
#: ``escape_depth``, and ``incidence`` no ``target_lambda``
#: (``eigendata.lambda``); "5": ``identifications`` stores each side of a
#: generator up to its own strip-entry depth, with the orbit ids of its
#: tail and no field that its id gives, and ``decomposition`` no copy of
#: the matrix or the eigendata;
#: "4": ``identifications`` stores each generator's pairs up to its
#: stabilization depth, not to ``depth_cap``; "3": eigendata come from the
#: Sturm root and inverse iteration, so every stored float moves in its
#: last digits against version "2"; "2": a null ``depth_cap`` means
#: N + 3m with m the lcm of the cycle periods; in version "1" it meant the
#: product of the periods.
SCHEMA_VERSION = "8"


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
    M: IntMatrix,
    depth_cap: int | None = None,
    insert_genus: bool = False,
    weak_perron_k: int | None = None,
) -> PipelineResult:
    """Run the full construction on one irreducible matrix.

    The eigendata residual is bounded by ``DEFAULT_TOL``, the strip
    decomposition takes its permutations from ``corner_selection(M)`` and
    the surface is the double: the construction has no other settings.

    Ill-typed settings, and a window that M alone shows to be too large,
    are refused before any stage runs. Then every stage reads the facts
    of M off one ``facts(M)``, so each is computed once; the
    decomposition keeps them, and nothing is cached on M.
    """
    _check_settings(depth_cap, insert_genus, weak_perron_k)
    _refuse_oversized_window(M, depth_cap)
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
    schema = enumerate_identifications(ext, depth_cap=depth_cap)
    census = classify_classes(schema, ext)
    surface = assemble_surface(ext, schema, census, insert_genus, weak_perron_k)
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
    """Versioned JSON certificate for one construction run; ``created_at``
    defaults to the current UTC time."""

    _fields = ("schema_version", "config", "sections", "created_at")

    def __init__(
        self,
        schema_version: str,
        config: dict,
        sections: dict,
        created_at: str | None = None,
    ):
        if created_at is None:
            created_at = datetime.now(timezone.utc).isoformat(
                timespec="microseconds"
            )
        vars(self).update(
            schema_version=schema_version,
            config=config,
            sections=sections,
            created_at=created_at,
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


def _canonical(obj) -> str:
    """Canonical compact JSON: sorted keys, no whitespace.

    ``check_circular=False`` skips the encoder's bookkeeping of the
    containers it is inside, which the record's acyclic sections never
    need; the text is the same. A self-referencing object still raises,
    as ``RecursionError`` rather than ``ValueError``.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), check_circular=False
    )


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


#: the keys of a record's ``config``, as ``_config_dict`` writes them
_CONFIG_KEYS = (
    "matrix", "tol", "depth_cap", "corner_selection", "insert_genus",
    "weak_perron_k", "doubled",
)

#: the config values of settings the construction no longer has: every
#: record holds exactly these, and their keys stay until a schema bump
_FIXED_CONFIG = {"tol": DEFAULT_TOL, "corner_selection": True, "doubled": True}


def _config_dict(
    M: IntMatrix,
    tol: float,
    depth_cap: int | None,
    use_corner_selection: bool,
    insert_genus: bool,
    weak_perron_k: int | None,
    doubled: bool,
) -> dict:
    return {
        "matrix": M.to_lists(),
        "tol": tol,
        "depth_cap": depth_cap,
        "corner_selection": use_corner_selection,
        "insert_genus": insert_genus,
        "weak_perron_k": weak_perron_k,
        "doubled": doubled,
    }


def build_record(
    M: IntMatrix,
    depth_cap: int | None = None,
    insert_genus: bool = False,
    weak_perron_k: int | None = None,
) -> tuple[ConstructionRecord, PipelineResult]:
    """Run the pipeline and freeze the result into a record."""
    result = run_pipeline(
        M,
        depth_cap=depth_cap,
        insert_genus=insert_genus,
        weak_perron_k=weak_perron_k,
    )
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
    config = _config_dict(
        M, DEFAULT_TOL, depth_cap, True, insert_genus, weak_perron_k, True
    )
    record = ConstructionRecord(
        schema_version=SCHEMA_VERSION, config=config, sections=sections
    )
    return record, result


def load_record(text: str) -> dict:
    """Parse a stored record, checking its schema version and shape.

    The record must be a JSON object whose ``config`` is an object with
    exactly the keys of ``_config_dict``, each holding a value that
    ``build_record`` may write, and whose ``sections`` is an object; anything
    else raises :class:`InvalidInputError`.
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
    _check_config_values(config)
    if not isinstance(data.get("sections"), dict):
        raise InvalidInputError("record sections are missing or not an object")
    return data


def _check_settings(depth_cap, insert_genus, weak_perron_k, where="") -> None:
    """Raise :class:`InvalidInputError` unless ``depth_cap`` and
    ``weak_perron_k`` are ``None`` or an int and ``insert_genus`` a bool;
    ``where`` prefixes each name in the message."""
    for key, value in (("depth_cap", depth_cap), ("weak_perron_k", weak_perron_k)):
        if not (value is None or _is_int(value)):
            raise InvalidInputError(
                f"{where}{key} {value!r} is neither null nor an integer"
            )
    if not isinstance(insert_genus, bool):
        raise InvalidInputError(
            f"{where}insert_genus {insert_genus!r} is not a boolean"
        )


def _check_config_values(config: dict) -> None:
    """Raise :class:`InvalidInputError` unless each config value is one
    ``build_record`` writes: ``matrix`` a non-empty square list of lists
    of non-negative ints, the three settings as ``_check_settings`` takes
    them, and ``tol``, ``corner_selection`` and ``doubled`` their fixed
    values."""
    rows = config["matrix"]
    if not (
        isinstance(rows, list)
        and rows
        and all(
            isinstance(row, list)
            and len(row) == len(rows)
            and all(_is_int(v) and v >= 0 for v in row)
            for row in rows
        )
    ):
        raise InvalidInputError(
            "record config.matrix is not a non-empty square list of lists "
            "of non-negative integers"
        )
    _check_settings(config["depth_cap"], config["insert_genus"],
                    config["weak_perron_k"], "record config.")
    for key, fixed in _FIXED_CONFIG.items():
        value = config[key]
        if not (type(value) is type(fixed) and value == fixed):
            raise InvalidInputError(
                f"record config.{key} {value!r} is not {fixed!r}, the value "
                "every record holds"
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
    M = IntMatrix.from_rows(cfg["matrix"])
    fresh, _ = build_record(
        M,
        depth_cap=cfg["depth_cap"],
        insert_genus=cfg["insert_genus"],
        weak_perron_k=cfg["weak_perron_k"],
    )
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

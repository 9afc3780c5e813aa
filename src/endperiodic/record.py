"""End-to-end pipeline orchestration and the JSON construction record.

``run_pipeline`` chains every stage of the construction for one input
matrix.  ``build_record`` freezes the result into a versioned,
deterministic record, and ``verify_record`` re-runs the construction from
the embedded configuration and checks the stored sections against it.

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
from dataclasses import dataclass, field
from datetime import datetime, timezone

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
    assemble_surface,
    attach_strips,
    build_extended_map,
    classify_classes,
    enumerate_identifications,
)
from .markov import IncidenceReport, verify_stretch
from .spectral import DEFAULT_TOL, IntMatrix, PerronData, perron_eigendata

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class PipelineResult:
    """All intermediate and final objects of one construction run."""

    matrix: IntMatrix
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
    tol: float = DEFAULT_TOL,
    depth_cap: int | None = None,
    use_corner_selection: bool = True,
    insert_genus: bool = False,
    weak_perron_k: int | None = None,
    doubled: bool = True,
) -> PipelineResult:
    """Run the full construction on one irreducible matrix."""
    eigen = perron_eigendata(M, tol=tol)
    if use_corner_selection:
        sigma, tau = corner_selection(M)
        D = build_decomposition(M, eigen, sigma=sigma, tau=tau)
    else:
        D = build_decomposition(M, eigen)
    P = piece_map(D)
    system = build_edge_maps(P)
    points = all_periodic_points(system)
    link_corner_partners(points)
    choose_initial_points(points)
    strips = attach_strips(system, points)
    ext = build_extended_map(system, strips, points)
    schema = enumerate_identifications(ext, depth_cap=depth_cap)
    census = classify_classes(schema, ext)
    surface = assemble_surface(
        ext,
        schema,
        census,
        insert_genus=insert_genus,
        weak_perron_k=weak_perron_k,
        doubled=doubled,
    )
    incidence = verify_stretch(M, surface, tol=max(tol, 1e-9))
    return PipelineResult(
        matrix=M,
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


@dataclass(frozen=True)
class ConstructionRecord:
    """Versioned JSON certificate for one construction run."""

    schema_version: str
    config: dict
    sections: dict
    created_at: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat()
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
    """Canonical compact JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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
    tol: float = DEFAULT_TOL,
    depth_cap: int | None = None,
    use_corner_selection: bool = True,
    insert_genus: bool = False,
    weak_perron_k: int | None = None,
    doubled: bool = True,
) -> tuple[ConstructionRecord, PipelineResult]:
    """Run the pipeline and freeze the result into a record."""
    result = run_pipeline(
        M,
        tol=tol,
        depth_cap=depth_cap,
        use_corner_selection=use_corner_selection,
        insert_genus=insert_genus,
        weak_perron_k=weak_perron_k,
        doubled=doubled,
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
        M, tol, depth_cap, use_corner_selection, insert_genus, weak_perron_k, doubled
    )
    record = ConstructionRecord(
        schema_version=SCHEMA_VERSION, config=config, sections=sections
    )
    return record, result


def load_record(text: str) -> dict:
    """Parse a stored record, checking its schema version and shape.

    The record must be a JSON object whose ``config`` is an object with
    exactly the keys of ``_config_dict``, each holding a value of the type
    ``_config_dict`` writes, and whose ``sections`` is an object; anything
    else raises :class:`InvalidInputError`.
    """
    data = json.loads(text)
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_config_values(config: dict) -> None:
    """Raise :class:`InvalidInputError` unless each config value has the
    type ``_config_dict`` writes: ``matrix`` a non-empty square list of
    lists of non-negative ints, ``tol`` a finite positive number,
    ``depth_cap`` and ``weak_perron_k`` ``None`` or an int, and the three
    flags bools."""
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
    tol = config["tol"]
    if not (
        (_is_int(tol) or isinstance(tol, float)) and 0 < tol < float("inf")
    ):
        raise InvalidInputError(
            f"record config.tol {tol!r} is not a finite positive number"
        )
    for key in ("depth_cap", "weak_perron_k"):
        if not (config[key] is None or _is_int(config[key])):
            raise InvalidInputError(
                f"record config.{key} {config[key]!r} is neither null nor an integer"
            )
    for key in ("corner_selection", "insert_genus", "doubled"):
        if not isinstance(config[key], bool):
            raise InvalidInputError(
                f"record config.{key} {config[key]!r} is not a boolean"
            )


def verify_record(data: dict) -> list[tuple[str, bool, str]]:
    """Re-run the construction from the embedded config and diff sections.

    Returns one (section, passed, detail) triple per section, stored or
    recomputed, then one for the content hash.  The detail of a section
    that differs names the first JSON path at which it does, such as
    ``eigendata.lambda``.  Raises :class:`VerificationError` if any check
    fails.
    """
    cfg = data["config"]
    M = IntMatrix.from_rows(cfg["matrix"])
    fresh, _ = build_record(
        M,
        tol=cfg["tol"],
        depth_cap=cfg["depth_cap"],
        use_corner_selection=cfg["corner_selection"],
        insert_genus=cfg["insert_genus"],
        weak_perron_k=cfg["weak_perron_k"],
        doubled=cfg["doubled"],
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
        results.append((name, ok, detail))
    sections = "{" + ",".join(
        f"{_canonical(name)}:{stored[name]}" for name in sorted(stored)
    ) + "}"
    hash_ok = data.get("content_hash") == _hash_hex(
        _canonical(cfg), _canonical(data["schema_version"]), sections
    )
    results.append(
        ("content_hash", hash_ok, "match" if hash_ok else "hash mismatch")
    )
    failures = [(name, detail) for name, ok, detail in results if not ok]
    if failures:
        raise VerificationError(
            "record verification failed: "
            + ", ".join(f"{name} ({detail})" for name, detail in failures),
            expected="stored sections equal to recomputation",
            actual=[name for name, _ in failures],
        )
    return results


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

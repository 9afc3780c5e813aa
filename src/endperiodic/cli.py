"""Command-line interface.

Subcommands:

* ``construct`` -- run the whole pipeline on a matrix (from a file, an
  inline integer, or a block lift of a file matrix), write the JSON
  record, optionally render figures and re-verify the fresh record.
* ``verify`` -- re-run every section of a stored record and diff,
  printing one line per section, also when one fails.
* ``render`` -- produce one or more SVG figures for an input.
* ``spectral`` -- print exact characteristic data and Perron eigendata.

Exit codes: 0 success, 1 verification failure, 2 usage or input error
(also ``ConvergenceError`` and ``PrecisionError``, a strip narrower than
the float spacing at its offset), 3 internal consistency error (a
structural guarantee of the construction failed; a bug, not bad input).
The ``ENDPERIODIC_OUT`` environment variable sets the default output
directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import (
    ConvergenceError,
    InternalConsistencyError,
    InvalidInputError,
    PrecisionError,
    PreconditionError,
    VerificationError,
)
from .record import build_record, check_record, load_record, require_passed
from .spectral import (
    IntMatrix,
    block_lift,
    determinant,
    facts,
    parse_matrix_text,
    perron_eigendata,
    spectral_radius_exact,
)

_FIG_ALIASES = {
    "piecemap": "PieceMap",
    "digraphs": "Digraphs",
    "orbits": "Orbits",
    "rectangles": "ExpandedRectangles",
    "expanded": "ExpandedRectangles",
    "complex": "Complex2D",
}


def _fig_kind(name: str) -> str:
    from .render import DIAGRAM_KINDS

    if name in DIAGRAM_KINDS:
        return name
    key = name.lower()
    if key in _FIG_ALIASES:
        return _FIG_ALIASES[key]
    raise InvalidInputError(
        f"unknown figure kind {name!r}; choose from "
        + ", ".join(sorted(set(_FIG_ALIASES.values())))
    )


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("ENDPERIODIC_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_text(path: str) -> str:
    """The text of the UTF-8 file at ``path``, else an input error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(
            f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


def _load_matrix(args) -> tuple[IntMatrix, str]:
    if args.integer is not None:
        if args.integer < 2:
            raise InvalidInputError("--integer requires d >= 2")
        M, stem = IntMatrix([[args.integer]]), f"integer-{args.integer}"
    else:
        M = parse_matrix_text(_read_text(args.matrix))
        stem = Path(args.matrix).stem
    if args.lift is not None:
        M = block_lift(M, args.lift)
        stem = f"{stem}-lift{args.lift}"
    return M, stem


def _add_input_options(sub, with_flags=True):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", help="path to a matrix file (text or JSON)")
    group.add_argument("--integer", type=int, help="inline integer case d >= 2")
    sub.add_argument("--lift", type=int, default=None, metavar="K",
                     help="replace the matrix by its k-th block lift")
    if with_flags:
        sub.add_argument("--weak-perron-k", type=int, default=None,
                         help="record the boundary-ray regluing for a k-lift input")
    sub.add_argument("--out", default=None, help="output directory")


def _build(args):
    M, stem = _load_matrix(args)
    weak_k = args.weak_perron_k
    if weak_k is None and args.lift:
        weak_k = args.lift
    record, result = build_record(M, weak_perron_k=weak_k)
    return M, stem, record, result


def _write_figures(kinds, result, out: Path, stem: str) -> None:
    """Render each figure kind, resolved by ``_fig_kind`` before the
    pipeline runs; ``render`` is imported here and in ``_fig_kind``, so
    commands that draw nothing never load it."""
    from .render import render

    for kind in kinds:
        fig_path = out / f"{stem}.{kind}.svg"
        fig_path.write_text(render(kind, result), encoding="utf-8")
        print(f"figure: {fig_path}")


def _cmd_construct(args) -> int:
    kinds = [_fig_kind(fig) for fig in args.fig or ()]
    M, stem, record, result = _build(args)
    out = _out_dir(args)
    record_path = out / f"{stem}.record.json"
    record_path.write_text(record.to_json(), encoding="utf-8")
    surface = result.surface
    print(f"matrix: {M.to_lists()}")
    print(f"lambda: {result.eigen.lam:.12g} (residual {result.eigen.residual:.3g})")
    print(f"stretch factor: {surface.stretch_factor:.12g}")
    lo, hi = result.incidence.bracket
    print(f"spectral radius certified in [{lo!r}, {hi!r}] "
          "(Collatz-Wielandt on eta)")
    print(f"ends: {[(e.sign, len(e.strip_orbits)) for e in surface.ends]}")
    print(f"connected: {surface.connected}  infinite type: {surface.infinite_type}")
    print(f"record: {record_path}")
    if kinds:
        _write_figures(kinds, result, out, stem)
    if args.verify:
        _verify(load_record(record_path.read_text("utf-8")))
    return 0


def _verify(data: dict) -> None:
    """Print one line per check of a loaded record, with the stored
    section's canonical byte count ("-" for the content hash and for a
    missing section), then raise ``VerificationError`` if a
    check failed: the table is printed on failure too."""
    results = check_record(data)
    for check in results:
        size = "-" if check.stored_bytes is None else f"{check.stored_bytes} bytes"
        status = "pass" if check.passed else f"FAIL ({check.detail})"
        print(f"verify {check.name}: {size}, {status}")
    require_passed(results)


def _cmd_verify(args) -> int:
    _verify(load_record(_read_text(args.record)))
    print("record verified")
    return 0


def _cmd_render(args) -> int:
    kinds = [_fig_kind(fig) for fig in args.fig]
    _, stem, _, result = _build(args)
    _write_figures(kinds, result, _out_dir(args), stem)
    return 0


def _cmd_spectral(args) -> int:
    """Print M's spectral data, read off one ``facts(M)``: one analysis of
    its digraph (the period is its class count) and one char_poly."""
    M, _ = _load_matrix(args)
    F = facts(M)
    print(f"matrix: {M.to_lists()}")
    print(f"char_poly: {F.poly.pretty()}")
    print(f"determinant: {determinant(F)}")
    irr = F.graph.irreducible
    print(f"irreducible: {irr}")
    if irr:
        period = len(F.graph.classes)
        print(f"graph period: {period}")
        print(f"primitive: {period == 1}")
        eigen = perron_eigendata(F)
        print(f"lambda: {eigen.lam:.15g} (residual {eigen.residual:.3g})")
        print(f"eta: {[float('%.10g' % v) for v in eigen.eta]}")
        print(f"omega: {[float('%.10g' % v) for v in eigen.omega]}")
    else:
        print(f"spectral radius: {spectral_radius_exact(F):.15g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endperiodic",
        description="Build and verify end-periodic maps from integer matrices.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    construct = subs.add_parser("construct", help="run the full pipeline")
    _add_input_options(construct)
    construct.add_argument("--fig", action="append", default=None,
                           metavar="KIND", help="also render a figure kind")
    construct.add_argument("--verify", action="store_true",
                           help="re-verify the freshly written record")
    construct.set_defaults(func=_cmd_construct)

    verify = subs.add_parser("verify", help="verify a stored record")
    verify.add_argument("record", help="path to a record JSON file")
    verify.set_defaults(func=_cmd_verify)

    rend = subs.add_parser("render", help="render figures for an input")
    _add_input_options(rend)
    rend.add_argument("--fig", action="append", required=True, metavar="KIND")
    rend.set_defaults(func=_cmd_render)

    spectral = subs.add_parser("spectral", help="print exact spectral data")
    _add_input_options(spectral, with_flags=False)
    spectral.set_defaults(func=_cmd_spectral)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (InvalidInputError, PreconditionError, ConvergenceError,
            PrecisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Direct construction for integer stretch factors.

For an integer d >= 2 the whole construction can be written down in
closed form with exact rational arithmetic: the unit square is cut into
d vertical and d horizontal strips, four explicit infinite strips of
width 1/d^2 are glued at two opposite corners, and the resulting map
has stretch factor exactly d.  This module builds that data directly
(in the fixed planar chart, y pointing up) and cross-validates it
against the general pipeline run on the 1x1 matrix [[d]].

The comparison deliberately uses chart-independent quantities only
(counts, length ratios, incidence, end census, stretch factor) so that
chart conventions cannot masquerade as disagreements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError, VerificationError
from .markov import incidence_matrix
from .record import PipelineResult, run_pipeline
from .spectral import IntMatrix


def f0_integer(
    d: int, x: Fraction, y: Fraction, k: int | None = None
) -> tuple[Fraction, Fraction]:
    """The piecewise affine square map, exact rational arithmetic.

    On the k-th open vertical strip ((k-1)/d, k/d) x (0, 1) the map is
    (x, y) -> (d*x - k + 1, 1 - (k - 1 + y)/d).  For a point on a strip
    boundary pass ``k`` explicitly to take the limit from within strip k.
    """
    x = Fraction(x)
    y = Fraction(y)
    if not (0 <= x <= 1 and 0 <= y <= 1):
        raise InvalidInputError("f0 is defined on the unit square")
    if k is None:
        k = int(x * d) + 1
        if x * d == k - 1:
            raise InvalidInputError(
                "point lies on a strip boundary; pass k to pick a strip"
            )
    if not 1 <= k <= d or not (k - 1 <= x * d <= k):
        raise InvalidInputError(f"point is not in the closure of strip {k}")
    return (d * x - k + 1, 1 - Fraction(k - 1 + y, d))


@dataclass(frozen=True)
class DirectIntegerRecord:
    """Exact closed-form data for one integer case (chart: y up)."""

    vertical_strips: tuple  # ((k-1)/d, k/d) open intervals
    horizontal_strips: tuple
    infinite_strips: dict  # label -> ((x-interval), (y-interval)), None = open ray
    attachment_width: Fraction
    incidence: tuple
    ends: dict  # sign -> strip labels
    stretch_factor: int


@dataclass(frozen=True)
class IntegerCase:
    """The direct record together with the general-pipeline run on [[d]]."""

    direct: DirectIntegerRecord
    pipeline: PipelineResult


def build_integer_case(d: int) -> IntegerCase:
    """Build the integer case both directly and through the pipeline."""
    if not isinstance(d, int) or d < 2:
        raise InvalidInputError(f"integer case requires an integer d >= 2, got {d!r}")
    q = Fraction(1, d)
    qq = Fraction(1, d * d)
    direct = DirectIntegerRecord(
        vertical_strips=tuple((k * q, (k + 1) * q) for k in range(d)),
        horizontal_strips=tuple((k * q, (k + 1) * q) for k in range(d)),
        infinite_strips={
            "E_L": ((None, Fraction(0)), (1 - qq, Fraction(1))),
            "E_T": ((Fraction(0), qq), (Fraction(1), None)),
            "E_R": ((Fraction(1), None), (Fraction(0), qq)),
            "E_B": ((1 - qq, Fraction(1)), (None, Fraction(0))),
        },
        attachment_width=qq,
        incidence=((d, 0), (0, d)),
        ends={"Attracting": ("E_L", "E_R"), "Repelling": ("E_B", "E_T")},
        stretch_factor=d,
    )
    pipeline = run_pipeline(IntMatrix.from_rows([[d]]))
    return IntegerCase(direct=direct, pipeline=pipeline)


def _pipeline_facts(result: PipelineResult) -> dict:
    """Chart-independent summary of a pipeline run on a 1x1 matrix."""
    D = result.decomposition
    width_ratios = sorted(
        D.strip_width(label) / D.rect_width(1)
        for label in D.vertical_order[1]
    )
    att_ratios = sorted(
        (s.hi - s.lo) / _edge_len(result, s) for s in result.extended.strips.values()
    )
    ends = {}
    for end in result.surface.ends:
        ends[end.sign] = ends.get(end.sign, 0) + 1
    return {
        "vertical_strip_count": len(D.vertical_order[1]),
        "horizontal_strip_count": len(D.horizontal_order[1]),
        "width_ratios": width_ratios,
        "infinite_strip_count": len(result.extended.strips),
        "attachment_ratios": att_ratios,
        "incidence": incidence_matrix(D.facts.matrix).entries,
        "end_census": ends,
        "stretch_factor": result.surface.stretch_factor,
    }


def _edge_len(result: PipelineResult, strip) -> float:
    return result.system.maps[strip.kind].edge_length(
        strip.rect, result.decomposition
    )


def cross_validate(d: int, tol: float = 1e-9) -> bool:
    """Check that the direct and pipeline routes agree on shared facts.

    Every expected value is read off the direct record that
    ``build_integer_case`` builds; the unit square has width 1, so a
    vertical strip's length is its width ratio. Raises :class:`VerificationError` with a diff report on any
    disagreement; returns ``True`` otherwise.
    """
    case = build_integer_case(d)
    direct = case.direct
    facts = _pipeline_facts(case.pipeline)
    strips = len(direct.infinite_strips)
    expected = {
        "vertical_strip_count": len(direct.vertical_strips),
        "horizontal_strip_count": len(direct.horizontal_strips),
        "width_ratios": sorted(float(b - a) for a, b in direct.vertical_strips),
        "infinite_strip_count": strips,
        "attachment_ratios": [float(direct.attachment_width)] * strips,
        "incidence": direct.incidence,
        "end_census": dict.fromkeys(direct.ends, 1),
        "stretch_factor": float(direct.stretch_factor),
    }
    diffs = []
    for key, want in expected.items():
        got = facts[key]
        if key in ("width_ratios", "attachment_ratios"):
            ok = len(got) == len(want) and all(
                abs(a - b) <= tol for a, b in zip(got, want)
            )
        elif key == "stretch_factor":
            ok = abs(got - want) <= tol
        else:
            ok = got == want
        if not ok:
            diffs.append(f"{key}: direct={want!r} pipeline={got!r}")
    if diffs:
        raise VerificationError(
            "integer case disagreement for d=%d" % d,
            expected="agreement on all shared invariants",
            actual="; ".join(diffs),
        )
    return True

"""Markov incidence matrix and stretch-factor certificate.

The constructed surface is a double, so the incidence matrix of its
Markov decomposition is diag(M, M), whose characteristic polynomial is
p**2 with p = char_poly(M).  p**2 has the distinct roots of p, so the
stretch factor is the spectral radius of M, the largest real root of p.
``verify_stretch`` certifies it from p by one exact Sturm count (Basu,
Pollack & Roy, *Algorithms in Real Algebraic Geometry*, 2006, ch. 2),
without building the doubled matrix or bisecting λ again.
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple

from .errors import InvalidInputError, VerificationError
from .spectral import IntMatrix, MatrixFacts, bracket_sign_changes, facts


def incidence_matrix(M: IntMatrix, doubled: bool = True) -> IntMatrix:
    """Incidence matrix of the Markov decomposition induced by the map.

    With ``doubled=True`` (the constructed surface is a double) the
    result is the block-diagonal matrix ``[[M, 0], [0, M]]``; otherwise
    it is ``M`` itself.  The certificate does not build it; it is the
    tests' oracle.
    """
    if not doubled:
        return M
    n = M.n
    rows = []
    for i in range(n):
        rows.append(list(M.entries[i]) + [0] * n)
    for i in range(n):
        rows.append([0] * n + list(M.entries[i]))
    return IntMatrix.from_rows(rows)


class IncidenceReport(NamedTuple):
    """Certificate that the spectral radius lies in ``bracket``.

    ``sign_changes`` counts the Sturm chain's sign changes just below the
    low end and just above the high end.
    """

    bracket: tuple[float, float]
    sign_changes: tuple[int, int]

    def to_json_dict(self) -> dict:
        return {
            "bracket": list(self.bracket),
            "sign_changes": list(self.sign_changes),
        }


def verify_stretch(
    M: IntMatrix | MatrixFacts, report, tol: float = 1e-9
) -> IncidenceReport:
    """Certify that the spectral radius of M is ``report.stretch_factor``.

    With x the stretch factor, the bracket is [x*(1 - tol), x*(1 + tol)],
    each end the float product, read exactly as a dyadic rational, for a
    ``tol`` in (0, 1): at 1 or more the low end is at most 0 and the
    bracket holds the radius of any M.  The Sturm chain of p = char_poly(M) gives
    V(lo-), V(hi+) and V(+oo), and the radius lies in the bracket
    exactly when V(lo-) > V(hi+) = V(+oo).  Otherwise
    :class:`VerificationError` carries the bracket as ``expected`` and
    the two counts as ``actual``; a bracket end that is not a finite
    positive float (a NaN, infinite, non-positive or overflowing stretch
    factor) raises it with the bracket alone.
    """
    if not 0 < tol < 1:
        raise InvalidInputError(
            f"tol {tol!r} is not a finite positive number below 1"
        )
    x = float(report.stretch_factor)
    bracket = (x * (1 - tol), x * (1 + tol))
    if not 0 < bracket[0] <= bracket[1] < inf:
        raise VerificationError(
            f"the bracket [{bracket[0]!r}, {bracket[1]!r}] around the "
            f"stretch factor {x!r} is not finite and positive",
            expected=list(bracket),
        )
    at_lo, at_hi, at_infinity = bracket_sign_changes(facts(M).poly, *bracket)
    if not at_lo > at_hi == at_infinity:
        raise VerificationError(
            f"spectral radius is not in the bracket [{bracket[0]!r}, "
            f"{bracket[1]!r}] around the stretch factor {x!r}: Sturm sign "
            f"changes {at_lo} just below it, {at_hi} just above it and "
            f"{at_infinity} at +oo",
            expected=list(bracket),
            actual=[at_lo, at_hi],
        )
    return IncidenceReport(bracket, (at_lo, at_hi))

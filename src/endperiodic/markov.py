"""Markov incidence matrix and stretch-factor certificate.

The constructed surface is a double, so the incidence matrix of its
Markov decomposition is diag(M, M), whose spectral radius is that of M.
``verify_stretch`` certifies it by one exact product with the Perron
vector eta: for a non-negative M and a positive v,
min_i (Mv)_i / v_i <= rho(M) <= max_i (Mv)_i / v_i (L. Collatz, Math. Z.
48, 1942; H. Wielandt, Math. Z. 52, 1950), so a poor eta can only fail
it. It needs neither the doubled matrix nor char_poly(M).
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple

from .errors import InvalidInputError, VerificationError
from .spectral import IntMatrix, MatrixFacts, facts


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
    return IntMatrix(rows)


class IncidenceReport(NamedTuple):
    """Certificate that the spectral radius lies in ``bracket``; its
    evidence is the Perron vector, the record's ``eigendata.eta``."""

    bracket: tuple[float, float]

    def to_json_dict(self) -> dict:
        return {"bracket": list(self.bracket)}


def verify_stretch(
    M: IntMatrix | MatrixFacts, report, tol: float = 1e-9
) -> IncidenceReport:
    """Certify that the spectral radius of M is ``report.stretch_factor``.

    With x the stretch factor, the bracket is [x*(1 - tol), x*(1 + tol)],
    each end the float product, read exactly as a dyadic rational, for a
    ``tol`` in (0, 1): at 1 or more the low end is at most 0 and the
    bracket holds the radius of any M. The entries of ``report.eta``,
    read exactly and scaled by one power of two to integers v, certify it
    if lo * v_i <= (Mv)_i <= hi * v_i on every row i, a sum over the arcs
    into i. Otherwise :class:`VerificationError` carries the bracket as
    ``expected`` and the first failing row with its ratio (Mv)_i / v_i as
    ``actual``. It also names a bracket end that is not a finite positive
    float (a NaN, infinite, non-positive or overflowing stretch factor),
    an eta not of M's size, and the first entry of eta that is not a
    finite positive number.
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
    F = facts(M)
    arcs, eta = F.graph.predecessors, report.eta
    if len(eta) != len(arcs):
        raise VerificationError(
            f"eigendata.eta has {len(eta)} entries, not {len(arcs)}",
            expected=len(arcs), actual=len(eta),
        )
    for i, e in enumerate(eta):
        if not 0 < e < inf:
            raise VerificationError(
                f"eigendata.eta[{i}] = {e!r} is not a finite positive number",
                actual=[i, e],
            )
    ratios = [e.as_integer_ratio() for e in eta]
    scale = max(den for _, den in ratios)
    v = [num * (scale // den) for num, den in ratios]
    (lo_num, lo_den), (hi_num, hi_den) = (e.as_integer_ratio() for e in bracket)
    for i, (row, js) in enumerate(zip(F.matrix.entries, arcs)):
        mv = sum([row[j] * v[j] for j in js])
        if not (lo_num * v[i] <= lo_den * mv and hi_den * mv <= hi_num * v[i]):
            try:
                ratio = mv / v[i]
            except OverflowError:  # past the largest float
                ratio = inf
            raise VerificationError(
                f"spectral radius is not certified in the bracket "
                f"[{bracket[0]!r}, {bracket[1]!r}] around the stretch factor "
                f"{x!r}: row {i} of M times eta has ratio {ratio!r} to "
                f"eigendata.eta[{i}] (Collatz-Wielandt)",
                expected=list(bracket),
                actual=[i, ratio],
            )
    return IncidenceReport(bracket)

"""Markov incidence matrix and stretch-factor verification.

The constructed homeomorphism carries a Markov decomposition whose
incidence matrix is block diagonal with two copies of the input matrix
(one copy per side of the doubled surface).  The stretch factor of the
map equals the spectral radius of that incidence matrix, which by block
structure equals the spectral radius of the input matrix itself.  This
module builds the incidence matrix and certifies the spectral claim.

The certificate uses the block identity
char_poly(diag(B, ..., B)) = char_poly(B)**k for k copies of B: it checks
that the incidence matrix is block diagonal with equal diagonal blocks,
then computes the characteristic polynomial of one n x n block only.  The
radius it reports is, bit for bit, the one a Sturm bisection on the
degree-kn polynomial of the whole matrix gives (see
:func:`~endperiodic.spectral.block_diagonal_radius`).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import VerificationError
from .spectral import IntMatrix, IntPolynomial, block_diagonal_radius, char_poly


def incidence_matrix(M: IntMatrix, doubled: bool = True) -> IntMatrix:
    """Incidence matrix of the Markov decomposition induced by the map.

    With ``doubled=True`` (the constructed surface is a double) the
    result is the block-diagonal matrix ``[[M, 0], [0, M]]``; otherwise
    it is ``M`` itself.
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
    """Certificate comparing the incidence spectral radius to a target.

    The target is the surface's stretch factor; the ``incidence`` section
    does not repeat it, since the record holds it as ``eigendata.lambda``
    (the same ``"%.15g"`` string) and ``surface.stretch_factor``.
    """

    incidence: IntMatrix
    spectral_radius: float
    relative_error: float

    def to_json_dict(self) -> dict:
        return {
            "incidence": self.incidence.to_lists(),
            "spectral_radius": "%.15g" % self.spectral_radius,
            "relative_error": "%.6g" % self.relative_error,
        }


def _diagonal_block(inc: IntMatrix, n: int) -> tuple[IntMatrix, int]:
    """The n x n block repeated down the diagonal of ``inc``, and the
    number of blocks.

    Raises :class:`VerificationError` naming the block, as (row, column)
    in units of n, unless ``inc`` is block diagonal with every diagonal
    block equal to the first.
    """
    if inc.n % n:
        raise VerificationError(
            f"incidence matrix of size {inc.n} is not made of {n} x {n} blocks",
            expected=n,
            actual=inc.n,
        )
    k = inc.n // n
    block = tuple(row[:n] for row in inc.entries[:n])
    for i, row in enumerate(inc.entries):
        b = i // n
        for c in range(k):
            part = row[c * n:(c + 1) * n]
            if c == b and part != block[i % n]:
                raise VerificationError(
                    f"incidence diagonal block ({b}, {b}) differs from block (0, 0)",
                    expected=list(block[i % n]),
                    actual=list(part),
                )
            if c != b and any(part):
                raise VerificationError(
                    f"incidence off-diagonal block ({b}, {c}) is not zero",
                    expected=[0] * n,
                    actual=list(part),
                )
    return IntMatrix(block), k


def verify_stretch(
    M: IntMatrix, report, tol: float = 1e-9, poly: IntPolynomial | None = None
) -> IncidenceReport:
    """Check that the incidence matrix realizes the reported stretch factor.

    ``report`` is a surface report exposing ``stretch_factor`` and
    ``doubled``.  The (possibly doubled) incidence matrix must be block
    diagonal with k equal n x n diagonal blocks B, n = ``M.n``; otherwise
    :class:`VerificationError` names the offending block.  Its
    characteristic polynomial is then char_poly(B)**k, and its spectral
    radius is found by exact Sturm bisection on p = char_poly(B) alone,
    started from the Cauchy bound of p**k.  p**k has the roots of p, and
    at a probe that is not a root both Sturm chains count the same
    distinct roots above it, so every bisection step is the one on p**k
    and the radius is the same float as ``spectral_radius_exact`` of the
    whole matrix.  ``poly``, if given, is ``char_poly(M)`` (with its
    Sturm chain) from the eigen stage; it stands for p only once B has
    been checked equal to M entry for entry, else p is computed from B.
    A relative mismatch with the reported stretch factor beyond ``tol``
    raises :class:`VerificationError` carrying both values.
    """
    target_lambda = float(report.stretch_factor)
    inc = incidence_matrix(M, doubled=bool(report.doubled))
    block, k = _diagonal_block(inc, M.n)
    if poly is None or block != M:
        poly = char_poly(block)
    rho = block_diagonal_radius(poly, k)
    rel = abs(rho - target_lambda) / target_lambda
    if rel > tol:
        raise VerificationError(
            "incidence spectral radius does not match the target stretch factor",
            expected=target_lambda,
            actual=rho,
        )
    return IncidenceReport(
        incidence=inc,
        spectral_radius=rho,
        relative_error=rel,
    )

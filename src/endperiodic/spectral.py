"""Exact integer matrix algebra and Perron eigendata.

Matrices are kept as exact integers; the characteristic polynomial and its
largest real root are computed exactly (Sturm-sequence bisection in exact
integer arithmetic at dyadic probes), while eigenvectors come from power
iteration with a certified residual. The two routes cross-check each other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm

import numpy as np

from .errors import ConvergenceError, InvalidInputError, PreconditionError

#: residual target for eigendata
DEFAULT_TOL = 1e-10
#: coarser tolerance used for all downstream coordinate comparisons
COORD_TOL = 1e-7

_POWER_ITER_BUDGET = 500_000


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix of non-negative integers."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise InvalidInputError("matrix dimension must be positive")
        for row in self.entries:
            if len(row) != n:
                raise InvalidInputError("matrix must be square")
            for v in row:
                if not isinstance(v, int) or v < 0:
                    raise InvalidInputError("entries must be non-negative integers")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def digraph(self) -> "Digraph":
        return Digraph(self.n, self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        n = self.n
        a, b = self.entries, other.entries
        return IntMatrix.from_rows(
            [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        )


@dataclass(frozen=True)
class Digraph:
    """Directed multigraph of a matrix: ``multiplicity[i][j]`` arcs v_j -> v_i."""

    vertex_count: int
    multiplicity: tuple[tuple[int, ...], ...]

    def successors(self, j: int) -> list[int]:
        return [i for i in range(self.vertex_count) if self.multiplicity[i][j] > 0]

    def predecessors(self, i: int) -> list[int]:
        return [j for j in range(self.vertex_count) if self.multiplicity[i][j] > 0]

    def arcs(self):
        """Yields (source, target, multiplicity) triples."""
        for i in range(self.vertex_count):
            for j in range(self.vertex_count):
                if self.multiplicity[i][j] > 0:
                    yield j, i, self.multiplicity[i][j]


@dataclass(frozen=True)
class IntPolynomial:
    """Monic integer polynomial; coefficients ascending, coeff[-1] == 1."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficients or self.coefficients[-1] != 1:
            raise InvalidInputError("polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def pretty(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coefficients[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(f"{c:+d}")
            else:
                xs = "x" if k == 1 else f"x^{k}"
                if c == 1:
                    terms.append(f"+{xs}")
                elif c == -1:
                    terms.append(f"-{xs}")
                else:
                    terms.append(f"{c:+d}{xs}")
        s = "".join(terms)
        return s.lstrip("+")


@dataclass(frozen=True)
class PerronData:
    """Spectral radius with positive right/left eigenvectors (last entry 1)."""

    lam: float
    eta: tuple[float, ...]
    omega: tuple[float, ...]
    residual: float

    def to_json_dict(self) -> dict:
        fmt = lambda x: f"{x:.15g}"
        return {
            "lambda": fmt(self.lam),
            "eta": [fmt(v) for v in self.eta],
            "omega": [fmt(v) for v in self.omega],
            "residual": fmt(self.residual),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PerronData":
        return cls(
            lam=float(d["lambda"]),
            eta=tuple(float(v) for v in d["eta"]),
            omega=tuple(float(v) for v in d["omega"]),
            residual=float(d["residual"]),
        )


# ---------------------------------------------------------------------------
# matrix I/O


def parse_matrix_text(text: str) -> IntMatrix:
    """Whitespace-separated rows, one per line; JSON array-of-arrays also accepted."""
    stripped = text.strip()
    if stripped.startswith("["):
        data = json.loads(stripped)
        return IntMatrix.from_rows(data)
    rows = []
    for line in stripped.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise InvalidInputError(f"bad matrix row {line!r}") from exc
    if not rows:
        raise InvalidInputError("empty matrix input")
    return IntMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# graph predicates


def is_irreducible(M: IntMatrix) -> bool:
    """True iff some power of M has a positive (i, j) entry for every i, j.

    Equivalently, the digraph of M is strongly connected; for n = 1 this
    requires a self-loop (the 1x1 zero matrix is reducible).
    """
    if M.n == 1:
        return M[0, 0] > 0
    g = M.digraph()
    n = g.vertex_count

    def reaches_all(neighbors) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in neighbors(v):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == n

    return reaches_all(g.successors) and reaches_all(g.predecessors)


def graph_period(M: IntMatrix) -> int:
    """gcd of all cycle lengths of an irreducible matrix's digraph."""
    if not is_irreducible(M):
        raise PreconditionError("graph period requires an irreducible matrix")
    g = M.digraph()
    level = {0: 0}
    queue = [0]
    period = 0
    while queue:
        v = queue.pop()
        for u in g.successors(v):
            if u not in level:
                level[u] = level[v] + 1
                queue.append(u)
            else:
                period = gcd(period, level[v] + 1 - level[u])
    return abs(period)


def is_primitive(M: IntMatrix) -> bool:
    """True iff M is irreducible with cycle-length gcd 1."""
    return graph_period(M) == 1


def wielandt_bound(n: int) -> int:
    return n * n - 2 * n + 2


# ---------------------------------------------------------------------------
# exact characteristic polynomial


def char_poly(M: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(xI - M), exact over the integers.

    Faddeev-LeVerrier recurrence; the division by k is exact at every step.
    """
    n = M.n
    rows = [list(r) for r in M.entries]
    aux = [[0] * n for _ in range(n)]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    c = 1
    for k in range(1, n + 1):
        # aux <- M @ (aux + c*I)
        shifted = [row[:] for row in aux]
        for i in range(n):
            shifted[i][i] += c
        aux = [
            [sum(rows[i][t] * shifted[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(aux[i][i] for i in range(n))
        assert trace % k == 0
        c = -trace // k
        coeffs[n - k] = c
    return IntPolynomial(tuple(coeffs))


def determinant(M: IntMatrix) -> int:
    p = char_poly(M)
    return (-1) ** M.n * p.coefficients[0]


# ---------------------------------------------------------------------------
# exact largest real root (Sturm bisection)


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = a[:]
    while len(a) >= len(b) and a:
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] -= factor * bc
        _poly_trim(a)
    return a


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [p, _poly_trim([i * c for i, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _integer_chain(chain: list[list[Fraction]]) -> list[tuple[int, ...]]:
    """Each polynomial times the lcm of its denominators; signs are kept."""
    out = []
    for q in chain:
        if q:
            scale = lcm(*(c.denominator for c in q))
            out.append(tuple(int(c * scale) for c in q))
    return out


def _dyadic_value(q: tuple[int, ...], num: int, exp: int) -> int:
    """``2**(exp*d) * q(num / 2**exp)`` for q of degree d; same sign as q there."""
    d = len(q) - 1
    acc = q[d]
    for i in range(d - 1, -1, -1):
        acc = acc * num + (q[i] << (exp * (d - i)))
    return acc


def _count_sign_changes(values) -> int:
    changes = 0
    prev = 0
    for v in values:
        if v:
            if prev and (v > 0) != (prev > 0):
                changes += 1
            prev = v
    return changes


def _bisect_top_root(
    chain: list[tuple[int, ...]], bound: int, precision: float
) -> float:
    """Bisect ``[-bound, bound]`` down to the topmost root of ``chain[0]``.

    ``chain`` is an integer Sturm chain and ``bound`` exceeds every real
    root of ``chain[0]``. Every bracket end and probe is ``num / 2**exp``,
    so a sign is one integer Horner pass. The returned float is the
    midpoint of an isolating interval narrower than ``precision``.
    """
    p, rest = chain[0], chain[1:]

    def sign_changes(num: int, exp: int, head: int) -> int:
        return _count_sign_changes(
            [head] + [_dyadic_value(q, num, exp) for q in rest]
        )

    # the bracket is [lo, hi] / 2**exp
    lo, hi, exp = -bound, bound, 0
    changes_hi = sign_changes(hi, exp, _dyadic_value(p, hi, exp))
    if sign_changes(lo, exp, _dyadic_value(p, lo, exp)) == changes_hi:
        raise InvalidInputError("polynomial has no real roots")

    # shrink toward the topmost root; sign-change counts need probe points
    # that are not themselves roots, so nudge a midpoint that is a root
    # toward hi by a quarter of the bracket, then an eighth, and so on
    while (hi - lo) / (1 << exp) > precision:
        num, probe_exp = lo + hi, exp + 1
        head = _dyadic_value(p, num, probe_exp)
        while head == 0:
            num, probe_exp = 2 * num + (hi - lo), probe_exp + 1
            head = _dyadic_value(p, num, probe_exp)
        changes = sign_changes(num, probe_exp, head)
        lo <<= probe_exp - exp
        hi <<= probe_exp - exp
        exp = probe_exp
        # the probe has at least hi's sign changes (hi's count never moves),
        # and more iff a root lies above the probe
        if changes > changes_hi:
            lo = num
        else:
            hi = num
    return (lo + hi) / (1 << (exp + 1))


def _integer_sturm_chain(coefficients) -> list[tuple[int, ...]]:
    return _integer_chain(_sturm_chain([Fraction(c) for c in coefficients]))


def _cauchy_bound(coefficients) -> int:
    return 1 + max(abs(c) for c in coefficients)


def largest_real_root(poly: IntPolynomial, precision: float = 1e-12) -> float:
    """Largest real root of a monic integer polynomial, by Sturm bisection.

    Exact integer arithmetic at dyadic probes: each Sturm polynomial is
    scaled to integer coefficients and the bracket starts at the Cauchy
    bound. The returned float is the midpoint of an isolating interval
    narrower than ``precision``.
    """
    coefficients = tuple(getattr(poly, "coefficients", poly))
    return _bisect_top_root(
        _integer_sturm_chain(coefficients), _cauchy_bound(coefficients), precision
    )


def _poly_power(coefficients: tuple[int, ...], k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        prod = [0] * (len(out) + len(coefficients) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(coefficients):
                prod[i + j] += a * b
        out = prod
    return out


def spectral_radius_exact(M: IntMatrix, precision: float = 1e-12) -> float:
    """Spectral radius of a non-negative integer matrix.

    For non-negative matrices the spectral radius is itself an eigenvalue,
    hence the largest real root of the characteristic polynomial.
    """
    return max(0.0, largest_real_root(char_poly(M), precision))


def block_diagonal_radius(block: IntMatrix, k: int, precision: float = 1e-12) -> float:
    """``spectral_radius_exact`` of diag(block, ..., block), k copies, bit for bit.

    That matrix has the characteristic polynomial p**k, p = char_poly(block),
    so only p is computed. The bisection starts from the Cauchy bound of
    p**k, as ``spectral_radius_exact`` does, but runs on p's own Sturm
    chain. p**k has the roots of p, and at a probe that is not a root both
    chains count the same distinct roots above it; the bisection therefore
    takes every step the one on p**k takes and returns the same float.
    """
    coefficients = char_poly(block).coefficients
    bound = _cauchy_bound(_poly_power(coefficients, k))
    return max(
        0.0, _bisect_top_root(_integer_sturm_chain(coefficients), bound, precision)
    )


# ---------------------------------------------------------------------------
# Perron eigendata


def _power_iterate(A: np.ndarray, tol: float) -> tuple[float, np.ndarray]:
    n = A.shape[0]
    # one product per step: A @ w serves the Rayleigh quotient, the
    # residual and, as the next unnormalised iterate, the following step
    Aw = A @ (np.ones(n) / n)
    resid = float("inf")
    for it in range(_POWER_ITER_BUDGET):
        w = Aw
        s = w.sum()
        if s <= 0:
            raise ConvergenceError("power iteration collapsed", float("inf"))
        w /= s
        Aw = A @ w
        lam = float(w @ Aw / (w @ w))
        resid = float(np.abs(Aw - lam * w).max())
        if resid <= tol * max(1.0, lam) and it > 2:
            return lam, w
    raise ConvergenceError(f"power iteration did not reach residual {tol}", resid)


def perron_eigendata(M: IntMatrix, tol: float = DEFAULT_TOL) -> PerronData:
    """Spectral radius and positive right/left eigenvectors of an irreducible M.

    Power iteration runs on M + I so that imprimitive (periodic) spectra do
    not oscillate; the eigenvalue is cross-checked against the largest real
    root of the exact characteristic polynomial.
    """
    if not 0 < tol < inf:
        raise InvalidInputError(f"tol {tol!r} is not a finite positive number")
    if not is_irreducible(M):
        raise PreconditionError("perron_eigendata requires an irreducible matrix")
    A = np.array(M.entries, dtype=float)
    shifted = A + np.eye(M.n)
    lam_r, eta = _power_iterate(shifted, tol * 1e-2)
    lam_l, omega = _power_iterate(shifted.T, tol * 1e-2)
    lam = (lam_r + lam_l) / 2 - 1.0

    eta = eta / eta[-1]
    omega = omega / omega[-1]
    residual = max(
        float(np.max(np.abs(A @ eta - lam * eta))),
        float(np.max(np.abs(omega @ A - lam * omega))),
    )
    if residual > tol * max(1.0, lam):
        raise ConvergenceError(f"residual {residual} above tol {tol}", residual)

    root = largest_real_root(char_poly(M))
    if abs(lam - root) > max(tol, 1e-9):
        raise ConvergenceError(
            f"eigenvalue {lam} disagrees with exact root {root}", abs(lam - root)
        )
    return PerronData(
        lam=lam,
        eta=tuple(float(v) for v in eta),
        omega=tuple(float(v) for v in omega),
        residual=residual,
    )


# ---------------------------------------------------------------------------
# weak-Perron block lift


def block_lift(M: IntMatrix, k: int) -> IntMatrix:
    """km x km block matrix: M in the top-right block, identities below the diagonal.

    The spectral radius of the lift is the k-th root of the spectral radius
    of M.
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if k == 1:
        return M
    m = M.n
    n = k * m
    out = [[0] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            out[i][(k - 1) * m + j] = M.entries[i][j]
    for b in range(k - 1):
        for i in range(m):
            out[(b + 1) * m + i][b * m + i] = 1
    return IntMatrix.from_rows(out)


def is_block_lift_of(M: IntMatrix, k: int) -> bool:
    """Check that M has the block-permutation shape produced by block_lift."""
    if k < 1 or M.n % k:
        return False
    m = M.n // k
    inner = [[M.entries[i][(k - 1) * m + j] for j in range(m)] for i in range(m)]
    return M == block_lift(IntMatrix.from_rows(inner), k)

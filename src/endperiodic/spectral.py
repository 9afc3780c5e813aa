"""Exact integer matrix algebra and Perron eigendata.

Matrices are kept as exact integers; the characteristic polynomial is
exact, and the spectral radius is the float nearest it, which a float
Newton guess proposes and two exact integer sign tests at the ends of
that float's rounding interval confirm. The Perron eigenvectors come
from one step of inverse iteration at that root, with a checked residual
(``perron_eigendata``). The module is plain Python: no numpy.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, MappingView, Set
from functools import cached_property
from math import fsum, gcd, inf, isfinite, nextafter
from operator import index
from sys import float_info
from typing import NamedTuple

from .errors import ConvergenceError, InvalidInputError, PreconditionError

#: residual target for eigendata
DEFAULT_TOL = 1e-10
#: the most steps of ``_newton_guess``, which only proposes a float to check
_NEWTON_STEPS = 500


class _Value:
    """Base of the immutable value types that keep a ``__dict__``.

    A subclass's ``__init__`` stores its fields with ``vars(self).update``;
    after that, setting or deleting an attribute raises ``AttributeError``.
    Equality (same class only), hash and repr run over ``_fields``, the
    compared fields; ``functools.cached_property`` writes the instance dict
    directly and is unaffected.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"


def _is_int(v) -> bool:
    """A Python ``int`` that is not a ``bool``."""
    return isinstance(v, int) and not isinstance(v, bool)


class IntMatrix(_Value):
    """Square matrix of non-negative integers, stored as row tuples of
    Python ints. The constructor is the package's one matrix check: it
    takes any iterable of rows of Python or numpy integers, and names the
    first bad row or entry in an :class:`InvalidInputError` "matrix ..."."""

    _fields = ("entries",)
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries):
        rows = _sequence(entries, "matrix")
        if not rows:
            raise InvalidInputError("matrix has no rows")
        checked = []
        for i, row in enumerate(rows):
            row = _sequence(row, f"matrix row [{i}]")
            if len(row) != len(rows):
                raise InvalidInputError(
                    f"matrix row [{i}] has {len(row)} entries, not {len(rows)}"
                )
            checked.append(tuple([_index(v, i, j) for j, v in enumerate(row)]))
        vars(self).update(entries=tuple(checked))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        """``IntMatrix(rows)``, kept for the benchmark's callers."""
        return cls(rows)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def _sequence(value, where: str) -> tuple:
    """``value`` as a tuple; a non-iterable, or a str, bytes-like value,
    mapping, set or mapping view, whose items are characters, bytes, keys
    or in hash order, is refused."""
    try:
        if not isinstance(value, (str, bytes, bytearray, memoryview, Mapping,
                                  Set, MappingView)):
            return tuple(value)
    except TypeError:
        pass
    raise InvalidInputError(f"{where} is of type {type(value).__name__}, not a list")


def _index(v, i: int, j: int) -> int:
    """Entry ``[i][j]`` as a non-negative Python int, or InvalidInputError."""
    try:
        value = index(v)
        if value >= 0 and not isinstance(v, bool):
            return value
    except TypeError:
        pass
    raise InvalidInputError(
        f"matrix entry [{i}][{j}] of type {type(v).__name__} is refused: "
        "entries must be non-negative integers"
    )


class IntPolynomial(_Value):
    """Monic integer polynomial; coefficients ascending, coeff[-1] == 1,
    given as any iterable of ints (not bools), stored as a tuple."""

    _fields = ("coefficients",)
    coefficients: tuple[int, ...]

    def __init__(self, coefficients):
        coefficients = tuple(coefficients)
        if not all(map(_is_int, coefficients)):
            raise InvalidInputError("coefficients must be integers")
        if not coefficients or coefficients[-1] != 1:
            raise InvalidInputError("polynomial must be monic")
        vars(self).update(coefficients=coefficients)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

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


class PerronData(NamedTuple):
    """Spectral radius with positive right/left eigenvectors (last entry 1)."""

    lam: float
    eta: tuple[float, ...]
    omega: tuple[float, ...]
    residual: float

    def to_json_dict(self) -> dict:
        """lambda, eta and omega by ``repr``, which reads back to the same
        float; ``_max_residual`` gives the residual from M and these."""
        return {
            "lambda": repr(self.lam),
            "eta": list(map(repr, self.eta)),
            "omega": list(map(repr, self.omega)),
        }


# ---------------------------------------------------------------------------
# matrix I/O


def parse_matrix_text(text: str) -> IntMatrix:
    """Whitespace-separated rows, one per line; JSON array-of-arrays also
    accepted, whose entries must be JSON integers (not floats, booleans,
    strings or null)."""
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            data = json.loads(stripped)
        except (ValueError, RecursionError) as exc:  # as in load_record
            raise InvalidInputError(
                f"matrix input is not valid JSON: {exc}"
            ) from exc
        try:
            return IntMatrix(data)
        except InvalidInputError as exc:
            raise InvalidInputError(f"JSON {exc}") from None
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
    return IntMatrix(rows)


# ---------------------------------------------------------------------------
# graph predicates


class _GraphAnalysis(NamedTuple):
    """The facts of M's digraph that the stages of a run read, from one
    ``_analyse`` of M, which ``MatrixFacts.graph`` makes once and keeps
    as long as the facts value that holds it.

    ``successors[j]`` lists, ascending, the i with ``M[i][j] > 0`` (the
    arcs v_j -> v_i, the nonzero entries of column j), and
    ``predecessors[i]`` the j with ``M[i][j] > 0`` (the nonzero entries of
    row i): the one copy of M's arcs that every stage reads. ``classes``
    holds the cyclic classes of an irreducible M in the order its arcs
    visit them, vertex 0 in the first, and is empty for a reducible M.
    """

    successors: list[list[int]]
    predecessors: list[list[int]]
    classes: tuple[tuple[int, ...], ...]

    @property
    def irreducible(self) -> bool:
        return bool(self.classes)


def _analyse(M: IntMatrix) -> _GraphAnalysis:
    """Adjacency lists of M's digraph from one scan of its entries, then
    its cyclic classes and irreducibility from two walks of O(n + arcs).

    A depth-first walk from vertex 0 along the successors (a stack) gives
    each vertex it reaches a level, the length of its tree path; the
    period d is the gcd of level(v) + 1 - level(u) over all arcs v -> u,
    and class c holds the vertices of level c mod d. Every arc leads from
    a class to the next. M is irreducible iff that walk and a second one
    along the predecessors reach every vertex and d > 0, some arc closing
    a cycle: the 1 x 1 zero matrix has none and is reducible.
    """
    n = M.n
    predecessors = [[j for j, v in enumerate(row) if v] for row in M.entries]
    successors = [[] for _ in range(n)]
    for i, sources in enumerate(predecessors):
        for j in sources:
            successors[j].append(i)
    level = [-1] * n
    level[0] = 0
    stack = [0]
    period = 0
    while stack:
        v = stack.pop()
        for u in successors[v]:
            if level[u] < 0:
                level[u] = level[v] + 1
                stack.append(u)
            else:
                period = gcd(period, level[v] + 1 - level[u])
    if not period or -1 in level or not _reaches_all(predecessors):
        return _GraphAnalysis(successors, predecessors, ())
    classes = [[] for _ in range(period)]
    for v in range(n):
        classes[level[v] % period].append(v)
    return _GraphAnalysis(successors, predecessors, tuple(map(tuple, classes)))


def _reaches_all(neighbors: list[list[int]]) -> bool:
    """Whether a walk from vertex 0 along ``neighbors`` meets every vertex."""
    seen = {0}
    stack = [0]
    while stack:
        for u in neighbors[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(neighbors)


VERTICAL = "V"
HORIZONTAL = "H"


class StripLabel(NamedTuple):
    """Strip V^(k)_{i,j} (orientation V) or H^(k)_{i,j} (orientation H).

    ``rect`` is the host rectangle k, ``source`` the index i, ``copy`` the
    duplicate number j. All indices are 1-based.
    """

    orientation: str
    rect: int
    source: int
    copy: int

    def __str__(self):
        return f"{self.orientation}({self.rect};{self.source},{self.copy})"


def _canonical_labels(
    M: IntMatrix, graph: _GraphAnalysis, k: int, orientation: str
) -> tuple[StripLabel, ...]:
    """The labels of rectangle k in ascending order: column k of M gives
    the vertical ones, row k the horizontal ones. ``graph``, the
    ``_analyse`` of M, lists the nonzero entries of that column
    (``successors[k - 1]``) or row (``predecessors[k - 1]``), and only
    those entries of M are read."""
    entries = M.entries
    if orientation == VERTICAL:
        mults = [(i, entries[i][k - 1]) for i in graph.successors[k - 1]]
    else:
        row = entries[k - 1]
        mults = [(j, row[j]) for j in graph.predecessors[k - 1]]
    return tuple(
        StripLabel(orientation, k, i + 1, c)
        for i, mult in mults
        for c in range(1, mult + 1)
    )


class MatrixFacts(_Value):
    """The facts of M that the stages read, each computed on first read
    and then kept: ``graph``, the ``_analyse`` of M, ``labels``, its
    canonical strip labels, and ``poly``, char_poly(M). A stage given a
    bare M makes its own with ``facts(M)``."""

    _fields = ("matrix",)
    matrix: IntMatrix

    def __init__(self, matrix: IntMatrix):
        vars(self).update(matrix=matrix)

    @cached_property
    def graph(self) -> _GraphAnalysis:
        return _analyse(self.matrix)

    @cached_property
    def labels(self) -> tuple[dict, dict]:
        """The canonical labels of every rectangle, k -> tuple: the
        vertical table and the horizontal one."""
        M, graph = self.matrix, self.graph
        ks = range(1, M.n + 1)
        return (
            {k: _canonical_labels(M, graph, k, VERTICAL) for k in ks},
            {k: _canonical_labels(M, graph, k, HORIZONTAL) for k in ks},
        )

    @cached_property
    def poly(self) -> IntPolynomial:
        """Characteristic polynomial det(xI - M), exact over the integers.

        An irreducible M of period d >= 2 is, up to a permutation of its
        vertices, a cyclic block matrix over its d cyclic classes. Then
        det(xI - M) = x**(n - d*n_1) * det(x**d I - B), where B is the
        product of the d blocks around a smallest class, of size n_1 (Minc,
        *Nonnegative Matrices*, 1988, ch. 3), so Faddeev-LeVerrier runs on
        the n_1 x n_1 matrix B: on the k-th block lift of an m x m matrix
        A, B is A itself and the polynomial is char_poly(A)(x**k). A
        primitive or reducible M goes through Faddeev-LeVerrier as it is.
        """
        M, graph = self.matrix, self.graph
        n = M.n
        classes = graph.classes
        d = len(classes)
        if d < 2:
            return IntPolynomial(_faddeev_leverrier(M.entries))
        c = min(range(d), key=lambda t: len(classes[t]))
        start = classes[c]
        n_1 = len(start)
        entries, predecessors = M.entries, graph.predecessors
        # rows[i] is row i of the product of the blocks walked so far into
        # i's class: the combination of the rows of i's predecessors, one
        # per arc j -> i, all in the class before
        rows = {v: [int(u == v) for u in start] for v in start}
        for t in range(1, d + 1):
            block = {}
            for i in classes[(c + t) % d]:
                row, acc = entries[i], [0] * n_1
                for j in predecessors[i]:
                    m = row[j]
                    acc = [a + m * b for a, b in zip(acc, rows[j])]
                block[i] = acc
            rows = block
        q = _faddeev_leverrier([rows[v] for v in start])
        coeffs = [0] * (n + 1)
        for i, a in enumerate(q):
            coeffs[n - d * n_1 + d * i] = a
        return IntPolynomial(coeffs)


def facts(M: IntMatrix | MatrixFacts) -> MatrixFacts:
    """The facts value of M, or M itself if it already is one."""
    return M if isinstance(M, MatrixFacts) else MatrixFacts(M)


def is_irreducible(M: IntMatrix) -> bool:
    """True iff some power of M has a positive (i, j) entry for every i, j.

    Equivalently, the digraph of M is strongly connected; for n = 1 this
    requires a self-loop (the 1x1 zero matrix is reducible).
    """
    return _analyse(M).irreducible


def graph_period(M: IntMatrix) -> int:
    """gcd of all cycle lengths of an irreducible matrix's digraph: the
    number d of its cyclic classes (``_analyse``), over which
    ``MatrixFacts.poly`` reads M as a cyclic block matrix when d >= 2."""
    classes = _analyse(M).classes
    if not classes:
        raise PreconditionError("graph period requires an irreducible matrix")
    return len(classes)


def is_primitive(M: IntMatrix) -> bool:
    """True iff M is irreducible with cycle-length gcd 1: one cyclic class."""
    return len(_analyse(M).classes) == 1


# ---------------------------------------------------------------------------
# exact characteristic polynomial


def char_poly(M: IntMatrix | MatrixFacts) -> IntPolynomial:
    """Characteristic polynomial det(xI - M), exact over the integers:
    ``facts(M).poly``."""
    return facts(M).poly


def _faddeev_leverrier(rows) -> list[int]:
    """Ascending coefficients of det(xI - A) for the integer matrix with
    ``rows``, by the Faddeev-LeVerrier recurrence; the division by k is
    exact at every step. Each product A @ (aux + c*I) is formed row by
    row as a combination of the rows of aux + c*I, one per nonzero entry
    of A, so a sparse A costs n**2 per step, not n**3.
    """
    n = len(rows)
    nonzero = [[(t, v) for t, v in enumerate(row) if v] for row in rows]
    aux = [[0] * n for _ in range(n)]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    c = 1
    for k in range(1, n + 1):
        # aux <- A @ (aux + c*I)
        for i in range(n):
            aux[i][i] += c
        product = []
        for terms in nonzero:
            row = [0] * n
            for t, v in terms:
                row = [a + v * b for a, b in zip(row, aux[t])]
            product.append(row)
        aux = product
        trace = sum(aux[i][i] for i in range(n))
        assert trace % k == 0
        c = -trace // k
        coeffs[n - k] = c
    return coeffs


def determinant(M: IntMatrix | MatrixFacts) -> int:
    """det(M), read off char_poly(M)."""
    F = facts(M)
    return (-1) ** F.matrix.n * F.poly.coefficients[0]


# ---------------------------------------------------------------------------
# spectral radius: the nearest float, by exact sign tests


def _root_up(a: int, k: int) -> int:
    """The least integer r with r**k >= a, for a >= 1, by bisection."""
    lo, hi = 1, 1 << -(-a.bit_length() // k)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mid ** k >= a else (mid + 1, hi)
    return lo


def _fujiwara_bound(p: tuple[int, ...]) -> int:
    """Fujiwara's bound 2 * max(|a_(n-k)|**(1/k), |a_0 / 2|**(1/n)) on the
    moduli of the roots of p = ±(x**n + a_(n-1) x**(n-1) + ... + a_0),
    each root rounded up to an integer."""
    n = len(p) - 1
    terms = [(abs(p[n - k]), k) for k in range(1, n)] + [((abs(p[0]) + 1) // 2, n)]
    return 2 * max((_root_up(a, k) for a, k in terms if a), default=0)


def _newton_guess(q: tuple[int, ...], d: int, bound: int) -> float | None:
    """A float near r**(1/d), r the top real root of q: Newton's method on
    q from ``bound`` above r until a step stops moving down; None on
    overflow, past the cap or below 0."""
    x = float(bound)
    for _ in range(_NEWTON_STEPS):
        value = slope = 0.0
        for c in reversed(q):
            value, slope = value * x + c, slope * x + value
        step = x - value / slope if slope else x
        if not step < x:
            return x ** (1 / d) if isfinite(value) and x >= 0 else None
        x = step
    return None


def _halfway(x: float, y: float) -> tuple[int, int]:
    """(x + y) / 2 exactly, as (num, exp) with value num / 2**exp."""
    (a, b), (c, d) = x.as_integer_ratio(), y.as_integer_ratio()
    m = max(b, d)  # b and d are powers of two
    return a * (m // b) + c * (m // d), m.bit_length()


def _taylor_shift(q: tuple[int, ...], num: int, exp: int) -> list[int]:
    """The ascending coefficients of 2**(exp*m) * q((y + num) / 2**exp),
    m = deg q, by Horner's rule: m * (m + 1) / 2 integer steps."""
    m = len(q) - 1
    s = [c << exp * (m - i) for i, c in enumerate(q)]
    for i in range(m):
        for j in range(m - 1, i - 1, -1):
            s[j] += num * s[j + 1]
    return s


def _shift_test(q: tuple[int, ...], d: int, num: int, exp: int) -> int:
    """-1, 0 or 1 as b = num / 2**exp is below, at or above ρ, where ρ**d
    is the spectral radius r of a non-negative matrix with char_poly q.

    Every root μ of q has |μ| <= r, and r is one (Perron-Frobenius). The
    roots of s, the ``_taylor_shift`` of q to c = b**d, are the
    2**(exp*d) * (μ - c). If c > r, all lie in the open left half-plane,
    so every coefficient of s is positive (Gantmacher, *The Theory of
    Matrices*, vol. 2, ch. XV). If c = r, s is y**k times such a
    polynomial, as every other μ has real part below r: no coefficient
    is negative, and s(0) = 0. If c < r, s has a positive root, so some
    coefficient is negative. A b < 0 is below ρ >= 0, and b >= 0
    compares with ρ as b**d with r.
    """
    if num < 0:
        return -1
    s = _taylor_shift(q, num ** d, exp * d)
    return -1 if min(s) < 0 else 1 if s[0] else 0


def _cycle_poly(F: MatrixFacts) -> tuple[tuple[int, ...], int]:
    """(q, d) with χ(x) = x**(n - d*m) * q(x**d), m = deg q: d is M's
    period and q, char_poly of the cycle product, the slice of χ that
    ``MatrixFacts.poly`` spreads out; d = 1 and q = χ for a primitive or
    reducible M."""
    classes, n = F.graph.classes, F.matrix.n
    d = len(classes) or 1
    return F.poly.coefficients[n - d * min(map(len, classes), default=n)::d], d


def _perron_root(F: MatrixFacts) -> float:
    """The float nearest the spectral radius ρ of M, from ``_shift_test``
    on (q, d) = ``_cycle_poly(F)``.

    ρ rounds to g if a <= ρ < b at the ends a < b of g's rounding
    interval, halfway to its neighbours; a tie ρ = a, an integer above
    2**53, rounds to even, as int / int does. Else g steps to the
    neighbour the tests point to, at most twice. g is a Newton guess on
    q from B, the smaller of Cauchy's and Fujiwara's bounds on q's
    roots. Without one, or if it is not reached, [-B - 1, B + 1] is
    bisected until its ends round to one float or two adjacent ones (a
    bracket around a tie never shrinks to one), and g is the upper one,
    at most one step above ρ's float.
    """
    q, d = _cycle_poly(F)

    def nearest(g: float) -> float | None:
        for _ in range(3):
            a, b = (_halfway(g, nextafter(g, to)) for to in (-inf, inf))
            low = _shift_test(q, d, *a)
            if low > 0:  # ρ < a
                g = nextafter(g, -inf)
            elif low == 0:  # ρ = a, rounded to even
                return a[0] / (1 << a[1])
            elif _shift_test(q, d, *b) <= 0:  # ρ >= b
                g = nextafter(g, inf)
            else:  # g, as 0.0 if -0.0
                return g + 0.0
        return None

    bound = min(1 + max(map(abs, q[:-1])), _fujiwara_bound(q))
    guess = _newton_guess(q, d, bound)
    if guess is not None and (found := nearest(guess)) is not None:
        return found
    lo, hi, exp = -bound - 1, bound + 1, 0  # ρ in (lo, hi] / 2**exp
    while nextafter(lo / (1 << exp), inf) < hi / (1 << exp):
        mid, exp = lo + hi, exp + 1
        below = _shift_test(q, d, mid, exp) < 0
        lo, hi = (mid, hi << 1) if below else (lo << 1, mid)
    return nearest(hi / (1 << exp))


def spectral_radius_exact(M: IntMatrix | MatrixFacts) -> float:
    """Spectral radius of a non-negative integer matrix: the float nearest
    it (``_perron_root``), ties to even."""
    return _perron_root(facts(M))


# ---------------------------------------------------------------------------
# Perron eigendata


def _inverse_iteration_step(
    rows, row_arcs, column_arcs, lam: float, tiny: float
) -> list[float]:
    """Solve (A - lam*I) x = (1, ..., 1) for the integer matrix with
    ``rows``, nonzero in row i at the columns ``row_arcs[i]`` and in column
    j at the rows ``column_arcs[j]`` only.

    Gaussian elimination with partial pivoting in floats on dicts of each
    row's nonzeros: ``below[c]`` lists the rows with an entry in column c,
    fill-in included, so step c reads and eliminates only those below the
    pivot and swaps the first largest by position (``place``) into place.
    Each float is that of a dense solve, and a sparse block lift
    eliminates in O(arcs). At an exact eigenvalue a pivot can be exactly
    zero (``[[2]]`` at 2, or ``[[1, 1], [1, 1]]`` at 2); it is replaced by
    ``tiny``, and the solve returns a large multiple of the null vector.
    """
    n = len(rows)
    a = [{j: float(row[j]) for j in js} for row, js in zip(rows, row_arcs)]
    below = [list(js) for js in column_arcs]
    for i, row in enumerate(a):
        if i not in row:
            below[i].append(i)
        row[i] = row.get(i, 0.0) - lam
    b = [1.0] * n
    order = list(range(n))  # position -> row
    place = order[:]  # row -> position
    upper = []  # per position: pivot, right-hand side, sorted nonzeros
    for c in range(n):
        q = p = order[c]
        best = abs(a[p].get(c, 0.0))
        rest = []
        for r in below[c]:
            if place[r] > c:
                rest.append(r)
                v = abs(a[r][c])
                if v > best or v == best and place[r] < place[p]:
                    p, best = r, v
        if p != q:
            order[c], order[place[p]] = p, q
            place[q], place[p] = place[p], c
            rest[rest.index(p)] = q
        top, bp = a[p], b[p]
        pivot = top.get(c, 0.0) or tiny
        support = [(j, v) for j, v in top.items() if j > c and v != 0.0]
        support.sort()
        upper.append((pivot, bp, support))
        for r in rest:
            row = a[r]
            if row.get(c, 0.0) != 0.0:
                factor = row[c] / pivot
                for j, v in support:
                    if j not in row:
                        below[j].append(r)
                    row[j] = row.get(j, 0.0) - factor * v
                b[r] -= factor * bp
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        pivot, acc, support = upper[i]
        for j, v in support:
            acc -= v * x[j]
        x[i] = acc / pivot
    return x


def _max_residual(rows, arcs, lam: float, v: list[float]) -> float:
    """max_i |(A v)_i - lam v_i| for the matrix with ``rows``, whose row i
    is nonzero at the columns ``arcs[i]`` only; each entry summed exactly
    by ``fsum``."""
    return max(
        abs(fsum([row[j] * v[j] for j in js] + [-lam * v[i]]))
        for i, (row, js) in enumerate(zip(rows, arcs))
    )


def perron_eigendata(
    M: IntMatrix | MatrixFacts, tol: float = DEFAULT_TOL
) -> PerronData:
    """Spectral radius and positive right/left eigenvectors of an irreducible M.

    lambda is the float nearest the spectral radius, the largest real
    root of char_poly(M) (``_perron_root``). Irreducibility and the arcs
    that the residual sums over are read off M's digraph analysis.
    eta and omega come from one step of inverse iteration at that lambda:
    one solve each with M - lambda*I and its transpose, from the all-ones
    vector, scaled to last entry 1. Inverse iteration at an approximation
    t of lambda converges at |lambda - t| / |mu - t| over the other
    eigenvalues mu, and t is within half an ulp of lambda, so one solve
    suffices. Power iteration on M + I, used before, converged at
    max |mu + 1| / (lambda + 1), which tends to 1 for lambda = 2**(1/k)
    as k grows; from k = 40 on its residual stayed above 1e-10.
    Imprimitive spectra, with other eigenvalues of modulus lambda, need
    no shift.

    Raises ``ConvergenceError`` if a vector is not positive or the
    residual exceeds ``tol * max(1, lambda)``.
    """
    if not 0 < tol < inf:
        raise InvalidInputError(f"tol {tol!r} is not a finite positive number")
    F = facts(M)
    graph = F.graph
    if not graph.irreducible:
        raise PreconditionError("perron_eigendata requires an irreducible matrix")
    lam = _perron_root(F)
    rows = F.matrix.entries
    columns = tuple(zip(*rows))
    tiny = float_info.epsilon * max(sum(row) for row in rows)

    vectors = []
    pre, suc = graph.predecessors, graph.successors
    for name, A, arcs in (("eta", rows, (pre, suc)),
                          ("omega", columns, (suc, pre))):
        x = _inverse_iteration_step(A, *arcs, lam, tiny)
        v = [xi / x[-1] for xi in x] if x[-1] else x
        if not all(0.0 < vi < inf for vi in v):
            raise ConvergenceError(f"{name} is not a positive vector", inf)
        vectors.append(v)
    eta, omega = vectors
    residual = max(
        _max_residual(rows, graph.predecessors, lam, eta),
        _max_residual(columns, graph.successors, lam, omega),
    )
    if residual > tol * max(1.0, lam):
        raise ConvergenceError(f"residual {residual} above tol {tol}", residual)
    return PerronData(lam=lam, eta=tuple(eta), omega=tuple(omega), residual=residual)


# ---------------------------------------------------------------------------
# weak-Perron block lift


#: the largest dimension k * m of a lift that ``block_lift`` builds: the
#: dense lift costs 8 bytes per entry as lists and again as the matrix's
#: row tuples, 2 * 8 * 2048**2 bytes = 64 MiB at the bound; it admits the
#: lifts k <= 1100 of a 1 x 1 matrix, and ``gluing.MAX_PAIR_STATES``
#: bounds the window that a lift's run builds
MAX_LIFT_DIMENSION = 2048


def block_lift(M: IntMatrix, k: int) -> IntMatrix:
    """km x km block matrix: M in the top-right block, identities below the diagonal.

    The spectral radius of the lift is the k-th root of the spectral radius
    of M. A lift of dimension above ``MAX_LIFT_DIMENSION`` raises
    ``InvalidInputError`` before anything is allocated.
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if k == 1:
        return M
    m = M.n
    n = k * m
    if n > MAX_LIFT_DIMENSION:
        raise InvalidInputError(
            f"the {k}-lift of a {m} x {m} matrix has dimension {n}, above "
            f"the limit {MAX_LIFT_DIMENSION}"
        )
    out = [[0] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            out[i][(k - 1) * m + j] = M.entries[i][j]
    for b in range(k - 1):
        for i in range(m):
            out[(b + 1) * m + i][b * m + i] = 1
    return IntMatrix(out)


def lift_base(M: IntMatrix, k: int) -> IntMatrix | None:
    """The matrix B with ``block_lift(B, k) == M``, or None if there is none.

    M is read in place: its first m rows must be zero outside the last m
    columns, which hold B, and row r >= m must be the unit row with its 1
    in column r - m.
    """
    if k < 1 or M.n % k:
        return None
    m = M.n // k
    corner = (k - 1) * m
    rows = M.entries
    if any(any(row[:corner]) for row in rows[:m]):
        return None
    for r in range(m, M.n):
        if rows[r][r - m] != 1 or sum(rows[r]) != 1:
            return None
    return IntMatrix(row[corner:] for row in rows[:m])

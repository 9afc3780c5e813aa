"""Exact matrix algebra and Perron eigendata against independent oracles."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import endperiodic
from endperiodic import spectral
from endperiodic import (
    ConvergenceError,
    IntMatrix,
    InvalidInputError,
    PreconditionError,
    block_lift,
    char_poly,
    determinant,
    graph_period,
    is_irreducible,
    is_primitive,
    parse_matrix_text,
    perron_eigendata,
    spectral_radius_exact,
)
from endperiodic.spectral import MAX_LIFT_DIMENSION, lift_base

from conftest import (
    RUNNING_ROWS,
    SPARSE7,
    random_irreducible_matrices,
    seeded_irreducible_matrix,
    sparse_irreducible_matrices,
    stress_matrices,
    wide_companion,
    x_n_minus_x_minus_1,
)


def _lift_of_two(k: int) -> IntMatrix:
    return block_lift(IntMatrix.from_rows([[2]]), k)


def _large_inputs() -> list[IntMatrix]:
    """Lifts of [[2]] with k = 2..64, the sparse 7x7, seeded n = 12 and 16."""
    out = [_lift_of_two(k) for k in range(2, 65)]
    out.append(IntMatrix.from_rows(SPARSE7))
    out += [seeded_irreducible_matrix(n) for n in (12, 16)]
    return out


def _sympy_charpoly_coeffs(M: IntMatrix) -> list[int]:
    """Monic characteristic polynomial coefficients, ascending, via sympy."""
    x = sympy.symbols("x")
    poly = sympy.Matrix(M.to_lists()).charpoly(x)
    coeffs = [int(c) for c in poly.all_coeffs()]  # descending, monic
    return coeffs[::-1]


def _dense_char_poly(M: IntMatrix) -> list[int]:
    """Faddeev-LeVerrier with dense n**3 products on the whole of M, the
    reference of the row-by-row products and of the cyclic normal form in
    ``char_poly``; ascending coefficients."""
    n = M.n
    rows = [list(r) for r in M.entries]
    aux = [[0] * n for _ in range(n)]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    c = 1
    for k in range(1, n + 1):
        shifted = [row[:] for row in aux]
        for i in range(n):
            shifted[i][i] += c
        aux = [
            [sum(rows[i][t] * shifted[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(aux[i][i] for i in range(n)) // k
        coeffs[n - k] = c
    return coeffs


def _cyclic_block_matrix(rng) -> tuple[IntMatrix, int]:
    """A seeded irreducible matrix with d = 2..5 cyclic classes of sizes
    1..3, not all equal, entries 0..2 in the blocks from each class to the
    next, and its vertices shuffled; returns it with d."""
    while True:
        d = int(rng.integers(2, 6))
        sizes = [int(s) for s in rng.integers(1, 4, size=d)]
        if len(set(sizes)) == 1:
            continue
        starts = np.cumsum([0] + sizes)
        n = int(starts[-1])
        rows = np.zeros((n, n), dtype=int)
        for c in range(d):
            to = (c + 1) % d
            rows[starts[to]:starts[to + 1], starts[c]:starts[c + 1]] = (
                rng.integers(0, 3, size=(sizes[to], sizes[c]))
            )
        perm = rng.permutation(n)
        M = IntMatrix.from_rows(rows[np.ix_(perm, perm)].tolist())
        if is_irreducible(M):
            return M, d


def _fraction_determinant(M: IntMatrix) -> int:
    """Gaussian elimination over Fractions."""
    n = M.n
    a = [[Fraction(M[i, j]) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    assert det.denominator == 1
    return int(det)


class TestIntMatrix:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(InvalidInputError):
            IntMatrix.from_rows([[-1]])
        with pytest.raises(InvalidInputError):
            IntMatrix.from_rows([])

    def test_list_rows_are_stored_as_tuples(self):
        # the constructor takes rows as lists; the matrix equals and hashes
        # as the one from_rows builds, and its entries cannot be mutated
        M = IntMatrix([list(row) for row in RUNNING_ROWS])
        built = IntMatrix.from_rows(RUNNING_ROWS)
        assert M == built and hash(M) == hash(built)
        assert M.entries == tuple(map(tuple, RUNNING_ROWS))
        with pytest.raises(TypeError):
            M.entries[0][0] = 5
        with pytest.raises(AttributeError):
            M.entries = built.entries
        assert {M, built} == {built}

    @pytest.mark.parametrize(
        "value", [True, False, 2.9, 2.0, "1", None, np.float64(2), np.bool_(1)],
        ids=repr,
    )
    def test_from_rows_refuses_a_non_integer(self, value):
        with pytest.raises(InvalidInputError, match=r"entry \[1\]\[0\]"):
            IntMatrix.from_rows([[1, 1], [value, 1]])

    @pytest.mark.parametrize("build", [IntMatrix, IntMatrix.from_rows],
                             ids=["init", "from_rows"])
    @pytest.mark.parametrize(
        "rows",
        [5, None, "ab", [[1, 2], 3], [[0, 1], {0: 1, 1: 0}], [[0, 1], {5, 6}],
         [[1, 2], [3]], [], [[-1]], [bytearray(b"\x01")], {0: 1}.keys(),
         [{0: 1}.values()], [{0: 1}.items()]],
        ids=repr,
    )
    def test_malformed_matrix_is_input_error(self, build, rows):
        # a number, None, a str, a dict or a set as the matrix or a row
        # once raised a bare TypeError or was read as its characters, keys
        # or hash order; bytes-like rows and dict views are refused too
        with pytest.raises(InvalidInputError, match="^matrix "):
            build(rows)

    def test_from_rows_takes_numpy_integers(self):
        M = IntMatrix.from_rows(np.array(RUNNING_ROWS, dtype=np.int64))
        assert M == IntMatrix.from_rows(RUNNING_ROWS)
        assert all(type(v) is int for row in M.entries for v in row)

    def test_parse_text_rows(self):
        M = parse_matrix_text("0 1\n2 0\n")
        assert M.to_lists() == [[0, 1], [2, 0]]

    def test_parse_text_json(self):
        M = parse_matrix_text("[[0, 1], [2, 0]]")
        assert M.to_lists() == [[0, 1], [2, 0]]

    def test_parse_text_malformed_json_is_input_error(self):
        with pytest.raises(InvalidInputError, match="not valid JSON"):
            parse_matrix_text("[[1,2")


class TestIrreducibility:
    def _oracle_irreducible(self, M: IntMatrix) -> bool:
        # irreducible iff A + A^2 + ... + A^n is positive elementwise
        a = np.array(M.to_lists(), dtype=bool)
        power = a.copy()
        total = a.copy()
        for _ in range(M.n - 1):
            power = power @ a
            total |= power
        return bool(total.all())

    def test_against_boolean_power_oracle(self):
        for M in random_irreducible_matrices(40, seed=7):
            assert self._oracle_irreducible(M)
        rng = np.random.default_rng(8)
        seen_reducible = 0
        for _ in range(300):
            n = int(rng.integers(1, 5))
            M = IntMatrix.from_rows(rng.integers(0, 2, size=(n, n)).tolist())
            assert is_irreducible(M) == self._oracle_irreducible(M)
            seen_reducible += not is_irreducible(M)
        assert seen_reducible > 0

    def _wielandt_bound(self, n: int) -> int:
        # Wielandt: a primitive n x n matrix M has M^k > 0 for every
        # k >= n^2 - 2n + 2
        return n * n - 2 * n + 2

    def test_primitivity_wielandt_oracle(self):
        checked = 0
        for M in random_irreducible_matrices(60, seed=9):
            a = np.array(M.to_lists(), dtype=object)
            power = np.linalg.matrix_power(a, self._wielandt_bound(M.n))
            assert is_primitive(M) == bool((power > 0).all())
            checked += 1
        assert checked == 60

    def test_graph_period_cycle(self):
        # 3-cycle has period 3 and is imprimitive
        M = IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert is_irreducible(M)
        assert graph_period(M) == 3
        assert not is_primitive(M)

    def test_graph_period_requires_irreducible(self):
        M = IntMatrix.from_rows([[1, 1], [0, 1]])
        with pytest.raises(PreconditionError):
            graph_period(M)

    @pytest.mark.parametrize(
        "rows", [[[0]], [[1, 0], [0, 1]], [[1, 1], [0, 1]]]
    )
    def test_reducible_is_not_primitive(self, rows):
        # primitive means irreducible with period 1, so a reducible matrix
        # is not primitive; it once raised graph_period's PreconditionError
        M = IntMatrix.from_rows(rows)
        assert not is_irreducible(M)
        assert is_primitive(M) is False


class TestCharPoly:
    def test_running_example(self, running_matrix):
        poly = char_poly(running_matrix)
        # ascending: -2 - x - 2x^2 + 0x^3 + x^4
        assert list(poly.coefficients) == [-2, -1, -2, 0, 1]
        assert determinant(running_matrix) == -2

    def test_against_sympy(self):
        for M in random_irreducible_matrices(40, seed=11):
            assert list(char_poly(M).coefficients) == _sympy_charpoly_coeffs(M)

    def test_sparse_products_match_dense_reference(self):
        # the dense reference costs k**4: 25 s for the lifts k = 33..63, so
        # those are checked against the closed form x**k - 2 alone
        running = IntMatrix.from_rows(RUNNING_ROWS)
        inputs = random_irreducible_matrices(200) + [
            M for M in _large_inputs() if M.n <= 32 or M.n == 64
        ] + [block_lift(running, k) for k in range(2, 6)]
        for M in inputs:
            assert list(char_poly(M).coefficients) == _dense_char_poly(M)
        for k in range(2, 65):
            expected = (-2,) + (0,) * (k - 1) + (1,)
            assert char_poly(_lift_of_two(k)).coefficients == expected

    @pytest.fixture
    def recurrence_sizes(self, monkeypatch) -> list[int]:
        """The row counts of the matrices ``_faddeev_leverrier`` receives."""
        sizes = []
        recurrence = spectral._faddeev_leverrier
        monkeypatch.setattr(
            spectral, "_faddeev_leverrier",
            lambda rows: sizes.append(len(rows)) or recurrence(rows),
        )
        return sizes

    def test_cyclic_normal_form_matches_dense_reference(self, recurrence_sizes):
        # Faddeev-LeVerrier runs once, on the cycle product of a class no
        # larger than n / period; the period is a multiple of d
        sizes = recurrence_sizes
        rng = np.random.default_rng(24)
        for _ in range(60):
            M, d = _cyclic_block_matrix(rng)
            period = graph_period(M)
            assert period % d == 0
            sizes.clear()
            assert list(char_poly(M).coefficients) == _dense_char_poly(M)
            assert len(sizes) == 1 and sizes[0] * period <= M.n

    def test_reducible_inputs_take_the_whole_matrix(self, recurrence_sizes):
        # block upper-triangular [[A, C], [0, B]] with A and B imprimitive
        # cyclic blocks: reducible, so the recurrence sees all of it
        sizes = recurrence_sizes
        rng = np.random.default_rng(25)
        for _ in range(20):
            (A, _), (B, _) = _cyclic_block_matrix(rng), _cyclic_block_matrix(rng)
            a, b = A.n, B.n
            C = rng.integers(0, 3, size=(a, b)).tolist()
            rows = [list(A.entries[i]) + C[i] for i in range(a)]
            rows += [[0] * a + list(B.entries[i]) for i in range(b)]
            M = IntMatrix.from_rows(rows)
            assert not is_irreducible(M)
            sizes.clear()
            assert list(char_poly(M).coefficients) == _dense_char_poly(M)
            assert sizes == [M.n]

    def test_list_coefficients_are_stored_as_a_tuple(self):
        # a polynomial built from a list equals and hashes as the one built
        # from a tuple, and its coefficients cannot be mutated
        p = spectral.IntPolynomial([-1, 0, 1])
        built = spectral.IntPolynomial((-1, 0, 1))
        assert p == built and hash(p) == hash(built)
        assert p.coefficients == (-1, 0, 1)
        with pytest.raises(TypeError):
            p.coefficients[-1] = 5
        with pytest.raises(AttributeError):
            p.coefficients = built.coefficients
        assert {p, built} == {built}

    def test_non_monic_coefficients_are_refused(self):
        with pytest.raises(InvalidInputError, match="monic"):
            spectral.IntPolynomial([1, 2])

    @pytest.mark.parametrize("coeffs", [[0.5, 1], ["a", 1], [True, 1]])
    def test_coefficients_that_are_not_ints_are_refused(self, coeffs):
        # 0.5 and "a" once raised a bare TypeError in the Sturm chain, and
        # True was read as 1, giving the root of x + 1
        with pytest.raises(InvalidInputError, match="integers"):
            spectral.IntPolynomial(coeffs)

    def test_determinant_against_fraction_elimination(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            M = IntMatrix.from_rows(rng.integers(0, 4, size=(n, n)).tolist())
            assert determinant(M) == _fraction_determinant(M)


def _fraction_sturm_chain(coeffs) -> list[list[Fraction]]:
    """The Sturm chain p, p', -rem(p, p'), ... over the rationals; an empty
    derivative (p constant) is left out."""

    def rem(a, b):
        a = a[:]
        while len(a) >= len(b):
            factor = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] -= factor * bc
            while a and a[-1] == 0:
                a.pop()
        return a

    p = [Fraction(c) for c in coeffs]
    derivative = [i * c for i, c in enumerate(p)][1:]
    while derivative and derivative[-1] == 0:
        derivative.pop()
    chain = [p] + ([derivative] if derivative else [])
    while len(chain[-1]) > 1:
        r = rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def _nearest_float(coeffs) -> float | None:
    """The float nearest the top real root λ of the monic p with ``coeffs``,
    or None if p has no real root, from exact Fraction signs of p's
    rational Sturm chain; it shares no code with ``spectral``.

    V(x), the chain's sign changes at x, less V(+inf) counts the distinct
    roots above x when x is not a root. A monic integer p's rational
    roots are integers, and no point probed here is one: the bisection of
    [-B - 1/3, B + 2/3], B the Cauchy bound, has midpoints
    ((-3B - 1) 2**k + 3j(2B + 1)) / (3 * 2**k), whose numerators 3 does
    not divide, and the ends of a rounding interval below 2**53 are not
    integers. The bisection stops once its ends' floats are at most one
    apart; then, from the float f of its top end, the signs at the two
    ends of f's rounding interval, halfway to f's neighbours, step f to
    the neighbour they point to until λ lies strictly inside.
    """

    def value(q, x):
        n, d, top = x.numerator, x.denominator, len(q) - 1
        return sum(c * n**i * d ** (top - i) for i, c in enumerate(q) if c)

    def changes(x):
        signs = [v > 0 for v in (value(q, x) for q in chain) if v != 0]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    chain = []
    for q in _fraction_sturm_chain(coeffs):
        scale = math.lcm(*(c.denominator for c in q))
        chain.append([int(c * scale) for c in q])
    bound = 1 + max(abs(c) for c in coeffs)
    changes_top = changes(Fraction(bound))
    if changes(Fraction(-bound)) == changes_top:
        return None
    lo, hi = -bound - Fraction(1, 3), bound + Fraction(2, 3)
    while math.nextafter(float(lo), math.inf) < float(hi):
        mid = (lo + hi) / 2
        if changes(mid) > changes_top:
            lo = mid
        else:
            hi = mid
    f = float(hi)
    while True:
        a, b = ((Fraction(f) + Fraction(math.nextafter(f, to))) / 2
                for to in (-math.inf, math.inf))
        assert value(chain[0], a) and value(chain[0], b), "a tie"
        if changes(b) > changes_top:
            f = math.nextafter(f, math.inf)
        elif changes(a) == changes_top:
            f = math.nextafter(f, -math.inf)
        else:
            return f


def _fraction_side(coeffs, x: Fraction) -> int:
    """-1, 0 or 1 as x is below, at or above the top real root of the monic
    p with ``coeffs``, from exact Fraction signs of p's rational Sturm
    chain divided by its last term gcd(p, p'): a Sturm chain of p over
    its repeated roots, whose sign changes at x less those at +inf count
    the distinct roots above x, at a root too."""
    chain = _fraction_sturm_chain(coeffs)
    g = chain[-1]

    def quotient(q):
        q, out = q[:], []
        for shift in range(len(q) - len(g), -1, -1):
            c = q[shift + len(g) - 1] / g[-1]
            out.append(c)
            for i, gc in enumerate(g):
                q[shift + i] -= c * gc
        assert not any(q)
        return out[::-1]

    def changes(values):
        signs = [v > 0 for v in values if v != 0]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    chain = [quotient(q) for q in chain]
    at_x = [sum(c * x**i for i, c in enumerate(q)) for q in chain]
    if changes(at_x) > changes([q[-1] for q in chain]):
        return -1
    return 0 if at_x[0] == 0 else 1


def _poly_product(*factors):
    out = [1]
    for q in factors:
        prod = [0] * (len(out) + len(q) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(q):
                prod[i + j] += a * b
        out = prod
    return out


def _sparse_polynomials(count, seed=5):
    """Random polynomials of degree 2..7, about half their coefficients
    zero, leading coefficients of either sign."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q = rng.integers(-3, 4, size=int(rng.integers(3, 9))).tolist()
        q = [c if rng.random() < 0.5 else 0 for c in q]
        q[-1] = int(rng.choice([-2, -1, 1, 2]))
        out.append(q)
    return out


def _horner_value(q, num: int, exp: int) -> int:
    """``2**(exp*d) * q(num / 2**exp)`` for q of degree d: Horner over
    every coefficient of q, zeros included, one shift per term."""
    d = len(q) - 1
    acc = q[d]
    for i in range(d - 1, -1, -1):
        acc = acc * num + (q[i] << (exp * (d - i)))
    return acc


class TestDyadicValue:
    """``_taylor_shift`` of q to num / 2**exp: its constant term is the
    dyadic value 2**(exp*d) * q(num / 2**exp), the same integer as Horner
    over every coefficient, and its term in y**k is the binomial sum
    over q's terms."""

    @pytest.mark.parametrize("case", ["dense", "sparse", "lifts"])
    def test_equals_horner_over_every_coefficient(self, case):
        rng = np.random.default_rng(29)
        if case == "dense":
            polys = [rng.integers(-9, 10, size=int(rng.integers(1, 12))).tolist()
                     for _ in range(300)]
            for q in polys:
                q[-1] = q[-1] or 1
        elif case == "sparse":
            polys = _sparse_polynomials(300) + [[0, 0, 0, 2], [0, 1], [-1]]
        else:
            polys = [[-2] + [0] * (k - 1) + [1] for k in range(1, 40)]
        for q in polys:
            q = tuple(int(c) for c in q)
            d = len(q) - 1
            for num, exp in ((0, 0), (1, 0), (-1, 3), (3, 1), (-5, 2),
                             (int(rng.integers(-10**9, 10**9)), 33),
                             (2**70 + 1, 70)):
                got = spectral._taylor_shift(q, num, exp)
                assert all(type(c) is int for c in got)
                assert got[0] == _horner_value(q, num, exp), (q, num, exp)
                assert got == [
                    sum(q[i] * math.comb(i, k) * num ** (i - k) << exp * (d - i)
                        for i in range(k, d + 1))
                    for k in range(d + 1)
                ], (q, num, exp)


def _block_diagonal(*blocks) -> IntMatrix:
    """The block-diagonal matrix of ``blocks``, lists of rows."""
    n = sum(map(len, blocks))
    rows, at = [], 0
    for block in blocks:
        for row in block:
            rows.append([0] * at + list(row) + [0] * (n - at - len(row)))
        at += len(block)
    return IntMatrix(rows)


def _doubled(M: IntMatrix) -> IntMatrix:
    """diag(M, M), whose characteristic polynomial is char_poly(M) squared."""
    return _block_diagonal(M.entries, M.entries)


#: the matrices of ``test_roots_on_dyadic_probes``, each with an integer
#: spectral radius, which a bisection from [-B - 1, B + 1] probes
DYADIC_PROBE_ROOTS = [
    ([[0, 0], [0, 0]], 0.0),  # x^2: the first probe is the double root
    ([[0, 1], [0, 1]], 1.0),  # x(x - 1)
    ([[0, 1, 0], [0, 0, 1], [0, 1, 0]], 1.0),  # x(x - 1)(x + 1)
    ([[2, 0, 0], [0, 0, 2], [0, 1, 1]], 2.0),  # (x - 2)^2 (x + 1)
    ([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [16, 0, 0, 0]], 2.0),  # x^4 - 16
]


#: (matrix, b, the side of b against ρ) at the branches of ``_shift_test``
SHIFT_SIDES = {
    "simple root": ([[2]], Fraction(2), 0),
    "below a simple root": ([[2]], Fraction(3, 2), -1),
    "above a simple root": ([[2]], Fraction(5, 2), 1),
    "double root": ([[2, 0], [0, 2]], Fraction(2), 0),
    "above a double root": ([[2, 0], [0, 2]], Fraction(9, 4), 1),
    "another eigenvalue": ([[1, 0], [0, 3]], Fraction(1), -1),
    "root of a mirrored pair": ([[0, 1, 0], [0, 0, 1], [0, 1, 0]], Fraction(1), 0),
    "period 4 at rho": (DYADIC_PROBE_ROOTS[4][0], Fraction(2), 0),
    "period 4 at -rho": (DYADIC_PROBE_ROOTS[4][0], Fraction(-2), -1),
    "period 4 below -rho": (DYADIC_PROBE_ROOTS[4][0], Fraction(-3), -1),
    "nilpotent at 0": ([[0, 1], [0, 0]], Fraction(0), 0),
    "above nilpotent": ([[0, 1], [0, 0]], Fraction(1, 4), 1),
    "below nilpotent": ([[0, 1], [0, 0]], Fraction(-1, 4), -1),
}


@pytest.mark.parametrize("rows, b, side", SHIFT_SIDES.values(), ids=SHIFT_SIDES)
def test_shift_test_places_b_against_rho(rows, b, side):
    # b**d on the cycle polynomial, b on char_poly(M) itself
    F = endperiodic.facts(IntMatrix(rows))
    num, exp = b.numerator, b.denominator.bit_length() - 1
    assert _fraction_side(F.poly.coefficients, b) == side
    assert spectral._shift_test(F.poly.coefficients, 1, num, exp) == side
    assert spectral._shift_test(*spectral._cycle_poly(F), num, exp) == side


#: odd integers above 2**53, each halfway between two floats, with the
#: float of even significand that they round to, as int / int does
TIES = [(2**53 + 1, 2**53), (2**53 + 3, 2**53 + 4)]


class TestLargestRealRootIsBitExact:
    """``spectral_radius_exact`` returns the float nearest the largest real
    root of char_poly(M), the Fraction oracle's, on every family."""

    def test_corpus_and_squares(self):
        for M in random_irreducible_matrices(200):
            coeffs = list(char_poly(M).coefficients)
            assert spectral_radius_exact(M) == _nearest_float(coeffs)
            # diag(M, M), the doubled incidence matrix, has the square
            assert spectral_radius_exact(_doubled(M)) == _nearest_float(
                _poly_product(coeffs, coeffs)
            )

    @pytest.mark.parametrize("k", range(2, 13))
    def test_lifts_of_two(self, k):
        M = _lift_of_two(k)
        assert spectral_radius_exact(M) == _nearest_float(char_poly(M).coefficients)

    def test_deep_lift_gets_a_guess(self):
        # x^1100 - 2: Newton runs on the cycle polynomial x - 2, as 2**1100
        # overflows a float
        F = endperiodic.facts(_lift_of_two(1100))
        q, d = spectral._cycle_poly(F)
        assert (q, d) == ((-2, 1), 1100)
        assert spectral._newton_guess(q, d, 2) is not None
        assert spectral_radius_exact(F) == _nearest_float(F.poly.coefficients)

    def test_x_n_minus_x_minus_1(self):
        # lambda tends to 1 as n grows, where the float spacing is finest
        for n in range(2, 65):
            M = x_n_minus_x_minus_1(n)
            assert spectral_radius_exact(M) == _nearest_float(char_poly(M).coefficients)

    def test_stress_and_sparse_draws(self):
        # n up to 20, with Cauchy bounds up to about 3e10
        for M in stress_matrices(30) + sparse_irreducible_matrices(40):
            assert spectral_radius_exact(M) == _nearest_float(char_poly(M).coefficients)

    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_wide_companions(self, a):
        # x^n - a x^(n-1) - 1: lambda just above a, far below the bound
        for n in range(8, 25):
            M = wide_companion(n, a)
            assert spectral_radius_exact(M) == _nearest_float(char_poly(M).coefficients)

    @pytest.mark.parametrize("rows, root", DYADIC_PROBE_ROOTS)
    def test_roots_on_dyadic_probes(self, rows, root):
        M = IntMatrix(rows)
        got = spectral_radius_exact(M)
        assert got == _nearest_float(char_poly(M).coefficients)
        assert got == root

    @pytest.mark.parametrize("root, want", TIES)
    def test_tie_rounds_to_even(self, root, want):
        assert float(root) == want
        assert spectral_radius_exact(IntMatrix([[root]])) == want


def _shaped(rows: list[list[int]], shape: str) -> list[list[int]]:
    """``rows`` with the entries outside ``shape`` set to 0: "any" keeps
    them all, "nilpotent" those above the diagonal, "reducible" all but
    the lower-left block, "bipartite" the two off-diagonal blocks, and
    "cyclic" those from class i mod 3 to class i + 1 mod 3."""
    n, cut = len(rows), len(rows) // 2
    keep = {
        "any": lambda i, j: True,
        "nilpotent": lambda i, j: j > i,
        "reducible": lambda i, j: i < cut or j >= cut,
        "bipartite": lambda i, j: (i < cut) != (j < cut),
        "cyclic": lambda i, j: i % 3 == (j + 1) % 3,
    }[shape]
    return [[v if keep(i, j) else 0 for j, v in enumerate(row)]
            for i, row in enumerate(rows)]


#: non-negative integer matrices with n <= 6 and entries <= 3, reducible,
#: nilpotent and imprimitive ones included
_SMALL_MATRICES = st.builds(
    _shaped,
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                           min_size=n, max_size=n)
    ),
    st.sampled_from(["any", "nilpotent", "reducible", "bipartite", "cyclic"]),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_SMALL_MATRICES, st.lists(st.fractions(-2, 16, max_denominator=8).map(
    lambda x: Fraction(math.floor(x * 8), 8)), max_size=4))
def test_small_matrices_give_the_nearest_float(rows, drawn):
    """``spectral_radius_exact`` is the oracle's float, and ``_shift_test``
    on (q, d) and on (char_poly(M), 1) gives the oracle's side at the
    two ends of its rounding interval and at drawn dyadics."""
    F = endperiodic.facts(IntMatrix(rows))
    coeffs = F.poly.coefficients
    lam = spectral_radius_exact(F)
    assert lam == _nearest_float(coeffs)
    ends = [(Fraction(lam) + Fraction(math.nextafter(lam, to))) / 2
            for to in (-math.inf, math.inf)]
    q, d = spectral._cycle_poly(F)
    for x in ends + drawn:
        num, exp = x.numerator, x.denominator.bit_length() - 1
        want = _fraction_side(coeffs, x)
        assert spectral._shift_test(coeffs, 1, num, exp) == want
        assert spectral._shift_test(q, d, num, exp) == want


class TestGuessNeverDecides:
    """The Newton guess only picks the float whose rounding interval two
    shift tests check; a wrong guess, or none, gives the same float."""

    @staticmethod
    def _facts():
        matrices = random_irreducible_matrices(200)
        matrices += [_lift_of_two(k) for k in range(2, 13)]
        matrices += [IntMatrix([[root]]) for root, _ in TIES]
        matrices += [IntMatrix(rows) for rows, _ in DYADIC_PROBE_ROOTS]
        return [endperiodic.facts(M) for M in matrices]

    @pytest.fixture
    def dyadic_calls(self, monkeypatch):
        """The list that gets one entry per ``_shift_test`` call."""
        calls = []
        original = spectral._shift_test

        def counting(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(spectral, "_shift_test", counting)
        return calls

    @pytest.mark.parametrize(
        "wrong_guess",
        [
            lambda lam: None,
            lambda lam: lam * (1 + 1e-6),
            lambda lam: lam * (1 - 1e-6),
            # across the first probe, 0, and across probes near lambda
            lambda lam: -lam,
            lambda lam: lam + 40 * math.ulp(lam),
            lambda lam: lam - 40 * math.ulp(lam),
        ],
        ids=["none", "1e-6 above", "1e-6 below", "mirrored", "40 ulps above",
             "40 ulps below"],
    )
    def test_same_float_for_any_guess(self, monkeypatch, dyadic_calls, wrong_guess):
        facts = self._facts()
        want = [spectral_radius_exact(F) for F in facts]
        costs = {}
        for name, guess in (("exact", lambda lam: lam), ("wrong", wrong_guess)):
            del dyadic_calls[:]
            for F, lam in zip(facts, want):
                monkeypatch.setattr(
                    spectral, "_newton_guess", lambda *args: guess(lam)
                )
                assert spectral_radius_exact(F) == lam
            costs[name] = len(dyadic_calls)
        # a wrong guess fails the check, and either bisects from the top
        assert costs["wrong"] > costs["exact"] + 20 * len(facts)

    def test_dyadic_value_calls_are_pinned(self, dyadic_calls):
        # a count, not a timing: two shift tests for each of the 200
        # guesses, 194 of them the answer, one more for each of 3 steps
        # down and two more for each of 3 steps up; the Sturm counts that
        # the shift test replaced evaluated their chains at 1,738 dyadics
        for M in random_irreducible_matrices(200):
            spectral_radius_exact(M)
        assert len(dyadic_calls) <= 409


class TestLargestRealRoot:
    def test_against_numpy_roots(self):
        for M in random_irreducible_matrices(40, seed=13):
            roots = np.roots(char_poly(M).coefficients[::-1])
            real = [r.real for r in roots if abs(r.imag) < 1e-9]
            assert spectral_radius_exact(M) == pytest.approx(max(real), abs=1e-8)

    def test_non_squarefree(self, running_matrix):
        # blockdiag(M, M) squares the characteristic polynomial
        assert spectral_radius_exact(_doubled(running_matrix)) == pytest.approx(
            spectral_radius_exact(running_matrix), abs=1e-11
        )


class TestPerronEigendata:
    def test_running_example_values(self, running_matrix):
        eigen = perron_eigendata(running_matrix)
        assert eigen.lam == pytest.approx(1.785370843671, abs=1e-9)
        assert eigen.residual <= 1e-9
        for got, want in zip(eigen.eta, (0.31, 0.74, 0.56, 1.0)):
            assert got == pytest.approx(want, abs=0.01)
        for got, want in zip(eigen.omega, (1.19, 1.12, 0.67, 1.0)):
            assert got == pytest.approx(want, abs=0.01)

    def test_normalization_and_equations(self):
        for M in random_irreducible_matrices(50, seed=14):
            eigen = perron_eigendata(M)
            a = np.array(M.to_lists(), dtype=float)
            eta = np.array(eigen.eta)
            omega = np.array(eigen.omega)
            assert eta[-1] == pytest.approx(1.0, abs=1e-12)
            assert omega[-1] == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(a @ eta - eigen.lam * eta)) <= 1e-8
            assert np.max(np.abs(omega @ a - eigen.lam * omega)) <= 1e-8

    def test_against_numpy_eig(self):
        for M in random_irreducible_matrices(30, seed=15):
            eigen = perron_eigendata(M)
            lam_np = max(abs(v) for v in np.linalg.eigvals(
                np.array(M.to_lists(), dtype=float)))
            assert eigen.lam == pytest.approx(lam_np, abs=1e-8)

    def test_reducible_rejected(self):
        M = IntMatrix.from_rows([[1, 1], [0, 1]])
        with pytest.raises(PreconditionError):
            perron_eigendata(M)

    def test_imprimitive_converges(self):
        # pure cycle times 2 on one arc: lambda = 2^(1/3), period-3 graph
        M = IntMatrix.from_rows([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
        eigen = perron_eigendata(M)
        assert eigen.lam == pytest.approx(2 ** (1 / 3), abs=1e-9)

    def test_unreasonable_tolerance_raises(self):
        # nothing iterates: the residual of the single solve misses tol at once
        M = IntMatrix.from_rows([[0, 1], [1, 1]])
        with pytest.raises(ConvergenceError) as info:
            perron_eigendata(M, tol=1e-300)
        assert 0 < info.value.residual <= 1e-15

    @pytest.mark.parametrize(
        "tol", [float("nan"), float("inf"), float("-inf"), 0.0, -1e-9]
    )
    def test_tolerance_outside_the_open_half_line_is_input_error(self, tol):
        with pytest.raises(InvalidInputError, match="finite positive"):
            perron_eigendata(IntMatrix.from_rows([[0, 1], [1, 1]]), tol=tol)


def _sympy_top_root(M: IntMatrix) -> float:
    x = sympy.symbols("x")
    poly = sympy.Poly(sympy.Matrix(M.to_lists()).charpoly(x).as_expr(), x)
    return float(max(poly.real_roots()).evalf(40))


def _max_residual(M: IntMatrix, lam: float, v) -> float:
    return max(
        abs(math.fsum([m * v[j] for j, m in enumerate(row)] + [-lam * v[i]]))
        for i, row in enumerate(M.entries)
    )


def _dense_solve(rows, lam: float, tiny: float) -> list[float]:
    """Reference for ``_inverse_iteration_step``: dense Gaussian elimination
    of (A - lam*I) x = (1, ..., 1) over every row below the pivot, rows
    swapped to the first largest pivot, an exactly zero pivot replaced by
    ``tiny``, then back-substitution over the nonzero entries in
    ascending column order."""
    n = len(rows)
    a = [[float(v) for v in row] for row in rows]
    for i in range(n):
        a[i][i] -= lam
    b = [1.0] * n
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(a[r][c]))
        a[c], a[p], b[c], b[p] = a[p], a[c], b[p], b[c]
        if a[c][c] == 0.0:
            a[c][c] = tiny
        for r in range(c + 1, n):
            if a[r][c] != 0.0:
                factor = a[r][c] / a[c][c]
                for j in range(c + 1, n):
                    if a[c][j] != 0.0:
                        a[r][j] -= factor * a[c][j]
                b[r] -= factor * b[c]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = b[i]
        for j in range(i + 1, n):
            if a[i][j] != 0.0:
                acc -= a[i][j] * x[j]
        x[i] = acc / a[i][i]
    return x


class TestInverseIteration:
    """Eigendata by inverse iteration at λ, the float nearest ρ."""

    def test_residual_and_positivity(self):
        inputs = random_irreducible_matrices(200) + _large_inputs()
        for M in inputs:
            eigen = perron_eigendata(M)
            bound = 1e-13 * max(1.0, eigen.lam)
            assert eigen.residual <= bound
            assert all(v > 0 for v in eigen.eta + eigen.omega)
            assert eigen.eta[-1] == eigen.omega[-1] == 1.0
            assert _max_residual(M, eigen.lam, eigen.eta) <= bound
            transpose = IntMatrix.from_rows(zip(*M.entries))
            assert _max_residual(transpose, eigen.lam, eigen.omega) <= bound

    def test_lambda_within_four_ulps_of_sympy(self):
        inputs = random_irreducible_matrices(20)
        inputs += [_lift_of_two(k) for k in range(2, 13)]
        for M in inputs:
            root = _sympy_top_root(M)
            assert abs(perron_eigendata(M).lam - root) <= 4 * math.ulp(root)

    def test_sparse_solve_is_the_dense_solve_to_the_bit(self):
        # same pivots, same operations on each stored float: every entry,
        # signed zeros included, equals the dense reference's, on random
        # matrices (reducible ones too) at their top root and at exact
        # integers, where pivots tie and some are exactly zero
        rng = np.random.default_rng(20261020)
        same = 0
        for _ in range(300):
            n = int(rng.integers(2, 7))
            rows = rng.choice([0, 0, 0, 1, 2, 3], size=(n, n)).tolist()
            M = IntMatrix.from_rows(rows)
            graph = spectral._analyse(M)
            pre, suc = graph.predecessors, graph.successors
            columns = tuple(zip(*M.entries))
            lams = [0.0, 1.0, 2.0, 3.0]
            if any(map(any, rows)):
                lams.append(spectral_radius_exact(M))
            for lam in lams:
                for A, arcs in ((M.entries, (pre, suc)), (columns, (suc, pre))):
                    x = spectral._inverse_iteration_step(A, *arcs, lam, 1e-15)
                    y = _dense_solve(A, lam, 1e-15)
                    assert list(map(repr, x)) == list(map(repr, y))
                    same += 1
        assert same > 2400

    @pytest.mark.parametrize(
        "rows, eta", [([[2]], (1.0,)), ([[1, 1], [1, 1]], (1.0, 1.0))]
    )
    def test_exactly_zero_pivot(self, rows, eta):
        # lambda = 2 is a float, so M - 2I is singular and a pivot is exactly 0
        eigen = perron_eigendata(IntMatrix.from_rows(rows))
        assert eigen.lam == 2.0
        assert eigen.residual <= 1e-15
        assert eigen.eta == pytest.approx(eta, abs=1e-15)
        assert eigen.omega == pytest.approx(eta, abs=1e-15)

    @pytest.mark.parametrize("solution", [[-1.0, 1.0], [1.0, 0.0], [1.0, float("nan")]])
    def test_non_positive_vector_raises(self, monkeypatch, solution):
        monkeypatch.setattr(spectral, "_inverse_iteration_step", lambda *a: solution)
        with pytest.raises(ConvergenceError, match="eta is not a positive vector"):
            perron_eigendata(IntMatrix.from_rows([[0, 1], [1, 1]]))

    def test_import_leaves_numpy_out(self):
        src = Path(endperiodic.__file__).resolve().parents[1]
        code = "import sys, endperiodic; print('numpy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert out.stdout.strip() == "False"


class TestBlockLift:
    def test_structure(self):
        M = IntMatrix.from_rows([[2]])
        L = block_lift(M, 3)
        assert L.to_lists() == [[0, 0, 2], [1, 0, 0], [0, 1, 0]]
        assert lift_base(L, 3) == M
        assert lift_base(L, 2) is None

    def test_root_relation(self):
        for k in (2, 3, 4):
            L = block_lift(IntMatrix.from_rows([[2]]), k)
            rho = spectral_radius_exact(L)
            assert rho**k == pytest.approx(2.0, abs=1e-9)
            assert is_irreducible(L)
            assert not is_primitive(L)

    def test_lift_base_reads_the_blocks(self):
        # lift_base inverts block_lift; a changed entry in the top-right
        # block gives the lift of the changed base, anywhere else no lift
        rng = np.random.default_rng(26)
        for k in range(1, 7):
            for _ in range(3):
                m = int(rng.integers(1, 4))
                base = IntMatrix.from_rows(rng.integers(0, 3, size=(m, m)).tolist())
                L = block_lift(base, k)
                assert lift_base(L, k) == base
                for i in range(L.n):
                    for j in range(L.n):
                        for v in {L[i, j] + 1, L[i, j] - 1} - {-1}:
                            rows = L.to_lists()
                            rows[i][j] = v
                            changed = IntMatrix.from_rows(rows)
                            got = lift_base(changed, k)
                            if i < m and j >= (k - 1) * m:
                                assert block_lift(got, k) == changed
                            else:
                                assert got is None

    def test_invalid_k(self):
        with pytest.raises(InvalidInputError):
            block_lift(IntMatrix.from_rows([[2]]), 0)

    def test_dimension_bound(self):
        # the bound admits the lifts k <= 1100 of a 1 x 1 matrix; one past
        # it is refused before the dense lift is built
        assert MAX_LIFT_DIMENSION >= 1100
        base = IntMatrix.from_rows([[0, 1], [1, 1]])
        k = MAX_LIFT_DIMENSION // 2 + 1
        with pytest.raises(InvalidInputError, match=f"dimension {2 * k}, above"):
            block_lift(base, k)

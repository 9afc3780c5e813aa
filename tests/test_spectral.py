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
    IntPolynomial,
    InvalidInputError,
    PreconditionError,
    block_lift,
    char_poly,
    determinant,
    graph_period,
    is_irreducible,
    is_primitive,
    largest_real_root,
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
    rational Sturm chain; it shares no code with ``spectral``'s.

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


def _poly_product(*factors):
    out = [1]
    for q in factors:
        prod = [0] * (len(out) + len(q) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(q):
                prod[i + j] += a * b
        out = prod
    return out


def _repeated_root_polynomials(count, seed=17):
    """Random a * b^2 * c^3 with small integer coefficients; leading
    coefficients of either sign."""
    rng = np.random.default_rng(seed)

    def factor():
        q = rng.integers(-3, 4, size=int(rng.integers(2, 4))).tolist()
        q[-1] = int(rng.choice([-2, -1, 1, 3]))
        return q

    out = []
    for _ in range(count):
        a, b, c = factor(), factor(), factor()
        out.append(_poly_product(a, b, b, c, c, c))
    return out


def _sparse_polynomials(count, seed=5):
    """Random polynomials of degree 2..7, about half their coefficients
    zero, leading coefficients of either sign: their chains drop by more
    than one degree, where a pseudo-remainder by a term with a negative
    leading coefficient would flip the sign if it scaled by that
    coefficient rather than by its absolute value."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q = rng.integers(-3, 4, size=int(rng.integers(3, 9))).tolist()
        q = [c if rng.random() < 0.5 else 0 for c in q]
        q[-1] = int(rng.choice([-2, -1, 1, 2]))
        out.append(q)
    return out


class TestIntegerSturmChain:
    """Each term of the integer chain is a positive multiple of the term of
    the rational chain, so every sign the bisection reads is the same."""

    @staticmethod
    def _assert_positive_multiples(coeffs):
        chain = spectral._integer_sturm_chain(coeffs)
        reference = _fraction_sturm_chain(coeffs)
        assert len(chain) == len(reference), coeffs
        for term, q in zip(chain, reference):
            assert len(term) == len(q)
            ratio = Fraction(term[-1]) / q[-1]
            assert ratio > 0
            assert all(Fraction(a) == ratio * b for a, b in zip(term, q)), coeffs

    @pytest.mark.parametrize(
        "case", ["corpus", "lifts", "x^n-x-1", "repeated", "sparse"]
    )
    def test_terms_are_positive_multiples(self, case):
        if case == "corpus":
            inputs = [
                char_poly(M).coefficients for M in random_irreducible_matrices(200)
            ]
        elif case == "lifts":
            inputs = [char_poly(_lift_of_two(k)).coefficients for k in range(2, 65)]
        elif case == "x^n-x-1":
            inputs = [[-1, -1] + [0] * (n - 2) + [1] for n in range(2, 33)]
        elif case == "sparse":
            inputs = _sparse_polynomials(300) + [[3], [-2], [5, 2], [1, -4]]
        else:
            inputs = _repeated_root_polynomials(60)
            # every one has a repeated root: the chain ends above degree 0
            assert all(len(spectral._integer_sturm_chain(p)[-1]) > 1 for p in inputs)
        for coeffs in inputs:
            self._assert_positive_multiples(coeffs)


def _horner_value(q, num: int, exp: int) -> int:
    """Reference for ``_dyadic_value``: Horner over every coefficient of
    q, zeros included, one shift per term."""
    d = len(q) - 1
    acc = q[d]
    for i in range(d - 1, -1, -1):
        acc = acc * num + (q[i] << (exp * (d - i)))
    return acc


class TestDyadicValue:
    """``_dyadic_value`` skips the zero coefficients and gives the same
    integer as Horner over all of them."""

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
            polys = [[-2] + [0] * (k - 1) + [1] for k in range(1, 130)]
            polys += [list(q) for k in (256, 1100)
                      for q in spectral._integer_sturm_chain(
                          [-2] + [0] * (k - 1) + [1])]
        for q in polys:
            q = tuple(int(c) for c in q)
            for num, exp in ((0, 0), (1, 0), (-1, 3), (3, 1), (-5, 2),
                             (int(rng.integers(-10**9, 10**9)), 33),
                             (2**70 + 1, 70)):
                got = spectral._dyadic_value(q, num, exp)
                assert type(got) is int
                assert got == _horner_value(q, num, exp), (q, num, exp)


#: the polynomials of ``test_roots_on_dyadic_probes``
DYADIC_PROBE_ROOTS = [
    ([0, 0, 1], 0.0),  # x^2: the first probe is the double root
    ([0, -1, 1], 1.0),  # x(x-1): the first nudge lands on a root too
    ([0, -3, 2, 1], 1.0),  # x(x-1)(x+3)
    ([4, 0, -3, 1], 2.0),  # (x-2)^2 (x+1)
    ([-16, 0, 0, 0, 1], 2.0),  # x^4 - 16
]


#: odd integers above 2**53, each halfway between two floats, with the
#: float of even significand that they round to, as int / int does
TIES = [(2**53 + 1, 2**53), (2**53 + 3, 2**53 + 4)]


class TestLargestRealRootIsBitExact:
    """``largest_real_root`` returns the float nearest the top root, the
    Fraction oracle's, on every family."""

    def test_corpus_and_squares(self):
        for M in random_irreducible_matrices(200):
            poly = char_poly(M)
            coeffs = list(poly.coefficients)
            assert largest_real_root(poly) == _nearest_float(coeffs)
            # the doubled incidence matrix has the squared polynomial
            squared = _poly_product(coeffs, coeffs)
            assert largest_real_root(IntPolynomial(squared)) == (
                _nearest_float(squared)
            )

    @pytest.mark.parametrize("k", range(2, 13))
    def test_lifts_of_two(self, k):
        poly = char_poly(block_lift(IntMatrix.from_rows([[2]]), k))
        assert largest_real_root(poly) == _nearest_float(poly.coefficients)

    def test_x_n_minus_x_minus_1(self):
        # lambda tends to 1 as n grows, where the float spacing is finest
        for n in range(2, 65):
            coeffs = [-1, -1] + [0] * (n - 2) + [1]
            assert largest_real_root(IntPolynomial(coeffs)) == (
                _nearest_float(coeffs)
            )

    def test_stress_and_sparse_draws(self):
        # n up to 20, with Cauchy bounds up to about 3e10
        for M in stress_matrices(30) + sparse_irreducible_matrices(40):
            poly = char_poly(M)
            assert largest_real_root(poly) == _nearest_float(poly.coefficients)

    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_wide_companions(self, a):
        # x^n - a x^(n-1) - 1: lambda just above a, far below the bound
        for n in range(8, 25):
            coeffs = [-1] + [0] * (n - 2) + [-a, 1]
            assert largest_real_root(IntPolynomial(coeffs)) == (
                _nearest_float(coeffs)
            )

    @pytest.mark.parametrize("coeffs, root", DYADIC_PROBE_ROOTS)
    def test_roots_on_dyadic_probes(self, coeffs, root):
        got = largest_real_root(IntPolynomial(coeffs))
        assert got == _nearest_float(coeffs)
        assert got == pytest.approx(root, abs=1e-12)

    @pytest.mark.parametrize("coeffs", [[1, 0, 1], [5, 2, 1], [1, 0, 0, 0, 1], [1]])
    def test_no_real_roots_raises(self, coeffs):
        with pytest.raises(InvalidInputError, match="no real roots"):
            largest_real_root(IntPolynomial(coeffs))
        assert _nearest_float(coeffs) is None

    @pytest.mark.parametrize("root, want", TIES)
    def test_tie_rounds_to_even(self, root, want):
        assert float(root) == want
        assert largest_real_root(IntPolynomial([-root, 1])) == want


#: monic integer polynomials of degree 0..8 with coefficients in
#: [-20, 20]: any such; products q * r**2 * (x - c), with a repeated root
#: and an integer root; and products of x**2 + bx + c with b**2 < 4c,
#: with no real root
_SMALL_MONIC = st.one_of(
    st.lists(st.integers(-20, 20), max_size=8).map(lambda c: c + [1]),
    st.tuples(
        st.lists(st.integers(-2, 2), max_size=2),
        st.lists(st.integers(-2, 2), min_size=1, max_size=2),
        st.integers(-3, 3),
    ).map(lambda t: _poly_product(t[0] + [1], t[1] + [1], t[1] + [1], [-t[2], 1])),
    st.lists(st.tuples(st.integers(3, 5), st.integers(-3, 3)), min_size=1,
             max_size=2).map(lambda qs: _poly_product(*[[c, b, 1] for c, b in qs])),
).filter(lambda c: max(map(abs, c)) <= 20)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_SMALL_MONIC)
def test_small_polynomials_give_the_nearest_float(coeffs):
    want = _nearest_float(coeffs)
    if want is None:
        with pytest.raises(InvalidInputError, match="no real roots"):
            largest_real_root(IntPolynomial(coeffs))
    else:
        assert largest_real_root(IntPolynomial(coeffs)) == want


class TestGuessNeverDecides:
    """The Newton guess only picks the float whose rounding interval two
    Sturm counts check; a wrong guess, or none, gives the same float."""

    @staticmethod
    def _polys():
        polys = [char_poly(M) for M in random_irreducible_matrices(200)]
        polys += [char_poly(_lift_of_two(k)) for k in range(2, 13)]
        polys += [IntPolynomial([-root, 1]) for root, _ in TIES]
        return polys + [IntPolynomial(c) for c, _ in DYADIC_PROBE_ROOTS]

    @pytest.fixture
    def dyadic_calls(self, monkeypatch):
        """The list that gets one entry per ``_dyadic_value`` call."""
        calls = []
        original = spectral._dyadic_value

        def counting(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(spectral, "_dyadic_value", counting)
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
        polys = self._polys()
        want = [largest_real_root(poly) for poly in polys]
        costs = {}
        for name, guess in (("exact", lambda lam: lam), ("wrong", wrong_guess)):
            del dyadic_calls[:]
            for poly, lam in zip(polys, want):
                monkeypatch.setattr(
                    spectral, "_newton_guess", lambda p, bound: guess(lam)
                )
                assert largest_real_root(poly) == lam
            costs[name] = len(dyadic_calls)
        # a wrong guess fails the check, and either bisects from the top
        assert costs["wrong"] > costs["exact"] + 20 * len(polys)

    def test_dyadic_value_calls_are_pinned(self, dyadic_calls):
        # a count, not a timing: 14,051 calls when every probe was exact,
        # 3,077 along a replayed bisection path
        for M in random_irreducible_matrices(200):
            largest_real_root(char_poly(M))
        assert len(dyadic_calls) <= 1738


class TestLargestRealRoot:
    def test_against_numpy_roots(self):
        for M in random_irreducible_matrices(40, seed=13):
            poly = char_poly(M)
            roots = np.roots(poly.coefficients[::-1])
            real = [r.real for r in roots if abs(r.imag) < 1e-9]
            assert largest_real_root(poly) == pytest.approx(max(real), abs=1e-8)

    def test_non_squarefree(self, running_matrix):
        # blockdiag(M, M) squares the characteristic polynomial
        n = running_matrix.n
        rows = [list(r) + [0] * n for r in running_matrix.entries]
        rows += [[0] * n + list(r) for r in running_matrix.entries]
        big = IntMatrix.from_rows(rows)
        assert spectral_radius_exact(big) == pytest.approx(
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
    """Eigendata by inverse iteration at the Sturm root."""

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
                lams.append(largest_real_root(char_poly(M)))
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

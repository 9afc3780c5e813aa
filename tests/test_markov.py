"""Tests for the incidence matrix block structure and stretch verification."""

from types import SimpleNamespace

import numpy as np
import pytest

import endperiodic.spectral
from endperiodic import (
    IntMatrix,
    InvalidInputError,
    VerificationError,
    block_lift,
    char_poly,
    facts,
    incidence_matrix,
    is_primitive,
    run_pipeline,
    spectral_radius_exact,
    verify_stretch,
)

from conftest import (
    RUNNING_ROWS,
    SPARSE7,
    random_irreducible_matrices,
    seeded_irreducible_matrix,
)


def _oracle_inputs():
    """The corpus, the lifts of [[2]] with k = 2..12, the sparse 7x7 and
    the seeded n = 12 and n = 16."""
    out = random_irreducible_matrices(200)
    out += [block_lift(IntMatrix.from_rows([[2]]), k) for k in range(2, 13)]
    out += [IntMatrix.from_rows(SPARSE7)]
    out += [seeded_irreducible_matrix(n) for n in (12, 16)]
    return out


class TestIncidenceMatrix:
    def test_block_diagonal_structure(self):
        M = IntMatrix.from_rows(RUNNING_ROWS)
        inc = incidence_matrix(M, doubled=True)
        assert inc.n == 2 * M.n
        for i in range(M.n):
            for j in range(M.n):
                assert inc[i, j] == M[i, j]
                assert inc[M.n + i, M.n + j] == M[i, j]
                assert inc[i, M.n + j] == 0
                assert inc[M.n + i, j] == 0

    def test_undoubled_is_the_matrix_itself(self):
        M = IntMatrix.from_rows(RUNNING_ROWS)
        inc = incidence_matrix(M, doubled=False)
        assert inc.to_lists() == M.to_lists()

    def test_block_diagonal_preserves_spectral_radius(self):
        for M in random_irreducible_matrices(40):
            rho = spectral_radius_exact(M)
            rho2 = spectral_radius_exact(incidence_matrix(M, doubled=True))
            assert rho2 == pytest.approx(rho, abs=1e-9)

    def test_matches_numpy_oracle(self):
        M = IntMatrix.from_rows(RUNNING_ROWS)
        inc = incidence_matrix(M, doubled=True)
        a = np.array(M.to_lists())
        expected = np.block(
            [[a, np.zeros_like(a)], [np.zeros_like(a), a]]
        )
        assert np.array_equal(np.array(inc.to_lists()), expected)


def _surface(x):
    return SimpleNamespace(stretch_factor=x)


class TestVerifyStretch:
    def test_pipeline_report_verifies(self, running_matrix, running_result):
        report = verify_stretch(running_matrix, running_result.surface)
        x = running_result.surface.stretch_factor
        assert report.bracket == (x * (1 - 1e-9), x * (1 + 1e-9))
        lo, hi = report.bracket
        assert lo < running_result.eigen.lam < hi
        assert lo < spectral_radius_exact(running_matrix) < hi

    def test_mutated_matrix_fails(self, running_matrix, running_result):
        rows = [list(r) for r in running_matrix.to_lists()]
        rows[0][0] += 1
        mutated = IntMatrix.from_rows(rows)
        with pytest.raises(VerificationError):
            verify_stretch(mutated, running_result.surface)

    def test_mutation_changes_radius_of_primitive_matrices(self):
        rng = np.random.default_rng(7)
        count = 0
        for M in random_irreducible_matrices(60):
            if not is_primitive(M):
                continue
            rho = spectral_radius_exact(M)
            rows = [list(r) for r in M.to_lists()]
            i = int(rng.integers(M.n))
            j = int(rng.integers(M.n))
            rows[i][j] += 1
            assert spectral_radius_exact(IntMatrix.from_rows(rows)) > rho + 1e-12
            count += 1
        assert count >= 10

    @pytest.mark.parametrize(
        "tol", [float("nan"), float("inf"), 0, -1e-9, 1.0, 2.0, 1e308]
    )
    def test_tol_not_finite_and_positive_is_input_error(
        self, running_matrix, running_result, tol
    ):
        # nan and inf once raised from float.as_integer_ratio, and 0 and
        # -1e-9 a VerificationError that blamed the spectral radius; 1.0
        # and 2.0 passed with a bracket from at most 0, so vacuously, and
        # 1e308 raised a bare OverflowError
        with pytest.raises(InvalidInputError, match="is not a finite positive"):
            verify_stretch(running_matrix, running_result.surface, tol=tol)

    def test_report_serializes(self, running_matrix, running_result):
        report = verify_stretch(running_matrix, running_result.surface)
        data = report.to_json_dict()
        assert data == {
            "bracket": list(report.bracket),
            "sign_changes": list(report.sign_changes),
        }
        at_lo, at_hi = data["sign_changes"]
        assert at_lo == at_hi + 1

    @pytest.mark.parametrize("doubled", [True, False])
    def test_radius_equals_the_whole_matrix_oracle(self, doubled):
        # the whole (2n x 2n when doubled) characteristic polynomial survives
        # only here, as the oracle that the bracket of p = char_poly(M)
        # holds the radius of diag(M, M), whose polynomial is p**2
        for M in _oracle_inputs():
            rho = spectral_radius_exact(incidence_matrix(M, doubled))
            report = verify_stretch(M, _surface(rho))
            lo, hi = report.bracket
            assert lo <= rho <= hi
            # bench/run.py's traced pass passes a bare M, and its record
            # must equal build_record's, which passes the facts of M
            assert report == verify_stretch(facts(M), _surface(rho))


class TestBracketMutations:
    """Each way the certificate can be wrong fails it, and every failure
    carries the bracket and both sign-change counts."""

    def _failure(self, M, x) -> VerificationError:
        with pytest.raises(VerificationError) as exc:
            verify_stretch(M, _surface(x))
        lo, hi = x * (1 - 1e-9), x * (1 + 1e-9)
        assert exc.value.expected == [lo, hi]
        assert f"[{lo!r}, {hi!r}]" in str(exc.value)
        at_lo, at_hi = exc.value.actual
        assert f"{at_lo} just below it, {at_hi} just above it" in str(exc.value)
        return exc.value

    @pytest.mark.parametrize("sign", [1, -1])
    def test_stretch_factor_moved_by_twice_tol_fails(self, sign):
        lift = block_lift(IntMatrix.from_rows([[2]]), 8)
        for M in random_irreducible_matrices(40) + [lift]:
            rho = spectral_radius_exact(M)
            self._failure(M, rho * (1 + sign * 2e-9))

    def test_matrix_with_one_entry_raised_fails(self):
        for M in random_irreducible_matrices(40):
            rho = spectral_radius_exact(M)
            for i in range(M.n):
                rows = [list(r) for r in M.entries]
                rows[i][(i + 1) % M.n] += 1
                error = self._failure(IntMatrix.from_rows(rows), rho)
                # no root of the raised matrix lies in the bracket
                at_lo, at_hi = error.actual
                assert at_lo == at_hi

    @pytest.mark.parametrize(
        "x, end", [(2.9999999969999998, 1), (3.000000003, 0)], ids=["hi", "lo"]
    )
    def test_bracket_end_on_the_root_passes(self, x, end):
        report = verify_stretch(IntMatrix.from_rows([[3]]), _surface(x))
        assert report.bracket[end] == 3.0
        assert report.sign_changes == (1, 0)

    def test_repeated_root_on_the_high_end(self):
        # diag-like [[2, 1], [0, 2]] has the double root 2: the whole Sturm
        # chain vanishes there, and the counts beside it still decide
        x = 1.999999998
        assert x * (1 + 1e-9) == 2.0
        report = verify_stretch(IntMatrix.from_rows([[2, 1], [0, 2]]), _surface(x))
        assert report.sign_changes == (1, 0)
        # with a larger eigenvalue 5 the same bracket fails
        M = IntMatrix.from_rows([[2, 1, 0], [0, 2, 0], [0, 0, 5]])
        assert self._failure(M, x).actual == [2, 1]


@pytest.mark.parametrize(
    "rows, k",
    [(RUNNING_ROWS, None), ([[2]], 4), (None, None)],
    ids=["running", "lift4", "corpus137"],
)
def test_no_matrix_larger_than_the_input_reaches_char_poly(rows, k, monkeypatch):
    """Tooling guard: the pipeline computes no characteristic polynomial of
    a matrix larger than its input, such as the doubled incidence matrix,
    computes char_poly(M) and its Sturm chain once, and bisects λ once:
    the eigen stage and verify_stretch share them, and verify_stretch
    runs no second bisection. Faddeev-LeVerrier runs once, on the whole
    of a primitive M and on the 1 x 1 cycle product of the lift."""
    if rows is None:
        M = random_irreducible_matrices(200)[137]
    else:
        M = IntMatrix.from_rows(rows)
    if k is not None:
        M = block_lift(M, k)
    # run_pipeline makes one facts value, of M itself, and every stage
    # reads char_poly(M) off it
    original = endperiodic.spectral.MatrixFacts.__init__
    sizes = []
    chains = []
    bisections = []
    original_bisect = endperiodic.spectral._bisect_top_root

    def recording_bisect(*args):
        bisections.append(args)
        return original_bisect(*args)

    monkeypatch.setattr(endperiodic.spectral, "_bisect_top_root", recording_bisect)

    recurrences = []
    original_recurrence = endperiodic.spectral._faddeev_leverrier

    def recording_recurrence(rows):
        recurrences.append(len(rows))
        return original_recurrence(rows)

    monkeypatch.setattr(
        endperiodic.spectral, "_faddeev_leverrier", recording_recurrence
    )

    def recording(F, A):
        sizes.append(A.n)
        original(F, A)

    original_chain = endperiodic.spectral._integer_sturm_chain

    def recording_chain(coefficients):
        chains.append(tuple(coefficients))
        return original_chain(coefficients)

    monkeypatch.setattr(
        endperiodic.spectral, "_integer_sturm_chain", recording_chain
    )

    monkeypatch.setattr(endperiodic.spectral.MatrixFacts, "__init__", recording)
    run_pipeline(M, weak_perron_k=k)
    assert sizes == [M.n]
    assert recurrences == ([1] if k is not None else [M.n])
    assert chains == [char_poly(M).coefficients]
    assert len(bisections) == 1

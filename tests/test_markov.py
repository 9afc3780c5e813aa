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
    perron_eigendata,
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


def _surface(x, M):
    """A stand-in for the surface report: stretch factor x and the Perron
    vector of M."""
    return SimpleNamespace(stretch_factor=x, eta=perron_eigendata(M).eta)


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

    @pytest.mark.parametrize(
        "x", [float("nan"), float("inf"), 1.7976931348623157e308]
    )
    def test_stretch_factor_not_finite_fails_verification(self, x):
        # nan once raised a bare ValueError and inf a bare OverflowError,
        # from float.as_integer_ratio; the largest float overflows
        # x * (1 + tol) to inf
        with pytest.raises(VerificationError) as exc:
            M = IntMatrix.from_rows([[2]])
            verify_stretch(M, _surface(x, M))
        assert f"stretch factor {x!r}" in str(exc.value)
        # compared as text, where nan equals nan
        assert repr(exc.value.expected) == repr([x * (1 - 1e-9), x * (1 + 1e-9)])

    def test_report_serializes(self, running_matrix, running_result):
        report = verify_stretch(running_matrix, running_result.surface)
        assert report.to_json_dict() == {"bracket": list(report.bracket)}
        assert running_result.surface.eta == running_result.eigen.eta

    @pytest.mark.parametrize("doubled", [True, False])
    def test_radius_equals_the_whole_matrix_oracle(self, doubled):
        # the whole (2n x 2n when doubled) characteristic polynomial survives
        # only here, as the oracle that the bracket of p = char_poly(M)
        # holds the radius of diag(M, M), whose polynomial is p**2
        for M in _oracle_inputs():
            rho = spectral_radius_exact(incidence_matrix(M, doubled))
            surface = _surface(rho, M)
            report = verify_stretch(M, surface)
            lo, hi = report.bracket
            assert lo <= rho <= hi
            # bench/run.py's traced pass passes a bare M, and its record
            # must equal build_record's, which passes the facts of M
            assert report == verify_stretch(facts(M), surface)


class TestBracketMutations:
    """Each way the certificate can be wrong fails it, and every failure
    carries the bracket and the first row whose Collatz-Wielandt ratio
    lies outside it."""

    def _failure(self, M, x, eta=None) -> VerificationError:
        """The error of ``verify_stretch`` on M, x and ``eta``, by default
        the Perron vector of M."""
        surface = (_surface(x, M) if eta is None
                   else SimpleNamespace(stretch_factor=x, eta=eta))
        with pytest.raises(VerificationError) as exc:
            verify_stretch(M, surface)
        lo, hi = x * (1 - 1e-9), x * (1 + 1e-9)
        assert exc.value.expected == [lo, hi]
        assert f"[{lo!r}, {hi!r}]" in str(exc.value)
        i, ratio = exc.value.actual
        assert not lo <= ratio <= hi
        assert f"row {i} of M times eta has ratio {ratio!r}" in str(exc.value)
        assert f"eigendata.eta[{i}]" in str(exc.value)
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
            eta = perron_eigendata(M).eta
            for i in range(M.n):
                rows = [list(r) for r in M.entries]
                rows[i][(i + 1) % M.n] += 1
                error = self._failure(IntMatrix.from_rows(rows), rho, eta)
                # only row i changed, and it is named
                assert error.actual[0] == i

    def test_eta_entry_scaled_fails(self):
        count = 0
        for M in random_irreducible_matrices(40):
            if M.n == 1:
                continue
            rho = spectral_radius_exact(M)
            eta = perron_eigendata(M).eta
            for j in range(M.n):
                scaled = list(eta)
                scaled[j] *= 1 + 1e-6
                self._failure(M, rho, tuple(scaled))
                count += 1
        assert count >= 40

    @pytest.mark.parametrize(
        "eta, index",
        [
            ((1.0,), None),
            ((1.0, 1.0, 1.0), None),
            ((1.0, 0.0), 1),
            ((-1.0, 1.0), 0),
            ((1.0, float("nan")), 1),
            ((float("inf"), 1.0), 0),
        ],
        ids=["short", "long", "zero", "negative", "nan", "inf"],
    )
    def test_bad_eta_fails_typed_at_its_index(self, eta, index):
        M = IntMatrix.from_rows([[1, 1], [1, 0]])
        surface = SimpleNamespace(stretch_factor=spectral_radius_exact(M), eta=eta)
        with pytest.raises(VerificationError) as exc:
            verify_stretch(M, surface)
        if index is None:
            assert exc.value.actual == len(eta)
            assert f"{len(eta)} entries" in str(exc.value)
        else:
            assert exc.value.actual[0] == index
            assert f"eigendata.eta[{index}] = {eta[index]!r}" in str(exc.value)

    def test_eta_whose_ratio_passes_the_largest_float_fails_typed(self):
        # a positive eta that spans more than the float range: the ratio
        # (M eta)_0 / eta_0 is past the largest float, where int division
        # raises OverflowError
        M = IntMatrix.from_rows([[0, 1], [1, 0]])
        error = self._failure(M, 1.0, (5e-324, 1.7976931348623157e308))
        assert error.actual == [0, float("inf")]

    @pytest.mark.parametrize(
        "x, end", [(2.9999999969999998, 1), (3.000000003, 0)], ids=["hi", "lo"]
    )
    def test_bracket_end_on_the_root_passes(self, x, end):
        M = IntMatrix.from_rows([[3]])
        report = verify_stretch(M, _surface(x, M))
        assert report.bracket[end] == 3.0


@pytest.mark.parametrize(
    "rows, k",
    [(RUNNING_ROWS, None), ([[2]], 4), (None, None)],
    ids=["running", "lift4", "corpus137"],
)
def test_no_matrix_larger_than_the_input_reaches_char_poly(rows, k, monkeypatch):
    """Tooling guard: the pipeline computes no characteristic polynomial of
    a matrix larger than its input, such as the doubled incidence matrix,
    computes char_poly(M) and its Sturm chain once, and bisects λ once,
    all in the eigen stage: verify_stretch reads neither (see
    ``test_verify_stretch_reads_no_char_poly``). Faddeev-LeVerrier runs
    once, on the whole of a primitive M and on the 1 x 1 cycle product of
    the lift."""
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


def test_verify_stretch_reads_no_char_poly(
    running_matrix, running_result, monkeypatch
):
    """Tooling guard: ``verify_stretch`` on a bare M certifies from eta
    alone; it runs neither Faddeev-LeVerrier nor a Sturm chain."""
    calls = []
    for name in ("_faddeev_leverrier", "_integer_sturm_chain"):
        monkeypatch.setattr(
            endperiodic.spectral, name,
            lambda *args, name=name: calls.append(name),
        )
    verify_stretch(running_matrix, running_result.surface)
    assert calls == []

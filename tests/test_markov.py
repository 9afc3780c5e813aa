"""Tests for the incidence matrix block structure and stretch verification."""

import sys
from types import SimpleNamespace

import numpy as np
import pytest

import endperiodic.markov
import endperiodic.spectral
from endperiodic import (
    IntMatrix,
    VerificationError,
    block_lift,
    char_poly,
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


class TestVerifyStretch:
    def test_pipeline_report_verifies(self, running_matrix, running_result):
        report = verify_stretch(running_matrix, running_result.surface)
        assert report.relative_error <= 1e-9
        assert report.spectral_radius == pytest.approx(
            running_result.eigen.lam, abs=1e-9
        )

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

    def test_report_serializes(self, running_matrix, running_result):
        report = verify_stretch(running_matrix, running_result.surface)
        data = report.to_json_dict()
        assert float(data["relative_error"]) <= 1e-9
        assert len(data["incidence"]) == 2 * running_matrix.n

    @pytest.mark.parametrize("doubled", [True, False])
    def test_radius_equals_the_whole_matrix_oracle(self, doubled):
        # the whole (2n x 2n when doubled) characteristic polynomial survives
        # only here, as the oracle of the block route
        for M in _oracle_inputs():
            rho = spectral_radius_exact(M)
            surface = SimpleNamespace(stretch_factor=rho, doubled=doubled)
            expected = spectral_radius_exact(incidence_matrix(M, doubled))
            assert verify_stretch(M, surface).spectral_radius == expected
            shared = verify_stretch(M, surface, poly=char_poly(M))
            assert shared.spectral_radius == expected

    def test_shared_polynomial_unused_when_the_block_is_not_the_input(
        self, running_matrix, monkeypatch
    ):
        # an incidence matrix diag(B, B) with B != M: the radius must be
        # that of B, whatever polynomial of M the caller passes
        other = [list(r) for r in running_matrix.entries]
        other[2][3] += 1
        B = IntMatrix.from_rows(other)

        def of_other(M, doubled=True):
            return incidence_matrix(B, doubled)

        monkeypatch.setattr(endperiodic.markov, "incidence_matrix", of_other)
        rho = spectral_radius_exact(B)
        surface = SimpleNamespace(stretch_factor=rho, doubled=True)
        report = verify_stretch(
            running_matrix, surface, poly=char_poly(running_matrix)
        )
        assert report.spectral_radius == spectral_radius_exact(
            incidence_matrix(B, True)
        )

    def test_nonzero_off_diagonal_block_fails(self, running_matrix, running_result,
                                              monkeypatch):
        def leaky(M, doubled=True):
            rows = incidence_matrix(M, doubled).to_lists()
            rows[1][M.n + 2] = 1
            return IntMatrix.from_rows(rows)

        monkeypatch.setattr(endperiodic.markov, "incidence_matrix", leaky)
        with pytest.raises(VerificationError, match=r"off-diagonal block \(0, 1\)"):
            verify_stretch(running_matrix, running_result.surface)

    def test_unequal_diagonal_blocks_fail(self, running_matrix, running_result,
                                          monkeypatch):
        n = running_matrix.n
        other = [list(r) for r in running_matrix.entries]
        other[2][3] += 1

        def mismatched(M, doubled=True):
            rows = [list(r) + [0] * n for r in M.entries]
            rows += [[0] * n + r for r in other]
            return IntMatrix.from_rows(rows)

        monkeypatch.setattr(endperiodic.markov, "incidence_matrix", mismatched)
        with pytest.raises(VerificationError, match=r"diagonal block \(1, 1\)"):
            verify_stretch(running_matrix, running_result.surface)


@pytest.mark.parametrize(
    "rows, k",
    [(RUNNING_ROWS, None), ([[2]], 4)],
    ids=["running", "lift4"],
)
def test_no_matrix_larger_than_the_input_reaches_char_poly(rows, k, monkeypatch):
    """Tooling guard: the pipeline computes no characteristic polynomial of
    a matrix larger than its input, such as the doubled incidence matrix,
    and computes char_poly(M) and its Sturm chain once: the eigen stage
    and verify_stretch share them."""
    M = IntMatrix.from_rows(rows)
    if k is not None:
        M = block_lift(M, k)
    original = endperiodic.spectral.char_poly
    sizes = []
    chains = []

    def recording(A):
        sizes.append(A.n)
        return original(A)

    original_chain = endperiodic.spectral._integer_sturm_chain

    def recording_chain(coefficients):
        chains.append(tuple(coefficients))
        return original_chain(coefficients)

    monkeypatch.setattr(
        endperiodic.spectral, "_integer_sturm_chain", recording_chain
    )

    patched = 0
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "endperiodic" and (
            getattr(module, "char_poly", None) is original
        ):
            monkeypatch.setattr(module, "char_poly", recording)
            patched += 1
    assert patched >= 1
    run_pipeline(M, weak_perron_k=k)
    assert sizes == [M.n]
    assert chains == [original(M).coefficients]

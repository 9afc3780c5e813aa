"""Strip decompositions, strip boundary offsets, the piece map, corner selection."""

import sys

import numpy as np
import pytest

from endperiodic import (
    HORIZONTAL,
    VERTICAL,
    IntMatrix,
    InvalidInputError,
    PreconditionError,
    StripLabel,
    block_lift,
    build_decomposition,
    corner_selection,
    perron_eigendata,
    piece_map,
)
from endperiodic.decomposition import _embedded_cycle_through_first_vertex
from endperiodic.spectral import _analyse

from conftest import identity_permutations, random_irreducible_matrices


def _decomp(M):
    return build_decomposition(M, perron_eigendata(M), *corner_selection(M))


class TestStripCounts:
    def test_counts_match_matrix(self):
        for M in random_irreducible_matrices(25, seed=21):
            D = _decomp(M)
            for k in range(1, M.n + 1):
                col = sum(M[i, k - 1] for i in range(M.n))
                row = sum(M[k - 1, j] for j in range(M.n))
                assert len(D.vertical_order[k]) == col
                assert len(D.horizontal_order[k]) == row

    def test_label_str(self):
        label = StripLabel(VERTICAL, 1, 2, 1)
        assert str(label) == "V(1;2,1)"
        assert str(StripLabel(HORIZONTAL, 4, 2, 1)) == "H(4;2,1)"


class TestResizingRule:
    def test_boundaries_fill_the_rectangle(self):
        for M in random_irreducible_matrices(25, seed=22):
            D = _decomp(M)
            for k in range(1, M.n + 1):
                assert D.vertical_offsets[k][0] == 0.0
                assert D.horizontal_offsets[k][0] == 0.0
                assert D.vertical_offsets[k][-1] == pytest.approx(
                    D.rect_width(k), abs=1e-9
                )
                assert D.horizontal_offsets[k][-1] == pytest.approx(
                    D.rect_height(k), abs=1e-9
                )

    def test_widths_match_eigenvector_equation(self):
        # widths of vertical strips in Q_k are the lambda^-1 omega_i, with
        # multiplicity m_ik; this is the eigenvector equation for omega
        for M in random_irreducible_matrices(25, seed=23):
            D = _decomp(M)
            lam = D.eigen.lam
            for k in range(1, M.n + 1):
                widths = sorted(
                    D.strip_width(lbl) for lbl in D.vertical_order[k]
                )
                expected = sorted(
                    D.eigen.omega[i - 1] / lam
                    for i in range(1, M.n + 1)
                    for _ in range(M[i - 1, k - 1])
                )
                assert widths == pytest.approx(expected, abs=1e-9)

    def test_strip_width_of_a_horizontal_label_is_refused(self, running_matrix):
        D = _decomp(running_matrix)
        with pytest.raises(InvalidInputError, match="vertical label"):
            D.strip_width(D.horizontal_order[1][0])


class TestPieceMap:
    def test_branch_count(self, running_matrix):
        D = _decomp(running_matrix)
        P = piece_map(D)
        total = sum(sum(row) for row in running_matrix.entries)
        assert len(P.source_index) == len(P.target_index) == total

    def test_branches_are_affine_with_slope_lambda(self):
        for M in random_irreducible_matrices(15, seed=24):
            D = _decomp(M)
            lam = D.eigen.lam
            for br in piece_map(D).source_index.values():
                k, i = br.source_label.rect, br.target_label.rect
                t = D.vertical_order[k].index(br.source_label)
                x0, x1 = D.vertical_offsets[k][t : t + 2]
                u = D.horizontal_order[i].index(br.target_label)
                y0, y1 = D.horizontal_offsets[i][u : u + 2]
                assert (br.x0, br.y0) == (x0, y0)
                # lambda stretches the strip's width onto the target rect's
                # and the source rect's height onto the image strip's
                assert (x1 - x0) * lam == pytest.approx(D.rect_width(i), abs=1e-9)
                assert (y1 - y0) * lam == pytest.approx(D.rect_height(k), abs=1e-9)

    def test_bad_permutation_rejected(self, running_matrix):
        M = running_matrix
        eigen = perron_eigendata(M)
        D = _decomp(M)
        sigma = {k: dict(D.sigma[k]) for k in D.sigma}
        first = next(iter(sigma[4]))
        sigma[4][first] = StripLabel(HORIZONTAL, 4, 99, 1)
        with pytest.raises(InvalidInputError):
            build_decomposition(M, eigen, sigma=sigma, tau=D.tau)


class TestCornerSelection:
    def test_running_example_constraints(self, running_matrix):
        # the embedded cycle through vertex 1 pins specific strips: the
        # leftmost vertical strip of each cycle rectangle must map to the
        # topmost horizontal strip of the next cycle rectangle
        sigma, tau = corner_selection(running_matrix)
        eigen = perron_eigendata(running_matrix)
        D = build_decomposition(running_matrix, eigen, sigma=sigma, tau=tau)
        P = piece_map(D)
        by_source = P.source_index
        cycle = [1, 2, 4, 3]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            leftmost = D.vertical_order[a][0]
            br = by_source[leftmost]
            assert br.target_label.rect == b
            assert br.y0 == pytest.approx(0.0, abs=1e-12)

    def test_identity_default_differs(self, running_matrix):
        sigma, tau = corner_selection(running_matrix)
        assert (sigma, tau) != identity_permutations(running_matrix)

    def test_cycle_longer_than_the_recursion_limit(self):
        # the cycle through vertex 1 of the k-lift of [[2]] is 1, 2, ..., k,
        # longer than the recursion limit: the walk keeps no frame per
        # vertex, so it finds the cycle
        k = sys.getrecursionlimit() + 100
        M = block_lift(IntMatrix.from_rows([[2]]), k)
        cycle = _embedded_cycle_through_first_vertex(_analyse(M).successors)
        assert cycle == list(range(1, k + 1))
        sigma, tau = corner_selection(M)
        assert len(sigma) == len(tau) == k

    def test_random_inputs_give_valid_permutations(self):
        for M in random_irreducible_matrices(25, seed=25):
            sigma, tau = corner_selection(M)
            eigen = perron_eigendata(M)
            D = build_decomposition(M, eigen, sigma=sigma, tau=tau)
            piece_map(D)  # validates the bijection

    def test_reducible_matrix_is_refused(self):
        M = IntMatrix.from_rows([[1, 1], [0, 2]])
        with pytest.raises(PreconditionError, match="irreducible"):
            corner_selection(M)


class TestSymbolicLength:
    def test_json_dict_shape(self, running_result):
        # the matrix and the eigendata are config.matrix and the eigendata
        # section of the record, the label orders the canonical labels of
        # config.matrix and the strip boundaries follow from all three,
        # none of them copied here; sigma and tau are positions in those
        # orders
        D = running_result.decomposition
        data = D.to_json_dict()
        assert set(data) == {"sigma", "tau"}
        for name, orders, perm in (("sigma", D.horizontal_order, D.sigma),
                                   ("tau", D.vertical_order, D.tau)):
            assert data[name] == {
                str(k): [order.index(perm[k][label]) for label in order]
                for k, order in orders.items()
            }

"""Edge maps, their functional digraphs, and closed-form periodic points."""

import pytest

from endperiodic import (
    EdgeCoordinate,
    IntMatrix,
    PreconditionError,
    all_periodic_points,
    build_decomposition,
    build_edge_maps,
    choose_initial_points,
    corner_selection,
    link_corner_partners,
    max_escape_depth,
    nesting_period,
    perron_eigendata,
    piece_map,
)
from endperiodic.edgemaps import KINDS, composed_branch

from conftest import random_irreducible_matrices


def _system(M, corners=False):
    eigen = perron_eigendata(M)
    if corners:
        sigma, tau = corner_selection(M)
        D = build_decomposition(M, eigen, sigma=sigma, tau=tau)
    else:
        D = build_decomposition(M, eigen)
    return build_edge_maps(piece_map(D))


class TestDigraphs:
    def test_functional_and_within_matrix_arcs(self):
        for M in random_irreducible_matrices(30, seed=31):
            system = _system(M)
            for kind in KINDS:
                E = system.maps[kind]
                assert set(E.digraph) == set(range(1, M.n + 1))
                for k, target in E.digraph.items():
                    if kind in ("L", "R"):
                        assert M[target - 1, k - 1] > 0
                    else:
                        assert M[k - 1, target - 1] > 0

    def test_cycles_partition_targets(self):
        for M in random_irreducible_matrices(20, seed=32):
            system = _system(M)
            for kind in KINDS:
                E = system.maps[kind]
                cycle_vertices = [v for cyc in E.cycles for v in cyc]
                assert len(cycle_vertices) == len(set(cycle_vertices))
                for v in cycle_vertices:
                    assert E.tails[v] == 0

    def test_permutation_matrix_rejected(self):
        M = IntMatrix.from_rows([[0, 1], [1, 0]])
        D = build_decomposition(
            M,
            type(
                "E",
                (),
                {"lam": 1.0, "eta": (1.0, 1.0), "omega": (1.0, 1.0),
                 "residual": 0.0},
            )(),
        )
        with pytest.raises(PreconditionError):
            build_edge_maps(piece_map(D))


class TestPeriodicPoints:
    def test_one_point_per_cycle_rect(self):
        for M in random_irreducible_matrices(30, seed=33):
            system = _system(M)
            points = all_periodic_points(system)
            for kind in KINDS:
                E = system.maps[kind]
                cycle_rects = {v for cyc in E.cycles for v in cyc}
                assert {pt.location.rect for pt in points[kind]} == cycle_rects
                assert len(points[kind]) == len(cycle_rects)

    def test_fixed_point_residual_closed_form(self):
        for M in random_irreducible_matrices(30, seed=34):
            system = _system(M)
            D = system.decomposition
            points = all_periodic_points(system)
            for kind in KINDS:
                E = system.maps[kind]
                for pt in points[kind]:
                    x = pt.location
                    for _ in range(pt.period):
                        x = E.apply(x)
                    assert x.rect == pt.location.rect
                    assert abs(x.offset - pt.location.offset) <= 1e-9

    def test_brute_force_oracle(self):
        # iterate any edge point 200 times: the slope-1/lambda contraction
        # must land within 1e-9 of the closed-form periodic point
        for M in random_irreducible_matrices(25, seed=35):
            system = _system(M)
            D = system.decomposition
            points = all_periodic_points(system)
            for kind in KINDS:
                E = system.maps[kind]
                by_rect = {pt.location.rect: pt for pt in points[kind]}
                x = EdgeCoordinate(1, kind, 0.31 * E.edge_length(1, D))
                for _ in range(200):
                    x = E.apply(x)
                pt = by_rect[x.rect]
                assert abs(x.offset - pt.location.offset) <= 1e-9

    def test_composed_branch_matches_iteration(self):
        for M in random_irreducible_matrices(10, seed=36):
            system = _system(M)
            for kind in KINDS:
                E = system.maps[kind]
                rect, b = composed_branch(E, 1, 7)
                x = EdgeCoordinate(1, kind, 0.0)
                for _ in range(7):
                    x = E.apply(x)
                assert x.rect == rect
                assert abs(x.offset - b) <= 1e-9


class TestCorners:
    def test_corner_selection_makes_top_left_periodic(self, running_matrix):
        system = _system(running_matrix, corners=True)
        points = all_periodic_points(system)
        tl = [pt for pt in points["L"] if pt.corner_type == "TL"]
        assert len(tl) == 4
        assert {pt.period for pt in tl} == {4}
        assert {pt.location.rect for pt in tl} == {1, 2, 3, 4}
        assert all(pt.location.offset == 0.0 for pt in tl)

    def test_partners_have_same_type_and_period(self):
        for M in random_irreducible_matrices(30, seed=37):
            system = _system(M, corners=True)
            points = all_periodic_points(system)
            link_corner_partners(points)
            index = {pt.key: pt for pts in points.values() for pt in pts}
            for pt in index.values():
                if pt.is_corner:
                    partner = index[pt.partner_key]
                    assert partner.is_corner
                    assert partner.corner_type == pt.corner_type
                    assert partner.period == pt.period
                    assert partner.partner_key == pt.key

    def test_initial_points_one_per_orbit(self):
        for M in random_irreducible_matrices(30, seed=38):
            system = _system(M, corners=True)
            points = all_periodic_points(system)
            link_corner_partners(points)
            choose_initial_points(points)
            for kind in KINDS:
                orbits = {}
                for pt in points[kind]:
                    orbits.setdefault(pt.orbit_id, []).append(pt)
                for pts in orbits.values():
                    assert sum(pt.is_initial for pt in pts) == 1


class TestDepthConstants:
    def test_running_example_constants(self, running_result):
        system = running_result.system
        assert max_escape_depth(system) == 10
        assert nesting_period(system) == 64

    def test_escape_depth_formula(self):
        for M in random_irreducible_matrices(20, seed=39):
            system = _system(M)
            max_tail = max(
                t for E in system.maps.values() for t in E.tails.values()
            )
            max_period = max(
                len(c) for E in system.maps.values() for c in E.cycles
            )
            assert max_escape_depth(system) == max_tail + 2 * max_period

    def test_nesting_period_formula(self):
        for M in random_irreducible_matrices(20, seed=40):
            system = _system(M)
            product = 1
            for E in system.maps.values():
                for cyc in E.cycles:
                    product *= len(cyc)
            assert nesting_period(system) == product

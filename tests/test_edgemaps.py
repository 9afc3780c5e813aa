"""Edge maps, their functional digraphs, and closed-form periodic points."""

import json
import math

import pytest

from endperiodic import (
    IntMatrix,
    InternalConsistencyError,
    PreconditionError,
    all_periodic_points,
    block_lift,
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
from endperiodic.edgemaps import (
    _PARTNER_KIND,
    KINDS,
    _functional_analysis,
    census_json,
    census_rows,
    composed_branch,
)

from conftest import (
    RUNNING_ROWS,
    identity_permutations,
    random_irreducible_matrices,
    x_n_minus_x_minus_1,
)


def _system(M, corners=False):
    sigma, tau = corner_selection(M) if corners else identity_permutations(M)
    D = build_decomposition(M, perron_eigendata(M), sigma, tau)
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

    def test_tail_longer_than_the_recursion_limit(self):
        # the path 1 -> 2 -> ... -> 3000 into a fixed point: its tails are
        # walked without one Python frame per step
        n = 3000
        cycles, tails = _functional_analysis(
            {v: min(v + 1, n) for v in range(1, n + 1)}
        )
        assert cycles == ((n,),)
        assert tails == {v: n - v for v in range(1, n + 1)}
        assert list(tails) == list(range(1, n + 1))

    def test_permutation_matrix_rejected(self):
        # decided from the row sums of M, whatever eigenvalue it is given
        M = IntMatrix.from_rows([[0, 1], [1, 0]])
        for lam in (1.0, 1.5):
            eigen = type(
                "E",
                (),
                {"lam": lam, "eta": (1.0, 1.0), "omega": (1.0, 1.0),
                 "residual": 0.0},
            )()
            D = build_decomposition(M, eigen, *identity_permutations(M))
            with pytest.raises(PreconditionError):
                build_edge_maps(piece_map(D))


def _step(E, rect, x):
    """One step of edge map E from offset x on the edge of ``rect``."""
    br = E.branches[rect]
    return br.target_rect, br.apply(x, E.lam)


class TestPeriodicPoints:
    def test_one_point_per_cycle_rect(self):
        for M in random_irreducible_matrices(30, seed=33):
            system = _system(M)
            points = all_periodic_points(system)
            for kind in KINDS:
                E = system.maps[kind]
                cycle_rects = {v for cyc in E.cycles for v in cyc}
                assert {pt.rect for pt in points[kind]} == cycle_rects
                assert len(points[kind]) == len(cycle_rects)

    def test_fixed_point_residual_closed_form(self):
        for M in random_irreducible_matrices(30, seed=34):
            system = _system(M)
            D = system.decomposition
            points = all_periodic_points(system)
            for kind in KINDS:
                E = system.maps[kind]
                for pt in points[kind]:
                    rect, x = pt.rect, pt.offset
                    for _ in range(pt.period):
                        rect, x = _step(E, rect, x)
                    assert rect == pt.rect
                    assert abs(x - pt.offset) <= 1e-9

    def test_brute_force_oracle(self):
        # iterate any edge point 200 times: the slope-1/lambda contraction
        # must land within 1e-9 of the closed-form periodic point
        for M in random_irreducible_matrices(25, seed=35):
            system = _system(M)
            D = system.decomposition
            points = all_periodic_points(system)
            for kind in KINDS:
                E = system.maps[kind]
                by_rect = {pt.rect: pt for pt in points[kind]}
                rect, x = 1, 0.31 * E.edge_length(1, D)
                for _ in range(200):
                    rect, x = _step(E, rect, x)
                assert abs(x - by_rect[rect].offset) <= 1e-9

    def test_composed_branch_matches_iteration(self):
        for M in random_irreducible_matrices(10, seed=36):
            system = _system(M)
            for kind in KINDS:
                E = system.maps[kind]
                rect, b = composed_branch(E, 1, 7)
                at, x = 1, 0.0
                for _ in range(7):
                    at, x = _step(E, at, x)
                assert at == rect
                assert abs(x - b) <= 1e-9


class TestCorners:
    def test_corner_selection_makes_top_left_periodic(self, running_matrix):
        system = _system(running_matrix, corners=True)
        points = all_periodic_points(system)
        tl = [pt for pt in points["L"] if pt.corner_type == "TL"]
        assert len(tl) == 4
        assert {pt.period for pt in tl} == {4}
        assert {pt.rect for pt in tl} == {1, 2, 3, 4}
        assert all(pt.offset == 0.0 for pt in tl)

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


INITIAL_FAMILIES = {
    "corpus": lambda: random_irreducible_matrices(200),
    "lifts": lambda: [block_lift(IntMatrix.from_rows([[2]]), k)
                      for k in range(2, 65)],
    "x^n-x-1": lambda: [x_n_minus_x_minus_1(n) for n in range(2, 33)],
}


def _reference_initial_keys(points):
    """The keys of the initial points by the rule that the ``is_initial``
    property replaced: orbits in (kind, orbit id) order, each takes its
    least (rect, offset), and a corner orbit's choice also fixes its
    partner orbit's, on the partner of the chosen point."""
    orbits = {}
    for kind in KINDS:
        for pt in points[kind]:
            orbits.setdefault((kind, pt.orbit_id), []).append(pt)
    index = {pt.key: pt for pts in points.values() for pt in pts}
    initial, handled = set(), set()
    for okey in sorted(orbits, key=lambda kv: (KINDS.index(kv[0]), kv[1])):
        if okey in handled:
            continue
        chosen = min(orbits[okey], key=lambda pt: (pt.rect, pt.offset))
        initial.add(chosen.key)
        handled.add(okey)
        if chosen.is_corner:
            kind = _PARTNER_KIND[chosen.corner_type][chosen.map_kind]
            partner = index[(kind, chosen.rect)]
            initial.add(partner.key)
            handled.add((partner.map_kind, partner.orbit_id))
    return initial


class TestInitialPoints:
    @pytest.mark.parametrize("corners", [True, False], ids=["corners", "plain"])
    @pytest.mark.parametrize("family", sorted(INITIAL_FAMILIES))
    def test_initial_flag_equals_the_reference_rule(self, family, corners):
        for M in INITIAL_FAMILIES[family]():
            points = all_periodic_points(_system(M, corners=corners))
            link_corner_partners(points)
            choose_initial_points(points)
            flagged = {pt.key for pts in points.values() for pt in pts
                       if pt.is_initial}
            assert flagged == _reference_initial_keys(points), M.entries

    def test_partner_key_on_a_non_corner_point_is_refused(self):
        for M in random_irreducible_matrices(200):
            points = all_periodic_points(_system(M, corners=True))
            flat = [pt for pts in points.values() for pt in pts]
            corner = next((pt for pt in flat if pt.is_corner), None)
            plain = next((pt for pt in flat if not pt.is_corner), None)
            if corner and plain:
                break
        mutated = {
            kind: [pt._replace(partner_key=plain.key)
                   if pt is corner else pt for pt in pts]
            for kind, pts in points.items()
        }
        with pytest.raises(InternalConsistencyError, match="matching partner"):
            link_corner_partners(mutated)

    def test_renumbered_partner_orbit_is_refused(self):
        M = IntMatrix.from_rows(RUNNING_ROWS)
        points = all_periodic_points(_system(M, corners=True))
        # the T orbit partners the L orbit at the TL corners; shifting its
        # positions by one moves its initial point off the partner of L's
        renumbered = [
            pt._replace(orbit_position=(pt.orbit_position + 1) % pt.period)
            for pt in points["T"]
        ]
        mutated = dict(points, T=renumbered)
        link_corner_partners(mutated)
        with pytest.raises(InternalConsistencyError, match="non-initial partner"):
            choose_initial_points(mutated)


class TestDepthConstants:
    def test_running_example_constants(self, running_result):
        system = running_result.system
        assert max_escape_depth(system) == 10
        # one cycle per map, of periods 4, 2, 4 and 2 (product 64): lcm 4
        assert nesting_period(system) == 4

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
            periods = [len(c) for E in system.maps.values() for c in E.cycles]
            m = nesting_period(system)
            assert all(m % p == 0 for p in periods)
            assert not any(
                all(d % p == 0 for p in periods) for d in range(1, m)
            )
            assert math.prod(periods) % m == 0


class TestCensusJson:
    @pytest.mark.parametrize("case", ["corpus", "lifts"])
    def test_census_json_parses_to_census_rows(self, case):
        # The traced benchmark builds ``periodic_points`` from
        # ``census_json`` and requires its record to equal build_record's,
        # which writes ``census_rows``.
        if case == "corpus":
            inputs = random_irreducible_matrices(200)
        else:
            two = IntMatrix.from_rows([[2]])
            inputs = [block_lift(two, k) for k in range(2, 65)]
        for M in inputs:
            points = all_periodic_points(_system(M, corners=True))
            assert json.loads(census_json(points)) == census_rows(points)

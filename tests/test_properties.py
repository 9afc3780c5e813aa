"""Property suite over a seeded corpus of random irreducible matrices."""

import math
import random
from collections import Counter

import numpy as np
import pytest

from endperiodic import (
    IntMatrix,
    assemble_surface,
    block_lift,
    classify_classes,
    max_escape_depth,
    run_pipeline,
)

from conftest import (
    COORD_SLACK,
    finite_classes_are_small,
    random_irreducible_matrices,
    relabel_invariants,
    relabelled,
    seeded_irreducible_matrix,
    sparse_irreducible_matrices,
)

CORPUS_SIZE = 200


@pytest.fixture(scope="module")
def corpus_results():
    results = []
    for M in random_irreducible_matrices(CORPUS_SIZE):
        results.append((M, run_pipeline(M)))
    return results


def _matrix_allows(M, kind, source, target):
    if kind in ("L", "R"):
        return M[target - 1, source - 1] > 0
    return M[source - 1, target - 1] > 0


class TestEdgeDigraphs:
    def test_functional_and_within_matrix_support(self, corpus_results):
        for M, res in corpus_results:
            for kind, E in res.system.maps.items():
                assert sorted(E.digraph) == list(range(1, M.n + 1))
                for source, target in E.digraph.items():
                    assert _matrix_allows(M, kind, source, target)

    def test_cycles_partition_cycle_vertices(self, corpus_results):
        for _, res in corpus_results:
            for E in res.system.maps.values():
                on_cycles = [v for cyc in E.cycles for v in cyc]
                assert len(on_cycles) == len(set(on_cycles))
                assert all(E.tails[v] == 0 for v in on_cycles)


class TestPeriodicPoints:
    def test_at_most_one_point_per_edge_with_small_residual(self, corpus_results):
        for _, res in corpus_results:
            for kind, pts in res.points.items():
                E = res.system.maps[kind]
                rects = [pt.rect for pt in pts]
                assert len(rects) == len(set(rects))
                for pt in pts:
                    pos, rect = pt.offset, pt.rect
                    for _ in range(pt.period):
                        pos = E.branches[rect].apply(pos, E.lam)
                        rect = E.digraph[rect]
                    assert rect == pt.rect
                    assert abs(pos - pt.offset) <= 1e-9

    def test_agrees_with_iteration_oracle(self, corpus_results):
        for _, res in corpus_results:
            D = res.decomposition
            for kind, pts in res.points.items():
                E = res.system.maps[kind]
                for pt in pts:
                    rect = pt.rect
                    pos = 0.31 * E.edge_length(rect, D)
                    cur = rect
                    for _ in range(200):
                        pos = E.branches[cur].apply(pos, E.lam)
                        cur = E.digraph[cur]
                    if cur == rect:
                        assert abs(pos - pt.offset) <= 1e-9

    def test_corner_points_have_same_period_partners(self, corpus_results):
        for _, res in corpus_results:
            for kind, pts in res.points.items():
                for pt in pts:
                    if not pt.is_corner:
                        continue
                    pkind, prect = pt.partner_key
                    partner = next(
                        p
                        for p in res.points[pkind]
                        if p.rect == prect
                    )
                    assert partner.period == pt.period
                    assert partner.is_corner


class TestEscape:
    def test_sampled_boundary_orbits_reach_attachments(self, corpus_results):
        rng = np.random.default_rng(11)
        for _, res in corpus_results[:40]:
            D = res.decomposition
            N = max_escape_depth(res.system)
            strips = res.extended.strips
            for kind, E in res.system.maps.items():
                lengths = {k: E.edge_length(k, D) for k in E.digraph}
                max_period = max(len(c) for c in E.cycles)
                for _ in range(100):
                    rect = int(rng.integers(1, D.n + 1))
                    pos = float(rng.uniform(0, lengths[rect]))
                    for _ in range(N + max_period + 1):
                        pos = E.branches[rect].apply(pos, E.lam)
                        rect = E.digraph[rect]
                    strip = strips.get((kind, rect))
                    assert strip is not None
                    assert strip.lo - COORD_SLACK <= pos <= strip.hi + COORD_SLACK


class TestCensus:
    def test_finite_classes_have_size_at_most_two(self, corpus_results):
        for _, res in corpus_results:
            assert finite_classes_are_small(res.census)

    def test_finitely_many_infinite_classes(self, corpus_results):
        for _, res in corpus_results:
            D = res.decomposition
            strips = sum(
                len(D.vertical_order[k]) + len(D.horizontal_order[k])
                for k in range(1, D.n + 1)
            )
            bound = 2 * (4 * strips + 4 * D.n)
            assert 0 < len(res.census.infinite_classes) <= bound


class TestSurface:
    def test_stretch_matches_eigenvalue(self, corpus_results):
        for _, res in corpus_results:
            assert res.surface.stretch_factor == pytest.approx(
                res.eigen.lam, rel=1e-12
            )
            x = res.surface.stretch_factor
            assert res.incidence.bracket == (x * (1 - 1e-9), x * (1 + 1e-9))

    def test_every_end_has_consistent_sign(self, corpus_results):
        for _, res in corpus_results:
            for end in res.surface.ends:
                assert end.strip_orbits
                expected = {
                    "L": "Attracting",
                    "R": "Attracting",
                    "T": "Repelling",
                    "B": "Repelling",
                }
                for orbit in end.strip_orbits:
                    assert end.sign == expected[orbit.split(":")[0]]


def _invariants(surface, census):
    """What the census reports that must not depend on the window: the
    ends, connectedness, infinite type and the set of link labels. The
    number of infinite classes is left out: many Line classes are one
    shard per depth, so their count grows with the window."""
    return (
        surface.ends,
        surface.connected,
        surface.infinite_type,
        {c.link_type for c in census.infinite_classes},
    )


def _window_caps(res):
    """cap + m and cap + 2m past the default cap N + 3m (m the lcm of the
    cycle periods), and N + 3 * product of the periods when that product
    is at most 1000."""
    schema = res.schema
    cap, m = schema.depth_cap, schema.nesting_period
    caps = [cap + m, cap + 2 * m]
    product = math.prod(
        len(c) for E in res.system.maps.values() for c in E.cycles
    )
    if product <= 1000:
        caps.append(max_escape_depth(res.system) + 3 * product)
    return caps


class TestWindowIndependence:
    @pytest.mark.parametrize("case", ["corpus", "lifts"])
    def test_invariants_equal_on_longer_windows(self, case, corpus_results):
        if case == "corpus":
            inputs = [(res, None) for _, res in corpus_results]
        else:
            inputs = [
                (run_pipeline(block_lift(IntMatrix.from_rows([[2]]), k),
                              weak_perron_k=k), k)
                for k in range(2, 7)
            ]
        for res, k in inputs:
            expected = _invariants(res.surface, res.census)
            for cap in _window_caps(res):
                schema = res.schema._replace(depth_cap=cap)
                census = classify_classes(schema, res.extended)
                surface = assemble_surface(
                    res.extended, schema, census, weak_perron_k=k
                )
                assert _invariants(surface, census) == expected, cap

    def test_label_counts_equal_on_seeded_n16(self):
        # Seeded n = 16 has N 6 and m 2, so its default window is 12. The
        # float node tables merged points of one edge or strip level within
        # 1e-7 that are distinct, and those false merges moved its label
        # counts from 59 Line, 25 Undetermined and 24 CountableCircles at
        # cap 12 to 56, 28 and 24 at caps 24, 27 and 47. With exact names
        # every cap gives 59, 23 and 20.
        res = run_pipeline(seeded_irreducible_matrix(16))
        counts = [
            Counter(c.link_type for c in classify_classes(
                res.schema._replace(depth_cap=cap), res.extended,
            ).infinite_classes)
            for cap in (12, 24, 27, 47)
        ]
        assert counts == [counts[0]] * 4


class TestRelabelling:
    # Metamorphic: P·M·Pᵀ and Mᵀ give the same surface up to the names of
    # its rectangles and strips, so the invariants do not move.
    def test_corpus_relabelled_and_transposed(self, corpus_results):
        rng = random.Random(41)
        for M, res in corpus_results:
            expected = relabel_invariants(res)
            variants = [relabelled(M, rng.sample(range(M.n), M.n))
                        for _ in range(2)]
            variants.append(IntMatrix.from_rows(list(zip(*M.entries))))
            for variant in variants:
                assert relabel_invariants(run_pipeline(variant)) == expected, (
                    M.entries, variant.entries
                )

    def test_sparse120_relabelled(self):
        rng = random.Random(41)
        for M in sparse_irreducible_matrices(120):
            variant = relabelled(M, rng.sample(range(M.n), M.n))
            assert relabel_invariants(run_pipeline(variant)) == (
                relabel_invariants(run_pipeline(M))
            ), (M.entries, variant.entries)

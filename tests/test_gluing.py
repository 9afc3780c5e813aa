"""Infinite-strip attachments, boundary identifications, ends, surfaces."""

from collections import Counter

import pytest

from endperiodic import (
    IntMatrix,
    InvalidInputError,
    PreconditionError,
    block_lift,
    enumerate_identifications,
    escape_bound,
    run_pipeline,
)

from conftest import random_irreducible_matrices


class TestIntegerCaseGeometry:
    def test_four_strips_at_opposite_corners(self, d_results):
        for d, res in d_results.items():
            strips = res.extended.strips
            assert set(strips) == {("L", 1), ("R", 1), ("T", 1), ("B", 1)}
            q = 1.0 / (d * d)
            # left and top strips share the top-left corner, right and
            # bottom strips the bottom-right corner (offsets run from the
            # top on vertical edges, from the left on horizontal ones)
            assert strips[("L", 1)].lo == pytest.approx(0.0, abs=1e-12)
            assert strips[("L", 1)].hi == pytest.approx(q, abs=1e-12)
            assert strips[("T", 1)].lo == pytest.approx(0.0, abs=1e-12)
            assert strips[("R", 1)].hi == pytest.approx(1.0, abs=1e-12)
            assert strips[("B", 1)].lo == pytest.approx(1.0 - q, abs=1e-12)

    def test_attachment_length(self, d_results):
        for d, res in d_results.items():
            for strip in res.extended.strips.values():
                assert strip.hi - strip.lo == pytest.approx(
                    1.0 / (d * d), abs=1e-12
                )

    def test_two_signed_ends(self, d_results):
        for d, res in d_results.items():
            ends = sorted((e.sign, len(e.strip_orbits)) for e in res.surface.ends)
            assert ends == [("Attracting", 2), ("Repelling", 2)]

    def test_surface_flags(self, d_results):
        for d, res in d_results.items():
            assert res.surface.connected is True
            assert res.surface.infinite_type is True
            assert res.surface.stretch_factor == pytest.approx(d, abs=1e-12)

    def test_corner_classes_are_infinite_lines(self, d_results):
        for d, res in d_results.items():
            corner_classes = [
                c
                for c in res.census.classes
                if any(node[0] == "C" for node in c.nodes)
            ]
            kinds = sorted(
                node[2]
                for c in corner_classes
                for node in c.nodes
                if node[0] == "C"
            )
            assert kinds == ["BL", "TR"]  # the corners not blown into strips
            for c in corner_classes:
                assert c.infinite
                assert c.link_type == "Line"

    def test_finite_classes_are_pairs(self, d_results):
        for d, res in d_results.items():
            assert res.census.oversized_finite == 0
            assert res.census.finite_pairs > 0


class TestLinkLabels:
    def test_corpus_label_census(self):
        # Pinned labels: a family class (stitched from several union-find
        # shards) must be labelled from the pairing edges of all its shards;
        # the CountableCircles classes here are all such families.
        labels = Counter(
            c.link_type
            for M in random_irreducible_matrices(40)
            for c in run_pipeline(M).census.infinite_classes
        )
        assert labels == {"Line": 733, "Undetermined": 119, "CountableCircles": 11}


class TestAttachments:
    def test_disjoint_and_on_host_edges(self, running_result):
        by_edge = {}
        for strip in running_result.extended.strips.values():
            by_edge.setdefault((strip.rect, strip.side), []).append(strip)
        for (rect, side), strips in by_edge.items():
            edge_len = running_result.system.maps[side].edge_length(
                rect, running_result.decomposition
            )
            spans = sorted((s.lo, s.hi) for s in strips)
            for (a, b), (c, e) in zip(spans, spans[1:]):
                assert b <= c + 1e-9
            for a, b in spans:
                assert a >= -1e-9 and b <= edge_len + 1e-9

    def test_attachment_contains_its_point(self, running_result):
        index = running_result.extended.point_index
        for key, strip in running_result.extended.strips.items():
            pt = index[key]
            assert strip.lo - 1e-9 <= pt.location.offset <= strip.hi + 1e-9


class TestIdentifications:
    def test_depth_cap_below_escape_depth_rejected(self, running_result):
        with pytest.raises(InvalidInputError):
            enumerate_identifications(running_result.extended, depth_cap=3)

    def test_generator_tails_reach_cycles(self, running_result):
        for gen in running_result.schema.generators:
            for side in (0, 1):
                tail = gen.periodic_tail[side]
                assert tail["orbit"]
                assert tail["period"] >= 1

    def test_generator_counts(self, d_results):
        # d interior boundaries minus one per family: d-1 vertical cuts
        for d, res in d_results.items():
            fams = {}
            for gen in res.schema.generators:
                fams[gen.family] = fams.get(gen.family, 0) + 1
            assert fams == {"X": d - 1, "Y": d - 1}

    def test_escape_bound_within_depth(self, running_result):
        system = running_result.system
        N = running_result.schema.escape_depth
        for kind in ("L", "R", "T", "B"):
            for rect in range(1, 5):
                assert escape_bound(system, kind, rect) <= N


class TestRunningExample:
    def test_depth_constants(self, running_result):
        assert running_result.schema.escape_depth == 10
        assert running_result.schema.nesting_period == 64
        assert running_result.schema.depth_cap == 10 + 3 * 64

    def test_census_totals(self, running_result):
        census = running_result.census
        assert census.oversized_finite == 0
        assert census.finite_pairs > 0
        assert len(census.infinite_classes) > 0
        total = (
            census.finite_singletons
            + census.finite_pairs
            + census.oversized_finite
            + len(census.infinite_classes)
        )
        assert total == len(census.classes)

    def test_ends_signs(self, running_result):
        signs = sorted(e.sign for e in running_result.surface.ends)
        assert set(signs) == {"Attracting", "Repelling"}
        for end in running_result.surface.ends:
            for orbit in end.strip_orbits:
                kind = orbit.split(":")[0]
                expected = "Attracting" if kind in ("L", "R") else "Repelling"
                assert end.sign == expected

    def test_connected_primitive(self, running_result):
        assert running_result.surface.connected is True
        assert running_result.surface.weak_perron_gluing is None


class TestWeakPerronGluing:
    def test_lift_records_regluing(self):
        for k in (2, 3):
            M = block_lift(IntMatrix.from_rows([[2]]), k)
            res = run_pipeline(M, weak_perron_k=k)
            assert res.surface.connected is True
            record = res.surface.weak_perron_gluing
            assert record is not None
            assert record["k"] == k
            assert len(record["A_gluing"]) == k
            assert len(record["B_gluing"]) == k
            # the B regluing cycles the block indices
            assert all(j == (i % k) + 1 for i, j in record["B_gluing"])

    def test_non_lift_rejected(self, running_matrix):
        with pytest.raises(PreconditionError):
            run_pipeline(running_matrix, weak_perron_k=2)


class TestGenusInsertion:
    def test_site_is_a_corner_point(self, d_results):
        res = run_pipeline(IntMatrix.from_rows([[2]]), insert_genus=True)
        assert res.surface.genus_insertion_applied is True
        assert res.surface.genus_insertion_site is not None
        assert res.surface.infinite_type is True

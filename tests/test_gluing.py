"""Infinite-strip attachments, boundary identifications, ends, surfaces."""

import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import endperiodic
from endperiodic import (
    IntMatrix,
    InternalConsistencyError,
    InvalidInputError,
    PreconditionError,
    all_periodic_points,
    assemble_surface,
    attach_strips,
    block_lift,
    build_decomposition,
    build_edge_maps,
    build_extended_map,
    build_record,
    choose_initial_points,
    classify_classes,
    enumerate_identifications,
    link_corner_partners,
    max_escape_depth,
    perron_eigendata,
    piece_map,
    run_pipeline,
)
from endperiodic import gluing
from endperiodic.edgemaps import _CORNER_AT_END, _CORNER_AT_START
from endperiodic.gluing import (
    SIDE_KINDS,
    EquivalenceClass,
    InfiniteStrip,
    _EdgeTable,
    _find,
    _node_str,
    _strip_entry,
    _strip_levels,
    _union,
)
from endperiodic.spectral import COORD_TOL

from conftest import (
    RUNNING_ROWS,
    SPARSE7,
    SPARSE9,
    random_irreducible_matrices,
    seeded_irreducible_matrix,
    sparse_irreducible_matrices,
    x_n_minus_x_minus_1,
)


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
                assert c.link_type == "Line"

    def test_finite_classes_are_pairs(self, d_results):
        for d, res in d_results.items():
            assert res.census.oversized_finite == 0
            assert res.census.finite_pairs > 0


class TestLinkLabels:
    def test_corpus_label_census(self):
        # Pinned labels: a family class (stitched from several union-find
        # shards) must be labelled from the pairing edges of all its shards;
        # the CountableCircles classes here are all such families. Many Line
        # classes are one shard per depth, so their number follows the
        # window (733 Line, 119 Undetermined at N + 3 * product); the set
        # of labels per input does not (TestWindowIndependence in
        # test_properties.py).
        labels = Counter(
            c.link_type
            for M in random_irreducible_matrices(40)
            for c in run_pipeline(M).census.infinite_classes
        )
        assert labels == {"Line": 383, "Undetermined": 84, "CountableCircles": 11}


class TestAttachments:
    def test_disjoint_and_on_host_edges(self, running_result):
        """Strips are keyed by their edge ``(kind, rect)``, so each edge
        hosts one strip and attachments on one edge cannot overlap; each
        attachment lies on its host edge."""
        for key, strip in running_result.extended.strips.items():
            assert key == (strip.kind, strip.rect)
            edge_len = running_result.system.maps[strip.kind].edge_length(
                strip.rect, running_result.decomposition
            )
            assert strip.lo >= -1e-9 and strip.hi <= edge_len + 1e-9

    def test_attachment_contains_its_point(self, running_result):
        index = {pt.key: pt for pts in running_result.points.values() for pt in pts}
        for key, strip in running_result.extended.strips.items():
            pt = index[key]
            assert strip.lo - 1e-9 <= pt.offset <= strip.hi + 1e-9


ENTRY_CASES = ["corpus", "lifts", "x^n-x-1", "seeded", "sparse"]


@pytest.fixture(scope="module")
def entry_results(request):
    """Default pipeline results of one input family, shared by the
    strip-entry tests."""
    case = request.param
    if case == "corpus":
        return [run_pipeline(M) for M in random_irreducible_matrices(200)]
    if case == "lifts":
        return [_lift_result(k) for k in range(2, 65)]
    if case == "x^n-x-1":
        return [run_pipeline(x_n_minus_x_minus_1(n)) for n in range(2, 33)]
    if case == "seeded":
        return [run_pipeline(seeded_irreducible_matrix(n))
                for n in (12, 16, 20)]
    return [run_pipeline(IntMatrix.from_rows(rows))
            for rows in (SPARSE7, SPARSE9)]


class TestIdentifications:
    def test_depth_cap_below_escape_depth_rejected(self, running_result):
        with pytest.raises(InvalidInputError):
            enumerate_identifications(running_result.extended, depth_cap=3)

    def test_window_above_the_pair_state_limit_rejected(
        self, running_result, monkeypatch
    ):
        # The running example has 6 generators and N 10: with the limit at
        # 6 * 20 pair states the window 20 is built and 21 is refused,
        # naming depth_cap, the generator count and the limit.
        monkeypatch.setattr(endperiodic.gluing, "MAX_PAIR_STATES", 120)
        ext = running_result.extended
        assert len(enumerate_identifications(ext, depth_cap=20).generators) == 6
        with pytest.raises(InvalidInputError) as exc:
            enumerate_identifications(ext, depth_cap=21)
        assert str(exc.value) == (
            "depth_cap 21 with 6 generators is 126 pair states, above the "
            "limit 120"
        )

    def test_generator_tails_reach_cycles(self, running_result):
        strips = running_result.extended.strips
        for gen in running_result.schema.generators:
            for side, kind in enumerate(SIDE_KINDS[gen.gen_id[0]]):
                entered = gen.sides[side][-1]
                assert entered[0] == "S"
                assert strips[entered[1]].orbit_id == gen.tail_orbits[side]
                assert gen.tail_orbits[side].startswith(f"{kind}:")

    def test_generator_counts(self, d_results):
        # d interior boundaries minus one per family: d-1 vertical cuts
        for d, res in d_results.items():
            fams = {}
            for gen in res.schema.generators:
                family = gen.gen_id.split(":")[0]
                fams[family] = fams.get(family, 0) + 1
            assert fams == {"X": d - 1, "Y": d - 1}

    def test_tails_of_unstabilized_generators(self):
        # At depth_cap = N some lift generators still have an image on a
        # rectangle edge; their tails come from the strip they would enter
        # past the window, the same tails as at the default window.
        for k in (2, 4, 64):
            res = _lift_result(k)
            short = enumerate_identifications(
                res.extended, depth_cap=max_escape_depth(res.system)
            )
            unstabilized = 0
            for gen, full in zip(short.generators, res.schema.generators):
                if gen.stabilization_depth is None:
                    unstabilized += 1
                    assert gen.tail_orbits == full.tail_orbits
            assert unstabilized == 2

    def test_default_window_checks_the_two_period_margin(
        self, running_result, monkeypatch
    ):
        # The running example has N 10, m 4 and stabilizes by depth 12
        # (X:4:1). Reporting N as 7 leaves the default window 7 + 12 with
        # X:4:1 past N + m = 11, which must be named, not certified.
        ext = running_result.extended
        monkeypatch.setattr(endperiodic.gluing, "max_escape_depth", lambda s: 7)
        with pytest.raises(InternalConsistencyError) as info:
            enumerate_identifications(ext)
        message = str(info.value)
        assert "X:4:1" in message and "12" in message and "11" in message
        # an explicit depth_cap is the caller's window and is not checked
        assert enumerate_identifications(ext, depth_cap=19).depth_cap == 19

    @pytest.mark.parametrize(
        "entry_results", ["corpus", "lifts", "x^n-x-1", "seeded"], indirect=True
    )
    def test_entry_depth_equals_the_float_rule(self, entry_results):
        # Where no segment shrinks below the tolerance before it enters its
        # strip, the digraph rule and the float containment test it
        # replaced agree on every side of every generator.
        for res in entry_results:
            ext, cap = res.extended, res.schema.depth_cap
            for gen in res.schema.generators:
                kinds = SIDE_KINDS[gen.gen_id[0]]
                for kind, first in zip(kinds, gen.pair_states[0]):
                    _, t = _strip_entry(kind, first[1], ext)
                    assert t == _float_rule_entry(ext, kind, first, cap)

    @pytest.mark.parametrize("entry_results", ENTRY_CASES, indirect=True)
    def test_each_side_enters_its_strip_at_the_rule_depth(self, entry_results):
        # t <= longest tail + 3p <= N + m, so every side is a strip state
        # from depth t on, inside the default window, and an edge state
        # before it.
        for res in entry_results:
            ext, schema = res.extended, res.schema
            bound = max_escape_depth(res.system) + schema.nesting_period
            for gen in schema.generators:
                depths = []
                for side, kind in enumerate(SIDE_KINDS[gen.gen_id[0]]):
                    rect = gen.pair_states[0][side][1]
                    strip, t = _strip_entry(kind, rect, ext)
                    tags = [pair[side][0] for pair in gen.pair_states]
                    after = schema.depth_cap - t + 1
                    assert tags == ["E"] * (t - 1) + ["S"] * after
                    assert gen.pair_states[t - 1][side][1] == strip.key
                    assert strip.j == 0
                    assert t <= bound
                    depths.append(t)
                assert gen.stabilization_depth == max(depths)

    @pytest.mark.parametrize("entry_results", ENTRY_CASES, indirect=True)
    def test_strip_states_lie_on_their_strips(self, entry_results):
        # z runs over [0, 1] across a strip's base; a state outside it is a
        # segment that was put on a strip it does not lie on
        for res in entry_results:
            for gen in res.schema.generators:
                for pair in gen.pair_states:
                    for state in pair:
                        if state[0] == "S":
                            for z in state[2:4]:
                                assert -COORD_TOL <= z <= 1 + COORD_TOL


class TestDerivedWindow:
    @pytest.mark.parametrize(
        "rows, k", [(RUNNING_ROWS, None), ([[2]], 4)], ids=["running", "lift4"]
    )
    def test_certifying_derives_no_window(self, rows, k, monkeypatch):
        # the record and the census read each side up to its entry depth
        # and its orbit's strip levels; only a reader of pair_states steps
        # the tail rule to depth_cap
        calls = []
        window = gluing._window

        def spy(*args):
            calls.append(args)
            return window(*args)

        monkeypatch.setattr(gluing, "_window", spy)
        M = IntMatrix.from_rows(rows)
        if k is not None:
            M = block_lift(M, k)
        record, result = build_record(M, weak_perron_k=k)
        record.to_json()
        assert calls == []
        schema = result.schema
        assert len(schema.generators[0].pair_states) == schema.depth_cap
        assert len(calls) == 2

    def test_window_is_the_sides_stepped_by_the_tail_rule(self):
        # the rule the record states: from its entry depth on a side is a
        # strip state, and its state at depth d + 1 is its state at d
        # stepped by ``ext.step`` of its own strip key
        for M in random_irreducible_matrices(20):
            res = run_pipeline(M)
            step, cap = res.extended.step, res.schema.depth_cap
            for gen in res.schema.generators:
                sides = []
                for side in gen.sides:
                    states = list(side)
                    while len(states) < cap:
                        tag, key, za, zb, w = states[-1]
                        assert tag == "S"
                        key, rise = step[key]
                        states.append(("S", key, za, zb, w + rise))
                    sides.append(states)
                assert len(gen.pair_states) == cap
                assert gen.pair_states == tuple(zip(*sides))


def _float_rule_entry(ext, kind, first, depth_cap):
    """The first depth at which a side lies inside the strip attachment on
    its edge by the float containment test, padded by 1e-9, that decided
    strip entry before the digraph rule; the side is stepped by the edge
    branches of ``kind`` from its depth-1 edge state ``first``."""
    _, rect, side, a, b = first
    E = ext.system.maps[kind]
    branches, lam = E.branches, E.lam
    for depth in range(1, depth_cap + 1):
        strip = ext.strips.get((side, rect))
        if strip is not None and (
            min(a, b) >= strip.lo - 1e-9 and max(a, b) <= strip.hi + 1e-9
        ):
            return depth
        br = branches[rect]
        rect, a, b = br.target_rect, br.apply(a, lam), br.apply(b, lam)
    return None


class TestRunningExample:
    def test_depth_constants(self, running_result):
        assert max_escape_depth(running_result.system) == 10
        # the lcm of the cycle periods 4, 2, 4, 2
        assert running_result.schema.nesting_period == 4
        assert running_result.schema.depth_cap == 10 + 3 * 4

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

    @pytest.mark.parametrize(
        "base, k", [([[0, 2], [1, 0]], 1), ([[0, 2], [1, 0]], 2)]
    )
    def test_regluing_needs_a_primitive_base(self, base, k):
        # [[0, 2], [1, 0]] is irreducible of period 2: its k-lift is no
        # lift of a primitive matrix, so the regluing does not certify it,
        # and without weak_perron_k its connectedness is undecided.
        M = block_lift(IntMatrix.from_rows(base), k)
        with pytest.raises(PreconditionError) as info:
            run_pipeline(M, weak_perron_k=k)
        assert str(info.value) == (
            f"weak_perron_k={k} needs a primitive base block; "
            f"{base} is not primitive"
        )
        assert run_pipeline(M).surface.connected is None

    def test_regluing_needs_the_corner_point(self):
        # With the identity permutations of build_decomposition, the first
        # rectangle's top-left corner of the running example's 2-lift is
        # not periodic, so the regluing has no boundary ray to cut along.
        M = block_lift(IntMatrix.from_rows(RUNNING_ROWS), 2)
        system = build_edge_maps(piece_map(
            build_decomposition(M, perron_eigendata(M))
        ))
        points = all_periodic_points(system)
        link_corner_partners(points)
        choose_initial_points(points)
        ext = build_extended_map(system, attach_strips(system, points), points)
        schema = enumerate_identifications(ext)
        census = classify_classes(schema, ext)
        with pytest.raises(PreconditionError, match="corner_selection"):
            assemble_surface(ext, schema, census, weak_perron_k=2)


class TestGenusInsertion:
    def test_site_is_a_corner_point(self, d_results):
        res = run_pipeline(IntMatrix.from_rows([[2]]), insert_genus=True)
        assert res.surface.genus_insertion_applied is True
        assert res.surface.genus_insertion_site is not None
        assert res.surface.infinite_type is True


def _census_sha(census) -> str:
    text = json.dumps(census.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# SHA-256 of the canonical ``class_census`` section at the default window
# N + 3m, m the lcm of the cycle periods. Only the inputs whose lcm is below
# the product of the periods (15 of these 40, the running example, every
# lift) differ from the census at N + 3 * product.
RUNNING_CENSUS_SHA = "c485981194c93935d6f37b37f943ac9097a023d14da0d5545f76c76275fa19ee"
CORPUS40_CENSUS_SHA = [
    "855ad66475098e52d67b6b027197bea3c594bdb26ca5bd7fa019c45263e4adcf",
    "c2326507b4ecf453ed6d696658531f7b8388d0ef03936f90fedf8031ccf7f2a9",
    "281fc43bdea490ecc8cd295bb229f398ae1aeb8cb5c44c6bdcf442e031c48c02",
    "281fc43bdea490ecc8cd295bb229f398ae1aeb8cb5c44c6bdcf442e031c48c02",
    "64de03bce7a6e5fde944a6fb2615c17746a72404d953eaf3caaabf86476eea24",
    "908247c0ea18dd5bcba9f53c5cb3b0a6621c6ecb4cd8cd14ce42a1df57cd914a",
    "32c62e21b8c1a620d10f4745920ba5fd52d109cecc07de5562e3b69cff845837",
    "5af8e8519c83ed293edc0c59b6a7ef83fd3c981ac9086ecab5946200ad9863f9",
    "f9ac0cef952a0f4770f6e2feb58b39fa7ff5946f957cddef63d23fa38746a1ac",
    "d79e38255f40fd0f01761cbb55cf92d9d545289ce5bfc3c414faea40b1e49259",
    "e78499303d57cd35432f1563ba23c9e06444bdf3265e1c29ea54d99043987822",
    "f4a301a1c1b70952dc5de869fb08d964b60187238bddf344c33fdcacd3be928b",
    "80ae100bab0cdfef126f702844b389251e1b1111fcba3cc7de92ab6d0d00c895",
    "428f9a85c99941e2200b177c6428a4ecd1c664607effe84d8664f4f0ee2cba77",
    "ab28bb8c829373e39ea6a7edfe3f2c9c553b6570313206d48639e36f9cfeae94",
    "3c0905793d52dcbd7cf179af3f5f7c880e21ce7389394344f7ecf6ff4e5ea5d0",
    "281fc43bdea490ecc8cd295bb229f398ae1aeb8cb5c44c6bdcf442e031c48c02",
    "75f2718b71e0bf9bba9d29eb7e034b325567a8ae2e9994c69c8c128ff8cb5feb",
    "8df0ae9896924b0378e9be6d5e2fda00cd7a93ac149b328eb0d7a19404b546d8",
    "281fc43bdea490ecc8cd295bb229f398ae1aeb8cb5c44c6bdcf442e031c48c02",
    "eaeb34083663d8af5452923f9c4aa299cf9a2b4769766dd8437c27072e04ccb2",
    "d28baa295d0100fbc4935a305132226a389165b807cc972d78d2d4818ff0dbfb",
    "ec568b7ec28a34f32c386b53bd7d5be71e844ac96ef49405ebfccbd3198ea7c9",
    "cd8db2b9baf877ccb893c1df2d8969d28b3bf73c01908a6ebd484886ed46e92c",
    "9dfc42e09fdf46bc78297b3e66c1139bf507d904674959a92d4c64eaf37bc356",
    "71153a228c2f1224193ff6e611c5a2bb594a13b42096018fde4e71a0f1d7a16b",
    "0e8d84fb2f2bd7e5c9cb808210365f9b5dd72c61caabbd374da112d6b99e981a",
    "956277fe507ae31436d269a1a7ac71aebaf8858778ccc6656c839f746276f50a",
    "9dfc42e09fdf46bc78297b3e66c1139bf507d904674959a92d4c64eaf37bc356",
    "ee86483eb74fb6103210d3ee00770439d4a136a08b057dc6e473956a5099d9b8",
    "92e9a27ba6768371b0ab5936f2793a12f90d11ecba045d6afa67fade9a1768d4",
    "cad342ed4b5453a6f9f5b20fd308887a5d5103d034948ad90425936fc76d4ddd",
    "c47b21b901cf1aabeba21ba17085be3af760c2cc6b1dc3a58b775522e33d8d3f",
    "e8990c48d9b7784d1844e88942350ff265beba457d6cc75585bb597c89988352",
    "48f973ec3684aa6b23ebafd58756775d5f2b4fe1fa00c08e8c6f9ce6a32edc8e",
    "6faa0d30668e4ce308cffec39743839a9a38f4cff7e51daf431abbcdfad944d5",
    "281fc43bdea490ecc8cd295bb229f398ae1aeb8cb5c44c6bdcf442e031c48c02",
    "aa9d8b06233500f5248419395d58f401ee4ed627f92c701fd92b4ef365b4d64d",
    "281fc43bdea490ecc8cd295bb229f398ae1aeb8cb5c44c6bdcf442e031c48c02",
    "281fc43bdea490ecc8cd295bb229f398ae1aeb8cb5c44c6bdcf442e031c48c02",
]
LIFT_CENSUS_SHA = {
    2: "f697a4e6f9ef1ffb784b1712446defd5df278b9d4b11302df5f540b16ac2a3d0",
    3: "429c945fb39498cc06e705201885f3fb48f41b00f847f1283d0c2b4190365eac",
    4: "e5343c6792741591cb5b7eab819f2e93f24d1e0346b2a39caed010a1d4f1e27f",
}


def _lift_result(k):
    return run_pipeline(block_lift(IntMatrix.from_rows([[2]]), k), weak_perron_k=k)


class TestPinnedCensus:
    def test_running_example(self, running_result):
        assert _census_sha(running_result.census) == RUNNING_CENSUS_SHA

    def test_corpus(self):
        shas = [
            _census_sha(run_pipeline(M).census)
            for M in random_irreducible_matrices(40)
        ]
        assert shas == CORPUS40_CENSUS_SHA

    @pytest.mark.parametrize("k", sorted(LIFT_CENSUS_SHA))
    def test_lifts(self, k):
        assert _census_sha(_lift_result(k).census) == LIFT_CENSUS_SHA[k]


class _ScanRegistry:
    """The reference registry: every lookup scans its whole bin in
    insertion order and takes the first node within ``COORD_TOL``.
    ``lookups`` lists, per edge ``("E", rect, side)`` or strip level
    ``("S", key, w)``, the snapped positions looked up there, in order;
    a corner is looked up on neither."""

    def __init__(self, decomposition, strips):
        self.D = decomposition
        self.strips = strips
        self.nodes = []
        self.lookups = {}
        self._corner_ids = {}
        self._bins = {}

    def _new(self, node, bin=None):
        self.nodes.append(node)
        if bin is not None:
            bin.append(len(self.nodes) - 1)
        return len(self.nodes) - 1

    def _scan(self, prefix, pos):
        self.lookups.setdefault(prefix, []).append(pos)
        bin = self._bins.setdefault(prefix, [])
        for i in bin:
            if abs(self.nodes[i][3] - pos) <= COORD_TOL:
                return i
        return self._new(prefix + (pos,), bin)

    def edge_id(self, rect, side, pos):
        if side in ("L", "R"):
            length = self.D.rect_height(rect)
        else:
            length = self.D.rect_width(rect)
        if abs(pos) <= COORD_TOL:
            pos = 0.0
        if abs(pos - length) <= COORD_TOL:
            pos = length
        if pos == 0.0 or pos == length:
            at = _CORNER_AT_START if pos == 0.0 else _CORNER_AT_END
            corner = ("C", rect, at[side])
            if corner not in self._corner_ids:
                self._corner_ids[corner] = self._new(corner)
            return self._corner_ids[corner]
        return self._scan(("E", rect, side), pos)

    def node_id(self, state, endpoint):
        if state[0] == "E":
            return self.edge_id(state[1], state[2], state[3 + endpoint])
        _, key, _, _, w = state
        z = state[2 + endpoint]
        if abs(z) <= COORD_TOL:
            z = 0.0
        elif abs(z - 1.0) <= COORD_TOL:
            z = 1.0
        if w == 0 and z in (0.0, 1.0):
            strip = self.strips[key]
            return self.edge_id(strip.rect, strip.kind, strip.z_to_offset(z))
        return self._scan(("S", key, w), z)


def _scan_ids(schema, ext, by_side=True):
    """A ``_ScanRegistry`` fed the lookups of ``classify_classes`` in its
    order, and per generator the ids ``(a0, b0, a1, b1)`` of each depth's
    pair: the first endpoints of sides a and b, then the second ones.

    classify looks up, per generator, side a's first and second endpoint
    at each depth from 1 to ``depth_cap``, then side b's (``by_side``).
    With ``by_side`` False the scan is fed each depth's pair in turn, a0,
    b0, a1, b1, the order of classify before its id columns: the same
    nodes, numbered in another order."""
    registry = _ScanRegistry(ext.system.decomposition, ext.strips)
    node_id = registry.node_id
    ids = []
    for gen in schema.generators:
        pairs = gen.pair_states
        if by_side:
            a, b = (
                [(node_id(state, 0), node_id(state, 1)) for state in side]
                for side in zip(*pairs)
            )
            ids.append([(a0, b0, a1, b1) for (a0, a1), (b0, b1) in zip(a, b)])
        else:
            ids.append([
                (node_id(sa, 0), node_id(sb, 0), node_id(sa, 1), node_id(sb, 1))
                for sa, sb in pairs
            ])
    return registry, ids


def _tolerance_points(a):
    """``a``, a point exactly ``COORD_TOL`` above it (the float difference
    equals ``COORD_TOL``, so the two are within tolerance), and the next
    float above that one (not within tolerance of ``a``)."""
    b = a + COORD_TOL
    assert b - a == COORD_TOL
    return a, b, math.nextafter(b, math.inf)


def _synthetic_states(res):
    """Edge states that exercise each rule of the lookup: new nodes, hits
    on earlier ones, hits within tolerance but not equal, a point within
    tolerance of two nodes of which the later one is closer (the earlier
    one wins), points exactly ``COORD_TOL`` apart, snaps to 0 and the edge
    length, and corners."""
    a, b, c = _tolerance_points(5e-7)
    states = []
    D = res.decomposition
    for rect in range(1, D.n + 1):
        for side in ("L", "R", "T", "B"):
            length = D.rect_height(rect) if side in ("L", "R") else D.rect_width(rect)
            third = length / 3
            states += [
                ("E", rect, side, x, y)
                for x, y in [
                    (0.0, length), (5e-8, length - 5e-8),
                    (-COORD_TOL, length + 5e-8),
                    (third, third + 1.2e-7), (third + 0.7e-7, third + 0.5e-7),
                    (a, b), (c, third),
                ]
            ]
    return states


def _heads(nodes) -> list[str]:
    return [
        _node_str(node) if node[0] == "C" else _node_str(node[:3]) + ":"
        for node in nodes
    ]


def _edge_tables(D, nodes, heads):
    """An ``_EdgeTable`` per edge of D, sharing one corner dict, as
    ``classify_classes`` makes them."""
    corners = {}
    return {
        (rect, side): _EdgeTable(nodes, heads, corners, D, rect, side)
        for rect in range(1, D.n + 1) for side in ("L", "R", "T", "B")
    }


class TestBisectedRegistry:
    def test_synthetic_points(self, running_result):
        """The edge tables and the scan give the same id on every edge
        state's endpoints, and end with the same nodes and heads."""
        res = running_result
        nodes, heads = [], []
        edges = _edge_tables(res.decomposition, nodes, heads)
        reference = _ScanRegistry(res.decomposition, res.extended.strips)
        for _, rect, side, *ends in _synthetic_states(res):
            for pos in ends:
                expected = reference.edge_id(rect, side, pos)
                assert edges[rect, side][pos] == expected, (rect, pos)
        assert nodes == reference.nodes
        assert heads == _heads(reference.nodes)

    def test_answered_float_is_not_searched_again(self, running_result,
                                                  monkeypatch):
        """A float looked up again on an edge gets the scan's id from the
        table, without a second ``_least_within`` search: the first answer
        is the least id within ``COORD_TOL``, and every later node is a
        greater id."""
        res = running_result
        nodes, heads = [], []
        edges = _edge_tables(res.decomposition, nodes, heads)
        reference = _ScanRegistry(res.decomposition, res.extended.strips)
        searches = []
        least_within = gluing._least_within

        def counting(positions, ids, z, new):
            searches.append(z)
            return least_within(positions, ids, z, new)

        monkeypatch.setattr(gluing, "_least_within", counting)
        third = res.decomposition.rect_height(1) / 3
        near = third + COORD_TOL / 2
        for pos in (third, near, third + 1e-3, near, third):
            assert edges[1, "L"][pos] == reference.edge_id(1, "L", pos), pos
        assert searches == [third, near, third + 1e-3]
        assert nodes == reference.nodes

    @pytest.mark.parametrize("case", ["running", "corpus", "n16", "sparse"])
    def test_every_pair_in_classify_order(self, case, running_result):
        for res in _registry_results(case, running_result):
            # the census's registry and forest are those of a scan fed
            # classify's lookups in its order, with its unions
            registry, ids = _scan_ids(res.schema, res.extended)
            assert registry.nodes == res.census.nodes
            parent = list(range(len(registry.nodes)))
            for a0, b0, a1, b1 in (i for gen_ids in ids for i in gen_ids):
                _union(parent, a0, b0)
                _union(parent, a1, b1)
            assert [_find(parent, i) for i in parent] == res.census.parent

    @pytest.mark.parametrize("case", ["running", "corpus", "n16", "sparse"])
    def test_side_order_keeps_each_table_and_class(self, case, running_result):
        """Side a of a generator touches only L or T edges, strips and
        corners, side b only R or B ones, so looking up side a's whole
        column before side b's, not each depth's pair in turn, feeds every
        edge and strip level the same positions in the same order. It
        makes the same nodes, and each node's class has the same root
        node: only the numbering differs."""
        for res in _registry_results(case, running_result):
            by_side, _ = _scan_ids(res.schema, res.extended)
            by_pair, ids = _scan_ids(res.schema, res.extended, by_side=False)
            assert by_side.lookups == by_pair.lookups
            nodes = by_pair.nodes
            parent = list(range(len(nodes)))
            for a0, b0, a1, b1 in (i for gen_ids in ids for i in gen_ids):
                _union(parent, a0, b0)
                _union(parent, a1, b1)
            census = res.census
            assert {
                node: census.nodes[root]
                for node, root in zip(census.nodes, census.parent)
            } == {node: nodes[_find(parent, i)] for i, node in enumerate(nodes)}


def _registry_results(case, running_result):
    if case == "running":
        return [running_result]
    if case == "corpus":
        return [run_pipeline(M) for M in random_irreducible_matrices(200)]
    if case == "n16":
        return [run_pipeline(seeded_irreducible_matrix(16))]
    # the first 30 of sparse_irreducible_matrices(120): deep windows where
    # 63 of 178 orbits have entries that may merge, so their levels search
    return [run_pipeline(M) for M in sparse_irreducible_matrices(30)]


# offsets up to 1.5 COORD_TOL: multiples of COORD_TOL / 8, which repeat
# values and shrink fast, or any float in range
_NEAR = st.one_of(
    st.integers(-12, 12).map(lambda k: k * COORD_TOL / 8),
    st.floats(-1.5 * COORD_TOL, 1.5 * COORD_TOL),
)
_CLUSTERED = st.builds(float.__add__, st.sampled_from([0.0, 0.5, 1.0]), _NEAR)


@st.composite
def _orbit_entries(draw):
    """A depth cap and, per side in generator order, its entry depth and
    two entry coordinates, drawn from clusters at 0, 0.5 and 1 whose
    values lie within 1.5 ``COORD_TOL`` of each other."""
    cap = draw(st.integers(1, 7))
    sides = draw(st.lists(
        st.tuples(st.integers(1, cap), _CLUSTERED, _CLUSTERED),
        min_size=1, max_size=8,
    ))
    return cap, sides


class TestStripLevels:
    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(_orbit_entries())
    def test_levels_equal_a_scan_of_their_lookups(self, entries):
        """The ``_StripLevel`` tables and the ``_EdgeTable`` of their host
        edges give the ids of a scan that takes the least id within
        ``COORD_TOL`` of each lookup, in classify's order.

        One L orbit of period 2 on rectangles 1 and 2, so two levels sit at
        height 0, where a base corner z = 0 or 1 is the point that its host
        edge's table answers. Each side
        enters at its drawn depth t, and the level s steps past entry sees
        the sides with t <= cap - s, so the sets of lookups shrink as s
        grows, and the values within 1.5 ``COORD_TOL`` merge differently
        in each."""
        cap, sides = entries
        D = SimpleNamespace(n=2, rect_height=lambda rect: 1.0,
                            rect_width=lambda rect: 1.0)
        strips = {
            ("L", r): InfiniteStrip(("L", r), "L", "L:1", 2, r - 1, r,
                                    0.25, 0.5)
            for r in (1, 2)
        }
        system = SimpleNamespace(maps={"L": SimpleNamespace(digraph={1: 2, 2: 1})})
        ext = build_extended_map(system, strips, {})
        entry_states = [
            ("S", ("L", 1), z0, z1, 0) for _, z0, z1 in sides
        ]
        schema = SimpleNamespace(depth_cap=cap, generators=[
            SimpleNamespace(sides=((None,) * (t - 1) + (state,),))
            for (t, _, _), state in zip(sides, entry_states)
        ])
        nodes, heads = [], []
        levels = _strip_levels(schema, ext, _edge_tables(D, nodes, heads),
                               nodes, heads)
        reference = _ScanRegistry(D, strips)
        for (t, _, _), state in zip(sides, entry_states):
            # the side reads its orbit's table s steps past entry at depth
            # t + s, at its snapped entry coordinates
            _, key, za, zb, w = state
            z0, z1 = gluing._snapped(za), gluing._snapped(zb)
            for table in levels[key][:cap - t + 1]:
                at = ("S", key, za, zb, w)
                assert table[z0] == reference.node_id(at, 0)
                assert table[z1] == reference.node_id(at, 1)
                key, rise = ext.step[key]
                w += rise
        assert nodes == reference.nodes
        assert heads == _heads(reference.nodes)


def _searches(results, monkeypatch) -> tuple[int, int, int, int]:
    """What the ``classify_classes`` passes on ``results`` search: the
    strip orbits, those whose levels may merge, those whose levels ran
    ``_least_within``, and the searches on edges. A search is keyed by its
    pass and its list of positions: a pass makes its levels before it
    searches, and the lists of one pass are alive together."""
    made, searched = [], []
    strip_levels, least_within = gluing._strip_levels, gluing._least_within

    def recording_levels(*args):
        made.append(strip_levels(*args))
        return made[-1]

    def recording_search(positions, ids, z, new):
        searched.append((len(made), id(positions)))
        return least_within(positions, ids, z, new)

    monkeypatch.setattr(gluing, "_strip_levels", recording_levels)
    monkeypatch.setattr(gluing, "_least_within", recording_search)
    for res in results:
        classify_classes(res.schema, res.extended)
    monkeypatch.undo()
    orbits = [
        (run, steps) for run, levels in enumerate(made, 1)
        for steps in levels.values()
    ]
    merging = [
        (run, steps) for run, steps in orbits if steps[0].positions is not None
    ]
    level_of = {
        (run, id(level.positions)): n
        for n, (run, steps) in enumerate(merging) for level in steps
    }
    on_levels = {level_of[p] for p in searched if p in level_of}
    on_edges = sum(p not in level_of for p in searched)
    return len(orbits), len(merging), len(on_levels), on_edges


class TestTailLookups:
    def test_tail_levels_bisect_only_where_entries_may_merge(self, monkeypatch):
        """Tooling guard: a ``_StripLevel`` runs ``_least_within`` only
        where its orbit's snapped entry coordinates come within
        ``COORD_TOL`` of each other; every other level makes each new z a
        node without a search. The lifts k = 2..12 of [[2]] have no such
        orbit, so no level searches. corpus200 has 164 of 877, and only
        their levels search, on each of the 164. An edge searches once per float it has not
        answered: 22,538 times on corpus200, where a search per lookup
        was 39,364."""
        lifts = [_lift_result(k) for k in range(2, 13)]
        orbits, merging, searched, _ = _searches(lifts, monkeypatch)
        assert (merging, searched) == (0, 0) and orbits > 0
        corpus = [run_pipeline(M) for M in random_irreducible_matrices(200)]
        assert _searches(corpus, monkeypatch) == (877, 164, 164, 22_538)


class TestClassPartition:
    @pytest.mark.parametrize("case", ["running", "corpus", "lift"])
    def test_classes_partition_the_registry_nodes(self, case, running_result):
        if case == "running":
            results = [running_result]
        elif case == "corpus":
            results = [run_pipeline(M) for M in random_irreducible_matrices(10)]
        else:
            results = [_lift_result(3)]
        for res in results:
            classes = res.census.classes
            seen = Counter(node for c in classes for node in c.nodes)
            assert all(n == 1 for n in seen.values())
            registry_nodes = _scan_ids(res.schema, res.extended)[0].nodes
            assert len(set(registry_nodes)) == len(registry_nodes)
            assert sum(c.size for c in classes) == len(registry_nodes)
            assert set(seen) == set(registry_nodes)

    def test_node_order_within_classes(self, running_result):
        for c in running_result.census.classes:
            if c.link_type is not None:
                assert list(c.nodes) == sorted(c.nodes, key=_node_str)
            else:
                assert list(c.nodes) == sorted(c.nodes)


class TestCensusDeterminism:
    def test_lift_census_independent_of_hash_seed(self):
        src = Path(endperiodic.__file__).resolve().parents[1]
        code = (
            "import json; "
            "from endperiodic import IntMatrix, block_lift, run_pipeline; "
            "M = block_lift(IntMatrix.from_rows([[2]]), 3); "
            "census = run_pipeline(M, weak_perron_k=3).census; "
            "print(json.dumps(census.to_json_dict(), sort_keys=True))"
        )
        outputs = []
        for seed in ("0", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
            out = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=300,
            )
            outputs.append(out.stdout)
        assert outputs[0] == outputs[1]
        assert hashlib.sha256(
            json.dumps(json.loads(outputs[0]), sort_keys=True,
                       separators=(",", ":")).encode("utf-8")
        ).hexdigest() == LIFT_CENSUS_SHA[3]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _list_copy_side(pair_states, side: int) -> list:
    """One side's states up to its first strip state (all of them if there
    is none), copied into lists: the depth-1 edge state as [rect, a, b],
    each later edge state as [a, b] and the strip state as ["S", za, zb]."""
    first = pair_states[0][side]
    out = [[first[1], first[3], first[4]]]
    for pair in pair_states[1:]:
        state = pair[side]
        if state[0] == "S":
            out.append(["S", state[2], state[3]])
            break
        out.append([state[3], state[4]])
    return out


def _list_copy_identifications(schema) -> dict:
    """The ``identifications`` section with every stored state copied into
    lists, each side cut at its first strip state from ``pair_states``."""
    return {
        "generators": [
            {
                "id": g.gen_id,
                "sides": [_list_copy_side(g.pair_states, side)
                          for side in (0, 1)],
            }
            for g in schema.generators
        ],
    }


class TestIdentificationsJson:
    @pytest.mark.parametrize("case", ["running", "lift"])
    def test_pairs_dump_like_the_list_copy(self, case, running_result):
        res = running_result if case == "running" else _lift_result(3)
        assert _canonical(res.schema.to_json_dict()) == _canonical(
            _list_copy_identifications(res.schema)
        )


def _classify_link(nodes, edges) -> str:
    """The link label by graph search, as the census decided it before it
    read the label off the union-find: the reference of ``_link_label``."""
    node_set = set(nodes)
    degree = {n: 0 for n in nodes}
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    if all(d <= 2 for d in degree.values()) and len(edges) == len(nodes) - 1:
        # connected degree-<=2 tree: a chain that keeps growing with depth
        if _connected(node_set, edges):
            return "Line"
    cycles = _disjoint_cycle_count(node_set, edges, degree)
    if cycles >= 2:
        return "CountableCircles"
    return "Undetermined"


def _connected(nodes, edges) -> bool:
    if not nodes:
        return True
    adj = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    stack = [next(iter(nodes))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v])
    return len(seen) == len(nodes)


def _disjoint_cycle_count(nodes, edges, degree) -> int:
    if any(d != 2 for d in degree.values()):
        return 0
    adj = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    count = 0
    for start in nodes:
        if start in seen:
            continue
        comp = set()
        stack = [start]
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adj[v])
        seen |= comp
        count += 1
    return count


def _reference_labels(res) -> list[str]:
    """The link label of each infinite class by ``_classify_link``, from
    the class's nodes and the pairing edges among them."""
    census = res.census
    registry, ids = _scan_ids(res.schema, res.extended)
    edges_by_root = {}
    for a0, b0, a1, b1 in (i for gen_ids in ids for i in gen_ids):
        for na, nb in ((a0, b0), (a1, b1)):
            if na != nb:
                edges_by_root.setdefault(census.parent[na], set()).add(
                    (min(na, nb), max(na, nb))
                )
    # the same lookups in the same order as classify_classes
    assert registry.nodes == census.nodes
    ids = {node: i for i, node in enumerate(registry.nodes)}
    labels = []
    for c in census.infinite_classes:
        class_ids = [ids[node] for node in c.nodes]
        roots = {census.parent[i] for i in class_ids}
        edges = [e for r in roots for e in edges_by_root.get(r, ())]
        labels.append(_classify_link(class_ids, edges))
    return labels


class TestLinkLabelsFromShards:
    @pytest.mark.parametrize("case", ["corpus", "lifts", "sparse7", "running-lift4"])
    def test_labels_equal_the_graph_search(self, case):
        if case == "corpus":
            inputs = [(M, None) for M in random_irreducible_matrices(200)]
        elif case == "lifts":
            inputs = [
                (block_lift(IntMatrix.from_rows([[2]]), k), k) for k in range(2, 13)
            ]
        elif case == "sparse7":
            inputs = [(IntMatrix.from_rows(SPARSE7), None)]
        else:
            inputs = [(block_lift(IntMatrix.from_rows(RUNNING_ROWS), 4), 4)]
        for M, k in inputs:
            res = run_pipeline(M, weak_perron_k=k)
            labels = [c.link_type for c in res.census.infinite_classes]
            assert labels == _reference_labels(res)


def _eager_classes(schema, ext):
    """The census as one eager pass builds it: every class grouped into
    member lists, pairing edges as one set, orbit steps as a list of id
    pairs. Returns (finite counts, infinite classes, all classes)."""
    registry, ids = _scan_ids(schema, ext)
    nodes = registry.nodes
    parent, first_depth = list(range(len(nodes))), {}
    pair_edges, orbit_steps = set(), []
    for gen_ids in ids:
        older = previous = None
        for depth, (a0, b0, a1, b1) in enumerate(gen_ids, start=1):
            # the depth of first sight, generator by generator
            for i in (a0, b0, a1, b1):
                first_depth.setdefault(i, depth)
            for na, nb in ((a0, b0), (a1, b1)):
                _union(parent, na, nb)
                if na != nb:
                    pair_edges.add((min(na, nb), max(na, nb)))
            if older is not None:
                orbit_steps += [(older[0], a0), (older[1], a1)]
            older, previous = previous, (a0, a1)
    members = {}
    for i in range(len(nodes)):
        members.setdefault(_find(parent, i), []).append(i)
    cap, m = schema.depth_cap, schema.nesting_period
    growing, shards, finite = [], [], []
    for root, ids in members.items():
        if len(ids) >= 4 and max(first_depth[i] for i in ids) > cap - m:
            growing.append(root)
        elif len(ids) >= 3 or any(nodes[i][0] == "C" for i in ids):
            shards.append(root)
        else:
            finite.append(tuple(sorted(nodes[i] for i in ids)))
    family = {root: root for root in shards}
    for a, b in orbit_steps:
        ra, rb = parent[a], parent[b]
        if ra != rb and ra in family and rb in family:
            _union(family, ra, rb)
    families = {}
    for root in shards:
        families.setdefault(_find(family, root), []).append(root)

    def edges_of(roots):
        return [e for e in pair_edges if parent[e[0]] in roots]

    def infinite_class(ids, edges):
        class_nodes = tuple(sorted((nodes[i] for i in ids), key=_node_str))
        return EquivalenceClass(class_nodes, _classify_link(ids, edges))

    def by_node_str(root):
        return _node_str(nodes[root])

    infinite = [
        infinite_class(members[root], edges_of({root}))
        for root in sorted(growing, key=by_node_str)
    ] + [
        infinite_class(
            [i for r in families[key] for i in members[r]],
            edges_of(set(families[key])),
        )
        for key in sorted(families, key=by_node_str)
    ]
    sizes = Counter(len(c) for c in finite)
    counts = (sizes[1], sizes[2], sum(n for k, n in sizes.items() if k > 2))
    classes = tuple(EquivalenceClass(c, None) for c in finite) + tuple(
        infinite
    )
    return counts, tuple(infinite), classes


class TestLazyClasses:
    @pytest.mark.parametrize("case", ["running", "corpus", "lift", "sparse7", "n12"])
    def test_classes_equal_the_eager_census(self, case, running_result):
        if case == "running":
            results = [running_result]
        elif case == "corpus":
            results = [run_pipeline(M) for M in random_irreducible_matrices(200)]
        elif case == "lift":
            results = [_lift_result(k) for k in range(2, 65)]
        elif case == "sparse7":
            results = [run_pipeline(IntMatrix.from_rows(SPARSE7))]
        else:
            results = [run_pipeline(seeded_irreducible_matrix(12))]
        for res in results:
            census = classify_classes(res.schema, res.extended)
            assert "classes" not in vars(census)
            census.to_json_dict()
            assert "infinite_classes" not in vars(census)
            counts, infinite, classes = _eager_classes(res.schema, res.extended)
            assert (
                census.finite_singletons,
                census.finite_pairs,
                census.oversized_finite,
            ) == counts
            assert census.infinite_classes == infinite
            assert census.classes == classes
            assert "classes" in vars(census)
            assert census.classes is census.classes


class TestInfiniteSummaries:
    @pytest.mark.parametrize("case", ["running", "corpus", "lifts"])
    def test_summaries_match_the_classes(self, case, running_result):
        # the stored representative is the least node string, found
        # without stringifying every node
        if case == "running":
            results = [running_result]
        elif case == "corpus":
            results = [run_pipeline(M) for M in random_irreducible_matrices(200)]
        else:
            results = [_lift_result(k) for k in range(2, 13)]
        for res in results:
            census = res.census
            summaries = census.infinite_summaries
            assert len(summaries) == len(census.infinite_classes)
            for s, c in zip(summaries, census.infinite_classes):
                assert s.representative == min(map(_node_str, c.nodes))
                assert s.representative == _node_str(c.nodes[0])
                assert (s.link_type, s.size) == (c.link_type, c.size)

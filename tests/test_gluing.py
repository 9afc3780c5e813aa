"""Infinite-strip attachments, boundary identifications, ends, surfaces."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

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
from endperiodic.edgemaps import _CORNER_AT_END, _CORNER_AT_START, KINDS
from endperiodic.gluing import (
    SIDE_KINDS,
    EquivalenceClass,
    _find,
    _strip_entry,
    _union,
)

from conftest import (
    COORD_SLACK,
    RUNNING_ROWS,
    SPARSE7,
    SPARSE9,
    finite_classes_are_small,
    identity_permutations,
    random_irreducible_matrices,
    reference_pair_states,
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
            assert finite_classes_are_small(res.census)
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
    def test_window_above_the_pair_state_limit_rejected(
        self, running_result, monkeypatch
    ):
        # The running example has 6 generators and the window 22: with the
        # limit at 6 * 22 pair states the window is built, and at one less
        # it is refused, naming depth_cap, the generator count and the limit.
        ext = running_result.extended
        monkeypatch.setattr(endperiodic.gluing, "MAX_PAIR_STATES", 132)
        assert len(enumerate_identifications(ext).generators) == 6
        monkeypatch.setattr(endperiodic.gluing, "MAX_PAIR_STATES", 131)
        with pytest.raises(InvalidInputError) as exc:
            enumerate_identifications(ext)
        assert str(exc.value) == (
            "depth_cap 22 with 6 generators is 132 pair states, above the "
            "limit 131"
        )

    def test_generator_tails_reach_cycles(self, running_result):
        strips = running_result.extended.strips
        for gen in running_result.schema.generators:
            for side, kind in enumerate(SIDE_KINDS[gen.gen_id[0]]):
                entered = gen.pair_states[gen.entry_depths[side] - 1][side]
                assert entered[0] == "S"
                assert entered[1] == gen.entry_strips[side]
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

    def test_default_window_checks_the_two_period_margin(
        self, running_result, monkeypatch
    ):
        # The running example has N 10, m 4 and stabilizes by depth 12
        # (X:4:1). Reporting N as 7 leaves the window 7 + 12 with
        # X:4:1 past N + m = 11, which must be named, not certified.
        ext = running_result.extended
        monkeypatch.setattr(endperiodic.gluing, "max_escape_depth", lambda s: 7)
        with pytest.raises(InternalConsistencyError) as info:
            enumerate_identifications(ext)
        message = str(info.value)
        assert "X:4:1" in message and "12" in message and "11" in message

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
                depths, pairs = [], gen.pair_states
                for side, kind in enumerate(SIDE_KINDS[gen.gen_id[0]]):
                    rect = pairs[0][side][1]
                    strip, t = _strip_entry(kind, rect, ext)
                    tags = [pair[side][0] for pair in pairs]
                    after = schema.depth_cap - t + 1
                    assert tags == ["E"] * (t - 1) + ["S"] * after
                    assert pairs[t - 1][side][1] == strip.key
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
                                assert -COORD_SLACK <= z <= 1 + COORD_SLACK


class TestDerivedWindow:
    @pytest.mark.parametrize(
        "rows, k", [(RUNNING_ROWS, None), (SPARSE7, None), ([[2]], 4)],
        ids=["running", "sparse7", "lift4"],
    )
    def test_certifying_derives_no_window(self, rows, k):
        # the record, its verification and the census read each side's
        # entry depth and strip, integers, and its orbit's strip levels:
        # in a fresh interpreter they leave ``endperiodic.window``, the
        # one code that computes a segment's floats, unloaded; only a
        # reader of pair_states loads it
        src = Path(endperiodic.__file__).resolve().parents[1]
        code = (
            "import sys; "
            "from endperiodic import IntMatrix, block_lift, build_record, "
            "load_record, verify_record; "
            f"M = IntMatrix.from_rows({rows!r}); "
            f"k = {k!r}; "
            "M = M if k is None else block_lift(M, k); "
            "record, result = build_record(M, weak_perron_k=k); "
            "verify_record(load_record(record.to_json())); "
            "print('endperiodic.window' in sys.modules); "
            "schema = result.schema; "
            "print(len(schema.generators[0].pair_states) == schema.depth_cap, "
            "'endperiodic.window' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True, timeout=300,
        ).stdout
        assert out.split() == ["False", "True", "True"]

    def test_gluing_defines_no_float_window(self):
        # the builder keeps integers only: the float window, its strip
        # coordinates and the tail stepping to depth_cap live in
        # ``endperiodic.window``, which derives them from the record
        tree = ast.parse(Path(gluing.__file__).read_text(encoding="utf-8"))
        defined = {
            target.id for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
                defined.update(item.target.id for item in node.body
                               if isinstance(item, ast.AnnAssign)
                               and isinstance(item.target, ast.Name))
        assert {"GeneratorTrace", "pair_states", "lo", "hi"} <= defined
        assert defined.isdisjoint({"offset_to_z", "sides", "_side_states",
                                   "_window"})

    def test_window_is_the_sides_stepped_by_the_tail_rule(self):
        # the rule the record states: from its entry depth on a side is a
        # strip state, and its state at depth d + 1 is its state at d
        # stepped by ``ext.step`` of its own strip key; the reference is
        # the builder's own float arithmetic
        for M in random_irreducible_matrices(20):
            res = run_pipeline(M)
            for gen in res.schema.generators:
                pairs = gen.pair_states
                assert len(pairs) == res.schema.depth_cap
                assert pairs == reference_pair_states(gen, res.schema.depth_cap)


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
        assert finite_classes_are_small(census)
        assert census.finite_pairs > 0
        assert len(census.infinite_classes) > 0
        total = (
            census.finite_singletons
            + census.finite_pairs
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
        # With the identity permutations, the first rectangle's top-left
        # corner of the running example's 2-lift is not periodic, so the
        # regluing has no boundary ray to cut along.
        M = block_lift(IntMatrix.from_rows(RUNNING_ROWS), 2)
        system = build_edge_maps(piece_map(
            build_decomposition(M, perron_eigendata(M), *identity_permutations(M))
        ))
        points = all_periodic_points(system)
        link_corner_partners(points)
        choose_initial_points(points)
        ext = build_extended_map(system, attach_strips(system, points), points)
        schema = enumerate_identifications(ext)
        census = classify_classes(schema, ext)
        with pytest.raises(PreconditionError, match="corner_selection"):
            assemble_surface(ext, schema, census, weak_perron_k=2)


def _named_census(section: dict, schema) -> dict:
    """A ``class_census`` section with each row ``[link, [g, side, depth,
    endpoint], size_at_cap]`` written as the object of schema "13", whose
    representative named generator g by its id, ``X:3:1:a:5:0``: the pins
    below hash that form, so they hold across the change of layout."""
    return {**section, "infinite_classes": [
        {"link": link, "size_at_cap": size, "representative":
         f"{schema.generators[g].gen_id}:{'ab'[side]}:{depth}:{endpoint}"}
        for link, (g, side, depth, endpoint), size in section["infinite_classes"]
    ]}


def _census_sha(result) -> str:
    section = _named_census(result.census.to_json_dict(), result.schema)
    text = json.dumps(section, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# SHA-256 of the canonical ``class_census`` section at the default window
# N + 3m, m the lcm of the cycle periods. Only the inputs whose lcm is below
# the product of the periods (15 of these 40, the running example, every
# lift) differ from the census at N + 3 * product. Re-pinned at schema "9",
# where each representative names a place in classify's order and the
# classes come by least id; ``TestCensusInvariants`` holds what that left
# unchanged. Re-pinned at schema "11", which drops ``oversized_finite``:
# each pin is the parent's section with that key deleted. Schema "14"
# writes each class as a row of ints, which ``_named_census`` maps back.
RUNNING_CENSUS_SHA = "544373fa8d32da4695fcf7f85bcb2abba37ad56e0d4d91dbb481ca81842bfba6"
CORPUS40_CENSUS_SHA = [
    "e324baaccae87eff3fedd211a227edd91c455c4996c8536a2873b30aaea39fa9",
    "6b2e82c41e572c25e51cafdd58cf33c1e4878be8112422819a890d57ee9395e0",
    "9a07555a3ec182a1ee9b09d47403c4f786ddeeeff2790ee8a31ab99fb37e9a66",
    "9a07555a3ec182a1ee9b09d47403c4f786ddeeeff2790ee8a31ab99fb37e9a66",
    "da974832f4e518a3107998a58263f6b7dc3c69b6879b19ada190255aa2c2761c",
    "d3e413cd68131081d3948a68e0b353c10f926e1312fbf01c59abd92b75c74a91",
    "39abb836c23be535bd464ff44664ea4423e98401de1c61f6e147f6b69e9b3a26",
    "df673c6de856b4773ff468f82c7c688263fd33503fe1b5a08d8279c5b7e54306",
    "0b25f31b035f74ad8418c6b2050e453c411cdf3bf80a0f9a6214709acee9475f",
    "6e3255ddbe9ad042449734277326b44f772ea97c9b83093b12fa6550fae0e05f",
    "872b8e86687929c7ad4991110812210e1a03e1897b501813b3692828717cbf68",
    "30fa8edb3ba18ff25389132627a543f58c5064c3e6e2d5715477735ecfc0ef40",
    "73bd6200b5cb4e80b34f61044c665216e90d3b360de0f663b6be94c7c69bb8bc",
    "0fa916ab7c36204d3928b1d37eadd22ebeae6a261eb4cc04299df5fe645b7165",
    "aea730210e7aa31f45873d005202c511eff9b2ffbbb1195160a68c08a83edc37",
    "e65336238430678c702e33f37b5bf07f0435c30fab92ce498e191c87beded0dc",
    "9a07555a3ec182a1ee9b09d47403c4f786ddeeeff2790ee8a31ab99fb37e9a66",
    "484dbe1a263afe8290f55e9302c6fafb318fc6da408429075bda2324cd52dc02",
    "ea40681b09e6ca1f5a8260d86623dbdf6a496ce5bd987439030d8f86dbca2fb3",
    "9a07555a3ec182a1ee9b09d47403c4f786ddeeeff2790ee8a31ab99fb37e9a66",
    "caa4b15f81fa2189036976573bb1acb5629ab1ca3f1419cfadaa42fde7a61fdc",
    "a2235af3f9303d19bba01126f4a93152a2c63a8b52b6f83b3cb2ecd6a4cc1f35",
    "593cec844cdf89e60e33a129852a296f430fad7624397d10c303d635320ad94b",
    "3ba478bc3aa737f341e4110ad4cd19920b37a57b76fe3d2ad9d3d5ce1eaed032",
    "881fe17ade3e6e3dd1783e3a599468a805d333d945feda653b7db5a8529c350e",
    "fbc6d9ee0c59f5dce2040b13d29bb860c9f2f231b6560896516f90484100606d",
    "e6bdb682f109622dfc7a14bf7bc007fb741328fd4756465d30549f2566fb6b36",
    "30cfd289f293892c4a7320433084a110df402cd143ba27e43eadf389a9dbbc69",
    "881fe17ade3e6e3dd1783e3a599468a805d333d945feda653b7db5a8529c350e",
    "39b2e41db115004d36e064dfef3efc48deb827dec5b0de544e898138e6513a75",
    "657742e0c02906a1c5a72be59b65afd6ac9ead9c489844b72fe302494645fc7d",
    "8e553b975f0c48eebb3fd401e16a443065c123c2f0d6b5353272b739b73808e5",
    "07e15a49557ccafeb77bbfabf4956d37193cda8d4da3dd3bc97229349e885633",
    "c7d2138a88c76d8543ca6ed57c21a2669e209352c278f378e93263b3dd26bfea",
    "e1cf8956f536adb9eca2b7041704597e8fccdf78d69d7521a711165216ceb5ec",
    "d1e9c0de0d0a64de1c3c5d31aed2883bf7dd7c065645b294b580b8e8586e4103",
    "9a07555a3ec182a1ee9b09d47403c4f786ddeeeff2790ee8a31ab99fb37e9a66",
    "758ee9e67524936f185c8f84ae297e7bd1c322c45a98d34cf92b0d0101cbf162",
    "9a07555a3ec182a1ee9b09d47403c4f786ddeeeff2790ee8a31ab99fb37e9a66",
    "9a07555a3ec182a1ee9b09d47403c4f786ddeeeff2790ee8a31ab99fb37e9a66",
]
LIFT_CENSUS_SHA = {
    2: "86fa886d9b4564baa2b648c776bcce75ddd909d48e22e12cc8c09dd1b2a3b2ac",
    3: "e9237bf8ff0b072b784c3ab792500be51b52b823525c4b6fa3050c83bddf5ca5",
    4: "e700bb4bb197385685fab80dc3f74ff9a319342075ff4420e41c0e5718761fca",
}


def _lift_result(k):
    return run_pipeline(block_lift(IntMatrix.from_rows([[2]]), k), weak_perron_k=k)


class TestPinnedCensus:
    def test_running_example(self, running_result):
        assert _census_sha(running_result) == RUNNING_CENSUS_SHA

    def test_corpus(self):
        shas = [
            _census_sha(run_pipeline(M))
            for M in random_irreducible_matrices(40)
        ]
        assert shas == CORPUS40_CENSUS_SHA

    @pytest.mark.parametrize("k", sorted(LIFT_CENSUS_SHA))
    def test_lifts(self, k):
        assert _census_sha(_lift_result(k)) == LIFT_CENSUS_SHA[k]


def _census_invariants(census) -> list:
    """What names no node: the finite counts of the ``class_census``
    section, the number of finite classes above two nodes, counted from
    ``census.classes``, and the section's sorted (link, size_at_cap)
    pairs."""
    d = census.to_json_dict()
    return [
        d["finite_singletons"], d["finite_pairs"],
        sum(c.link_type is None and c.size > 2 for c in census.classes),
        sorted([link, size] for link, _, size in d["infinite_classes"]),
    ]


# the census's counts and labels, pinned before its classes were renamed
# and reordered; a change that only renames or reorders them keeps these
RUNNING_CENSUS_INVARIANTS = [0, 16, 0, [
    ["Line", 89], ["Undetermined", 3], ["Undetermined", 3],
    ["Undetermined", 21], ["Undetermined", 24], ["Undetermined", 24],
    ["Undetermined", 24], ["Undetermined", 104],
]]
#: SHA-256 of the canonical JSON list of ``_census_invariants`` over the
#: first 40 corpus inputs (478 infinite classes)
CORPUS40_INVARIANTS_SHA = (
    "aee759b8d5c32c031771abe63dd978b8b227e474759955b80dd99c81eafac93a"
)
LIFT_CENSUS_INVARIANTS = {
    k: [0, 8 * k, 0, [["Undetermined", 7 * k], ["Undetermined", 7 * k]]]
    for k in (2, 3, 4)
}


class TestCensusInvariants:
    def test_running_example(self, running_result):
        assert _census_invariants(running_result.census) == RUNNING_CENSUS_INVARIANTS

    def test_corpus(self):
        invariants = [
            _census_invariants(run_pipeline(M).census)
            for M in random_irreducible_matrices(40)
        ]
        assert sum(len(i[3]) for i in invariants) == 478
        text = json.dumps(invariants, separators=(",", ":"))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            CORPUS40_INVARIANTS_SHA
        )

    @pytest.mark.parametrize("k", sorted(LIFT_CENSUS_INVARIANTS))
    def test_lifts(self, k):
        assert _census_invariants(_lift_result(k).census) == (
            LIFT_CENSUS_INVARIANTS[k]
        )


#: the oracle's working precision, in decimal digits
ORACLE_DPS = 60
#: positions are held as integers in units of 10^-45; the oracle merges
#: points within 1e-40 and asserts that distinct points are more than
#: 1e-35 apart, so that no merge is a close call
_UNIT = 10**45
_MERGE = 10**5
_GAP = 10**10


def _perron(ctx, rows, lam, v):
    """(lambda, v) with ``rows`` times v = lambda v to the precision of
    ``ctx``, refined from the float guesses by Newton steps on (M - lam I)
    v = 0 with v's last entry fixed: each step takes the residual in
    ``ctx`` over M's nonzero entries and solves for its correction in
    floats, which gains about 14 digits."""
    n = len(rows)
    J = np.zeros((n + 1, n + 1))
    J[:n, :n] = np.array(rows, dtype=float) - lam * np.eye(n)
    J[:n, n] = [-x for x in v]
    J[n, n - 1] = 1.0
    arcs = [[(j, a) for j, a in enumerate(row) if a] for row in rows]
    lam, v = ctx.mpf(lam), [ctx.mpf(x) for x in v]
    for _ in range(6):
        r = [ctx.fsum(a * v[j] for j, a in row) - lam * v[i]
             for i, row in enumerate(arcs)]
        d = np.linalg.solve(J, [-float(x) for x in r] + [0.0])
        v = [x + float(e) for x, e in zip(v, d)]
        lam += float(d[n])
    assert max(abs(x) for x in r) < ctx.mpf(10) ** (5 - ORACLE_DPS)
    return lam, v


def _integer(ctx, x) -> int:
    return int(ctx.nint(x * _UNIT))


class _Oracle:
    """Classify's lookups at positions recomputed in mpmath at
    ``ORACLE_DPS`` digits, from M, the construction's strip labels and
    permutations, each side's entry depth and the tail rule.

    lambda, eta and omega are refined from the floats (``_perron``), and
    the strip boundaries, the piece-map branches, the edge maps, the strip
    attachments and each side's segments are rebuilt from them by the
    construction's rules. A point is an edge point ``(rect, kind, x)`` or
    a strip point ``(key, w, z)``, its coordinate an integer in units of
    10^-45 (``_UNIT``). The scan gives each point the id of the node
    within 1e-40 on its site, an edge or a strip level, or a new one; an
    edge point within 1e-40 of an edge end is that corner, and a strip
    point at height 0 within 1e-40 of z = 0 or 1 is the edge point at
    that end of the strip. ``check_gaps`` asserts that distinct nodes of
    a site, with the edge ends (and 0 and 1 on levels of height 0), are
    more than 1e-35 apart, so no merge decides a close case.
    """

    def __init__(self, ext):
        self.ext = ext
        system = ext.system
        D, P = system.decomposition, system.piece_map
        ctx = self.ctx = mpmath.MPContext()
        ctx.dps = ORACLE_DPS
        rows = [list(row) for row in D.facts.matrix.entries]
        lam, eta = _perron(ctx, rows, D.eigen.lam, D.eigen.eta)
        _, omega = _perron(ctx, [list(c) for c in zip(*rows)], D.eigen.lam,
                           D.eigen.omega)
        self.lam, self.eta, self.omega = lam, eta, omega
        bounds = {}
        for k in range(1, D.n + 1):
            # widths and heights by the decomposition's resizing rule
            sigma_inv = {v: u for u, v in D.sigma[k].items()}
            vertical, horizontal = D.vertical_order[k], D.horizontal_order[k]
            widths = [omega[D.tau[k][lab].source - 1] for lab in vertical]
            heights = [eta[sigma_inv[lab].source - 1] for lab in horizontal]
            for order, sizes in ((vertical, widths), (horizontal, heights)):
                x = ctx.mpf(0)
                for label, size in zip(order, sizes):
                    bounds[label] = x
                    x += size / lam
        self.bounds = bounds
        # each kind's branches: rect -> (target rect, offset of its image)
        self.branches = {}
        for kind in KINDS:
            out = self.branches[kind] = {}
            for r in range(1, D.n + 1):
                if kind in ("L", "R"):
                    label = D.vertical_order[r][0 if kind == "L" else -1]
                    image = P.source_index[label].target_label
                else:
                    label = D.horizontal_order[r][0 if kind == "T" else -1]
                    image = P.target_index[label].source_label
                out[r] = (image.rect, bounds[image])
        lengths = {
            (r, kind): eta[r - 1] if kind in ("L", "R") else omega[r - 1]
            for r in range(1, D.n + 1) for kind in KINDS
        }
        self.lengths = {edge: _integer(ctx, x) for edge, x in lengths.items()}
        # each strip key -> (lo, hi), its attachment f^(2p+j) of the full
        # edge of its orbit's initial rect, both ends stepped by the branches
        self.ends = {}
        for key, strip in ext.strips.items():
            if strip.j == 0:
                kind, rect = key
                xs = [ctx.mpf(0), lengths[rect, kind]]
                for step in range(3 * strip.period):
                    if step >= 2 * strip.period:
                        self.ends[kind, rect] = tuple(xs)
                    rect, offset = self.branches[kind][rect]
                    xs = [offset + x / lam for x in xs]
        self.nodes = []
        self.lookups = {}
        self._corners = {}
        self._sites = {}

    def first_segment(self, gen_id, side):
        """(rect, a, b) of a side's depth-1 segment: the image (y0, y0 +
        eta_k / lambda) of the t-th (side a) or (t-1)-th vertical strip of
        rect k for ``X:k:t``, the preimage (x0, x0 + omega_k / lambda) of
        its horizontal strips for ``Y:k:t``."""
        D, P = self.ext.system.decomposition, self.ext.system.piece_map
        family, k, t = gen_id.split(":")
        k, t = int(k), int(t) - side
        if family == "X":
            image = P.source_index[D.vertical_order[k][t]].target_label
            size = self.eta[k - 1]
        else:
            image = P.target_index[D.horizontal_order[k][t]].source_label
            size = self.omega[k - 1]
        a = self.bounds[image]
        return image.rect, a, a + size / self.lam

    def side_points(self, gen, side, cap):
        """A side's two points at each depth 1..cap: edge points stepped
        by the branches of its kind up to its entry depth t, then strip
        points at its entry strip coordinates, stepped by the tail rule."""
        kind = SIDE_KINDS[gen.gen_id[0]][side]
        t = gen.entry_depths[side]
        rect, a, b = self.first_segment(gen.gen_id, side)
        ctx = self.ctx
        points = []
        for _ in range(min(t - 1, cap)):
            points.append(tuple(("E", rect, kind, _integer(ctx, x))
                                for x in (a, b)))
            rect, offset = self.branches[kind][rect]
            a, b = offset + a / self.lam, offset + b / self.lam
        if t > cap:
            return points
        key, w = (kind, rect), 0
        lo, hi = self.ends[key]
        zs = [((hi - x) if kind in ("L", "R") else (x - lo)) / (hi - lo)
              for x in (a, b)]
        zs = [_integer(ctx, z) for z in zs]
        assert all(-_MERGE <= z <= _UNIT + _MERGE for z in zs)
        for _ in range(cap - t + 1):
            points.append(tuple(("S", key, w, z) for z in zs))
            key, rise = self.ext.step[key]
            w += rise
        return points

    def _new(self, node):
        self.nodes.append(node)
        return len(self.nodes) - 1

    def _edge_id(self, rect, kind, x):
        length = self.lengths[rect, kind]
        if abs(x) <= _MERGE or abs(x - length) <= _MERGE:
            at = _CORNER_AT_START if abs(x) <= _MERGE else _CORNER_AT_END
            corner = ("C", rect, at[kind])
            if corner not in self._corners:
                self._corners[corner] = self._new(corner)
            return self._corners[corner]
        return self._scan(("E", rect, kind), x)

    def _scan(self, site, x):
        self.lookups.setdefault(site, []).append(x)
        buckets = self._sites.setdefault(site, {})
        home = x // (_GAP // 100)
        for bucket in (home - 1, home, home + 1):
            for i in buckets.get(bucket, ()):
                if abs(self.nodes[i][3] - x) <= _MERGE:
                    return i
        i = self._new(site + (x,))
        buckets.setdefault(home, []).append(i)
        return i

    def node_id(self, point):
        if point[0] == "E":
            return self._edge_id(*point[1:])
        _, key, w, z = point
        if w == 0 and (abs(z) <= _MERGE or abs(z - _UNIT) <= _MERGE):
            # a base corner of the strip, its attachment's end: z runs
            # against the edge offset on vertical sides
            lo, hi = self.ends[key]
            at_hi = (abs(z) <= _MERGE) == (key[0] in ("L", "R"))
            return self._edge_id(key[1], key[0],
                                 _integer(self.ctx, hi if at_hi else lo))
        return self._scan(("S", key, w), z)

    def check_gaps(self):
        """Distinct nodes of a site, with the ends of an edge and 0 and 1
        on a level of height 0, are more than 1e-35 apart."""
        for site, buckets in self._sites.items():
            xs = sorted(self.nodes[i][3] for ids in buckets.values() for i in ids)
            if site[0] == "E":
                xs = [0] + xs + [self.lengths[site[1], site[2]]]
            elif site[2] == 0:
                xs = [0] + xs + [_UNIT]
            gaps = [y - x for x, y in zip(xs, xs[1:])]
            assert min(gaps, default=_GAP + 1) > _GAP, site


#: (M's entries, depth_cap, by_side) -> the oracle's nodes and lookups,
#: and its ids
_ORACLE_RUNS = {}


@pytest.fixture(scope="module", autouse=True)
def _forget_oracle_runs():
    """Free the kept oracle runs when this module's tests are done."""
    yield
    _ORACLE_RUNS.clear()


def _scan_ids(schema, ext, by_side=True):
    """The oracle (``_Oracle``) fed the lookups of ``classify_classes`` in
    its order, and per generator the ids ``(a0, b0, a1, b1)`` of each
    depth's pair: the first endpoints of sides a and b, then the second
    ones.

    classify looks up, per generator, side a's first and second endpoint
    at each depth from 1 to ``depth_cap``, then side b's (``by_side``).
    With ``by_side`` False the scan is fed each depth's pair in turn, a0,
    b0, a1, b1, the order of classify before its id columns: the same
    nodes, numbered in another order. Runs are kept by M, window and
    order, since several tests ask for the same one."""
    run = (ext.system.decomposition.facts.matrix.entries, schema.depth_cap,
           by_side)
    if run not in _ORACLE_RUNS:
        oracle = _Oracle(ext)
        node_id = oracle.node_id
        ids = []
        for gen in schema.generators:
            a, b = (oracle.side_points(gen, side, schema.depth_cap)
                    for side in (0, 1))
            if by_side:
                a, b = ([(node_id(p), node_id(q)) for p, q in side]
                        for side in (a, b))
                ids.append([(a0, b0, a1, b1) for (a0, a1), (b0, b1) in zip(a, b)])
            else:
                ids.append([
                    (node_id(pa), node_id(pb), node_id(qa), node_id(qb))
                    for (pa, qa), (pb, qb) in zip(a, b)
                ])
        oracle.check_gaps()
        # keep what the tests read, not the construction or the geometry
        kept = SimpleNamespace(nodes=oracle.nodes, lookups=oracle.lookups)
        _ORACLE_RUNS[run] = kept, ids
    return _ORACLE_RUNS[run]


def _oracle_forest(scan, ids) -> list[int]:
    """The roots, by id, of the unions of each depth's pairs (a0, b0) and
    (a1, b1) in the oracle's ids, in classify's order."""
    parent = list(range(len(scan.nodes)))
    for a0, b0, a1, b1 in (i for gen_ids in ids for i in gen_ids):
        _union(parent, a0, b0)
        _union(parent, a1, b1)
    return [_find(parent, i) for i in parent]


#: SHA-256 of each input's ``census.nodes`` (names as lists), then of its
#: ``census.parent``, as ``_table_shas`` hashes them: the node names, their
#: ids and the forest, pinned while classify still built a name tuple for
#: every point
NODE_TABLE_SHA = {
    "running": (
        "709d1a7c347c25cae0709415772a0ca84315a838efc4582c1c1a254cd3fa1320",
        "77afebadb07e2094c259d6bc86b66e161b336888e71bb47164fd097d56877891",
    ),
    "corpus200": (
        "2f3510149449d9ea30680fa327a39dbc338c76bc6ef94bcf8e37685b5c5cbcc7",
        "dcddbeda31b26295f1acc12c7fdd7aa8a3c1603212bb44f8731ae970539d14d2",
    ),
    "lifts": (
        "72f3d3996855e9ed02d87658c4998293188db9c00016915fa908a31ca3486b97",
        "d4496d12f1e8cefcb5b19f67299d86d80b160901ac8999c5c3339fb77327b189",
    ),
}


def _table_results(case, running_result):
    """The inputs of ``NODE_TABLE_SHA``: the running example, the corpus of
    200, or the lifts k = 2..8 of ``[[2]]``."""
    if case == "running":
        return [running_result]
    if case == "corpus200":
        return [run_pipeline(M) for M in random_irreducible_matrices(200)]
    return [_lift_result(k) for k in range(2, 9)]


def _table_shas(censuses) -> tuple[str, str]:
    """SHA-256 over ``json.dumps`` of each census's ``nodes``, one line per
    census, and the same over its ``parent``."""
    nodes, parent = hashlib.sha256(), hashlib.sha256()
    for census in censuses:
        nodes.update(json.dumps(census.nodes).encode() + b"\n")
        parent.update(json.dumps(census.parent).encode() + b"\n")
    return nodes.hexdigest(), parent.hexdigest()


class TestNodeTables:
    @pytest.mark.parametrize("case", sorted(NODE_TABLE_SHA))
    def test_node_names_and_forest_are_pinned(self, case, running_result):
        results = _table_results(case, running_result)
        assert _table_shas(res.census for res in results) == NODE_TABLE_SHA[case]

    @pytest.mark.parametrize("case", sorted(NODE_TABLE_SHA))
    def test_names_are_decoded_on_first_read(self, case, running_result):
        """classify numbers its points by int codes and builds no name:
        the names are decoded when ``nodes`` is first read, and then they
        are the pinned ones."""
        censuses = [
            classify_classes(res.schema, res.extended)
            for res in _table_results(case, running_result)
        ]
        for census in censuses:
            assert "nodes" not in vars(census)
            census.to_json_dict()
            assert "nodes" not in vars(census)
        assert _table_shas(censuses) == NODE_TABLE_SHA[case]
        assert all(census.nodes is census.nodes for census in censuses)

    @pytest.mark.parametrize(
        "case", ["running", "corpus", "lifts", "n16", "sparse", "sparse79"]
    )
    def test_every_pair_in_classify_order(self, case, running_result):
        for res in _oracle_results(case, running_result):
            # classify's nodes and forest are those of the oracle fed its
            # lookups in its order, with its unions: every node that it
            # names apart lies more than 1e-35 from every other, and every
            # node that it names alike within 1e-40
            scan, ids = _scan_ids(res.schema, res.extended)
            census = res.census
            assert len(scan.nodes) == len(census.nodes)
            assert _oracle_forest(scan, ids) == census.parent
            for node, name in zip(scan.nodes, census.nodes):
                assert node[0] == name[0]
                if node[0] == "C":
                    assert node == name

    def test_sparse7_corner_classes_hold_only_their_own_points(self):
        """On SPARSE7 the corner nodes, and the class of each, are the
        oracle's. TL(1) to TL(7) lie on one corner orbit of period 7, so
        they are blown up into strips and are no node's point
        (``classify_classes``). Float node tables, which snapped every
        edge point within 1e-7 of an edge end onto its corner, made each
        of them a node anyway, with 12 to 14 distinct interior points on
        each of TL(2) to TL(7) and one on TL(1)."""
        res = run_pipeline(IntMatrix.from_rows(SPARSE7))
        scan, ids = _scan_ids(res.schema, res.extended)
        forest, census = _oracle_forest(scan, ids), res.census
        corners = [name for name in census.nodes if name[0] == "C"]
        assert corners == [node for node in scan.nodes if node[0] == "C"]
        assert not {("C", r, "TL") for r in range(1, 8)} & set(corners)
        for corner in corners:
            i = census.nodes.index(corner)
            assert scan.nodes[i] == corner
            assert [root == census.parent[i] for root in census.parent] == [
                root == forest[i] for root in forest
            ]

    @pytest.mark.parametrize("case", ["running", "corpus", "n16", "sparse"])
    def test_side_order_keeps_each_table_and_class(self, case, running_result):
        """Side a of a generator touches only L or T edges, strips and
        corners, side b only R or B ones, so looking up side a's whole
        column before side b's, not each depth's pair in turn, feeds every
        edge and strip level the same positions in the same order. It
        makes the same nodes, and each node's class has the same root
        node: only the numbering differs."""
        for res in _oracle_results(case, running_result):
            by_side, side_ids = _scan_ids(res.schema, res.extended)
            by_pair, pair_ids = _scan_ids(res.schema, res.extended, by_side=False)
            assert by_side.lookups == by_pair.lookups
            assert sorted(by_side.nodes) == sorted(by_pair.nodes)
            roots = [
                {node: scan.nodes[root]
                 for node, root in zip(scan.nodes, _oracle_forest(scan, ids))}
                for scan, ids in ((by_side, side_ids), (by_pair, pair_ids))
            ]
            assert roots[0] == roots[1]


def _oracle_results(case, running_result):
    if case == "running":
        return [running_result]
    if case == "corpus":
        return [run_pipeline(M) for M in random_irreducible_matrices(200)]
    if case == "lifts":
        return [_lift_result(k) for k in range(2, 13)]
    if case == "n16":
        return [run_pipeline(seeded_irreducible_matrix(16))]
    if case == "sparse79":
        return [run_pipeline(IntMatrix.from_rows(rows))
                for rows in (SPARSE7, SPARSE9)]
    # the first 30 of sparse_irreducible_matrices(120), whose deep windows
    # hold points of one edge or strip level less than 1e-7 apart
    return [run_pipeline(M) for M in sparse_irreducible_matrices(30)]


class TestClassPartition:
    @pytest.mark.parametrize("case", ["running", "corpus", "lift"])
    def test_classes_partition_the_census_nodes(self, case, running_result):
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
            names = res.census.nodes
            assert len(set(names)) == len(names)
            assert set(seen) == set(names)
            # the oracle finds as many distinct points
            scan_nodes = _scan_ids(res.schema, res.extended)[0].nodes
            assert len(set(scan_nodes)) == len(scan_nodes) == len(names)

    def test_node_order_within_classes(self, running_result):
        for c in running_result.census.classes:
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
        section = _named_census(json.loads(outputs[0]), _lift_result(3).schema)
        assert hashlib.sha256(
            json.dumps(section, sort_keys=True,
                       separators=(",", ":")).encode("utf-8")
        ).hexdigest() == LIFT_CENSUS_SHA[3]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _entry_depths(pair_states) -> list[int]:
    """The depth of each side's first strip state in the whole window."""
    return [[pair[side][0] for pair in pair_states].index("S") + 1
            for side in (0, 1)]


def _list_copy_identifications(schema) -> dict:
    """The ``identifications`` section with each side's entry depth read
    off ``pair_states``, in generator order."""
    return {
        "entry_depths": [_entry_depths(g.pair_states) for g in schema.generators],
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
    scan, ids = _scan_ids(res.schema, res.extended)
    # the oracle's ids are classify's, with the same forest
    assert _oracle_forest(scan, ids) == census.parent
    edges_by_root = {}
    for a0, b0, a1, b1 in (i for gen_ids in ids for i in gen_ids):
        for na, nb in ((a0, b0), (a1, b1)):
            if na != nb:
                edges_by_root.setdefault(census.parent[na], set()).add(
                    (min(na, nb), max(na, nb))
                )
    ids = {node: i for i, node in enumerate(census.nodes)}
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


def _eager_classes(schema, ext, nodes):
    """The census as one eager pass builds it from the oracle's ids: every
    class grouped into member lists, pairing edges as one set, orbit steps
    as a list of id pairs, each id named by ``nodes``. Returns (finite
    counts, infinite classes, all classes)."""
    scan, ids = _scan_ids(schema, ext)
    assert len(scan.nodes) == len(nodes)
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
        class_nodes = tuple(sorted(nodes[i] for i in ids))
        return EquivalenceClass(class_nodes, _classify_link(ids, edges))

    # every infinite class by its least id
    groups = [[root] for root in growing] + list(families.values())
    groups.sort(key=lambda roots: min(i for r in roots for i in members[r]))
    infinite = [
        infinite_class(
            [i for r in roots for i in members[r]], edges_of(set(roots))
        )
        for roots in groups
    ]
    sizes = Counter(len(c) for c in finite)
    counts = (sizes[1], sizes[2])
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
            counts, infinite, classes = _eager_classes(res.schema, res.extended,
                                                       census.nodes)
            assert (census.finite_singletons, census.finite_pairs) == counts
            assert census.infinite_classes == infinite
            assert census.classes == classes
            assert "classes" in vars(census)
            assert census.classes is census.classes


def _first_sight(schema, ext) -> dict[int, tuple[int, int, int, int]]:
    """Each node id -> (g, side, depth, endpoint) of its first place in
    classify's order of lookups, read off the oracle: per generator g,
    side a's (0) first and second endpoints at depths 1, 2, ..., then side
    b's (1)."""
    _, ids = _scan_ids(schema, ext)
    first = {}
    for g, gen_ids in enumerate(ids):
        for side in (0, 1):
            for depth, four in enumerate(gen_ids, start=1):
                for endpoint in (0, 1):
                    first.setdefault(four[side + 2 * endpoint],
                                     (g, side, depth, endpoint))
    return first


class TestInfiniteSummaries:
    @pytest.mark.parametrize("case", ["running", "corpus", "lifts"])
    def test_summaries_match_the_classes(self, case, running_result):
        # the classes come in order of least id, and each representative
        # names the first place at which the scan meets that id; it holds
        # no coordinate
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
            first = _first_sight(res.schema, res.extended)
            index = {node: i for i, node in enumerate(census.nodes)}
            least = [min(index[node] for node in c.nodes)
                     for c in census.infinite_classes]
            assert least == sorted(least)
            for s, c, i in zip(summaries, census.infinite_classes, least):
                assert s.representative == first[i]
                assert (s.link_type, s.size) == (c.link_type, c.size)

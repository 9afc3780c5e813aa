"""Infinite-strip attachments, boundary identifications, ends, surfaces."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import endperiodic
from endperiodic import (
    IntMatrix,
    InvalidInputError,
    PreconditionError,
    block_lift,
    classify_classes,
    enumerate_identifications,
    escape_bound,
    run_pipeline,
)
from endperiodic.gluing import (
    EquivalenceClass,
    _classify_link,
    _find,
    _NodeRegistry,
    _node_str,
    _strip_keys,
    _union,
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


def _census_sha(census) -> str:
    text = json.dumps(census.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# SHA-256 of the canonical ``class_census`` section, pinned before the
# classify pass moved to dense integer node ids; the record must not change.
RUNNING_CENSUS_SHA = "5dd121e62f2e7981ae334c4b577be81854703967f5f17e8f7c33012b9d006da0"
CORPUS40_CENSUS_SHA = [
    "dae312dee22861d080318d8f5a74fd44c98a2becd034c5d044673968941f4787",
    "daa56ef6a471971640b454f7f956cd950a93dc668f7e37915f19caca031941e9",
    "281fc43bdea490ecc8cd295bb229f398ae1aeb8cb5c44c6bdcf442e031c48c02",
    "281fc43bdea490ecc8cd295bb229f398ae1aeb8cb5c44c6bdcf442e031c48c02",
    "0d67e0964cd3c5ebab76f4e0fb7eb1129e045780785176489a3afe3567e8e023",
    "908247c0ea18dd5bcba9f53c5cb3b0a6621c6ecb4cd8cd14ce42a1df57cd914a",
    "b66157814b4c0e6b244983be3ef2b387de0770d6272a39ce4cf3aeb039901ff5",
    "553cdfc07aee114562a00e3fc44437fac4bd367388eb66c1adab321df213edbd",
    "a26278f0479772918f3476dc4502b394f05e56ce994d5a0fc640be0710f6b205",
    "53d3ab9f94ffeb0660999358f4fba0c1bb6c0ef2d628e223b37a9ec135e92602",
    "dabaf9549ba0944a723c909688eddbc6500fc230cb572cc3ebd0d821eb959bd4",
    "f4a301a1c1b70952dc5de869fb08d964b60187238bddf344c33fdcacd3be928b",
    "9c2b167043d9e9063dadf7bbbaecce8bb30d2fd58a9200ee16a38a2c96282625",
    "2f266e6aecc4123ca1de394f0c08cf280c9c992aad028d83975e31bc21501329",
    "a16a966c6c52ddd5512edd5904f3ac83890e238a75ef8093f745a8e1e28e135b",
    "b6c65b1bd918ce52067f4ceb264f1dce08360800af6cdbb1704cbaa35060c174",
    "281fc43bdea490ecc8cd295bb229f398ae1aeb8cb5c44c6bdcf442e031c48c02",
    "d3663147534b8fb6afd52d0179a20404365cc1ed89b9a21009f3dcf02049cbf6",
    "e71d4d9243c49341a3944c6afe586dd2a6fdb4a7884e25986b01ccf4acfd96dc",
    "281fc43bdea490ecc8cd295bb229f398ae1aeb8cb5c44c6bdcf442e031c48c02",
    "c0d890bd0be0c29cea477f94f248634dfcbca1ab70069056909e34f97265078b",
    "ac52628239869a2fc34a996ceaa640acde68ee34d264496803bdfea63b672a49",
    "734dfc56e8bc325f62e58f8b020a8691adf9d04f13f0d112f1bba87dc73e8672",
    "976db0af122e36857b2d1027d81487c97d9269ec611f6a56d5ba5e08c5354c53",
    "6030d4e66bdcaa9e5fbc325f6cc831d91a583f880d8935ad1903702daa816328",
    "66db528108d8b2f15eaf728e8970eb692fe8ebc980ebe0322a2e2f2cdfef8f32",
    "804c049d86db058211613ad79633be5c4e21531678f3d5a56bda00e7641d5a34",
    "5393c691931fe6c7a103f5ec60606f82448999f7ba500f5d3026dbeaa3b7bed6",
    "6030d4e66bdcaa9e5fbc325f6cc831d91a583f880d8935ad1903702daa816328",
    "e8b098d53691b9d12755273d726e1d7a8f3aed756a9dbe4e11e7b9bc7a124d03",
    "a2ceba5af5cf536718ad1c81be5591002164af6829bb34c6298e59d4667cb86f",
    "cad342ed4b5453a6f9f5b20fd308887a5d5103d034948ad90425936fc76d4ddd",
    "bb314c39439cd431236a47d51d6ad2def00dc0867941ef94b10dc732af4a80bb",
    "88d09c01afd49539fd0df799f42a400c6b91274928ddcf76b5e5b44f07c08b3a",
    "d9062671440cac7bfded84c1383fed4de68109e67cdb865203268e754db855b9",
    "2ef8b5e53c2ff3fb33266841dada733355e3de74ccf78f0d60eaae978a3f0dba",
    "281fc43bdea490ecc8cd295bb229f398ae1aeb8cb5c44c6bdcf442e031c48c02",
    "4554938e85dce5cb63b74a0909892099cc7642d7a557c592b3d93ed04e74d2d7",
    "281fc43bdea490ecc8cd295bb229f398ae1aeb8cb5c44c6bdcf442e031c48c02",
    "281fc43bdea490ecc8cd295bb229f398ae1aeb8cb5c44c6bdcf442e031c48c02",
]
LIFT_CENSUS_SHA = {
    2: "521e2d4ca803e0cbedc5cbccf076050ede1f9bf9c5a60b8150dc33335609cfa3",
    3: "1acf1699305c5339202a148de43871fffef75d3ead98e98cc5126779aa045dda",
    4: "810585ca17f58d4988e12473a46219e5444b290f53da224fdbd8d9b8ad0dcda3",
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


def _registry_nodes(res) -> list:
    """Every distinct node of the schema's segment endpoints, by id."""
    registry = _NodeRegistry(res.decomposition, res.extended.strips)
    for gen in res.schema.generators:
        for pair in gen.pair_states:
            for state in pair:
                for endpoint in (0, 1):
                    registry.node_id(state, endpoint)
    return registry.nodes


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
            registry_nodes = _registry_nodes(res)
            assert len(set(registry_nodes)) == len(registry_nodes)
            assert sum(c.size for c in classes) == len(registry_nodes)
            assert set(seen) == set(registry_nodes)

    def test_node_order_within_classes(self, running_result):
        for c in running_result.census.classes:
            if c.infinite:
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


def _list_copy_identifications(schema) -> dict:
    """The ``identifications`` section with every pair copied into lists,
    as it was built before ``pair_states`` was emitted as it is."""
    return {
        "depth_cap": schema.depth_cap,
        "escape_depth": schema.escape_depth,
        "nesting_period": schema.nesting_period,
        "generators": [
            {
                "id": g.gen_id,
                "family": g.family,
                "rect": g.rect,
                "position": g.position,
                "kinds": list(g.kinds),
                "stabilization_depth": g.stabilization_depth,
                "periodic_tail": list(g.periodic_tail),
                "pairs": [[list(a), list(b)] for a, b in g.pair_states],
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


def _eager_classes(schema, ext):
    """The census as one eager pass builds it: every class grouped into
    member lists, pairing edges as one set, orbit steps as a list of id
    pairs. Returns (finite counts, infinite classes, all classes)."""
    registry = _NodeRegistry(ext.system.decomposition, ext.strips)
    nodes = registry.nodes
    parent, first_depth = [], []
    pair_edges, orbit_steps = set(), []
    for gen in schema.generators:
        older = previous = None
        for depth, (sa, sb) in enumerate(gen.pair_states, start=1):
            a0, b0 = registry.node_id(sa, 0), registry.node_id(sb, 0)
            a1, b1 = registry.node_id(sa, 1), registry.node_id(sb, 1)
            while len(parent) < len(nodes):
                parent.append(len(parent))
                first_depth.append(depth)
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
        return EquivalenceClass(
            class_nodes, True, _classify_link(ids, edges), _strip_keys(class_nodes)
        )

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
    classes = tuple(
        EquivalenceClass(c, False, None, _strip_keys(c)) for c in finite
    ) + tuple(infinite)
    return counts, tuple(infinite), classes


class TestLazyClasses:
    @pytest.mark.parametrize("case", ["running", "corpus", "lift"])
    def test_classes_equal_the_eager_census(self, case, running_result):
        if case == "running":
            results = [running_result]
        elif case == "corpus":
            results = [run_pipeline(M) for M in random_irreducible_matrices(10)]
        else:
            results = [_lift_result(3)]
        for res in results:
            census = classify_classes(res.schema, res.extended)
            assert "classes" not in vars(census)
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

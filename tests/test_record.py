"""Tests for construction record serialization, hashing, and re-verification."""

import json
import os
import subprocess
import sys
from contextlib import suppress
from datetime import datetime
from math import fsum
from pathlib import Path
from types import SimpleNamespace

import pytest

import endperiodic
from endperiodic import (
    ConstructionRecord,
    IntMatrix,
    InvalidInputError,
    VerificationError,
    block_lift,
    build_decomposition,
    build_record,
    char_poly,
    derive_window,
    facts,
    load_record,
    max_escape_depth,
    nesting_period,
    perron_eigendata,
    run_pipeline,
    verify_record,
    verify_stretch,
)
from endperiodic.edgemaps import _CORNER_AT_END, _CORNER_AT_START, KINDS
from endperiodic.window import _geometry, _orbits, _units
from endperiodic.record import SCHEMA_VERSION
from endperiodic import spectral
from endperiodic.spectral import (
    MatrixFacts,
    _analyse,
    _inverse_iteration_step,
    _max_residual,
)

from conftest import (
    RUNNING_ROWS,
    SPARSE7,
    SPARSE9,
    hash_digest,
    identity_permutations,
    random_irreducible_matrices,
    reference_pair_states,
    seeded_irreducible_matrix,
    sparse_irreducible_matrices,
    x_n_minus_x_minus_1,
)


# schema version "14": default window N + 3m with m the lcm of the
# periods, each fact written once, no field that the edge digraphs, the
# matrix, the config or the eigendata give (the strip boundaries, the
# periodic-point offsets and the eigendata residual among them), the
# stretch factor's bracket alone in ``incidence``, certified by the
# Collatz-Wielandt product with ``eigendata.eta``, each generator side as
# its strip-entry depth, in the generator order that M fixes and with no
# id, census classes named by their place of first sight as rows of ints
# (the generator by its index), the eigendata written by ``repr``, and no
# constant field. Every pin below is the schema "13" record's hash with
# each ``class_census.infinite_classes`` object written as its row
# ``[link, [g, side, depth, endpoint], size_at_cap]`` and the version set
# to "14".
RUNNING_HASH = "194e40c43c39e8291d0a5e87f1f069b07882680cc2ac57f2f4cac55971061cf7"


# Digests of whole input lists: the 200-matrix corpus; the lifts k = 4, 8,
# 10 of [[2]], each built with weak_perron_k = k; the large inputs: the
# sparse 7x7 and 9x9, seeded n = 12, 16 and 20, x^16 - x - 1 and the running
# example lifted k = 4 (built with weak_perron_k = 4); and the 120 inputs of
# ``sparse_irreducible_matrices(120)``. "large" and "sparse120" were
# re-pinned when classify came to name its nodes exactly: the float node
# tables had merged distinct points within 1e-7 on SPARSE7, SPARSE9, seeded
# n = 16 and 53 of the 120 sparse inputs, which changed their
# ``class_census``; the other two lists, whose census held no such merge,
# kept their digests. All four were re-pinned at schema "14" as above.
DIGESTS = {
    "corpus200": "e174147936bcda91d8ff111d6f2fbf896a6425e4b02e1d0a002a77dfd3bf78d6",
    "lifts": "f2706b390a19ee78a9b1ac831c406df32e6f916e7d082776a986cc47d7c625bb",
    "large": "3ecf5fb4b68821ddd6b19a5a66f7b272ec62d976247a9ecfe495f6433f8166e9",
    "sparse120": "c1eadfacdca1df7dbe50a025e3cae0663ffeb8d46d03cfa4163a5363f50c4e57",
}

#: prints the sparse120 digest; run with ``tests`` on the path
SPARSE120_DIGEST_CODE = (
    "from conftest import hash_digest, sparse_irreducible_matrices; "
    "from endperiodic import build_record; "
    "print(hash_digest([build_record(M)[0].content_hash() "
    "for M in sparse_irreducible_matrices(120)]))"
)


def _digest_inputs(case: str) -> list:
    if case == "corpus200":
        return [(M, None) for M in random_irreducible_matrices(200)]
    if case == "large":
        return (
            [(IntMatrix.from_rows(rows), None) for rows in (SPARSE7, SPARSE9)]
            + [(seeded_irreducible_matrix(n), None) for n in (12, 16, 20)]
            + [(x_n_minus_x_minus_1(16), None),
               (block_lift(IntMatrix.from_rows(RUNNING_ROWS), 4), 4)]
        )
    two = IntMatrix.from_rows([[2]])
    return [(block_lift(two, k), k) for k in (4, 8, 10)]


@pytest.fixture(scope="module")
def running_record(running_matrix):
    record, _ = build_record(running_matrix)
    return record


def _rehashed(data: dict) -> dict:
    """``data`` with its content hash recomputed, so only sections can fail."""
    data["content_hash"] = ConstructionRecord(
        data["schema_version"], data["config"], data["sections"]
    ).content_hash()
    return data


class TestDeterminism:
    def test_repeated_builds_hash_identically(self, running_matrix):
        first, _ = build_record(running_matrix)
        second, _ = build_record(running_matrix)
        assert first.content_hash() == second.content_hash()

    def test_hash_excludes_timestamp(self, running_record):
        data = json.loads(running_record.to_json())
        mutated = dict(data)
        mutated["created_at"] = "1970-01-01T00:00:00+00:00"
        reloaded = load_record(json.dumps(mutated))
        assert reloaded["content_hash"] == data["content_hash"]
        assert data["created_at"] != mutated["created_at"]

    @pytest.mark.parametrize(
        "microsecond, stamp",
        [(0, "2026-01-02T01:02:03.000000+00:00"),
         (5, "2026-01-02T01:02:03.000005+00:00")],
    )
    def test_created_at_always_has_microseconds(self, monkeypatch,
                                                microsecond, stamp):
        class Clock(datetime):
            @classmethod
            def now(cls, tz=None):
                return datetime(2026, 1, 2, 1, 2, 3, microsecond, tzinfo=tz)

        monkeypatch.setattr(endperiodic.record, "datetime", Clock)
        assert ConstructionRecord(SCHEMA_VERSION, {}, {}).created_at == stamp

    def test_json_is_sorted_and_stable(self, running_record):
        text = running_record.to_json()
        data = json.loads(text)
        assert list(data) == sorted(data)
        assert json.loads(running_record.to_json()) == data

    def test_json_is_canonical_compact(self, running_record):
        assert running_record.to_json() == json.dumps(
            running_record.to_json_dict(), sort_keys=True, separators=(",", ":")
        )

    def test_canonical_text_of_a_cycle_raises(self):
        """The shared encoder skips the circular check, so a
        self-referencing object raises ``RecursionError``, as the
        docstring of ``_canonical`` says, not ``ValueError``."""
        cycle = []
        cycle.append(cycle)
        with pytest.raises(RecursionError):
            endperiodic.record._canonical(cycle)

    def test_running_example_hash_is_pinned(self, running_record):
        assert running_record.content_hash() == RUNNING_HASH

    @pytest.mark.parametrize("case", sorted(DIGESTS.keys() - {"sparse120"}))
    def test_workload_digest_is_pinned(self, case):
        hashes = [build_record(M, weak_perron_k=k)[0].content_hash()
                  for M, k in _digest_inputs(case)]
        assert hash_digest(hashes) == DIGESTS[case]

    def test_sparse120_digest_is_pinned_under_hash_seeds(self):
        # one interpreter per PYTHONHASHSEED, 0 and 3, run side by side
        paths = [Path(endperiodic.__file__).resolve().parents[1],
                 Path(__file__).resolve().parent]
        procs = {
            seed: subprocess.Popen(
                [sys.executable, "-c", SPARSE120_DIGEST_CODE],
                env=dict(os.environ, PYTHONHASHSEED=seed,
                         PYTHONPATH=os.pathsep.join(map(str, paths))),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for seed in ("0", "3")
        }
        try:
            for seed, proc in procs.items():
                out, err = proc.communicate(timeout=300)
                assert proc.returncode == 0, err
                assert out.strip() == DIGESTS["sparse120"], f"PYTHONHASHSEED={seed}"
        finally:
            # communicate, not wait: it also closes both pipes of a child
            # that an assertion above left unread
            for proc in procs.values():
                proc.kill()
                proc.communicate()

    @pytest.mark.parametrize("seed", ["0", "3"])
    def test_hash_independent_of_hash_seed(self, seed):
        src = Path(endperiodic.__file__).resolve().parents[1]
        code = (
            "from endperiodic import IntMatrix, build_record; "
            f"print(build_record(IntMatrix({RUNNING_ROWS!r}))[0].content_hash())"
        )
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
        assert out.stdout.strip() == RUNNING_HASH


class TestVerifyRecord:
    def test_fresh_record_verifies(self, running_record):
        data = load_record(running_record.to_json())
        results = verify_record(data)
        assert results and all(check.passed for check in results)
        names = [check.name for check in results]
        assert "eigendata" in names
        assert "incidence" in names
        sizes = {check.name: check.stored_bytes for check in results}
        assert sizes.pop("content_hash") is None
        assert sizes == {
            name: len(json.dumps(section, sort_keys=True, separators=(",", ":")))
            for name, section in data["sections"].items()
        }

    def test_indented_record_verifies(self, running_record):
        text = json.dumps(running_record.to_json_dict(), indent=2, sort_keys=True)
        assert text != running_record.to_json()
        data = load_record(text)
        assert data["content_hash"] == RUNNING_HASH
        assert all(check.passed for check in verify_record(data))

    def test_mutated_section_fails_with_name(self, running_record):
        data = load_record(running_record.to_json())
        data["sections"]["eigendata"]["lambda"] = "2.0"
        with pytest.raises(VerificationError) as exc:
            verify_record(data)
        assert "eigendata" in str(exc.value)
        assert "at eigendata.lambda" in str(exc.value)

    def test_changed_entry_depth_fails_at_its_path(self, running_record):
        # one side's entry depth, one more: the depth is an int that the
        # edge digraph's rule fixes, so the recomputation differs there
        data = load_record(running_record.to_json())
        data["sections"]["identifications"]["entry_depths"][2][1] += 1
        with pytest.raises(VerificationError) as exc:
            verify_record(_rehashed(data))
        assert exc.value.actual == ["identifications"]
        path = "identifications.entry_depths[2][1]"
        assert f"at {path})" in str(exc.value)

    @staticmethod
    def _assert_representative_field_fails(record, field):
        data = load_record(record.to_json())
        data["sections"]["class_census"]["infinite_classes"][3][1][field] += 1
        with pytest.raises(VerificationError) as exc:
            verify_record(_rehashed(data))
        assert exc.value.actual == ["class_census"]
        path = f"class_census.infinite_classes[3][1][{field}]"
        assert f"at {path})" in str(exc.value)

    def test_changed_representative_fails_at_its_path(self, running_record):
        # a class named by another place of first sight: the depth of the
        # fourth class's representative, one more
        self._assert_representative_field_fails(running_record, 2)

    def test_changed_generator_index_fails_at_its_path(self, running_record):
        # the fourth class's representative on the next generator
        self._assert_representative_field_fails(running_record, 0)

    def test_swapped_tau_images_fail_at_their_path(self, running_record):
        # tau[k] lists the positions of its images in the canonical order
        data = load_record(running_record.to_json())
        tau = data["sections"]["decomposition"]["tau"]
        key = min(k for k in tau if len(tau[k]) >= 2)
        images = tau[key]
        assert sorted(images) == list(range(len(images)))
        images[0], images[1] = images[1], images[0]
        with pytest.raises(VerificationError) as exc:
            verify_record(_rehashed(data))
        assert exc.value.actual == ["decomposition"]
        assert f"at decomposition.tau.{key}[0])" in str(exc.value)

    def test_missing_section_fails(self, running_record):
        data = load_record(running_record.to_json())
        del data["sections"]["surface"]
        with pytest.raises(VerificationError) as exc:
            verify_record(_rehashed(data))
        assert exc.value.actual == ["surface"]

    def test_extra_section_fails(self, running_record):
        data = load_record(running_record.to_json())
        data["sections"]["extra"] = {}
        with pytest.raises(VerificationError) as exc:
            verify_record(_rehashed(data))
        assert exc.value.actual == ["extra"]

    def test_mutated_hash_fails(self, running_record):
        data = load_record(running_record.to_json())
        data["content_hash"] = "0" * 64
        with pytest.raises(VerificationError):
            verify_record(data)


class TestLoadRecord:
    def test_bool_matrix_is_refused_before_certifying(self):
        # a bool matrix once certified and wrote [[true, true], ...] into
        # config.matrix, a record that load_record then refused
        with pytest.raises(InvalidInputError, match="non-negative integers"):
            build_record(IntMatrix(((True, True), (True, False))))
        record, _ = build_record(IntMatrix(((1, 1), (1, 0))))
        verify_record(load_record(record.to_json()))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("weak_perron_k", 2.0),
            ("weak_perron_k", True),
        ],
    )
    def test_ill_typed_setting_is_refused_before_any_stage(
        self, running_matrix, monkeypatch, key, value
    ):
        # the float ones once died in a stage with a bare TypeError; the
        # rule that load_record applies refuses each before any stage runs
        stages = []
        original = endperiodic.record.perron_eigendata
        monkeypatch.setattr(
            endperiodic.record, "perron_eigendata",
            lambda *a, **kw: stages.append(a) or original(*a, **kw),
        )
        with pytest.raises(InvalidInputError, match=f"^{key} {value!r} is "):
            build_record(running_matrix, **{key: value})
        assert stages == []

    def test_version_gate(self, running_record):
        data = json.loads(running_record.to_json())
        data["schema_version"] = "0"
        with pytest.raises(InvalidInputError):
            load_record(json.dumps(data))

    def test_embedded_config_round_trips(self, running_record):
        data = load_record(running_record.to_json())
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["config"]["matrix"] == RUNNING_ROWS

    @pytest.mark.parametrize(
        "text, message",
        [
            (f'{{"schema_version":"{SCHEMA_VERSION}"}}', "config"),
            ("[1]", "not a JSON object"),
            ('{"config": ', "record is not valid JSON"),
        ],
    )
    def test_malformed_record_is_input_error(self, text, message):
        with pytest.raises(InvalidInputError, match=message):
            load_record(text)

    def test_config_key_missing_is_input_error(self, running_record):
        data = json.loads(running_record.to_json())
        del data["config"]["doubled"]
        with pytest.raises(InvalidInputError, match="config"):
            load_record(json.dumps(data))

    def test_sections_not_an_object_is_input_error(self, running_record):
        data = json.loads(running_record.to_json())
        data["sections"] = []
        with pytest.raises(InvalidInputError, match="sections"):
            load_record(json.dumps(data))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("matrix", "x"),
            ("matrix", []),
            ("matrix", [[1, 1], [1]]),
            ("matrix", [[1, -1], [1, 1]]),
            ("matrix", [[True, 1], [1, 1]]),
            ("matrix", [[1.0, 1], [1, 1]]),
            ("tol", "a"),
            ("tol", 0.0),
            ("tol", -1e-9),
            ("tol", float("inf")),
            ("tol", float("nan")),
            ("tol", True),
            ("tol", 1e-11),
            ("depth_cap", "q"),
            ("depth_cap", 2.5),
            ("depth_cap", False),
            ("depth_cap", 250),
            ("weak_perron_k", "2"),
            ("corner_selection", 1),
            ("corner_selection", False),
            ("insert_genus", None),
            ("insert_genus", 1),
            ("insert_genus", "yes"),
            ("insert_genus", True),
            ("doubled", "yes"),
            ("doubled", False),
        ],
    )
    def test_bad_config_value_is_input_error(self, running_record, key, value):
        data = json.loads(running_record.to_json())
        data["config"][key] = value
        with pytest.raises(InvalidInputError, match=f"config.{key}"):
            load_record(json.dumps(data))

    def test_good_config_values_load(self, running_record):
        # weak_perron_k is the one setting a record states: None or an int
        data = json.loads(running_record.to_json())
        data["config"].update(weak_perron_k=3)
        assert load_record(json.dumps(data))["config"]["weak_perron_k"] == 3


def _digraphs(sections: dict) -> dict:
    """``edge_digraphs`` as one dict rect -> successor per kind."""
    return {
        kind: dict(tuple(map(int, line.split())) for line in text.splitlines())
        for kind, text in sections["edge_digraphs"].items()
    }


def _orbit_rows(sections: dict) -> list[tuple]:
    """(period, orbit id, position) of each ``periodic_points`` row, from
    the cycle of ``edge_digraphs[map]`` through its rect: the cycle's
    length, "<map>:<its least rect>" and the row's steps from that rect.
    Position 0 marks the orbit's initial point."""
    orbits = {kind: _orbits(d) for kind, d in _digraphs(sections).items()}
    out = []
    for row in sections["periodic_points"]:
        kind, rect = row["map"], row["rect"]
        _, cycle = orbits[kind][rect]
        out.append((len(cycle), f"{kind}:{cycle[0]}", cycle.index(rect)))
    return out


def _tail_inputs(case: str) -> list:
    if case == "corpus":
        return [(M, None) for M in random_irreducible_matrices(200)]
    if case == "sparse120":
        return [(M, None) for M in sparse_irreducible_matrices(120)]
    if case == "lifts":
        two = IntMatrix.from_rows([[2]])
        return [(block_lift(two, k), k) for k in range(2, 65)]
    if case == "sparse7":
        return [(IntMatrix.from_rows(SPARSE7), None)]
    if case == "large":
        return [
            (IntMatrix.from_rows(SPARSE9), None),
            (seeded_irreducible_matrix(20), None),
            (x_n_minus_x_minus_1(16), None),
            (block_lift(IntMatrix.from_rows(RUNNING_ROWS), 4), 4),
        ]
    return [(seeded_irreducible_matrix(int(case[1:])), None)]


def _labels(rows: list, k: int, orientation: str) -> list[str]:
    """The strip labels of rect k in ascending order (``_units``)."""
    return [f"{orientation}({k};{i},{j})" for i, j in _units(rows, k, orientation)]


def _check_other_removed_facts(data: dict, result) -> None:
    """Rebuild from the record the facts that schemas "6" to "12" no
    longer write, other than the sides' states, and match them with the
    builder's to the bit."""
    sections = data["sections"]
    rows = data["config"]["matrix"]
    # the label orders, from config.matrix, and sigma and tau: each
    # position list on the order of its rect
    D = result.decomposition
    for name, orientation, orders, perm in (
        ("sigma", "H", D.horizontal_order, D.sigma),
        ("tau", "V", D.vertical_order, D.tau),
    ):
        labels = {rect: _labels(rows, rect, orientation) for rect in orders}
        assert labels == {
            rect: [str(s) for s in order] for rect, order in orders.items()
        }
        rebuilt = {
            int(key): {
                labels[int(key)][i]: labels[int(key)][image]
                for i, image in enumerate(positions)
            }
            for key, positions in sections["decomposition"][name].items()
        }
        assert rebuilt == {
            rect: {str(a): str(b) for a, b in images.items()}
            for rect, images in perm.items()
        }
    # the whole periodic_points section, from the matrix, sigma/tau and
    # the edge digraphs
    assert _rebuilt_periodic_points(rows, sections) == sections["periodic_points"]
    # each periodic point's period, orbit and position (position 0: the
    # initial point), from the edge digraphs
    points = [pt for kind in KINDS for pt in result.points[kind]]
    rows = _orbit_rows(sections)
    assert rows == [(pt.period, pt.orbit_id, pt.orbit_position) for pt in points]
    assert [position == 0 for _, _, position in rows] == [
        pt.is_initial for pt in points
    ]
    # the strip boundaries, from the exact eigendata, sigma/tau and the
    # matrix: the builder's offsets to the bit
    g = _geometry(data["config"]["matrix"], sections)
    assert {k: g.vb(k) for k in D.vertical_offsets} == {
        k: list(v) for k, v in D.vertical_offsets.items()
    }
    assert {k: g.hb(k) for k in D.horizontal_offsets} == {
        k: list(v) for k, v in D.horizontal_offsets.items()
    }
    # the incidence's target lambda and the surface's stretch factor: the
    # eigendata's lambda, written exactly
    assert float(sections["eigendata"]["lambda"]) == result.surface.stretch_factor
    # each periodic point's offset: 0.0 or the edge length at a corner,
    # else the fixed point b / (1 - lambda^-p) of the p-fold composition
    # x -> offset0 + x / lambda around its cycle, offset0 the start of the
    # strip that each branch maps onto
    assert [
        _stored_offset(g, row, period)
        for row, (period, _, _) in zip(sections["periodic_points"], rows)
    ] == [pt.offset for pt in points]
    # the eigendata residual: max |(A v)_i - lambda v_i| over M with eta
    # and over M^T with omega, each row summed exactly over its arcs
    matrix = data["config"]["matrix"]
    assert max(_stored_residual(matrix, g.lam, g.eta),
               _stored_residual(list(zip(*matrix)), g.lam, g.omega)
               ) == result.eigen.residual


def _rebuilt_periodic_points(matrix: list, sections: dict) -> list[dict]:
    """The ``periodic_points`` rows from ``config.matrix`` and the other
    sections: each edge digraph's cycle vertices, in ``KINDS`` order, each
    cycle from its least rect and the cycles sorted. ``corner`` is the
    start (end) corner of the edge exactly when every branch around the
    cycle maps onto the first (last) strip of its target, as
    ``_geometry``'s ``edges`` give them; a target rect i holds row sum i
    horizontal strips (L, R) and column sum i vertical ones (T, B)."""
    g = _geometry(matrix, sections)
    digraphs = _digraphs(sections)
    out = []
    for kind in KINDS:
        orbits = _orbits(digraphs[kind]).values()
        for cycle in sorted({tuple(c) for steps, c in orbits if steps == 0}):
            targets = [g.edges[kind][v] for v in cycle]
            strips = [
                sum(matrix[i - 1]) if kind in ("L", "R")
                else sum(row[i - 1] for row in matrix)
                for i, _ in targets
            ]
            if all(q == 0 for _, q in targets):
                corner = _CORNER_AT_START[kind]
            elif all(q == n - 1 for (_, q), n in zip(targets, strips)):
                corner = _CORNER_AT_END[kind]
            else:
                corner = None
            out += [{"map": kind, "rect": v, "corner": corner} for v in cycle]
    return out


def _stored_offset(g, row: dict, p: int) -> float:
    """The offset of a ``periodic_points`` row whose cycle has period p,
    from the geometry ``g`` that ``_geometry`` reads off the record."""
    kind, rect, corner = row["map"], row["rect"], row["corner"]
    vertical = kind in ("L", "R")
    if corner is not None:
        edge = (g.eta if vertical else g.omega)[rect - 1]
        return 0.0 if corner == _CORNER_AT_START[kind] else edge
    bounds = g.hb if vertical else g.vb
    b, v = 0.0, rect
    for _ in range(p):
        v, q = g.edges[kind][v]
        b = bounds(v)[q] + b / g.lam
    return b / (1.0 - g.lam ** (-p))


def _stored_residual(rows: list, lam: float, v: list) -> float:
    """max_i |(A v)_i - lambda v_i| for the matrix A with ``rows``, each
    entry summed exactly by ``fsum`` over the arcs of row i."""
    return max(
        abs(fsum([a * v[j] for j, a in enumerate(row) if a] + [-lam * v[i]]))
        for i, row in enumerate(rows)
    )


def _check_window(data: dict, result) -> None:
    """Derive the window from the record ``data`` alone and match it with
    the builder's run ``result``: N, m and ``depth_cap``, each
    generator's pairs ``==`` to the bit with ``reference_pair_states``
    (the builder's own arithmetic), its tail orbits and its
    stabilization depth."""
    N, m, cap, windows = derive_window(data)
    assert (N, m, cap) == (
        max_escape_depth(result.system),
        nesting_period(result.system),
        result.schema.depth_cap,
    )
    generators = result.schema.generators
    assert list(data["sections"]["identifications"]) == ["entry_depths"]
    assert [pairs for pairs, _, _ in windows] == [
        reference_pair_states(g, cap) for g in generators
    ]
    assert [tails for _, tails, _ in windows] == [g.tail_orbits for g in generators]
    assert [s for _, _, s in windows] == [
        g.stabilization_depth for g in generators
    ]


class TestTailFromRecord:
    @pytest.mark.parametrize(
        "case", ["corpus", "sparse120", "lifts", "sparse7", "n12", "n16", "large"]
    )
    def test_stored_prefix_and_rule_give_the_whole_window(self, case):
        # Every fact that schemas "6" to "12" no longer write, rebuilt from
        # the record alone: each side's segments by ``derive_window``, from
        # the exact eigendata, sigma/tau and the matrix to its stored entry
        # depth (checked against the digraph rule), its kind from its
        # family and side, its rects from the edge digraph, height 0 at
        # strip entry (the derived window is the builder's to the bit), the
        # tail orbits, the stabilization depths, the escape depth, nesting
        # period and depth cap, and the facts of
        # ``_check_other_removed_facts``.
        for M, k in _tail_inputs(case):
            record, result = build_record(M, weak_perron_k=k)
            data = load_record(record.to_json())
            _check_window(data, result)
            _check_other_removed_facts(data, result)

    def test_edited_entry_depth_is_named(self, running_record):
        # the stored entry depth is checked against the digraph rule by a
        # typed error that names its path, not by an assert
        data = json.loads(running_record.to_json())
        data["sections"]["identifications"]["entry_depths"][2][1] += 1
        with pytest.raises(VerificationError) as info:
            derive_window(load_record(json.dumps(data)))
        assert str(info.value).startswith(
            "identifications.entry_depths[2][1] is "
        )
        assert info.value.actual == info.value.expected + 1

    def test_edited_edge_digraph_is_named(self, running_record):
        data = json.loads(running_record.to_json())
        digraph = _digraphs(data["sections"])["L"]
        digraph[1] = digraph[1] % len(digraph) + 1
        data["sections"]["edge_digraphs"]["L"] = "".join(
            f"{rect} {target}\n" for rect, target in digraph.items()
        )
        with pytest.raises(VerificationError, match="edge_digraphs.L "):
            derive_window(load_record(json.dumps(data)))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda s: s["eigendata"].pop("eta"), "eigendata.eta is missing"),
            (lambda s: s.pop("edge_digraphs"), "edge_digraphs is missing"),
            (lambda s: s["decomposition"]["tau"].pop("1"),
             "decomposition.tau.1 is missing"),
            (lambda s: s["eigendata"].update(eta=["x"]),
             "eigendata.eta[0] 'x' is not a number"),
            (lambda s: s["identifications"]["entry_depths"].__setitem__(0, [3]),
             "identifications.entry_depths[0] [3] is not two ints"),
            (lambda s: s["identifications"]["entry_depths"].__setitem__(
                1, [3, 3, 99]),
             "identifications.entry_depths[1] [3, 3, 99] is not two ints"),
            (lambda s: s["identifications"]["entry_depths"].pop(),
             "identifications.entry_depths holds 1 pairs, not 2"),
            (lambda s: s["identifications"]["entry_depths"].append([3, 3]),
             "identifications.entry_depths holds 3 pairs, not 2"),
            (lambda s: s["identifications"].update(entry_depths={"0": [3, 3]}),
             "identifications.entry_depths is not a list"),
        ],
        ids=["no-eta", "no-digraphs", "no-tau", "eta-text", "one-depth",
             "three-depths", "one-pair-short", "one-pair-long", "non-list"],
    )
    def test_malformed_section_is_named(self, edit, message):
        # each edit of a [[2]] record (two generators, X:1:1 and Y:1:1)
        # once raised a bare KeyError or ValueError, or was taken as a
        # one-sided pair, an unstabilized generator or a record of fewer
        # generators; the derivation refuses it by a typed error that
        # names the JSON path it read
        record, _ = build_record(IntMatrix.from_rows([[2]]))
        data = load_record(record.to_json())
        derive_window(data)
        edit(data["sections"])
        with pytest.raises(VerificationError) as info:
            derive_window(data)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize(
        "key, index, value",
        [("lambda", None, "inf"), ("lambda", None, "0"), ("lambda", None, True),
         ("lambda", None, "nan"), ("lambda", None, "-1.5"), ("eta", 0, True),
         ("omega", 0, "nan")],
        ids=["lambda-inf", "lambda-0", "lambda-true", "lambda-nan",
             "lambda-negative", "eta-true", "omega-nan"],
    )
    def test_eigendata_number_out_of_range_is_named(
        self, running_record, key, index, value
    ):
        # lambda "inf" or "0" once raised a bare ZeroDivisionError, and the
        # other edits were read as NaN, negative or 1.0 and gave wrong
        # segment floats; the derivation takes only a finite positive
        # number that is not a bool, and names the path of any other
        data = load_record(running_record.to_json())
        derive_window(data)
        eigendata = data["sections"]["eigendata"]
        path = f"eigendata.{key}"
        if index is None:
            eigendata[key] = value
        else:
            eigendata[key][index] = value
            path = f"{path}[{index}]"
        with pytest.raises(VerificationError) as info:
            derive_window(data)
        assert str(info.value) == f"{path} {value!r} is not a number in (0, inf)"

    @pytest.mark.parametrize(
        "key, value, message",
        [("lambda", "1e308", "eigendata give the strip "),
         ("eta", "1e300", "eigendata give the strip "),
         ("lambda", "1", "eigendata.lambda '1' is not above 1"),
         ("lambda", "0.5", "eigendata.lambda '0.5' is not above 1")],
        ids=["lambda-huge", "eta-huge", "lambda-1", "lambda-half"],
    )
    def test_eigendata_out_of_the_builders_range_is_named(
        self, running_record, key, value, message
    ):
        # lambda 1e308 or eta[0] 1e300 once raised a bare ZeroDivisionError
        # on a strip of float length 0, and lambda 1 or 0.5, which the
        # builder never writes (lambda > 1), was accepted
        data = load_record(running_record.to_json())
        eigendata = data["sections"]["eigendata"]
        if key == "lambda":
            eigendata[key] = value
        else:
            eigendata[key][0] = value
        with pytest.raises(VerificationError) as info:
            derive_window(data)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("case", ["corpus", "lifts", "sparse7", "n12", "n16"])
    def test_window_holds_two_periods_past_the_last_stabilization(self, case):
        # Past each stabilization depth the stored prefix and the rule give
        # the pairs; the default window N + 3m keeps at least two whole
        # periods of them (exactly two on corpus:1), though the
        # stabilization depth itself may exceed the escape depth N.
        for M, k in _tail_inputs(case):
            schema = run_pipeline(M, weak_perron_k=k).schema
            depths = [g.stabilization_depth for g in schema.generators]
            assert max(depths) <= schema.depth_cap - 2 * schema.nesting_period


def _non_integers(obj, path: str) -> list[str]:
    """The JSON paths in ``obj`` that hold a float, or text with a decimal
    point (a key or a string value)."""
    if isinstance(obj, float):
        return [path]
    if isinstance(obj, str):
        return [path] if "." in obj else []
    if isinstance(obj, dict):
        return [f"{path}.{key}" for key in obj if "." in key] + [
            p for key, value in obj.items()
            for p in _non_integers(value, f"{path}.{key}")
        ]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _non_integers(v, f"{path}[{i}]")]
    return []


class TestIntegerSections:
    @pytest.mark.parametrize("case", ["running", "corpus200", "lifts"])
    def test_identifications_and_census_hold_no_float(self, case):
        # The two sections state the construction's choices: entry depths,
        # and names of places of first sight; every float they once held
        # follows from the eigendata, the decomposition and the digraphs.
        if case == "running":
            inputs = [(IntMatrix.from_rows(RUNNING_ROWS), None)]
        elif case == "corpus200":
            inputs = [(M, None) for M in random_irreducible_matrices(200)]
        else:
            two = IntMatrix.from_rows([[2]])
            inputs = [(block_lift(two, k), k) for k in range(2, 9)]
        for M, k in inputs:
            record, _ = build_record(M, weak_perron_k=k)
            data = load_record(record.to_json())
            sections = data["sections"]
            for name in ("identifications", "class_census"):
                assert _non_integers(sections[name], name) == []
            # no generator id either: one pair of ints per generator, and
            # each class a row [link, [g, side, depth, endpoint], size]
            # with g an index into those pairs
            depths = sections["identifications"]["entry_depths"]
            assert list(sections["identifications"]) == ["entry_depths"]
            assert all(type(t) is int for pair in depths for t in pair)
            _, _, cap, _ = derive_window(data)
            rows = sections["class_census"]["infinite_classes"]
            assert rows
            for row in rows:
                assert [type(v) for v in row] == [str, list, int]
                assert [type(v) for v in row[1]] == [int] * 4
                g, side, depth, endpoint = row[1]
                assert 0 <= g < len(depths)
                assert side in (0, 1) and endpoint in (0, 1)
                assert 1 <= depth <= cap

    @pytest.mark.parametrize("case", ["corpus", "sparse120", "lifts"])
    def test_floats_stand_only_at_the_eigendata_bracket_and_tol(self, case):
        # The record states the construction's integers, not the floats
        # they determine: lambda, eta and omega, written by ``repr``; the
        # certified bracket around lambda; and the fixed config.tol. Every
        # other float (strip boundaries, periodic-point offsets, the
        # residual, segment coordinates) follows from these.
        for M, k in _tail_inputs(case):
            record, _ = build_record(M, weak_perron_k=k)
            data = json.loads(record.to_json())
            hashed = {"config": data["config"], **data["sections"]}
            assert _float_paths(hashed) == (
                {"config.tol", "incidence.bracket[]"},
                {"eigendata.lambda", "eigendata.eta[]", "eigendata.omega[]"},
            )


def _float_paths(obj, path: str = "") -> tuple[set, set]:
    """The JSON paths below ``obj`` of float values and of strings that
    ``float`` reads, each list index written as ``[]``."""
    if isinstance(obj, float):
        return {path}, set()
    if isinstance(obj, str):
        with suppress(ValueError):
            float(obj)
            return set(), {path}
        return set(), set()
    if isinstance(obj, dict):
        items = [(f"{path}.{key}" if path else key, v) for key, v in obj.items()]
    elif isinstance(obj, list):
        items = [(f"{path}[]", v) for v in obj]
    else:
        return set(), set()
    floats, texts = set(), set()
    for sub, value in items:
        more_floats, more_texts = _float_paths(value, sub)
        floats |= more_floats
        texts |= more_texts
    return floats, texts


class TestOncePerRun:
    @pytest.mark.parametrize(
        "rows, k",
        [(RUNNING_ROWS, None), ([[2]], 4), (None, None)],
        ids=["running", "lift4", "corpus137"],
    )
    def test_each_fact_of_the_matrix_is_computed_once(
        self, rows, k, monkeypatch
    ):
        """Tooling guard: one build_record (run_pipeline and the record
        sections) analyses M's digraph once, builds one canonical label
        table per rectangle and orientation and one piece map, whose
        indexes every reader shares, and leaves nothing cached on M. The strip boundaries
        have one float each, whose reads ``TestArcReads`` counts."""
        if rows is None:
            M = random_irreducible_matrices(200)[137]
        else:
            M = IntMatrix.from_rows(rows)
        if k is not None:
            M = block_lift(M, k)
        spectral, decomposition = endperiodic.spectral, endperiodic.decomposition

        analysed = []
        analyse = spectral._analyse
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "endperiodic" and (
                getattr(module, "_analyse", None) is analyse
            ):
                monkeypatch.setattr(
                    module, "_analyse",
                    lambda A: analysed.append(A) or analyse(A),
                )
        tables = []
        canonical_labels = spectral._canonical_labels
        monkeypatch.setattr(
            spectral, "_canonical_labels",
            lambda A, graph, rect, o: tables.append((rect, o))
            or canonical_labels(A, graph, rect, o),
        )
        piece_maps = []
        build_piece_map = decomposition.piece_map
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "endperiodic" and (
                getattr(module, "piece_map", None) is build_piece_map
            ):
                monkeypatch.setattr(
                    module, "piece_map",
                    lambda D: piece_maps.append(build_piece_map(D))
                    or piece_maps[-1],
                )

        _, result = build_record(M, weak_perron_k=k)

        # M itself once; a lift's primitive base is checked on its own
        assert [A for A in analysed if A is M] == [M]
        assert len(analysed) == (1 if k is None else 2)
        n = M.n
        assert sorted(tables) == sorted(
            (rect, o) for rect in range(1, n + 1) for o in ("V", "H")
        )
        # read by build_edge_maps and enumerate_identifications
        assert len(piece_maps) == 1
        assert piece_maps[0] is result.system.piece_map
        assert vars(M) == {"entries": M.entries}


def _counting_rows(rows, reads: list[int]) -> tuple:
    """``rows`` as tuples that add one to ``reads[0]`` for each entry read
    from them, by index or by iteration."""

    class Row(tuple):
        def __getitem__(self, j):
            reads[0] += 1
            return tuple.__getitem__(self, j)

        def __iter__(self):
            return (self[j] for j in range(len(self)))

    return tuple(Row(row) for row in rows)


class TestArcReads:
    def test_label_tables_and_residual_read_the_arcs_only(self):
        """Tooling guard: the label tables and the residual check read M at
        its arcs only, the nonzero entries that ``_analyse`` lists. The lift
        k of [[2]] has n = k and k arcs, so from k = 64 to 128 their reads
        double, where a scan of whole rows and columns would quadruple."""
        counts = []
        for k in (64, 128):
            M = block_lift(IntMatrix.from_rows([[2]]), k)
            graph = _analyse(M)
            eigen = perron_eigendata(M)
            reads = [0]
            rows = _counting_rows(M.entries, reads)
            columns = _counting_rows(zip(*M.entries), reads)
            counting = MatrixFacts(SimpleNamespace(entries=rows, n=M.n))
            assert counting.graph == graph
            reads[0] = 0
            counting.labels
            _max_residual(rows, graph.predecessors, eigen.lam, eigen.eta)
            _max_residual(columns, graph.successors, eigen.lam, eigen.omega)
            counts.append(reads[0])
        # each arc is read once per label table and once per residual
        assert counts == [4 * 64, 4 * 128]
        assert counts[1] == 2 * counts[0]

    def test_inverse_iteration_reads_the_rows_with_an_entry_only(
        self, monkeypatch
    ):
        """Tooling guard: step c of the inverse-iteration solve reads the
        pivot column, one ``abs`` each, only in the row at position c and
        the rows below it that hold an entry there, fill-in included, and
        it reads M at its arcs only. On the lift k of [[2]] that is the
        row at c and at most one row below, so from k = 64 to 128 the rows
        read double, where a scan of every row below the pivot, as the
        dense solve made (n(n + 1)/2 a solve), would quadruple them."""
        lifts = [block_lift(IntMatrix.from_rows([[2]]), k) for k in (64, 128)]
        eigens = [perron_eigendata(M) for M in lifts]
        touched = [0]

        def counting_abs(v):
            touched[0] += 1
            return abs(v)

        monkeypatch.setattr(spectral, "abs", counting_abs, raising=False)
        counts = []
        for M, eigen in zip(lifts, eigens):
            graph = _analyse(M)
            reads = [0]
            rows = _counting_rows(M.entries, reads)
            columns = _counting_rows(zip(*M.entries), reads)
            tiny = sys.float_info.epsilon * 2  # the largest row sum is 2
            touched[0] = 0
            x = _inverse_iteration_step(
                rows, graph.predecessors, graph.successors, eigen.lam, tiny
            )
            y = _inverse_iteration_step(
                columns, graph.successors, graph.predecessors, eigen.lam, tiny
            )
            assert [v / x[-1] for v in x] == list(eigen.eta)
            assert [v / y[-1] for v in y] == list(eigen.omega)
            assert reads[0] == 2 * M.n  # each arc once a solve
            counts.append(touched[0])
        # k rows at their own position and k - 1 below them, a solve
        assert counts == [2 * (2 * 64 - 1), 2 * (2 * 128 - 1)]
        assert counts[1] < 3 * counts[0]

    def test_char_poly_reads_the_arcs_only(self):
        """Tooling guard: the cyclic block product of ``char_poly`` reads
        each arc of M once, as the coefficient of a row combination. The
        long-tail matrix of n = 200 (the n-cycle and one arc back, period
        2) has 201 arcs and two classes of n_1 = 100, where a sum over all
        n_1 vertices of the class before, for each of n_1 columns, reads
        2,000,000 entries."""
        n = 200
        rows = [[0] * n for _ in range(n)]
        for j in range(n):
            rows[(j + 1) % n][j] = 1
        rows[n - 2][n - 1] = 1
        M = IntMatrix.from_rows(rows)
        reads = [0]
        counting = MatrixFacts(
            SimpleNamespace(entries=_counting_rows(M.entries, reads), n=n)
        )
        graph = counting.graph
        assert len(graph.classes) == 2
        reads[0] = 0
        poly = char_poly(counting)
        arcs = sum(map(len, graph.predecessors))
        assert reads[0] == arcs == n + 1
        assert poly == char_poly(M)

    def test_stretch_certificate_reads_the_arcs_only(self):
        """Tooling guard: the Collatz-Wielandt product of ``verify_stretch``
        reads M at its arcs only, once each. The lift k of [[2]] has n = k
        and k arcs, so from k = 64 to 128 its reads double, where a product
        over whole rows would quadruple them."""
        counts = []
        for k in (64, 128):
            M = block_lift(IntMatrix.from_rows([[2]]), k)
            eigen = perron_eigendata(M)
            reads = [0]
            counting = MatrixFacts(
                SimpleNamespace(entries=_counting_rows(M.entries, reads), n=M.n)
            )
            assert counting.graph == _analyse(M)
            reads[0] = 0
            verify_stretch(
                counting, SimpleNamespace(stretch_factor=eigen.lam, eta=eigen.eta)
            )
            counts.append(reads[0])
        assert counts == [64, 128]

    def test_boundary_offsets_read_one_term_per_distinct_source(self):
        """Tooling guard: each strip boundary offset reads eta or omega
        once per distinct source among the strips before it, not all n
        entries. The lift k of [[2]] has n = k and one source per strip
        boundary, so from k = 64 to 128 the reads double, where dense
        boundaries of n terms each would quadruple them."""
        counts = []
        for k in (64, 128):
            M = block_lift(IntMatrix.from_rows([[2]]), k)
            F = facts(M)
            eigen = perron_eigendata(F)
            reads = [0]
            eta, omega = _counting_rows((eigen.eta, eigen.omega), reads)
            counting = eigen._replace(eta=eta, omega=omega)
            sigma, tau = identity_permutations(M)
            D = build_decomposition(F, counting, sigma, tau)
            counts.append(reads[0])
            plain = build_decomposition(F, eigen, sigma, tau)
            assert D.vertical_offsets == plain.vertical_offsets
            assert D.horizontal_offsets == plain.horizontal_offsets
        # per rectangle and orientation one term per strip, nothing for
        # the first boundary: one strip each way, but two vertical ones in
        # rectangle k and two horizontal ones in rectangle 1 (M[0][k-1] = 2)
        assert counts == [2 * 64 + 2, 2 * 128 + 2]
        assert counts[1] < 3 * counts[0]


class TestEarlyWindowRefusal:
    def test_default_window_is_refused_before_any_stage(
        self, running_matrix, monkeypatch
    ):
        # The running example has 6 generators and the default window is at
        # least 5: with the limit at 29 pair states M alone is refused, and
        # no stage runs; at 30 the stages run and the real window N + 3m is
        # refused by enumerate_identifications.
        stages = []
        for module, name in (
            (endperiodic.spectral, "_analyse"),
            (endperiodic.record, "corner_selection"),
        ):
            original = getattr(module, name)
            monkeypatch.setattr(
                module, name,
                lambda *a, name=name, original=original, **kw:
                stages.append(name) or original(*a, **kw),
            )
        monkeypatch.setattr(endperiodic.gluing, "MAX_PAIR_STATES", 29)
        with pytest.raises(InvalidInputError) as exc:
            run_pipeline(running_matrix)
        assert str(exc.value) == (
            "depth_cap at least 5 with 6 generators is at least 30 pair "
            "states, above the limit 29"
        )
        assert stages == []
        monkeypatch.setattr(endperiodic.gluing, "MAX_PAIR_STATES", 30)
        with pytest.raises(InvalidInputError, match=r"^depth_cap \d+ with 6 "):
            run_pipeline(running_matrix)
        assert stages == ["_analyse", "corner_selection"]

    def test_large_entry_is_refused_at_once(self):
        # [[100000]] has 199,998 generators: M alone refuses it, before
        # any of them is built
        with pytest.raises(InvalidInputError) as exc:
            build_record(IntMatrix.from_rows([[100000]]))
        assert str(exc.value) == (
            "depth_cap at least 5 with 199998 generators is at least 999990 "
            "pair states, above the limit 500000"
        )

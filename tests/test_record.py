"""Tests for construction record serialization, hashing, and re-verification."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import endperiodic
from endperiodic import (
    ConstructionRecord,
    IntMatrix,
    InvalidInputError,
    VerificationError,
    block_lift,
    build_record,
    load_record,
    run_pipeline,
    verify_record,
)
from endperiodic.record import SCHEMA_VERSION

from conftest import (
    RUNNING_ROWS,
    SPARSE7,
    SPARSE9,
    hash_digest,
    random_irreducible_matrices,
    seeded_irreducible_matrix,
    x_n_minus_x_minus_1,
)


# schema version "5": default window N + 3m with m the lcm of the periods,
# each side of a generator stored up to its own strip-entry depth
RUNNING_HASH = "58455c1a5b2725562a3c5237fdd0cfb231a6b9ded400ab3b99716e5c9190f5a2"


# Digests of whole input lists: the 200-matrix corpus; the lifts k = 4, 8,
# 10 of [[2]], each built with weak_perron_k = k; the large inputs: the
# sparse 7x7 and 9x9, seeded n = 12, 16 and 20, x^16 - x - 1 and the running
# example lifted k = 4 (built with weak_perron_k = 4); and the 120 inputs of
# ``sparse_irreducible_matrices(120)``.
DIGESTS = {
    "corpus200": "0dd12f1aef29e08047c975a3888f1c0bb4094a4793672ba5e0f76fa95f48dcb6",
    "lifts": "c4928b940485867f47f438d0715bf36b5f7380261bad18866902ea93e30349c9",
    "large": "b0c0348683a96c35b8ff0438cbe1c2dbdbef9da50136fefbbee767dae7ef1ea7",
    "sparse120": "e0a4df6df75c225ff24350d9dc73728f8923b9c149191b0e6454648e7a38bb76",
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

    def test_json_is_sorted_and_stable(self, running_record):
        text = running_record.to_json()
        data = json.loads(text)
        assert list(data) == sorted(data)
        assert json.loads(running_record.to_json()) == data

    def test_json_is_canonical_compact(self, running_record):
        assert running_record.to_json() == json.dumps(
            running_record.to_json_dict(), sort_keys=True, separators=(",", ":")
        )

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
            for proc in procs.values():
                proc.kill()
                proc.wait()

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
        assert results and all(ok for _, ok, _ in results)
        names = [name for name, _, _ in results]
        assert "eigendata" in names
        assert "incidence" in names

    def test_indented_record_verifies(self, running_record):
        text = json.dumps(running_record.to_json_dict(), indent=2, sort_keys=True)
        assert text != running_record.to_json()
        data = load_record(text)
        assert data["content_hash"] == RUNNING_HASH
        assert all(ok for _, ok, _ in verify_record(data))

    def test_mutated_section_fails_with_name(self, running_record):
        data = load_record(running_record.to_json())
        data["sections"]["eigendata"]["lambda"] = "2.0"
        with pytest.raises(VerificationError) as exc:
            verify_record(data)
        assert "eigendata" in str(exc.value)
        assert "at eigendata.lambda" in str(exc.value)

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
            ("weak_perron_k", "2"),
            ("corner_selection", 1),
            ("corner_selection", False),
            ("insert_genus", None),
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
        data = json.loads(running_record.to_json())
        data["config"].update(depth_cap=250, weak_perron_k=None)
        assert load_record(json.dumps(data))["config"]["depth_cap"] == 250


def _state(stored: list) -> tuple:
    """A stored state as the tuple ``pair_states`` holds: the key of a
    strip state is a (kind, rect) tuple."""
    return tuple(tuple(x) if isinstance(x, list) else x for x in stored)


def _tail_pairs(sections: dict) -> list[tuple]:
    """Every generator's pairs at depths 1..depth_cap, read from the
    ``identifications``, ``edge_digraphs`` and ``periodic_points``
    sections alone: each side's stored prefix, then the tail rule. A strip
    state with key [kind, r] steps to ``digraph[kind][r]``, one unit
    higher when the periodic point of map ``kind`` on the new rect (on r
    for T and B) is initial."""
    digraph = {
        kind: dict(tuple(map(int, line.split())) for line in text.splitlines())
        for kind, text in sections["edge_digraphs"].items()
    }
    initial = {
        (row["map"], row["rect"]): row["initial"]
        for row in sections["periodic_points"]
    }

    def step(state):
        tag, (kind, rect), za, zb, w = state
        assert tag == "S"
        target = digraph[kind][rect]
        shift = initial[(kind, target if kind in ("L", "R") else rect)]
        return ("S", (kind, target), za, zb, w + int(shift))

    identifications = sections["identifications"]
    cap = identifications["depth_cap"]
    out = []
    for gen in identifications["generators"]:
        sides = []
        for stored in gen["sides"]:
            states = [_state(s) for s in stored]
            while len(states) < cap:
                states.append(step(states[-1]))
            sides.append(states)
        out.append(tuple(zip(*sides)))
    return out


def _check_stored_sides(sections: dict) -> int:
    """Assert that each stored side ends at its first strip state, or
    holds ``depth_cap`` edge states when it does not enter its strip in
    the window, and that ``stabilization_depth`` is the later entry;
    return the number of sides of the second kind."""
    cap = sections["identifications"]["depth_cap"]
    unstabilized = 0
    for gen in sections["identifications"]["generators"]:
        tags = [[state[0] for state in side] for side in gen["sides"]]
        for side in tags:
            if side[-1] == "S":
                assert side == ["E"] * (len(side) - 1) + ["S"]
            else:
                assert side == ["E"] * cap
                unstabilized += 1
        if all(side[-1] == "S" for side in tags):
            depth = max(len(side) for side in tags)
            assert gen["stabilization_depth"] == depth
        else:
            assert gen["stabilization_depth"] is None
    return unstabilized


def _tail_inputs(case: str) -> list:
    if case == "corpus":
        return [(M, None) for M in random_irreducible_matrices(200)]
    if case == "lifts":
        two = IntMatrix.from_rows([[2]])
        return [(block_lift(two, k), k) for k in range(2, 65)]
    if case == "sparse7":
        return [(IntMatrix.from_rows(SPARSE7), None)]
    return [(seeded_irreducible_matrix(int(case[1:])), None)]


class TestTailFromRecord:
    @pytest.mark.parametrize("case", ["corpus", "lifts", "sparse7", "n12", "n16"])
    def test_stored_prefix_and_rule_give_the_whole_window(self, case):
        for M, k in _tail_inputs(case):
            record, result = build_record(M, weak_perron_k=k)
            sections = json.loads(record.to_json())["sections"]
            assert _check_stored_sides(sections) == 0
            assert _tail_pairs(sections) == [
                g.pair_states for g in result.schema.generators
            ]

    def test_window_at_the_escape_depth(self):
        # At depth_cap = N some sides have not entered their strips: they
        # store all N edge states, and their tail orbits are those of the
        # strips they enter past the window, as at the default window.
        unstabilized = 0
        for M, _ in _tail_inputs("corpus"):
            full = run_pipeline(M).schema
            record, result = build_record(M, depth_cap=full.escape_depth)
            sections = json.loads(record.to_json())["sections"]
            unstabilized += _check_stored_sides(sections)
            assert _tail_pairs(sections) == [
                g.pair_states for g in result.schema.generators
            ]
            stored = [tuple(g["tail_orbits"])
                      for g in sections["identifications"]["generators"]]
            assert stored == [g.tail_orbits for g in result.schema.generators]
            assert stored == [g.tail_orbits for g in full.generators]
        assert unstabilized > 0

    @pytest.mark.parametrize("case", ["corpus", "lifts", "sparse7", "n12", "n16"])
    def test_window_holds_two_periods_past_the_last_stabilization(self, case):
        # Past each stabilization depth the stored prefix and the rule give
        # the pairs; the default window N + 3m keeps at least two whole
        # periods of them (exactly two on corpus:1), though the
        # stabilization depth itself may exceed the escape depth N.
        for M, k in _tail_inputs(case):
            schema = run_pipeline(M, weak_perron_k=k).schema
            depths = [g.stabilization_depth for g in schema.generators]
            assert None not in depths
            assert max(depths) <= schema.depth_cap - 2 * schema.nesting_period

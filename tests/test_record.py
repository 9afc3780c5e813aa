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
    InvalidInputError,
    VerificationError,
    build_record,
    load_record,
    verify_record,
)
from endperiodic.record import SCHEMA_VERSION

from conftest import RUNNING_ROWS


RUNNING_HASH = "2f83dc68f1857fda382067db3469cb01199a4f745a860c96b3e5970b0105e1a3"


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
            ('{"schema_version":"1"}', "config"),
            ("[1]", "not a JSON object"),
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
            ("depth_cap", "q"),
            ("depth_cap", 2.5),
            ("depth_cap", False),
            ("weak_perron_k", "2"),
            ("corner_selection", 1),
            ("insert_genus", None),
            ("doubled", "yes"),
        ],
    )
    def test_bad_config_value_is_input_error(self, running_record, key, value):
        data = json.loads(running_record.to_json())
        data["config"][key] = value
        with pytest.raises(InvalidInputError, match=f"config.{key}"):
            load_record(json.dumps(data))

    def test_good_config_values_load(self, running_record):
        data = json.loads(running_record.to_json())
        data["config"].update(tol=1, depth_cap=250, weak_perron_k=None)
        assert load_record(json.dumps(data))["config"]["depth_cap"] == 250

"""End-to-end tests for the command line interface."""

import json

import pytest

import endperiodic.record
from endperiodic import InternalConsistencyError
from endperiodic.cli import main

from conftest import RUNNING_ROWS


@pytest.fixture()
def matrix_file(tmp_path):
    path = tmp_path / "running.txt"
    path.write_text("\n".join(" ".join(str(v) for v in row) for row in RUNNING_ROWS))
    return path


class TestConstruct:
    def test_integer_case_with_verify(self, tmp_path, capsys):
        code = main(
            ["construct", "--integer", "3", "--verify", "--out", str(tmp_path)]
        )
        assert code == 0
        record = tmp_path / "integer-3.record.json"
        assert record.exists()
        data = json.loads(record.read_text())
        assert data["config"]["matrix"] == [[3]]

    def test_matrix_file_reports_lambda(self, matrix_file, tmp_path, capsys):
        code = main(
            ["construct", "--matrix", str(matrix_file), "--verify",
             "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1.785" in out
        assert (tmp_path / "running.record.json").exists()

    def test_lift_reports_root(self, tmp_path, capsys):
        two = tmp_path / "two.txt"
        two.write_text("2\n")
        code = main(
            ["construct", "--matrix", str(two), "--lift", "2", "--verify",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert "1.41421356" in capsys.readouterr().out
        assert (tmp_path / "two-lift2.record.json").exists()

    def test_figures_written(self, tmp_path):
        code = main(
            ["construct", "--integer", "2", "--fig", "complex",
             "--out", str(tmp_path)]
        )
        assert code == 0
        svgs = list(tmp_path.glob("*.svg"))
        assert len(svgs) == 1
        assert "<svg" in svgs[0].read_text()

    def test_output_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENDPERIODIC_OUT", str(tmp_path))
        assert main(["construct", "--integer", "2"]) == 0
        assert (tmp_path / "integer-2.record.json").exists()


class TestVerify:
    def test_fresh_record_passes(self, tmp_path):
        assert main(["construct", "--integer", "2", "--out", str(tmp_path)]) == 0
        record = tmp_path / "integer-2.record.json"
        assert main(["verify", str(record)]) == 0

    def test_mutated_record_fails(self, tmp_path, capsys):
        assert main(["construct", "--integer", "2", "--out", str(tmp_path)]) == 0
        record = tmp_path / "integer-2.record.json"
        data = json.loads(record.read_text())
        data["sections"]["incidence"]["incidence"][0][0] = 9
        record.write_text(json.dumps(data))
        assert main(["verify", str(record)]) == 1
        assert "at incidence.incidence[0][0]" in capsys.readouterr().err

    def test_missing_record_is_usage_error(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("text", ['{"schema_version":"1"}', "[1]"])
    def test_malformed_record_is_input_error(self, tmp_path, capsys, text):
        record = tmp_path / "bad.record.json"
        record.write_text(text)
        assert main(["verify", str(record)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: record ") and err.count("\n") == 1

    def test_config_key_missing_is_input_error(self, tmp_path, capsys):
        assert main(["construct", "--integer", "2", "--out", str(tmp_path)]) == 0
        record = tmp_path / "integer-2.record.json"
        data = json.loads(record.read_text())
        del data["config"]["tol"]
        record.write_text(json.dumps(data))
        assert main(["verify", str(record)]) == 2
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("matrix", "x"), ("tol", "a"), ("depth_cap", "q")]
    )
    def test_bad_config_value_is_input_error(self, tmp_path, capsys, key, value):
        assert main(["construct", "--integer", "2", "--out", str(tmp_path)]) == 0
        record = tmp_path / "integer-2.record.json"
        data = json.loads(record.read_text())
        data["config"][key] = value
        record.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", str(record)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: record config.{key} ")
        assert err.count("\n") == 1


class TestSpectral:
    def test_prints_characteristic_polynomial(self, matrix_file, capsys):
        assert main(["spectral", "--matrix", str(matrix_file)]) == 0
        out = capsys.readouterr().out
        assert "x^4" in out and "1.785" in out


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["construct", "--integer", "2", "--bogus"]) == 2

    def test_bad_integer(self, capsys):
        assert main(["construct", "--integer", "1"]) == 2


class TestInternalErrors:
    def test_internal_consistency_error_has_own_exit_code(
        self, tmp_path, monkeypatch, capsys
    ):
        def broken(*args, **kwargs):
            raise InternalConsistencyError("attachment leaves its host edge")

        monkeypatch.setattr(endperiodic.record, "attach_strips", broken)
        code = main(["construct", "--integer", "2", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "internal consistency error: attachment leaves its host edge\n"

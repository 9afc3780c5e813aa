"""End-to-end tests for the command line interface."""

import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import endperiodic
import endperiodic.cli
import endperiodic.record
from endperiodic import InternalConsistencyError
from endperiodic.cli import main
from endperiodic.gluing import MAX_PAIR_STATES
from endperiodic.record import SCHEMA_VERSION
from endperiodic.spectral import MAX_LIFT_DIMENSION

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
        # the certified bracket and its rule
        assert re.search(
            r"^spectral radius certified in \[1\.785\d*, 1\.785\d*\] "
            r"\(Collatz-Wielandt on eta\)$", out, re.M
        )
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

    def test_render_writes_the_construct_figure(self, tmp_path):
        construct, rend = tmp_path / "construct", tmp_path / "render"
        assert main(["construct", "--integer", "2", "--fig", "complex",
                     "--out", str(construct)]) == 0
        assert main(["render", "--integer", "2", "--fig", "complex",
                     "--out", str(rend)]) == 0
        name = "integer-2.Complex2D.svg"
        assert [p.name for p in rend.iterdir()] == [name]
        assert (rend / name).read_bytes() == (construct / name).read_bytes()

    def test_figure_kind_by_its_exact_name(self, tmp_path):
        assert main(["render", "--integer", "2", "--fig", "Digraphs",
                     "--out", str(tmp_path)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["integer-2.Digraphs.svg"]

    def test_integer_lift_builds_the_lift(self, tmp_path):
        code = main(["construct", "--integer", "2", "--lift", "3", "--verify",
                     "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "integer-2-lift3.record.json").read_text())
        assert data["config"]["matrix"] == [[0, 0, 2], [1, 0, 0], [0, 1, 0]]
        assert data["config"]["weak_perron_k"] == 3

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
        data["sections"]["incidence"]["bracket"][0] = 9.0
        record.write_text(json.dumps(data))
        assert main(["verify", str(record)]) == 1
        assert "at incidence.bracket[0]" in capsys.readouterr().err

    def test_table_is_printed_on_failure(self, tmp_path, capsys):
        # one line per section with its stored byte count, the failed one
        # naming its JSON path, and the one-line error after the table
        assert main(["construct", "--integer", "2", "--out", str(tmp_path)]) == 0
        record = tmp_path / "integer-2.record.json"
        data = json.loads(record.read_text())
        data["sections"]["identifications"]["entry_depths"][0][1] += 1
        record.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", str(record)]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        sections = sorted(data["sections"])
        assert [line.split(":")[0] for line in lines] == (
            [f"verify {name}" for name in sections] + ["verify content_hash"]
        )
        for name, line in zip(sections, lines):
            size = len(json.dumps(data["sections"][name], sort_keys=True,
                                  separators=(",", ":")))
            assert line.startswith(f"verify {name}: {size} bytes, ")
        path = "identifications.entry_depths[0][1]"
        assert lines[sections.index("identifications")].endswith(
            f"FAIL (stored section differs from recomputation at {path})"
        )
        assert lines[-1] == "verify content_hash: -, FAIL (hash mismatch)"
        assert sum("FAIL" in line for line in lines) == 2
        assert captured.err.startswith("verification failure: ")
        assert captured.err.count("\n") == 1

    def test_missing_record_is_usage_error(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize(
        "text", [f'{{"schema_version":"{SCHEMA_VERSION}"}}', "[1]"]
    )
    def test_malformed_record_is_input_error(self, tmp_path, capsys, text):
        record = tmp_path / "bad.record.json"
        record.write_text(text)
        assert main(["verify", str(record)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: record ") and err.count("\n") == 1

    def test_truncated_record_is_input_error(self, tmp_path, capsys):
        record = tmp_path / "bad.record.json"
        record.write_text('{"config": ')
        assert main(["verify", str(record)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: record is not valid JSON: ")
        assert err.count("\n") == 1

    def _assert_version_refused(self, tmp_path, capsys, version):
        assert main(["construct", "--integer", "2", "--out", str(tmp_path)]) == 0
        record = tmp_path / "integer-2.record.json"
        data = json.loads(record.read_text())
        data["schema_version"] = version
        record.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", str(record)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: record schema version '{version}' is not supported "
            f"(expected '{SCHEMA_VERSION}')\n"
        )

    def test_version_1_record_is_input_error(self, tmp_path, capsys):
        self._assert_version_refused(tmp_path, capsys, "1")

    def test_version_2_record_is_input_error(self, tmp_path, capsys):
        # version "2" eigendata came from power iteration; their floats
        # differ in the last digits, so such a record is refused, not failed
        self._assert_version_refused(tmp_path, capsys, "2")

    def test_version_3_record_is_input_error(self, tmp_path, capsys):
        # version "3" stored every depth up to depth_cap; version "4" stored
        # each generator's pairs up to its stabilization depth
        self._assert_version_refused(tmp_path, capsys, "3")

    def test_version_4_record_is_input_error(self, tmp_path, capsys):
        # version "4" stored both sides up to the later strip entry, with
        # fields the generator id gives; version "5" stores each side up to
        # its own entry
        self._assert_version_refused(tmp_path, capsys, "4")

    def test_version_5_record_is_input_error(self, tmp_path, capsys):
        # version "5" wrote the kind, the side, the "E" tag, the entry
        # height and the stabilization depth with every stored side, and
        # copies of facts other sections hold
        self._assert_version_refused(tmp_path, capsys, "5")

    def test_version_6_record_is_input_error(self, tmp_path, capsys):
        # version "6" wrote tail orbit ids, the rect of every stored state,
        # each periodic point's period, orbit and position, and the label
        # orders of the decomposition, which the edge digraphs and the
        # matrix give
        self._assert_version_refused(tmp_path, capsys, "6")

    def test_version_10_record_is_input_error(self, tmp_path, capsys):
        # version "10" wrote surface.genus_insertion_applied, a copy of the
        # config, and class_census.oversized_finite, always 0
        self._assert_version_refused(tmp_path, capsys, "10")

    def test_version_11_record_is_input_error(self, tmp_path, capsys):
        # version "11" wrote each periodic point's offset and the eigendata
        # residual, which the eigendata, decomposition and matrix give
        self._assert_version_refused(tmp_path, capsys, "11")

    def test_version_12_record_is_input_error(self, tmp_path, capsys):
        # version "12" named each generator by its id, which the column
        # and row sums of the matrix give
        self._assert_version_refused(tmp_path, capsys, "12")

    def test_version_13_record_is_input_error(self, tmp_path, capsys):
        # version "13" wrote each infinite class as an object whose
        # representative named its generator by id, X:k:t:a:d:e
        self._assert_version_refused(tmp_path, capsys, "13")

    def test_readme_names_every_older_version(self):
        # README's "Older records" paragraph says what each version before
        # SCHEMA_VERSION stored, so a schema bump must add its line there
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        start = text.index("Older records are refused")
        paragraph = " ".join(text[start:text.index("\n\n", start)].split())
        missing = [
            str(v) for v in range(1, int(SCHEMA_VERSION))
            if f'Version "{v}" records' not in paragraph
        ]
        assert missing == []

    def test_oversized_window_is_input_error(self, tmp_path, capsys):
        # a window past MAX_PAIR_STATES is refused before any state is
        # built, from a stored record and from construct alike: [[10**5]]
        # has 199,998 generators, and the window is at least 5
        assert main(["construct", "--integer", "2", "--out", str(tmp_path)]) == 0
        record = tmp_path / "integer-2.record.json"
        data = json.loads(record.read_text())
        data["config"]["matrix"] = [[10**5]]
        record.write_text(json.dumps(data))
        capsys.readouterr()
        for argv in (["verify", str(record)],
                     ["construct", "--integer", str(10**5),
                      "--out", str(tmp_path)]):
            start = time.perf_counter()
            assert main(argv) == 2
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert err == (
                "error: depth_cap at least 5 with 199998 generators is at "
                f"least 999990 pair states, above the limit {MAX_PAIR_STATES}\n"
            )

    def test_large_integer_is_refused_from_the_matrix(self, tmp_path):
        # [[10**6]] has 1,999,998 generators, so even the least default
        # window (5) is too large: construct exits 2 before building any
        # of them
        src = Path(endperiodic.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys; from endperiodic.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "construct", "--integer", str(10**6), "--out", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 2
        assert out.stderr == (
            "error: depth_cap at least 5 with 1999998 generators is at least "
            f"9999990 pair states, above the limit {MAX_PAIR_STATES}\n"
        )
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize("cap", [250, 10**9])
    def test_depth_cap_record_is_input_error(self, tmp_path, capsys, cap):
        # the window is N + 3m on every run and no longer a setting: a
        # record that asks for another is refused, not re-run at N + 3m
        assert main(["construct", "--integer", "2", "--out", str(tmp_path)]) == 0
        record = tmp_path / "integer-2.record.json"
        data = json.loads(record.read_text())
        data["config"]["depth_cap"] = cap
        record.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", str(record)]) == 2
        assert capsys.readouterr().err == (
            f"error: record config.depth_cap {cap} is not None, the value "
            "every record holds\n"
        )

    def test_genus_insertion_record_is_input_error(self, tmp_path, capsys):
        # genus insertion constructed nothing and is no longer a setting:
        # a record that asks for it is refused, not re-run without it
        assert main(["construct", "--integer", "2", "--out", str(tmp_path)]) == 0
        record = tmp_path / "integer-2.record.json"
        data = json.loads(record.read_text())
        data["config"]["insert_genus"] = True
        record.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", str(record)]) == 2
        assert capsys.readouterr().err == (
            "error: record config.insert_genus True is not False, the value "
            "every record holds\n"
        )


class TestSpectral:
    def test_prints_characteristic_polynomial(self, matrix_file, capsys):
        assert main(["spectral", "--matrix", str(matrix_file)]) == 0
        out = capsys.readouterr().out
        assert "x^4" in out and "1.785" in out

    def test_integer_lift(self, capsys):
        assert main(["spectral", "--integer", "2", "--lift", "3"]) == 0
        assert "char_poly: x^3-2\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[3]], "matrix: [[3]]\nchar_poly: x-3\ndeterminant: 3\n"
             "irreducible: True\ngraph period: 1\nprimitive: True\n"
             "lambda: 3 (residual 0)\neta: [1.0]\nomega: [1.0]\n"),
            ([[1, 1], [0, 1]], "matrix: [[1, 1], [0, 1]]\n"
             "char_poly: x^2-2x+1\ndeterminant: 1\nirreducible: False\n"
             "spectral radius: 1\n"),
            ([[2, 0], [0, 3]], "matrix: [[2, 0], [0, 3]]\n"
             "char_poly: x^2-5x+6\ndeterminant: 6\nirreducible: False\n"
             "spectral radius: 3\n"),
        ],
        ids=["integer3", "reducible", "diagonal"],
    )
    def test_one_analysis_and_one_char_poly(
        self, tmp_path, capsys, monkeypatch, rows, expected
    ):
        # every line reads one analysis of M's digraph and one char_poly
        spectral = endperiodic.spectral
        analysed, recurrences = [], []
        analyse = spectral._analyse
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "endperiodic" and (
                getattr(module, "_analyse", None) is analyse
            ):
                monkeypatch.setattr(
                    module, "_analyse", lambda A: analysed.append(A) or analyse(A)
                )
        recurrence = spectral._faddeev_leverrier
        monkeypatch.setattr(
            spectral, "_faddeev_leverrier",
            lambda A: recurrences.append(A) or recurrence(A),
        )
        path = tmp_path / "m.json"
        path.write_text(json.dumps(rows))
        assert main(["spectral", "--matrix", str(path)]) == 0
        assert capsys.readouterr().out == expected
        assert len(analysed) == 1
        assert len(recurrences) == 1


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["construct", "--integer", "2", "--bogus"]) == 2

    def test_bad_integer(self, capsys):
        assert main(["construct", "--integer", "1"]) == 2

    def test_lift_zero(self, tmp_path, capsys):
        two = tmp_path / "two.txt"
        two.write_text("2\n")
        code = main(["construct", "--matrix", str(two), "--lift", "0",
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: k must be >= 1\n"
        assert not list(tmp_path.glob("*.record.json"))

    def test_lift_over_the_dimension_bound(self, tmp_path, capsys):
        # the dense 100000 x 100000 lift is refused by its dimension before
        # it is built: the call allocates under 1 MiB, where it once built
        # the lift's rows until a MemoryError exited 1
        tracemalloc.start()
        try:
            code = main(["construct", "--integer", "2", "--lift", "100000",
                         "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        assert capsys.readouterr().err == (
            "error: the 100000-lift of a 1 x 1 matrix has dimension 100000, "
            f"above the limit {MAX_LIFT_DIMENSION}\n"
        )
        assert not list(tmp_path.glob("*.record.json"))

    @pytest.mark.parametrize("command", ["spectral", "construct"])
    @pytest.mark.parametrize(
        "text",
        ["[[2.7]]", "[[true, 1], [1, 1]]", '[["3"]]', "[1, 2]", "[[null]]",
         "[[1e400]]"],
    )
    def test_json_entry_not_an_integer(self, tmp_path, capsys, command, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main([command, "--matrix", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: JSON matrix ") and err.count("\n") == 1
        assert not list(tmp_path.glob("*.record.json"))

    @pytest.mark.parametrize("command", ["verify", "spectral"])
    @pytest.mark.parametrize(
        "text",
        ["[" * 200_000 + "]" * 200_000, "[[" + "7" * 5000 + "]]"],
        ids=["nested", "long-integer"],
    )
    def test_json_the_parser_refuses(self, tmp_path, capsys, command, text):
        # nesting deeper than the parser recurses and an integer literal
        # past CPython's digit limit are input errors, as bad syntax is
        path = tmp_path / "bad.json"
        path.write_text(text)
        if command == "verify":
            argv, prefix = ["verify", str(path)], "record"
        else:
            argv, prefix = ["spectral", "--matrix", str(path)], "matrix input"
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix} is not valid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, err",
        [("1 2\n3 x\n", "error: bad matrix row '3 x'\n"),
         ("\n  \n", "error: empty matrix input\n")],
        ids=["bad-row", "empty"],
    )
    def test_text_matrix_the_parser_refuses(self, tmp_path, capsys, text, err):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["spectral", "--matrix", str(path)]) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("command", ["construct", "render"])
    def test_unknown_figure_kind_is_refused_before_the_pipeline(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def no_pipeline(*args, **kwargs):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(endperiodic.cli, "build_record", no_pipeline)
        code = main([command, "--integer", "2", "--fig", "nosuch",
                     "--out", str(tmp_path)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: unknown figure kind 'nosuch'; choose from ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["construct", "render", "spectral",
                                         "verify"])
    def test_file_that_is_not_utf8_is_input_error(self, tmp_path, capsys,
                                                  command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00bad")
        argv = {
            "construct": ["construct", "--matrix", str(path)],
            "render": ["render", "--matrix", str(path), "--fig", "orbits"],
            "spectral": ["spectral", "--matrix", str(path)],
            "verify": ["verify", str(path)],
        }[command]
        assert main(argv + ([] if command == "verify"
                            else ["--out", str(tmp_path)])) == 2
        assert capsys.readouterr().err == (
            f"error: {path} is not UTF-8 text: invalid start byte at byte 0\n"
        )
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("command", ["spectral", "construct"])
    def test_json_matrix_not_valid_json(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_text("[[1,2")
        code = main([command, "--matrix", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: matrix input is not valid JSON: ")
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("*.record.json"))

    def test_weak_perron_k_of_a_matrix_that_is_no_such_lift(
        self, matrix_file, tmp_path, capsys
    ):
        code = main(["construct", "--matrix", str(matrix_file),
                     "--weak-perron-k", "2", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: matrix is not a block lift with k=2\n"
        )
        assert not list(tmp_path.glob("*.record.json"))

    @pytest.mark.parametrize(
        "options", [["--weak-perron-k", "1"], ["--lift", "2"]]
    )
    def test_weak_perron_k_of_an_imprimitive_base(self, tmp_path, capsys,
                                                  options):
        # [[0, 2], [1, 0]] has period 2; --lift K implies --weak-perron-k K
        matrix = tmp_path / "swap.txt"
        matrix.write_text("0 2\n1 0\n")
        code = main(["construct", "--matrix", str(matrix), "--out",
                     str(tmp_path)] + options)
        assert code == 2
        k = options[1]
        assert capsys.readouterr().err == (
            f"error: weak_perron_k={k} needs a primitive base block; "
            "[[0, 2], [1, 0]] is not primitive\n"
        )
        assert not list(tmp_path.glob("*.record.json"))

    @pytest.mark.parametrize(
        "command, flag",
        [("construct", "--tol=1e-11"), ("render", "--tol=1e-11"),
         ("spectral", "--tol=1e-11"), ("construct", "--no-corner-selection"),
         ("render", "--corner-selection"), ("construct", "--insert-genus"),
         ("render", "--insert-genus"), ("construct", "--depth=22"),
         ("render", "--depth=22")],
    )
    def test_deleted_settings_are_unknown_flags(self, tmp_path, capsys,
                                                command, flag):
        # the eigendata residual, the corner selection, the genus insertion,
        # the window and the double are fixed; a record states them in its
        # config
        figs = ["--fig", "complex"] if command == "render" else []
        code = main([command, "--integer", "2", flag, "--out", str(tmp_path)]
                    + figs)
        assert code == 2
        assert "unrecognized arguments: " + flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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

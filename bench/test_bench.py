"""Tests of the benchmark itself: inputs, printed names and a smoke pass."""

from __future__ import annotations

import importlib.util
import json
import os
import re
import sys

import pytest

import run as bench_run
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _rows(cases):
    return [(name, M.to_lists(), k) for name, M, k in cases]


def test_corpus_equals_acceptance_suite_corpus():
    path = bench_run.ROOT / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("acceptance_conftest", path)
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    expected = conftest.random_irreducible_matrices(workloads.CORPUS_SIZE)
    got = workloads.corpus_matrices()
    assert [M.to_lists() for M in got] == [M.to_lists() for M in expected]


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_generators_are_deterministic(workload):
    first = _rows(workloads.cases(workload))
    assert first == _rows(workloads.cases(workload))
    assert len({name for name, _, _ in first}) == len(first)


def test_visit_order_is_a_seeded_permutation():
    order = bench_run.visit_order(200, seed=7)
    assert order == bench_run.visit_order(200, seed=7)
    assert sorted(order) == list(range(200))
    assert order != bench_run.visit_order(200, seed=8)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_pass_on_running_example(trace, capsys, monkeypatch, tmp_path):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(bench_run, "OUT", tmp_path)
    argv = ["--workload", "running", "--seed", "1", "--seconds", "0",
            "--trace", trace]
    assert bench_run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1

    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    assert set(result["metrics"]) == set(units)
    for name, m in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert m["unit"] == units[name]
        assert isinstance(m["value"], (int, float))
    if trace == "0":
        printed = {line.split()[0] for line in lines if line.split()
                   and line.split()[0] in units}
        assert printed == set(units)
    else:
        assert list(tmp_path.glob("trace-running-seed1.json"))

"""Repeat the benchmark over seeds and summarise each metric's spread.

Run from the repository root:

    python3 bench/collect.py --runs 10 --first-seed 1
    python3 bench/collect.py --runs 10 --workloads deep_lift --write

Each run is a fresh ``bench/run.py`` process with its own ``--seed``. For
every end-to-end metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, the inter-quartile
distance as a share of the median, next to the metric's bound in
``BENCHMARK.json``, and the change of the median from the one stored in
``bench/baseline.json``. ``--write`` also makes one traced run per workload and
stores medians, quartiles, per-layer values, content-hash digests and the
machine description in ``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BASELINE = BENCH / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """One benchmark process; returns its result object and printed digest."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    lines = proc.stdout.splitlines()
    digest = next(line.split()[1] for line in lines
                  if line.startswith(("digest ", "digest_changed ")))
    return json.loads(lines[-1]), digest


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def machine() -> dict:
    import numpy

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--write", action="store_true",
                        help="store the results in bench/baseline.json")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    ok = True
    for workload in args.workloads:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        results, digests = zip(*(run_once(workload, s, seconds, 0)
                                 for s in seeds))
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {args.runs} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"failed {failed} of {attempted}, digests {sorted(set(digests))}")
        stats = {}
        stored = baseline["workloads"][workload].get("end_to_end", {})
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            stats[name] = summary(values)
            s = stats[name]
            flag = "" if s["spread"] < bound / 3 or name == "setup_s" else "  WIDE"
            ok &= bool(s["spread"] < bound or name == "setup_s")
            line = (f"  {name:16s} median {s['median']:12.6g}"
                    f"  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}"
                    f"  spread {s['spread']:7.2%}  bound {bound:.0%}{flag}")
            if name in stored:
                change = s["median"] / stored[name]["median"] - 1
                ok &= change <= bound
                line += f"  median vs baseline {change:+.2%}"
            print(line)
        ok &= failed == 0 and len(set(digests)) == 1
        if args.write:
            traced, _ = run_once(workload, seeds[0], seconds, 1)
            entry = baseline["workloads"][workload]
            entry.update(
                digest=digests[0], runs=args.runs, seeds=seeds,
                end_to_end=stats,
                per_layer={n: m["value"] for n, m in traced["metrics"].items()},
            )
    if args.write:
        baseline["machine"] = machine()
        baseline["run_seconds"] = seconds
        BASELINE.write_text(json.dumps(baseline, indent=2) + "\n",
                            encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

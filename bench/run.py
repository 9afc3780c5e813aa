"""Certify/verify benchmark of endperiodic: one workload per run.

Run from the repository root:

    python3 bench/run.py --workload corpus200 --seed 1 --seconds 20 --trace 0

Users pay for two things: certifying a matrix (``build_record`` then
``to_json``, what ``endperiodic construct`` does minus the file write) and
re-verifying a stored record (``load_record`` then ``verify_record``, what
``endperiodic verify`` does). The workloads are fixed input lists defined
in ``workloads.py``; ``--seed`` shuffles the order in which a run visits
them, so every seed measures the same work and the same content hashes.

``--trace 0`` measures the end-to-end metrics through the public API only.
After set-up it certifies every input and verifies the record it produced,
then keeps cycling through the inputs until ``--seconds`` have passed; a
run that needs longer for one cycle measures that one cycle. Times are
per-input medians summed over the workload, scaled to a reference machine
speed by ``speed.py``; the wall-clock sums are printed next to them.
``verify_record`` recomputes the record, so a verify that raises also
catches a content hash that is not the same on a repeat; later cycles
compare the hashes directly.

``--trace 1`` is the separate traced run: one pass that calls the stage
functions in ``run_pipeline``'s order inside spans, checks that the
stage-by-stage record equals the one ``build_record`` returns, and reports
per-layer self times (wall clock, not scaled) and work counts. Spans are
written to ``bench/out/``.

Human-readable lines go to standard output first; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("corpus200", "deep_lift")
SETUP_REPEATS = 5
# Import time in a fresh interpreter, scaled by probes run after the import
# so that they preload nothing the import needs.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import endperiodic; "
    "wall = time.perf_counter() - t; import speed, statistics; "
    "print(wall * speed.REFERENCE_S / "
    "statistics.median(speed.probe() for _ in range(3)))"
)


# --- measurement helpers ---------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile, ``q`` in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def visit_order(count: int, seed: int) -> list[int]:
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order


def workload_digest(hashes: list[str | None]) -> str:
    """SHA-256 over the content hashes in the workload's defining order."""
    joined = "\n".join(h or "failed" for h in hashes)
    return hashlib.sha256(joined.encode("ascii")).hexdigest()


def stored_digest(workload: str) -> str | None:
    path = BENCH / "baseline.json"
    if not path.is_file():
        return None
    entries = json.loads(path.read_text(encoding="utf-8")).get("workloads", {})
    return entries.get(workload, {}).get("digest")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def settle() -> None:
    """Collect garbage left by earlier inputs, so that no input pays for it
    and the visit order does not decide which one does."""
    gc.collect()


def import_seconds() -> float:
    """Scaled time of ``import endperiodic`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=env, capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout)


class Failures:
    """Counts attempted and failed inputs; prints why each one failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, case: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {case}: {why}")

    def call(self, case: str, what: str, fn, *args) -> tuple[bool, object]:
        """Run ``fn``; a raise counts as a failure of ``case``."""
        try:
            return True, fn(*args)
        except Exception:  # any raise fails this input; the run goes on
            traceback.print_exc(file=sys.stdout)
            self.fail(case, f"{what} raised")
            return False, None

    def check_hash(self, hashes, i, case, digest) -> bool:
        """Keep the first content hash of each input; repeats must equal it."""
        if hashes[i] is None:
            hashes[i] = digest
        elif digest != hashes[i]:
            self.fail(case, "content hash differs between repeats")
            return False
        return True


# --- the two operations users pay for --------------------------------------


def certify(M, k):
    """``construct`` in-process: build the record and serialise it."""
    from endperiodic import build_record

    record, _ = build_record(M, weak_perron_k=k)
    return record, record.to_json()


def verify(text: str) -> None:
    """``verify`` in-process: parse a stored record and re-verify it."""
    from endperiodic import load_record, verify_record

    verify_record(load_record(text))


# --- untraced run: end-to-end metrics ---------------------------------------


def measure(cases, order, seconds, failures, hashes, sampler) -> dict:
    """Certify and verify every input once, then cycle until ``seconds``."""
    n = len(cases)
    wall = {"certify": 0.0, "verify": 0.0}
    cert = [[] for _ in range(n)]
    ver = [[] for _ in range(n)]
    nbytes = [0] * n
    start = time.perf_counter()
    cycles = 0
    while cycles == 0 or time.perf_counter() - start < seconds:
        for i in order:
            if cycles and time.perf_counter() - start >= seconds:
                break
            case, M, k = cases[i]
            failures.attempted += 1
            settle()
            ok, out = failures.call(case, "certify", sampler.time, certify, M, k)
            if not ok:
                continue
            (record, text), dt, scaled = out
            out = None
            if not failures.check_hash(hashes, i, case, record.content_hash()):
                continue
            cert[i].append(scaled)
            wall["certify"] += dt
            nbytes[i] = len(text.encode("utf-8"))
            record = None
            settle()
            ok, out = failures.call(case, "verify", sampler.time, verify, text)
            if ok:
                _, dt, scaled = out
                ver[i].append(scaled)
                wall["verify"] += dt
            text = out = None
        cycles += 1
    per_input = [statistics.median(c) for c in cert if c] or [0.0]
    print(f"samples: {n} inputs, {cycles} cycles, "
          f"{sum(map(len, cert))} certifications, "
          f"{sum(map(len, ver))} verifications; wall clock "
          f"{wall['certify']:.4f} s certifying, {wall['verify']:.4f} s verifying")
    return {
        "certify_s": metric(sum(per_input), "s"),
        "certify_p50_ms": metric(percentile(per_input, 50) * 1e3, "ms"),
        "certify_p95_ms": metric(percentile(per_input, 95) * 1e3, "ms"),
        "verify_s": metric(sum(statistics.median(v) for v in ver if v), "s"),
        "record_mb": metric(sum(nbytes) / 1e6, "MB"),
    }


# --- traced run: per-layer metrics -----------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent span and input id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, case: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "input": case, "parent": parent})
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index].update(start=start, end=end)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"] - c
        return out


def traced_certify(tr: Tracer, case: str, M, k):
    """``build_record`` stage by stage, in ``run_pipeline``'s order."""
    from endperiodic import (
        DEFAULT_TOL, ConstructionRecord, all_periodic_points, assemble_surface,
        attach_strips, build_decomposition, build_edge_maps, build_extended_map,
        choose_initial_points, classify_classes, corner_selection,
        enumerate_identifications, link_corner_partners, perron_eigendata,
        piece_map, verify_stretch)
    from endperiodic.edgemaps import census_json
    from endperiodic.record import SCHEMA_VERSION, _config_dict

    def decomposition(eigen):
        sigma, tau = corner_selection(M)
        return piece_map(build_decomposition(M, eigen, sigma=sigma, tau=tau))

    def edgemaps(P):
        system = build_edge_maps(P)
        points = all_periodic_points(system)
        link_corner_partners(points)
        choose_initial_points(points)
        return system, points

    def attach(system, points):
        strips = attach_strips(system, points)
        return build_extended_map(system, strips, points)

    def to_json(eigen, system, points, schema, census, surface, incidence):
        sections = {
            "eigendata": eigen.to_json_dict(),
            "decomposition": system.decomposition.to_json_dict(),
            "edge_digraphs": {
                kind: system.maps[kind].export_digraph() for kind in system.maps
            },
            "periodic_points": json.loads(census_json(points)),
            "identifications": schema.to_json_dict(),
            "class_census": census.to_json_dict(),
            "surface": surface.to_json_dict(),
            "incidence": incidence.to_json_dict(),
        }
        config = _config_dict(M, DEFAULT_TOL, None, True, False, k, True)
        record = ConstructionRecord(
            schema_version=SCHEMA_VERSION, config=config, sections=sections
        )
        return record, record.to_json()

    eigen = tr.span("spectral.perron_eigendata", case, perron_eigendata, M,
                    tol=DEFAULT_TOL)
    P = tr.span("decomposition.build", case, decomposition, eigen)
    system, points = tr.span("edgemaps.build", case, edgemaps, P)
    ext = tr.span("gluing.attach", case, attach, system, points)
    schema = tr.span("gluing.enumerate", case, enumerate_identifications, ext)
    census = tr.span("gluing.classify", case, classify_classes, schema, ext)
    surface = tr.span("gluing.assemble", case, assemble_surface, ext, schema,
                      census, weak_perron_k=k)
    incidence = tr.span("markov.verify_stretch", case, verify_stretch, M,
                        surface, tol=max(DEFAULT_TOL, 1e-9))
    record, text = tr.span("record.to_json", case, to_json, eigen, system,
                           points, schema, census, surface, incidence)
    counts = {
        "gluing.generators": len(schema.generators),
        "gluing.depth_cap": schema.depth_cap,
        "gluing.pair_states": sum(len(g.pair_states) for g in schema.generators),
        "gluing.nodes": sum(c.size for c in census.classes),
        "edgemaps.periodic_points": sum(len(p) for p in points.values()),
        "gluing.infinite_classes": len(census.infinite_classes),
        "gluing.undetermined": sum(
            c.link_type == "Undetermined" for c in census.infinite_classes
        ),
        "record.bytes": len(text.encode("utf-8")),
    }
    return record, text, counts


def traced_verify(tr: Tracer, case: str, text: str) -> None:
    from endperiodic import load_record, verify_record

    data = tr.span("record.load", case, load_record, text)
    tr.span("record.verify", case, verify_record, data)


CERTIFY_LAYERS = (
    "spectral.perron_eigendata", "decomposition.build", "edgemaps.build",
    "gluing.attach", "gluing.enumerate", "gluing.classify", "gluing.assemble",
    "markov.verify_stretch", "record.to_json",
)
VERIFY_LAYERS = ("record.load", "record.verify")
COUNT_UNITS = {
    "gluing.generators": "count", "gluing.depth_cap": "count",
    "gluing.pair_states": "count", "gluing.nodes": "count",
    "edgemaps.periodic_points": "count", "gluing.infinite_classes": "count",
    "gluing.undetermined": "count", "record.bytes": "bytes",
}


def trace(cases, order, failures, hashes, out_path: Path) -> dict:
    """One pass: untraced and traced certify, consistency, traced verify."""
    tr = Tracer()
    counts = dict.fromkeys(COUNT_UNITS, 0)
    untraced = traced = 0.0
    for j, i in enumerate(order):
        case, M, k = cases[i]
        failures.attempted += 1
        # Alternate which of the pair runs first. Each side keeps only its
        # content hash and text (a str, which the collector never scans),
        # so that neither runs on a heap the other has grown.
        kept = {}
        for side in ("untraced", "traced") if j % 2 else ("traced", "untraced"):
            settle()
            t = time.perf_counter()
            if side == "untraced":
                ok, out = failures.call(case, "certify", certify, M, k)
                untraced += time.perf_counter() - t
            else:
                ok, out = failures.call(case, "traced certify", tr.span,
                                        "certify", case, traced_certify,
                                        tr, case, M, k)
                traced += time.perf_counter() - t
            kept[side] = ok and (out[0].content_hash(), *out[1:])
            out = None
        if not (kept["untraced"] and kept["traced"]):
            continue
        digest, untraced_text = kept["untraced"]
        staged_digest, text, case_counts = kept["traced"]
        if not failures.check_hash(hashes, i, case, digest):
            continue
        if staged_digest != digest:
            ours = json.loads(text)["sections"]
            theirs = json.loads(untraced_text)["sections"]
            differ = [s for s in theirs if ours.get(s) != theirs[s]]
            failures.fail(case, f"stage-by-stage record differs in {differ}")
            continue
        for name, value in case_counts.items():
            counts[name] += value
        settle()
        failures.call(case, "traced verify", traced_verify, tr, case, text)
    self_s = tr.self_times()
    metrics = {f"{layer}_s": metric(self_s.get(layer, 0.0), "s")
               for layer in CERTIFY_LAYERS + VERIFY_LAYERS}
    metrics.update({name: metric(counts[name], unit)
                    for name, unit in COUNT_UNITS.items()})
    infinite = counts["gluing.infinite_classes"]
    decided = infinite - counts["gluing.undetermined"]
    metrics["gluing.link_decided_ratio"] = metric(
        decided / infinite if infinite else 0.0, "decided/infinite")
    metrics["trace.certify_s"] = metric(traced, "s")
    metrics["trace.overhead_s"] = metric(traced - untraced, "s")
    print(f"traced certify {traced:.4f} s, untraced {untraced:.4f} s, "
          f"overhead {traced - untraced:+.4f} s")
    print(f"link labels decided: {decided} of {infinite} infinite classes")
    for layer in CERTIFY_LAYERS + VERIFY_LAYERS:
        line = f"  {layer:28s} self {self_s.get(layer, 0.0):9.4f} s"
        if layer in CERTIFY_LAYERS and traced:
            line += f"  {self_s.get(layer, 0.0) / traced:6.1%} of traced certify"
        print(line)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(tr.spans), encoding="utf-8")
    print(f"spans: {len(tr.spans)} written to {out_path}")
    return metrics


# --- entry point ------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("running",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "endperiodic" / "__init__.py").is_file():
        print(f"error: no endperiodic sources under {SRC}", file=sys.stderr)
        return 2
    # One thread: keep any BLAS pool out of the measurement.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads  # imports endperiodic and numpy

    import speed

    # Set-up, each part repeated and its median taken: the import, in a
    # fresh interpreter each time, and generating the inputs.
    sampler = speed.Sampler()
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    generate = []
    for _ in range(SETUP_REPEATS):
        cases, _, scaled = sampler.time(workloads.cases, args.workload)
        generate.append(scaled)
    setup_s = statistics.median(imports) + statistics.median(generate)

    failures = Failures()
    hashes = [None] * len(cases)
    order = visit_order(len(cases), args.seed)
    print(f"workload {args.workload}: {len(cases)} inputs, seed {args.seed}, "
          f"trace {args.trace}")
    if args.trace:
        out_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        metrics = trace(cases, order, failures, hashes, out_path)
    else:
        metrics = measure(cases, order, args.seconds, failures, hashes,
                          sampler)
        metrics["setup_s"] = metric(setup_s, "s")
        metrics["peak_rss_mb"] = metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")

    print(f"failed_frac {failures.failed / failures.attempted:.6g} "
          f"({failures.failed} of {failures.attempted} attempts)")
    digest = workload_digest(hashes)
    baseline = stored_digest(args.workload)
    if baseline is None:
        print(f"digest {digest} (no stored digest)")
    elif baseline == digest:
        print(f"digest {digest} (matches bench/baseline.json)")
    else:
        print(f"digest_changed {digest} (bench/baseline.json has {baseline})")
    print(json.dumps({
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

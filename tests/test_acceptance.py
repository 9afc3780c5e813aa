"""Acceptance gate: one test per acceptance criterion, and criterion 5's
property suite also on a second, sparse corpus.

Each test exercises its criterion at the stated tolerance and registers a
PASS/FAIL line that is printed in the terminal summary.
"""

import time

import numpy as np
import pytest

from endperiodic import (
    IntMatrix,
    InternalConsistencyError,
    VerificationError,
    block_lift,
    build_integer_case,
    build_record,
    char_poly,
    cross_validate,
    determinant,
    incidence_matrix,
    is_irreducible,
    is_primitive,
    load_record,
    max_escape_depth,
    run_pipeline,
    spectral_radius_exact,
    verify_record,
    verify_stretch,
)

from conftest import (
    COORD_SLACK,
    RUNNING_ROWS,
    finite_classes_are_small,
    random_irreducible_matrices,
    record_criterion,
    sparse_irreducible_matrices,
)

_corpus_cache = {}


def _corpus():
    if "results" not in _corpus_cache:
        start = time.perf_counter()
        results = []
        for M in random_irreducible_matrices(200):
            results.append((M, run_pipeline(M)))
        _corpus_cache["results"] = results
        _corpus_cache["build_seconds"] = time.perf_counter() - start
    return _corpus_cache["results"]


def test_criterion_1_running_example(running_matrix, running_result):
    start = time.perf_counter()
    ok = True
    poly = char_poly(running_matrix)
    ok &= poly.coefficients == (-2, -1, -2, 0, 1)  # x^4 - 2x^2 - x - 2
    ok &= determinant(running_matrix) == -2
    lam = running_result.eigen.lam
    root = spectral_radius_exact(running_matrix)
    ok &= abs(lam - 1.785) <= 1e-3
    ok &= abs(lam - root) <= 1e-9
    eta = running_result.eigen.eta
    omega = running_result.eigen.omega
    ok &= all(abs(a - b) <= 0.01 for a, b in zip(eta, (0.31, 0.74, 0.56, 1.0)))
    ok &= all(abs(a - b) <= 0.01 for a, b in zip(omega, (1.19, 1.12, 0.67, 1.0)))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    record_criterion(
        "1 running example spectral data", ok, f"lambda={lam:.6f}, {elapsed:.2f}s"
    )
    assert ok


def test_criterion_2_corner_periodicity(running_result):
    start = time.perf_counter()
    tl = [
        pt
        for pt in running_result.points["L"]
        if pt.rect == 1 and pt.is_corner and pt.corner_type == "TL"
    ]
    ok = len(tl) == 1 and tl[0].period == 4 and tl[0].offset == 0.0
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    record_criterion(
        "2 corner of Q1 is f_L-periodic with period 4", ok, f"{elapsed:.2f}s"
    )
    assert ok


def test_criterion_3_integer_warmup():
    start = time.perf_counter()
    ok = True
    for d in range(2, 11):
        ok &= cross_validate(d) is True
        case = build_integer_case(d)
        ok &= case.direct.incidence == ((d, 0), (0, d))
        ok &= case.direct.stretch_factor == d
        signs = sorted(e.sign for e in case.pipeline.surface.ends)
        ok &= signs == ["Attracting", "Repelling"]
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    record_criterion("3 integer warm-up d=2..10", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_4_weak_perron_lift():
    start = time.perf_counter()
    ok = True
    for k in (2, 3, 4):
        lift = block_lift(IntMatrix.from_rows([[2]]), k)
        rho = spectral_radius_exact(lift)
        ok &= abs(rho**k - 2.0) <= 1e-9
        ok &= is_primitive(lift) is False
        ok &= is_irreducible(lift) is True
        res = run_pipeline(lift, weak_perron_k=k)
        ok &= res.surface.connected is True
        ok &= res.surface.weak_perron_gluing is not None
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    record_criterion("4 weak-Perron block lifts k=2,3,4", ok, f"{elapsed:.2f}s")
    assert ok


def _property_suite(results, rng) -> bool:
    """Criterion 5's properties of each (M, result) pair: functional edge
    digraphs inside the support of M, periodic points that return to
    themselves and agree with a 200-step iteration, same-period corner
    partners, sampled boundary orbits that reach their strips within the
    escape depth, and no finite class of more than two nodes."""
    ok = True
    for M, res in results:
        for kind, E in res.system.maps.items():
            # functional digraph inside the matrix support
            ok &= sorted(E.digraph) == list(range(1, M.n + 1))
            for s, t in E.digraph.items():
                ok &= (
                    M[t - 1, s - 1] > 0 if kind in ("L", "R") else M[s - 1, t - 1] > 0
                )
        D = res.decomposition
        for kind, pts in res.points.items():
            E = res.system.maps[kind]
            rects = [pt.rect for pt in pts]
            ok &= len(rects) == len(set(rects))  # at most one point per edge
            for pt in pts:
                pos, rect = pt.offset, pt.rect
                for _ in range(pt.period):
                    pos = E.branches[rect].apply(pos, E.lam)
                    rect = E.digraph[rect]
                ok &= rect == pt.rect
                ok &= abs(pos - pt.offset) <= 1e-9  # residual
                # 200-iteration brute force from a generic start
                pos2, cur = 0.31 * E.edge_length(pt.rect, D), pt.rect
                for _ in range(200):
                    pos2 = E.branches[cur].apply(pos2, E.lam)
                    cur = E.digraph[cur]
                if cur == pt.rect:
                    ok &= abs(pos2 - pt.offset) <= 1e-9
                if pt.is_corner:
                    pkind, prect = pt.partner_key
                    partner = next(
                        p for p in res.points[pkind] if p.rect == prect
                    )
                    ok &= partner.period == pt.period
        # escape bound on 100 sampled boundary points per map
        N = max_escape_depth(res.system)
        for kind, E in res.system.maps.items():
            max_period = max(len(c) for c in E.cycles)
            for _ in range(100):
                rect = int(rng.integers(1, D.n + 1))
                pos = float(rng.uniform(0, E.edge_length(rect, D)))
                for _ in range(N + max_period + 1):
                    pos = E.branches[rect].apply(pos, E.lam)
                    rect = E.digraph[rect]
                strip = res.extended.strips.get((kind, rect))
                ok &= strip is not None
                if strip is not None:
                    ok &= strip.lo - COORD_SLACK <= pos <= strip.hi + COORD_SLACK
        ok &= finite_classes_are_small(res.census)
    return ok


def test_criterion_5_random_property_suite():
    start = time.perf_counter()
    try:
        results = _corpus()
    except InternalConsistencyError:
        record_criterion("5 property suite on 200 random matrices", False,
                         "internal consistency error during construction")
        raise
    ok = _property_suite(results, np.random.default_rng(11))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    record_criterion(
        "5 property suite on 200 random matrices", ok, f"{elapsed:.1f}s"
    )
    assert ok


def _strip_states_on_their_strips(res) -> bool:
    """z runs over [0, 1] across a strip's base; a strip state outside it
    is a segment put on a strip it does not lie on."""
    return all(
        -COORD_SLACK <= z <= 1 + COORD_SLACK
        for gen in res.schema.generators
        for pair in gen.pair_states
        for state in pair
        if state[0] == "S"
        for z in state[2:4]
    )


def test_criterion_5_sparse_property_suite():
    # The seeded sparse n = 8..10 corpus, where strip entry once failed on
    # 18 of its 120 inputs while the n <= 4 corpus showed nothing. One
    # build per input serves every check, and verify re-runs it from the
    # record.
    name = "5 property suite on 120 sparse matrices"
    start = time.perf_counter()
    try:
        built = [build_record(M) for M in sparse_irreducible_matrices(120)]
    except InternalConsistencyError:
        record_criterion(name, False,
                         "internal consistency error during construction")
        raise
    results = [(res.decomposition.facts.matrix, res) for _, res in built]
    ok = _property_suite(results, np.random.default_rng(11))
    ok &= all(_strip_states_on_their_strips(res) for _, res in results)
    ok &= all(res.surface.connected is True for _, res in results)
    for record, _ in built:
        checks = verify_record(load_record(record.to_json()))
        ok &= all(check.passed for check in checks)
    elapsed = time.perf_counter() - start
    record_criterion(name, ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_6_incidence_verification():
    start = time.perf_counter()
    ok = True
    for M, res in _corpus():
        rho = spectral_radius_exact(M)
        rho2 = spectral_radius_exact(incidence_matrix(M, doubled=True))
        ok &= abs(rho2 - rho) <= 1e-9
    # mutation test: a wrong matrix must fail verification
    M, res = _corpus()[0]
    rows = [list(r) for r in M.to_lists()]
    rows[0][0] += 1
    with pytest.raises(VerificationError):
        verify_stretch(IntMatrix.from_rows(rows), res.surface)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    record_criterion(
        "6 incidence block-diagonal verification + mutation test",
        ok,
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_constructive_coverage():
    # The realization theorem is an existence statement; it is covered by
    # the pipeline succeeding with verified certificates on every corpus
    # input without internal-consistency errors.
    results = _corpus()
    ok = len(results) >= 200
    for M, res in results:
        ok &= res.surface.stretch_factor == pytest.approx(res.eigen.lam, rel=1e-9)
        x = res.surface.stretch_factor
        ok &= res.incidence.bracket == (x * (1 - 1e-9), x * (1 + 1e-9))
    record_criterion(
        "7 pipeline succeeds with certificates on the whole corpus",
        ok,
        f"{len(results)} matrices",
    )
    assert ok

"""Inputs well beyond the n <= 4 corpus: long block lifts, a lift of the
running example, a sparse 7x7 and a sparse 9x9, seeded random n = 12, 16
and 20, and the companion matrices of x^n - x - 1 for n = 16, 32 and 64.

Each one certifies and verifies at the default window N + 3m, m the lcm
of the cycle periods. On a 2-core machine (Python 3.11) certify plus
verify took at most about 0.4 s each, about 0.3 s for n = 16 and for
n = 20. Seeded n = 20 has the most nodes per edge of the tier-1 inputs:
while each edge lookup scanned the edge's nodes from the first, n = 20
took 1.5 s and n = 16 1.2 s. Under the product of the periods the lifts
k = 16 and k = 32 needed windows of 196,640 and 3,145,792 depths. The
lifts k = 40 and k = 64 failed the eigensolve while it was a power
iteration (residual above 1e-10). The lift k = 256 takes about 0.65 s
for certify plus verify on the machine above; while char_poly ran
Faddeev-LeVerrier on the whole 256 x 256 lift, not on its 1 x 1 cycle
product, that alone took 1.5 s of a 1.9 s certify.

x^n - x - 1 has λ close to 1 (1.0458 at n = 16, 1.0223 at n = 32), and its
companion matrix is Wielandt's extremal primitive matrix: the first
column of M^t turns positive only at t = n^2 - 2n + 2. Its edge-map
cycles have periods n and n - 1, so m = n(n - 1). The budget is 1 s for
certify plus verify at n = 32 (about 0.2 s on the machine above; 9 s
while connectedness multiplied dense integer matrices) and 2 s at n = 64,
whose window is 129 + 3 * 4032 = 12,225 depths (certify 0.6 s and verify
0.6 s on the machine above).

The companion matrices of x^n - a*x^(n-1) - 1 for a = 2, 3, 4 and
n = 8..24 have Perron vectors spanning about λ^(n-1). Each one certifies
and verifies, or fails with a typed error and exit 2.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import endperiodic
from endperiodic import (
    ConvergenceError,
    IntMatrix,
    PrecisionError,
    block_lift,
    build_record,
    load_record,
    max_escape_depth,
    verify_record,
)
from endperiodic.cli import main

from conftest import (
    RUNNING_ROWS,
    SPARSE7,
    SPARSE9,
    hash_digest,
    seeded_irreducible_matrix,
    stress_matrices,
    x_n_minus_x_minus_1,
)


def _lift(rows, k):
    return block_lift(IntMatrix.from_rows(rows), k), k


# name -> (matrix and weak_perron_k, escape depth N, lcm m of the periods)
CASES = {
    "lift16": (lambda: _lift([[2]], 16), 32, 16),
    "lift32": (lambda: _lift([[2]], 32), 64, 32),
    "lift40": (lambda: _lift([[2]], 40), 80, 40),
    "lift64": (lambda: _lift([[2]], 64), 128, 64),
    "lift256": (lambda: _lift([[2]], 256), 512, 256),
    "running-lift4": (lambda: _lift(RUNNING_ROWS, 4), 40, 16),
    "sparse7": (lambda: (IntMatrix.from_rows(SPARSE7), None), 15, 28),
    "sparse9": (lambda: (IntMatrix.from_rows(SPARSE9), None), 14, 5),
    "n12": (lambda: (seeded_irreducible_matrix(12), None), 4, 1),
    "n16": (lambda: (seeded_irreducible_matrix(16), None), 6, 2),
    "n20": (lambda: (seeded_irreducible_matrix(20), None), 4, 1),
    "xn16": (lambda: (x_n_minus_x_minus_1(16), None), 33, 240),
    "xn32": (lambda: (x_n_minus_x_minus_1(32), None), 65, 992),
    "xn64": (lambda: (x_n_minus_x_minus_1(64), None), 129, 4032),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_certifies_and_verifies(name):
    case, N, m = CASES[name]
    M, k = case()
    record, result = build_record(M, weak_perron_k=k)
    schema = result.schema
    assert (max_escape_depth(result.system), schema.nesting_period) == (N, m)
    assert schema.depth_cap == N + 3 * m
    assert result.surface.connected is True
    results = verify_record(load_record(record.to_json()))
    assert all(check.passed for check in results)


@pytest.mark.parametrize("name", ["sparse7", "lift16", "lift64"])
def test_content_hash_independent_of_hash_seed(name):
    M, k = CASES[name][0]()
    expected = build_record(M, weak_perron_k=k)[0].content_hash()
    src = Path(endperiodic.__file__).resolve().parents[1]
    code = (
        "from endperiodic import IntMatrix, build_record; "
        f"M = IntMatrix.from_rows({M.to_lists()!r}); "
        f"print(build_record(M, weak_perron_k={k!r})[0].content_hash())"
    )
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
        assert out.stdout.strip() == expected


def _wide_companion(n: int, a: int) -> IntMatrix:
    """Companion matrix of x^n - a*x^(n-1) - 1: first row (a, 0, ..., 0,
    1), ones below the diagonal. Primitive; scaled to last entry 1, its
    Perron vector spans about λ^(n-1)."""
    rows = [[0] * n for _ in range(n)]
    rows[0][0], rows[0][n - 1] = a, 1
    for i in range(1, n):
        rows[i][i - 1] = 1
    return IntMatrix.from_rows(rows)


#: n in 8..24 whose wide companion fails, by a: float eigendata and
#: coordinates cannot resolve the small entries (ROADMAP item 10), and
#: each failure is an exit-2 error; every other n certifies
WIDE_FAILURES = {
    2: {21: "ConvergenceError", 23: "ConvergenceError", 24: "ConvergenceError"},
    3: {15: "ConvergenceError", **dict.fromkeys(range(17, 25), "ConvergenceError")},
    4: {
        11: "ConvergenceError",
        **dict.fromkeys((14, 15, 16, 17, 18, 19, 21, 22, 23, 24),
                        "ConvergenceError"),
        20: "PrecisionError",
    },
}


#: x^20 - 4x^19 - 1: strip ('R', 1) is 2.27e-13 wide at an offset where
#: floats lie 6.1e-05 apart, so both its ends round to one float
WIDE_PRECISION_MESSAGE = (
    "strip ('R', 1) has float length 0.0 at offset 274877906947.5625: its "
    "width, edge length 2.749e+11 times lambda^-40, is 2.27e-13, and the "
    "float spacing at its offset is 6.1e-05; eta spans 2.75e+11 and omega "
    "2.75e+11"
)


@pytest.mark.parametrize("a", sorted(WIDE_FAILURES))
def test_wide_perron_vectors_certify_or_fail_typed(a, tmp_path, capsys):
    # in-process and through ``construct --verify``: certified and
    # verified with exit 0, or a typed error with exit 2; never a
    # traceback, exit 1 or exit 3
    failures, messages = {}, {}
    for n in range(8, 25):
        M = _wide_companion(n, a)
        try:
            record, _ = build_record(M)
        except (ConvergenceError, PrecisionError) as exc:
            failures[n] = type(exc).__name__
            messages[n] = str(exc)
        else:
            results = verify_record(load_record(record.to_json()))
            assert all(check.passed for check in results)
        path = tmp_path / f"wide{n}.json"
        path.write_text(json.dumps(M.to_lists()), encoding="utf-8")
        code = main(["construct", "--matrix", str(path), "--verify",
                     "--out", str(tmp_path)])
        assert code == (2 if n in failures else 0), n
    assert failures == WIDE_FAILURES[a]
    # the zero-length strip names its width, the float spacing at its
    # offset and the dynamic range of both vectors
    if a == 4:
        assert messages[20] == WIDE_PRECISION_MESSAGE
        err = capsys.readouterr().err
        assert "error: strip ('R', 1) has float length 0.0" in err
        assert "eta spans 2.75e+11 and omega 2.75e+11" in err


def test_stress_draw_seven_is_a_precision_error(tmp_path, capsys):
    """The 7th of ``stress_matrices`` (n = 16): strip ('R', 14) is
    2.3e-17 wide where floats lie 5.55e-17 apart, so both its ends round
    to one float (ROADMAP item 10, class B). ``build_record`` raises
    ``PrecisionError`` naming the strip, and ``construct`` exits 2 with
    the same message."""
    M = stress_matrices(7)[6]
    assert M.n == 16
    with pytest.raises(PrecisionError) as info:
        build_record(M)
    assert str(info.value).startswith("strip ('R', 14) has float length 0.0 ")
    path = tmp_path / "stress7.json"
    path.write_text(json.dumps(M.to_lists()), encoding="utf-8")
    assert main(["construct", "--matrix", str(path), "--out", str(tmp_path)]) == 2
    assert f"error: {info.value}" in capsys.readouterr().err


#: SHA-256 of the content hashes of the 39 of the first 40
#: ``stress_matrices`` draws that certify, in draw order
STRESS40_DIGEST = "cfbb6cdf057d68d727306c9766d9f9c0b6d0ce00a8e4703db0a22d427bf102bf"


def test_first_40_stress_draws_are_pinned():
    """Each of the first 40 ``stress_matrices`` draws (n = 5..20) keeps its
    outcome: the 7th raises ``PrecisionError``, as the test above checks
    in detail, and the other 39 certify with the pinned content hashes. An input that moves from certified to refused is a
    regression; no draw is redrawn or dropped. About 1-2 s on a 2-core
    machine."""
    hashes, refused = [], {}
    for i, M in enumerate(stress_matrices(40), start=1):
        try:
            hashes.append(build_record(M)[0].content_hash())
        except PrecisionError:
            refused[i] = PrecisionError
    assert refused == {7: PrecisionError}
    assert hash_digest(hashes) == STRESS40_DIGEST

"""Shared fixtures and the acceptance-report terminal hook."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from endperiodic import IntMatrix, facts, run_pipeline

RUNNING_ROWS = [[0, 0, 1, 0], [1, 0, 0, 1], [0, 0, 0, 1], [1, 2, 0, 0]]

#: slack of the tests that bound a float coordinate: a strip-base z in
#: [0, 1], or an escaped boundary point inside its strip
COORD_SLACK = 1e-7

#: a sparse irreducible 7 x 7 input (escape depth 15, lcm of its cycle periods 28)
SPARSE7 = [
    [0, 0, 0, 0, 0, 1, 0],
    [0, 0, 1, 0, 0, 0, 1],
    [0, 0, 1, 1, 1, 1, 0],
    [1, 0, 1, 1, 1, 1, 0],
    [0, 1, 0, 1, 1, 0, 0],
    [0, 1, 0, 0, 0, 0, 1],
    [0, 0, 0, 1, 1, 0, 0],
]

#: a sparse irreducible 9 x 9 input (escape depth 14, lcm of its cycle
#: periods 5) whose segments shrink below 1e-9 before they enter their strips
SPARSE9 = [
    [2, 0, 1, 0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 2, 0, 0, 0],
    [2, 0, 2, 1, 0, 1, 2, 0, 1],
    [0, 0, 1, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 2, 1],
    [0, 0, 2, 0, 1, 0, 1, 0, 0],
    [0, 0, 0, 2, 1, 0, 0, 0, 0],
    [0, 0, 2, 0, 0, 0, 0, 0, 0],
    [1, 2, 0, 1, 0, 0, 0, 0, 2],
]


#: a counterexample that the relabelling search in test_contract.py found,
#: shrunk: M and its relabelling P·M·Pᵀ by the order [0, 2, 1] both
#: certify and verify, with the same λ to the bit, ends and connectedness,
#: but M has a Line class (one Line, two Undetermined) and the relabelling
#: none (one Undetermined), so ``infinite_type`` is True on M and False on
#: the relabelling
INFINITE_TYPE_RELABELLING = ([[0, 1, 0], [1, 0, 1], [0, 1, 1]], [0, 2, 1])


def x_n_minus_x_minus_1(n: int) -> IntMatrix:
    """Companion matrix of x^n - x - 1: ones on the superdiagonal, last
    row [1, 1, 0, ..., 0]."""
    rows = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)]
    rows.append([1, 1] + [0] * (n - 2))
    return IntMatrix.from_rows(rows)


def identity_permutations(M):
    """(sigma, tau) that fix every strip label of M, the permutations
    that ``build_decomposition`` takes where a test needs no corner
    selection."""
    vertical_order, horizontal_order = facts(M).labels
    sigma = {k: {s: s for s in labels} for k, labels in horizontal_order.items()}
    tau = {k: {s: s for s in labels} for k, labels in vertical_order.items()}
    return sigma, tau


@pytest.fixture(scope="session")
def running_matrix() -> IntMatrix:
    return IntMatrix.from_rows(RUNNING_ROWS)


@pytest.fixture(scope="session")
def running_result(running_matrix):
    return run_pipeline(running_matrix)


@pytest.fixture(scope="session")
def d_results():
    return {d: run_pipeline(IntMatrix.from_rows([[d]])) for d in (2, 3, 5)}


def random_irreducible_matrices(count: int, seed: int = 20260826):
    """Seeded irreducible matrices, n <= 4, entries <= 2, no permutations.

    Permutation matrices are excluded because their spectral radius is 1
    and the construction requires a strictly expanding map.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 5))
        entries = rng.integers(0, 3, size=(n, n))
        M = IntMatrix.from_rows(entries.tolist())
        from endperiodic import is_irreducible

        if not is_irreducible(M):
            continue
        if all(sum(row) == 1 for row in M.entries) and all(
            sum(col) == 1 for col in zip(*M.entries)
        ):
            continue  # permutation matrix
        out.append(M)
    return out


#: seed of the large random inputs (n = 12, 16 and 20) in test_large_inputs.py
LARGE_INPUT_SEED = 20261018


def seeded_irreducible_matrix(n: int, seed: int = LARGE_INPUT_SEED) -> IntMatrix:
    """The first irreducible n x n matrix with entries <= 2 drawn from
    ``seed``."""
    from endperiodic import is_irreducible

    rng = np.random.default_rng(seed)
    while True:
        M = IntMatrix.from_rows(rng.integers(0, 3, size=(n, n)).tolist())
        if is_irreducible(M):
            return M


def sparse_irreducible_matrices(count: int, seed: int = LARGE_INPUT_SEED):
    """Seeded sparse irreducible matrices with spectral radius >= 3.8.

    Pure Python (``random.Random``), so the inputs do not depend on the
    numpy version: n uniform in 8..10, each entry drawn from
    [0] * 7 + [1, 1, 2].
    """
    from endperiodic import is_irreducible, spectral_radius_exact

    rng = random.Random(seed)
    pool = [0] * 7 + [1, 1, 2]
    out = []
    while len(out) < count:
        n = rng.randint(8, 10)
        M = IntMatrix.from_rows(
            [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        )
        if is_irreducible(M) and spectral_radius_exact(M) >= 3.8:
            out.append(M)
    return out


#: seed of the stress draw, ``stress_matrices``
STRESS_SEED = 20261019


def stress_matrices(count: int, seed: int = STRESS_SEED):
    """Seeded irreducible matrices, n in 5..20, of three densities, with
    entries up to 1, 2 or 3.

    numpy ``default_rng(seed)``; per draw, in this order: n =
    ``rng.integers(5, 21)``, the density ``[0.15, 0.3, 0.5][rng.integers(0,
    3)]``, e = ``rng.integers(1, 4)``, then the matrix ``(rng.random((n, n))
    < density) * rng.integers(1, e + 1, size=(n, n))``. Reducible and
    permutation draws are redrawn.
    """
    from endperiodic import is_irreducible

    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(5, 21))
        density = [0.15, 0.3, 0.5][rng.integers(0, 3)]
        e = int(rng.integers(1, 4))
        entries = (rng.random((n, n)) < density) * rng.integers(
            1, e + 1, size=(n, n)
        )
        M = IntMatrix.from_rows(entries.tolist())
        if not is_irreducible(M) or (
            all(sum(row) == 1 for row in M.entries)
            and all(sum(col) == 1 for col in zip(*M.entries))
        ):
            continue
        out.append(M)
    return out


def finite_classes_are_small(census) -> bool:
    """Whether every finite class of ``census`` has one or two nodes, and
    its singletons, its pairs and its infinite classes hold every node
    once."""
    finite = [c for c in census.classes if c.link_type is None]
    return all(c.size in (1, 2) for c in finite) and (
        census.finite_singletons
        + 2 * census.finite_pairs
        + sum(c.size for c in census.infinite_classes)
        == len(census.nodes)
    )


def relabelled(M: IntMatrix, order: list[int]) -> IntMatrix:
    """P·M·Pᵀ for the permutation P that moves row and column
    ``order[i]`` of M to i."""
    return IntMatrix.from_rows([[M.entries[a][b] for b in order] for a in order])


def relabel_invariants(res) -> tuple:
    """What renaming the rectangles must keep: lambda, to the bit (the
    characteristic polynomial is the same), the number and signs of the
    ends, connectedness and infinite type."""
    surface = res.surface
    return (res.eigen.lam, sorted(e.sign for e in surface.ends),
            surface.connected, surface.infinite_type)


def reference_pair_states(gen, cap: int) -> tuple:
    """The pairs at depths 1..cap of the generator ``gen`` by the
    builder's own objects, the reference that ``endperiodic.window``,
    which reads the record alone, must equal to the bit: each side's
    depth-1 segment from the piece-map branch onto (L, R) or from (T, B)
    its ``first_strips`` strip, stepped by the edge-map branches of its
    kind; at its entry depth t, put in the z of its entry strip (against
    the edge offset on L and R, with it on T and B), then stepped by the
    tail rule ``ext.step``."""
    from endperiodic.gluing import SIDE_KINDS

    ext = gen.ext
    D, P = ext.system.decomposition, ext.system.piece_map
    sides = []
    for kind, strip, entry, key in zip(
        SIDE_KINDS[gen.gen_id[0]], gen.first_strips,
        gen.entry_depths, gen.entry_strips,
    ):
        rect = strip.rect
        if kind in ("L", "R"):
            br = P.target_index[strip]
            height = D.rect_height(br.source_label.rect)
            a, b = br.y0, br.y0 + height / D.eigen.lam
        else:
            br = P.source_index[strip]
            width = D.rect_width(br.target_label.rect)
            a, b = br.x0, br.x0 + width / D.eigen.lam
        E = ext.system.maps[kind]
        states = [("E", rect, kind, a, b)]
        for _ in range(entry - 1):
            br = E.branches[rect]
            rect, a, b = br.target_rect, br.apply(a, E.lam), br.apply(b, E.lam)
            states.append(("E", rect, kind, a, b))
        lo, hi = ext.strips[key].lo, ext.strips[key].hi
        if kind in ("L", "R"):
            za, zb = (hi - a) / (hi - lo), (hi - b) / (hi - lo)
        else:
            za, zb = (a - lo) / (hi - lo), (b - lo) / (hi - lo)
        w = 0
        states[-1] = ("S", key, za, zb, w)
        while len(states) < cap:
            key, rise = ext.step[key]
            w += rise
            states.append(("S", key, za, zb, w))
        sides.append(states)
    return tuple(zip(*sides))


def hash_digest(hashes: list[str]) -> str:
    """SHA-256 over newline-joined content hashes, in input order."""
    return hashlib.sha256("\n".join(hashes).encode("ascii")).hexdigest()


# --- acceptance criterion reporting ---------------------------------------

ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_criterion(name: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        line = f"{status} {name}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)

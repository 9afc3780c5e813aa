"""Seeded inputs of the benchmark workloads.

Each workload is a fixed list of ``(name, matrix, weak_perron_k)`` cases.
The generator seeds below are part of the workload definition, so every
run certifies the same matrices and the content-hash digest of a workload
is comparable across runs and commits.
"""

from __future__ import annotations

import numpy as np

from endperiodic import IntMatrix, block_lift, is_irreducible

CORPUS_SEED = 20260826
CORPUS_SIZE = 200
LIFT_KS = (4, 8, 10)
RUNNING_ROWS = [[0, 0, 1, 0], [1, 0, 0, 1], [0, 0, 0, 1], [1, 2, 0, 0]]


def _is_permutation(M: IntMatrix) -> bool:
    return all(sum(row) == 1 for row in M.entries) and all(
        sum(col) == 1 for col in zip(*M.entries)
    )


def corpus_matrices(count: int = CORPUS_SIZE, seed: int = CORPUS_SEED):
    """The acceptance-suite corpus: irreducible, n <= 4, entries <= 2.

    Draws exactly as ``tests/conftest.random_irreducible_matrices``.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 5))
        M = IntMatrix.from_rows(rng.integers(0, 3, size=(n, n)).tolist())
        if is_irreducible(M) and not _is_permutation(M):
            out.append(M)
    return out


def lift(k: int) -> IntMatrix:
    return block_lift(IntMatrix.from_rows([[2]]), k)


def cases(workload: str) -> list[tuple[str, IntMatrix, int | None]]:
    """The inputs of one workload, in their defining order.

    ``running`` (the worked 4x4 example alone) is the smoke workload of the
    benchmark's own tests; it is not part of the measured set.
    """
    if workload == "running":
        return [("running", IntMatrix.from_rows(RUNNING_ROWS), None)]
    if workload == "corpus200":
        return [(f"corpus:{i}", M, None) for i, M in enumerate(corpus_matrices())]
    if workload == "deep_lift":
        return [(f"lift:{k}", lift(k), k) for k in LIFT_KS]
    raise ValueError(f"unknown workload {workload!r}")

"""Rectangle strip decompositions and the piece map.

Each index k gets a rectangle Q_k of width omega_k and height eta_k
(Perron left/right eigenvector entries). Q_k is cut into one vertical strip
per arc counted by column k of the matrix and one horizontal strip per arc
counted by row k. The piece map sends each vertical strip affinely onto a
horizontal strip, stretching horizontally by lambda and contracting
vertically by 1/lambda.

Charts are per rectangle: origin at the top-left corner, x rightward in
[0, omega_k], y downward in [0, eta_k]. Strip boundary offsets are stored
as floats, each computed once from the running count of each source index
among the strips before it: lambda^-1 * sum_i count_i * omega_i, or eta_i
for horizontal strips.
"""

from __future__ import annotations

from bisect import insort
from typing import NamedTuple

from .errors import InvalidInputError, PreconditionError
from .spectral import (
    HORIZONTAL,
    VERTICAL,
    IntMatrix,
    MatrixFacts,
    PerronData,
    StripLabel,
    facts,
)


class StripDecomposition(NamedTuple):
    """Strip partition of every rectangle, with the bijections sigma and tau.

    ``vertical_order[k]`` lists Q_k's vertical strips left to right,
    ``horizontal_order[k]`` its horizontal strips top to bottom; both use the
    canonical order (source ascending, then copy ascending). ``tau[k]``
    permutes vertical labels of Q_k and ``sigma[k]`` horizontal labels;
    widths and heights follow the resizing rule: the strip at label B has
    width lambda^-1 * omega_{source(tau_k(B))}, the strip at label C has
    height lambda^-1 * eta_{source(sigma_k^-1(C))}. ``vertical_offsets[k]``
    and ``horizontal_offsets[k]`` hold the strip boundaries as floats, the
    one copy of them: ``build_decomposition`` computes each once from the
    running counts of the sources (``_offsets``), and ``piece_map``, the
    record section and the figures read them. ``facts`` holds M and the
    facts of M that the stages read.
    """

    facts: MatrixFacts
    eigen: PerronData
    vertical_order: dict[int, tuple[StripLabel, ...]]
    horizontal_order: dict[int, tuple[StripLabel, ...]]
    sigma: dict[int, dict[StripLabel, StripLabel]]
    tau: dict[int, dict[StripLabel, StripLabel]]
    vertical_offsets: dict[int, tuple[float, ...]]
    horizontal_offsets: dict[int, tuple[float, ...]]

    @property
    def n(self) -> int:
        return self.facts.matrix.n

    def rect_width(self, k: int) -> float:
        return self.eigen.omega[k - 1]

    def rect_height(self, k: int) -> float:
        return self.eigen.eta[k - 1]

    def tau_inv(self, k: int) -> dict[StripLabel, StripLabel]:
        return {v: u for u, v in self.tau[k].items()}

    def strip_width(self, label: StripLabel) -> float:
        """lambda^-1 * omega_i of the vertical strip at ``label``, i the
        source of tau_k(label)."""
        if label.orientation != VERTICAL:
            raise InvalidInputError("strip_width expects a vertical label")
        image = self.tau[label.rect][label]
        return self.eigen.omega[image.source - 1] / self.eigen.lam

    def to_json_dict(self) -> dict:
        """The ``decomposition`` section. It leaves out ``matrix`` and
        ``eigen``: the record holds them once, as ``config.matrix`` and the
        ``eigendata`` section. It leaves out ``vertical_order`` and
        ``horizontal_order`` too, the canonical labels of
        ``config.matrix`` (``MatrixFacts.labels``): ``sigma[k]`` and
        ``tau[k]`` are written as the 0-based positions of their images
        in that order, one per domain label in the same order. It leaves
        out the strip boundaries, ``vertical_offsets`` and
        ``horizontal_offsets``, which ``eigendata``, ``sigma``/``tau`` and
        ``config.matrix`` give to the bit."""

        def positions(perm, orders):
            out = {}
            for k, order in orders.items():
                index = {label: i for i, label in enumerate(order)}
                out[str(k)] = [index[perm[k][label]] for label in order]
            return out

        return {
            "sigma": positions(self.sigma, self.horizontal_order),
            "tau": positions(self.tau, self.vertical_order),
        }


def _check_permutation(perm: dict, labels: tuple[StripLabel, ...]):
    label_set = set(labels)
    if set(perm.keys()) != label_set or set(perm.values()) != label_set:
        raise InvalidInputError("permutation does not act on the rectangle's labels")


def _offsets(sources, basis, lam: float) -> tuple[float, ...]:
    """Strip boundary offsets from the start of a rectangle, ``sources``
    giving each strip's index i (1-based), a strip of size
    lambda^-1 * basis_i. The t-th offset is lambda^-1 times the sum of
    count_i * basis_i over the strips before position t, its terms added
    in ascending i, so it costs one term per distinct index so far."""
    counts = {}
    present = []
    out = [0.0]
    for i in sources:
        if i not in counts:
            counts[i] = 0
            insort(present, i)
        counts[i] += 1
        out.append(sum([counts[j] * basis[j - 1] for j in present]) / lam)
    return tuple(out)


def build_decomposition(
    M: IntMatrix | MatrixFacts,
    eigen: PerronData,
    sigma: dict[int, dict[StripLabel, StripLabel]],
    tau: dict[int, dict[StripLabel, StripLabel]],
) -> StripDecomposition:
    """Strip decomposition for M with the permutations sigma and tau,
    which ``corner_selection`` chooses."""
    F = facts(M)
    n = F.matrix.n
    vertical_order, horizontal_order = F.labels
    lam, eta, omega = eigen.lam, eigen.eta, eigen.omega
    vertical_offsets = {}
    horizontal_offsets = {}
    for k in range(1, n + 1):
        _check_permutation(sigma.get(k, {}), horizontal_order[k])
        _check_permutation(tau.get(k, {}), vertical_order[k])
        vertical_offsets[k] = _offsets(
            [tau[k][lab].source for lab in vertical_order[k]], omega, lam
        )
        sigma_inv = {v: u for u, v in sigma[k].items()}
        horizontal_offsets[k] = _offsets(
            [sigma_inv[lab].source for lab in horizontal_order[k]], eta, lam
        )

    return StripDecomposition(
        facts=F,
        eigen=eigen,
        vertical_order=vertical_order,
        horizontal_order=horizontal_order,
        sigma=sigma,
        tau=tau,
        vertical_offsets=vertical_offsets,
        horizontal_offsets=horizontal_offsets,
    )


class PieceMapBranch(NamedTuple):
    """One affine branch of the piece map.

    Maps the vertical strip ``source_label`` (in rectangle k =
    ``source_label.rect``, x in [x0, x0 + omega_i/lambda], full height)
    onto the horizontal strip ``target_label`` (in rectangle i =
    ``target_label.rect``, full width, y in [y0, y0 + eta_k/lambda]) via
    (x, y) -> (lambda*(x - x0), y0 + y/lambda).
    """

    source_label: StripLabel
    target_label: StripLabel
    x0: float
    y0: float


class PieceMap(NamedTuple):
    """All branches of the piece map, indexed by source and target strip.

    ``piece_map`` builds each index once; ``source_index`` and
    ``target_index`` are shared by every reader, which must not change them.
    """

    decomposition: StripDecomposition
    source_index: dict[StripLabel, PieceMapBranch]
    target_index: dict[StripLabel, PieceMapBranch]


def _starts(orders, offsets) -> dict:
    """label -> start offset of every strip, read off the stored
    ``offsets``."""
    return {
        label: offsets[k][t]
        for k, order in orders.items()
        for t, label in enumerate(order)
    }


def piece_map(D: StripDecomposition) -> PieceMap:
    """Piece map of a decomposition: one branch per (k, i, j) arc unit.

    The branch for (k, i, j) carries the vertical strip tau_k^-1(V^(k)_{i,j})
    onto the horizontal strip sigma_i(H^(i)_{k,j}); the labels V^(k)_{i,j}
    are read off the canonical order of Q_k, not off M.
    """
    columns = _starts(D.vertical_order, D.vertical_offsets)
    rows = _starts(D.horizontal_order, D.horizontal_offsets)
    branches = []
    for k, order in D.vertical_order.items():
        tau_inv = D.tau_inv(k)
        for label in order:
            i, j = label.source, label.copy
            src = tau_inv[label]
            tgt = D.sigma[i][StripLabel(HORIZONTAL, i, k, j)]
            branches.append(
                PieceMapBranch(
                    source_label=src,
                    target_label=tgt,
                    x0=columns[src],
                    y0=rows[tgt],
                )
            )
    by_source = {b.source_label: b for b in branches}
    by_target = {b.target_label: b for b in branches}
    if len(by_source) != len(branches) or len(by_target) != len(branches):
        raise InvalidInputError("sigma/tau do not induce a strip bijection")
    return PieceMap(D, by_source, by_target)


def _embedded_cycle_through_first_vertex(successors: list[list[int]]) -> list[int]:
    """Simple directed cycle through vertex 1 (DFS, ascending successors).

    Vertices are 1-based in the result; ``successors[j]`` lists the 0-based
    i with an arc j -> i, i.e. M[i][j] > 0 (``_GraphAnalysis``). The walk
    keeps one successor iterator per vertex on the path, not one Python
    frame, so a cycle longer than the recursion limit is found too.
    """
    path = [0]
    on_path = {0}
    pending = [iter(successors[0])]
    while pending:
        for u in pending[-1]:
            if u == 0:
                return [v + 1 for v in path]
            if u not in on_path:
                path.append(u)
                on_path.add(u)
                pending.append(iter(successors[u]))
                break
        else:
            pending.pop()
            on_path.remove(path.pop())
    raise PreconditionError("no cycle through the first vertex")


def _constrained_completion(
    labels: tuple[StripLabel, ...], pairs: dict[StripLabel, StripLabel]
) -> dict[StripLabel, StripLabel]:
    """Bijection on labels honoring pairs; the rest matched in ascending order."""
    remaining_src = sorted(set(labels) - set(pairs.keys()))
    remaining_tgt = sorted(set(labels) - set(pairs.values()))
    out = dict(pairs)
    out.update(zip(remaining_src, remaining_tgt))
    return out


def corner_selection(M: IntMatrix | MatrixFacts) -> tuple[dict, dict]:
    """sigma/tau making the top-left corner of Q_1 periodic under f_L.

    Along an embedded cycle s_1 = 1, s_2, ..., s_k through the first vertex,
    tau_{s_j} sends the leftmost vertical strip of Q_{s_j} to
    V^(s_j)_{s_{j+1},1} and sigma_{s_{j+1}} sends H^(s_{j+1})_{s_j,1} to the
    topmost horizontal strip; off the constraints, labels are matched in
    ascending order.
    """
    F = facts(M)
    if not F.graph.irreducible:
        raise PreconditionError("corner_selection requires an irreducible matrix")
    vertical, horizontal = F.labels
    n = len(vertical)
    cycle = _embedded_cycle_through_first_vertex(F.graph.successors)
    klen = len(cycle)

    tau_pairs: dict[int, dict] = {k: {} for k in range(1, n + 1)}
    sigma_pairs: dict[int, dict] = {k: {} for k in range(1, n + 1)}
    for t in range(klen):
        s, s_next = cycle[t], cycle[(t + 1) % klen]
        v_min, h_min = vertical[s][0], horizontal[s_next][0]
        tau_pairs[s][v_min] = StripLabel(VERTICAL, s, s_next, 1)
        sigma_pairs[s_next][StripLabel(HORIZONTAL, s_next, s, 1)] = h_min

    tau = {
        k: _constrained_completion(vertical[k], tau_pairs[k]) for k in range(1, n + 1)
    }
    sigma = {
        k: _constrained_completion(horizontal[k], sigma_pairs[k])
        for k in range(1, n + 1)
    }
    return sigma, tau

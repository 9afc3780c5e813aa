"""Boundary edge maps of the piece map and their periodic points.

Four interval maps act on rectangle edges: the left and right edge maps
(restrictions of the piece map to the extreme vertical strips) and the
inverse top and bottom edge maps (inverse branches through the extreme
horizontal strips). Each is an affine contraction with slope 1/lambda on
every full rectangle edge, so each induces a functional digraph on the
rectangle indices, and each digraph cycle carries exactly one periodic
point, available in closed form.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .decomposition import PieceMap
from .errors import InternalConsistencyError, PreconditionError
from .spectral import StripLabel

KINDS = ("L", "R", "T", "B")

#: geometric corner at each end of an edge, per map kind
_CORNER_AT_START = {"L": "TL", "R": "TR", "T": "TL", "B": "BL"}
_CORNER_AT_END = {"L": "BL", "R": "BR", "T": "TR", "B": "BR"}

#: which map kind holds the partner of a corner periodic point
_PARTNER_KIND = {"TL": {"L": "T", "T": "L"}, "BL": {"L": "B", "B": "L"},
                 "TR": {"R": "T", "T": "R"}, "BR": {"R": "B", "B": "R"}}


class EdgeBranch(NamedTuple):
    """Affine action x -> offset0 + x/lam on the full edge of one rectangle,
    the rectangle being its key in ``EdgeMap.branches``; lam is the map's
    ``EdgeMap.lam``. ``target`` is the strip whose end the edge maps onto:
    the piece-map image (L, R) or preimage (T, B) of the rectangle's
    extreme strip (``_side_branch``)."""

    target: StripLabel
    offset0: float

    @property
    def target_rect(self) -> int:
        return self.target.rect

    def apply(self, x: float, lam: float) -> float:
        return self.offset0 + x / lam


class EdgeMap(NamedTuple):
    """One of the four edge maps, as a branch per rectangle.

    ``kind`` is L or R (forward maps on vertical edges) or T or B (inverse
    maps on horizontal edges). ``digraph`` records the functional graph
    rect -> target rect; ``cycles`` its cycles; ``tails[k]`` the number of
    steps from k to the nearest cycle vertex (eventual-period data for
    non-periodic vertices). ``lam`` is the stretch factor, the inverse
    slope of every branch.
    """

    kind: str
    branches: dict[int, EdgeBranch]
    digraph: dict[int, int]
    cycles: tuple[tuple[int, ...], ...]
    tails: dict[int, int]
    lam: float

    def edge_length(self, rect: int, decomposition) -> float:
        if self.kind in ("L", "R"):
            return decomposition.rect_height(rect)
        return decomposition.rect_width(rect)

    def export_digraph(self) -> str:
        return "\n".join(f"{k} {v}" for k, v in sorted(self.digraph.items())) + "\n"


class PeriodicPoint(NamedTuple):
    """Periodic point of one edge map with its orbit bookkeeping.

    The point lies on the edge of rectangle ``rect`` that its map acts on,
    at ``offset`` from the edge's start: downward from the top corner on
    vertical edges (L, R), rightward from the left corner on horizontal
    edges (T, B).

    ``orbit_position`` counts the steps from the orbit's point on its least
    rectangle, and that point is the orbit's initial point (``is_initial``).
    This is the least (rectangle, offset) of the orbit, with each corner
    orbit's initial point on its partner orbit's initial point:

    1. There is one point per edge per map, so the least (rect, offset) of
       an orbit is the point on its least rect.
    2. ``_functional_analysis`` lists each cycle from its least vertex, so
       that point has position 0.
    3. The partners of a corner orbit sit on the same rects and lie in one
       orbit of the same period (``choose_initial_points`` checks this), so
       both orbits have the same least rect: the partner of an initial
       point is initial.

    A corner point's ``partner_key`` names the point of the other map kind
    at the same corner of the same rectangle (``_PARTNER_KIND``).
    """

    map_kind: str
    rect: int
    offset: float
    period: int
    orbit_id: str
    orbit_position: int
    is_corner: bool
    corner_type: str | None = None
    partner_key: tuple[str, int] | None = None

    @property
    def key(self) -> tuple[str, int]:
        """(map kind, rectangle) identifies a point: one per edge per map."""
        return (self.map_kind, self.rect)

    @property
    def is_initial(self) -> bool:
        return self.orbit_position == 0


class EdgeMapSystem(NamedTuple):
    piece_map: PieceMap
    maps: dict[str, EdgeMap]

    @property
    def decomposition(self):
        return self.piece_map.decomposition


def _functional_analysis(digraph: dict[int, int]):
    """Cycles (as vertex tuples, smallest vertex first) and tail lengths.

    One walk from each vertex, iterative since a tail may be longer than
    the recursion limit, stops at a vertex whose tail is known or closes a
    new cycle; the vertices walked then get their tails, counted back.
    """
    tails = {}
    cycles = []
    for start in digraph:
        path = []
        at = {}
        v = start
        while v not in tails:
            if v in at:
                cyc = path[at[v]:]
                del path[at[v]:]
                tails.update(dict.fromkeys(cyc, 0))
                i = cyc.index(min(cyc))
                cycles.append(tuple(cyc[i:] + cyc[:i]))
                break
            at[v] = len(path)
            path.append(v)
            v = digraph[v]
        depth = tails[v]
        for u in reversed(path):
            depth += 1
            tails[u] = depth
    cycles.sort()
    return tuple(cycles), {v: tails[v] for v in digraph}


def _side_branch(P: PieceMap, kind: str, label: StripLabel) -> EdgeBranch:
    """The ``kind`` edge-map branch through the strip ``label``: the strip
    that its piece-map branch maps it onto (L, R; ``label`` vertical) or
    from (T, B; ``label`` horizontal), at that branch's offset."""
    if kind in ("L", "R"):
        br = P.source_index[label]
        return EdgeBranch(br.target_label, br.y0)
    br = P.target_index[label]
    return EdgeBranch(br.source_label, br.x0)


def build_edge_maps(P: PieceMap) -> EdgeMapSystem:
    """The four edge maps induced by a piece map.

    The left (right) edge map follows the branch of the leftmost (rightmost)
    vertical strip of each rectangle; the inverse top (bottom) edge map
    follows the inverse branch through the topmost (bottommost) horizontal
    strip. All slopes are exactly 1/lambda.
    """
    D = P.decomposition
    # An irreducible non-negative integer M has its spectral radius between
    # its least and greatest row sums, equal to the least only when all row
    # sums are equal; so it is 1 exactly when every row sums to 1.
    if all(sum(row) == 1 for row in D.facts.matrix.entries):
        raise PreconditionError("edge dynamics require spectral radius > 1")
    maps = {}
    for kind in KINDS:
        orders = D.vertical_order if kind in ("L", "R") else D.horizontal_order
        end = 0 if kind in ("L", "T") else -1
        branches = {r: _side_branch(P, kind, orders[r][end])
                    for r in range(1, D.n + 1)}
        digraph = {r: b.target_rect for r, b in branches.items()}
        cycles, tails = _functional_analysis(digraph)
        maps[kind] = EdgeMap(kind, branches, digraph, cycles, tails, D.eigen.lam)
    return EdgeMapSystem(piece_map=P, maps=maps)


def composed_branch(E: EdgeMap, start: int, steps: int) -> tuple[int, float]:
    """steps-fold composition from rectangle ``start``.

    Returns (final rectangle, offset b) with the composition acting as
    x -> lam^-steps * x + b.
    """
    lam = E.lam
    b = 0.0
    v = start
    for _ in range(steps):
        br = E.branches[v]
        b = br.offset0 + b / lam
        v = br.target_rect
    return v, b


def periodic_points(E: EdgeMap, decomposition) -> list[PeriodicPoint]:
    """Unique periodic point on each edge of each digraph cycle.

    The p-fold composition from a cycle vertex is x -> lam^-p * x + b, whose
    fixed point is b / (1 - lam^-p). Corner status is decided exactly: the
    point sits at the starting (resp. far) corner of its edge if and only if
    every branch around the cycle targets the first (resp. last) strip of
    its rectangle, in horizontal (L, R) or vertical (T, B) order.
    Each orbit is listed from its point on its least rectangle, position 0,
    its initial point; a corner point names its partner on the same
    rectangle.
    """
    lam = E.lam
    across = (decomposition.horizontal_order if E.kind in ("L", "R")
              else decomposition.vertical_order)
    points = []
    for cyc in E.cycles:
        p = len(cyc)
        orbit_id = f"{E.kind}:{cyc[0]}"
        targets = [E.branches[v].target for v in cyc]
        all_first = all(s == across[s.rect][0] for s in targets)
        all_last = all(s == across[s.rect][-1] for s in targets)
        if all_first and all_last:
            raise InternalConsistencyError(
                f"cycle {cyc} in {E.kind} is simultaneously first and last"
            )
        for pos, v in enumerate(cyc):
            if all_first:
                x = 0.0
                corner = _CORNER_AT_START[E.kind]
            elif all_last:
                x = E.edge_length(v, decomposition)
                corner = _CORNER_AT_END[E.kind]
            else:
                _, b = composed_branch(E, v, p)
                x = b / (1.0 - lam ** (-p))
                corner = None
            points.append(
                PeriodicPoint(
                    map_kind=E.kind,
                    rect=v,
                    offset=x,
                    period=p,
                    orbit_id=orbit_id,
                    orbit_position=pos,
                    is_corner=corner is not None,
                    corner_type=corner,
                    partner_key=(
                        None if corner is None
                        else (_PARTNER_KIND[corner][E.kind], v)
                    ),
                )
            )
    return points


def all_periodic_points(system: EdgeMapSystem) -> dict[str, list[PeriodicPoint]]:
    D = system.decomposition
    return {kind: periodic_points(system.maps[kind], D) for kind in KINDS}


def link_corner_partners(points: dict[str, list[PeriodicPoint]]) -> None:
    """Check that every corner periodic point has its counterpart.

    A corner of the left or right edge map is the same geometric point as a
    corner of the inverse top or bottom edge map on the same rectangle; the
    two must exist together, name each other and share their period.
    """
    index = {pt.key: pt for pts in points.values() for pt in pts}
    for pts in points.values():
        for pt in pts:
            if not pt.is_corner:
                continue
            partner = index.get(pt.partner_key)
            if (
                partner is None
                or not partner.is_corner
                or partner.corner_type != pt.corner_type
                or partner.period != pt.period
                or partner.partner_key != pt.key
            ):
                raise InternalConsistencyError(
                    f"corner point {pt.key} ({pt.corner_type}) lacks a "
                    f"matching partner of period {pt.period}"
                )


def choose_initial_points(points: dict[str, list[PeriodicPoint]]) -> None:
    """Check that each corner orbit's partners fill one orbit, and that the
    partner of an initial point is initial.

    The initial point of an orbit is its point at position 0 (see
    ``PeriodicPoint``). Run after ``link_corner_partners``: with mutual
    partners of equal corner type, ``_PARTNER_KIND`` is an involution, so a
    pairing of orbits cannot be one-sided.
    """
    index = {pt.key: pt for pts in points.values() for pt in pts}
    for pts in points.values():
        partner_orbits: dict[str, set[tuple[str, str]]] = {}
        for pt in pts:
            if pt.is_corner:
                partner = index[pt.partner_key]
                partner_orbits.setdefault(pt.orbit_id, set()).add(
                    (partner.map_kind, partner.orbit_id)
                )
                if pt.is_initial and not partner.is_initial:
                    raise InternalConsistencyError(
                        f"initial point {pt.key} has the non-initial partner "
                        f"{partner.key}"
                    )
        for orbit_id, orbits in partner_orbits.items():
            if len(orbits) != 1:
                raise InternalConsistencyError(
                    f"corner orbit {orbit_id} pairs with several orbits {orbits}"
                )


def max_escape_depth(system: EdgeMapSystem) -> int:
    """k + 2*max(p): k the longest tail to a periodic vertex, p over periods."""
    k = 0
    max_p = 1
    for E in system.maps.values():
        if E.tails:
            k = max(k, max(E.tails.values()))
        for cyc in E.cycles:
            max_p = max(max_p, len(cyc))
    return k + 2 * max_p


def nesting_period(system: EdgeMapSystem) -> int:
    """Least common multiple of the periods of every cycle across the four
    edge maps: the least depth shift that returns every strip-boundary
    segment to its strip (see ``enumerate_identifications``)."""
    return math.lcm(*(len(cyc) for E in system.maps.values() for cyc in E.cycles))


def census_rows(points: dict[str, list[PeriodicPoint]]) -> list[dict]:
    """One JSON-ready row per periodic point, map by map in ``KINDS`` order:
    its map, rect and corner, the vertex of ``edge_digraphs[map]`` that
    the point sits on and whether it sits at a corner of its edge.

    The cycle of ``digraph[map]`` through the rect gives the rest: the
    period is its length, the orbit id ``"<map>:<i0>"`` with i0 its least
    rect, the orbit position the steps from i0, and the initial point the
    row on i0. The offset is 0.0 or the edge length at a corner, else the
    fixed point b / (1 - lambda^-p) of the cycle's composed branch, whose
    b the eigendata and ``decomposition`` give.
    """
    return [
        {"map": pt.map_kind, "rect": pt.rect, "corner": pt.corner_type}
        for kind in KINDS
        for pt in points[kind]
    ]


def census_json(points: dict[str, list[PeriodicPoint]]) -> str:
    return json.dumps(census_rows(points), sort_keys=True, indent=2)

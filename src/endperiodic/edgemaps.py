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
from dataclasses import dataclass, field

from .decomposition import PieceMap, StripLabel
from .errors import InternalConsistencyError, PreconditionError

KINDS = ("L", "R", "T", "B")

#: geometric corner at each end of an edge, per map kind
_CORNER_AT_START = {"L": "TL", "R": "TR", "T": "TL", "B": "BL"}
_CORNER_AT_END = {"L": "BL", "R": "BR", "T": "TR", "B": "BR"}

#: which map kind holds the partner of a corner periodic point
_PARTNER_KIND = {"TL": {"L": "T", "T": "L"}, "BL": {"L": "B", "B": "L"},
                 "TR": {"R": "T", "T": "R"}, "BR": {"R": "B", "B": "R"}}


@dataclass(frozen=True)
class EdgeCoordinate:
    """Point on a rectangle edge.

    Offsets run downward from the top corner on vertical sides (L, R) and
    rightward from the left corner on horizontal sides (T, B).
    """

    rect: int
    side: str
    offset: float


@dataclass(frozen=True)
class EdgeBranch:
    """Affine action x -> offset0 + x/lam on the full edge of one rectangle."""

    source_rect: int
    target_rect: int
    offset0: float
    lam: float
    strip: StripLabel
    targets_first: bool
    targets_last: bool

    def apply(self, x: float) -> float:
        return self.offset0 + x / self.lam


@dataclass(frozen=True)
class EdgeMap:
    """One of the four edge maps, as a branch per rectangle.

    ``kind`` is L or R (forward maps on vertical edges) or T or B (inverse
    maps on horizontal edges). ``digraph`` records the functional graph
    rect -> target rect; ``cycles`` its cycles; ``tails[k]`` the number of
    steps from k to the nearest cycle vertex (eventual-period data for
    non-periodic vertices).
    """

    kind: str
    branches: dict[int, EdgeBranch]
    digraph: dict[int, int]
    cycles: tuple[tuple[int, ...], ...] = field(repr=False)
    tails: dict[int, int] = field(repr=False)

    def apply(self, point: EdgeCoordinate) -> EdgeCoordinate:
        br = self.branches[point.rect]
        return EdgeCoordinate(br.target_rect, self.kind, br.apply(point.offset))

    def edge_length(self, rect: int, decomposition) -> float:
        if self.kind in ("L", "R"):
            return decomposition.rect_height(rect)
        return decomposition.rect_width(rect)

    def export_digraph(self) -> str:
        return "\n".join(f"{k} {v}" for k, v in sorted(self.digraph.items())) + "\n"


@dataclass
class PeriodicPoint:
    """Periodic point of one edge map with its orbit bookkeeping."""

    map_kind: str
    location: EdgeCoordinate
    period: int
    orbit_id: str
    orbit_position: int
    is_corner: bool
    corner_type: str | None = None
    partner_key: tuple[str, int] | None = None
    is_initial: bool = False

    @property
    def key(self) -> tuple[str, int]:
        """(map kind, rectangle) identifies a point: one per edge per map."""
        return (self.map_kind, self.location.rect)


@dataclass(frozen=True)
class EdgeMapSystem:
    piece_map: PieceMap
    maps: dict[str, EdgeMap]

    @property
    def decomposition(self):
        return self.piece_map.decomposition


def _functional_analysis(digraph: dict[int, int]):
    """Cycles (as vertex tuples, smallest vertex first) and tail lengths."""
    on_cycle = set()
    color = {}
    for start in digraph:
        path = []
        v = start
        while color.get(v) is None:
            color[v] = start
            path.append(v)
            v = digraph[v]
        if color[v] == start and v in path:
            cyc = path[path.index(v):]
            on_cycle.update(cyc)
    cycles = []
    seen = set()
    for v in sorted(on_cycle):
        if v in seen:
            continue
        cyc = [v]
        u = digraph[v]
        while u != v:
            cyc.append(u)
            u = digraph[u]
        seen.update(cyc)
        cycles.append(tuple(cyc))
    tails = {}

    def tail(v: int) -> int:
        if v in on_cycle:
            return 0
        if v not in tails:
            tails[v] = 1 + tail(digraph[v])
        return tails[v]

    return tuple(cycles), {v: tail(v) for v in digraph}


def build_edge_maps(P: PieceMap) -> EdgeMapSystem:
    """The four edge maps induced by a piece map.

    The left (right) edge map follows the branch of the leftmost (rightmost)
    vertical strip of each rectangle; the inverse top (bottom) edge map
    follows the inverse branch through the topmost (bottommost) horizontal
    strip. All slopes are exactly 1/lambda.
    """
    D = P.decomposition
    lam = D.eigen.lam
    if lam <= 1.0 + 1e-9:
        raise PreconditionError("edge dynamics require spectral radius > 1")
    by_source = P.by_source()
    by_target = P.by_target()
    n = D.n
    maps = {}

    for kind in ("L", "R"):
        branches = {}
        for k in range(1, n + 1):
            order = D.vertical_order[k]
            strip = order[0] if kind == "L" else order[-1]
            br = by_source[strip]
            i = br.target_rect
            tgt_order = D.horizontal_order[i]
            branches[k] = EdgeBranch(
                source_rect=k,
                target_rect=i,
                offset0=br.y0,
                lam=lam,
                strip=strip,
                targets_first=br.target_label == tgt_order[0],
                targets_last=br.target_label == tgt_order[-1],
            )
        digraph = {k: b.target_rect for k, b in branches.items()}
        cycles, tails = _functional_analysis(digraph)
        maps[kind] = EdgeMap(kind, branches, digraph, cycles, tails)

    for kind in ("T", "B"):
        branches = {}
        for i in range(1, n + 1):
            order = D.horizontal_order[i]
            strip = order[0] if kind == "T" else order[-1]
            br = by_target[strip]
            k = br.source_rect
            src_order = D.vertical_order[k]
            branches[i] = EdgeBranch(
                source_rect=i,
                target_rect=k,
                offset0=br.x0,
                lam=lam,
                strip=strip,
                targets_first=br.source_label == src_order[0],
                targets_last=br.source_label == src_order[-1],
            )
        digraph = {i: b.target_rect for i, b in branches.items()}
        cycles, tails = _functional_analysis(digraph)
        maps[kind] = EdgeMap(kind, branches, digraph, cycles, tails)

    return EdgeMapSystem(piece_map=P, maps=maps)


def composed_branch(E: EdgeMap, start: int, steps: int) -> tuple[int, float]:
    """steps-fold composition from rectangle ``start``.

    Returns (final rectangle, offset b) with the composition acting as
    x -> lam^-steps * x + b.
    """
    lam = next(iter(E.branches.values())).lam
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
    every branch around the cycle targets the first (resp. last) strip.
    """
    lam = next(iter(E.branches.values())).lam
    points = []
    for cyc in E.cycles:
        p = len(cyc)
        orbit_id = f"{E.kind}:{cyc[0]}"
        all_first = all(E.branches[v].targets_first for v in cyc)
        all_last = all(E.branches[v].targets_last for v in cyc)
        if all_first and all_last:
            raise InternalConsistencyError(
                f"cycle {cyc} in {E.kind} is simultaneously first and last"
            )
        for pos, v in enumerate(cyc):
            _, b = composed_branch(E, v, p)
            if all_first:
                x = 0.0
                corner = _CORNER_AT_START[E.kind]
            elif all_last:
                x = E.edge_length(v, decomposition)
                corner = _CORNER_AT_END[E.kind]
            else:
                x = b / (1.0 - lam ** (-p))
                corner = None
            points.append(
                PeriodicPoint(
                    map_kind=E.kind,
                    location=EdgeCoordinate(v, E.kind, x),
                    period=p,
                    orbit_id=orbit_id,
                    orbit_position=pos,
                    is_corner=corner is not None,
                    corner_type=corner,
                )
            )
    return points


def all_periodic_points(system: EdgeMapSystem) -> dict[str, list[PeriodicPoint]]:
    D = system.decomposition
    return {kind: periodic_points(system.maps[kind], D) for kind in KINDS}


def link_corner_partners(points: dict[str, list[PeriodicPoint]]) -> None:
    """Pair every corner periodic point with its counterpart.

    A corner of the left or right edge map is the same geometric point as a
    corner of the inverse top or bottom edge map on the same rectangle; the
    two must exist together and share their period.
    """
    index = {pt.key: pt for pts in points.values() for pt in pts}
    for pts in points.values():
        for pt in pts:
            if not pt.is_corner:
                continue
            other_kind = _PARTNER_KIND[pt.corner_type][pt.map_kind]
            partner = index.get((other_kind, pt.location.rect))
            if (
                partner is None
                or not partner.is_corner
                or partner.corner_type != pt.corner_type
                or partner.period != pt.period
            ):
                raise InternalConsistencyError(
                    f"corner point {pt.key} ({pt.corner_type}) lacks a "
                    f"matching partner of period {pt.period}"
                )
            pt.partner_key = partner.key


def choose_initial_points(points: dict[str, list[PeriodicPoint]]) -> None:
    """Mark exactly one initial point per orbit.

    Default choice is the least (rectangle, offset) in each orbit; when an
    orbit's initial point is a corner, the partner orbit's initial point is
    forced to the partner point. A forced assignment that contradicts an
    earlier forced assignment cannot occur geometrically and raises an
    internal error.
    """
    index = {pt.key: pt for pts in points.values() for pt in pts}
    orbits: dict[tuple[str, str], list[PeriodicPoint]] = {}
    for kind in KINDS:
        for pt in points[kind]:
            orbits.setdefault((kind, pt.orbit_id), []).append(pt)

    paired: dict[tuple[str, str], tuple[str, str]] = {}
    for okey, pts in orbits.items():
        if not pts[0].is_corner:
            continue
        partner_orbits = set()
        for pt in pts:
            partner = index[pt.partner_key]
            partner_orbits.add((partner.map_kind, partner.orbit_id))
        if len(partner_orbits) != 1:
            raise InternalConsistencyError(
                f"corner orbit {okey} pairs with several orbits {partner_orbits}"
            )
        paired[okey] = partner_orbits.pop()
    for okey, pokey in paired.items():
        if paired.get(pokey) != okey:
            raise InternalConsistencyError(
                f"corner pairing between orbits {okey} and {pokey} is one-sided"
            )

    handled: set[tuple[str, str]] = set()
    for okey in sorted(orbits, key=lambda kv: (KINDS.index(kv[0]), kv[1])):
        if okey in handled:
            continue
        chosen = min(
            orbits[okey], key=lambda pt: (pt.location.rect, pt.location.offset)
        )
        chosen.is_initial = True
        handled.add(okey)
        if okey in paired:
            partner = index[chosen.partner_key]
            partner.is_initial = True
            handled.add(paired[okey])
    for pts in orbits.values():
        if sum(pt.is_initial for pt in pts) != 1:
            raise InternalConsistencyError("orbit without a unique initial point")


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
    """Product of the periods of every cycle across the four edge maps."""
    m = 1
    for E in system.maps.values():
        for cyc in E.cycles:
            m *= len(cyc)
    return m


def census_rows(points: dict[str, list[PeriodicPoint]]) -> list[dict]:
    """One JSON-ready row per periodic point, map by map in ``KINDS`` order."""
    return [
        {
            "map": pt.map_kind,
            "rect": pt.location.rect,
            "offset": pt.location.offset,
            "period": pt.period,
            "orbit": pt.orbit_id,
            "position": pt.orbit_position,
            "corner": pt.corner_type,
            "initial": pt.is_initial,
        }
        for kind in KINDS
        for pt in points[kind]
    ]


def census_json(points: dict[str, list[PeriodicPoint]]) -> str:
    return json.dumps(census_rows(points), sort_keys=True, indent=2)

"""Infinite-strip attachment, boundary identifications, and the surface report.

Each periodic point of an edge map receives an infinite strip
[0,1] x [0,oo); the strip base is glued onto a small interval around the
point, the image of the full rectangle edge under 2p+j iterations of the
edge map. The extended map acts on strips as a translation (one unit shift
per orbit period, applied at the initial point), so boundary dynamics
eventually stabilize: iterated images of boundary segments land in strip
boundaries and then march upward.

Identifications are certified at segment granularity: each interior strip
boundary (a point set shared by two adjacent strips of a rectangle) yields,
per depth, a pair of identified image segments. Endpoint nodes of these
segments, merged up to coordinate tolerance plus exact corner aliasing,
form equivalence classes whose census drives the surface report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice

from .edgemaps import (
    KINDS,
    EdgeMapSystem,
    PeriodicPoint,
    composed_branch,
    max_escape_depth,
    nesting_period,
)
from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    PreconditionError,
)
from .spectral import COORD_TOL, wielandt_bound, is_block_lift_of, IntMatrix

_TRANSFER_TOL = 1e-9


@dataclass(frozen=True)
class InfiniteStrip:
    """One infinite strip [0,1] x [0,oo) attached at a periodic point.

    The base [0,1] x {0} is glued onto ``(lo, hi)`` of the ``side`` edge of
    rectangle ``rect``. On vertical sides z runs against the edge offset
    (z = 0 at the far corner); on horizontal sides z runs with it.
    """

    key: tuple[str, int]
    kind: str
    orbit_id: str
    period: int
    j: int
    rect: int
    side: str
    lo: float
    hi: float
    shift_on_initial: bool

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def offset_to_z(self, offset: float) -> float:
        if self.kind in ("L", "R"):
            return (self.hi - offset) / self.length
        return (offset - self.lo) / self.length

    def z_to_offset(self, z: float) -> float:
        if self.kind in ("L", "R"):
            return self.hi - z * self.length
        return self.lo + z * self.length


def attach_strips(
    system: EdgeMapSystem, points: dict[str, list[PeriodicPoint]]
) -> dict[tuple[str, int], InfiniteStrip]:
    """One strip per periodic point, glued per the 2p+j composition rule.

    For the point x_j (j steps after the initial point of its orbit, which
    lives on the edge of Q_i0), the base of the strip is glued onto
    f^(2p+j) of the full edge of Q_i0.
    """
    D = system.decomposition
    strips = {}
    for kind in KINDS:
        E = system.maps[kind]
        for pts_in_orbit in _orbits(points[kind]).values():
            initial = next(pt for pt in pts_in_orbit if pt.is_initial)
            p = initial.period
            i0 = initial.location.rect
            edge_len = E.edge_length(i0, D)
            for pt in pts_in_orbit:
                j = (pt.orbit_position - initial.orbit_position) % p
                rect, b = composed_branch(E, i0, 2 * p + j)
                if rect != pt.location.rect:
                    raise InternalConsistencyError(
                        "attachment landed on the wrong rectangle edge"
                    )
                lam = D.eigen.lam
                lo = b
                hi = b + edge_len * lam ** -(2 * p + j)
                host_len = E.edge_length(rect, D)
                if lo < -_TRANSFER_TOL or hi > host_len + _TRANSFER_TOL:
                    raise InternalConsistencyError("attachment leaves its host edge")
                if not (lo - _TRANSFER_TOL <= pt.location.offset <= hi + _TRANSFER_TOL):
                    raise InternalConsistencyError(
                        "attachment misses its periodic point"
                    )
                strips[pt.key] = InfiniteStrip(
                    key=pt.key,
                    kind=kind,
                    orbit_id=pt.orbit_id,
                    period=p,
                    j=j,
                    rect=rect,
                    side=kind,
                    lo=lo,
                    hi=hi,
                    shift_on_initial=pt.is_initial,
                )
    _check_attachments_disjoint(strips)
    return strips


def _orbits(points: list[PeriodicPoint]) -> dict[str, list[PeriodicPoint]]:
    out: dict[str, list[PeriodicPoint]] = {}
    for pt in points:
        out.setdefault(pt.orbit_id, []).append(pt)
    return out


def _check_attachments_disjoint(strips) -> None:
    by_edge: dict[tuple[int, str], list[InfiniteStrip]] = {}
    for s in strips.values():
        by_edge.setdefault((s.rect, s.side), []).append(s)
    for edge_strips in by_edge.values():
        spans = sorted((s.lo, s.hi) for s in edge_strips)
        for (a, b), (c, d) in zip(spans, spans[1:]):
            if c < b - _TRANSFER_TOL:
                raise InternalConsistencyError("overlapping strip attachments")


@dataclass(frozen=True)
class ExtendedPieceMap:
    """The extended map: base piece map, strips, and periodic points by key."""

    system: EdgeMapSystem
    strips: dict[tuple[str, int], InfiniteStrip]
    points: dict[str, list[PeriodicPoint]]
    point_index: dict[tuple[str, int], PeriodicPoint]


def build_extended_map(
    system: EdgeMapSystem,
    strips: dict[tuple[str, int], InfiniteStrip],
    points: dict[str, list[PeriodicPoint]],
) -> ExtendedPieceMap:
    """Bundle the strips with the piece map and index the periodic points."""
    return ExtendedPieceMap(
        system=system,
        strips=strips,
        points=points,
        point_index={pt.key: pt for pts in points.values() for pt in pts},
    )


# ---------------------------------------------------------------------------
# symbolic boundary dynamics

# states:
#   ("E", rect, side, a, b)    segment on a rectangle edge; a is the image of
#                              the generator's first endpoint
#   ("S", key, za, zb, w)      segment on a strip boundary at height w


def _transfer(state, strips):
    if state[0] != "E":
        return state
    _, rect, side, a, b = state
    strip = strips.get((side, rect))
    if strip is None:
        return state
    lo, hi = min(a, b), max(a, b)
    if lo >= strip.lo - _TRANSFER_TOL and hi <= strip.hi + _TRANSFER_TOL:
        return ("S", strip.key, strip.offset_to_z(a), strip.offset_to_z(b), 0)
    return state


def _advance(state, kind, ext: ExtendedPieceMap):
    """One application of the extended edge map to a boundary segment."""
    state = _transfer(state, ext.strips)
    if state[0] == "S":
        _, key, za, zb, w = state
        _, rect = key
        E = ext.system.maps[kind]
        next_rect = E.digraph[rect]
        index = ext.point_index
        if kind in ("L", "R"):
            shift = 1 if index[(kind, next_rect)].is_initial else 0
        else:
            shift = 1 if index[(kind, rect)].is_initial else 0
        return ("S", (kind, next_rect), za, zb, w + shift)
    _, rect, side, a, b = state
    br = ext.system.maps[kind].branches[rect]
    return _transfer(
        ("E", br.target_rect, side, br.apply(a), br.apply(b)), ext.strips
    )


@dataclass(frozen=True)
class GeneratorTrace:
    """Dynamics of one interior-boundary generator.

    ``pair_states[d]`` holds the two identified image segments at depth
    d+1: the (left, right) images for an X generator (interior vertical
    edge), or the (top, bottom) images for a Y generator (interior
    horizontal edge). ``stabilization_depth`` is the first depth at which
    both images live on strip boundaries, if reached within the cap.
    """

    gen_id: str
    family: str
    rect: int
    position: float
    source_length: float
    kinds: tuple[str, str]
    pair_states: tuple[tuple[tuple, tuple], ...]
    stabilization_depth: int | None
    periodic_tail: tuple[dict, dict]


@dataclass(frozen=True)
class IdentificationSchema:
    generators: tuple[GeneratorTrace, ...]
    depth_cap: int
    escape_depth: int
    nesting_period: int

    def to_json_dict(self) -> dict:
        """The ``identifications`` section.

        ``pairs`` is each generator's ``pair_states`` itself, a tuple of
        state tuples, not a copy: JSON writes a tuple as an array, so the
        text is the same as for nested lists.
        """
        return {
            "depth_cap": self.depth_cap,
            "escape_depth": self.escape_depth,
            "nesting_period": self.nesting_period,
            "generators": [
                {
                    "id": g.gen_id,
                    "family": g.family,
                    "rect": g.rect,
                    "position": g.position,
                    "kinds": list(g.kinds),
                    "stabilization_depth": g.stabilization_depth,
                    "periodic_tail": list(g.periodic_tail),
                    "pairs": g.pair_states,
                }
                for g in self.generators
            ],
        }


def _eventual_orbit(E, rect: int) -> str:
    """Orbit id of the cycle eventually reached from ``rect``."""
    v = rect
    for _ in range(len(E.digraph) + 1):
        if E.tails[v] == 0:
            break
        v = E.digraph[v]
    for cyc in E.cycles:
        if v in cyc:
            return f"{E.kind}:{cyc[0]}"
    raise InternalConsistencyError("functional digraph without a reachable cycle")


def _tail_record(E, state) -> dict:
    rect = state[1][1] if state[0] == "S" else state[1]
    orbit = _eventual_orbit(E, rect)
    period = next(len(c) for c in E.cycles if f"{E.kind}:{c[0]}" == orbit)
    return {"kind": E.kind, "orbit": orbit, "period": period, "shift_per_period": 1}


def enumerate_identifications(
    ext: ExtendedPieceMap, depth_cap: int | None = None
) -> IdentificationSchema:
    """All identified segment pairs up to depth_cap, plus periodic tails.

    Each interior strip boundary generates one identified pair per depth;
    depths beyond escape lie in strip boundaries and advance by unit
    translation once per orbit period, so the bounded table plus the tail
    record certifies the full relation.
    """
    system = ext.system
    D = system.decomposition
    N = max_escape_depth(system)
    m = nesting_period(system)
    if depth_cap is None:
        depth_cap = N + 3 * m
    if depth_cap < N:
        raise InvalidInputError(f"depth_cap {depth_cap} below escape depth {N}")

    by_source = system.piece_map.by_source()
    by_target = system.piece_map.by_target()
    lam = D.eigen.lam
    traces = []
    for k in range(1, D.n + 1):
        vorder = D.vertical_order[k]
        for t in range(1, len(vorder)):
            pos = D.vertical_boundaries[k][t].evaluate(D.eigen)
            height = D.rect_height(k)
            br_right = by_source[vorder[t]]
            br_left = by_source[vorder[t - 1]]
            first = (
                ("E", br_right.target_rect, "L", br_right.y0,
                 br_right.y0 + height / lam),
                ("E", br_left.target_rect, "R", br_left.y0,
                 br_left.y0 + height / lam),
            )
            traces.append(
                _trace(ext, f"X:{k}:{t}", "X", k, pos, height, ("L", "R"),
                       first, depth_cap)
            )
        horder = D.horizontal_order[k]
        for t in range(1, len(horder)):
            pos = D.horizontal_boundaries[k][t].evaluate(D.eigen)
            width = D.rect_width(k)
            br_below = by_target[horder[t]]
            br_above = by_target[horder[t - 1]]
            first = (
                ("E", br_below.source_rect, "T", br_below.x0,
                 br_below.x0 + width / lam),
                ("E", br_above.source_rect, "B", br_above.x0,
                 br_above.x0 + width / lam),
            )
            traces.append(
                _trace(ext, f"Y:{k}:{t}", "Y", k, pos, width, ("T", "B"),
                       first, depth_cap)
            )
    return IdentificationSchema(
        generators=tuple(traces),
        depth_cap=depth_cap,
        escape_depth=N,
        nesting_period=m,
    )


def _trace(ext, gen_id, family, rect, pos, source_length, kinds, first, depth_cap):
    a, b = (_transfer(s, ext.strips) for s in first)
    pairs = [(a, b)]
    for _ in range(depth_cap - 1):
        a = _advance(a, kinds[0], ext)
        b = _advance(b, kinds[1], ext)
        pairs.append((a, b))
    stabilization = None
    for d, (x, y) in enumerate(pairs, start=1):
        if x[0] == "S" and y[0] == "S":
            stabilization = d
            break
    tails = (
        _tail_record(ext.system.maps[kinds[0]], pairs[-1][0]),
        _tail_record(ext.system.maps[kinds[1]], pairs[-1][1]),
    )
    return GeneratorTrace(
        gen_id=gen_id,
        family=family,
        rect=rect,
        position=pos,
        source_length=source_length,
        kinds=kinds,
        pair_states=tuple(pairs),
        stabilization_depth=stabilization,
        periodic_tail=tails,
    )


# ---------------------------------------------------------------------------
# node registry and class census


class _NodeRegistry:
    """Dense integer ids for quantized points on edges and strip boundaries.

    ``node_id`` gives each geometric point an ``int`` id the first time it
    sees it; ``nodes[i]`` is the node tuple of id ``i``, so ids run
    0, 1, 2, ... in order of first sight. Positions within coordinate
    tolerance of 0 or of the edge length (of 0 or 1 on strips) snap there;
    rectangle corners and strip base corners are aliased to a single
    canonical corner node, since the same geometric point appears under
    several coordinate descriptions. Any other position joins the first
    bin of its edge (or strip level) within tolerance.
    """

    def __init__(self, decomposition, strips):
        self.D = decomposition
        self.strips = strips
        self.nodes: list[tuple] = []
        self._corner_ids: dict[tuple, int] = {}
        # bins hold ids; a bin's position is ``nodes[i][3]``. There is one
        # strip bin per strip level, so those are tuples: the collector does
        # not track a tuple that holds only ints.
        self._edge_bins: dict[tuple[int, str], list[int]] = {}
        self._strip_bins: dict[tuple, tuple[int, ...]] = {}

    def _new(self, node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def _edge_len(self, rect, side):
        return (
            self.D.rect_height(rect) if side in ("L", "R") else self.D.rect_width(rect)
        )

    def edge_id(self, rect, side, pos) -> int:
        length = self._edge_len(rect, side)
        if abs(pos) <= COORD_TOL:
            pos = 0.0
        if abs(pos - length) <= COORD_TOL:
            pos = length
        corner = _corner_alias(rect, side, pos, length)
        if corner is not None:
            i = self._corner_ids.get(corner)
            if i is None:
                i = self._corner_ids[corner] = self._new(corner)
            return i
        nodes = self.nodes
        bins = self._edge_bins.setdefault((rect, side), [])
        for i in bins:
            if abs(nodes[i][3] - pos) <= COORD_TOL:
                return i
        i = self._new(("E", rect, side, pos))
        bins.append(i)
        return i

    def strip_id(self, key, z, w) -> int:
        if abs(z) <= COORD_TOL:
            z = 0.0
        elif abs(z - 1.0) <= COORD_TOL:
            z = 1.0
        if w == 0 and (z == 0.0 or z == 1.0):
            strip = self.strips[key]
            return self.edge_id(strip.rect, strip.side, strip.z_to_offset(z))
        nodes = self.nodes
        bins = self._strip_bins.get((key, w), ())
        for i in bins:
            if abs(nodes[i][3] - z) <= COORD_TOL:
                return i
        i = self._new(("S", key, w, z))
        self._strip_bins[(key, w)] = bins + (i,)
        return i

    def node_id(self, state, endpoint: int) -> int:
        if state[0] == "E":
            return self.edge_id(state[1], state[2], state[3 + endpoint])
        return self.strip_id(state[1], state[2 + endpoint], state[4])


def _corner_alias(rect, side, pos, length):
    at_zero = pos == 0.0
    at_end = pos == length
    if not (at_zero or at_end):
        return None
    corner = {
        ("L", True): "TL", ("L", False): "BL",
        ("R", True): "TR", ("R", False): "BR",
        ("T", True): "TL", ("T", False): "TR",
        ("B", True): "BL", ("B", False): "BR",
    }[(side, at_zero)]
    return ("C", rect, corner)


def _find(parent, x):
    """Root of ``x`` in a union-find forest ``parent`` (a list or a dict),
    compressing the path it walks."""
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _union(parent, a, b) -> None:
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[ra] = rb


@dataclass(frozen=True)
class EquivalenceClass:
    nodes: tuple
    infinite: bool
    link_type: str | None
    strip_keys: tuple

    @property
    def size(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class ClassCensus:
    """Finite-class counts and the infinite classes of one classify pass.

    ``nodes`` (id -> node tuple) and ``parent`` (id -> union-find root,
    fully compressed) are the registry and the forest of the pass; the
    record reads neither. ``classes`` is built from them on first read and
    then cached: the finite classes first, in order of their smallest id,
    each listing its nodes in tuple order, then ``infinite_classes``.
    """

    finite_singletons: int
    finite_pairs: int
    oversized_finite: int
    infinite_classes: tuple[EquivalenceClass, ...]
    nodes: list[tuple] = field(repr=False, compare=False)
    parent: list[int] = field(repr=False, compare=False)

    @cached_property
    def classes(self) -> tuple[EquivalenceClass, ...]:
        nodes = self.nodes
        groups: dict[int, list[tuple]] = {}
        for i, root in enumerate(self.parent):
            group = groups.get(root)
            if group is None:
                groups[root] = [nodes[i]]
            else:
                group.append(nodes[i])
        finite = tuple(
            EquivalenceClass(
                nodes=tuple(sorted(group)),
                infinite=False,
                link_type=None,
                strip_keys=_strip_keys(group),
            )
            for group in groups.values()
            # classify_classes's rule: only a class of three or more nodes
            # or with a corner node can be infinite
            if len(group) <= 2 and all(node[0] != "C" for node in group)
        )
        return finite + self.infinite_classes

    def to_json_dict(self) -> dict:
        return {
            "finite_singletons": self.finite_singletons,
            "finite_pairs": self.finite_pairs,
            "oversized_finite": self.oversized_finite,
            "infinite_classes": [
                {
                    "link": c.link_type,
                    "size_at_cap": c.size,
                    "representative": _node_str(c.nodes[0]),
                }
                for c in self.infinite_classes
            ],
        }


def _node_str(node) -> str:
    return ":".join(str(x) for x in node)


def _strip_keys(nodes) -> tuple:
    return tuple(sorted({n[1] for n in nodes if n[0] == "S"}))


def classify_classes(
    schema: IdentificationSchema, ext: ExtendedPieceMap
) -> ClassCensus:
    """Equivalence classes of segment-endpoint nodes, with link labels.

    Endpoint nodes are iterated images of strip and rectangle corners, so
    the census splits classes by the injectivity dichotomy of the edge
    maps: away from corner coincidences a point is glued to at most one
    partner, so any class of three or more nodes witnesses an exact
    corner-image coincidence and belongs to a corner family. Classes that
    keep acquiring nodes through the final enumeration period are
    bi-infinite chains in their own right; saturated corner classes are
    per-depth shards of one family and are stitched together along the
    generator-endpoint orbits that produced them. The remaining classes
    are the finite ones and have size one or two.

    Links of infinite chains are labeled conservatively from the pairing
    graph: a degree-at-most-2 acyclic connected graph is a Line, two or
    more disjoint cycles are CountableCircles, anything else is
    Undetermined.

    The pass runs over the registry's dense integer node ids and builds
    only what the census reads. Each generator keeps four id columns (the
    first and second endpoints of sides a and b, one entry per depth); the
    union-find is a ``parent`` list (``parent[ra] = rb`` on each union, so
    the roots, and with them the order of the infinite classes, depend
    only on the order of the identifications). Finite classes are counted
    from a flat list of class sizes, not built: member lists, pairing
    edges and the orbit stitch exist only for the roots of infinite
    classes, those of size at least three or holding a corner node. Infinite
    classes list their nodes in ``_node_str`` order, which fixes their
    representatives; ``ClassCensus.classes`` builds the finite ones on
    first read.
    """
    registry = _NodeRegistry(ext.system.decomposition, ext.strips)
    node_id = registry.node_id
    nodes = registry.nodes
    parent: list[int] = []
    first_depth: list[int] = []
    # per generator: the ids of a0, b0, a1, b1, one entry per depth
    columns: list[tuple[list[int], list[int], list[int], list[int]]] = []
    for gen in schema.generators:
        a0s, b0s, a1s, b1s = cols = ([], [], [], [])
        columns.append(cols)
        for depth, (sa, sb) in enumerate(gen.pair_states, start=1):
            a0, b0 = node_id(sa, 0), node_id(sb, 0)
            a1, b1 = node_id(sa, 1), node_id(sb, 1)
            while len(parent) < len(nodes):
                parent.append(len(parent))
                first_depth.append(depth)
            _union(parent, a0, b0)
            _union(parent, a1, b1)
            a0s.append(a0)
            b0s.append(b0)
            a1s.append(a1)
            b1s.append(b1)

    # one find per id; afterwards parent[i] is the root of i
    size = [0] * len(nodes)
    for i in range(len(nodes)):
        size[_find(parent, i)] += 1
    # a class of three or more nodes, or with a corner node, is infinite
    infinite_roots = {root for root, n in enumerate(size) if n >= 3}
    infinite_roots.update(parent[i] for i in registry._corner_ids.values())
    finite_sizes = Counter(
        n for root, n in enumerate(size) if n and root not in infinite_roots
    )

    # member lists of the infinite roots, keyed in order of smallest id
    members: dict[int, list[int]] = {}
    for i, root in enumerate(parent):
        if root in infinite_roots:
            group = members.get(root)
            if group is None:
                members[root] = [i]
            else:
                group.append(i)

    cap = schema.depth_cap
    m = schema.nesting_period
    growing_roots = []
    shard_roots = []
    for root, ids in members.items():
        if len(ids) >= 4 and max(first_depth[i] for i in ids) > cap - m:
            growing_roots.append(root)
        else:
            shard_roots.append(root)

    # Stitch saturated shards of one corner family: consecutive depths of
    # a generator endpoint orbit land in consecutive shards. Chains that
    # are still growing already hold their whole family and stay separate.
    # The vertical factor reverses orientation each step, so only every
    # second image returns to the same side of its strip: the stitch runs
    # along the square of the edge maps, from depth d-2 to depth d.
    family = {root: root for root in shard_roots}
    for a0s, _, a1s, _ in columns:
        steps = zip(a0s, islice(a0s, 2, None), a1s, islice(a1s, 2, None))
        for x, y, u, v in steps:
            for a, b in ((x, y), (u, v)):
                ra, rb = parent[a], parent[b]
                if ra != rb and ra in family and rb in family:
                    _union(family, ra, rb)

    families: dict[int, list[int]] = {}
    for root in shard_roots:
        families.setdefault(_find(family, root), []).append(root)

    # both ends of a pairing edge share a union-find root, so the edges of a
    # class are exactly the set of its root
    root_edges: dict[int, set] = {root: set() for root in members}
    for a0s, b0s, a1s, b1s in columns:
        for na, nb in chain(zip(a0s, b0s), zip(a1s, b1s)):
            if na != nb:
                edges = root_edges.get(parent[na])
                if edges is not None:
                    edges.add((na, nb) if na < nb else (nb, na))

    def infinite_class(ids, edges) -> EquivalenceClass:
        class_nodes = tuple(sorted((nodes[i] for i in ids), key=_node_str))
        return EquivalenceClass(
            nodes=class_nodes,
            infinite=True,
            link_type=_classify_link(ids, edges),
            strip_keys=_strip_keys(class_nodes),
        )

    def by_node_str(root):
        return _node_str(nodes[root])

    infinite_classes = [
        infinite_class(members[root], root_edges[root])
        for root in sorted(growing_roots, key=by_node_str)
    ] + [
        infinite_class(
            [i for r in families[key] for i in members[r]],
            [e for r in families[key] for e in root_edges[r]],
        )
        for key in sorted(families, key=by_node_str)
    ]

    return ClassCensus(
        finite_singletons=finite_sizes[1],
        finite_pairs=finite_sizes[2],
        oversized_finite=sum(n for k, n in finite_sizes.items() if k > 2),
        infinite_classes=tuple(infinite_classes),
        nodes=nodes,
        parent=parent,
    )


def _classify_link(nodes, edges) -> str:
    """Link label of one class from its own pairing edges."""
    node_set = set(nodes)
    degree = {n: 0 for n in nodes}
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    if all(d <= 2 for d in degree.values()) and len(edges) == len(nodes) - 1:
        # connected degree-<=2 tree: a chain that keeps growing with depth
        if _connected(node_set, edges):
            return "Line"
    cycles = _disjoint_cycle_count(node_set, edges, degree)
    if cycles >= 2:
        return "CountableCircles"
    return "Undetermined"


def _connected(nodes, edges) -> bool:
    if not nodes:
        return True
    adj: dict = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    stack = [next(iter(nodes))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v])
    return len(seen) == len(nodes)


def _disjoint_cycle_count(nodes, edges, degree) -> int:
    if any(d != 2 for d in degree.values()):
        return 0
    adj: dict = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    count = 0
    for start in nodes:
        if start in seen:
            continue
        comp = set()
        stack = [start]
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adj[v])
        seen |= comp
        count += 1
    return count


# ---------------------------------------------------------------------------
# combinatorial escape certificate


def escape_bound(system: EdgeMapSystem, kind: str, rect: int) -> int:
    """Depth after which boundary orbits from this edge stay in strip territory.

    A point riding the edge map reaches an edge carrying a periodic point
    after tail(rect) steps; the next application enters the switch boundary,
    and one orbit sweep of switch maps later (2p applications counting the
    entry) the image lies in the strip complex, where it remains.
    """
    E = system.maps[kind]
    t = E.tails[rect]
    v = rect
    for _ in range(t):
        v = E.digraph[v]
    period = next(len(c) for c in E.cycles if v in c)
    return t + 2 * period


# ---------------------------------------------------------------------------
# surface assembly


@dataclass(frozen=True)
class End:
    sign: str
    strip_orbits: tuple[str, ...]


@dataclass(frozen=True)
class SurfaceReport:
    ends: tuple[End, ...]
    infinite_type: bool
    genus_insertion_applied: bool
    genus_insertion_site: tuple | None
    connected: bool | None
    doubled: bool
    weak_perron_gluing: dict | None
    nesting_period: int
    escape_depth: int
    stretch_factor: float

    def to_json_dict(self) -> dict:
        return {
            "ends": [
                {"sign": e.sign, "strip_orbits": list(e.strip_orbits)}
                for e in self.ends
            ],
            "infinite_type": self.infinite_type,
            "genus_insertion_applied": self.genus_insertion_applied,
            "genus_insertion_site": (
                list(self.genus_insertion_site) if self.genus_insertion_site else None
            ),
            "connected": self.connected,
            "doubled": self.doubled,
            "weak_perron_gluing": self.weak_perron_gluing,
            "nesting_period": self.nesting_period,
            "escape_depth": self.escape_depth,
            "stretch_factor": self.stretch_factor,
        }


def assemble_surface(
    ext: ExtendedPieceMap,
    schema: IdentificationSchema,
    census: ClassCensus,
    insert_genus: bool = False,
    weak_perron_k: int | None = None,
    doubled: bool = True,
) -> SurfaceReport:
    """Group strip orbits into signed ends and decide connectedness.

    Ends are components of the graph on strip orbits linked by the
    identification tails (left with right, top with bottom). Vertical-side
    strips give attracting ends, horizontal-side strips repelling ones.
    Connectedness is certified for primitive matrices by a positive first
    column of a power of M, and for block-lift inputs by the boundary-ray
    regluing record; otherwise it is reported as undecided.
    """
    system = ext.system
    D = system.decomposition
    M = D.matrix

    orbit_sign = {}
    for strip in ext.strips.values():
        orbit_sign[strip.orbit_id] = (
            "Attracting" if strip.kind in ("L", "R") else "Repelling"
        )
    parent = {orbit: orbit for orbit in orbit_sign}
    for gen in schema.generators:
        a = gen.periodic_tail[0]["orbit"]
        b = gen.periodic_tail[1]["orbit"]
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        _union(parent, a, b)
    components: dict = {}
    for orbit in orbit_sign:
        components.setdefault(_find(parent, orbit), []).append(orbit)
    ends = []
    for orbits in components.values():
        signs = {orbit_sign[o] for o in orbits}
        if len(signs) != 1:
            raise InternalConsistencyError(f"end mixes signs: {sorted(orbits)}")
        ends.append(End(sign=signs.pop(), strip_orbits=tuple(sorted(orbits))))
    ends.sort(key=lambda e: (e.sign, e.strip_orbits))

    connected, weak_record = _connectedness(M, ext, weak_perron_k)

    site = None
    if insert_genus:
        site = _genus_site(ext)
    infinite_type = insert_genus or any(
        c.link_type == "Line" for c in census.infinite_classes
    )

    return SurfaceReport(
        ends=tuple(ends),
        infinite_type=infinite_type,
        genus_insertion_applied=insert_genus,
        genus_insertion_site=site,
        connected=connected,
        doubled=doubled,
        weak_perron_gluing=weak_record,
        nesting_period=schema.nesting_period,
        escape_depth=schema.escape_depth,
        stretch_factor=D.eigen.lam,
    )


def _connectedness(M: IntMatrix, ext: ExtendedPieceMap, weak_perron_k):
    from .spectral import is_primitive

    if weak_perron_k is not None:
        if not is_block_lift_of(M, weak_perron_k):
            raise PreconditionError(
                f"matrix is not a block lift with k={weak_perron_k}"
            )
        _require_corner_point(ext)
        k = weak_perron_k
        record = {
            "k": k,
            "A_gluing": [[i, i] for i in range(1, k + 1)],
            "B_gluing": [[i, i % k + 1] for i in range(1, k + 1)],
        }
        return True, record
    if is_primitive(M):
        power = M
        for _ in range(wielandt_bound(M.n)):
            if all(row[0] > 0 for row in power.entries):
                return True, None
            power = power.matmul(M)
        raise InternalConsistencyError("primitive matrix without positive column")
    return None, None


def _require_corner_point(ext: ExtendedPieceMap) -> None:
    for pt in ext.points["L"]:
        if pt.is_corner and pt.corner_type == "TL" and pt.location.rect == 1:
            return
    raise PreconditionError(
        "boundary-ray regluing needs the first rectangle's top-left corner "
        "periodic; build the decomposition with corner_selection"
    )


def _genus_site(ext: ExtendedPieceMap) -> tuple:
    for kind in KINDS:
        for pt in ext.points[kind]:
            if pt.is_corner:
                return (pt.map_kind, pt.location.rect, pt.corner_type)
    raise InternalConsistencyError("no corner periodic point for genus insertion")

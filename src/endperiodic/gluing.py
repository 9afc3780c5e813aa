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

from bisect import bisect_left
from functools import cached_property
from itertools import islice
from math import inf, ulp
from typing import NamedTuple

from .edgemaps import (
    _CORNER_AT_END,
    _CORNER_AT_START,
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
    PrecisionError,
)
from .spectral import (
    COORD_TOL,
    IntMatrix,
    MatrixFacts,
    _Value,
    is_primitive,
    lift_base,
)

_TRANSFER_TOL = 1e-9

#: the most pair states (generators times ``depth_cap``) in a window that
#: ``enumerate_identifications`` accepts: the census costs about 2.1 KiB
#: per pair state, so this is about 1 GiB
MAX_PAIR_STATES = 500_000

#: the least default window N + 3m: N is at least 2 and m at least 1
_LEAST_DEFAULT_WINDOW = 5


class InfiniteStrip(NamedTuple):
    """One infinite strip [0,1] x [0,oo) attached at a periodic point.

    The base [0,1] x {0} is glued onto ``(lo, hi)`` of the ``kind`` edge of
    rectangle ``rect``. On vertical sides z runs against the edge offset
    (z = 0 at the far corner); on horizontal sides z runs with it.
    """

    key: tuple[str, int]
    kind: str
    orbit_id: str
    period: int
    j: int
    rect: int
    lo: float
    hi: float

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
    f^(2p+j) of the full edge of Q_i0. ``points`` lists each orbit from its
    initial point, so one walk per orbit serves all of its points: 2p steps
    from i0, then one step per point. Each step is the step of
    ``composed_branch``, so the offsets are those of ``composed_branch(E,
    i0, 2p + j)`` to the bit.
    """
    D = system.decomposition
    lam = D.eigen.lam
    strips = {}
    for kind in KINDS:
        E = system.maps[kind]
        for pt in points[kind]:
            p, j = pt.period, pt.orbit_position
            if pt.is_initial:
                edge_len = E.edge_length(pt.rect, D)
                rect, b = composed_branch(E, pt.rect, 2 * p)
            else:
                br = E.branches[rect]
                rect, b = br.target_rect, br.apply(b, lam)
            if rect != pt.rect:
                raise InternalConsistencyError(
                    "attachment landed on the wrong rectangle edge"
                )
            lo = b
            width = edge_len * lam ** -(2 * p + j)
            hi = b + width
            if not 0 < hi - lo < inf:
                eta, omega = D.eigen.eta, D.eigen.omega
                raise PrecisionError(
                    f"strip {pt.key} has float length {hi - lo!r} at offset "
                    f"{lo!r}: its width, edge length {edge_len:.4g} times "
                    f"lambda^-{2 * p + j}, is {width:.3g}, and the float "
                    f"spacing at its offset is {ulp(lo):.3g}; eta spans "
                    f"{max(eta) / min(eta):.3g} and omega "
                    f"{max(omega) / min(omega):.3g}"
                )
            host_len = E.edge_length(rect, D)
            if lo < -_TRANSFER_TOL or hi > host_len + _TRANSFER_TOL:
                raise InternalConsistencyError("attachment leaves its host edge")
            if not (lo - _TRANSFER_TOL <= pt.offset <= hi + _TRANSFER_TOL):
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
                lo=lo,
                hi=hi,
            )
    return strips


class ExtendedPieceMap(NamedTuple):
    """The extended map: base piece map, strips, periodic points, and the
    tail rule.

    ``step[key] = (next_key, rise)`` is the extended map of kind
    ``key[0]`` on the boundary of strip ``key``: it sends a strip state
    ``("S", key, za, zb, w)`` to ``("S", next_key, za, zb, w + rise)``.
    ``next_key`` is ``(kind, digraph[rect])`` from the edge digraph of that
    kind, and ``rise`` is 1 where the orbit passes its initial point (the
    strip with ``j == 0``, on the orbit's least rectangle), at ``next_key``
    for L and R and at ``key`` for T and B, else 0. So after p steps, p the
    orbit period, a strip state is back on its strip one unit higher.
    """

    system: EdgeMapSystem
    strips: dict[tuple[str, int], InfiniteStrip]
    points: dict[str, list[PeriodicPoint]]
    step: dict[tuple[str, int], tuple[tuple[str, int], int]]


def build_extended_map(
    system: EdgeMapSystem,
    strips: dict[tuple[str, int], InfiniteStrip],
    points: dict[str, list[PeriodicPoint]],
) -> ExtendedPieceMap:
    """Bundle the strips with the piece map and build the tail rule."""
    step = {}
    for key in strips:
        kind, rect = key
        next_key = (kind, system.maps[kind].digraph[rect])
        rise_at = next_key if kind in ("L", "R") else key
        step[key] = (next_key, int(strips[rise_at].j == 0))
    return ExtendedPieceMap(system=system, strips=strips, points=points, step=step)


# ---------------------------------------------------------------------------
# symbolic boundary dynamics

# states:
#   ("E", rect, side, a, b)    segment on a rectangle edge; a is the image of
#                              the generator's first endpoint
#   ("S", key, za, zb, w)      segment on a strip boundary at height w


def _strip_entry(
    kind: str, rect: int, ext: ExtendedPieceMap
) -> tuple[InfiniteStrip, int]:
    """The strip that a generator side of ``kind`` enters, and the depth t
    at which it enters it, for a side whose depth-1 image lies on the edge
    of ``rect``.

    The side follows the edge digraph of ``kind`` and reaches its cycle at
    depth e = 1 + ``tails[rect]``, at orbit position j(e); p is the cycle's
    period. Then t = e + 2p + (-j(e) mod p), the first depth at least 2p
    past e at which the side is on the orbit's initial rectangle i0, and
    the strip is that of i0.

    Why: the edge-map branches and the first piece-map branch send full
    edges to intervals that are nested or have disjoint interiors, each
    branch is injective, and distinct strips of a rectangle map into
    distinct strips of its target. So the depth-d side, at orbit position
    j, lies in the attachment f^(2p+j)(E_i0) exactly when its last 2p + j
    steps are that attachment's own word, that is when the side is on i0
    at depth d - 2p - j. The side is on the cycle only from depth e on, so
    this holds iff d - 2p - j >= e, and t is the least such d; a side in
    its attachment at depth t is in the next one at every later depth.

    Since t <= 1 + tail + 3p - 1, t is at most the longest tail plus three
    periods, which is at most N + m (N = longest tail + 2 max p, and m is a
    multiple of every p): see ``enumerate_identifications``.
    """
    E = ext.system.maps[kind]
    e = 1 + E.tails[rect]
    for _ in range(e - 1):
        rect = E.digraph[rect]
    strip = ext.strips[(kind, rect)]
    lead = -strip.j % strip.period
    for _ in range(lead):
        rect = E.digraph[rect]
    return ext.strips[(kind, rect)], e + 2 * strip.period + lead


#: the edge-map kinds of a generator's two sides, by family: the (left,
#: right) images of an X generator (interior vertical edge), the (top,
#: bottom) images of a Y generator (interior horizontal edge)
SIDE_KINDS = {"X": ("L", "R"), "Y": ("T", "B")}


class GeneratorTrace(NamedTuple):
    """Dynamics of one interior-boundary generator.

    ``gen_id`` is ``"X:k:t"`` for the t-th interior vertical boundary of
    rectangle k, ``"Y:k:t"`` for its t-th interior horizontal one; the
    family, the rectangle, the side kinds (``SIDE_KINDS`` of the family)
    and the position (``vertical_offsets[k][t]`` or
    ``horizontal_offsets[k][t]`` of the decomposition) follow from it.
    ``sides`` holds each side's states at depths 1..min(t, depth_cap), t
    the depth at which that side enters its strip (``_strip_entry``), so a
    side ends at its first strip state unless it has not entered by
    ``depth_cap``; ``tail_orbits`` holds the orbit ids of the two strips.
    ``stabilization_depth`` is the larger t, the first depth at which both
    images live on strip boundaries, if reached within the cap. ``step``
    is the tail rule ``ExtendedPieceMap.step``.

    ``pair_states[d]``, the two identified image segments at depth d+1,
    side a's then side b's, is derived on each read (``_window``); only
    the figure reads it.
    """

    gen_id: str
    stabilization_depth: int | None
    sides: tuple[tuple, tuple]
    tail_orbits: tuple[str, str]
    step: dict[tuple[str, int], tuple[tuple[str, int], int]]
    depth_cap: int

    @property
    def pair_states(self) -> tuple[tuple[tuple, tuple], ...]:
        step, cap = self.step, self.depth_cap
        a, b = (_window(side, step, cap) for side in self.sides)
        return tuple(zip(a, b))


class IdentificationSchema(NamedTuple):
    generators: tuple[GeneratorTrace, ...]
    depth_cap: int
    nesting_period: int

    def to_json_dict(self) -> dict:
        """The ``identifications`` section.

        Each generator stores its id and its ``sides``: side a's states at
        depths 1..min(t_a, ``depth_cap``) and side b's at 1..min(t_b,
        ``depth_cap``), t the side's strip-entry depth, each written
        without what the side and the ``edge_digraphs`` section give (see
        ``_stored_side``). The side's kind is ``SIDE_KINDS`` of the id's
        family, and its last state is a strip state exactly when it entered
        its strip in the window; the stabilization depth is then the
        longer side's length when both did. The side's tail orbit is
        ``"<kind>:<i0>"``, i0 the least rect of the cycle that its first
        rect reaches in ``edge_digraphs[kind]``. The deeper states follow
        by the tail rule ``ExtendedPieceMap.step``, which reads only that
        digraph: from depth t on a side is a strip state, and its state at
        depth d + 1 is its state at d stepped by the rule of its own strip
        key, for every d from t to ``depth_cap - 1``. The generator's id
        gives everything else it once stored (see ``GeneratorTrace``).
        The window is not restated: ``nesting_period`` is the lcm of the
        digraph cycle lengths, ``escape_depth`` the longest tail to a
        cycle plus twice the longest cycle, and ``depth_cap`` is
        ``config.depth_cap``, or, when that is null, ``escape_depth`` plus
        three nesting periods.
        """
        return {
            "generators": [
                {"id": g.gen_id, "sides": [_stored_side(s) for s in g.sides]}
                for g in self.generators
            ],
        }


def _stored_side(side) -> list:
    """A side's states as the record writes them: the depth-1 edge state
    ``("E", rect, kind, a, b)`` as ``(rect, a, b)`` and each later state by
    ``_stored_state``, without its rect. Each edge state's rect is
    ``digraph[kind]`` of the one before, and the strip-entry state's is
    i0, the least rect of the cycle that the side reaches, on which
    ``_strip_entry`` enters it."""
    first = side[0]
    return [(first[1], first[3], first[4]), *map(_stored_state, side[1:])]


def _stored_state(state) -> tuple:
    """A state past a side's first as the record writes it: an edge state
    ``("E", rect, kind, a, b)`` as ``(a, b)`` and the strip-entry state
    ``("S", (kind, i0), za, zb, 0)`` as ``("S", za, zb)``; the side gives
    the kind, the digraph the rect, and the height is 0 at entry."""
    if state[0] == "E":
        return state[3], state[4]
    return "S", state[2], state[3]


def enumerate_identifications(
    ext: ExtendedPieceMap, depth_cap: int | None = None
) -> IdentificationSchema:
    """All identified segment pairs up to depth_cap, plus periodic tails.

    Each interior strip boundary generates one identified pair per depth;
    from a generator's stabilization depth on, both images lie in strip
    boundaries and advance by unit translation once per orbit period, so
    the bounded table plus the tail record certifies the full relation.

    The default window is ``N + 3m``, with N the escape depth and m the
    ``nesting_period``, the lcm of the cycle periods. Why one common
    period is enough:

    * From its ``stabilization_depth`` s on, both images of a generator
      are strip states ``("S", key, za, zb, w)``. The tail rule
      ``ExtendedPieceMap.step`` moves the key along the orbit of the edge
      map and keeps za and zb; it adds one to w once per orbit period p,
      when the orbit passes its initial point. After p steps the state is
      back at its key, one unit higher.
    * So after any common multiple m of all periods, every state past s
      is its own state m depths earlier, translated by m/p units on the
      strip of period p. That translation depends only on the key, so
      the pairs at depths d + m are the translates of those at depth d,
      for every d from s on and every generator at once. The lcm is the
      least such common multiple.
    * N does not bound s, but N + m does. A side enters its strip at the
      depth t of ``_strip_entry``, read off the edge digraph: with e the
      depth at which it reaches its cycle (at most the longest tail plus
      one) and p the cycle's period, t = e + 2p + (-j(e) mod p), at most
      the longest tail plus 3p. N is the longest tail plus twice the
      longest period and m is a multiple of every period, so
      ``s = max(t) <= N + m`` and the window holds at least two whole
      periods past the last stabilization. The bound is tight: the lifts
      of ``[[2]]`` stabilize at N + m, and so does ``corpus:1`` (N 4, m 1,
      cap 7, max s 5). With the default window every generator is still
      checked against it: one with s unset or above N + m raises
      ``InternalConsistencyError``, naming the generator and both depths.
    * The test in ``classify_classes`` for a class that acquired a node
      after ``cap - m`` (one whole period at the end of the window) is a
      statement about windows of whole periods, so it needs only that m
      is a common period, not that it is the product of the periods.
    * The family stitch in ``classify_classes`` joins depth d-2 to depth d
      at every depth of the window, not at every second depth from a fixed
      start. Translation by m maps those stitch edges onto stitch edges
      whether m is odd or even, and it keeps the z coordinates, so it
      keeps the side of the strip that the squared step follows: the
      stitch needs no even m.

    The record stores each side of a generator only up to its own entry
    depth t (see ``IdentificationSchema.to_json_dict``). That is sound
    from depth t itself: t is the first depth at which that side is a
    strip state, and ``ExtendedPieceMap.step`` sends a strip state to the
    strip state named by its key, the edge digraph and the initial flags
    alone. So the side's state at depth t and the rule fix all of its
    states up to ``depth_cap``, whatever the other side does, so no state
    past t is built unless ``GeneratorTrace.pair_states`` is read.

    A window of more than ``MAX_PAIR_STATES`` pair states (generators
    times ``depth_cap``) raises ``InvalidInputError`` before any state is
    built, as does a ``depth_cap`` below N.
    """
    system = ext.system
    D = system.decomposition
    N = max_escape_depth(system)
    m = nesting_period(system)
    default_window = depth_cap is None
    if default_window:
        depth_cap = N + 3 * m
    if depth_cap < N:
        raise InvalidInputError(f"depth_cap {depth_cap} below escape depth {N}")
    _refuse_oversized_window(D.facts.matrix, depth_cap)

    by_source = system.piece_map.source_index
    by_target = system.piece_map.target_index
    lam = D.eigen.lam
    traces = []
    for k in range(1, D.n + 1):
        vorder = D.vertical_order[k]
        for t in range(1, len(vorder)):
            height = D.rect_height(k)
            br_right = by_source[vorder[t]]
            br_left = by_source[vorder[t - 1]]
            first = (
                ("E", br_right.target_label.rect, "L", br_right.y0,
                 br_right.y0 + height / lam),
                ("E", br_left.target_label.rect, "R", br_left.y0,
                 br_left.y0 + height / lam),
            )
            traces.append(_trace(ext, f"X:{k}:{t}", first, depth_cap))
        horder = D.horizontal_order[k]
        for t in range(1, len(horder)):
            width = D.rect_width(k)
            br_below = by_target[horder[t]]
            br_above = by_target[horder[t - 1]]
            first = (
                ("E", br_below.source_label.rect, "T", br_below.x0,
                 br_below.x0 + width / lam),
                ("E", br_above.source_label.rect, "B", br_above.x0,
                 br_above.x0 + width / lam),
            )
            traces.append(_trace(ext, f"Y:{k}:{t}", first, depth_cap))
    if default_window:
        for trace in traces:
            s = trace.stabilization_depth
            if s is None or s > N + m:
                raise InternalConsistencyError(
                    f"generator {trace.gen_id} stabilizes at depth {s}, past "
                    f"N + m = {N + m}: the default window {depth_cap} holds "
                    "less than two whole periods past its stabilization"
                )
    return IdentificationSchema(
        generators=tuple(traces),
        depth_cap=depth_cap,
        nesting_period=m,
    )


def _refuse_oversized_window(M: IntMatrix, depth_cap: int | None) -> None:
    """Raise ``InvalidInputError`` if the window of M holds more than
    ``MAX_PAIR_STATES`` pair states (generators times ``depth_cap``).

    M alone gives the generator count: rectangle k holds column sum k
    vertical and row sum k horizontal strips, and each boundary between
    two of them is a generator, so there are 2 * (sum of the entries) -
    2n. ``run_pipeline`` calls this before any stage runs, with
    ``depth_cap`` None standing for the default window N + 3m, which is
    at least 5; ``enumerate_identifications`` calls it with the window
    it is about to build.
    """
    generators = 2 * sum(map(sum, M.entries)) - 2 * M.n
    least = "at least " if depth_cap is None else ""
    cap = _LEAST_DEFAULT_WINDOW if depth_cap is None else depth_cap
    if generators * cap > MAX_PAIR_STATES:
        raise InvalidInputError(
            f"depth_cap {least}{cap} with {generators} generators is "
            f"{least}{generators * cap} pair states, above the limit "
            f"{MAX_PAIR_STATES}"
        )


def _side_states(ext, kind, first, depth_cap):
    """One side's states at depths 1..min(t, depth_cap) from its depth-1
    edge state ``first``, its entry depth t and its entry strip
    (``_strip_entry``): edge states stepped by the branches of ``kind``,
    the state at depth t, if within the cap, converted to the strip's z."""
    _, rect, side, a, b = first
    strip, t = _strip_entry(kind, rect, ext)
    E = ext.system.maps[kind]
    branches, lam = E.branches, E.lam
    states = [first]
    for _ in range(min(t, depth_cap) - 1):
        br = branches[rect]
        rect, a, b = br.target_rect, br.apply(a, lam), br.apply(b, lam)
        states.append(("E", rect, side, a, b))
    if t <= depth_cap:
        states[-1] = ("S", strip.key, strip.offset_to_z(a),
                      strip.offset_to_z(b), 0)
    return tuple(states), t, strip


def _trace(ext, gen_id, first, depth_cap):
    (a, ta, sa), (b, tb, sb) = (
        _side_states(ext, kind, state, depth_cap)
        for kind, state in zip(SIDE_KINDS[gen_id[0]], first)
    )
    s = max(ta, tb)
    return GeneratorTrace(
        gen_id=gen_id,
        stabilization_depth=s if s <= depth_cap else None,
        sides=(a, b),
        tail_orbits=(sa.orbit_id, sb.orbit_id),
        step=ext.step,
        depth_cap=depth_cap,
    )


def _window(side, step, depth_cap) -> list:
    """A side's states at depths 1..depth_cap: its stored states, and, if
    the last of them is a strip state, that state stepped by the tail rule
    ``step`` to ``depth_cap``."""
    states = list(side)
    if side[-1][0] == "S":
        _, key, za, zb, w = side[-1]
        for _ in range(depth_cap - len(side)):
            key, rise = step[key]
            w += rise
            states.append(("S", key, za, zb, w))
    return states


# ---------------------------------------------------------------------------
# node tables and class census


_WINDOW = 2 * COORD_TOL


def _least_within(positions: list[float], ids: list[int], z: float,
                  new: int) -> int:
    """The least of ``ids`` whose position is within ``COORD_TOL`` of z;
    if there is none, ``new``, inserted with z at its sorted place.

    ``positions`` is sorted and ``ids[t]`` belongs to ``positions[t]``. The
    search bisects to the window ``[z - 2 COORD_TOL, z + 2 COORD_TOL]`` and
    tests each position p in it with ``abs(p - z) <= COORD_TOL``. The
    window is wider than that test reaches by ``COORD_TOL`` on each side,
    and computing ``z - p`` or a window end rounds by at most a unit in the
    last place of coordinates of size about 1, some 1e-16: every position
    that passes the test lies in the window, so the test alone decides.
    Positions that were inserted here are more than ``COORD_TOL`` apart,
    so the window holds a few of them. Where ids grow in insertion order,
    the least id is the first position that a scan in insertion order
    would meet.
    """
    lo = t = bisect_left(positions, z - _WINDOW)
    top = z + _WINDOW
    end = len(positions)
    least = None
    while t < end and positions[t] <= top:
        if abs(positions[t] - z) <= COORD_TOL:
            if least is None or ids[t] < least:
                least = ids[t]
        t += 1
    if least is not None:
        return least
    while lo < t and positions[lo] < z:
        lo += 1
    positions.insert(lo, z)
    ids.insert(lo, new)
    return new


class _EdgeTable(dict):
    """pos -> id on one rectangle edge ``(rect, side)``.

    A position that the table has not answered snaps to 0 or to the edge
    length within ``COORD_TOL``; there it is the edge's start or end
    corner, one node per corner in ``corners``, which all edges share.
    Any other position takes the least id of the edge within
    ``COORD_TOL`` (``_least_within`` on the edge's sorted ``positions``)
    or becomes the next node. New nodes are appended to ``nodes``, and
    the heads of their ``_node_str`` to ``heads``."""

    __slots__ = ("nodes", "heads", "corners", "length", "start", "end",
                 "prefix", "head", "positions", "ids")

    def __init__(self, nodes: list[tuple], heads: list[str],
                 corners: dict[tuple, int], D, rect: int, side: str):
        self.nodes, self.heads, self.corners = nodes, heads, corners
        vertical = side in ("L", "R")
        self.length = D.rect_height(rect) if vertical else D.rect_width(rect)
        self.start = ("C", rect, _CORNER_AT_START[side])
        self.end = ("C", rect, _CORNER_AT_END[side])
        self.prefix = ("E", rect, side)
        self.head = f"E:{rect}:{side}:"
        self.positions: list[float] = []
        self.ids: list[int] = []

    def __missing__(self, pos: float) -> int:
        nodes, length = self.nodes, self.length
        at = 0.0 if abs(pos) <= COORD_TOL else pos
        if abs(at - length) <= COORD_TOL:
            at = length
        if at == 0.0 or at == length:
            corner = self.start if at == 0.0 else self.end
            i = self.corners.get(corner)
            if i is None:
                i = self.corners[corner] = len(nodes)
                nodes.append(corner)
                self.heads.append(_node_str(corner))
        else:
            new = len(nodes)
            i = _least_within(self.positions, self.ids, pos, new)
            if i == new:
                nodes.append(self.prefix + (pos,))
                self.heads.append(self.head)
        self[pos] = i
        return i


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


class EquivalenceClass(NamedTuple):
    nodes: tuple
    link_type: str | None

    @property
    def size(self) -> int:
        return len(self.nodes)


class InfiniteClassSummary(NamedTuple):
    """What the record reads of one infinite class, and its member ids."""

    link_type: str
    size: int
    representative: str
    ids: list[int]


class ClassCensus(_Value):
    """Finite-class counts and the infinite classes of one classify pass.

    ``infinite_summaries`` holds, per infinite class in record order, its
    link label, its size, its representative (the least ``_node_str`` of
    its nodes) and its member ids: all that ``to_json_dict`` and
    ``assemble_surface`` read. ``nodes`` (id -> node tuple, in order of
    first sight, as the pass's node tables made them) and ``parent`` (id
    -> union-find root, fully compressed) are the nodes and the forest of
    the pass, and ``infinite_roots`` the roots of its infinite classes;
    the record reads none of them.

    Two views are built from these on first read and then cached:
    ``infinite_classes``, one ``EquivalenceClass`` per summary listing its
    nodes in ``_node_str`` order, and ``classes``, the finite classes
    first, in order of their smallest id, each listing its nodes in tuple
    order, then ``infinite_classes``.

    ``oversized_finite`` is 0 by construction: ``classify_classes`` counts
    every class of three or more nodes as infinite, so no finite class
    has more than two. A check that it is 0 tests nothing; the field
    stays in the record until the next schema bump drops it.
    """

    #: compared and shown; the nodes, forest and roots are neither
    _fields = ("finite_singletons", "finite_pairs", "oversized_finite",
               "infinite_summaries")

    def __init__(
        self,
        finite_singletons: int,
        finite_pairs: int,
        oversized_finite: int,
        infinite_summaries: tuple[InfiniteClassSummary, ...],
        nodes: list[tuple],
        parent: list[int],
        infinite_roots: set[int],
    ):
        vars(self).update(
            finite_singletons=finite_singletons,
            finite_pairs=finite_pairs,
            oversized_finite=oversized_finite,
            infinite_summaries=infinite_summaries,
            nodes=nodes,
            parent=parent,
            infinite_roots=infinite_roots,
        )

    @cached_property
    def infinite_classes(self) -> tuple[EquivalenceClass, ...]:
        nodes = self.nodes
        return tuple(
            EquivalenceClass(
                nodes=tuple(sorted((nodes[i] for i in s.ids), key=_node_str)),
                link_type=s.link_type,
            )
            for s in self.infinite_summaries
        )

    @cached_property
    def classes(self) -> tuple[EquivalenceClass, ...]:
        nodes = self.nodes
        infinite_roots = self.infinite_roots
        groups: dict[int, list[tuple]] = {}
        for i, root in enumerate(self.parent):
            if root in infinite_roots:
                continue
            group = groups.get(root)
            if group is None:
                groups[root] = [nodes[i]]
            else:
                group.append(nodes[i])
        finite = tuple(
            EquivalenceClass(
                nodes=tuple(sorted(group)),
                link_type=None,
            )
            for group in groups.values()
        )
        return finite + self.infinite_classes

    def to_json_dict(self) -> dict:
        return {
            "finite_singletons": self.finite_singletons,
            "finite_pairs": self.finite_pairs,
            "oversized_finite": self.oversized_finite,
            "infinite_classes": [
                {
                    "link": s.link_type,
                    "size_at_cap": s.size,
                    "representative": s.representative,
                }
                for s in self.infinite_summaries
            ],
        }


def _node_str(node) -> str:
    return ":".join(map(str, node))


def _least_node_str(nodes, heads, ids) -> str:
    """``min(_node_str(nodes[i]) for i in ids)``, stringifying only the
    nodes whose head ``heads[i]`` is the least.

    An edge or strip node string is its head followed by its position, and
    the head has exactly three ``":"``, the last at its end; no node
    component holds a ``":"``. So two different such heads are not
    prefixes of each other: they differ at some index inside both, and the
    node strings differ first at that same index. A corner's head is its
    whole string, and it differs from every edge or strip string at the
    first character, the type letter (``C`` < ``E`` < ``S``). The heads
    thus decide every comparison except between nodes that tie on the
    least one, and their strings are that head followed by the position.
    """
    least = min(map(heads.__getitem__, ids))
    if least[0] == "C":
        return least
    return least + min(repr(nodes[i][3]) for i in ids if heads[i] == least)


def _snapped(z: float) -> float:
    """A strip coordinate snapped to 0 or 1 within ``COORD_TOL``, else
    unchanged: the position that a ``_StripLevel`` looks up."""
    if abs(z) <= COORD_TOL:
        return 0.0
    if abs(z - 1.0) <= COORD_TOL:
        return 1.0
    return z


class _StripLevel(dict):
    """z -> id on one strip level ``(key, w)``, for z snapped by
    ``_snapped``. At height 0, ``edge`` is the table of the strip's host
    edge, and z = 0 or 1, a base corner, is the edge point that it
    answers. Any other z takes the least id of the level within
    ``COORD_TOL`` (``_least_within``) where the level may merge
    (``positions`` is a list), or else becomes the next node."""

    __slots__ = ("nodes", "heads", "prefix", "head", "strip", "edge",
                 "positions", "ids")

    def __init__(self, nodes: list[tuple], heads: list[str], prefix: tuple,
                 head: str, strip: InfiniteStrip, edge: _EdgeTable | None,
                 merge: bool):
        self.nodes, self.heads, self.prefix, self.head = nodes, heads, prefix, head
        self.strip, self.edge = strip, edge
        self.positions: list[float] | None = [] if merge else None
        self.ids: list[int] | None = [] if merge else None

    def __missing__(self, z: float) -> int:
        if self.edge is not None and (z == 0.0 or z == 1.0):
            i = self.edge[self.strip.z_to_offset(z)]
        else:
            nodes = self.nodes
            i = new = len(nodes)
            if self.positions is not None:
                i = _least_within(self.positions, self.ids, z, new)
            if i == new:
                nodes.append(self.prefix + (z,))
                self.heads.append(self.head)
        self[z] = i
        return i


def _strip_levels(
    schema: IdentificationSchema, ext: ExtendedPieceMap,
    edges: dict[tuple[int, str], _EdgeTable], nodes: list[tuple],
    heads: list[str],
) -> dict[tuple[str, int], list[_StripLevel]]:
    """Each strip orbit's entry strip key -> its ``_StripLevel`` at each
    step s after entry, to the last step in the window of its earliest
    side.

    A level (key, w) is one step of one orbit: every side enters its
    orbit at the orbit's initial strip, at height 0 (``_strip_entry``),
    so the key of its entry state names the orbit, and the tail rule
    moves it one strip per step and one unit up per period, keeping its
    (za, zb). So s steps past entry every side of the orbit is on the
    same level, and the level's lookups are the snapped entry
    coordinates of the orbit's sides, without 0 and 1 at height 0, which
    its host edge answers.

    A level searches only if its orbit's snapped entry coordinates come
    within ``COORD_TOL`` of each other, by the float difference that
    ``_least_within`` tests; float subtraction is monotone, so comparing
    neighbours of the sorted distinct values decides this. Where none
    do, each new z is more than ``COORD_TOL`` from every earlier one, so
    it is a new node without a search.
    """
    cap = schema.depth_cap
    first: dict[tuple[str, int], int] = {}
    entries: dict[tuple[str, int], set[float]] = {}
    for gen in schema.generators:
        for side in gen.sides:
            state = side[-1]
            if state[0] == "S":
                key = state[1]
                first[key] = min(first.get(key, cap), len(side))
                entries.setdefault(key, set()).update(
                    (_snapped(state[2]), _snapped(state[3]))
                )
    names = {key: str(key) for key in ext.strips}
    levels = {}
    for entry_key, zs in entries.items():
        zs = sorted(zs)
        merge = any(b - a <= COORD_TOL for a, b in zip(zs, islice(zs, 1, None)))
        key, w = entry_key, 0
        steps = levels[entry_key] = []
        for _ in range(cap - first[entry_key] + 1):
            strip = ext.strips[key]
            edge = None if w else edges[strip.rect, strip.kind]
            steps.append(_StripLevel(
                nodes, heads, ("S", key, w), f"S:{names[key]}:{w}:", strip,
                edge, merge,
            ))
            key, rise = ext.step[key]
            w += rise
    return levels


def _side_ids(side, levels, edges, cap) -> list[int]:
    """One side's id column: the ids of its first and second endpoints at
    depth 1, then at depth 2, and so on to ``cap`` (``classify_classes``)."""
    entry = side[-1]
    if entry[0] == "E":
        states, tables, zs = side, (), ()
    else:
        states = side[:-1]
        tables = levels[entry[1]][:cap - len(states)]
        zs = (_snapped(entry[2]), _snapped(entry[3]))
    ids = []
    for _, rect, kind, a, b in states:
        table = edges[rect, kind]
        ids.append(table[a])
        ids.append(table[b])
    ids += [table[z] for table in tables for z in zs]
    return ids


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
    are the finite ones and have size one or two, so the census's
    ``oversized_finite`` is always 0.

    A class that holds a rectangle corner has at least three nodes, so
    size alone decides which classes are infinite. Take the corner TL(r)
    of Q_r; BL, TR and BR follow with the sides and endpoints swapped.
    Each edge map sends a full edge increasingly and affinely onto a
    subinterval, so an edge end is the image only of an edge end of the
    same type. Write phi(k) = r when the leftmost vertical strip of Q_k
    maps onto the top horizontal strip of Q_r: phi is injective, f_L sends
    TL(k) to TL(phi(k)) and f_T sends TL(phi(k)) to TL(k). The depth-1
    L-side states (side a of the X generators) are the left ends of the
    horizontal strips whose preimage strip is not leftmost, so TL(r) is
    the first endpoint of one iff phi^-1(r) is undefined; the depth-1
    T-side states (side a of the Y generators) are the top ends of the
    vertical strips whose image strip is not top, so TL(k) is the first
    endpoint of one iff phi(k) is undefined. Hence TL(r) is the first
    endpoint of an L-side state iff the chain r, phi^-1(r), ... ends, and
    of a T-side state iff the chain r, phi(r), ... ends. Since phi is
    injective on finitely many rectangles, both chains end unless r lies
    on a phi-cycle, and then TL(r) is the endpoint of no state and no
    node. Each chain is a walk of distinct rectangles in the L digraph, so
    both depths are at most the longest tail plus the period, within N
    and so within ``depth_cap``. Neither side has entered its strip there:
    an attachment f^(2p+j)(E_i0) that held TL(r) would put r on the
    phi-cycle through i0. A strip state at height 0 names the point that
    the edge maps give, and one above 0 is no corner. So TL(r) is paired
    with the first endpoint of an R-side state, which is TR or no corner,
    and with that of a B-side state, which is BL or no corner: three
    different nodes. The argument is about exact points, so it holds where
    the node tables merge exactly the coincident ones, as ``COORD_TOL``
    assumes.

    Links of infinite chains are labeled conservatively from the pairing
    graph: a path is a Line, two or more disjoint cycles are
    CountableCircles, anything else is Undetermined. No graph search is
    needed: the unions are exactly the pairing edges, so each union-find
    shard is one component of its class's graph, and ``_link_label``
    decides from the members' degrees over the distinct pairing edges and
    the number of shards (one for a growing chain, the stitched shards
    for a family).

    The pass runs over dense integer node ids, builds only what the census
    reads and steps no side past its entry depth. Each side of a
    generator is one id column (``_side_ids``): the ids of its first and
    second endpoints at depth 1, then at depth 2, and so on to
    ``depth_cap``. Side a's column is made before side b's, generator by
    generator, and a node's id is the number of nodes seen before it. The
    rule is that of one scan per edge or strip level in order of first
    sight: a position within ``COORD_TOL`` of 0 or of the edge length (of
    0 or 1 on strips) snaps there, a rectangle corner is one node, a strip
    base corner at height 0 is its edge point, and any other position
    takes the least id of its edge or level within ``COORD_TOL``, or a new
    one. Every node site has one lookup table, pos -> id, that applies
    this rule at the lookup, in classify's order: an ``_EdgeTable`` per
    rectangle edge, all made up front, and a ``_StripLevel`` per strip
    level, made by ``_strip_levels``. An edge state reads its edge's table
    at its two offsets; from its entry depth t on, a side reads its
    level's table at its snapped entry coordinates. The tables give the
    scan's ids:

    * a level (key, w) is one step of one orbit (``_strip_levels``), so
      its lookups are the snapped entry coordinates of that orbit's sides
      in classify's order, and the scan of the level sees them in the
      same order;
    * a table keeps each float that it has answered, and that answer
      stays the scan's: ids grow in order of first sight, so a node made
      later is a greater id, and none within ``COORD_TOL`` of the float
      can come before the answer;
    * a level whose orbit's entry coordinates are pairwise more than
      ``COORD_TOL`` apart makes each new z a new node without a search,
      since the scan finds no earlier node within ``COORD_TOL`` of it;
      every other miss runs ``_least_within``, the least id within
      ``COORD_TOL``, which is the first node that the scan meets.

    The columns make the nodes that each depth's pair in turn (a0, b0, a1,
    b1) would make, numbered in another order: the two sides of a
    generator touch disjoint tables, side a only L or T edges, strips and
    corners (TL, BL or TR), side b only R or B ones (TR, BR or BL; one
    family's two kinds share no corner). So each table sees its lookups
    in the same order either way, and a node's depth of first sight is
    the same too.

    The same pass counts each distinct pairing edge once into the degrees
    of its ends: an edge whose ends have different roots is new, since the
    ends of a seen edge share a root, so only an edge within one class is
    looked up in the set of seen edges. The union-find is a ``parent``
    list (``parent[ra] = rb`` on each union of two different roots, so the
    roots, and with them the order of the infinite classes, depend only on
    the order of the identifications): the unions run over the two
    columns of a generator side by side, each depth's first endpoints,
    then its second ones. After the unions, one pass over ``parent``
    lists every id under its root. Finite classes are only counted from
    those lists, not built. The family stitch is the one walk of side a's
    columns: it joins the roots of saturated shards. Each infinite class
    keeps its member ids, link label, size and representative, the least
    ``_node_str`` of its nodes, found by ``_least_node_str`` from the
    node heads without stringifying every node.
    ``ClassCensus.infinite_classes`` and ``ClassCensus.classes`` build the
    class objects on first read.
    """
    D = ext.system.decomposition
    nodes: list[tuple] = []
    heads: list[str] = []
    corners: dict[tuple, int] = {}
    edges = {
        (rect, side): _EdgeTable(nodes, heads, corners, D, rect, side)
        for rect in range(1, D.n + 1) for side in KINDS
    }
    cap, m = schema.depth_cap, schema.nesting_period
    levels = _strip_levels(schema, ext, edges, nodes, heads)

    # late[i] is 1 iff node i was first seen past depth cap - m: a side
    # makes its new ids in column order, so those are the ones above
    # every id in the column's first 2 (cap - m) entries
    early = 2 * max(cap - m, 0)
    late = bytearray()
    columns: list[tuple[list[int], list[int]]] = []
    for gen in schema.generators:
        sides = []
        for side in gen.sides:
            known = len(nodes)
            ids = _side_ids(side, levels, edges, cap)
            mark = max(known, max(ids[:early], default=-1) + 1)
            late += bytes(mark - known) + b"\x01" * (len(nodes) - mark)
            sides.append(ids)
        columns.append(tuple(sides))

    parent = list(range(len(nodes)))
    degree = [0] * len(nodes)
    edges: set[tuple[int, int]] = set()
    for a, b in columns:
        # union, with the find inlined: the root of x is the root of
        # parent[x], and the path to it is compressed. An edge between
        # two roots is new; a new edge raises the degrees of its ends,
        # and within one root parent[rx] = ry changes nothing
        for x, y in zip(a, b):
            if x != y:
                rx, ry = parent[x], parent[y]
                if parent[rx] != rx:
                    rx = parent[x] = _find(parent, rx)
                if parent[ry] != ry:
                    ry = parent[y] = _find(parent, ry)
                edge = (x, y) if x < y else (y, x)
                if rx != ry or edge not in edges:
                    parent[rx] = ry
                    edges.add(edge)
                    degree[x] += 1
                    degree[y] += 1

    # one find per id, listing it under its root; afterwards parent[i] is
    # the root of i, and the member lists come in order of smallest id
    members: dict[int, list[int]] = {}
    for i, root in enumerate(parent):
        if parent[root] != root:
            root = parent[i] = _find(parent, root)
        group = members.get(root)
        if group is None:
            members[root] = [i]
        else:
            group.append(i)

    # a class of three or more nodes is infinite; one that holds a corner
    # node has three or more (see above)
    finite_sizes = [0, 0, 0]  # finite classes by size, 1 or 2
    infinite_roots = set()
    growing_roots = []
    shard_roots = []
    for root, ids in members.items():
        if len(ids) < 3:
            finite_sizes[len(ids)] += 1
            continue
        infinite_roots.add(root)
        if len(ids) >= 4 and any(map(late.__getitem__, ids)):
            growing_roots.append(root)
        else:
            shard_roots.append(root)

    # Stitch saturated shards of one corner family: consecutive depths of
    # a generator endpoint orbit land in consecutive shards. Chains that
    # are still growing already hold their whole family and stay separate.
    # The vertical factor reverses orientation each step, so only every
    # second image returns to the same side of its strip: the stitch runs
    # along the square of the edge maps, from depth d-2 to depth d: four
    # entries on in side a's column, first endpoints then second ones.
    family = {root: root for root in shard_roots}
    for a, _ in columns:
        for x, y in zip(a, islice(a, 4, None)):
            rx, ry = parent[x], parent[y]
            if rx != ry and rx in family and ry in family:
                _union(family, rx, ry)

    families: dict[int, list[int]] = {}
    for root in shard_roots:
        families.setdefault(_find(family, root), []).append(root)

    def summary(ids, shards) -> InfiniteClassSummary:
        return InfiniteClassSummary(
            link_type=_link_label(list(map(degree.__getitem__, ids)), shards),
            size=len(ids),
            representative=_least_node_str(nodes, heads, ids),
            ids=ids,
        )

    def by_node_str(root):
        return _least_node_str(nodes, heads, (root,))

    summaries = [
        summary(members[root], 1)
        for root in sorted(growing_roots, key=by_node_str)
    ] + [
        summary(
            [i for r in families[key] for i in members[r]], len(families[key])
        )
        for key in sorted(families, key=by_node_str)
    ]

    return ClassCensus(
        finite_singletons=finite_sizes[1],
        finite_pairs=finite_sizes[2],
        oversized_finite=0,
        infinite_summaries=tuple(summaries),
        nodes=nodes,
        parent=parent,
        infinite_roots=infinite_roots,
    )


def _link_label(degrees: list[int], shards: int) -> str:
    """Link label of one class from its nodes' degrees in the pairing
    graph and its shard count.

    Each shard is connected by its own pairing edges, and no pairing edge
    joins two shards, so the shards are the components of the pairing
    graph, and its edge count is half the degree sum. It is a path, a
    ``Line``, iff it has one component, no node of degree above 2 and one
    edge fewer than nodes. It is two or more disjoint cycles,
    ``CountableCircles``, iff it has at least two components, no node of
    degree above 2 and as many edges as nodes: the degrees then sum to
    twice the node count, so every node has degree 2.
    """
    if max(degrees) <= 2:
        edges = sum(degrees) // 2
        if shards == 1 and edges == len(degrees) - 1:
            return "Line"
        if shards >= 2 and edges == len(degrees):
            return "CountableCircles"
    return "Undetermined"


# ---------------------------------------------------------------------------
# surface assembly


class End(NamedTuple):
    sign: str
    strip_orbits: tuple[str, ...]


class SurfaceReport(NamedTuple):
    ends: tuple[End, ...]
    infinite_type: bool
    genus_insertion_applied: bool
    genus_insertion_site: tuple | None
    connected: bool | None
    weak_perron_gluing: dict | None
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
            "weak_perron_gluing": self.weak_perron_gluing,
            "stretch_factor": self.stretch_factor,
        }


def assemble_surface(
    ext: ExtendedPieceMap,
    schema: IdentificationSchema,
    census: ClassCensus,
    insert_genus: bool = False,
    weak_perron_k: int | None = None,
) -> SurfaceReport:
    """Group strip orbits into signed ends and decide connectedness.

    Ends are components of the graph on strip orbits linked by the
    identification tails (left with right, top with bottom). Vertical-side
    strips give attracting ends, horizontal-side strips repelling ones.
    Connectedness is certified for primitive matrices, read off the cyclic
    classes of M, which the decomposition's facts hold (one class: some
    power of M is positive), and for block-lift inputs by the boundary-ray
    regluing record; otherwise it is reported as undecided.
    """
    D = ext.system.decomposition

    orbit_sign = {}
    for strip in ext.strips.values():
        orbit_sign[strip.orbit_id] = (
            "Attracting" if strip.kind in ("L", "R") else "Repelling"
        )
    parent = {orbit: orbit for orbit in orbit_sign}
    for gen in schema.generators:
        a, b = gen.tail_orbits
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

    connected, weak_record = _connectedness(D.facts, ext, weak_perron_k)

    site = None
    if insert_genus:
        site = _genus_site(ext)
    infinite_type = insert_genus or any(
        s.link_type == "Line" for s in census.infinite_summaries
    )

    return SurfaceReport(
        ends=tuple(ends),
        infinite_type=infinite_type,
        genus_insertion_applied=insert_genus,
        genus_insertion_site=site,
        connected=connected,
        weak_perron_gluing=weak_record,
        stretch_factor=D.eigen.lam,
    )


def _connectedness(F: MatrixFacts, ext: ExtendedPieceMap, weak_perron_k):
    """Whether the surface is connected, and the regluing record if it was
    decided by the boundary-ray regluing of a k-lift, for the matrix whose
    facts are ``F``.

    The regluing needs M to be the k-th block lift of a primitive matrix
    and the first rectangle's top-left corner periodic; either failing
    raises ``PreconditionError``.
    """
    if weak_perron_k is not None:
        k = weak_perron_k
        base = lift_base(F.matrix, k)
        if base is None:
            raise PreconditionError(f"matrix is not a block lift with k={k}")
        if not is_primitive(base):
            raise PreconditionError(
                f"weak_perron_k={k} needs a primitive base block; "
                f"{base.to_lists()} is not primitive"
            )
        _require_corner_point(ext)
        record = {
            "k": k,
            "A_gluing": [[i, i] for i in range(1, k + 1)],
            "B_gluing": [[i, i % k + 1] for i in range(1, k + 1)],
        }
        return True, record
    if len(F.graph.classes) == 1:
        # one cyclic class of an irreducible M: M is primitive, so some
        # power of M is positive (at the latest M^(n^2 - 2n + 2), Wielandt)
        return True, None
    return None, None


def _require_corner_point(ext: ExtendedPieceMap) -> None:
    for pt in ext.points["L"]:
        if pt.is_corner and pt.corner_type == "TL" and pt.rect == 1:
            return
    raise PreconditionError(
        "boundary-ray regluing needs the first rectangle's top-left corner "
        "periodic; build the decomposition with corner_selection"
    )


def _genus_site(ext: ExtendedPieceMap) -> tuple:
    for kind in KINDS:
        for pt in ext.points[kind]:
            if pt.is_corner:
                return (pt.map_kind, pt.rect, pt.corner_type)
    raise InternalConsistencyError("no corner periodic point for genus insertion")

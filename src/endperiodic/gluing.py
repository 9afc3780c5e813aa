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
segments, named exactly by integers, form equivalence classes whose
census drives the surface report.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, partial
from itertools import islice
from math import inf, ulp
from typing import Callable, NamedTuple

from .edgemaps import (
    _CORNER_AT_END,
    _CORNER_AT_START,
    KINDS,
    EdgeMapSystem,
    PeriodicPoint,
    _side_branch,
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
    IntMatrix,
    MatrixFacts,
    StripLabel,
    _Value,
    is_primitive,
    lift_base,
)

_TRANSFER_TOL = 1e-9

#: the most pair states (generators times ``depth_cap``) in a window that
#: ``enumerate_identifications`` accepts: a run costs about 1.2 KiB per
#: pair state (``tracemalloc`` peak of ``run_pipeline`` on x^64 - x - 1,
#: 24,450 pair states: 27.9 MiB), so this is about 570 MiB
MAX_PAIR_STATES = 500_000


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
    family and the side kinds (``SIDE_KINDS`` of the family) follow from
    it. It is a run value, which classify and the figures read; the
    census names a generator by its index in the order that M fixes, and
    the record stores no id. Per side, ``first_strips`` holds the strip
    that its depth-1 segment spans, the target of its edge-map branch
    (``_side_branch``), ``entry_depths`` its strip-entry depth t,
    ``entry_strips`` the key of that strip (``_strip_entry``) and
    ``tail_orbits`` its orbit id; ``stabilization_depth`` is the larger t.

    ``pair_states[d]``, the two identified image segments at depth d+1
    of the window N + 3m, side a's then side b's, is derived on each read
    by ``endperiodic.window._generator_window``, the per-generator step
    of ``derive_window``, from the sections that the run writes; no
    stage reads it, only the ``Complex2D`` figure and the benchmark's
    traced counter.
    """

    gen_id: str
    first_strips: tuple[StripLabel, StripLabel]
    entry_depths: tuple[int, int]
    entry_strips: tuple[tuple[str, int], tuple[str, int]]
    ext: ExtendedPieceMap

    @property
    def stabilization_depth(self) -> int:
        return max(self.entry_depths)

    @property
    def tail_orbits(self) -> tuple[str, str]:
        strips = self.ext.strips
        return tuple(strips[key].orbit_id for key in self.entry_strips)

    @property
    def pair_states(self) -> tuple[tuple[tuple, tuple], ...]:
        from .window import _generator_window, _geometry

        D = self.ext.system.decomposition
        g = _geometry(D.facts.matrix.to_lists(), {
            "eigendata": D.eigen.to_json_dict(),
            "decomposition": D.to_json_dict(),
        })
        family, k, t = self.gen_id.split(":")
        return _generator_window(
            g, (family, int(k), int(t)), list(self.entry_depths), self.gen_id
        )[0]


class IdentificationSchema(NamedTuple):
    generators: tuple[GeneratorTrace, ...]
    depth_cap: int
    nesting_period: int

    def to_json_dict(self) -> dict:
        """The ``identifications`` section: ``entry_depths``, each
        generator's two strip-entry depths ``[t_a, t_b]``, in the order
        that M's column and row sums fix (README, "The ``identifications``
        section"), so no id is stored. Every state of the window follows
        from these and the other sections by the rule that
        ``endperiodic.window`` runs, each float the builder's to the bit;
        the window N + 3m, read off ``edge_digraphs``, is not restated.
        """
        return {"entry_depths": [list(g.entry_depths) for g in self.generators]}


def enumerate_identifications(ext: ExtendedPieceMap) -> IdentificationSchema:
    """Each generator with the entry depth and strip of both its sides,
    which fix its identified segment pair at every depth (no pair is built).

    Each interior strip boundary generates one identified pair per depth;
    from a generator's stabilization depth on, both images lie in strip
    boundaries and advance by unit translation once per orbit period, so
    the window to ``depth_cap`` and the tail rule certify the relation.

    The window ``depth_cap`` is ``N + 3m``, with N the escape depth and
    m the ``nesting_period``, the lcm of the cycle periods. Why one
    common period is enough:

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
      cap 7, max s 5). Every generator is still checked against it: one
      with s above N + m raises ``InternalConsistencyError``, naming the
      generator and both depths.
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

    No state is built: each side of a generator keeps its entry depth t
    and entry strip (``_strip_entry``, run once per kind and depth-1
    rect), and the record stores t alone
    (``IdentificationSchema.to_json_dict``). That is sound from depth t
    itself: t is the first depth at which that side is a strip state, and
    ``ExtendedPieceMap.step`` sends a strip state to the strip state named
    by its key, the edge digraph and the initial flags alone. So the
    side's depth-1 segment, t and the rule fix all of its states up to
    ``depth_cap``, whatever the other side does; ``endperiodic.window``
    derives them from the record, and ``GeneratorTrace.pair_states``
    from the run's own sections, on read.

    A window of more than ``MAX_PAIR_STATES`` pair states (generators
    times ``depth_cap``) raises ``InvalidInputError``.
    """
    system = ext.system
    D = system.decomposition
    N = max_escape_depth(system)
    m = nesting_period(system)
    depth_cap = N + 3 * m
    _refuse_oversized_window(D.facts.matrix, depth_cap)

    entries = {}  # (kind, rect of the depth-1 segment) -> (strip, t)
    traces = []
    for k in range(1, D.n + 1):
        for family, orders in (("X", D.vertical_order),
                               ("Y", D.horizontal_order)):
            for t in range(1, len(orders[k])):
                sides = []
                for kind, label in zip(SIDE_KINDS[family],
                                       (orders[k][t], orders[k][t - 1])):
                    strip = _side_branch(system.piece_map, kind, label).target
                    key = (kind, strip.rect)
                    if key not in entries:
                        entries[key] = _strip_entry(*key, ext)
                    sides.append((strip, *entries[key]))
                (fa, sa, ta), (fb, sb, tb) = sides
                traces.append(GeneratorTrace(
                    gen_id=f"{family}:{k}:{t}",
                    first_strips=(fa, fb),
                    entry_depths=(ta, tb),
                    entry_strips=(sa.key, sb.key),
                    ext=ext,
                ))
    for trace in traces:
        if trace.stabilization_depth > N + m:
            raise InternalConsistencyError(
                f"generator {trace.gen_id} stabilizes at depth "
                f"{trace.stabilization_depth}, past N + m = {N + m}: the "
                f"window {depth_cap} holds less than two whole periods past "
                "its stabilization"
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
    ``depth_cap`` None standing for the window N + 3m, which is at least
    5 (N is at least 2 and m at least 1); ``enumerate_identifications``
    calls it with the window it is about to build.
    """
    generators = 2 * sum(map(sum, M.entries)) - 2 * M.n
    least = "at least " if depth_cap is None else ""
    cap = 5 if depth_cap is None else depth_cap
    if generators * cap > MAX_PAIR_STATES:
        raise InvalidInputError(
            f"depth_cap {least}{cap} with {generators} generators is "
            f"{least}{generators * cap} pair states, above the limit "
            f"{MAX_PAIR_STATES}"
        )


# ---------------------------------------------------------------------------
# node names and class census


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
    representative: tuple[int, int, int, int]
    ids: list[int]


class ClassCensus(_Value):
    """Finite-class counts and the infinite classes of one classify pass.

    ``infinite_summaries`` holds, per infinite class in record order (by
    least id), its link label, its size, its representative (where
    classify first saw its least id, ``(g, side, depth, endpoint)``, no
    ``gen_id``) and its member ids: all that ``to_json_dict``, one row
    ``[link, [g, side, depth, endpoint], size_at_cap]`` per class, and
    ``assemble_surface`` read. ``parent`` (id -> union-find root, fully
    compressed) is the forest of the pass, ``infinite_roots`` the roots of
    its infinite classes, and ``decode()`` returns the name of each id
    (``_node_names``); the record reads none of them.

    Three views are built on first read and then cached: ``nodes``
    (``decode()``: id -> the node's exact name, in order of first sight),
    ``infinite_classes``, one ``EquivalenceClass`` per summary, and
    ``classes``, the finite classes first, in order of their smallest id,
    then ``infinite_classes``; each class lists its nodes in tuple order.
    A name is a tuple of ints, letters and keys: ``("C", rect, corner)``
    for a rectangle corner, ``("E", kind, rect, t, s)`` for boundary t of
    the strips along the ``kind`` edge of ``rect`` after s steps of that
    kind's edge map, and ``("S", key, s, name)`` for a strip point s steps
    past its orbit's entry strip ``key``, ``name`` the edge point where
    its side entered. Names with one tag compare field by field, so any
    two compare.
    """

    #: compared and shown; the forest, roots and names are neither
    _fields = ("finite_singletons", "finite_pairs", "infinite_summaries")

    def __init__(
        self,
        finite_singletons: int,
        finite_pairs: int,
        infinite_summaries: tuple[InfiniteClassSummary, ...],
        decode: Callable[[], list[tuple]],
        parent: list[int],
        infinite_roots: set[int],
    ):
        vars(self).update(
            finite_singletons=finite_singletons,
            finite_pairs=finite_pairs,
            infinite_summaries=infinite_summaries,
            decode=decode,
            parent=parent,
            infinite_roots=infinite_roots,
        )

    @cached_property
    def nodes(self) -> list[tuple]:
        return self.decode()

    @cached_property
    def infinite_classes(self) -> tuple[EquivalenceClass, ...]:
        nodes = self.nodes
        return tuple(
            EquivalenceClass(tuple(sorted(nodes[i] for i in s.ids)), s.link_type)
            for s in self.infinite_summaries
        )

    @cached_property
    def classes(self) -> tuple[EquivalenceClass, ...]:
        nodes, infinite_roots = self.nodes, self.infinite_roots
        groups: dict[int, list[tuple]] = {}
        for i, root in enumerate(self.parent):
            if root not in infinite_roots:
                groups.setdefault(root, []).append(nodes[i])
        return tuple(
            EquivalenceClass(tuple(sorted(group)), None)
            for group in groups.values()
        ) + self.infinite_classes

    def to_json_dict(self) -> dict:
        return {
            "finite_singletons": self.finite_singletons,
            "finite_pairs": self.finite_pairs,
            "infinite_classes": [
                [s.link_type, list(s.representative), s.size]
                for s in self.infinite_summaries
            ],
        }


#: the corners of a rectangle, by their place c in the code ~(4 rect + c)
_CORNERS = ("TL", "TR", "BL", "BR")
#: kind -> ~c of the start and end corners of its edge, at ~c - 4 rect
_EDGE_CORNERS = {kind: tuple(~_CORNERS.index(at[kind])
                             for at in (_CORNER_AT_START, _CORNER_AT_END))
                 for kind in KINDS}


def _edge_codes(system: EdgeMapSystem, stride: int) -> tuple:
    """The int codes of classify's edge points and corners, as ``(ends,
    images, edges)``. ``ends[kind][strip]`` holds the codes of boundaries
    t and t + 1 of the count strips along the ``kind`` edge of the rect of
    ``strip``, t its place there. Boundaries 0 and count are that edge's
    corners (``_EDGE_CORNERS``); boundary t after s steps of the kind's
    edge map is ``(base + t - 1) * stride + s``, base the number of inner
    boundaries of the edges before it in ``edges``, which lists ``(kind,
    rect, count)`` per edge. ``images[kind]`` sends each corner of a
    ``kind`` edge one step, to the first or last end of the strip that the
    edge's branch maps it onto, the branch's ``target``; any other code x
    steps to x + 1."""
    D = system.decomposition
    ends, images, edges, base = {k: {} for k in KINDS}, {k: {} for k in KINDS}, [], 0
    for kind, strip_ends in ends.items():
        start, end = _EDGE_CORNERS[kind]
        along = D.horizontal_order if kind in ("L", "R") else D.vertical_order
        for r, order in along.items():
            edges.append((kind, r, len(order)))
            points = range(base * stride, (base + len(order) - 1) * stride, stride)
            points = [start - 4 * r, *points, end - 4 * r]
            strip_ends.update(zip(order, zip(points, points[1:])))
            base += len(order) - 1
        image = images[kind]
        for r, br in system.maps[kind].branches.items():
            image[start - 4 * r], image[end - 4 * r] = strip_ends[br.target]
    return ends, images, edges


def _base_levels(ext: ExtendedPieceMap, key, image) -> dict[int, list[int]]:
    """Each end of the entry strip ``key`` -> the codes of its points at
    the levels of height 0 past entry, where a side that entered at that
    end stands on its edge; ``image`` is ``_edge_codes``' corner table of
    its kind. The ends are the images of the corners of the edge of
    ``key`` under 2p steps, p the orbit's period, as in ``attach_strips``,
    and the tail rule keeps height 0 until its first rise."""
    ends = [c - 4 * key[1] for c in _EDGE_CORNERS[key[0]]]
    for _ in range(2 * ext.strips[key].period):
        ends = [x + 1 if x >= 0 else image[x] for x in ends]
    levels = {x: [x] for x in ends}
    at, rise = ext.step[key]
    while not rise:
        for run in levels.values():
            run.append(run[-1] + 1 if run[-1] >= 0 else image[run[-1]])
        at, rise = ext.step[at]
    return levels


def _node_names(count, index, blocks, edges, stride) -> list[tuple]:
    """The names (``ClassCensus``) of the ``count`` nodes of one classify
    pass, by id: ``index`` maps the code of each edge point and corner
    (``_edge_codes``) to its id, and ``blocks`` holds the strip points as
    ``(ids, key, code, s)``: the points s, s + 1, ... steps past the entry
    strip ``key`` of a side that entered at the point ``code``."""
    edges = [(kind, r, t) for kind, r, size in edges for t in range(1, size)]

    def name(code: int) -> tuple:
        if code < 0:
            rect, corner = divmod(~code, 4)
            return ("C", rect, _CORNERS[corner])
        base, s = divmod(code, stride)
        return ("E", *edges[base], s)

    nodes = [None] * count
    for code, i in index.items():
        nodes[i] = name(code)
    for ids, key, code, s in blocks:
        entry = name(code)
        for i, step in zip(ids, range(s, s + len(ids))):
            nodes[i] = ("S", key, step, entry)
    return nodes


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
    different nodes.

    The argument is about exact points, and so are the nodes: each is an
    exact name (``ClassCensus``), and two are one point iff their names
    are equal. Each edge-map branch maps its full edge injectively onto
    the end of one strip, and distinct rectangles map onto the ends of
    distinct strips, whose interiors are disjoint. So a point inside an
    image has exactly one preimage, on the edge of one rectangle, and no
    strip boundary or corner lies inside an image. An edge name of s >= 1
    steps lies inside an image, and a boundary (s = 0) or a corner does
    not. So two edge names on one edge are one point only if both are the
    same boundary, or both have s >= 1 and their preimages are one point,
    which by induction on s makes them equal. A
    strip point is its level and its strip coordinate, an injective
    affine image of the edge point where its side entered, so it is named
    by that point's name. At height 0 the strip's base corners are its
    attachment's ends, which are edge points; a side that entered at one
    of them is there, and any other strip point lies on no edge.

    Links of infinite chains are labeled conservatively from the pairing
    graph: a path is a Line, two or more disjoint cycles are
    CountableCircles, anything else is Undetermined. No graph search is
    needed: the unions are exactly the pairing edges, so each union-find
    shard is one component of its class's graph, and ``_link_label``
    decides from the members' degrees over the distinct pairing edges and
    the number of shards (one for a growing chain, the stitched shards
    for a family).

    The pass runs over dense integer node ids, builds only what the census
    reads, steps no side past its entry depth, and reads no coordinate
    and builds no name: an edge point or corner is an int code
    (``_edge_codes``), one-to-one with its name, and one edge-map step is
    code + 1 or a corner-table lookup. Each side of a generator is one id
    column: the ids of its first and second endpoints at depth 1, then at
    depth 2, and so on to ``depth_cap``. Side a's column is made before
    side b's, generator by generator, and a node's id is the number of
    nodes seen before it. A side steps the codes of the ends of its
    ``first_strips`` strip to its entry depth t, looking each up, and from
    t on stands on the levels of its entry strip at its entry point. The
    ids there are listed per strip and entry point by steps past entry,
    shared by every side that enters there, and a side grows its two
    lists to its need, by step, its first endpoint's before its second's.
    A point at height 0 on an end of the strip is an edge point
    (``_base_levels``) and is looked up; every other one is new, so its
    ids come as ``range`` blocks, which ``ClassCensus.nodes`` names on
    first read (``_node_names``).

    The columns make the nodes that each depth's pair in turn (a0, b0, a1,
    b1) would make, numbered in another order: side a names only points of
    L or T edges and strips and corners TL, BL or TR, side b only R or B
    ones (TR, BR or BL; one family's two kinds share no corner). So a
    node's depth of first sight is the same either way.

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
    those lists, not built. The family stitch, run only if there are
    shards, is the one walk of side a's columns: it joins the roots of
    saturated shards. Each infinite class keeps its member ids, link label
    and size, and is named by where the pass first saw its least id i: i
    is new in the last column that starts (by the node count before it)
    at or below i, and first stands there at its first place in that
    column, which gives its generator's index g, side (0 for a, 1 for b),
    depth and endpoint (0 or 1), as in ``(2, 0, 5, 0)``. The infinite
    classes are listed by least id; ``ClassCensus`` builds the class
    objects on first read.
    """
    cap, m = schema.depth_cap, schema.nesting_period
    # the stride is cap: a walk takes fewer steps past a boundary, at most
    # t - 1 < cap to a side's entry and 3p - 1 < 3m to a base level
    ends, images, edges = _edge_codes(ext.system, cap)
    index: dict[int, int] = {}  # edge point or corner code -> id
    # a code seen first gets the id n, and then the count n grows by one
    node = index.setdefault
    blocks: list[tuple[range, tuple[str, int], int, int]] = []
    levels: dict[tuple[str, int], tuple[dict, dict]] = {}
    n = 0  # the node count

    late = bytearray()  # late[i] is 1 iff i was first seen past cap - m
    columns: list[tuple[list[int], list[int]]] = []
    starts: list[int] = []  # the node count before each side's column
    for gen in schema.generators:
        sides = []
        for kind, strip, entry, key in zip(
            SIDE_KINDS[gen.gen_id[0]], gen.first_strips,
            gen.entry_depths, gen.entry_strips,
        ):
            known = n
            starts.append(known)
            image = images[kind]
            a, b = ends[kind][strip]
            ids = []
            for _ in range(entry - 1):
                i = node(a, n)
                n += i == n
                j = node(b, n)
                n += j == n
                ids += i, j
                a = a + 1 if a >= 0 else image[a]
                b = b + 1 if b >= 0 else image[b]
            base, tails = levels.get(key) or levels.setdefault(
                key, (_base_levels(ext, key, image), {}))
            need = cap - entry + 1
            ta, tb = tails.setdefault(a, []), tails.setdefault(b, [])
            # a step on a base level takes one id per list that grows at
            # it, in turn; those levels are at most p <= m < need - m
            for s in range(min(len(ta), len(tb)),
                           max(len(base.get(a, ())), len(base.get(b, ())))):
                for x, tail in ((a, ta), (b, tb)):
                    if len(tail) == s:
                        run = base.get(x, ())
                        if s < len(run):
                            i = node(run[s], n)
                            n += i == n
                        else:
                            i = n
                            blocks.append((range(n, n + 1), key, x, s))
                            n += 1
                        tail.append(i)
            # every later strip point is new: the shorter list grows alone
            # to the longer one, then the two take ids in turn. Ids are made
            # in column order, so those past step need - m are the late ones
            la, lb = len(ta), len(tb)
            mark = n + max(0, need - m - la) + max(0, need - m - lb)
            if la != lb:
                x, tail, s = (a, ta, la) if la < lb else (b, tb, lb)
                new = range(n, n + min(la + lb - s, need) - s)
                if new:
                    tail += new
                    blocks.append((new, key, x, s))
                    n = new.stop
            s = len(ta)
            if s < need and s == len(tb):
                new = range(n, n + 2 * (need - s))
                ta += new[::2]
                tb += new[1::2]
                blocks += ((new[::2], key, a, s), (new[1::2], key, b, s))
                n = new.stop
            late += bytes(mark - known) + b"\x01" * (n - mark)
            steps = [0] * (2 * need)
            steps[::2], steps[1::2] = ta[:need], tb[:need]
            ids += steps
            sides.append(ids)
        columns.append(tuple(sides))

    parent = list(range(n))
    degree = [0] * n
    edges_seen: set[tuple[int, int]] = set()
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
                if rx != ry or edge not in edges_seen:
                    parent[rx] = ry
                    edges_seen.add(edge)
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
    # Each distinct pair of roots is joined once; with no shards, no walk.
    family = {root: root for root in shard_roots}
    pairs: set[tuple[int, int]] = set()
    for a, _ in columns if family else ():
        roots = list(map(parent.__getitem__, a))
        pairs.update(zip(roots, islice(roots, 4, None)))
    for rx, ry in pairs:
        if rx != ry and rx in family and ry in family:
            _union(family, rx, ry)

    families: dict[int, list[int]] = {}
    for root in shard_roots:
        families.setdefault(_find(family, root), []).append(root)

    def name(i: int) -> tuple[int, int, int, int]:
        g, side = divmod(bisect_right(starts, i) - 1, 2)
        place = columns[g][side].index(i)
        return (g, side, place // 2 + 1, place % 2)

    infinite = [(members[root], 1) for root in growing_roots] + [
        ([i for r in roots for i in members[r]], len(roots))
        for roots in families.values()
    ]
    summaries = tuple(
        InfiniteClassSummary(
            _link_label(list(map(degree.__getitem__, ids)), shards),
            len(ids), name(least), ids,
        )
        for least, ids, shards in sorted(
            (min(ids), ids, shards) for ids, shards in infinite
        )
    )

    return ClassCensus(
        finite_singletons=finite_sizes[1],
        finite_pairs=finite_sizes[2],
        infinite_summaries=summaries,
        decode=partial(_node_names, n, index, blocks, edges, cap),
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
    """The surface's ends and flags. ``stretch_factor`` is lambda and
    ``eta`` the Perron vector that ``verify_stretch`` certifies it with;
    the record writes each once, in ``eigendata``."""

    ends: tuple[End, ...]
    infinite_type: bool
    connected: bool | None
    weak_perron_gluing: dict | None
    stretch_factor: float
    eta: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "ends": [
                {"sign": e.sign, "strip_orbits": list(e.strip_orbits)}
                for e in self.ends
            ],
            "infinite_type": self.infinite_type,
            "connected": self.connected,
            "weak_perron_gluing": self.weak_perron_gluing,
        }


def assemble_surface(
    ext: ExtendedPieceMap,
    schema: IdentificationSchema,
    census: ClassCensus,
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

    infinite_type = any(
        s.link_type == "Line" for s in census.infinite_summaries
    )

    return SurfaceReport(
        ends=tuple(ends),
        infinite_type=infinite_type,
        connected=connected,
        weak_perron_gluing=weak_record,
        stretch_factor=D.eigen.lam,
        eta=D.eigen.eta,
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

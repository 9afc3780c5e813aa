"""The window of identified segments, derived from a stored record alone.

README ("The ``identifications`` section") states how the entry depths,
``config.matrix``, the exact ``eigendata``, ``decomposition.sigma``/``tau``
and the edge digraphs give every identified segment pair at depths
1..``depth_cap``, the window N + 3m. ``derive_window`` is that rule, run
over the generators in the order that M's column and row sums fix, and
``_generator_window`` its step for one generator, which
``GeneratorTrace.pair_states`` also calls for the ``Complex2D`` figure.
It imports no module of the construction; certifying and verifying
never load it.
"""

from __future__ import annotations

import math
from contextlib import suppress
from functools import cache
from typing import Callable, NamedTuple

from .errors import VerificationError

#: the edge-map kinds of a generator's sides a and b, by its family
_FAMILY_KINDS = {"X": ("L", "R"), "Y": ("T", "B")}


class _Geometry(NamedTuple):
    """What the segments are made of: lambda, eta and omega; ``vb(k)`` and
    ``hb(k)``, the vertical and horizontal strip boundaries of rect k,
    each computed on its first read; the piece map as ``source[(k, s)] =
    (i, q)``, the vertical strip at position s of rect k onto the
    horizontal strip at position q of rect i, with ``target`` its
    inverse; ``edges[kind][r] = (i, q)``, the edge-map branch of
    ``kind`` at rect r: onto rect i, its offset0 the boundary q of i's
    horizontal (L, R) or vertical (T, B) strips; ``orbits[kind]``, the
    ``_orbits`` of that edge digraph; the escape depth N, the nesting
    period m and the window ``cap`` = N + 3m."""

    lam: float
    eta: list
    omega: list
    vb: Callable[[int], list]
    hb: Callable[[int], list]
    source: dict
    target: dict
    edges: dict
    orbits: dict
    N: int
    m: int
    cap: int


def derive_window(record: dict) -> tuple[int, int, int, list]:
    """The escape depth N, the nesting period m, ``depth_cap`` = N + 3m
    and each generator's window (``_generator_window``), from the
    ``config.matrix`` and ``sections`` of a record as ``load_record``
    returns it. The i-th pair of ``identifications.entry_depths`` is the
    i-th generator's, in the order that M's column and row sums fix: for
    each rect k = 1..n, ``X:k:1`` .. ``X:k:(colsum k - 1)``, then
    ``Y:k:1`` .. ``Y:k:(rowsum k - 1)``.

    Raises :class:`VerificationError`, naming the JSON path in the
    sections, if a value that the rule reads is missing or of the wrong
    shape, if ``entry_depths`` does not hold one pair per generator, if a
    stored entry depth is not the one that the edge digraph gives, or if
    an edge digraph is not the one that the piece map gives.
    """
    sections, rows = record["sections"], record["config"]["matrix"]
    g = _geometry(rows, sections)
    stored = _get(sections, "edge_digraphs", shape=dict)
    for kind in sorted(stored.keys() | g.edges.keys()):
        text = "".join(f"{r} {i}\n" for r, (i, _) in g.edges.get(kind, {}).items())
        if kind not in g.edges or stored.get(kind) != text:
            raise VerificationError(
                f"edge_digraphs.{kind} is not the digraph of the {kind} edge "
                "map that decomposition and config.matrix give"
            )
    generators = [(family, k, t) for k, column in enumerate(zip(*rows), 1)
                  for family, strips in (("X", sum(column)), ("Y", sum(rows[k - 1])))
                  for t in range(1, strips)]
    where = "identifications.entry_depths"
    depths = _get(sections, where, shape=list)
    if len(depths) != len(generators):
        raise VerificationError(
            f"{where} holds {len(depths)} pairs, not {len(generators)}"
        )
    windows = [
        _generator_window(g, generator, pair, f"{where}[{i}]")
        for i, (generator, pair) in enumerate(zip(generators, depths))
    ]
    return g.N, g.m, g.cap, windows


def _generator_window(g: _Geometry, generator: tuple, depths, where: str
                      ) -> tuple:
    """``(pairs, tail_orbits, stabilization_depth)`` of the generator
    ``(family, k, t)`` whose sides enter their strips at ``depths``, the
    pair stored at the JSON path ``where``. ``pairs[d]`` holds the two
    identified segments at depth d + 1, side a's then side b's: an edge
    state ``("E", rect, kind, a, b)`` before the side's entry depth t
    and a strip state ``("S", (kind, i0), za, zb, w)`` from t on. The
    tail orbits are ``"<kind>:<i0>"`` of the two sides, and the
    stabilization depth is the larger t."""
    if (not isinstance(depths, list) or len(depths) != 2
            or any(type(t) is not int for t in depths)):
        raise VerificationError(f"{where} {depths!r} is not two ints")
    sides, tails = [], []
    for side, (kind, first, t) in enumerate(
        zip(_FAMILY_KINDS[generator[0]], _first_segments(g, *generator), depths)
    ):
        orbits = g.orbits[kind]
        states, tail = _side(kind, first, t, g, orbits, f"{where}[{side}]")
        # the tail rule: one step along the digraph, one unit higher on
        # passing the orbit's initial rect
        _, (_, rect), za, zb, w = states[-1]
        while len(states) < g.cap:
            target = g.edges[kind][rect][0]
            passed = target if kind in ("L", "R") else rect
            w += orbits[passed][1][0] == passed
            rect = target
            states.append(("S", (kind, rect), za, zb, w))
        sides.append(states)
        tails.append(tail)
    return tuple(zip(*sides)), tuple(tails), max(depths)


def _get(sections: dict, path: str, shape: type | None = None):
    """The value at the dotted JSON ``path`` in ``sections``;
    :class:`VerificationError` names the path if a key on it is missing
    or the value is not a ``shape`` (dict, list)."""
    obj, where = sections, ""
    for key in path.split("."):
        where = f"{where}.{key}" if where else key
        if not isinstance(obj, dict) or key not in obj:
            raise VerificationError(f"{where} is missing")
        obj = obj[key]
    if shape is not None and not isinstance(obj, shape):
        raise VerificationError(f"{where} is not a {shape.__name__}")
    return obj


def _numbers(sections: dict, path: str, n: int) -> list[float]:
    """The ``n`` floats of the array at ``path``, each stored by ``repr``."""
    values = _get(sections, path, shape=list)
    if len(values) != n:
        raise VerificationError(f"{path} holds {len(values)} numbers, not {n}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(values)]


def _number(value, path: str) -> float:
    """The float that ``value``, a number or its text but not a bool,
    states; it must be finite and positive, as lambda, eta and omega are."""
    with suppress(TypeError, ValueError):
        number = float(value)
        if not isinstance(value, bool) and 0 < number < math.inf:
            return number
    raise VerificationError(f"{path} {value!r} is not a number in (0, inf)")


def _orbits(digraph: dict) -> dict:
    """rect -> (its steps to the cycle of the functional digraph that it
    reaches, that cycle listed from its least rect)."""
    out = {}
    for rect in digraph:
        path = []
        while rect not in out and rect not in path:
            path.append(rect)
            rect = digraph[rect]
        if rect in out:
            steps, cycle = out[rect]
        else:  # the path closed a new cycle at rect
            cycle, path = path[path.index(rect):], path[:path.index(rect)]
            least = cycle.index(min(cycle))
            cycle, steps = cycle[least:] + cycle[:least], 0
            out.update((r, (0, cycle)) for r in cycle)
        for r in reversed(path):
            steps += 1
            out[r] = (steps, cycle)
    return out


def _units(rows: list, k: int, orientation: str) -> list[tuple[int, int]]:
    """(source, copy) of each strip label of rect k in ascending order, as
    the matrix ``rows`` gives them: one per unit of column k (vertical,
    ``"V"``) or row k (horizontal), by source, then copy."""
    mults = [row[k - 1] for row in rows] if orientation == "V" else rows[k - 1]
    return [
        (i, j) for i, mult in enumerate(mults, start=1)
        for j in range(1, mult + 1)
    ]


def _boundaries(sources: list, basis: list, lam: float) -> list:
    """Strip boundaries by the decomposition's rule: the t-th is lambda^-1
    times the sum of count_i * basis_i over the strips before it, its
    terms added in ascending i."""
    counts, out = {}, [0.0]
    for i in sources:
        counts[i] = counts.get(i, 0) + 1
        out.append(sum([counts[j] * basis[j - 1] for j in sorted(counts)]) / lam)
    return out


def _geometry(rows: list, sections: dict) -> _Geometry:
    """The geometry of the segments, from the exact eigendata, sigma/tau
    and the matrix ``rows``. The integers and orbits are built at once; a
    rect's boundaries, floats, only when a segment reads them, so that a
    record of one generator costs the rects that its sides visit."""
    n = len(rows)
    stored = _get(sections, "eigendata.lambda")
    lam = _number(stored, "eigendata.lambda")
    if lam <= 1:  # the builder writes only a stretch factor above 1
        raise VerificationError(f"eigendata.lambda {stored!r} is not above 1")
    eta, omega = (_numbers(sections, f"eigendata.{key}", n)
                  for key in ("eta", "omega"))
    rects = range(1, n + 1)
    v_units = {k: _units(rows, k, "V") for k in rects}
    h_units = {k: _units(rows, k, "H") for k in rects}
    tau = {k: _permutation(sections, f"decomposition.tau.{k}", len(v_units[k]))
           for k in rects}
    sigma = {k: _permutation(sections, f"decomposition.sigma.{k}",
                             len(h_units[k]))
             for k in rects}

    @cache
    def vb(k: int) -> list:
        return _boundaries([v_units[k][p][0] for p in tau[k]], omega, lam)

    @cache
    def hb(k: int) -> list:
        domain = {q: p for p, q in enumerate(sigma[k])}
        return _boundaries(
            [h_units[k][domain[q]][0] for q in range(len(sigma[k]))], eta, lam
        )

    h_position = {k: {unit: p for p, unit in enumerate(h_units[k])}
                  for k in rects}
    source = {}
    for k in rects:
        domain = {p: s for s, p in enumerate(tau[k])}
        for p, (i, j) in enumerate(v_units[k]):
            source[k, domain[p]] = (i, sigma[i][h_position[i][k, j]])
    target = {image: src for src, image in source.items()}
    # the first (L, T) or last (R, B) strip of each rect, by its branch
    edges = {
        "L": {r: source[r, 0] for r in rects},
        "R": {r: source[r, len(tau[r]) - 1] for r in rects},
        "T": {r: target[r, 0] for r in rects},
        "B": {r: target[r, len(sigma[r]) - 1] for r in rects},
    }
    orbits = {kind: _orbits({r: i for r, (i, _) in branches.items()})
              for kind, branches in edges.items()}
    every = [orbit for per in orbits.values() for orbit in per.values()]
    N = max(steps for steps, _ in every) + 2 * max(len(c) for _, c in every)
    m = math.lcm(*{len(cycle) for _, cycle in every})
    return _Geometry(lam=lam, eta=eta, omega=omega, vb=vb, hb=hb,
                     source=source, target=target, edges=edges,
                     orbits=orbits, N=N, m=m, cap=N + 3 * m)


def _permutation(sections: dict, path: str, n: int) -> list[int]:
    """The array at ``path``, which must order 0..n-1."""
    value = _get(sections, path, shape=list)
    if any(type(v) is not int for v in value) or sorted(value) != list(range(n)):
        raise VerificationError(f"{path} is not a permutation of 0..{n - 1}")
    return value


def _first_segments(g: _Geometry, family: str, k: int, t: int) -> tuple:
    """The depth-1 (rect, a, b) of each side of the generator ``family:k:t``:
    the images (y0, y0 + eta_k / lambda) of the t-th and (t-1)-th
    vertical strips of rect k for family X, the preimages (x0, x0 +
    omega_k / lambda) of its horizontal strips for family Y."""
    strips, bounds, edge = (
        (g.source, g.hb, g.eta) if family == "X" else (g.target, g.vb, g.omega)
    )
    out = []
    for position in (t, t - 1):
        r, q = strips[k, position]
        a = bounds(r)[q]
        out.append((r, a, a + edge[k - 1] / g.lam))
    return tuple(out)


def _side(kind, first, t, g, orbits, where) -> tuple:
    """One side's states at depths 1..t and its tail orbit:
    the depth-1 segment ``first``, its edge-map images (x to offset0 +
    x / lambda), and at the entry depth t, where the walk is on i0, the
    least rect of the cycle it reaches, the strip state of (kind, i0) at
    height 0, whose (za, zb) are the strip coordinates of the segment.
    The strip's base is the 2p-fold image of the edge of i0, p the
    cycle's length.

    t must be e + 2p + (-j mod p), e the depth at which the side reaches
    its cycle and j its position there; else :class:`VerificationError`
    names the stored depth by its path ``where``."""
    edges = g.edges[kind]
    bounds = g.hb if kind in ("L", "R") else g.vb
    rect, a, b = first
    steps, cycle = orbits[rect]
    i0, p = cycle[0], len(cycle)
    entry = rect
    for _ in range(steps):
        entry = edges[entry][0]
    rule = steps + 1 + 2 * p + (-cycle.index(entry) % p)
    if t != rule:
        raise VerificationError(
            f"{where} is {t}, not {rule}, the depth at which the side "
            "enters its strip by the edge digraph",
            expected=rule, actual=t,
        )
    states = [("E", rect, kind, a, b)]
    lam = g.lam
    for _ in range(t - 1):
        rect, q = edges[rect]
        offset0 = bounds(rect)[q]
        a, b = offset0 + a / lam, offset0 + b / lam
        states.append(("E", rect, kind, a, b))
    lo, v = 0.0, i0
    for _ in range(2 * p):
        v, q = edges[v]
        lo = bounds(v)[q] + lo / lam
    edge = g.eta[i0 - 1] if kind in ("L", "R") else g.omega[i0 - 1]
    hi = lo + edge * lam ** -(2 * p)
    length = hi - lo
    if not 0 < length < math.inf:
        raise VerificationError(
            f"eigendata give the strip {kind}:{i0} of {where} the float "
            f"length {length!r}"
        )
    if kind in ("L", "R"):
        za, zb = (hi - a) / length, (hi - b) / length
    else:
        za, zb = (a - lo) / length, (b - lo) / length
    states[-1] = ("S", (kind, i0), za, zb, 0)
    return states, f"{kind}:{i0}"

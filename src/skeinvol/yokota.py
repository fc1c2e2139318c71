"""Yokota invariant, full coloring sums, and the Hopf-pairing transform.

For a trivalent colored graph the Yokota invariant is ``<G, col>**2``
with ``<.>`` the bracket of `skeinvol.bracket`.  The bracket is always
real or purely imaginary, so the square is real — but it is the signed
square, not the squared modulus: the sign carries the parity of
negative theta values, and only the signed version is independent of
the choices below (splitting the two loops of a figure-eight vertex the
two possible ways is the smallest case where the squared modulus gives
two different answers).

A vertex of valence ``k > 3`` is first split into a fan of ``k - 2``
trivalent vertices joined by ``k - 3`` new internal edges; the
invariant then sums the squared bracket over all colors of the internal
edges, weighted by one circle weight per internal edge.  The result
does not depend on how the vertices were split.  Low-valence vertices
are removed first by local rules: a pendant edge forces its color to 0,
a two-valent vertex forces its two edge colors to agree and contributes
a factor ``1 / circle_weight``, and an isolated vertex contributes a
factor 1.

The invariant is real but can be negative; the graph analogue of a
state sum therefore adds absolute values over all colorings
(`tv_graph`).  `fourier_dual` relates the coloring table of a graph to
single values on its planar dual through the Hopf-link pairing matrix
`hopf_pairing`.
"""

from __future__ import annotations

import math

from .bracket import _RGraph, _validate_coloring, bracket
from .errors import LowValence
from .extscalar import ExtScalar, SignLogReal
from .planar import PlanarGraph, betti
from .qnum import (
    Level,
    circle_weight,
    is_admissible_triple,
    kirby_norm,
    quantum_integer,
)

__all__ = [
    "admissible_colorings",
    "desingularize",
    "fourier_dual",
    "hopf_pairing",
    "maximizing_color",
    "tv_graph",
    "yokota",
    "yokota_ext",
    "yokota_kirby",
    "yokota_table",
]


def hopf_pairing(i, j, level) -> float:
    """Bracket of the 0-framed Hopf link with components colored i, j.

    Equals (-1)**(i+j) * [(i+1)(j+1)].  The matrix is symmetric, and
    pairing against the color 0 recovers the circle weight.
    """
    return (-1) ** (i + j) * quantum_integer((i + 1) * (j + 1), level)


def maximizing_color(level) -> int:
    """The even color nearest (r-2)/2, i.e. (r-2±1)/2 with even sign choice.

    Coloring every edge of a graph with it makes the invariant grow at
    the fastest known rate as the level increases.
    """
    r = Level.of(level).r
    return 2 * ((r - 1) // 4)


# ---------------------------------------------------------------------------
# desingularization


def _fan_vertex(rg, v, offset, next_vertex):
    """Split the >3-valent vertex v of rg into a path of trivalent ones.

    offset rotates which corner of v the fan starts at; any choice gives
    an equivalent (sphere-embedded) result.  Returns (new edge ids,
    next free vertex id).
    """
    darts = rg.rot.pop(v)
    k = len(darts)
    a = darts[offset % k:] + darts[: offset % k]
    fans = [rg.new_edge(None) for _ in range(k - 3)]
    verts = list(range(next_vertex, next_vertex + k - 2))
    rots = [[2 * fans[0], a[0], a[1]]]
    for t in range(1, k - 3):
        rots.append([2 * fans[t], 2 * fans[t - 1] + 1, a[t + 1]])
    rots.append([a[k - 1], 2 * fans[-1] + 1, a[k - 2]])
    for u, rot in zip(verts, rots):
        rg.rot[u] = rot
        for d in rot:
            rg.vof[d] = u
    return fans, next_vertex + k - 2


def _fan_all(rg, anchors):
    """Fan every vertex of valence > 3; returns the new edge ids."""
    anchors = anchors or {}
    nxt = max(rg.rot) + 1
    internal = []
    for v in sorted(rg.rot):
        if len(rg.rot[v]) > 3:
            fans, nxt = _fan_vertex(rg, v, anchors.get(v, 0), nxt)
            internal.extend(fans)
    return internal


def desingularize(graph: PlanarGraph, coloring, anchors=None):
    """Split every vertex of valence > 3 into a fan of trivalent vertices.

    anchors optionally maps a vertex id to the rotation offset its fan
    starts at.  Returns (graph2, coloring2, internal) where coloring2
    has None on the new internal edges and internal lists their ids in
    graph2.  All vertices of graph must have valence 3 or more.
    """
    if any(len(r) < 3 for r in graph.rot):
        raise LowValence("remove 1- and 2-valent vertices before splitting")
    rg = _RGraph.from_graph(graph, coloring)
    internal = _fan_all(rg, anchors)
    g2, col2, emap = rg.freeze()
    return g2, list(col2), sorted(emap[e] for e in internal)


# ---------------------------------------------------------------------------
# low-valence rules


def _strip_low_valence(rg, lv):
    """Apply the pendant/two-valent rules until every valence is >= 3.

    Mutates rg and returns the accumulated scalar factor as a
    SignLogReal, or None when the invariant is forced to vanish.
    """
    factor = SignLogReal.from_float(1.0)
    again = True
    while again:
        again = False
        for v in sorted(rg.rot):
            deg = len(rg.rot[v])
            if deg >= 3:
                continue
            again = True
            if deg == 0:
                del rg.rot[v]
            elif deg == 1:
                d = rg.rot[v][0]
                if rg.col[d >> 1] != 0:
                    return None
                rg.remove_edge(d >> 1)
                del rg.rot[v]
            else:
                d1, d2 = rg.rot[v]
                e1, e2 = d1 >> 1, d2 >> 1
                c = rg.col[e1]
                if rg.col[e2] != c:
                    return None
                delta = SignLogReal.from_float(circle_weight(c, lv))
                if e1 == e2:
                    # a loop at its only vertex: the rule leaves a bare
                    # circle worth the squared circle weight
                    factor = factor * delta
                    rg.remove_edge(e1)
                    del rg.rot[v]
                else:
                    factor = factor / delta
                    rg.splice(d1, d2)
                    del rg.rot[v]
            break
    return factor


# ---------------------------------------------------------------------------
# the invariant


def _internal_assignments(graph, template, internal, lv):
    """Yield admissible color tuples for the None slots of template.

    Prunes through the trivalent vertices: a partial assignment is
    dropped as soon as some vertex has all three colors known and they
    are inadmissible.
    """
    order = list(internal)
    touching = [[] for _ in order]
    pos = {e: k for k, e in enumerate(order)}
    for v, rot in enumerate(graph.rot):
        es = [d >> 1 for d in rot]
        if len(es) != 3:
            continue
        ks = [pos[e] for e in es if e in pos]
        if ks:
            touching[max(ks)].append(es)
    colors = [None] * len(order)

    def fill(k):
        if k == len(order):
            yield tuple(colors)
            return
        e = order[k]
        known = dict(zip(order[:k], colors[:k]))

        def col_of(x):
            if x == e:
                return colors[k]
            if x in known:
                return known[x]
            return template[x]

        for c in lv.colors:
            colors[k] = c
            ok = True
            for es in touching[k]:
                trip = [col_of(x) for x in es]
                if None in trip:
                    continue
                if not is_admissible_triple(*trip, lv):
                    ok = False
                    break
            if ok:
                yield from fill(k + 1)
        colors[k] = None

    yield from fill(0)


def yokota_ext(
    graph: PlanarGraph, coloring, level, *, anchors=None, budget=None, memo=None
) -> ExtScalar:
    """The invariant as an ExtScalar (real; its sign can be negative)."""
    lv = Level.of(level)
    _validate_coloring(graph, coloring, lv)
    rg = _RGraph.from_graph(graph, coloring)
    factor = _strip_low_valence(rg, lv)
    if factor is None:
        return ExtScalar()
    if not rg.rot:
        return factor.to_ext()
    internal = _fan_all(rg, anchors)
    g2, col2, emap = rg.freeze()
    template = list(col2)
    slots = sorted(emap[e] for e in internal)
    total = ExtScalar()
    for assign in _internal_assignments(g2, template, slots, lv):
        col = list(template)
        weight = SignLogReal.from_float(1.0)
        for e, c in zip(slots, assign):
            col[e] = c
            weight = weight * SignLogReal.from_float(circle_weight(c, lv))
        b = bracket(g2, tuple(col), lv, budget=budget, memo=memo)
        total = total + weight.to_ext() * (b * b)
    return factor.to_ext() * total


def yokota(graph: PlanarGraph, coloring, level, **kwargs) -> float:
    """The invariant of a colored planar graph as a float."""
    return yokota_ext(graph, coloring, level, **kwargs).to_float()


# ---------------------------------------------------------------------------
# sums over colorings


def admissible_colorings(graph: PlanarGraph, level):
    """Yield the colorings not ruled out by a local vertex check.

    Edges are colored in index order, smallest colors first, so the
    enumeration order is deterministic.  Trivalent vertices require an
    admissible triple, two-valent ones equal colors, pendant ones the
    color 0; vertices of higher valence only require an even color sum,
    so some yielded colorings may still have invariant 0.
    """
    lv = Level.of(level)
    by_edge = [[] for _ in range(graph.ne)]
    for v, rot in enumerate(graph.rot):
        es = [d >> 1 for d in rot]
        if es:
            by_edge[max(es)].append((len(rot), es))
    colors = [None] * graph.ne

    def ok(v_deg, es):
        cs = [colors[e] for e in es]
        if v_deg == 1:
            return cs[0] == 0
        if v_deg == 2:
            return cs[0] == cs[1]
        if v_deg == 3:
            return is_admissible_triple(*cs, lv)
        return sum(cs) % 2 == 0

    def fill(e):
        if e == graph.ne:
            yield tuple(colors)
            return
        for c in lv.colors:
            colors[e] = c
            if all(ok(deg, es) for deg, es in by_edge[e]):
                yield from fill(e + 1)
        colors[e] = None

    yield from fill(0)


def yokota_table(graph: PlanarGraph, level, *, budget=None, memo=None):
    """Map each admissible coloring to its invariant (ExtScalar)."""
    table = {}
    for col in admissible_colorings(graph, level):
        table[col] = yokota_ext(graph, col, level, budget=budget, memo=memo)
    return table


def tv_graph(graph: PlanarGraph, level, *, budget=None, memo=None) -> ExtScalar:
    """Sum of |invariant| over all colorings of the graph's edges."""
    total = ExtScalar()
    for y in yokota_table(graph, level, budget=budget, memo=memo).values():
        if not y.is_zero():
            total = total + ExtScalar.from_log(y.log_abs())
    return total


def yokota_kirby(graph: PlanarGraph, level, *, budget=None, memo=None) -> ExtScalar:
    """The invariant with every edge carrying the Kirby color.

    Each coloring is weighted by the product of the circle weights of
    its edge colors.  The result equals kirby_norm(level) raised to the
    number of independent cycles of the graph.
    """
    lv = Level.of(level)
    total = ExtScalar()
    for col in admissible_colorings(graph, lv):
        y = yokota_ext(graph, col, lv, budget=budget, memo=memo)
        if y.is_zero():
            continue
        w = SignLogReal.from_float(1.0)
        for c in col:
            w = w * SignLogReal.from_float(circle_weight(c, lv))
        total = total + w.to_ext() * y
    return total


# ---------------------------------------------------------------------------
# the dual-graph transform


def fourier_dual(
    graph: PlanarGraph, level, dual_coloring, *, table=None, budget=None, memo=None
) -> ExtScalar:
    """Invariant of the planar dual, from the coloring table of graph.

    Edge e of the dual graph crosses edge e of graph (the dual of
    `skeinvol.planar.dual` keeps edge ids), so a coloring of the dual is
    indexed like one of graph.  The value is

        N**(-g) * sum_col  Y(graph, col) * prod_e H(col[e], dual_coloring[e])

    with N = kirby_norm(level), g the number of independent cycles of
    graph, and H the Hopf pairing.  table can pass a precomputed
    yokota_table(graph, level).
    """
    lv = Level.of(level)
    if table is None:
        table = yokota_table(graph, lv, budget=budget, memo=memo)
    # H(c, dual_coloring[e]) for every color c, one table per edge e
    hopf = [{c: SignLogReal.from_float(hopf_pairing(c, cstar, lv)) for c in lv.colors}
            for cstar in dual_coloring]
    total = ExtScalar()
    for col, y in table.items():
        if y.is_zero():
            continue
        h = SignLogReal.from_float(1.0)
        for c, he in zip(col, hopf):
            h = h * he[c]
        if h.sign == 0:
            continue
        total = total + h.to_ext() * y
    g = betti(graph)
    return ExtScalar.from_log(-g * math.log(kirby_norm(lv))) * total

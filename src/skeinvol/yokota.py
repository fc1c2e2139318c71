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

None of that surgery depends on the colors, so it is done once per
shape: `yokota_ext`, `desingularize` and every sum over colorings look
up the graph's desingularized shape (cached per graph; the rules in the
order they apply, the fanned trivalent graph, its internal edges and the
vertices each of them closes, one genus check, and the canonical
labelings of `skeinvol.planar`).  Evaluating a coloring then costs the rules' color checks and factors, the admissible
internal colors, and one call of `skeinvol.bracket`'s memoized
evaluation per internal coloring, with the signature
`skeinvol.planar.read_signature` reads off the labelings.  The bracket
engine owns the memo: it looks the signature up and, on a miss, replays
its compiled reduction of the fanned graph for that coloring's zero
edges, so no coloring repeats the moves.  The memo is the caller's when
passed as ``memo=`` (a hit in it costs no budget steps) and otherwise
lives for one call, so the value and the budget verdict depend only on
the arguments.  `skeinvol.bracket.cache_clear` empties the shape cache.

The sums over colorings pay per symmetry class where they can: on a
connected trivalent graph (a bare shape, such as the prism, the cube
and the other trivalent polyhedra) each class of colorings under the
graph's automorphisms is evaluated once, and the rest of the class
takes that value, which is the one the memo would give them (see
`_values`).

This module has one coloring filler, `_fill`: `admissible_colorings`
fills every edge of a graph with it, and the invariant the internal
edges of a shape.  It runs each slot over the interval of colors its
trivalent vertices allow.

The invariant is real but can be negative; the graph analogue of a
state sum therefore adds absolute values over all colorings
(`tv_graph`).  `fourier_dual` relates the coloring table of a graph to
single values on its planar dual through the Hopf-link pairing matrix
`hopf_pairing`.

Circle weights and Hopf-pairing entries are read as (negative, log)
pairs of a bool and a float, like the factorial table of
`skeinvol.qnum.Level`, which also holds the circle weights in that form
(`Level.circle_logs`).  A product of them (a strip rule's factor, the
weight of an internal or a Kirby coloring, the Hopf factor of a dual
coloring) is a parity and a sum of logs, converted to an ExtScalar
once.  A vanishing Hopf entry has log -inf, and `fourier_dual` skips
the colorings it zeroes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter

from .bracket import _SHAPE_CACHES, _Ctx, _eval_canonical, _validate_coloring
from .errors import LowValence, NotPlanar
from .extscalar import ExtScalar
from .planar import (
    PlanarGraph,
    _RGraph,
    _vector_getter,
    betti,
    canonical_labelings,
    genus,
    read_signature,
)
from .qnum import Level, _neg_log, kirby_norm, quantum_integer

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


def _fan_vertex(rg, v, next_vertex):
    """Split the >3-valent vertex v of rg into a path of trivalent ones.

    The fan starts at the first corner of v's rotation; a turned
    rotation starts it elsewhere, and any start gives an equivalent
    (sphere-embedded) result.  Returns (new edge ids, next free vertex
    id).
    """
    a = rg.rot.pop(v)
    k = len(a)
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


def _fan_all(rg):
    """Fan every vertex of valence > 3; returns the new edge ids."""
    nxt = max(rg.rot) + 1
    internal = []
    for v in sorted(rg.rot):
        if len(rg.rot[v]) > 3:
            fans, nxt = _fan_vertex(rg, v, nxt)
            internal.extend(fans)
    return internal


def desingularize(graph: PlanarGraph, coloring):
    """Split every vertex of valence > 3 into a fan of trivalent vertices.

    Each fan starts at the first corner of its vertex's rotation.
    Returns (graph2, coloring2, internal) where coloring2 has None on
    the new internal edges and internal lists their ids in graph2.  All
    vertices of graph must have valence 3 or more.
    """
    if any(len(r) < 3 for r in graph.rot):
        raise LowValence("remove 1- and 2-valent vertices before splitting")
    shape = _shape(graph)
    return shape.g2, [None if e is None else coloring[e] for e in shape.src], list(shape.slots)


# ---------------------------------------------------------------------------
# the invariant, per shape


# the kinds of low-valence rule (see _strip_rules)
_PENDANT, _JOIN, _LOOP = 0, 1, 2


def _strip_rules(rg):
    """Remove every vertex of valence < 3 from rg; return the rules applied.

    Which vertex goes next never depends on the colors, so the rules are
    worked out once per shape, as (kind, e1, e2) on source edge ids in
    the order they apply:

    * _PENDANT: a pendant edge e1 (= e2), which must be colored 0;
    * _JOIN: a two-valent vertex between e1 and e2, whose colors must
      agree; the value is divided by the circle weight, and e1 swallows e2;
    * _LOOP: a loop e1 (= e2) at its only vertex, a bare circle; the
      value is multiplied by the circle weight.

    An isolated vertex is dropped with no rule.  Edges keep their source
    ids through the splices, so every edge still carries its own color.
    """
    rules = []
    again = True
    while again:
        again = False
        for v in sorted(rg.rot):
            deg = len(rg.rot[v])
            if deg >= 3:
                continue
            again = True
            if deg == 1:
                e = rg.rot[v][0] >> 1
                rules.append((_PENDANT, e, e))
                rg.remove_edge(e)
            elif deg == 2:
                d1, d2 = rg.rot[v]
                e1, e2 = d1 >> 1, d2 >> 1
                if e1 == e2:
                    rules.append((_LOOP, e1, e1))
                    rg.remove_edge(e1)
                else:
                    rules.append((_JOIN, e1, e2))
                    rg.splice(d1, d2)
            del rg.rot[v]
            break
    return tuple(rules)


class _Shape:
    """The coloring-independent part of the invariant of a graph.

    rules are the low-valence rules (see _strip_rules).  g2 is the
    fanned, frozen trivalent graph left after them (None when none of
    the graph is left), and src[i] the source edge of g2's edge i (None
    on the internal fan edges, whose g2 ids are slots).  closing is the
    _closing table of the slots.  planar says whether g2 embeds in the
    sphere (True when none of the graph is left).  labelings are g2's
    canonical labelings, so that the memo key of a coloring col of g2 is
    read_signature(labelings, col) == canonical_signature(g2, col).
    automorphisms is empty unless the shape is bare (no rules, no slots)
    and g2 connected; then it holds one getter per automorphism of g2,
    the identity first, each mapping a coloring of graph to its image
    (see _automorphisms).
    """

    __slots__ = ("rules", "g2", "src", "slots", "closing", "planar", "labelings", "automorphisms")

    def __init__(self, graph):
        rg = _RGraph.from_graph(graph, range(graph.ne))  # colored by edge ids
        self.rules = _strip_rules(rg)
        self.g2 = None
        self.src = self.slots = self.closing = self.automorphisms = ()
        self.planar = True
        if not rg.rot:
            return
        internal = _fan_all(rg)
        self.g2, self.src, emap = rg.freeze()
        self.slots = tuple(sorted(emap[e] for e in internal))
        self.closing = _closing(self.g2, self.slots)
        self.planar = genus(self.g2) == 0
        self.labelings = canonical_labelings(self.g2)
        if not self.rules and not self.slots and len(self.labelings[1]) == 1:
            self.automorphisms = _automorphisms(self.labelings, self.src)


def _automorphisms(labelings, src):
    """Getters of a coloring's images under the automorphisms of a
    connected graph, reflections included, the identity first.

    labelings are the graph's canonical labelings: the starts tied for
    its signature, whose edge orders (get(range(ne)), edge ids by BFS
    label) differ by exactly its automorphisms.  Mapping the first
    order onto each one, read through src (the source edge of each
    edge), gives a permutation p of the source edges, and the getter
    itemgetter(*p) sends a coloring col to the coloring whose vector in
    the first order is col's vector in that one.
    """
    (_, gets), = labelings[1]
    ne = len(src)
    orders = [get(range(ne)) for get in gets]
    images = []
    for order in orders:
        p = [None] * ne
        for a, b in zip(orders[0], order):
            p[src[a]] = src[b]
        images.append(itemgetter(*p))
    return tuple(images)


_shape = lru_cache(maxsize=256)(_Shape)  # _shape(graph) is its _Shape, cached
_SHAPE_CACHES.append(_shape)


def _product(pairs):
    """The product of (negative, log) pairs, as an ExtScalar (0 if one is)."""
    negative, log = False, 0.0
    for n, lg in pairs:
        negative ^= n
        log += lg
    if log == -math.inf:
        return ExtScalar()
    return ExtScalar.from_log(log, sign=-1 if negative else 1)


# ---------------------------------------------------------------------------
# filling colorings


def _closing(graph, slots):
    """Per slot k, the vertices of graph that slots[k] is the last slot
    of, as (trivalent, other): the edge triples of the trivalent ones
    and the edge tuples of the rest, each in vertex order."""
    pos = {e: k for k, e in enumerate(slots)}
    closing = [([], []) for _ in slots]
    for rot in graph.rot:
        es = tuple(d >> 1 for d in rot)
        ks = [pos[e] for e in es if e in pos]
        if ks:
            closing[max(ks)][len(es) != 3].append(es)
    return tuple((tuple(tri), tuple(other)) for tri, other in closing)


def _fill(col, slots, closing, lv):
    """Fill the slots of col in every way its vertices allow.

    Slots are filled in order, smallest colors first, and each complete
    filling yields its slot colors as a tuple; col is filled in place.
    A slot takes only the colors its closing vertices (those whose last
    slot it is) allow.  Every color is even and every color in col a
    valid one, so a trivalent vertex with other colors a and b allows
    |a - b| to min(a + b, 2r - 4 - a - b) in steps of 2, a loop at one
    (the slot's edge twice) with third color d allows every c with
    2c >= d and 2c + d <= 2r - 4, and the slot runs through the
    intersection of those intervals.  Each of those colors must then
    pass the vertices of other valence: a two-valent one needs equal
    colors, a pendant one the color 0, and one of higher valence an even
    color sum.  The filling is depth first on an explicit stack of color
    iterators, one per filled slot.
    """
    n = len(slots)
    if n == 0:
        yield ()
        return
    top = 2 * lv.r - 4
    high = lv.colors[-1]
    # per slot: its edge, the two other edges of each trivalent vertex it
    # closes, the third edge of each loop it closes, and the other vertices
    plan = []
    for e, (trivalent, other) in zip(slots, closing):
        pairs, loops = [], []
        for es in trivalent:
            rest = [x for x in es if x != e]
            if len(rest) == 2:
                pairs.append(rest)
            else:
                loops.append(rest[0])
        plan.append((e, pairs, loops, other))

    def fits(es):
        if len(es) == 1:
            return col[es[0]] == 0
        if len(es) == 2:
            return col[es[0]] == col[es[1]]
        return sum(col[e] for e in es) % 2 == 0

    def choices(k):
        e, pairs, loops, other = plan[k]
        lo, hi = 0, high
        for x, y in pairs:  # max(lo, |a - b|) and min(hi, a + b, top - a - b)
            a, b = col[x], col[y]
            d = a - b if a > b else b - a
            if d > lo:
                lo = d
            s = a + b
            if s + s > top:
                s = top - s
            if s < hi:
                hi = s
        for x in loops:
            d = col[x]
            lo = max(lo, (d + 2) // 4 * 2)
            hi = min(hi, (top - d) // 4 * 2)
        cs = range(lo, hi + 1, 2)
        if not other:
            return iter(cs)
        keep = []
        for c in cs:
            col[e] = c
            if all(map(fits, other)):
                keep.append(c)
        return iter(keep)

    read = _vector_getter(slots)
    last = n - 1
    stack = [choices(0)]
    while stack:
        k = len(stack) - 1
        e = plan[k][0]
        for c in stack[k]:
            col[e] = c
            if k == last:
                yield read(col)
            else:
                stack.append(choices(k + 1))
                break
        else:
            col[e] = None
            stack.pop()


# ---------------------------------------------------------------------------
# the invariant, per coloring


def _evaluator(graph, lv, budget=None, memo=None):
    """The function coloring -> invariant (ExtScalar) of graph at level lv.

    The shape is looked up once (see _Shape), and a shape that does not
    embed in the sphere raises NotPlanar, whatever the coloring.  Each
    call then checks the strip rules, maps the colors onto g2, and sums
    over the admissible internal colors the circle weights times the
    squared bracket, which the bracket engine's memoized evaluation
    gives under its canonical signature with a step count starting at
    0; a memo hit costs no steps.
    A bare shape (no rules, no slots) returns the squared bracket
    itself, which is what the general path gives bit for bit: the empty
    rule product is exactly 1, so multiplying by it only renormalizes.
    Colorings are not validated here.
    """
    shape = _shape(graph)
    if not shape.planar:
        raise NotPlanar("the rotation system does not embed in the sphere")
    ctx = _Ctx(lv, budget, memo)
    weights = lv.circle_logs
    rules, g2, src, slots, closing = shape.rules, shape.g2, shape.src, shape.slots, shape.closing

    if g2 is not None and not rules and not slots:
        def bare(coloring):
            col = tuple([coloring[e] for e in src])
            ctx.steps = 0
            b = _eval_canonical(g2, col, ctx, read_signature(shape.labelings, col))
            return b * b

        return bare

    def value(coloring):
        factors = []  # a loop's circle weight, or a join's reciprocal
        for kind, e1, e2 in rules:
            c = coloring[e1]
            if kind == _PENDANT:
                if c != 0:
                    return ExtScalar()
            elif coloring[e2] != c:
                return ExtScalar()
            else:
                n, lg = weights[c]
                factors.append((n, lg if kind == _LOOP else -lg))
        factor = _product(factors)
        if g2 is None:
            return factor
        col = [None if e is None else coloring[e] for e in src]
        total = ExtScalar()
        for assign in _fill(col, slots, closing, lv):
            ctx.steps = 0
            b = _eval_canonical(g2, tuple(col), ctx, read_signature(shape.labelings, col))
            square = b * b
            if assign:  # the weight of no internal edge is 1
                square = _product(map(weights.__getitem__, assign)) * square
            total = total + square
        return factor * total

    return value


def yokota_ext(
    graph: PlanarGraph, coloring, level, *, budget=None, memo=None
) -> ExtScalar:
    """The invariant as an ExtScalar (real; its sign can be negative).

    The work splits in two.  Per shape, cached per graph: the
    low-valence rules, the fanned trivalent graph, its internal edges
    and their vertex triples, one genus check, and the canonical
    labelings.  Per coloring: the rules' color conditions and factors,
    the admissible internal colors, and one memo lookup per squared
    bracket; a bracket the memo lacks replays the reduction compiled
    for its zero edges.  Every call validates its coloring.

    budget caps the reduction steps of each bracket the memo lacks
    (default 1e8).  memo is a dict the caller owns and may share between
    calls; a hit in it costs no steps.  Without one the call uses a
    fresh dict.
    """
    lv = Level.of(level)
    coloring = _validate_coloring(graph, coloring, lv)
    return _evaluator(graph, lv, budget, memo)(coloring)


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
    so some yielded colorings may still have invariant 0.  Each vertex
    is checked when its last edge gets a color.
    """
    lv = Level.of(level)
    slots = tuple(range(graph.ne))
    yield from _fill([None] * graph.ne, slots, _closing(graph, slots), lv)


def _values(graph, lv, budget, memo):
    """Yield (coloring, invariant) for every admissible coloring of graph,
    in the order of admissible_colorings; all of them share one memo.

    On a bare connected shape (see _Shape.automorphisms) the invariant
    is evaluated once per symmetry class: the class's first coloring is
    worked out as usual, and its images under the automorphisms wait in
    a pending dict, each holding that value, until the enumeration
    reaches them.  Colorings come in lexicographic order, so the first
    of a class is its smallest and every other image comes later; the
    automorphisms keep the vertex checks, so each of them does come,
    and the dict is empty at the end.  Images share the canonical
    signature and so the memo entry, and get the bits that evaluating
    each would give (unless the memo overflows and is emptied between
    them, past 2**20 entries).  The dict costs memory: it peaks at
    58-72% of the colorings (4,328 of 7,317 on the prism at r = 9,
    98,757 of 137,862 on the cube at r = 9).  Shapes with rules or fans
    are evaluated per coloring: on fanned ones colorings of one class
    do not all get the same bits.
    """
    value = _evaluator(graph, lv, budget, memo)
    images = _shape(graph).automorphisms
    colorings = admissible_colorings(graph, lv)
    if not images:
        for col in colorings:
            yield col, value(col)
        return
    pending = {}
    for col in colorings:
        y = pending.pop(col, None)
        if y is None:
            y = value(col)
            for image in images:
                pending[image(col)] = y
            del pending[col]  # the identity's image
        yield col, y


def yokota_table(graph: PlanarGraph, level, *, budget=None, memo=None):
    """Map each admissible coloring to its invariant (ExtScalar).

    The graph's shape is worked out once (see yokota_ext), so each
    coloring costs its rule checks and memo lookups, plus a replayed
    reduction for each bracket the memo has not seen.  On a bare
    connected shape only the first coloring of each symmetry class is
    evaluated, and the others share its value object (see _values).
    All colorings share one memo: the caller's memo, or a fresh dict
    for this call.
    """
    return dict(_values(graph, Level.of(level), budget, memo))


def tv_graph(graph: PlanarGraph, level, *, budget=None, memo=None) -> ExtScalar:
    """Sum of |invariant| over all colorings of the graph's edges.

    The colorings are streamed in the order of yokota_table, whose sum
    this is, without holding the table.  On a bare connected shape (a
    trivalent polyhedron such as the prism or the cube) it reads one
    signature per symmetry class of colorings, and holds the pending
    images of the classes begun, up to 58-72% of the colorings (see
    _values).
    """
    total = ExtScalar()
    for _, y in _values(graph, Level.of(level), budget, memo):
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
    weights = lv.circle_logs
    total = ExtScalar()
    for col, y in _values(graph, lv, budget, memo):
        if y.is_zero():
            continue
        total = total + _product(map(weights.__getitem__, col)) * y
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
    yokota_table(graph, level); without it the colorings are streamed
    in the table's order, as in tv_graph.  dual_coloring is validated as
    yokota_ext validates a coloring.
    """
    lv = Level.of(level)
    dual_coloring = _validate_coloring(graph, dual_coloring, lv)
    items = _values(graph, lv, budget, memo) if table is None else table.items()
    # H(c, dual_coloring[e]) as a (negative, log) pair for every color c,
    # one table per edge e; a vanishing entry has log -inf
    hopf = [{c: _neg_log(hopf_pairing(c, cstar, lv)) for c in lv.colors}
            for cstar in dual_coloring]
    total = ExtScalar()
    for col, y in items:
        if y.is_zero():
            continue
        h = _product(map(dict.__getitem__, hopf, col))
        if not h.is_zero():
            total = total + h * y
    g = betti(graph)
    return ExtScalar.from_log(-g * math.log(kirby_norm(lv))) * total

"""Evaluation of colored trivalent planar graphs (unitary normalization).

The bracket computed here assigns a scalar to a colored planar graph so
that, with circle_weight for a free loop:

  * a closed loop colored n is worth circle_weight(n);
  * a theta graph evaluates to 1 (vertices are unitarily normalized);
  * a tetrahedron evaluates to the 6j symbol of its edge colors;
  * a graph with an inadmissible vertex, or a bridge colored nonzero,
    evaluates to 0;
  * the value is multiplicative over disjoint unions;
  * an edge colored 0 can be deleted at the cost of the factor
    vertex_weight(a,a,0) * vertex_weight(b,b,0), where a and b are the
    colors adjacent to its two endpoints;
  * 2-valent vertices are transparent (their two edge colors must agree).

Evaluation is by local moves: after the cheap rules above the graph is
reduced with bigon collapses, triangle contractions, and — when the
smallest face has degree four or more — the H-to-I rewiring that expands
one edge into a weighted sum over recolorings.  Values of reduced forms
are memoized under the canonical colored signature: the uncolored
labeling is worked out once per embedded shape (and cached), and the
colorings of one shape are told apart by their color vectors.  So
different reduction strategies share work and (testably) agree.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from .errors import BudgetExceeded, LowValence, NotPlanar, NotTrivalent
from .extscalar import ExtScalar
from .planar import PlanarGraph, canonical_labelings, canonical_signature, genus
from .qnum import (
    Level,
    circle_weight,
    is_admissible_triple,
    sixj,
    vertex_weight,
)

_MEMO: dict = {}
_MEMO_MAX = 1 << 20


def cache_clear():
    """Empty the value memo and the per-shape labeling cache."""
    _MEMO.clear()
    canonical_labelings.cache_clear()


def _budget_default():
    return float(os.environ.get("SKEIN_BUDGET", "1e8"))


class _Ctx:
    __slots__ = ("lv", "base_tet", "rng", "steps", "budget", "memo")

    def __init__(self, lv, base_tet, seed, budget, memo):
        self.lv = lv
        self.base_tet = base_tet
        self.rng = random.Random(seed) if seed is not None else None
        self.steps = 0
        self.budget = budget if budget is not None else _budget_default()
        self.memo = memo if memo is not None else _MEMO

    def tick(self, n=1):
        self.steps += n
        if self.steps > self.budget:
            raise BudgetExceeded(f"evaluation exceeded {self.budget:g} steps")

    def pick(self, seq):
        """Deterministic first element, or a seeded random choice."""
        if self.rng is None:
            return seq[0]
        return seq[self.rng.randrange(len(seq))]


class _RGraph:
    """Mutable rotation system used during reduction.

    Vertices and edges keep their (sparse) integer ids across surgery;
    edge endpoints are derived from the dart-to-vertex map, so moving a
    dart to another vertex automatically reconnects its edge.
    """

    __slots__ = ("rot", "vof", "col", "next_edge")

    def __init__(self, rot, vof, col, next_edge):
        self.rot = rot            # vertex id -> list of darts (ccw)
        self.vof = vof            # dart -> vertex id
        self.col = col            # edge id -> color
        self.next_edge = next_edge

    @classmethod
    def from_graph(cls, g: PlanarGraph, coloring):
        rot = {v: list(r) for v, r in enumerate(g.rot)}
        vof = {}
        for v, r in rot.items():
            for d in r:
                vof[d] = v
        col = {e: coloring[e] for e in range(g.ne)}
        return cls(rot, vof, col, g.ne)

    def degree(self, v):
        return len(self.rot[v])

    def edges_at(self, v):
        return [d >> 1 for d in self.rot[v]]

    def other_end(self, d):
        return self.vof[d ^ 1]

    def remove_edge(self, e):
        for d in (2 * e, 2 * e + 1):
            v = self.vof.pop(d)
            self.rot[v].remove(d)
        del self.col[e]

    def new_edge(self, color):
        e = self.next_edge
        self.next_edge += 1
        self.col[e] = color
        return e

    def splice(self, keep, drop):
        """Join the edges of darts keep and drop into keep's edge.

        Dart keep moves to the far end of drop's edge, taking the place
        of drop's twin there; drop, its twin and the color of its edge
        are deleted.  The vertices keep and drop sat at are left for the
        caller to remove.
        """
        far = drop ^ 1
        tgt = self.vof[far]
        r = self.rot[tgt]
        r[r.index(far)] = keep
        self.vof[keep] = tgt
        del self.vof[drop]
        del self.vof[far]
        del self.col[drop >> 1]

    def sigma(self):
        s = {}
        for r in self.rot.values():
            k = len(r)
            for i, d in enumerate(r):
                s[d] = r[(i + 1) % k]
        return s

    def faces(self):
        s = self.sigma()
        seen = set()
        out = []
        for d0 in sorted(s):
            if d0 in seen:
                continue
            cyc = []
            d = d0
            while d not in seen:
                seen.add(d)
                cyc.append(d)
                d = s[d ^ 1]
            out.append(tuple(cyc))
        return out

    def dart_components(self):
        s = self.sigma()
        seen = set()
        comps = []
        for d0 in sorted(s):
            if d0 in seen:
                continue
            comp = set()
            stack = [d0]
            seen.add(d0)
            while stack:
                d = stack.pop()
                comp.add(d)
                for nd in (d ^ 1, s[d]):
                    if nd not in seen:
                        seen.add(nd)
                        stack.append(nd)
            comps.append(comp)
        return comps

    def freeze(self, darts=None):
        """Compact (a component of) the graph to (PlanarGraph, coloring, emap).

        emap maps the live edge ids to the frozen 0-based ids.  When darts
        is given, only the edges/vertices touched by those darts are taken.
        """
        if darts is None:
            edge_ids = sorted(self.col)
            vert_ids = sorted(v for v, r in self.rot.items() if r)
        else:
            edge_ids = sorted({d >> 1 for d in darts})
            vert_ids = sorted({self.vof[d] for d in darts})
        emap = {e: i for i, e in enumerate(edge_ids)}
        vmap = {v: i for i, v in enumerate(vert_ids)}
        edges = [(vmap[self.vof[2 * e]], vmap[self.vof[2 * e + 1]]) for e in edge_ids]
        rot = [[2 * emap[d >> 1] + (d & 1) for d in self.rot[v]] for v in vert_ids]
        coloring = tuple(self.col[e] for e in edge_ids)
        return PlanarGraph(len(vert_ids), edges, rot), coloring, emap


def _vertex_colors(rg, v):
    return tuple(rg.col[d >> 1] for d in rg.rot[v])


def _check_and_clean(rg, ctx):
    """Valence/admissibility pass; returns 'zero', 'changed' or 'clean'.

    Removes 0-valent vertices, suppresses 2-valent ones (a 2-valent loop
    becomes a free circle factor, returned as a scalar via ctx hook), and
    reports inadmissible configurations as hard zeros.
    """
    for v in list(rg.rot):
        deg = len(rg.rot[v])
        if deg == 0:
            del rg.rot[v]
            return "changed", None
        if deg == 1:
            raise LowValence(f"vertex {v} has a free end")
        if deg == 2:
            d1, d2 = rg.rot[v]
            e1, e2 = d1 >> 1, d2 >> 1
            if e1 == e2:
                # a loop on a 2-valent vertex: a free circle
                w = circle_weight(rg.col[e1], ctx.lv)
                rg.remove_edge(e1)
                del rg.rot[v]
                return "changed", ExtScalar.from_complex(w)
            if rg.col[e1] != rg.col[e2]:
                return "zero", None
            rg.splice(d1, d2)  # edge e1 swallows e2
            del rg.rot[v]
            return "changed", None
        if deg > 3:
            raise NotTrivalent(f"vertex {v} has degree {deg}")
        a, b, c = _vertex_colors(rg, v)
        if not is_admissible_triple(a, b, c, ctx.lv):
            return "zero", None
    return "clean", None


def _zero_edges(rg):
    """Non-loop 0-colored edges (there is always one if any 0-edge exists)."""
    out = []
    for e, c in rg.col.items():
        if c == 0 and rg.vof[2 * e] != rg.vof[2 * e + 1]:
            out.append(e)
    return sorted(out)


def _bridges(rg):
    """Edges whose two sides touch the same face."""
    faces = rg.faces()
    face_of = {}
    for i, f in enumerate(faces):
        for d in f:
            face_of[d] = i
    return sorted(e for e in rg.col if face_of[2 * e] == face_of[2 * e + 1])


def _is_theta(rg):
    if len(rg.rot) != 2 or len(rg.col) != 3:
        return False
    return all(len(r) == 3 for r in rg.rot.values())


def _tet_sixtuple(rg):
    """Map a K4 rotation system to 6j argument order, or None."""
    if len(rg.rot) != 4 or len(rg.col) != 6:
        return None
    if not all(len(r) == 3 for r in rg.rot.values()):
        return None
    for e in rg.col:
        if rg.vof[2 * e] == rg.vof[2 * e + 1]:
            return None
    pairs = {}
    for e in rg.col:
        key = frozenset((rg.vof[2 * e], rg.vof[2 * e + 1]))
        if len(key) != 2 or key in pairs:
            return None
        pairs[key] = e
    v0 = min(rg.rot)
    d1, d2, d3 = rg.rot[v0]
    x, y, z = (rg.vof[d ^ 1] for d in (d1, d2, d3))
    col = rg.col
    n1, n2, n3 = col[d1 >> 1], col[d2 >> 1], col[d3 >> 1]
    n4 = col[pairs[frozenset((y, z))]]
    n5 = col[pairs[frozenset((x, z))]]
    n6 = col[pairs[frozenset((x, y))]]
    return (n1, n2, n3, n4, n5, n6)


def _collapse_bigon(rg, face, ctx):
    """Degree-2 face: delta on the outer colors, factor 1/circle_weight."""
    p, q = face
    u, w = rg.vof[p], rg.vof[q]
    ep, eq = p >> 1, q >> 1
    tU = next(d for d in rg.rot[u] if d not in (p, q ^ 1))
    tW = next(d for d in rg.rot[w] if d not in (q, p ^ 1))
    etU, etW = tU >> 1, tW >> 1
    if rg.col[etU] != rg.col[etW]:
        return None  # hard zero
    weight = ExtScalar.from_complex(1.0 / circle_weight(rg.col[etU], ctx.lv))
    rg.splice(tU, tW)  # the outer strands become one edge (keep etU)
    rg.remove_edge(ep)
    rg.remove_edge(eq)
    del rg.rot[u]
    del rg.rot[w]
    return weight


def _contract_triangle(rg, face, ctx):
    """Degree-3 face: contract to a vertex, multiply by a 6j symbol."""
    q1, q2, q3 = face
    p1, p2, p3 = rg.vof[q1], rg.vof[q2], rg.vof[q3]
    c1 = next(d for d in rg.rot[p1] if d not in (q1, q3 ^ 1))
    c2 = next(d for d in rg.rot[p2] if d not in (q2, q1 ^ 1))
    c3 = next(d for d in rg.rot[p3] if d not in (q3, q2 ^ 1))
    x1, x2, x3 = rg.col[q2 >> 1], rg.col[q3 >> 1], rg.col[q1 >> 1]
    coeff = sixj(
        rg.col[c1 >> 1], rg.col[c2 >> 1], rg.col[c3 >> 1], x1, x2, x3, ctx.lv
    )
    rg.remove_edge(q1 >> 1)
    rg.remove_edge(q2 >> 1)
    rg.remove_edge(q3 >> 1)
    del rg.rot[p1]
    del rg.rot[p2]
    del rg.rot[p3]
    merged = p1
    rg.rot[merged] = [c1, c3, c2]
    for d in (c1, c2, c3):
        rg.vof[d] = merged
    return coeff


def _whitehead(rg, face, ctx):
    """Rewire one edge of the face; returns (surgery graph info, terms).

    The edge s (chosen canonically or by the seeded rng) is removed and
    replaced by a transverse edge whose color is summed over; the value is
    sum_i circle_weight(i) * 6j(s, a, t1, i, t2, b) * <rewired graph>.
    """
    darts = sorted(face, key=lambda d: (d >> 1, d & 1))
    d = ctx.pick(darts)
    sigma = rg.sigma()
    u1 = rg.vof[d]
    u2 = rg.vof[d ^ 1]
    t1D = sigma[d]
    aD = sigma[t1D]
    bD = sigma[d ^ 1]
    t2D = sigma[bD]
    s_col = rg.col[d >> 1]
    a_col = rg.col[aD >> 1]
    b_col = rg.col[bD >> 1]
    t1_col = rg.col[t1D >> 1]
    t2_col = rg.col[t2D >> 1]
    rg.remove_edge(d >> 1)
    e_new = rg.new_edge(None)
    nA, nB = 2 * e_new, 2 * e_new + 1
    rg.rot[u1] = [nA, aD, bD]
    rg.rot[u2] = [t1D, nB, t2D]
    rg.vof[nA] = u1
    rg.vof[nB] = u2
    rg.vof[bD] = u1
    rg.vof[t1D] = u2
    terms = []
    for i in ctx.lv.colors:
        if not (
            is_admissible_triple(a_col, i, b_col, ctx.lv)
            and is_admissible_triple(t1_col, i, t2_col, ctx.lv)
        ):
            continue
        coeff = ExtScalar.from_complex(circle_weight(i, ctx.lv)) * sixj(
            s_col, a_col, t1_col, i, t2_col, b_col, ctx.lv
        )
        terms.append((i, coeff))
    return e_new, terms


def _eval_canonical(g: PlanarGraph, coloring, ctx) -> ExtScalar:
    key = (ctx.lv.r, ctx.base_tet, canonical_signature(g, coloring))
    hit = ctx.memo.get(key)
    if hit is not None:
        return hit
    val = _reduce(_RGraph.from_graph(g, coloring), ctx)
    if len(ctx.memo) >= _MEMO_MAX:
        ctx.memo.clear()
    ctx.memo[key] = val
    return val


def _reduce(rg: _RGraph, ctx) -> ExtScalar:
    acc = ExtScalar.from_complex(1.0)
    while True:
        ctx.tick()
        state, factor = _check_and_clean(rg, ctx)
        if state == "zero":
            return ExtScalar()
        if state == "changed":
            if factor is not None:
                acc = acc * factor
            continue

        if not rg.col:
            return acc  # possibly after dropping isolated vertices

        zs = _zero_edges(rg)
        if zs:
            e = zs[0]
            u, w = rg.vof[2 * e], rg.vof[2 * e + 1]
            for v in (u, w):
                others = [d >> 1 for d in rg.rot[v] if (d >> 1) != e]
                a = rg.col[others[0]]
                acc = acc * vertex_weight(a, a, 0, ctx.lv)
            rg.remove_edge(e)
            continue

        comps = rg.dart_components()
        if len(comps) > 1:
            out = acc
            for comp in comps:
                sub, subcol, _ = rg.freeze(comp)
                out = out * _eval_canonical(sub, subcol, ctx)
            return out

        if _bridges(rg):
            return ExtScalar()  # a bridge with nonzero color

        if _is_theta(rg):
            return acc

        if ctx.base_tet:
            t6 = _tet_sixtuple(rg)
            if t6 is not None:
                return acc * sixj(*t6, ctx.lv)

        faces = sorted(rg.faces(), key=len)
        fmin = faces[0]
        if len(fmin) == 2:
            w = _collapse_bigon(rg, fmin, ctx)
            if w is None:
                return ExtScalar()
            acc = acc * w
            continue
        if len(fmin) == 3:
            acc = acc * _contract_triangle(rg, fmin, ctx)
            continue

        # smallest face has degree >= 4: spend one H-to-I move on it
        degmin = len(fmin)
        candidates = [f for f in faces if len(f) == degmin]
        face = ctx.pick(candidates)
        e_new, terms = _whitehead(rg, face, ctx)
        total = ExtScalar()
        for i, coeff in terms:
            ctx.tick()
            rg.col[e_new] = i
            sub, subcol, _ = rg.freeze()
            total = total + coeff * _eval_canonical(sub, subcol, ctx)
        return acc * total


def _validate_coloring(g, coloring, lv):
    if len(coloring) != g.ne:
        raise ValueError(f"coloring has {len(coloring)} entries for {g.ne} edges")
    for c in coloring:
        if not isinstance(c, int) or c < 0 or c % 2 or c > lv.r - 3:
            raise ValueError(f"{c} is not a color at level {lv.r}")


def bracket(
    graph: PlanarGraph,
    coloring,
    level,
    *,
    base_tet: bool = True,
    seed=None,
    budget=None,
    memo=None,
) -> ExtScalar:
    """The invariant of a colored planar graph, as an ExtScalar.

    coloring is a tuple of colors indexed by edge id.  All vertices must
    have valence 0, 2 or 3.  The value does not depend on the reduction
    strategy: base_tet toggles the tetrahedron shortcut, seed randomizes
    tie-breaking, and memo can inject a private cache — all only affect
    speed (a fact the test-suite checks rather than assumes).
    """
    lv = Level.of(level)
    _validate_coloring(graph, coloring, lv)
    if genus(graph) != 0:
        raise NotPlanar("the rotation system does not embed in the sphere")
    ctx = _Ctx(lv, base_tet, seed, budget, memo)
    return _eval_canonical(graph, tuple(coloring), ctx)


@dataclass
class KirbyDistribution:
    """Per-color values of a graph with one edge left free."""

    edge: int
    colors: tuple
    values: tuple  # ExtScalar per color
    r: int

    def kirby_sum(self) -> ExtScalar:
        """sum_i circle_weight(i) * value_i — the edge carrying the Kirby color."""
        out = ExtScalar()
        for i, v in zip(self.colors, self.values):
            out = out + ExtScalar.from_complex(circle_weight(i, self.r)) * v
        return out


def bracket_distribution(
    graph: PlanarGraph, coloring, edge: int, level, **kw
) -> KirbyDistribution:
    """Bracket values as the color of one edge runs over all colors."""
    lv = Level.of(level)
    vals = []
    for i in lv.colors:
        col = list(coloring)
        col[edge] = i
        vals.append(bracket(graph, tuple(col), lv, **kw))
    return KirbyDistribution(edge=edge, colors=lv.colors, values=tuple(vals), r=lv.r)


def fusion_at(graph: PlanarGraph, coloring, p: int, q: int, i: int):
    """The term graph of the fusion rule applied across a face.

    p and q are darts of two distinct edges bordering a common face (so
    the strands run antiparallel along it).  Both strands are cut and
    rerouted through a single edge colored i: the two cut ends nearest
    vertex_of(p) and the far end of q's edge meet at one new trivalent
    vertex, the other two ends at a second one, and the i-edge joins the
    new vertices.  The fusion rule states

        bracket(graph) == sum_i circle_weight(i) * bracket(term_i)

    with i running over the colors admissible with the two strand colors.
    Returns (graph, coloring).
    """
    if graph.face_of(p) != graph.face_of(q):
        raise ValueError("darts lie on different faces")
    if (p >> 1) == (q >> 1):
        raise ValueError("fusion needs two distinct edges")
    rg = _RGraph.from_graph(graph, coloring)
    X = max(rg.rot) + 1
    Y = X + 1
    ei = rg.new_edge(i)
    midA, midB = 2 * ei, 2 * ei + 1
    # cut p's edge: it keeps its color and its p-side half; a new edge of
    # the same color continues to the old far vertex
    e2a = rg.new_edge(rg.col[p >> 1])
    far_a = p ^ 1
    P1 = rg.vof[far_a]
    rg.rot[P1][rg.rot[P1].index(far_a)] = 2 * e2a + 1
    rg.vof[2 * e2a + 1] = P1
    rg.vof[far_a] = X
    rg.vof[2 * e2a] = Y
    # same for q's edge
    e2b = rg.new_edge(rg.col[q >> 1])
    far_b = q ^ 1
    Q1 = rg.vof[far_b]
    rg.rot[Q1][rg.rot[Q1].index(far_b)] = 2 * e2b + 1
    rg.vof[2 * e2b + 1] = Q1
    rg.vof[far_b] = Y
    rg.vof[2 * e2b] = X
    # the halves on the vertex_of(p) / far-of-q side meet at X, the other
    # two at Y; the i-edge runs between, splitting the shared face
    rg.rot[X] = [midA, far_a, 2 * e2b]
    rg.vof[midA] = X
    rg.rot[Y] = [2 * e2a, midB, far_b]
    rg.vof[midB] = Y
    g2, col2, _ = rg.freeze()
    return g2, col2

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
one edge into a weighted sum over recolorings.  A tetrahedron takes no
rule of its own: one triangle contraction leaves a theta and its 6j.
Which move comes next depends only on the labeled graph and on which of
its edges are colored 0, never on the other colors.  So the moves run
once per (labeled graph, zero-edge pattern) over color slots, recording
a straight-line program: color checks that can make the value 0,
circle-weight, vertex-weight and 6j factors, and a last product over
components or H-to-I sum over the new color, each term a sub-evaluation.
Every later coloring with those zero edges replays the program with the
same scalar operations in the same order, so its value, step count and
budget verdict are those of the moves themselves.  Ties between moves
are broken by the labels (the first smallest face, its least dart), so
the order of the moves is a function of the labeled graph: a check that
wants another order evaluates a relabeled copy of the same embedding.

This module owns the memo.  Values of reduced forms are memoized under
(r, canonical colored signature), a key that only
_eval_canonical builds and looks up; `skeinvol.yokota` calls it for
every squared bracket.  The signature belongs to `skeinvol.planar`: a
sub-evaluation keeps its graph's canonical labelings, worked out once
per embedded shape (and cached), and reads each key off them with
read_signature.  The memo belongs to one call, or to the caller who
passes it, so a value and a budget verdict depend only on a call's
arguments.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index, itemgetter

from .errors import BudgetExceeded, LowValence, NotPlanar, NotTrivalent
from .extscalar import ExtScalar
from .planar import (
    PlanarGraph,
    _RGraph,
    _vector_getter,
    canonical_labelings,
    canonical_signature,
    genus,
    read_signature,
)
from .qnum import Level, sixj

_MEMO_MAX = 1 << 20  # entries one memo may hold before it is emptied
_BUDGET = 1e8  # reduction steps per top-level evaluation by default

# per-shape lru caches that cache_clear empties; _program and yokota add theirs
_SHAPE_CACHES = [canonical_labelings, genus]


def cache_clear():
    """Empty every per-shape cache (labelings, genus, the compiled
    reductions, and the desingularized shapes of `skeinvol.yokota`)."""
    for cache in _SHAPE_CACHES:
        cache.cache_clear()


class _Ctx:
    __slots__ = ("lv", "steps", "budget", "memo")

    def __init__(self, lv, budget, memo):
        self.lv = lv
        self.steps = 0
        self.budget = budget if budget is not None else _BUDGET
        self.memo = memo if memo is not None else {}

    def tick(self, n=1):
        self.steps += n
        if self.steps > self.budget:
            raise BudgetExceeded(f"evaluation exceeded {self.budget:g} steps")


# ---------------------------------------------------------------------------
# zero-edge patterns


def _zero_mask(coloring):
    """The zero-edge pattern of a coloring: bit k set when edge k is colored 0."""
    mask = 0
    for k, c in enumerate(coloring):
        if c == 0:
            mask |= 1 << k
    return mask


# ---------------------------------------------------------------------------
# the reduction, compiled over color slots (indices into the coloring)

# program steps, each a tuple (kind, ...), run in order
_WEIGHT = 0  # (_WEIGHT, table, x): acc *= table[col[x]]
_SIXJ = 1  # (_SIXJ, getter): acc *= sixj(*getter(col))
_TRIPLE = 2  # (_TRIPLE, ticks, x, y, z): the value is 0 unless admissible
_EQUAL = 3  # (_EQUAL, ticks, x, y): the value is 0 unless col[x] == col[y]

# indices into the weight tables of Level.ext_weights
_CIRCLE, _INV_CIRCLE, _THETA0 = 0, 1, 2

# how a program ends, as a tuple (kind, ...)
_RETURN = 0  # (_RETURN,): acc
_ZERO = 1  # (_ZERO,): 0
_RAISE = 2  # (_RAISE, error class, message)
_PRODUCT = 3  # (_PRODUCT, subs): acc times each component's value
_SUM = 4  # (_SUM, getter of (s, a, t1, t2, b), sub)


class _Sub:
    """A sub-evaluation: the graph, its canonical labelings (which its
    memo keys are read off), and the getter of its coloring from the
    parent's, whose zeros _eval_canonical reads."""

    __slots__ = ("g", "labelings", "read")

    def __init__(self, g, read):
        self.g = g
        self.labelings = canonical_labelings(g)
        self.read = read

    def value(self, col, ctx) -> ExtScalar:
        """The value of the sub-graph under the parent's coloring col."""
        subcol = self.read(col)
        sig = read_signature(self.labelings, subcol)
        return _eval_canonical(self.g, subcol, ctx, sig)


class _Program:
    """One recorded reduction: steps, the reduction steps counted before
    the end (a check that returns 0 carries its own count), and the end.
    It holds no level and no values."""

    __slots__ = ("steps", "ticks", "end")

    def __init__(self, steps, ticks, end):
        self.steps = steps
        self.ticks = ticks
        self.end = end


class _Compiler:
    """Record the reduction of rg as a _Program.

    rg is colored by slots, and bit k of mask says whether slot k is
    colored 0.  A color check that the zero edges do not decide becomes
    a step, recorded once per program.
    """

    def __init__(self, rg, mask):
        self.rg = rg
        self.mask = mask
        self.nslots = len(rg.col)
        self.steps = []
        self.ticks = 0
        self.checked = set()

    def _zero(self, x):
        return self.mask >> x & 1

    def _equal(self, x, y):
        """False when col[x] != col[y] is known here, so the value is 0;
        otherwise True, the check being left to the replay if needed."""
        if x == y or self._zero(x) and self._zero(y):
            return True
        if self._zero(x) or self._zero(y):
            return False
        if (x, y) not in self.checked and (y, x) not in self.checked:
            self.checked.add((x, y))
            self.steps.append((_EQUAL, self.ticks, x, y))
        return True

    def _triple(self, x, y, z):
        """_equal for the admissibility of (col[x], col[y], col[z]); with
        a 0 among them, that is the other two being equal."""
        for zx, p, q in ((x, y, z), (y, x, z), (z, x, y)):
            if self._zero(zx):
                return self._equal(p, q)
        key = tuple(sorted((x, y, z)))
        if key not in self.checked:
            self.checked.add(key)
            self.steps.append((_TRIPLE, self.ticks, x, y, z))
        return True

    def _sub(self, darts=None):
        """The sub-evaluation of (a component of) rg as it stands."""
        g, slots, _ = self.rg.freeze(darts)
        return _Sub(g, _vector_getter(slots))

    def _end(self, *end):
        return _Program(tuple(self.steps), self.ticks, end)

    def compile(self) -> _Program:
        rg = self.rg
        while True:
            self.ticks += 1
            state = self._clean()
            if isinstance(state, _Program):
                return state
            if state == "zero":
                return self._end(_ZERO)
            if state == "changed":
                continue

            if not rg.col:
                return self._end(_RETURN)  # possibly after dropping isolated vertices

            zs = sorted(e for e, x in rg.col.items()
                        if self._zero(x) and rg.vof[2 * e] != rg.vof[2 * e + 1])
            if zs:
                e = zs[0]
                u, w = rg.vof[2 * e], rg.vof[2 * e + 1]
                for v in (u, w):
                    others = [d >> 1 for d in rg.rot[v] if (d >> 1) != e]
                    self.steps.append((_WEIGHT, _THETA0, rg.col[others[0]]))
                rg.remove_edge(e)
                continue

            comps = rg.dart_components()
            if len(comps) > 1:
                return self._end(_PRODUCT, tuple(self._sub(comp) for comp in comps))

            if _bridges(rg):
                return self._end(_ZERO)  # a bridge with nonzero color

            if _is_theta(rg):
                return self._end(_RETURN)

            fmin = min(rg.faces(), key=len)  # the first of the smallest
            if len(fmin) == 2:
                self._collapse_bigon(fmin)
                continue
            if len(fmin) == 3:
                self._contract_triangle(fmin)
                continue

            # smallest face has degree >= 4: spend one H-to-I move on it
            return self._whitehead(fmin)

    def _clean(self):
        """Valence/admissibility pass: 'zero', 'changed', 'clean', or a
        _Program raising a valence error.

        Removes 0-valent vertices, suppresses 2-valent ones (a 2-valent
        loop becomes a free circle factor), and reports inadmissible
        configurations as zeros.
        """
        rg = self.rg
        for v in list(rg.rot):
            deg = len(rg.rot[v])
            if deg == 0:
                del rg.rot[v]
                return "changed"
            if deg == 1:
                return self._end(_RAISE, LowValence, f"vertex {v} has a free end")
            if deg == 2:
                d1, d2 = rg.rot[v]
                e1, e2 = d1 >> 1, d2 >> 1
                if e1 == e2:
                    # a loop on a 2-valent vertex: a free circle
                    self.steps.append((_WEIGHT, _CIRCLE, rg.col[e1]))
                    rg.remove_edge(e1)
                    del rg.rot[v]
                    return "changed"
                if not self._equal(rg.col[e1], rg.col[e2]):
                    return "zero"
                rg.splice(d1, d2)  # edge e1 swallows e2
                del rg.rot[v]
                return "changed"
            if deg > 3:
                return self._end(_RAISE, NotTrivalent, f"vertex {v} has degree {deg}")
            if not self._triple(*(rg.col[d >> 1] for d in rg.rot[v])):
                return "zero"
        return "clean"

    def _collapse_bigon(self, face):
        """Degree-2 face: delta on the outer colors, factor 1/circle_weight.
        The outer edges are no loops, and compile removed every zero edge
        but loops first, so the delta is always a replayed check."""
        rg = self.rg
        p, q = face
        u, w = rg.vof[p], rg.vof[q]
        ep, eq = p >> 1, q >> 1
        tU = next(d for d in rg.rot[u] if d not in (p, q ^ 1))
        tW = next(d for d in rg.rot[w] if d not in (q, p ^ 1))
        etU, etW = tU >> 1, tW >> 1
        self._equal(rg.col[etU], rg.col[etW])
        self.steps.append((_WEIGHT, _INV_CIRCLE, rg.col[etU]))
        rg.splice(tU, tW)  # the outer strands become one edge (keep etU)
        rg.remove_edge(ep)
        rg.remove_edge(eq)
        del rg.rot[u]
        del rg.rot[w]

    def _contract_triangle(self, face):
        """Degree-3 face: contract to a vertex, multiply by a 6j symbol."""
        rg = self.rg
        q1, q2, q3 = face
        p1, p2, p3 = rg.vof[q1], rg.vof[q2], rg.vof[q3]
        c1 = next(d for d in rg.rot[p1] if d not in (q1, q3 ^ 1))
        c2 = next(d for d in rg.rot[p2] if d not in (q2, q1 ^ 1))
        c3 = next(d for d in rg.rot[p3] if d not in (q3, q2 ^ 1))
        col = rg.col
        self.steps.append((_SIXJ, itemgetter(
            col[c1 >> 1], col[c2 >> 1], col[c3 >> 1], col[q2 >> 1], col[q3 >> 1], col[q1 >> 1])))
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

    def _whitehead(self, face):
        """Rewire one edge of the face and end in the H-to-I sum.

        The edge s of the face's least dart is removed and replaced by a
        transverse edge whose color i is summed over; the value is
        sum_i circle_weight(i) * 6j(s, a, t1, i, t2, b) * <rewired graph>.
        The new edge reads slot nslots, the color i appended to the
        coloring.
        """
        rg = self.rg
        d = min(face)
        sigma = rg.sigma()
        u1 = rg.vof[d]
        u2 = rg.vof[d ^ 1]
        t1D = sigma[d]
        aD = sigma[t1D]
        bD = sigma[d ^ 1]
        t2D = sigma[bD]
        col = rg.col
        arms = itemgetter(col[d >> 1], col[aD >> 1], col[t1D >> 1], col[t2D >> 1], col[bD >> 1])
        rg.remove_edge(d >> 1)
        e_new = rg.new_edge(self.nslots)
        nA, nB = 2 * e_new, 2 * e_new + 1
        rg.rot[u1] = [nA, aD, bD]
        rg.rot[u2] = [t1D, nB, t2D]
        rg.vof[nA] = u1
        rg.vof[nB] = u2
        rg.vof[bD] = u1
        rg.vof[t1D] = u2
        # one sub for every new color, 0 included: the value reads the zeros of its coloring
        return self._end(_SUM, arms, self._sub())


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


@lru_cache(maxsize=1024)
def _program(g: PlanarGraph, mask: int) -> _Program:
    """The reduction of g with zero-edge pattern mask."""
    rg = _RGraph.from_graph(g, range(g.ne))  # colored by slots
    return _Compiler(rg, mask).compile()


_SHAPE_CACHES.append(_program)


# ---------------------------------------------------------------------------
# replay


_ONE = ExtScalar(1.0)
_NIL = ExtScalar()


def _run(prog: _Program, col, ctx) -> ExtScalar:
    """The value of the coloring col (a tuple) by replaying prog.

    The ExtScalar operations are those of the moves, in their order, so
    the value is the same to the bit.  Steps are counted as the moves
    count them and checked against the budget before anything a caller
    can see (a sub-evaluation, a memo entry, the returned value).
    """
    lv = ctx.lv
    tables = lv.ext_weights
    top = 2 * lv.r - 4
    acc = _ONE
    for step in prog.steps:
        kind = step[0]
        if kind == _WEIGHT:
            acc = acc * tables[step[1]][col[step[2]]]
        elif kind == _SIXJ:
            acc = acc * sixj(*step[1](col), lv)
        elif kind == _TRIPLE:
            a, b, c = col[step[2]], col[step[3]], col[step[4]]
            if a + b + c > top or not abs(a - b) <= c <= a + b:
                ctx.tick(step[1])
                return _NIL
        elif col[step[2]] != col[step[3]]:  # _EQUAL
            ctx.tick(step[1])
            return _NIL
    ctx.tick(prog.ticks)
    end = prog.end
    kind = end[0]
    if kind == _SUM:
        s, a, t1, t2, b = end[1](col)
        sub = end[2]
        circle = tables[_CIRCLE]
        # the colors i with (a, i, b) and (t1, i, t2) admissible
        lo = max(abs(a - b), abs(t1 - t2))
        hi = min(a + b, t1 + t2, top - a - b, top - t1 - t2)
        total = _NIL
        for i in range(lo, hi + 1, 2):
            ctx.tick()
            coeff = circle[i] * sixj(s, a, t1, i, t2, b, lv)
            total = total + coeff * sub.value(col + (i,), ctx)
        return acc * total
    if kind == _RETURN:
        return acc
    if kind == _PRODUCT:
        for sub in end[1]:
            acc = acc * sub.value(col, ctx)
        return acc
    if kind == _ZERO:
        return _NIL
    raise end[1](end[2])


def _eval_canonical(g: PlanarGraph, coloring, ctx, sig=None) -> ExtScalar:
    """Value of (g, coloring), memoized under its canonical signature.

    This is the one place a reduction is compiled, looked up or run, and
    the one place a memo key (r, signature) or a zero-edge pattern is
    built; a hit costs no steps.  coloring is a tuple, and sig can pass
    canonical_signature(g, coloring).  A miss replays the program of
    (g, _zero_mask(coloring)), for a sub-evaluation the pattern compiled.
    """
    if sig is None:
        sig = canonical_signature(g, coloring)
    key = (ctx.lv.r, sig)
    hit = ctx.memo.get(key)
    if hit is not None:
        return hit
    val = _run(_program(g, _zero_mask(coloring)), coloring, ctx)
    if len(ctx.memo) >= _MEMO_MAX:
        ctx.memo.clear()
    ctx.memo[key] = val
    return val


def _validate_coloring(g, coloring, lv):
    """coloring as a tuple of Python ints, or ValueError unless it colors
    g at lv.  A color may be of any integral type (a numpy integer, say)
    but not a float."""
    if len(coloring) != g.ne:
        raise ValueError(f"coloring has {len(coloring)} entries for {g.ne} edges")
    out = []
    for c in coloring:
        try:
            i = index(c)
        except TypeError:
            i = -1
        if i < 0 or i % 2 or i > lv.r - 3:
            raise ValueError(f"{c} is not a color at level {lv.r}")
        out.append(i)
    return tuple(out)


def bracket(
    graph: PlanarGraph,
    coloring,
    level,
    *,
    budget=None,
    memo=None,
) -> ExtScalar:
    """The invariant of a colored planar graph, as an ExtScalar.

    coloring is a tuple of colors indexed by edge id.  All vertices must
    have valence 0, 2 or 3.  The order of the moves follows the labels;
    the value does not depend on it (a fact the test-suite checks on
    relabeled copies rather than assumes).

    budget caps the reduction steps (default 1e8); past it BudgetExceeded
    is raised.  memo is a dict of reduced values that the caller owns and
    may share between calls; a hit in it costs no steps.  Without one the
    call uses a fresh dict, so nothing is kept between calls.
    """
    lv = Level.of(level)
    coloring = _validate_coloring(graph, coloring, lv)
    if genus(graph) != 0:
        raise NotPlanar("the rotation system does not embed in the sphere")
    ctx = _Ctx(lv, budget, memo)
    return _eval_canonical(graph, coloring, ctx)


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

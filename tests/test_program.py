"""The compiled bracket reduction against the imperative moves it records.

The reference below reduces every memo miss imperatively: it walks the
moves on a mutable rotation system, rebuilding faces and components at
each step and multiplying the factors in as it goes.  The engine records
those moves once per (labeled graph, zero-edge pattern) and replays
them, and must give the same values, memo entries, step counts and
budget verdicts, bit for bit.
"""

import itertools
import random

import pytest

import skeinvol.bracket as bracket_module
from skeinvol.bracket import _MEMO_MAX, _Ctx, _eval_canonical, _RGraph, bracket, cache_clear
from skeinvol.errors import BudgetExceeded, LowValence, NotTrivalent
from skeinvol.extscalar import ExtScalar
from skeinvol.planar import (
    PlanarGraph,
    canonical_signature,
    cube,
    octahedron,
    relabel,
    square_pyramid,
    tetrahedron,
    theta,
    triangle,
    triangular_prism,
)
from skeinvol.qnum import Level, circle_weight, is_admissible_triple, sixj, vertex_weight
from skeinvol.yokota import (
    _shape,
    admissible_colorings,
    maximizing_color,
    yokota_ext,
    yokota_table,
)

# ---------------------------------------------------------------------------
# the reference: the imperative reduction


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
                return "changed", ExtScalar(w)
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
    weight = ExtScalar(1.0 / circle_weight(rg.col[etU], ctx.lv))
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

    The edge s of the face's least dart is removed and replaced by a
    transverse edge whose color is summed over; the value is
    sum_i circle_weight(i) * 6j(s, a, t1, i, t2, b) * <rewired graph>.
    """
    darts = sorted(face, key=lambda d: (d >> 1, d & 1))
    d = darts[0]
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
        coeff = ExtScalar(circle_weight(i, ctx.lv)) * sixj(
            s_col, a_col, t1_col, i, t2_col, b_col, ctx.lv
        )
        terms.append((i, coeff))
    return e_new, terms


def _reduce(rg, ctx):
    acc = ExtScalar(1.0)
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
                out = out * _eval_canonical_reference(sub, subcol, ctx)
            return out

        if _bridges(rg):
            return ExtScalar()  # a bridge with nonzero color

        if _is_theta(rg):
            return acc

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
        e_new, terms = _whitehead(rg, candidates[0], ctx)
        total = ExtScalar()
        for i, coeff in terms:
            ctx.tick()
            rg.col[e_new] = i
            sub, subcol, _ = rg.freeze()
            total = total + coeff * _eval_canonical_reference(sub, subcol, ctx)
        return acc * total


def _eval_canonical_reference(g, coloring, ctx, sig=None):
    if sig is None:
        sig = canonical_signature(g, coloring)
    key = (ctx.lv.r, sig)
    hit = ctx.memo.get(key)
    if hit is not None:
        return hit
    val = _reduce(_RGraph.from_graph(g, coloring), ctx)
    if len(ctx.memo) >= _MEMO_MAX:
        ctx.memo.clear()
    ctx.memo[key] = val
    return val


def bracket_reference(graph, coloring, level, *, budget=None, memo=None):
    """bracket() through the reference reduction; returns (value, steps)."""
    ctx = _Ctx(Level.of(level), budget, memo)
    return _eval_canonical_reference(graph, tuple(coloring), ctx), ctx.steps


# ---------------------------------------------------------------------------
# bit identity


def bits(x):
    return (x.m, x.e, x.q)


def cube_zero_patterns():
    """The cube at all 2 with no edge, one edge or two edges set to 0; a
    vertex meeting two 0-edges makes the value 0."""
    for zeros in itertools.chain([()], itertools.combinations(range(12), 1),
                                 itertools.combinations(range(12), 2)):
        yield tuple(0 if e in zeros else 2 for e in range(12))


def fanned_octahedron():
    return _shape(octahedron()).g2


def cube_sample_9():
    """Admissible cube colorings at r = 9, where an H-to-I sum is cut by
    the sum bound of either of its two new vertices."""
    cols = list(admissible_colorings(cube(), 9))
    return random.Random(9).sample(cols, 80)


# (graph, level, colorings, every how many colorings the budget is pinned)
BIT_CASES = {
    # every coloring, inadmissible ones included
    "tetrahedron-5": (tetrahedron, 5, lambda: itertools.product((0, 2), repeat=6), 1),
    "tetrahedron-7": (tetrahedron, 7, lambda: admissible_colorings(tetrahedron(), 7), 1),
    # nonzero colors only, so every inadmissible vertex is found by the
    # replayed checks: (2, 2, 6) breaks a triangle inequality, (6, 6, 4)
    # the sum bound 2r - 4
    "tetrahedron-9": (tetrahedron, 9, lambda: itertools.product((2, 4, 6), repeat=6), 1),
    "prism-7": (triangular_prism, 7, lambda: admissible_colorings(triangular_prism(), 7), 11),
    "cube-7": (cube, 7, cube_zero_patterns, 3),
    "cube-9": (cube, 9, cube_sample_9, 3),
    # the fanned octahedron of yokota_ext, whose reductions split into
    # components and sum over new colors, 0 included
    "octahedron-fan-5": (fanned_octahedron, 5,
                         lambda: admissible_colorings(fanned_octahedron(), 5), 9),
}


def relabeled_case(case, copy):
    """The graph and colorings of BIT_CASES[case], or for copy = 0, 1 a
    relabeled copy of the graph, which the moves reduce in another order,
    with the colorings carried over."""
    make, r, colorings, stride = BIT_CASES[case]
    g = make()
    cols = [tuple(col) for col in colorings()]
    if copy is None:
        return g, r, cols, stride
    rng = random.Random(f"{case}:{copy}")
    h, eids = relabel(g, range(g.ne), rng)
    return h, r, [tuple(col[e] for e in eids) for col in cols], stride


@pytest.mark.parametrize("copy", [None, 0, 1])
@pytest.mark.parametrize("case", list(BIT_CASES))
def test_compiled_bit_identical_to_reference(case, copy):
    g, r, cols, stride = relabeled_case(case, copy)
    memo, ref_memo = {}, {}
    for col in cols:
        got = bracket(g, col, r, memo=memo)
        want, _ = bracket_reference(g, col, r, memo=ref_memo)
        assert bits(got) == bits(want), col
    assert any(not v.is_zero() for v in memo.values())
    assert memo.keys() == ref_memo.keys()
    assert all(bits(memo[k]) == bits(ref_memo[k]) for k in memo)
    # the step count is pinned by the budget verdicts one step either side
    for col in cols[::stride]:
        want, steps = bracket_reference(g, col, r, memo={})
        assert bits(bracket(g, col, r, budget=steps, memo={})) == bits(want)
        with pytest.raises(BudgetExceeded):
            bracket(g, col, r, budget=steps - 1, memo={})
        with pytest.raises(BudgetExceeded):
            bracket_reference(g, col, r, budget=steps - 1, memo={})


def test_fixtures_reach_every_end(monkeypatch):
    # the cases above replay programs of every kind of end
    ends = set()
    real_run = bracket_module._run

    def recording_run(prog, col, ctx):
        ends.add(prog.end[0])
        return real_run(prog, col, ctx)

    monkeypatch.setattr(bracket_module, "_run", recording_run)
    cache_clear()
    for case in ("tetrahedron-5", "octahedron-fan-5"):
        make, r, colorings, _ = BIT_CASES[case]
        g = make()
        for col in colorings():
            bracket(g, col, r, memo={})
    assert ends == {bracket_module._RETURN, bracket_module._ZERO, bracket_module._PRODUCT,
                    bracket_module._SUM}


def test_step_counts_with_a_shared_memo():
    # a memo hit costs no steps, in the compiled engine as in the reference,
    # also where a sub-evaluation finds what an earlier coloring stored
    g, r = fanned_octahedron(), 5
    memo, ref_memo = {}, {}
    for col in itertools.islice(admissible_colorings(g, r), 600):
        ctx = _Ctx(Level.of(r), None, memo)
        got = _eval_canonical(g, col, ctx)
        want, steps = bracket_reference(g, col, r, memo=ref_memo)
        assert (bits(got), ctx.steps) == (bits(want), steps)


def test_a_k4_ends_by_a_triangle_contraction():
    # a K4 takes no rule of its own: one triangle contraction (one 6j step)
    # leaves a theta, which returns; so the prism and the cube end too
    cache_clear()
    prog = bracket_module._program(tetrahedron(), 0)
    assert [step[0] for step in prog.steps].count(bracket_module._SIXJ) == 1
    assert prog.end == (bracket_module._RETURN,)
    for make, steps, entries in [(tetrahedron, 2, 1), (triangular_prism, 3, 1), (cube, 18, 4)]:
        g = make()
        ctx = _Ctx(Level.of(7), None, {})
        _eval_canonical(g, (2,) * g.ne, ctx)
        assert (ctx.steps, len(ctx.memo)) == (steps, entries), make.__name__
    cache_clear()


def low_valence_graphs():
    """A pendant edge, and a four-valent vertex after a 2-valent one whose
    colors may differ: the moves raise or return 0 in the reference order."""
    pendant = PlanarGraph(2, [(0, 1)], [[0], [1]])
    return pendant, square_pyramid()


def test_valence_errors_and_zero_order_as_reference():
    pendant, pyramid = low_valence_graphs()
    with pytest.raises(LowValence):
        bracket(pendant, (0,), 5)
    with pytest.raises(NotTrivalent):
        bracket(pyramid, (2,) * 8, 7)
    # an inadmissible vertex met before the four-valent one gives 0, as in
    # the reference; one met after it does not
    for col in [(4, 2, 2, 2, 0, 0, 0, 0), (2,) * 7 + (4,), (0, 4) + (2,) * 6]:
        try:
            want = bits(bracket_reference(pyramid, col, 7)[0])
        except NotTrivalent:
            with pytest.raises(NotTrivalent):
                bracket(pyramid, col, 7)
        else:
            assert bits(bracket(pyramid, col, 7)) == want


def test_isolated_vertex_and_known_unequal_two_valent_as_reference():
    # the compiled valence pass drops a 0-valent vertex, and gives 0 for a
    # 2-valent vertex whose two colors it knows differ (one is 0, one not)
    cache_clear()
    isolated = PlanarGraph(3, [(0, 1)] * 3, [(0, 2, 4), (1, 5, 3), ()])
    cases = [(isolated, col) for col in [(2, 2, 2), (0, 2, 2), (2, 4, 4)]]
    for g, col in cases + [(triangle(), (0, 2, 2))]:
        assert bits(bracket(g, col, 7)) == bits(bracket_reference(g, col, 7)[0]), col
    assert bits(bracket(isolated, (2, 4, 4), 7)) == bits(bracket(theta(), (2, 4, 4), 7))
    assert bracket(triangle(), (0, 2, 2), 7).is_zero()


# ---------------------------------------------------------------------------
# the program cache


def programs():
    return bracket_module._program.cache_info()


def test_one_program_per_labeled_graph_and_zero_pattern():
    cache_clear()
    assert programs().currsize == 0
    # all-maximizing octahedron: the same 32 programs serve r = 7, 9 and 11
    counts = []
    for r in (7, 9, 11):
        yokota_ext(octahedron(), (maximizing_color(r),) * 12, r)
        counts.append(programs().misses)
    assert counts == [32, 32, 32]
    assert programs().currsize == 32
    cache_clear()
    for r in (5, 7, 9):
        yokota_table(triangular_prism(), r)
    assert programs().misses == programs().currsize == 17
    cache_clear()
    assert programs().currsize == 0


def test_program_cache_bounded_and_invisible():
    cache_clear()

    def values():
        # a private memo each time, so every bracket is replayed
        b = bracket(cube(), (2,) * 12, 7, memo={})
        y = yokota_ext(octahedron(), (2,) * 12, 5, memo={})
        return bits(b), bits(y)

    cold = values()
    warm = values()
    assert programs().hits > 0
    # more zero-edge patterns of the cube than the cache holds programs
    maxsize = programs().maxsize
    for col in itertools.islice(itertools.product((0, 2), repeat=12), maxsize + 1):
        assert bits(bracket(cube(), col, 5, memo={})) == bits(
            bracket_reference(cube(), col, 5, memo={})[0])
    assert programs().currsize == maxsize
    evicted = values()
    assert cold == warm == evicted
    cache_clear()


def least_budget(call):
    """The smallest budget under which call(budget) does not raise."""
    lo, hi = 0, 1
    while True:
        try:
            call(hi)
            break
        except BudgetExceeded:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            call(mid)
            hi = mid
        except BudgetExceeded:
            lo = mid
    return hi


def test_budget_verdicts_do_not_depend_on_the_program_cache():
    g, col = octahedron(), (2,) * 12

    def call(budget):
        return yokota_ext(g, col, 7, budget=budget)

    cache_clear()
    cold = least_budget(call)
    # warm: every program compiled, by an unrestricted call
    assert not call(None).is_zero()
    assert programs().currsize > 0
    with pytest.raises(BudgetExceeded):
        call(50)
    assert least_budget(call) == cold
    with pytest.raises(BudgetExceeded):
        call(cold - 1)
    assert bits(call(cold)) == bits(call(None))

"""Invariants of colored planar graphs: values, doubling, duality."""

import itertools
import math
import random

import pytest

import skeinvol.yokota as yokota_module
from skeinvol.bracket import _RGraph, _validate_coloring, bracket, cache_clear
from skeinvol.errors import BudgetExceeded, NotPlanar
from skeinvol.extscalar import ExtScalar
from skeinvol.planar import (
    PlanarGraph,
    _vector_getter,
    canonical_signature,
    cube,
    double_at,
    genus,
    octahedron,
    read_signature,
    relabel,
    square_pyramid,
    tetrahedron,
    theta,
    triangle,
    triangular_prism,
    wheel,
)
from skeinvol.qnum import (
    Level,
    circle_weight,
    is_admissible_triple,
    kirby_norm,
    quantum_integer,
    sixj,
)
from skeinvol.yokota import (
    _JOIN,
    _LOOP,
    _PENDANT,
    _fan_all,
    _shape,
    admissible_colorings,
    desingularize,
    fourier_dual,
    hopf_pairing,
    maximizing_color,
    tv_graph,
    yokota,
    yokota_ext,
    yokota_kirby,
    yokota_table,
)

TET_SLOTS = (0, 1, 2, 5, 4, 3)


def test_tetrahedron_all_two():
    got = yokota(tetrahedron(), (2,) * 6, 5)
    assert abs(got - 6.854102) < 1e-4
    want = sixj(2, 2, 2, 2, 2, 2, 5).to_complex().real ** 2
    assert abs(got - want) < 1e-10


def test_vertexless_graph_is_one():
    g = PlanarGraph(1, (), ((),))
    assert yokota(g, (), 5) == 1.0


def test_triangle_closed_form():
    # the invariant of a constant-colored triangle is the reciprocal circle weight
    for c, want in [(0, 1.0), (2, 1.8019377358048383), (4, -0.8019377358048383)]:
        got = yokota(triangle(), (c, c, c), 7)
        assert abs(got - want) < 1e-12
        assert abs(got - 1.0 / circle_weight(c, 7)) < 1e-12


def test_negative_value_is_signed_square():
    col = (0, 0, 0, 4, 4, 4)
    got = yokota(tetrahedron(), col, 7)
    assert abs(got - (-0.8019377358048385)) < 1e-10
    from skeinvol.bracket import bracket

    b = bracket(tetrahedron(), col, 7).to_complex()
    assert abs(got - b * b) < 1e-10  # the square keeps the phase


def test_prism_power_identity():
    got = yokota(triangular_prism(), (2,) * 9, 7)
    want = sixj(2, 2, 2, 2, 2, 2, 7).to_complex().real ** 4
    assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_tet_symbol_squares():
    for col in [(2, 2, 2, 4, 4, 4), (4, 4, 4, 4, 4, 4), (6, 4, 2, 4, 2, 6)]:
        got = yokota(tetrahedron(), col, 9)
        s = sixj(*(col[s] for s in TET_SLOTS), 9).to_complex()
        want = (s * s).real
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_desingularize_counts():
    g, col, added = desingularize(tetrahedron(), (2,) * 6)
    assert added == [] or added == ()
    assert g.ne == 6 and len(col) == 6

    pyr = square_pyramid()
    g, col, added = desingularize(pyr, (2,) * 8)
    assert len(added) == 1
    assert g.nv == pyr.nv + 1
    assert col[added[0]] is None

    w = wheel(6)
    g, col, added = desingularize(w, (2,) * 12)
    assert len(added) == 3
    assert g.nv == 10
    assert all(col[e] is None for e in added)
    assert all(c == 2 for c in col[: w.ne])


def test_doubling_squares_the_invariant():
    pyr = square_pyramid()
    col = (2,) * pyr.ne
    g2, col2, _, _ = double_at(pyr, 0, col)
    single = yokota_ext(pyr, col, 5)
    doubled = yokota_ext(g2, col2, 5)
    lhs = (single * single).to_complex()
    rhs = doubled.to_complex()
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_kirby_colored_theta():
    got = yokota_kirby(theta(), 5).to_complex()
    want = kirby_norm(5) ** 2  # first betti number of the theta graph is 2
    assert abs(got - want) < 1e-9
    assert abs(got - 1.9098300562505266) < 1e-6


def test_tv_sums_magnitudes():
    tab = yokota_table(tetrahedron(), 5)
    assert len(tab) == 15
    brute = sum(abs(v.to_complex()) for v in tab.values())
    got = tv_graph(tetrahedron(), 5).to_complex()
    assert abs(got - brute) < 1e-9
    assert got.imag == 0 or abs(got.imag) < 1e-12


def test_hopf_pairing_values():
    assert hopf_pairing(0, 0, 7) == 1.0
    for i, j, r in [(2, 2, 7), (2, 4, 7), (4, 4, 11), (6, 2, 11)]:
        want = (-1) ** (i + j) * math.sin(2 * math.pi * (i + 1) * (j + 1) / r) / math.sin(
            2 * math.pi / r
        )
        assert abs(hopf_pairing(i, j, r) - want) < 1e-12
        assert hopf_pairing(i, j, r) == hopf_pairing(j, i, r)


def test_fourier_on_self_dual_graph():
    got = fourier_dual(tetrahedron(), 5, (2,) * 6).to_complex()
    assert abs(got - 6.854101966249685) < 1e-6


@pytest.mark.parametrize("dual", [(2, 2), (2,) * 7, (3,) * 6, (2.0,) * 6, (-2,) * 6, (4,) * 6])
def test_fourier_dual_validates_the_dual_coloring(dual):
    # a short or long coloring, an odd, float, negative or too large color
    with pytest.raises(ValueError):
        fourier_dual(tetrahedron(), 5, dual)


def test_fourier_consistent_with_table():
    tab = yokota_table(theta(), 7)
    with_table = fourier_dual(theta(), 7, (2, 2, 2), table=tab).to_complex()
    without = fourier_dual(theta(), 7, (2, 2, 2)).to_complex()
    assert abs(with_table - without) < 1e-12 * max(1.0, abs(without))


def test_maximizing_color_pins():
    assert [maximizing_color(r) for r in (5, 7, 9, 11, 13)] == [2, 2, 4, 4, 6]


# ---------------------------------------------------------------------------
# The per-coloring procedure that the per-shape split replaced, kept as the
# reference: every call rebuilds the graph, strips its low-valence vertices,
# fans and freezes it, and evaluates one bracket per internal coloring.
# Real products are (negative, log) pairs, multiplied factor by factor.


def _neg_log(x):
    return x < 0, math.log(abs(x))


def _times(p, q):
    return p[0] ^ q[0], p[1] + q[1]


def _over(p, q):
    return p[0] ^ q[0], p[1] - q[1]


def _to_ext(p):
    return ExtScalar.from_log(p[1], sign=-1 if p[0] else 1)


def _strip_low_valence_reference(rg, lv):
    factor = (False, 0.0)
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
                delta = _neg_log(circle_weight(c, lv))
                if e1 == e2:
                    factor = _times(factor, delta)
                    rg.remove_edge(e1)
                    del rg.rot[v]
                else:
                    factor = _over(factor, delta)
                    rg.splice(d1, d2)
                    del rg.rot[v]
            break
    return factor


def _internal_assignments_reference(graph, template, internal, lv):
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


def yokota_ext_reference(graph, coloring, level, *, budget=None, memo=None):
    lv = Level.of(level)
    _validate_coloring(graph, coloring, lv)
    rg = _RGraph.from_graph(graph, coloring)
    factor = _strip_low_valence_reference(rg, lv)
    if factor is None:
        return ExtScalar()
    if not rg.rot:
        return _to_ext(factor)
    internal = _fan_all(rg)
    g2, col2, emap = rg.freeze()
    template = list(col2)
    slots = sorted(emap[e] for e in internal)
    total = ExtScalar()
    for assign in _internal_assignments_reference(g2, template, slots, lv):
        col = list(template)
        weight = (False, 0.0)
        for e, c in zip(slots, assign):
            col[e] = c
            weight = _times(weight, _neg_log(circle_weight(c, lv)))
        b = bracket(g2, tuple(col), lv, budget=budget, memo=memo)
        total = total + _to_ext(weight) * (b * b)
    return _to_ext(factor) * total


def brute_colorings(graph, level):
    """Every coloring passing the local vertex rules, from a plain product."""
    lv = Level.of(level)
    verts = [[d >> 1 for d in rot] for rot in graph.rot if rot]
    for col in itertools.product(lv.colors, repeat=graph.ne):
        ok = True
        for es in verts:
            cs = [col[e] for e in es]
            if len(cs) == 1:
                ok = cs[0] == 0
            elif len(cs) == 2:
                ok = cs[0] == cs[1]
            elif len(cs) == 3:
                ok = is_admissible_triple(*cs, lv)
            else:
                ok = sum(cs) % 2 == 0
            if not ok:
                break
        if ok:
            yield col


def table_reference(graph, level, memo):
    return {col: yokota_ext_reference(graph, col, level, memo=memo)
            for col in brute_colorings(graph, level)}


def tv_reference(table):
    total = ExtScalar()
    for y in table.values():
        if not y.is_zero():
            total = total + ExtScalar.from_log(y.log_abs())
    return total


def kirby_reference(graph, level, memo):
    lv = Level.of(level)
    total = ExtScalar()
    for col in brute_colorings(graph, lv):
        y = yokota_ext_reference(graph, col, lv, memo=memo)
        if y.is_zero():
            continue
        w = (False, 0.0)
        for c in col:
            w = _times(w, _neg_log(circle_weight(c, lv)))
        total = total + _to_ext(w) * y
    return total


def low_valence():
    """Four parallel edges between vertices 0 and 1, one of them split by
    the two-valent vertex 3, a pendant edge from 0 to 2, a circle at the
    two-valent vertex 4, and a loop at 5 whose pendant edge to 6 leaves it
    two-valent once stripped.  0 and 1 are four-valent after stripping."""
    edges = [(0, 1), (0, 1), (0, 1), (0, 3), (3, 1), (0, 2), (4, 4), (5, 5), (5, 6)]
    rot = [[0, 2, 4, 6, 10], [1, 9, 5, 3], [11], [7, 8], [12, 13], [14, 15, 16], [17]]
    return PlanarGraph(7, edges, rot)


def low_valence_loop_last():
    """low_valence with edges 7 and 8 swapped: the loop at the trivalent
    vertex 5 is now the last of its edges, so the filler closes that
    vertex on the loop's color range."""
    g = low_valence()
    edges = list(g.edges)
    edges[7], edges[8] = edges[8], edges[7]
    swap = {14: 16, 15: 17, 16: 14, 17: 15}
    rot = [[swap.get(d, d) for d in darts] for darts in g.rot]
    return PlanarGraph(g.nv, edges, rot)


def handcuff():
    """Two loops joined by a bridge (edge 0): each trivalent vertex is
    closed by its loop, with the bridge's color as the third one."""
    return PlanarGraph(2, [(0, 1), (0, 0), (1, 1)], [[0, 2, 3], [1, 4, 5]])


def turned(graph, k, vertices):
    """graph with the rotation of each vertex in vertices turned by k
    corners, so that a fan there starts k corners on."""
    rot = [r[k:] + r[:k] if v in vertices else r for v, r in enumerate(graph.rot)]
    return PlanarGraph(graph.nv, graph.edges, rot)


def relabeled_prism():
    g = triangular_prism()
    return relabel(g, (0,) * g.ne, random.Random(2024))[0]


def bits(x):
    return (x.m, x.e, x.q)


TABLE_CASES = [
    ("prism", triangular_prism, 9),
    ("cube", cube, 5),
    ("octahedron", octahedron, 5),
    ("pyramid", square_pyramid, 7),
    ("low-valence", low_valence, 7),
    ("tetrahedron", tetrahedron, 11),
    ("relabeled-prism", relabeled_prism, 9),
]


@pytest.mark.parametrize("name,make,r", TABLE_CASES, ids=[c[0] for c in TABLE_CASES])
def test_coloring_sums_bit_identical_to_reference(name, make, r):
    g = make()
    assert genus(g) == 0
    ref_memo, memo = {}, {}
    want = table_reference(g, r, ref_memo)
    got = yokota_table(g, r, memo=memo)
    assert list(got) == list(want)
    assert [bits(v) for v in got.values()] == [bits(v) for v in want.values()]
    assert any(not v.is_zero() for v in got.values())
    # the memo holds the same brackets under the same keys
    assert memo.keys() == ref_memo.keys()
    assert all(bits(memo[k]) == bits(ref_memo[k]) for k in memo)

    assert bits(tv_graph(g, r, memo={})) == bits(tv_reference(want))
    assert bits(yokota_kirby(g, r, memo={})) == bits(kirby_reference(g, r, {}))
    for dual in [(2,) * g.ne, tuple(c % 4 for c in range(0, 2 * g.ne, 2))]:
        want_dual = fourier_dual(g, r, dual, table=want)
        assert bits(fourier_dual(g, r, dual, memo={})) == bits(want_dual)


@pytest.mark.parametrize("make,r,want", [
    (triangular_prism, 9, (0.6974959874960297, 21, 0)),
    (cube, 5, (0.5893387751167021, 13, 0)),
])
def test_tv_graph_streams_the_colorings(monkeypatch, make, r, want):
    # the sum of the table, in its order, without building the table
    def no_table(*args, **kwargs):
        raise AssertionError("tv_graph built the coloring table")

    monkeypatch.setattr(yokota_module, "yokota_table", no_table)
    assert bits(tv_graph(make(), r, memo={})) == want


@pytest.mark.parametrize("make,r,want", [
    (triangular_prism, 9, 848),
    (cube, 7, 272),
    (octahedron, 5, 2250),
])
def test_tv_graph_reads_one_signature_per_class(monkeypatch, make, r, want):
    # a bare connected shape evaluates one coloring per symmetry class and
    # hands its value to the rest; the octahedron's fanned shape is read
    # per coloring
    calls = []

    def counted(labelings, coloring=None):
        calls.append(coloring)
        return read_signature(labelings, coloring)

    monkeypatch.setattr(yokota_module, "read_signature", counted)
    memo = {}
    tv_graph(make(), r, memo=memo)
    assert len(calls) == want
    if make is triangular_prism:
        assert len(memo) == want


@pytest.mark.parametrize("make,r", [(triangular_prism, 9), (cube, 5)])
def test_fourier_dual_streams_the_colorings(monkeypatch, make, r):
    # without table= the same sum, in the table's order, bit for bit,
    # without building the table
    g = make()
    dual = tuple(c % 4 for c in range(0, 2 * g.ne, 2))
    want = bits(fourier_dual(g, r, dual, table=yokota_table(g, r, memo={})))

    def no_table(*args, **kwargs):
        raise AssertionError("fourier_dual built the coloring table")

    monkeypatch.setattr(yokota_module, "yokota_table", no_table)
    assert bits(fourier_dual(g, r, dual, memo={})) == want


def test_low_valence_fixture_applies_every_rule():
    shape = _shape(low_valence())
    kinds = [kind for kind, _, _ in shape.rules]
    assert kinds == [_PENDANT, _JOIN, _LOOP, _PENDANT, _LOOP]
    assert len(shape.slots) == 2
    # colorings the enumeration never yields: a pendant edge colored 2, and
    # the two edges at the two-valent vertex 3 colored apart, each vanish
    base = next(col for col, y in yokota_table(low_valence(), 7).items() if not y.is_zero())
    for edge, color in [(5, 2), (8, 2), (4, (base[3] + 2) % 6)]:
        col = list(base)
        col[edge] = color
        assert yokota_ext(low_valence(), col, 7).is_zero()
        assert yokota_ext_reference(low_valence(), col, 7).is_zero()


def test_shape_key_is_the_canonical_signature():
    rng = random.Random(5)
    for make, r in [(octahedron, 7), (cube, 5), (low_valence, 7), (triangular_prism, 9)]:
        shape = _shape(make())
        for _ in range(50):
            col = [rng.choice(Level.of(r).colors) for _ in range(shape.g2.ne)]
            assert read_signature(shape.labelings, col) == canonical_signature(shape.g2, col)
    # after stripping every component has at least three edges, but a
    # one-edge order still reads a 1-tuple, as canonical_signature does
    assert _vector_getter((2,))([0, 2, 4]) == (4,)
    assert _vector_getter((2, 0))([0, 2, 4]) == (4, 0)


# (name, graph, level, (turn, turned vertices) pairs, how many colorings)
ANCHOR_CASES = [
    ("octahedron", octahedron, 5, [(1, range(6))], None),
    ("pyramid", square_pyramid, 7, [(k, (0,)) for k in range(4)], None),
]


@pytest.mark.parametrize("name,make,r,turns,limit", ANCHOR_CASES,
                         ids=[c[0] for c in ANCHOR_CASES])
def test_anchored_values_bit_identical_to_reference(name, make, r, turns, limit):
    # fans anchored at other corners, by turning the rotations they start at
    cols = list(itertools.islice(admissible_colorings(make(), r), limit))
    for k, vertices in turns:
        g = turned(make(), k, vertices)
        ref_memo, memo = {}, {}
        for col in cols:
            want = yokota_ext_reference(g, col, r, memo=ref_memo)
            got = yokota_ext(g, col, r, memo=memo)
            assert bits(got) == bits(want), (k, col)
        assert memo.keys() == ref_memo.keys()


def test_octahedron_value_moves_with_the_fan_anchors_at_r7():
    # the fanned octahedron loses digits already at r = 7: with every
    # rotation turned by two corners its value moves by 2.9e-12 relative
    g, col = octahedron(), (2,) * 12
    assert yokota(g, col, 7) == 121184.7549846989
    assert yokota(turned(g, 2, range(g.nv)), col, 7) == 121184.75498504535


ENUM_GRAPHS = [theta, tetrahedron, triangular_prism, octahedron, low_valence,
               low_valence_loop_last, handcuff]


@pytest.mark.parametrize("r", [5, 7, 9])
@pytest.mark.parametrize("make", ENUM_GRAPHS, ids=[m.__name__ for m in ENUM_GRAPHS])
def test_admissible_colorings_match_brute_force(make, r):
    g = make()
    # every color is even, so the octahedron's four-valent vertices pass
    # every coloring: 3**12 and 4**12 at r = 7 and 9, compared on a prefix
    limit = 50_000 if make is octahedron else None
    got = list(itertools.islice(admissible_colorings(g, r), limit))
    want = list(itertools.islice(brute_colorings(g, r), limit))
    assert got == want
    assert len(got) > 0


def torus_theta():
    """The theta graph with one rotation reversed: it embeds in the torus."""
    return PlanarGraph(2, theta().edges, ((0, 2, 4), (1, 3, 5)))


def torus_wheel():
    """wheel(4) with vertex 1's rotation reversed: it embeds in the torus."""
    g = wheel(4)
    return PlanarGraph(g.nv, g.edges, [rot[::-1] if v == 1 else rot for v, rot in enumerate(g.rot)])


def test_yokota_ext_errors():
    with pytest.raises(ValueError):
        yokota_ext(tetrahedron(), (2, 2, 2), 7)
    with pytest.raises(ValueError):
        yokota_ext(tetrahedron(), (2, 2, 2, 2, 2, 3), 7)
    with pytest.raises(ValueError):
        yokota_ext(square_pyramid(), (2,) * 7 + (8,), 7)
    for _ in range(2):  # the second call finds the shape cached
        with pytest.raises(NotPlanar):
            yokota_ext(torus_theta(), (2, 2, 2), 7, memo={})
        with pytest.raises(NotPlanar):
            yokota_table(torus_theta(), 7, memo={})
        # the verdict does not depend on the coloring: this one leaves no
        # admissible internal fill
        for col in ((2,) * 8, (0, 0, 0, 2, 0, 0, 0, 0)):
            with pytest.raises(NotPlanar):
                yokota_ext(torus_wheel(), col, 7, memo={})


def test_budget_on_a_miss_and_free_on_a_hit():
    g, col = square_pyramid(), (2,) * 8
    with pytest.raises(BudgetExceeded) as want:
        yokota_ext_reference(g, col, 7, budget=1, memo={})
    with pytest.raises(BudgetExceeded) as got:
        yokota_ext(g, col, 7, budget=1, memo={})
    assert str(got.value) == str(want.value) == "evaluation exceeded 1 steps"
    with pytest.raises(BudgetExceeded):
        yokota_table(triangular_prism(), 5, budget=1, memo={})
    # once every bracket is in the memo, evaluating costs no steps
    memo = {}
    full = yokota_ext(g, col, 7, memo=memo)
    again = yokota_ext(g, col, 7, budget=1, memo=memo)
    assert bits(again) == bits(full)
    # each top-level bracket starts its count at 0: the prism's table at
    # r = 7 reduces 602 steps in all, but at most 10 in one evaluation
    table = yokota_table(triangular_prism(), 7, budget=10, memo={})
    assert [bits(v) for v in table.values()] == [
        bits(v) for v in yokota_table(triangular_prism(), 7, memo={}).values()
    ]
    with pytest.raises(BudgetExceeded):
        yokota_table(triangular_prism(), 7, budget=9, memo={})


def test_budget_verdict_independent_of_earlier_calls():
    # no value outlives a call, so an unrestricted call cannot pay for a
    # later restricted one
    cache_clear()
    g, col = octahedron(), (2,) * 12
    with pytest.raises(BudgetExceeded):
        yokota_ext(g, col, 7, budget=50)
    assert not yokota_ext(g, col, 7).is_zero()
    with pytest.raises(BudgetExceeded):
        yokota_ext(g, col, 7, budget=50)


def test_shape_cache_bounded_and_cleared():
    cache_clear()
    shape = _shape
    assert shape.cache_info().currsize == 0
    g, col = square_pyramid(), (2,) * 8
    cold = bits(yokota_ext(g, col, 7, memo={}))
    yokota_ext(g, col, 7, memo={})
    assert shape.cache_info().hits > 0
    # distinct graphs (a theta plus k isolated vertices) beyond maxsize
    maxsize = shape.cache_info().maxsize
    for k in range(maxsize + 1):
        tk = PlanarGraph(2 + k, theta().edges, theta().rot + ((),) * k)
        assert bits(yokota_ext(tk, (2, 2, 2), 5, memo={})) == bits(
            yokota_ext_reference(tk, (2, 2, 2), 5, memo={}))
    assert shape.cache_info().currsize == maxsize
    assert bits(yokota_ext(g, col, 7, memo={})) == cold
    cache_clear()
    assert shape.cache_info().currsize == 0

"""Rotation-system planar graphs: fixtures, duals, moves, and the family."""

import json
import random

import pytest
from test_yokota import low_valence

from skeinvol.errors import NotTriangle, NotTrivalent
from skeinvol.yokota import _shape
from skeinvol.planar import (
    PlanarGraph,
    _bfs_labeling,
    betti,
    blow_up,
    canonical_labelings,
    canonical_signature,
    circle,
    cube,
    dart_components,
    double_at,
    dual,
    family_enumerate,
    genus,
    graph_from_json,
    graph_to_json,
    is_connected,
    mirror,
    octahedron,
    pentagonal_pyramid,
    read_signature,
    recognize,
    relabel,
    same_embedding,
    square_pyramid,
    tetrahedron,
    theta,
    triangle,
    triangular_prism,
    triangulate,
    validate,
    vertex_sum,
    vertex_sum_with_maps,
    wheel,
)

def iso(a, b, *args):
    """Isomorphic as embedded graphs, ignoring all labeling."""
    return canonical_signature(a, *args) == canonical_signature(b, *args)


FIXTURE_BUILDERS = [
    tetrahedron,
    theta,
    triangle,
    cube,
    octahedron,
    square_pyramid,
    pentagonal_pyramid,
    triangular_prism,
]


@pytest.mark.parametrize("build", FIXTURE_BUILDERS)
def test_euler_formula(build):
    g = build()
    assert g.nv - g.ne + len(g.faces()) == 2
    assert is_connected(g)
    assert genus(g) == 0


def test_face_counts():
    assert len(tetrahedron().faces()) == 4
    assert len(theta().faces()) == 3
    assert len(square_pyramid().faces()) == 5
    assert sorted(len(f) for f in square_pyramid().faces()) == [3, 3, 3, 3, 4]
    assert len(cube().faces()) == 6
    assert len(octahedron().faces()) == 8
    assert circle().ne == 1 and len(circle().faces()) == 2


def test_betti_numbers():
    assert betti(tetrahedron()) == 3
    assert betti(theta()) == 2
    assert betti(triangular_prism()) == 4
    assert betti(cube()) == 5
    assert betti(PlanarGraph(1, (), ((),))) == 0


def test_dual_pairs():
    assert iso(dual(tetrahedron()), tetrahedron())
    assert iso(dual(cube()), octahedron())
    assert iso(dual(theta()), triangle())


@pytest.mark.parametrize("build", FIXTURE_BUILDERS)
def test_dual_involution(build):
    g = build()
    gdd = dual(dual(g))
    assert gdd.ne == g.ne
    assert iso(gdd, g)
    # the dual flips vertices and faces
    assert dual(g).nv == len(g.faces())
    assert len(dual(g).faces()) == g.nv


def test_blow_up_counts():
    g = tetrahedron()
    g2 = blow_up(g, 0)
    assert (g2.nv, g2.ne) == (6, 9)
    assert betti(g2) == betti(g) + 1
    # truncating every corner gives the truncated-tetrahedron skeleton
    g4 = g
    for _ in range(4):
        g4 = blow_up(g4, 0)  # vertex 0 is trivalent in each intermediate graph
    assert (g4.nv, g4.ne) == (12, 18)
    with pytest.raises(NotTrivalent):
        blow_up(square_pyramid(), 0)  # the apex has valence 4


def test_triangulate_counts_and_duality():
    g = tetrahedron()
    g2 = triangulate(g, 0)
    assert (g2.nv, g2.ne) == (5, 9)
    assert betti(g2) == betti(g) + 2
    with pytest.raises(NotTriangle):
        triangulate(cube(), 0)
    # coning a face is dual to truncating the corresponding vertex
    for f in range(4):
        lhs = dual(triangulate(tetrahedron(), f))
        rhs = blow_up(dual(tetrahedron()), f)
        assert iso(lhs, rhs)


def test_vertex_sum_counts():
    g = vertex_sum(tetrahedron(), 0, tetrahedron(), 0)
    assert g.nv == 4 + 4 - 2
    assert g.ne == 6 + 6 - 3
    assert validate(g).euler_ok
    flipped = vertex_sum(tetrahedron(), 0, tetrahedron(), 0, offset=1)
    assert flipped.nv == g.nv and flipped.ne == g.ne


@pytest.mark.parametrize("build", [tetrahedron, triangular_prism, cube])
def test_vertex_sum_with_tetrahedron_is_truncation(build):
    g = build()
    for v in range(g.nv):
        for offset in range(3):
            h, emap1, emap2 = vertex_sum_with_maps(g, v, tetrahedron(), 0, offset)
            assert iso(h, blow_up(g, v))
            assert set(emap1.values()) | set(emap2.values()) == set(range(h.ne))


def test_vertex_sum_rejects_bad_input():
    with pytest.raises(ValueError, match="degree mismatch"):
        vertex_sum(square_pyramid(), 0, tetrahedron(), 0)
    # theta plus a loop: vertex 0 of degree 3 carries both ends of the loop
    loop = PlanarGraph(2, [(0, 1), (0, 0), (1, 1)], [(0, 2, 3), (1, 4, 5)])
    with pytest.raises(ValueError, match="first graph"):
        vertex_sum(loop, 0, tetrahedron(), 0)
    with pytest.raises(ValueError, match="second graph"):
        vertex_sum(tetrahedron(), 0, loop, 0)


def test_double_at_counts():
    g = square_pyramid()
    g2, col2, m1, m2 = double_at(g, 0, [2] * g.ne)
    assert g2.nv == 2 * g.nv - 2
    assert g2.ne == 2 * g.ne - g.degree(0)
    assert col2 is not None and len(col2) == g2.ne
    assert set(m1) == set(range(g.ne)) and set(m2) == set(range(g.ne))


def test_family_enumeration():
    m0 = family_enumerate(0)
    assert len(m0) == 1
    assert iso(m0[0], tetrahedron())
    m1 = family_enumerate(1)
    assert len(m1) == 2
    for g in m1:
        assert g.ne == 6 + 3
        rep = validate(g)
        assert rep.connected and rep.euler_ok
    # one move is a truncation, the other a coning; the prism realizes the former
    assert any(iso(g, blow_up(tetrahedron(), 0)) for g in m1)
    assert any(iso(g, triangulate(tetrahedron(), 0)) for g in m1)


def test_validate_reports():
    rep = validate(tetrahedron())
    assert rep.connected and rep.euler_ok and rep.simple
    assert rep.trivalent and rep.three_connected
    rep = validate(theta())
    assert rep.connected and rep.euler_ok and not rep.simple


def test_canonical_signature_invariance():
    g = triangular_prism()
    assert canonical_signature(g) == canonical_signature(mirror(mirror(g)))
    assert canonical_signature(g) != canonical_signature(cube())
    # a coloring distinguishes otherwise-identical graphs
    a = canonical_signature(theta(), (0, 2, 2))
    b = canonical_signature(theta(), (2, 2, 2))
    assert a != b


def test_json_round_trip():
    for build in FIXTURE_BUILDERS:
        g = build()
        obj = graph_to_json(g, coloring=tuple([2] * g.ne))
        g2, col = graph_from_json(json.dumps(obj))
        assert same_embedding(g, g2)
        assert col == tuple([2] * g.ne)
    obj = graph_to_json(theta())
    g2, col = graph_from_json(obj)
    assert col is None


def test_wheel_fixtures():
    assert iso(wheel(4), square_pyramid())
    assert iso(wheel(5), pentagonal_pyramid())
    w = wheel(6)
    assert (w.nv, w.ne) == (7, 12)
    assert w.degree(0) == 6  # apex carries the spokes


def test_disconnected_graph_with_isolated_vertices():
    # theta and circle: E = 4, V = 3 + 2 isolated, four components
    g = with_isolated(disjoint_union(theta(), circle()), 2)
    assert betti(g) == 3
    assert genus(g) == 0
    assert not is_connected(g)


def test_rotation_validation():
    # a rotation row referencing a dart twice is rejected
    with pytest.raises(ValueError):
        PlanarGraph(2, ((0, 1),), ((0, 0), (1,)))


# ---------------------------------------------------------------------------
# the canonical form against a brute-force reference


def _reference_rows(g, start, reflect, coloring):
    """The BFS signature from one dart, colors folded into the rows."""
    sigma = [g.sigma(d) for d in range(2 * g.ne)]
    if reflect:
        inv = [0] * len(sigma)
        for d, s in enumerate(sigma):
            inv[s] = d
        sigma = inv
    vlab = {g.vertex_of(start): 0}
    elab = {}
    out = []
    queue = [start]
    for d0 in queue:
        row = []
        d = d0
        for _ in range(g.degree(g.vertex_of(d0))):
            e = d >> 1
            elab.setdefault(e, len(elab))
            w = g.vertex_of(d ^ 1)
            if w not in vlab:
                vlab[w] = len(vlab)
                queue.append(d ^ 1)
            row += [elab[e], vlab[w]] + ([] if coloring is None else [coloring[e]])
            d = sigma[d]
        out.append(tuple(row))
    return tuple(out)


def reference_signature(g, coloring=None):
    """Minimum BFS signature over every dart and both orientations."""
    seen = set()
    sigs = []
    for d0 in range(2 * g.ne):
        if d0 in seen:
            continue
        comp, stack = {d0}, [d0]
        while stack:
            d = stack.pop()
            for nd in (d ^ 1, g.sigma(d)):
                if nd not in comp:
                    comp.add(nd)
                    stack.append(nd)
        seen |= comp
        sigs.append(min(_reference_rows(g, d, refl, coloring) for d in comp for refl in (False, True)))
    isolated = g.nv - len({g.vertex_of(d) for d in range(2 * g.ne)})
    return (isolated, tuple(sorted(sigs)))


def disjoint_union(g, h):
    shift = 2 * g.ne
    edges = list(g.edges) + [(u + g.nv, v + g.nv) for u, v in h.edges]
    rot = list(g.rot) + [[d + shift for d in r] for r in h.rot]
    return PlanarGraph(g.nv + h.nv, edges, rot)


def with_isolated(g, k):
    return PlanarGraph(g.nv + k, g.edges, list(g.rot) + [()] * k)


def _signature_corpus():
    rng = random.Random(20200205)
    shapes = [build() for build in FIXTURE_BUILDERS] + [circle(), wheel(6)]
    shapes += family_enumerate(2)
    shapes += [
        disjoint_union(theta(), circle()),
        disjoint_union(tetrahedron(), tetrahedron()),
        disjoint_union(triangular_prism(), theta()),
        with_isolated(theta(), 2),
        with_isolated(disjoint_union(circle(), circle()), 1),
        PlanarGraph(3, (), ((), (), ())),
        blow_up(tetrahedron(), 0),
        triangulate(octahedron(), 0),
    ]
    shapes += [mirror(g) for g in shapes]
    corpus = []
    for g in shapes:
        colorings = [None, (2,) * g.ne]
        colorings += [tuple(rng.choice((0, 2)) for _ in range(g.ne)) for _ in range(4)]
        colorings += [tuple(rng.choice((0, 2, 4)) for _ in range(g.ne)) for _ in range(2)]
        for col in colorings:
            corpus.append((g, col))
            for h in (g, mirror(g)):
                h2, col2 = relabel(h, (0,) * g.ne if col is None else col, rng)
                corpus.append((h2, None if col is None else col2))
    return corpus


def _classes(sigs):
    index = {}
    return [index.setdefault(s, len(index)) for s in sigs]


def test_canonical_signature_matches_reference_partition():
    corpus = _signature_corpus()
    new = [canonical_signature(g, col) for g, col in corpus]
    ref = [reference_signature(g, col) for g, col in corpus]
    # the same graphs are told apart: equal here exactly when equal there
    assert _classes(new) == _classes(ref)
    assert len(set(ref)) < len(ref)  # the corpus does contain isomorphic pairs
    for (g, col), sig, want in zip(corpus, new, ref):
        if col is None:
            assert sig == want  # the uncolored value is the reference's
    fam = family_enumerate(2)
    assert [reference_signature(g) for g in fam] == sorted(reference_signature(g) for g in fam)


def unpruned_labelings(g):
    """canonical_labelings by an unpruned search: every start searched
    to the end, the minimum taken afterwards."""
    sigma = g._sigma
    inv = [0] * len(sigma)
    for d, s in enumerate(sigma):
        inv[s] = d
    comps = dart_components(sigma, range(len(sigma)))
    out = []
    for comp in comps:
        found = [_bfs_labeling(g, sig, d0, None)[:2] for sig in (sigma, inv) for d0 in comp]
        best = min(rows for rows, _ in found)
        out.append((best, [order for rows, order in found if rows == best]))
    isolated = g.nv - len({g._vertex_of[d] for comp in comps for d in comp})
    return isolated, out


def test_canonical_labelings_match_an_unpruned_search():
    graphs = list({id(g): g for g, _ in _signature_corpus()}.values())
    for g in graphs:
        isolated, labelings = canonical_labelings(g)
        got = [(sig, [get(range(g.ne)) for get in gets]) for sig, gets in labelings]
        assert (isolated, got) == unpruned_labelings(g)


def signature_by_orders(g, coloring=None):
    """The colored signature as it was computed from bare edge orders,
    kept as the reference for read_signature.  The orders are read back
    from the getters of canonical_labelings by applying each to the
    edge ids themselves."""
    isolated, labelings = canonical_labelings(g)
    comps = [(sig, [get(range(g.ne)) for get in gets]) for sig, gets in labelings]
    if coloring is None:
        sigs = sorted(sig for sig, _ in comps)
    else:
        sigs = sorted(
            (sig, min(tuple(coloring[e] for e in order) for order in orders))
            for sig, orders in comps
        )
    return (isolated, tuple(sigs))


def test_read_signature_matches_edge_order_formula():
    rng = random.Random(7)
    fanned = [_shape(make()).g2 for make in (octahedron, square_pyramid, low_valence)]
    graphs = [build() for build in FIXTURE_BUILDERS] + fanned + [circle()]
    for g in graphs:
        labelings = canonical_labelings(g)
        # every getter reads a tuple, a 1-tuple on a one-edge component
        for _, gets in labelings[1]:
            for get in gets:
                order = get(range(g.ne))
                assert type(order) is tuple and sorted(order) == sorted(set(order))
        colorings = [None, [2] * g.ne]
        colorings += [[rng.choice((0, 2, 4)) for _ in range(g.ne)] for _ in range(10)]
        colorings += [tuple(rng.choice((0, 2, 4, 6)) for _ in range(g.ne)) for _ in range(10)]
        for col in colorings:
            want = signature_by_orders(g, col)
            assert canonical_signature(g, col) == want
            assert read_signature(labelings, col) == want
    # a circle is one component with one edge: its vector is a 1-tuple
    (_, vector), = read_signature(canonical_labelings(circle()), [4])[1]
    assert vector == (4,)


# ---------------------------------------------------------------------------
# recognizing a shape whatever its labeling


def shuffled_copies(g, seed):
    """g, relabeled copies of it, and the mirror image of each."""
    rng = random.Random(seed)
    copies = [g] + [relabel(g, (0,) * g.ne, rng)[0] for _ in range(3)]
    return copies + [mirror(h) for h in copies]


@pytest.mark.parametrize("build,shape", [
    (tetrahedron, ("wheel", 3)),
    (square_pyramid, ("wheel", 4)),
    (pentagonal_pyramid, ("wheel", 5)),
    (triangular_prism, ("prism", 3)),
    (cube, None),
    (octahedron, None),
    (theta, None),
    (triangle, None),
    (circle, None),
], ids=lambda x: getattr(x, "__name__", None))
def test_recognize_fixtures(build, shape):
    assert [recognize(h) for h in shuffled_copies(build(), build.__name__)] == [shape] * 8


@pytest.mark.parametrize("n", range(3, 9))
def test_recognize_wheels(n):
    assert [recognize(h) for h in shuffled_copies(wheel(n), n)] == [("wheel", n)] * 8


@pytest.mark.parametrize("build", [square_pyramid, triangular_prism])
def test_recognize_refuses_another_embedding_of_the_same_graph(build):
    # vertex 1 turned the other way round: the same abstract graph on a torus
    g = build()
    rot = list(g.rot)
    rot[1] = tuple(reversed(rot[1]))
    twisted = PlanarGraph(g.nv, g.edges, rot)
    assert genus(twisted) > 0
    assert recognize(twisted) is None

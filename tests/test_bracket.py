"""Recursive evaluation of colored trivalent graphs in the disc."""

import math
import random

import numpy as np
import pytest

import skeinvol.bracket as bracket_module
import skeinvol.verify as verify
from skeinvol.bracket import bracket, cache_clear
from skeinvol.errors import NotPlanar, NotTrivalent
from skeinvol.planar import (
    PlanarGraph,
    canonical_labelings,
    canonical_signature,
    circle,
    cube,
    genus,
    relabel,
    square_pyramid,
    tetrahedron,
    theta,
    triangular_prism,
)
from skeinvol.qnum import (
    Level,
    circle_weight,
    quantum_integer,
    sixj,
)
from skeinvol.yokota import admissible_colorings, yokota_ext

# fixture edge order of the tetrahedron, rearranged into symbol slots
TET_SLOTS = (0, 1, 2, 5, 4, 3)


def handcuffs():
    """Two loops joined by a bridge; both vertices are trivalent."""
    return PlanarGraph(2, ((0, 0), (0, 1), (1, 1)), ((0, 1, 2), (3, 4, 5)))


def test_circle_values():
    assert abs(bracket(circle(), (2,), 5).to_complex() - circle_weight(2, 5)) < 1e-12
    assert abs(abs(bracket(circle(), (2,), 5).to_complex()) - 0.6180339887498948) < 1e-12
    for n in Level(7).colors:
        got = bracket(circle(), (n,), 7).to_complex()
        assert abs(got - circle_weight(n, 7)) < 1e-12


def test_theta_is_one():
    # normalized vertices make every admissible theta evaluate to 1
    for a, b, c in [(0, 0, 0), (2, 2, 2), (2, 2, 4), (4, 4, 2)]:
        got = bracket(theta(), (a, b, c), 7).to_complex()
        assert abs(got - 1.0) < 1e-12


def test_tetrahedron_matches_symbol():
    got = bracket(tetrahedron(), (2,) * 6, 5).to_complex()
    assert abs(got - (-2.618033988749895)) < 1e-10
    # with no edge colored 0, one triangle contraction multiplies in the 6j
    # of the whole K4, which qnum evaluates and caches under its canonical
    # image: the same bits.  An edge colored 0 is removed first, for its
    # vertex weights, which agree with the symbol to rounding.
    exact = 0
    for r in (5, 7, 9):
        for col in admissible_colorings(tetrahedron(), r):
            got = bracket(tetrahedron(), col, r)
            want = sixj(*(col[s] for s in TET_SLOTS), r)
            if 0 in col:
                w = want.to_complex()
                assert abs(got.to_complex() - w) <= 1e-14 * abs(w), (r, col)
            else:
                assert (got.m.hex(), got.e, got.q) == (want.m.hex(), want.e, want.q), (r, col)
                exact += 1
    assert exact == 1 + 41 + 272


def relabeled_copies(g, col, seeds):
    """(g, col) and, per seed, a relabeled copy of the colored graph,
    whose moves run in another order."""
    return [(g, tuple(col))] + [relabel(g, col, random.Random(seed)) for seed in seeds]


def test_tet_shortcut_agrees_with_full_reduction():
    # the shortcut reads a K4's value off its 6j symbol at once; the full
    # reduction must give that value whatever order its moves are taken in
    for col in [(2,) * 6, (2, 2, 2, 4, 4, 4), (0, 4, 4, 4, 4, 0)]:
        fast = sixj(*(col[s] for s in TET_SLOTS), 7).to_complex()
        for g, c in relabeled_copies(tetrahedron(), col, (0, 1, 2)):
            slow = bracket(g, c, 7).to_complex()
            assert abs(fast - slow) < 1e-10 * max(1.0, abs(fast)), (col, g)


def test_bridge_vanishes():
    g = handcuffs()
    assert bracket(g, (2, 2, 2), 5).is_zero()
    assert bracket(g, (4, 2, 4), 7).is_zero()
    # with the bridge colored 0 the vertex normalizations cancel one circle
    got = bracket(g, (2, 0, 2), 5).to_complex()
    assert abs(got - circle_weight(2, 5)) < 1e-12


def test_zero_edge_on_tetrahedron():
    # shrinking a 0-colored edge leaves two circles glued at a point
    for a, b in [(2, 2), (2, 4), (4, 4)]:
        got = bracket(tetrahedron(), (0, a, a, b, b, 2), 7).to_complex()
        da, db = circle_weight(a, 7), circle_weight(b, 7)
        neg = (da < 0) + (db < 0)
        want = (-1j) ** neg / math.sqrt(abs(da * db))
        assert abs(got - want) < 1e-10
    got = bracket(tetrahedron(), (0, 4, 4, 4, 4, 0), 7).to_complex()
    assert abs(got - (-0.8019377358048385)) < 1e-10


def test_inadmissible_coloring_vanishes():
    assert bracket(theta(), (0, 2, 4), 7).is_zero()  # 0 + 2 < 4
    assert bracket(tetrahedron(), (0, 2, 4, 2, 4, 2), 7).is_zero()


def test_seed_independence():
    # the value does not depend on the seed of a relabeling
    base = bracket(*relabel(triangular_prism(), (2,) * 9, random.Random(0)), 7).to_complex()
    for g, col in relabeled_copies(triangular_prism(), (2,) * 9, (1, 7, 123)):
        got = bracket(g, col, 7).to_complex()
        assert abs(got - base) < 1e-10 * max(1.0, abs(base))


def test_library_ignores_skein_budget(monkeypatch):
    def values():
        b = bracket(cube(), (2,) * 12, 7)
        y = yokota_ext(square_pyramid(), (2,) * 8, 7)
        return (b.m, b.e, b.q, y.m, y.e, y.q)

    cache_clear()
    monkeypatch.setenv("SKEIN_BUDGET", "1")  # the package reads no environment
    got = values()
    monkeypatch.delenv("SKEIN_BUDGET")
    assert got == values()


def test_fusion_order_check_runs_seeded_reductions(monkeypatch):
    # the order check reduces seeded relabeled copies of the cube, each
    # compiling reductions of its own labeled graphs
    compiles = {}  # per cube graph the check evaluates: its compiles
    current = [None]
    real_bracket = verify.bracket
    real_compile = bracket_module._Compiler.compile

    def counted_bracket(g, col, level, **kw):
        if (g.nv, g.ne) != (8, 12):  # only the cube
            return real_bracket(g, col, level, **kw)
        current[0] = g
        compiles.setdefault(g, 0)
        try:
            return real_bracket(g, col, level, **kw)
        finally:
            current[0] = None

    def counted_compile(compiler):
        if current[0] is not None:
            compiles[current[0]] += 1
        return real_compile(compiler)

    monkeypatch.setattr(verify, "bracket", counted_bracket)
    monkeypatch.setattr(bracket_module._Compiler, "compile", counted_compile)
    cache_clear()  # compile afresh, so no program is taken from the cache
    assert all(res.passed for res in verify.suite_fusion(r=7))
    cube_copies = [g for g in compiles if g != cube()]
    assert len(compiles) == 4 and len(cube_copies) == 3
    assert all(compiles[g] >= 1 for g in compiles)
    cache_clear()


def test_bigon_suite_collapses_a_bigon(monkeypatch):
    # the bigon rule's factor is checked on its own, not only inside the
    # larger identities of other suites
    calls = [0]
    real = bracket_module._Compiler._collapse_bigon

    def counted(compiler, face):
        calls[0] += 1
        return real(compiler, face)

    monkeypatch.setattr(bracket_module._Compiler, "_collapse_bigon", counted)
    cache_clear()  # compile afresh, so no program is taken from the cache
    assert all(res.passed for res in verify.run_suite("bigon"))
    assert calls[0] >= 1
    cache_clear()


def test_input_validation():
    with pytest.raises(NotTrivalent):
        bracket(square_pyramid(), (2,) * 8, 7)
    with pytest.raises(ValueError):
        bracket(tetrahedron(), (2, 2, 2), 7)
    with pytest.raises(ValueError):
        bracket(tetrahedron(), (2, 2, 2, 2, 2, 3), 7)


def test_shape_cache_cleared_and_invisible():
    canonical_signature(theta(), (2, 2, 2))
    assert canonical_labelings.cache_info().currsize > 0
    cache_clear()
    assert canonical_labelings.cache_info().currsize == 0

    def values():
        # a private memo each time, so every call runs the full reduction
        b = bracket(cube(), (2,) * 12, 7, memo={})
        y = yokota_ext(square_pyramid(), (2,) * 8, 7, memo={})
        return (b.m, b.e, b.q, y.m, y.e, y.q)

    cold = values()
    assert canonical_labelings.cache_info().hits > 0
    warm = values()
    # push every shape seen so far out of the cache: distinct graphs
    # (a theta plus k isolated vertices) beyond the cache's maxsize
    maxsize = canonical_labelings.cache_info().maxsize
    for k in range(maxsize + 1):
        canonical_signature(PlanarGraph(2 + k, theta().edges, theta().rot + ((),) * k))
    assert canonical_labelings.cache_info().currsize == maxsize
    evicted = values()
    assert cold == warm == evicted
    cache_clear()


def test_genus_cached_and_nonplanar_still_rejected():
    # the theta graph with one rotation reversed embeds in the torus
    torus = PlanarGraph(2, theta().edges, ((0, 2, 4), (1, 3, 5)))
    cache_clear()
    for _ in range(2):
        with pytest.raises(NotPlanar):
            bracket(torus, (2, 2, 2), 7, memo={})
    assert genus.cache_info().hits > 0
    assert genus(torus) == 1 and genus(theta()) == 0
    cache_clear()
    assert genus.cache_info().currsize == 0


def test_numpy_integer_coloring_is_accepted():
    from skeinvol.yokota import yokota_ext

    memo = {}
    got = bracket(tetrahedron(), np.full(6, 2), 5, memo=memo)
    want = bracket(tetrahedron(), (2,) * 6, 5, memo={})
    assert (got.m, got.e, got.q) == (want.m, want.e, want.q)
    y = yokota_ext(square_pyramid(), np.full(8, 2), 7, memo=memo)
    y_want = yokota_ext(square_pyramid(), (2,) * 8, 7, memo={})
    assert (y.m, y.e, y.q) == (y_want.m, y_want.e, y_want.q)

    def ints(x):
        if isinstance(x, tuple):
            return all(ints(v) for v in x)
        return type(x) in (int, bool)

    assert memo and all(ints(key) for key in memo)  # memo keys hold Python ints
    for bad in [(2.0,) * 6, (2,) * 5 + (3,), (2,) * 5 + (-2,)]:
        with pytest.raises(ValueError, match="is not a color at level 5"):
            bracket(tetrahedron(), bad, 5)

"""Recursive evaluation of colored trivalent graphs in the disc."""

import math

import pytest

from skeinvol.bracket import bracket, bracket_distribution, cache_clear
from skeinvol.errors import NotTrivalent
from skeinvol.planar import (
    PlanarGraph,
    canonical_labelings,
    canonical_signature,
    circle,
    cube,
    square_pyramid,
    tetrahedron,
    theta,
    triangular_prism,
)
from skeinvol.qnum import (
    Level,
    circle_weight,
    fusion_colors,
    kirby_norm,
    quantum_integer,
    sixj,
)
from skeinvol.yokota import yokota_ext

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
    want = sixj(2, 2, 2, 2, 2, 2, 5).to_complex()
    assert abs(got - want) < 1e-10
    assert abs(got - (-2.618033988749895)) < 1e-10
    for col in [(2, 2, 2, 4, 4, 4), (4, 2, 2, 2, 4, 4), (6, 4, 2, 4, 2, 6)]:
        got = bracket(tetrahedron(), col, 9).to_complex()
        want = sixj(*(col[s] for s in TET_SLOTS), 9).to_complex()
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_tet_shortcut_agrees_with_full_reduction():
    for col in [(2,) * 6, (2, 2, 2, 4, 4, 4), (0, 4, 4, 4, 4, 0)]:
        fast = bracket(tetrahedron(), col, 7, base_tet=True).to_complex()
        slow = bracket(tetrahedron(), col, 7, base_tet=False).to_complex()
        assert abs(fast - slow) < 1e-10 * max(1.0, abs(fast))


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
    assert bracket(tetrahedron(), (0, 2, 4, 2, 4, 2), 7, base_tet=False).is_zero()


def test_seed_independence():
    base = bracket(triangular_prism(), (2,) * 9, 7, base_tet=False, seed=0).to_complex()
    for seed in (1, 7, 123):
        got = bracket(triangular_prism(), (2,) * 9, 7, base_tet=False, seed=seed).to_complex()
        assert abs(got - base) < 1e-10 * max(1.0, abs(base))


def test_input_validation():
    with pytest.raises(NotTrivalent):
        bracket(square_pyramid(), (2,) * 8, 7)
    with pytest.raises(ValueError):
        bracket(tetrahedron(), (2, 2, 2), 7)
    with pytest.raises(ValueError):
        bracket(tetrahedron(), (2, 2, 2, 2, 2, 3), 7)


def test_unknot_distribution_collapses():
    dist = bracket_distribution(circle(), (0,), 0, 5)
    assert dist.colors == (0, 2)
    got = dist.kirby_sum().to_complex()
    assert abs(got - kirby_norm(5)) < 1e-12


def test_theta_distribution():
    dist = bracket_distribution(theta(), (0, 2, 2), 0, 7)
    assert dist.colors == fusion_colors(2, 2, 7)
    for v in dist.values:
        assert abs(v.to_complex() - 1.0) < 1e-12


def test_shape_cache_cleared_and_invisible():
    canonical_signature(theta(), (2, 2, 2))
    assert canonical_labelings.cache_info().currsize > 0
    cache_clear()
    assert canonical_labelings.cache_info().currsize == 0

    def values():
        # a private memo each time, so every call runs the full reduction
        b = bracket(cube(), (2,) * 12, 7, memo={})
        y = yokota_ext(square_pyramid(), (2,) * 8, 7, memo={})
        return (b.m, b.e, y.m, y.e)

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

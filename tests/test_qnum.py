"""Quantum integers, factorials, theta/vertex weights, and the 6j-symbol."""

import functools
import gc
import itertools
import math
import random

import mpmath as mp
import numpy as np
import pytest

from skeinvol.extscalar import ExtScalar
from skeinvol.qnum import (
    SIXJ_SYMMETRIES,
    Level,
    MpFactorials,
    _canonical_sixtuple,
    _sixj_mp,
    _vertex_triples,
    admissible_triples,
    circle_weight,
    fusion_colors,
    is_admissible_sixtuple,
    is_admissible_triple,
    kirby_norm,
    loop_weight,
    quantum_integer,
    sixj,
    sixj_info,
    theta_weight,
    vertex_weight,
)
from skeinvol.scans import batch_sixj, sixtuple_chunks


def test_level_construction():
    lv = Level.of(7)
    assert lv.r == 7
    assert lv.colors == (0, 2, 4)
    assert Level.of(7) is lv  # cached instances
    assert Level.of(lv) is lv
    assert Level.of(3).colors == (0,)  # smallest legal level
    # 7.0 hashes like the cached 7, but is not a level
    for bad in (4, -1, 0, 7.0):
        with pytest.raises(ValueError):
            Level.of(bad)
    # a numpy integer on a cold level is the level of the equal int
    assert Level.of(np.int64(997)) is Level.of(997)


def live_levels(rs):
    """The Level objects of the levels rs that are still reachable."""
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, Level) and o.r in rs]


def test_level_of_keeps_the_16_most_recent_levels():
    rs = range(3001, 3081, 2)  # 40 levels no other test asks for
    for r in rs:
        Level.of(r).circle_logs  # a weight table lives and dies with its level
    assert sorted(lv.r for lv in live_levels(rs)) == list(rs[-16:])


@pytest.mark.parametrize("r", [5, 7, 9, 13])
def test_quantum_integer_values(r):
    x = 2.0 * math.pi / r
    assert quantum_integer(0, r) == 0.0
    assert abs(quantum_integer(1, r) - 1.0) < 1e-15
    assert abs(quantum_integer(2, r) - 2.0 * math.cos(x)) < 1e-14
    for n in range(1, r):
        want = math.sin(n * x) / math.sin(x)
        assert abs(quantum_integer(n, r) - want) < 1e-12


def test_quantum_integer_sign_window():
    # [n] < 0 exactly for r/2 < n < r
    r = 9
    for n in range(1, r):
        q = quantum_integer(n, r)
        if r / 2 < n < r:
            assert q < 0
        else:
            assert q > 0


def _direct_factorial(k, r):
    """([k]! < 0, log |[k]!|) from a direct product of quantum integers."""
    qs = [quantum_integer(n, r) for n in range(1, k + 1)]
    return sum(q < 0 for q in qs) % 2 == 1, math.fsum(math.log(abs(q)) for q in qs)


def test_quantum_factorial_signs_and_logs():
    r = 9
    lv = Level.of(r)
    # sign([k]!) = (-1)^max(0, k-(r-1)/2)
    for k in range(0, r - 1):
        assert lv.fneg[k] == (max(0, k - (r - 1) // 2) % 2 == 1)
        negative, direct = _direct_factorial(k, r)
        assert lv.fneg[k] == negative
        assert abs(lv.lf[k] - direct) < 1e-12


@pytest.mark.parametrize("r", [3, 5, 9, 31, 101])
def test_level_numpy_tables_match_factorials(r):
    # lf and fneg, the factorial table, against direct products of [n]
    lv = Level.of(r)
    assert lv.lf.shape == lv.fneg.shape == (r,)
    for k in range(r):
        negative, direct = _direct_factorial(k, r)
        assert lv.fneg[k] == negative
        assert abs(lv.lf[k] - direct) < 1e-12 * max(1.0, abs(direct))


def test_circle_and_loop_weights():
    r = 7
    for n in (0, 2, 4):
        assert abs(circle_weight(n, r) - (-1.0) ** n * quantum_integer(n + 1, r)) < 1e-14
        assert abs(loop_weight(n, r) + circle_weight(n, r)) < 1e-15
    assert circle_weight(0, r) == 1.0
    # a negative circle weight appears once the color passes the sign window
    assert circle_weight(4, 7) < 0


@pytest.mark.parametrize("r", [3, 7, 101, 321])
def test_circle_logs_is_circle_weight(r):
    # the Delta table of yokota's sums and the float wheel is circle_weight's
    # sign and log, bit for bit
    lv = Level.of(r)
    for c in lv.colors:
        negative, lg = lv.circle_logs[c]
        assert (-1 if negative else 1) == (1 if circle_weight(c, r) > 0 else -1)
        assert lg == math.log(abs(circle_weight(c, r)))


def test_admissibility_rules():
    r = 9
    assert is_admissible_triple(2, 2, 4, r)
    assert not is_admissible_triple(2, 2, 6, r)  # violates triangle inequality
    assert is_admissible_triple(6, 6, 2, r)  # sum 14 sits exactly on the 2r-4 bound
    assert not is_admissible_triple(6, 6, 4, r)  # sum exceeds 2r-4
    assert is_admissible_triple(0, 4, 4, r)
    assert len(admissible_triples(7)) == 14
    assert all(is_admissible_triple(*t, 7) for t in admissible_triples(7))
    assert fusion_colors(2, 2, 7) == (0, 2, 4)
    assert fusion_colors(4, 4, 7) == (0, 2)  # (4,4,4) breaks the level bound at r=7


def test_admissibility_interval_matches_brute_force():
    for r in range(3, 62, 2):
        colors = Level.of(r).colors
        brute = [t for t in itertools.product(colors, repeat=3) if is_admissible_triple(*t, r)]
        assert admissible_triples(r) == brute  # same triples, same order
        # odd, negative and too-large inputs give no colors
        for a, b in itertools.product(range(-2, r + 1), repeat=2):
            want = tuple(c for c in colors if is_admissible_triple(a, b, c, r))
            assert fusion_colors(a, b, r) == want


def test_theta_weight_values():
    # Theta(a,b,c) = (-1)^S [S+1]! / ([S-a]! [S-b]! [S-c]!), S = (a+b+c)/2
    assert abs(theta_weight(0, 0, 0, 5) - 1.0) < 1e-15
    r, (a, b, c) = 7, (2, 2, 2)
    s = (a + b + c) // 2

    def fact(k):
        return math.prod(quantum_integer(n, r) for n in range(1, k + 1))

    val = (-1.0) ** s * fact(s + 1) / (fact(s - a) * fact(s - b) * fact(s - c))
    assert abs(theta_weight(a, b, c, r) - val) < 1e-12
    # theta of a color with its dual pairing can be negative
    assert theta_weight(2, 2, 2, 5) < 0


def test_vertex_weight_branch():
    # vertex weight is Theta^(-1/2); negative thetas take the -i branch,
    # so the square always lands back on 1/Theta exactly
    for r, triple in [(5, (2, 2, 2)), (7, (2, 2, 2)), (7, (4, 4, 2)), (9, (4, 4, 4))]:
        th = theta_weight(*triple, r)
        w = vertex_weight(*triple, r)
        sq = (w * w).to_complex()
        assert abs(sq * th - 1.0) < 1e-12
        if th < 0:
            assert abs(sq.real) < 1e-15 or sq.real < 0  # imaginary or negative branch


def test_sixj_pinned_values():
    v = sixj(2, 2, 2, 2, 2, 2, 5).to_complex()
    assert abs(v - (-2.618033988749895)) < 1e-6
    assert abs(sixj(0, 0, 0, 0, 0, 0, 5).to_complex() - 1.0) < 1e-15
    assert sixj(2, 0, 0, 0, 0, 0, 5).is_zero()


def test_sixj_info_diagnostics():
    info = sixj_info(2, 2, 2, 2, 2, 2, 7)
    assert info["admissible"]
    assert info["terms"] >= 1
    assert info["cancel_digits"] >= 0.0
    assert isinstance(info["used_mp"], bool)
    bad = sixj_info(2, 0, 0, 0, 0, 0, 7)
    assert not bad["admissible"]
    assert bad["value"].is_zero()


def test_sixj_escalates_at_r_plus_64_bits(monkeypatch):
    # this tuple loses 8.9 digits in doubles, so it escalates, at
    # r + 64 = 165 bits, to the value a 512-bit evaluation gives
    t, r = (14, 30, 30, 66, 84, 84), 101
    lv = Level.of(r)
    monkeypatch.setattr(lv, "_sixj_cache", {})
    base = sixj_info(*t, lv)
    assert base["used_mp"] and base["prec_bits"] == 165
    wide = _sixj_mp(t, lv, 512)
    assert wide.log_abs() == pytest.approx(base["value"].log_abs(), rel=1e-12)
    assert wide.to_complex() == pytest.approx(base["value"].to_complex(), rel=1e-12)


def test_sixj_info_keeps_8_digits_or_escalates(monkeypatch):
    # every cover tuple whose doubles lose 5 digits or more: a float value
    # sixj_info keeps is within 1e-8 of log |6j| at r + 200 bits, and an
    # escalated one is _sixj_mp's at r + 64 bits, exact zeros included
    kept = zeros = 0
    for r in (45, 61):
        lv = Level.of(r)
        monkeypatch.setattr(lv, "_sixj_cache", {})
        for tup in sixtuple_chunks(lv):
            hard = batch_sixj(lv, *tup)["cancel"] >= 5
            for t in zip(*(x[hard].tolist() for x in tup)):
                got, key = sixj_info(*t, lv), _canonical_sixtuple(t)
                v = got["value"]
                if got["used_mp"]:
                    want = _sixj_mp(key, lv, r + 64)
                    assert (v.m, v.e, v.q) == (want.m, want.e, want.q), (r, t)
                    zeros += v.is_zero()
                else:
                    want = _sixj_mp(key, lv, r + 200)
                    assert (v.m > 0, v.q) == (want.m > 0, want.q), (r, t)
                    assert abs(v.log_abs() - want.log_abs()) <= 1e-8, (r, t)
                    kept += 1
    assert sixj(6, 8, 8, 14, 16, 18, 45).is_zero()
    assert kept >= 1 and zeros >= 1


@pytest.mark.parametrize("t, r", [
    ((6, 8, 8, 14, 16, 18), 45),
    ((6, 26, 26, 14, 34, 36), 45),
    ((6, 14, 14, 24, 28, 30), 75),
])
def test_sixj_exactly_zero_after_escalation(monkeypatch, t, r):
    # exactly 0 (the cyclotomic square vanishes); doubles lose every
    # digit, and the mp z-sum lands within its truncation bound of 0
    lv = Level.of(r)
    monkeypatch.setattr(lv, "_sixj_cache", {})
    info = sixj_info(*t, lv)
    assert info["used_mp"]
    assert info["value"].is_zero()


def test_mp_zsum_floors_an_exact_zero_to_a_zero_pair():
    t, r = (6, 8, 8, 14, 16, 18), 45
    assert Level.of(r).mp_factorials(r + 64).zsum(t) == (0, 0)


@pytest.mark.parametrize("r, prec", [(5, 69), (101, 458), (141, 1076)])
def test_mp_tables_enter_mpmath_once(monkeypatch, r, prec):
    # the tables are built in integers from the rotation recurrence, so
    # mpmath is entered once, for cos and sin of 2 pi / r at G = P + 40
    # bits, and no entry is an mpf
    entered = []
    real = mp.workprec
    monkeypatch.setattr(mp, "workprec", lambda bits: entered.append(bits) or real(bits))
    tab = MpFactorials(r, prec)
    assert entered == [tab.bits + 40] == [prec + 72]
    assert all(type(x) is int for table in (tab._fm, tab._fe, tab._im, tab._ie) for x in table)


def reference_sixj_mp(t, lv, prec):
    """_sixj_mp as the mpf formula it once was: the z-sum and the four
    Theta as mpfs at prec bits, one square root per vertex and the
    magnitude multiplied out before its log."""
    tab = lv.mp_factorials(prec)
    fm, fe, im, ie, p = tab._fm, tab._fe, tab._im, tab._ie, tab.bits
    with mp.workprec(prec):
        zsum = mp.mpf(tab.zsum(t))
        quad = 0
        prefmag = mp.mpf(1)
        for a, b, c in _vertex_triples(t):
            s = (a + b + c) // 2
            m = fm[s + 1] * im[s - a] >> p
            m = m * im[s - b] >> p
            m = m * im[s - c] >> p
            e = fe[s + 1] + ie[s - a] + ie[s - b] + ie[s - c] + 3 * p
            th = mp.mpf((-m if s & 1 else m, e))
            if th < 0:
                quad += 1
            prefmag /= mp.sqrt(abs(th))
        mag = abs(zsum) * prefmag
        if mag == 0:
            return ExtScalar()
        lg = float(mp.log(mag))
        sign = 1 if zsum > 0 else -1
    return ExtScalar.from_log(lg, sign=sign, quadrant=quad)


def cover_sample(seed, n):
    """n distinct seeded (r, t): a random admissible symbol at a random
    odd r in 21 .. 201, as its canonical 6-tuple, the form sixj_info
    passes to _sixj_mp, which lies in the restricted cover of
    scans.sixtuple_chunks."""
    rng = random.Random(seed)
    out = set()
    while len(out) < n:
        r = rng.randrange(21, 202, 2)
        n1, n2, n4 = (rng.randrange(0, r - 2, 2) for _ in range(3))
        n3s = fusion_colors(n1, n2, r)
        n3 = rng.choice(n3s) if n3s else None
        n5s = fusion_colors(n3, n4, r) if n3s else ()
        n5 = rng.choice(n5s) if n5s else None
        n6s = sorted(set(fusion_colors(n1, n5, r)) & set(fusion_colors(n2, n4, r))) if n5s else ()
        if n6s:
            out.add((r, _canonical_sixtuple((n1, n2, n3, n4, n5, rng.choice(n6s)))))
    return sorted(out)  # level by level


@functools.cache
def sixj_mp_cases():
    # the sample, then the exact zeros and the escalation tuple of the
    # tests above
    return cover_sample(2025, 10_000) + [
        (45, (6, 8, 8, 14, 16, 18)), (45, (6, 26, 26, 14, 34, 36)),
        (75, (6, 14, 14, 24, 28, 30)), (101, (14, 30, 30, 66, 84, 84)),
    ]


@pytest.mark.parametrize("bits", ["r + 64", "2r + 256", "1024"])
def test_sixj_mp_matches_the_mpf_formula_bit_for_bit(bits):
    # one fixed-point product and one log give the bits of the per-vertex
    # square roots and mpf products, at the escalation floor and above
    zeros = 0
    for r, t in sixj_mp_cases():
        prec = {"r + 64": r + 64, "2r + 256": 2 * r + 256, "1024": 1024}[bits]
        lv = Level.of(r)
        got, want = _sixj_mp(t, lv, prec), reference_sixj_mp(t, lv, prec)
        assert (got.m, got.e, got.q) == (want.m, want.e, want.q), (r, t, prec)
        zeros += got.is_zero()
    assert zeros >= 3


@pytest.mark.parametrize("r", [5, 191, 871])
def test_quantum_factorial_reads_the_level_table(r):
    # one factorial table per level: the float theta is read off the numpy
    # table's entries, also at levels where np.log and math.log round apart
    lv = Level.of(r)
    lf, fneg = lv.lf, lv.fneg
    colors = lv.colors
    # (0, c, c) and (2, c, c) read every entry of the table
    triples = [(0, c, c) for c in colors] + [(2, c, c) for c in colors[1:]]
    triples += [(a, b, c) for a in colors[::17] for b in colors[::13]
                for c in fusion_colors(a, b, lv)[::11]]
    for a, b, c in triples:
        s = (a + b + c) // 2
        negative, lg = lv.theta(a, b, c)
        assert negative == bool(fneg[s + 1] ^ fneg[s - a] ^ fneg[s - b] ^ fneg[s - c] ^ (s % 2))
        assert lg == lf[s + 1] - ((lf[s - a] + lf[s - b]) + lf[s - c])


def test_sixj_agrees_with_sixj_info_cold_and_warm(monkeypatch):
    # sixj answers a repeated tuple from one lookup; its value stays the
    # one sixj_info gives, for every image of a symbol and for
    # inadmissible tuples, whichever of the two fills the cache first
    lv = Level.of(11)
    # a float is no color even where an equal int tuple is cached
    base = [(2, 4, 4, 6, 4, 4), (0, 4, 4, 6, 6, 2), (8, 8, 8, 8, 8, 8), (2, 4, 8, 2, 2, 2),
            (2, 2, 2, 2, 2, 2), (2.0, 2, 2, 2, 2, 2)]
    tuples = [tuple(t[i] for i in g) for t in base for g in SIXJ_SYMMETRIES[::5]]
    assert not is_admissible_sixtuple(base[3], lv)
    assert not is_admissible_sixtuple(base[5], lv)
    for first in (sixj, sixj_info):
        monkeypatch.setattr(lv, "_sixj_cache", {})
        for t in tuples:
            for _ in range(2):  # cold, then warm
                if first is sixj:
                    a = sixj(*t, lv)
                    b = sixj_info(*t, lv)["value"]
                else:
                    b = sixj_info(*t, lv)["value"]
                    a = sixj(*t, lv)
                assert (a.m, a.e, a.q) == (b.m, b.e, b.q), t
    for t in base[3], base[5]:
        assert sixj(*t, lv).is_zero()
        assert not sixj_info(*t, lv)["admissible"]


def test_sixj_cache_stays_bounded(monkeypatch):
    import skeinvol.qnum as qnum

    lv = Level.of(9)
    monkeypatch.setattr(lv, "_sixj_cache", {})
    monkeypatch.setattr(qnum, "_SIXJ_CACHE_MAX", 4)
    for t in itertools.permutations((2, 2, 4, 4, 2, 2)):
        sixj(*t, lv)
        assert len(lv._sixj_cache) <= 4


def test_sixj_symmetries_sample():
    # column permutations and double flips must hit the same cached value
    base = sixj(0, 2, 2, 4, 2, 2, 9).to_complex()
    for img in [
        (0, 2, 2, 4, 2, 2),
        (2, 0, 2, 2, 4, 2),   # swap first two columns
        (2, 2, 0, 2, 2, 4),   # rotate columns
        (4, 2, 2, 0, 2, 2),   # flip columns 1 and 2
    ]:
        assert abs(sixj(*img, 9).to_complex() - base) < 1e-14


def test_symmetry_table_is_the_tetrahedral_group():
    group = set(SIXJ_SYMMETRIES)
    assert len(SIXJ_SYMMETRIES) == len(group) == 24
    assert SIXJ_SYMMETRIES[0] == tuple(range(6))
    for g, h in itertools.product(SIXJ_SYMMETRIES, repeat=2):
        assert tuple(g[i] for i in h) in group
    # opposite edges stay opposite: slots k and k+3 map to one column pair
    for g in SIXJ_SYMMETRIES:
        assert all(abs(g[k] - g[k + 3]) == 3 for k in range(3))


def test_canonical_sixtuple_is_orbit_minimum():
    t = (0, 2, 4, 6, 8, 10)
    orbit = {tuple(t[i] for i in g) for g in SIXJ_SYMMETRIES}
    assert len(orbit) == 24
    assert all(_canonical_sixtuple(img) == min(orbit) for img in orbit)
    assert _canonical_sixtuple((4, 2, 2, 0, 2, 2)) == (0, 2, 2, 4, 2, 2)


def test_sixj_admissible_iff_nonzero_prefactor():
    assert is_admissible_sixtuple((2, 2, 2, 2, 2, 2), 7)
    assert not is_admissible_sixtuple((2, 0, 0, 0, 0, 0), 7)


def test_kirby_norm_identity():
    for r in (5, 7, 9, 31):
        total = math.fsum(circle_weight(i, r) ** 2 for i in range(0, r - 2, 2))
        want = r / (4.0 * math.sin(2.0 * math.pi / r) ** 2)
        assert abs(kirby_norm(r) - want) < 1e-12 * want
        assert abs(total - want) < 1e-12 * want


def test_numpy_integer_colors_are_colors():
    lv = Level.of(5)
    lv._sixj_cache.clear()
    got = sixj(*np.full(6, 2), lv)
    want = sixj(2, 2, 2, 2, 2, 2, lv)
    assert (got.m, got.e, got.q) == (want.m, want.e, want.q)
    assert abs(got.to_float() + 2.618033988749895) < 1e-12
    assert sixj_info(*np.full(6, 2, dtype=np.int32), lv)["admissible"]
    assert is_admissible_triple(np.int64(2), 2, 2, 5)
    assert fusion_colors(np.int64(2), np.int16(2), 7) == (0, 2, 4)
    assert all(type(c) is int for c in fusion_colors(np.int64(2), 2, 7))
    # the caches hold Python ints whatever the caller passed
    assert all(type(c) is int for key in lv._sixj_cache for c in key)
    # a float is not a color, even an integral one
    assert not is_admissible_triple(2.0, 2, 2, 5)
    assert fusion_colors(2.0, 2, 7) == ()
    assert not sixj_info(2, 2, 2, 2, 2, 2.0, 5)["admissible"]
    # on a cold cache a float tuple gives 0 and leaves no entry that a
    # later call with the equal ints would hit
    lv._sixj_cache.clear()
    assert sixj(2.0, 2, 2, 2, 2, 2, lv).is_zero()
    assert sixj(2, 2, 2, 2, 2, 2, lv).to_float() == want.to_float()

"""Vectorized level scans: batch symbols, bounds, and record builders."""

import itertools
import math
import multiprocessing
import os
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import skeinvol.scans as scans
from skeinvol.errors import BudgetExceeded
from skeinvol.hypvol import V8, records_to_csv
from skeinvol.planar import tetrahedron, wheel
from skeinvol.qnum import Level, MpFactorials, is_admissible_sixtuple, is_admissible_triple, sixj
from skeinvol.scans import (
    LevelTables,
    ScanRecord,
    appendix_colors,
    appendix_record,
    batch_sixj,
    bound_record,
    family_record,
    maximizer_record,
    orbit_representatives,
    round_even_color,
    run_levels,
    sixtuple_chunks,
    tv_tet_record,
    wheel_log_invariant,
    wheel_log_invariant_mp,
)
from skeinvol.yokota import maximizing_color, tv_graph, yokota

COLUMN_PAIRS = ((0, 3), (1, 4), (2, 5))


def all_admissible_sixtuples(r):
    lv = Level(r)
    return [t for t in itertools.product(lv.colors, repeat=6) if is_admissible_sixtuple(t, r)]


def symbol_images(t):
    """The symmetry orbit: permute columns, flip an even number of them."""
    out = set()
    cols = [(t[i], t[j]) for i, j in COLUMN_PAIRS]
    for perm in itertools.permutations(range(3)):
        pc = [cols[p] for p in perm]
        for flips in ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)):
            cc = [(c[::-1] if f else c) for c, f in zip(pc, flips)]
            out.add((cc[0][0], cc[1][0], cc[2][0], cc[0][1], cc[1][1], cc[2][1]))
    return out


def test_batch_matches_scalar_engine():
    r = 9
    tuples = all_admissible_sixtuples(r)
    tab = LevelTables(r)
    cols = [np.array([t[k] for t in tuples]) for k in range(6)]
    d = batch_sixj(tab, *cols)
    worst = 0.0
    for i, t in enumerate(tuples):
        got = d["sign"][i] * math.exp(d["log"][i]) * (-1j) ** (int(d["quad"][i]) % 4)
        want = sixj(*t, r).to_complex()
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst < 1e-10


# The two-pass kernel that the sorted one replaced, kept as the reference:
# every chunk padded to its longest z-range, each term's log computed once
# for the maximum and again for the sum, signs as int64 products.


def _sixj_indices_reference(a, b, c, d, e, f):
    t = (
        (a + b + c) >> 1,
        (a + e + f) >> 1,
        (b + d + f) >> 1,
        (c + d + e) >> 1,
    )
    q = (
        (a + b + d + e) >> 1,
        (a + c + d + f) >> 1,
        (b + c + e + f) >> 1,
    )
    return t, q


def _theta_logsign_reference(tab, a, b, c):
    s = (a + b + c) >> 1
    lg = tab.lf[s + 1] - tab.lf[s - a] - tab.lf[s - b] - tab.lf[s - c]
    sg = tab.sf[s + 1] * tab.sf[s - a] * tab.sf[s - b] * tab.sf[s - c]
    sg = np.where(s % 2 == 0, sg, -sg)
    return lg, sg


def _batch_sixj_reference(tab, a, b, c, d, e, f):
    a, b, c, d, e, f = (np.asarray(x, dtype=np.int64) for x in (a, b, c, d, e, f))
    n = a.shape[0]
    if n == 0:
        z = np.zeros(0)
        return {"log": z, "sign": z.copy(), "quad": z.astype(np.int64),
                "cancel": z.copy(), "log_ub": z.copy()}
    t, q = _sixj_indices_reference(a, b, c, d, e, f)
    zlo = np.maximum.reduce(t)
    zhi = np.minimum(np.minimum.reduce(q), tab.r - 2)
    nz = zhi - zlo  # >= 0 on admissible tuples
    lf, sf = tab.lf, tab.sf

    def term_log(z):
        out = lf[z + 1].copy()
        for ti in t:
            out -= lf[z - ti]
        for qj in q:
            out -= lf[qj - z]
        return out

    kmax = int(nz.max())
    mlog = np.full(n, -np.inf)
    for k in range(kmax + 1):
        z = np.minimum(zlo + k, zhi)
        tl = term_log(z)
        np.maximum(mlog, np.where(k <= nz, tl, -np.inf), out=mlog)

    acc = np.zeros(n)
    absacc = np.zeros(n)
    for k in range(kmax + 1):
        z = np.minimum(zlo + k, zhi)
        tl = term_log(z)
        sg = sf[z + 1] * np.where(z % 2 == 0, 1, -1)
        for ti in t:
            sg = sg * sf[z - ti]
        for qj in q:
            sg = sg * sf[qj - z]
        mag = np.where(k <= nz, np.exp(tl - mlog), 0.0)
        acc += sg * mag
        absacc += mag

    preflog = np.zeros(n)
    quad = np.zeros(n, dtype=np.int64)
    for tri in ((a, b, c), (a, e, f), (b, d, f), (c, d, e)):
        lg, sg = _theta_logsign_reference(tab, *tri)
        preflog -= 0.5 * lg
        quad += sg < 0

    with np.errstate(divide="ignore", invalid="ignore"):
        log = np.where(acc == 0.0, -np.inf, preflog + mlog + np.log(np.abs(acc)))
        log_ub = preflog + mlog + np.log(absacc)
        cancel = np.where(
            acc != 0.0,
            np.log10(np.maximum(absacc / np.abs(np.where(acc == 0.0, 1.0, acc)), 1.0)),
            np.inf,
        )
    return {"log": log, "sign": np.sign(acc), "quad": quad, "cancel": cancel,
            "log_ub": log_ub}


def assert_same_bits(got, want):
    assert got.keys() == want.keys() == {"log", "sign", "quad", "cancel", "log_ub"}
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert got[key].shape == want[key].shape, key
        assert np.array_equal(got[key], want[key]), key
        assert got[key].tobytes() == want[key].tobytes(), key


def test_batch_bit_identical_to_reference_on_chunks():
    for r in range(5, 33, 2):
        tab = LevelTables(r)
        for restrict in (True, False):
            for tup in sixtuple_chunks(tab, restrict=restrict):
                assert_same_bits(batch_sixj(tab, *tup), _batch_sixj_reference(tab, *tup))


def test_batch_bit_identical_to_reference_shuffled_and_degenerate():
    tab = LevelTables(31)
    tup = next(sixtuple_chunks(tab, restrict=False))
    perm = np.random.default_rng(20261018).permutation(tup[0].size)
    shuffled = tuple(x[perm] for x in tup)
    assert_same_bits(batch_sixj(tab, *shuffled), _batch_sixj_reference(tab, *shuffled))
    # every z-sum a single term
    t, q = _sixj_indices_reference(*tup)
    single = np.maximum.reduce(t) == np.minimum(np.minimum.reduce(q), tab.r - 2)
    assert 0 < single.sum() < single.size
    ones = tuple(x[single] for x in tup)
    assert_same_bits(batch_sixj(tab, *ones), _batch_sixj_reference(tab, *ones))
    empty = (np.zeros(0, dtype=np.int64),) * 6
    assert_same_bits(batch_sixj(tab, *empty), _batch_sixj_reference(tab, *empty))


def test_batch_bit_identical_to_reference_on_wheel_calls(monkeypatch):
    calls = []

    def recording(tab, *cols):
        calls.append((tab, cols))
        return batch_sixj(tab, *cols)

    monkeypatch.setattr(scans, "batch_sixj", recording)
    r = 101
    for kind in ("sq-ideal", "sq-zero", "pent-ideal", "pent-zero"):
        s, b = appendix_colors(kind, r)
        try:
            scans.wheel_log_invariant(r, 5 if kind.startswith("pent") else 4, s, b)
        except ValueError:
            pass  # a float sum that vanishes still made its calls
    assert len(calls) == 6  # u for each kind, w for the two pentagonal ones
    for tab, cols in calls:
        assert_same_bits(batch_sixj(tab, *cols), _batch_sixj_reference(tab, *cols))


def test_chunks_enumerate_all_tuples():
    r = 9
    tab = LevelTables(r)
    seen = set()
    for block in sixtuple_chunks(tab, restrict=False):
        for row in zip(*[np.asarray(x).tolist() for x in block]):
            seen.add(tuple(row))
    assert seen == set(all_admissible_sixtuples(r))
    assert len(seen) == 414


def test_restricted_chunks_cover_all_classes():
    r = 9
    tab = LevelTables(r)
    restricted = set()
    for block in sixtuple_chunks(tab, restrict=True):
        for row in zip(*[np.asarray(x).tolist() for x in block]):
            restricted.add(tuple(row))
    full = set(all_admissible_sixtuples(r))
    assert restricted <= full
    assert len(restricted) < len(full)
    canon = lambda t: min(symbol_images(t))
    assert {canon(t) for t in restricted} == {canon(t) for t in full}


# The mask enumerator that the interval one replaced, kept verbatim as the
# reference: a K x K boolean mask per (a, d, row block) of admissible
# (b, c) pairs against (e, f) pairs, read out with np.nonzero.


def _adm_stack_reference(tab):
    """adm[ta, tb, tc] over color indices (color = 2 * index)."""
    idx = np.arange(tab.m)
    return tab.admissible3(
        2 * idx[:, None, None], 2 * idx[None, :, None], 2 * idx[None, None, :]
    )


def _sixtuple_chunks_reference(tab, *, restrict=True, chunk=200_000, budget=None):
    adm = _adm_stack_reference(tab)
    m = tab.m
    total = 0
    buf = []
    buffered = 0

    def _flush():
        nonlocal buf, buffered
        if not buf:
            return None
        out = tuple(
            np.concatenate([blk[k] for blk in buf]) for k in range(6)
        )
        buf = []
        buffered = 0
        return out

    for ta in range(m):
        lo = ta if restrict else 0
        tb_i, tc_i = np.nonzero(adm[ta, lo:, lo:])
        if tb_i.size == 0:
            continue
        tb_i = tb_i + lo
        tc_i = tc_i + lo
        kpairs = tb_i.size
        # row blocks keep the K x K boolean mask under ~8M entries
        rows = max(1, 8_000_000 // max(kpairs, 1))
        for td in range(lo, m):
            admd = adm[td]
            for r0 in range(0, kpairs, rows):
                r1 = min(r0 + rows, kpairs)
                tb_r = tb_i[r0:r1]
                tc_r = tc_i[r0:r1]
                mask = admd[tb_r[:, None], tc_i[None, :]]
                mask &= admd[tc_r[:, None], tb_i[None, :]]
                # rows are (b,c) pairs, columns are (e,f) pairs drawn
                # from the same admissible list: (b,d,f) needs
                # admd[b, f] and (c,d,e) needs admd[c, e]; f is the
                # second pair member (tc_i), e the first (tb_i)
                i1, i2 = np.nonzero(mask)
                if i1.size == 0:
                    continue
                tb = tb_r[i1]
                tc = tc_r[i1]
                te = tb_i[i2]
                tf = tc_i[i2]
                if restrict:
                    keep = tb <= tc
                    keep &= (tb < te) | ((tb == te) & (tc <= tf))
                    keep &= (tb < tf) | ((tb == tf) & (tc <= te))
                    tb, tc, te, tf = tb[keep], tc[keep], te[keep], tf[keep]
                    if tb.size == 0:
                        continue
                cnt = tb.size
                total += cnt
                if budget is not None and total > budget:
                    raise BudgetExceeded(
                        f"6-tuple enumeration passed {budget} tuples at r={tab.r}"
                    )
                blk = (
                    np.full(cnt, 2 * ta, dtype=np.int64),
                    2 * tb, 2 * tc,
                    np.full(cnt, 2 * td, dtype=np.int64),
                    2 * te, 2 * tf,
                )
                buf.append(blk)
                buffered += cnt
                if buffered >= chunk:
                    yield _flush()
    out = _flush()
    if out is not None:
        yield out


def concatenated(chunks):
    """The six columns of a chunk stream laid end to end, and the chunk sizes."""
    chunks = list(chunks)
    cols = tuple(np.concatenate([tup[k] for tup in chunks]) for k in range(6))
    return cols, [tup[0].size for tup in chunks]


def test_chunks_match_reference_in_order():
    # Chunks of 1 and 7 cost a generator step per few tuples, so they run
    # on the small levels only.
    for restrict, rmax in ((True, 49), (False, 35)):
        for r in range(5, rmax + 1, 2):
            tab = LevelTables(r)
            want, _ = concatenated(_sixtuple_chunks_reference(tab, restrict=restrict))
            for chunk in ((1, 7, 1_000, None) if r <= 21 else (1_000, None)):
                kw = {} if chunk is None else {"chunk": chunk}
                chunks = list(sixtuple_chunks(tab, restrict=restrict, **kw))
                got, sizes = concatenated(chunks)
                for x, y in zip(got, want):
                    assert x.dtype == np.int64
                    assert np.array_equal(x, y), (r, restrict, chunk)
                full = chunk or 200_000
                assert all(n == full for n in sizes[:-1])
                assert 0 < sizes[-1] <= full
                assert all(x.dtype == np.int64 for tup in chunks for x in tup)


def test_chunks_reject_empty_chunk():
    for chunk in (0, -1):
        with pytest.raises(ValueError):
            next(sixtuple_chunks(LevelTables(7), chunk=chunk))


def test_chunks_budget_edges():
    tab = LevelTables(21)
    cover = sum(tup[0].size for tup in sixtuple_chunks(tab))
    for chunk in (7, 1_000, None):
        kw = {} if chunk is None else {"chunk": chunk}
        assert sum(tup[0].size for tup in sixtuple_chunks(tab, budget=cover, **kw)) == cover
        yielded = 0
        with pytest.raises(BudgetExceeded):
            for tup in sixtuple_chunks(tab, budget=cover - 1, **kw):
                yielded += tup[0].size
        assert yielded <= cover - 1


def drain_peak(r, chunk):
    tab = LevelTables(r)
    tracemalloc.start()
    try:
        for _ in sixtuple_chunks(tab, chunk=chunk):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunks_memory_bounded_by_chunk_not_level():
    # Draining the restricted cover in chunks of 20,000 peaks at 3.8 MB at
    # r = 61 and 3.9 MB at r = 101 (34.7 M tuples); the mask enumerator
    # peaked at 5.6 and 33.4 MB.
    assert drain_peak(101, 20_000) <= 1.25 * drain_peak(61, 20_000)


def test_small_cover_allocates_small_buffers():
    # At r = 7 (m = 3) the arrays hold m**6 = 729 tuples, not the default
    # chunk of 500,000 (24.0 MB for six full-length buffers).  The peak
    # reads 0.06 MB.
    tracemalloc.start()
    try:
        tv_tet_record(7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_bound_record():
    rec, diag = bound_record(25)
    assert rec.kind == "sixj-bound"
    assert diag["bound_ok"]
    assert diag["tuples"] > 0
    assert rec.slope == pytest.approx((2 * math.pi / 25) * rec.log_value)
    assert rec.target == pytest.approx(V8)


def bound_bits(rec, diag):
    """Every field of a bound_record result, floats as their exact bits."""
    return (
        rec.log_value.hex(), rec.slope.hex(), rec.rel_gap.hex(),
        float(rec.cancel_digits).hex(), diag["tuples"], diag["rechecked"],
        diag["bound_ok"], diag["excess"].hex(), diag["threshold_log"].hex(),
    )


def test_bound_record_independent_of_chunk():
    for r in (25, 41):
        rec, diag = bound_record(r)
        small, small_diag = bound_record(r, chunk=1_000)
        assert small.log_value == rec.log_value
        assert small_diag["tuples"] == diag["tuples"]
        assert small_diag["rechecked"] == diag["rechecked"]
        # and the slope, cancel_digits, bound_ok and excess, bit for bit
        assert bound_bits(small, small_diag) == bound_bits(rec, diag)


@pytest.fixture
def forks(monkeypatch):
    """Count the os.fork calls made by this process."""
    calls = []
    real = os.fork

    def fork():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


# (level, margin): at the default margin no tuple is hot, so the merged
# candidate lists are empty; these margins put the hot tuples in the last
# two blocks of the cover (539 at r = 41, 239 at r = 49), which belong to
# different processes.
WORKER_CASES = [(25, 4.0), (41, 4.0), (49, 4.0), (41, -9.0), (49, -8.0)]


@pytest.mark.parametrize("chunk", [1_000, 200_000])
def test_bound_record_bits_independent_of_worker_count(monkeypatch, forks, chunk):
    for r, margin in WORKER_CASES:
        seen = {}
        for n in (1, 2, 3):
            monkeypatch.setattr(scans, "_cores", lambda n=n: n)
            del forks[:]
            seen[n] = bound_bits(*bound_record(r, margin=margin, chunk=chunk))
            # r = 25 (11,904 tuples) is under one block per process
            assert len(forks) == (0 if r == 25 else n - 1)
            assert multiprocessing.active_children() == []
        assert seen[2] == seen[1] and seen[3] == seen[1], (r, margin)
        if margin < 0:
            assert seen[1][5] > 0


def test_bound_record_budget_from_every_share(monkeypatch):
    cover = bound_record(49)[1]["tuples"]
    msgs = []
    for n in (1, 2, 3):
        monkeypatch.setattr(scans, "_cores", lambda n=n: n)
        with pytest.raises(BudgetExceeded) as err:
            bound_record(49, budget=cover - 1)
        assert type(err.value) is BudgetExceeded
        msgs.append(str(err.value))
        assert multiprocessing.active_children() == []
    assert msgs == [f"6-tuple enumeration passed {cover - 1} tuples at r=49"] * 3


def test_worker_error_reaches_caller(monkeypatch):
    real = scans._screen_share

    def share(tab, chunks, hot_log, share=0, nshares=1):
        if share == 2:
            raise BudgetExceeded("over budget in share 2")
        return real(tab, chunks, hot_log, share, nshares)

    monkeypatch.setattr(scans, "_screen_share", share)
    monkeypatch.setattr(scans, "_cores", lambda: 3)
    with pytest.raises(BudgetExceeded, match="over budget in share 2"):
        bound_record(49)
    assert multiprocessing.active_children() == []

    def dies(tab, chunks, hot_log, share=0, nshares=1):
        if share:
            os._exit(3)
        return real(tab, chunks, hot_log, share, nshares)

    monkeypatch.setattr(scans, "_screen_share", dies)
    with pytest.raises(RuntimeError, match="died"):
        bound_record(49)
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_a_failing_parent_share(monkeypatch):
    def share(tab, chunks, hot_log, share=0, nshares=1):
        if share == 0:
            raise BudgetExceeded("over budget in share 0")
        time.sleep(120)  # only a worker left running gets this far

    monkeypatch.setattr(scans, "_screen_share", share)
    monkeypatch.setattr(scans, "_cores", lambda: 3)
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="over budget in share 0"):
        bound_record(49)
    assert multiprocessing.active_children() == []
    assert time.perf_counter() - t0 < 60


def test_run_levels_threads_fork_nothing(monkeypatch):
    monkeypatch.setattr(scans, "_cores", lambda: 3)

    def fn(r):
        return bound_record(r)[0]

    rs = [41, 49]
    one = records_to_csv(run_levels(fn, rs, threads=1))

    def fork():
        raise AssertionError("bound_record forked off the main thread")

    monkeypatch.setattr(os, "fork", fork)
    two = records_to_csv(run_levels(fn, rs, threads=2))
    assert two == one


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_memory_bounded():
    # The largest restricted chunk at r = 65: exactly 200,000 tuples of at
    # most 8 terms (the mask enumerator's largest chunk held 214,386).  The
    # peak measures 13.4 MB, 8.0 MB of it the five output arrays; on the
    # 214,386-tuple chunk it read 14.0 MB, and the padded two-pass kernel
    # peaked at 41.1 MB there.
    tab = LevelTables(65)
    tup = max(sixtuple_chunks(tab, restrict=True), key=lambda block: block[0].size)
    assert traced_peak(batch_sixj, tab, *tup) < 1.25 * 14.0 * 2**20
    # The w_ij call of the pent-zero wheel at r = 321: 12,880 tuples of up
    # to 80 terms, 351,000 in all.  The peak measures 2.78 MB (the padded
    # kernel 2.47 MB); keeping all 351,000 terms at once took 6.5 MB.
    tab = LevelTables(321)
    s, b = appendix_colors("pent-zero", 321)
    i = tab.colors[tab.admissible3(s, s, tab.colors) & tab.admissible3(tab.colors, b, b)]
    ii, jj = np.nonzero(tab.admissible3(s, i[:, None], i[None, :]))
    cs, cb = np.full(ii.size, s), np.full(ii.size, b)
    assert ii.size == 12_880
    assert traced_peak(batch_sixj, tab, cs, i[ii], i[jj], cb, cb, cb) < 1.25 * 2.78 * 2**20


def test_maximizer_record():
    rec = maximizer_record(7)
    c = 2
    want_log = math.log(abs(sixj(c, c, c, c, c, c, 7).to_complex()))
    assert rec.log_value == pytest.approx(want_log, rel=1e-12)
    assert rec.slope == pytest.approx((2 * math.pi / 7) * want_log, rel=1e-12)
    assert rec.color_policy == "maximizer[c=2]"
    assert rec.target == pytest.approx(V8)


def test_round_even_color():
    assert round_even_color(3.0, 11) == 2  # ties break toward zero
    assert round_even_color(5.0, 11) == 4
    assert round_even_color(3.9, 11) == 4
    assert round_even_color(0.4, 11) == 0
    assert round_even_color(-1.0, 11) == 0  # clamped at the bottom
    assert round_even_color(25.0, 11) == 8  # clamped at r - 3


def test_appendix_colors():
    assert appendix_colors("sq-ideal", 101) == (26, 38)
    r = 101
    assert appendix_colors("pent-ideal", r) == (
        round_even_color(r / 5, r),
        round_even_color(2 * r / 5, r),
    )
    s, b = appendix_colors("sq-zero", r)
    assert s == b == round_even_color(r / 2, r)
    with pytest.raises(Exception):
        appendix_colors("no-such-kind", r)


def test_wheel_closed_form_against_engine():
    for n, s, b, r in [(4, 2, 4, 7), (5, 2, 2, 7), (4, 4, 4, 9)]:
        logv, sign, cancel = wheel_log_invariant(r, n, s, b)
        w = wheel(n)
        col = [s] * n + [b] * n  # spokes first, then the rim
        got = yokota(w, col, r)
        want = sign * math.exp(logv)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))
        assert cancel >= 0.0


def test_wheel_float_vs_highprec():
    for r, n, s, b in [(11, 4, 2, 4), (31, 4, 8, 12), (31, 5, 6, 12)]:
        lf, sf, _ = wheel_log_invariant(r, n, s, b)
        lm, sm, _ = wheel_log_invariant_mp(r, n, s, b)
        assert sf == sm
        assert abs(lf - lm) < 1e-9 * max(1.0, abs(lm))


def test_zero_angled_highprec_against_engine():
    # the mp closed form at the cancelling maximizer coloring, every edge c
    for r in (7, 9):
        c = maximizing_color(r)
        for n in (4, 5):
            logv, sign, _ = wheel_log_invariant_mp(r, n, c, c)
            got = yokota(wheel(n), [c] * (2 * n), r)
            want = sign * math.exp(logv)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))


# The divide-based mpf kernel that MpFactorials replaced, kept as the
# reference: [k]! accumulated in mpf, seven divisions per z-sum term.


def reference_facts(r, prec):
    with mp.workprec(prec):
        two_pi = 2 * mp.pi
        s0 = mp.sin(two_pi / r)
        facts = [mp.mpf(1)]
        for k in range(1, r):
            facts.append(facts[-1] * mp.sin(two_pi * k / r) / s0)
    return facts


def reference_zsum(t, facts, r):
    n1, n2, n3, n4, n5, n6 = t
    tvals = ((n1 + n2 + n3) // 2, (n1 + n5 + n6) // 2, (n2 + n4 + n6) // 2, (n3 + n4 + n5) // 2)
    qvals = ((n1 + n2 + n4 + n5) // 2, (n1 + n3 + n4 + n6) // 2, (n2 + n3 + n5 + n6) // 2)
    total = mp.mpf(0)
    for z in range(max(tvals), min(min(qvals), r - 2) + 1):
        term = facts[z + 1]
        for ti in tvals:
            term /= facts[z - ti]
        for qj in qvals:
            term /= facts[qj - z]
        total += -term if z % 2 else term
    return total


def reference_theta(a, b, c, facts):
    s = (a + b + c) // 2
    th = facts[s + 1] / (facts[s - a] * facts[s - b] * facts[s - c])
    return -th if s % 2 else th


def wheel_symbols(r, n_spokes, s, b):
    """The 6-tuples and theta triples the wheel closed form evaluates."""
    lv = Level.of(r)
    ilist = [i for i in lv.colors
             if is_admissible_triple(s, s, i, lv) and is_admissible_triple(i, b, b, lv)]
    sixes = [(s, s, i, b, b, b) for i in ilist]
    triples = [(s, b, b)] + [(s, s, i) for i in ilist] + [(i, b, b) for i in ilist]
    if n_spokes == 5:
        pairs = [(i, j) for ix, i in enumerate(ilist) for j in ilist[ix:]
                 if is_admissible_triple(s, i, j, lv)]
        sixes += [(s, i, j, b, b, b) for i, j in pairs]
        triples += [(s, i, j) for i, j in pairs]
    return sixes, triples


def test_fixed_point_kernel_matches_divide_reference():
    for kind, r, n_spokes in (("pent-zero", 101, 5), ("sq-zero", 141, 4)):
        s, b = appendix_colors(kind, r)
        prec = 2 * r + 256
        tab = Level.of(r).mp_factorials(prec)
        facts = reference_facts(r, prec)
        sixes, triples = wheel_symbols(r, n_spokes, s, b)
        with mp.workprec(prec):
            tol = mp.mpf(2) ** -(prec - 16)
            pairs = [(tab.zsum(t), reference_zsum(t, facts, r)) for t in sixes]
            pairs += [(tab.theta(*t), reference_theta(*t, facts)) for t in triples]
            for got, want in pairs:
                assert want != 0
                assert abs(got - want) <= tol * abs(want)


def reference_qint(k, r):
    """[k] from mp.sin at the working precision, as the wheel sum once took it."""
    return mp.sin(2 * mp.pi * k / r) / mp.sin(2 * mp.pi / r)


class ReferenceFan:
    """MpFactorials.fan with every z-sum taken by the divide reference."""

    def __init__(self, tab, s, b, facts, calls):
        self.s, self.b, self.r, self.facts, self.calls = s, b, tab.r, facts, calls

    def zsum(self, x, y):
        self.calls["fan"] += 1
        return reference_zsum((self.s, x, y, self.b, self.b, self.b), self.facts, self.r)


# (r, spokes, s, b): the two zero-angled kinds, and the maximizing color
# at small levels, where the z-ranges are short
FAN_CASES = (
    [(101, 5, *appendix_colors("pent-zero", 101)), (141, 4, *appendix_colors("sq-zero", 141))]
    + [(r, 5, maximizing_color(r), maximizing_color(r)) for r in (5, 7, 9)]
)


def test_fan_kernel_and_rotation_tables_match_divide_reference():
    # every u_i and w_ij the wheel sum takes, from the fan tables, and the
    # [k]!, 1/[k]! and [k] of the rotation recurrence, against mp.sin
    for r, n_spokes, s, b in FAN_CASES:
        prec = 2 * r + 256
        tab = MpFactorials(r, prec)
        fan = tab.fan(s, b)
        facts = reference_facts(r, prec)
        sixes, _ = wheel_symbols(r, n_spokes, s, b)
        assert all(t[0] == s and t[3:] == (b, b, b) for t in sixes)
        with mp.workprec(prec):
            tol = mp.mpf(2) ** -(prec - 16)
            pairs = [(fan.zsum(t[1], t[2]), reference_zsum(t, facts, r)) for t in sixes]
            pairs += [(mp.mpf((tab._fm[k], tab._fe[k])), facts[k]) for k in range(r)]
            pairs += [(mp.mpf((tab._im[k], tab._ie[k])), 1 / facts[k]) for k in range(r)]
            pairs += [(tab.qint(k), reference_qint(k, r)) for k in range(1, r)]
            for got, want in pairs:
                assert want != 0
                assert abs(got - want) <= tol * abs(want)


def test_rotation_recurrence_keeps_full_table_precision():
    # [k] = [k]! / [k-1]! read at the table's own P bits is within 16 units
    # of 2**-P of the exact value (it reads 4.6 at most); the recurrence's
    # 40 guard bits are what keep it there: without them it is off by
    # 650 to 1,060 units at these levels.
    for r in (101, 141, 321):
        tab = MpFactorials(r, 2 * r + 256)
        p = tab.bits
        for k in range(1, r):
            with mp.workprec(p):
                got = tab.qint(k)
            with mp.workprec(p + 30):
                want = reference_qint(k, r)
                assert abs(got - want) <= mp.mpf(2) ** -(p - 4) * abs(want)


def test_wheel_mp_matches_reference_kernel(monkeypatch):
    cases = [(r, n, *appendix_colors(kind, r))
             for kind, r, n in (("pent-zero", 101, 5), ("sq-zero", 101, 4), ("sq-zero", 141, 4))]
    fast = [wheel_log_invariant_mp(*case) for case in cases]
    facts = {}
    calls = {"fan": 0, "qint": 0}

    def ref_facts(tab):
        key = (tab.r, tab.prec)
        if key not in facts:
            facts[key] = reference_facts(tab.r, tab.prec)
        return facts[key]

    def ref_qint(tab, k):
        calls["qint"] += 1
        return reference_qint(k, tab.r)

    monkeypatch.setattr(MpFactorials, "fan",
                        lambda tab, s, b: ReferenceFan(tab, s, b, ref_facts(tab), calls))
    monkeypatch.setattr(MpFactorials, "qint", ref_qint)
    monkeypatch.setattr(MpFactorials, "theta",
                        lambda tab, a, b, c: reference_theta(a, b, c, ref_facts(tab)))
    assert [wheel_log_invariant_mp(*case) for case in cases] == fast
    # the patch reached both the z-sums and the Delta_i source
    assert calls["fan"] > 0 and calls["qint"] > 0


def test_tv_record_matches_engine():
    rec = tv_tet_record(7)
    want = tv_graph(tetrahedron(), 7).to_complex().real
    assert rec.log_value == pytest.approx(math.log(want), rel=1e-12)
    assert rec.slope == pytest.approx((math.pi / 7) * rec.log_value, rel=1e-12)
    assert rec.kind == "tv-tet"


def reference_tv_tet_log(r):
    """log sum |6j|^2 over every admissible 6-tuple, unrestricted, with
    every log kept until the overall maximum is known."""
    tab = LevelTables(r)
    logs = []
    for tup in sixtuple_chunks(tab, restrict=False, chunk=500_000):
        lg = batch_sixj(tab, *tup)["log"]
        logs.append(2.0 * lg[np.isfinite(lg)])
    mx = max(float(lg.max()) for lg in logs if lg.size)
    return mx + math.log(sum(float(np.sum(np.exp(lg - mx))) for lg in logs))


def test_orbit_representatives_one_per_class():
    for r in range(5, 17, 2):
        full = all_admissible_sixtuples(r)
        tab = LevelTables(r)
        kept = []
        for tup in sixtuple_chunks(tab, restrict=True, chunk=50):
            keep, weight = orbit_representatives(tab, tup)
            rows = zip(*[x[keep].tolist() for x in tup])
            kept += [(row, int(w)) for row, w in zip(rows, weight)]
        reps = [row for row, _ in kept]
        assert len(reps) == len(set(reps))
        assert set(reps) == {min(symbol_images(t)) for t in full}
        assert all(w == len(symbol_images(row)) for row, w in kept)
        assert sum(w for _, w in kept) == len(full)
        if r == 9:
            assert len(full) == 414


def test_tv_record_matches_unrestricted_sum():
    for r in range(5, 33, 2):
        assert tv_tet_record(r).log_value == pytest.approx(reference_tv_tet_log(r), rel=1e-12)


def test_tv_record_independent_of_chunk():
    # small chunks move the running maximum many times
    small = tv_tet_record(25, chunk=1_000)
    assert small.log_value == pytest.approx(tv_tet_record(25).log_value, rel=1e-12)


def test_tv_record_budget_counts_cover_tuples():
    cover = sum(tup[0].size for tup in sixtuple_chunks(LevelTables(11), restrict=True))
    assert tv_tet_record(11, budget=cover).log_value == pytest.approx(reference_tv_tet_log(11))
    with pytest.raises(BudgetExceeded):
        tv_tet_record(11, budget=cover - 1)


def test_tv_record_memory_bounded_by_chunk():
    tracemalloc.start()
    try:
        tv_tet_record(41, chunk=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_family_record_prism_identity():
    # the first family member past the base realizes four copies of the symbol
    rec = family_record(7, 1)
    assert rec.log_value == pytest.approx(4 * maximizer_record(7).log_value, rel=1e-10)
    assert rec.target == pytest.approx(2 * V8)
    assert rec.kind == "family-m1"


def test_run_levels_deterministic_and_marks_budget():
    rs = [5, 7, 9, 11]
    one = run_levels(tv_tet_record, rs, threads=1)
    four = run_levels(tv_tet_record, rs, threads=4)
    assert [
        (a.r, a.log_value, a.slope) for a in one
    ] == [(b.r, b.log_value, b.slope) for b in four]

    def boom(r):
        raise BudgetExceeded("over budget")

    recs = run_levels(boom, [7, 9], mark=("tet", "fixed"))
    assert [rec.color_policy for rec in recs] == ["fixed!budget", "fixed!budget"]
    assert all(math.isnan(rec.log_value) for rec in recs)
    assert all(rec.target is None and rec.rel_gap is None for rec in recs)


def test_run_levels_timings():
    recs = run_levels(tv_tet_record, [5, 7], timings=True)
    assert all(rec.wall_ms is not None and rec.wall_ms >= 0 for rec in recs)
    plain = run_levels(tv_tet_record, [5, 7])
    assert all(rec.wall_ms is None for rec in plain)


def test_appendix_record_fields():
    rec = appendix_record("sq-ideal", 101)
    assert rec.r == 101 and rec.kind == "sq-ideal"
    assert rec.color_policy == "sq-ideal[spoke=26 rim=38]"
    assert rec.slope == pytest.approx((math.pi / 101) * rec.log_value, rel=1e-12)
    assert rec.rel_gap == pytest.approx(rec.slope / rec.target - 1.0, rel=1e-12)
    assert abs(rec.rel_gap) < 0.5  # coarse at r=101; the acceptance run tightens this

"""Vectorized level scans: batch symbols, bounds, and record builders."""

import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from test_qnum import live_levels

import skeinvol.scans as scans
from skeinvol.errors import BudgetExceeded
from skeinvol.hypvol import V8, records_to_csv
from skeinvol.planar import tetrahedron, wheel
from skeinvol.qnum import (
    SIXJ_SYMMETRIES,
    Level,
    MpFactorials,
    is_admissible_sixtuple,
    is_admissible_triple,
    sixj,
)
from skeinvol.scans import (
    ScanRecord,
    appendix_colors,
    appendix_record,
    batch_sixj,
    bound_record,
    family_record,
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
    tab = Level.of(r)
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
    sf = np.where(tab.fneg, -1, 1)  # sign of [k]!
    sg = sf[s + 1] * sf[s - a] * sf[s - b] * sf[s - c]
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
    lf, sf = tab.lf, np.where(tab.fneg, -1, 1)

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
        tab = Level.of(r)
        for restrict in (True, False):
            for tup in sixtuple_chunks(tab, restrict=restrict):
                assert_same_bits(batch_sixj(tab, *tup), _batch_sixj_reference(tab, *tup))


def test_batch_bit_identical_to_reference_shuffled_and_degenerate():
    tab = Level.of(31)
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


def test_workspace_reuse_is_stateless():
    # One workspace, as a sweep keeps it, fed an empty block first, then
    # blocks of shrinking, then growing size, a shuffled, a single-term
    # and an empty block, at two levels in turn: every result is the
    # reference's and a fresh call's.
    cases = {}
    for r in (31, 25):
        tab = Level.of(r)
        tup = next(sixtuple_chunks(tab, restrict=False))
        assert tup[0].size == scans._BLOCK
        perm = np.random.default_rng(r).permutation(tup[0].size)
        t, q = _sixj_indices_reference(*tup)
        single = np.maximum.reduce(t) == np.minimum(np.minimum.reduce(q), tab.r - 2)
        cases[r] = [tuple(x[:n] for x in tup) for n in (0, 20_000, 3_000, 1, scans._BLOCK)]
        cases[r] += [tuple(x[perm] for x in tup), tuple(x[single] for x in tup),
                     (np.zeros(0, dtype=np.int64),) * 6]
    work = scans._SixjWork()
    for step in range(len(cases[31])):
        for r in (31, 25):
            tab, tup = Level.of(r), cases[r][step]
            got = batch_sixj(tab, *tup, work=work)
            assert_same_bits(got, _batch_sixj_reference(tab, *tup))
            assert_same_bits(got, batch_sixj(tab, *tup))


def test_batch_exactly_zero_sixj_is_floored():
    # exactly 0 (the cyclotomic square vanishes); the doubles leave a sum
    # 14.5 digits below the absolute sum, within the kernel's rounding bound
    tab = Level.of(45)
    cols = np.array([(6, 8, 8, 14, 16, 18), (6, 26, 26, 14, 34, 36)]).T
    d = batch_sixj(tab, *cols)
    assert np.all(d["log"] == -np.inf)
    assert np.all(d["sign"] == 0)
    assert np.all(d["cancel"] > 14)


def test_chunks_enumerate_all_tuples():
    r = 9
    tab = Level.of(r)
    seen = set()
    for block in sixtuple_chunks(tab, restrict=False):
        for row in zip(*[np.asarray(x).tolist() for x in block]):
            seen.add(tuple(row))
    assert seen == set(all_admissible_sixtuples(r))
    assert len(seen) == 414


def test_restricted_chunks_cover_all_classes():
    r = 9
    tab = Level.of(r)
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


def admissible3(r, a, b, c):
    """Vectorized admissibility of (even) color triples at level r."""
    return (c >= np.abs(a - b)) & (c <= a + b) & (a + b + c <= 2 * (r - 2))


def _adm_stack_reference(tab):
    """adm[ta, tb, tc] over color indices (color = 2 * index)."""
    idx = np.arange(tab.m)
    return admissible3(
        tab.r, 2 * idx[:, None, None], 2 * idx[None, :, None], 2 * idx[None, None, :]
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


def concatenated(blocks):
    """The six columns of a block stream laid end to end, and the block sizes."""
    blocks = list(blocks)
    cols = tuple(np.concatenate([tup[k] for tup in blocks]) for k in range(6))
    return cols, [tup[0].size for tup in blocks]


def test_chunks_match_reference_in_order():
    for restrict, rmax in ((True, 49), (False, 35)):
        for r in range(5, rmax + 1, 2):
            tab = Level.of(r)
            want, _ = concatenated(_sixtuple_chunks_reference(tab, restrict=restrict))
            blocks = list(sixtuple_chunks(tab, restrict=restrict))
            got, sizes = concatenated(blocks)
            for x, y in zip(got, want):
                assert x.dtype == np.int64
                assert np.array_equal(x, y), (r, restrict)
            assert all(n == scans._BLOCK for n in sizes[:-1])
            assert 0 < sizes[-1] <= scans._BLOCK
            assert all(x.dtype == np.int64 for tup in blocks for x in tup)


def test_chunks_budget_edges():
    # r = 21: 4,641 cover tuples in one block; r = 37: 104,948 in four
    for r in (21, 37):
        tab = Level.of(r)
        cover = sum(tup[0].size for tup in sixtuple_chunks(tab))
        assert sum(tup[0].size for tup in sixtuple_chunks(tab, budget=cover)) == cover
        yielded = 0
        with pytest.raises(BudgetExceeded):
            for tup in sixtuple_chunks(tab, budget=cover - 1):
                yielded += tup[0].size
        assert yielded <= cover - 1


def drain_peak(r):
    tab = Level.of(r)
    tracemalloc.start()
    try:
        for _ in sixtuple_chunks(tab):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunks_memory_bounded_by_chunk_not_level():
    # Draining the restricted cover in blocks peaks at 4.9 MB at r = 61
    # and 5.0 MB at r = 101 (34.7 M tuples); the mask enumerator peaked
    # at 5.6 and 33.4 MB.
    assert drain_peak(101) <= 1.25 * drain_peak(61)


def test_small_cover_allocates_small_buffers():
    # At r = 7 the cover holds 23 tuples, in one block whose six buffers
    # of _BLOCK tuples take 1.5 MB.  The peak reads 1.5 MB.
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


FAULT_PROBE = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import skeinvol.scans as scans
scans._cores = lambda: 1
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
_, diag = scans.bound_record(65)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(after - before, diag["tuples"])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor fault counts as on Linux")
def test_bound_record_page_faults_per_tuple():
    # A screen that allocates its kernel arrays afresh per block hands
    # them back to the system and faults them in again: 0.044 minor
    # faults per tuple at r = 65 on one core.  Reusing one workspace per
    # level reads 0.003, and both counts repeat from run to run.  A fresh
    # process, because a heap grown by earlier tests hides the faults.
    src = os.path.dirname(os.path.dirname(scans.__file__))
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE, src],
                          capture_output=True, text=True, check=True, timeout=600)
    faults, tuples = map(int, done.stdout.split())
    assert tuples == 2_645_686
    assert faults <= 0.015 * tuples


def bound_bits(rec, diag):
    """Every field of a bound_record result, floats as their exact bits."""
    return (
        rec.log_value.hex(), rec.slope.hex(), rec.rel_gap.hex(),
        float(rec.cancel_digits).hex(), diag["tuples"], diag["rechecked"],
        diag["bound_ok"], diag["excess"].hex(), diag["threshold_log"].hex(),
    )


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
WORKER_CASES = [(25, 4.0), (35, 4.0), (41, 4.0), (49, 4.0), (41, -9.0), (49, -8.0)]

# full blocks of the shipped size in the cover, where that is fewer than
# three: r = 25 (11,904 tuples) has none and r = 35 (76,768 tuples) two
FULL_BLOCKS = {25: 0, 35: 2}


@pytest.mark.parametrize("block", [1_000, scans._BLOCK, 200_000])
def test_bound_record_bits_independent_of_worker_count(monkeypatch, forks, block):
    monkeypatch.setattr(scans, "_BLOCK", block)
    for r, margin in WORKER_CASES:
        seen = {}
        for n in (1, 2, 3):
            monkeypatch.setattr(scans, "_cores", lambda n=n: n)
            del forks[:]
            rec, diag = bound_record(r, margin=margin)
            seen[n] = bound_bits(rec, diag)
            # a screen forks only when each of the n processes gets a full block
            full = diag["tuples"] // block
            if block == 32_768:
                assert min(full, 3) == FULL_BLOCKS.get(r, 3)
            assert len(forks) == (n - 1 if n <= full else 0)
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


def test_bound_record_on_caller_thread_forks_nothing(monkeypatch):
    # a fork would copy only the calling thread, so while a caller's own
    # thread runs the screen stays in one process, with the same bits
    monkeypatch.setattr(scans, "_cores", lambda: 3)
    want = {r: bound_bits(*bound_record(r)) for r in (41, 49)}

    def fork():
        raise AssertionError("bound_record forked beside another thread")

    monkeypatch.setattr(os, "fork", fork)
    got, errors = {}, []

    def run():
        try:
            for r in (41, 49):
                got[r] = bound_bits(*bound_record(r))
        except BaseException as err:
            errors.append(err)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join()
    assert errors == []
    assert got == want


# (r, spokes, kind) -> forks with 1, 2 and 3 cores: pent-zero at r = 141
# (1,260 links) stays in one process, at r = 261 (4,290 links) it forks
# up to four processes; the zero-angled W_8 at r = 201 (2,550 links, two
# processes) runs at two precisions and forks once in each
WHEEL_FORKS = {(141, 5, "pent-zero"): [0, 0, 0], (261, 5, "pent-zero"): [0, 1, 2],
               (201, 8, "sq-zero"): [0, 2, 2]}


def test_wheel_bits_independent_of_worker_count(monkeypatch, forks):
    for (r, n, kind), want_forks in WHEEL_FORKS.items():
        seen, forked = set(), []
        for cores in (1, 2, 3):
            monkeypatch.setattr(scans, "_cores", lambda cores=cores: cores)
            del forks[:]
            seen.add(tuple(map(float.hex, wheel_log_invariant_mp(r, n, *appendix_colors(kind, r)))))
            forked.append(len(forks))
            assert multiprocessing.active_children() == []
        assert len(seen) == 1, (r, n, kind)
        assert forked == want_forks, (r, n, kind)


def test_wheel_worker_error_reaches_caller(monkeypatch):
    # _fx_norm cuts every link's w_ij, so a worker's link share runs it
    s, b = appendix_colors("pent-zero", 261)
    parent, real = os.getpid(), scans._fx_norm
    monkeypatch.setattr(scans, "_cores", lambda: 2)

    def fails(pair, p):
        if os.getpid() != parent:
            raise ArithmeticError("a link share failed in a worker")
        return real(pair, p)

    monkeypatch.setattr(scans, "_fx_norm", fails)
    with pytest.raises(ArithmeticError, match="failed in a worker"):
        wheel_log_invariant_mp(261, 5, s, b)
    assert multiprocessing.active_children() == []

    def dies(pair, p):
        if os.getpid() != parent:
            os._exit(3)
        return real(pair, p)

    monkeypatch.setattr(scans, "_fx_norm", dies)
    with pytest.raises(RuntimeError, match="died"):
        wheel_log_invariant_mp(261, 5, s, b)
    assert multiprocessing.active_children() == []


def test_wheel_on_caller_thread_forks_nothing(monkeypatch):
    s, b = appendix_colors("pent-zero", 261)
    monkeypatch.setattr(scans, "_cores", lambda: 3)
    want = wheel_log_invariant_mp(261, 5, s, b)

    def fork():
        raise AssertionError("the wheel sum forked beside another thread")

    monkeypatch.setattr(os, "fork", fork)
    got, errors = [], []

    def run():
        try:
            got.append(wheel_log_invariant_mp(261, 5, s, b))
        except BaseException as err:
            errors.append(err)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert errors == []
    assert [tuple(map(float.hex, g)) for g in got] == [tuple(map(float.hex, want))]


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_memory_bounded():
    # The first 200,000 tuples of the restricted cover at r = 65, of at
    # most 8 terms, laid end to end from seven blocks.  The peak measures
    # 13.4 MB, 8.0 MB of it the five output arrays; on the mask
    # enumerator's 214,386-tuple chunk it read 14.0 MB, and the padded
    # two-pass kernel peaked at 41.1 MB there.
    tab = Level.of(65)
    blocks = sixtuple_chunks(tab, restrict=True)
    tup = tuple(x[:200_000] for x in concatenated(itertools.islice(blocks, 7))[0])
    assert tup[0].size == 200_000
    assert traced_peak(batch_sixj, tab, *tup) < 1.25 * 14.0 * 2**20
    # The w_ij call of the pent-zero wheel at r = 321: 12,880 tuples of up
    # to 80 terms, 351,000 in all.  The peak measures 2.78 MB (the padded
    # kernel 2.47 MB); keeping all 351,000 terms at once took 6.5 MB.
    tab = Level.of(321)
    s, b = appendix_colors("pent-zero", 321)
    colors = np.array(tab.colors)
    i = colors[admissible3(321, s, s, colors) & admissible3(321, colors, b, b)]
    ii, jj = np.nonzero(admissible3(321, s, i[:, None], i[None, :]))
    cs, cb = np.full(ii.size, s), np.full(ii.size, b)
    assert ii.size == 12_880
    assert traced_peak(batch_sixj, tab, cs, i[ii], i[jj], cb, cb, cb) < 1.25 * 2.78 * 2**20


def test_family_record_tetrahedron_is_the_maximizer_6j():
    # m = 0: the tetrahedron at the maximizing color, Y = 6j^2
    rec = family_record(7, 0)
    c = 2
    want_log = math.log(abs(sixj(c, c, c, c, c, c, 7).to_complex()))
    assert rec.log_value == pytest.approx(2 * want_log, rel=1e-12)
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


def test_fan_colors_and_links_follow_admissibility():
    # the fan's colors and link pairs, read off fusion_colors, are the
    # per-color admissibility filters over the level's colors
    for r in (5, 7, 9, 11, 21, 41, 101):
        lv = Level.of(r)
        adm = {t for t in itertools.product(lv.colors, repeat=3) if is_admissible_triple(*t, lv)}
        for s, b in itertools.product(lv.colors, repeat=2):
            if (s, b, b) not in adm:
                continue
            rim = [i for i in lv.colors if (i, b, b) in adm]
            ends = [i for i in rim if (s, s, i) in adm]
            links = [(i, j) for i in rim for j in rim if (s, i, j) in adm]
            for n, want in ((4, ends), (6, rim)):
                got_lv, got_ends, path = scans._fan_colors(r, n, s, b)
                assert got_lv is lv
                assert list(got_ends) == ends and list(path) == want
                assert scans._fan_links(lv, s, path) == [(i, j) for i, j in links if max(i, j) <= want[-1]]


def test_wheel_closed_form_against_engine():
    # both twins on every admissible (spoke, rim) pair of the wheels with
    # 4 to 8 spokes; an invariant that is exactly 0 vanishes in both
    for n, r in itertools.product(range(4, 9), (5, 7, 9, 11)):
        lv = Level.of(r)
        memo = {}
        for s, b in itertools.product(lv.colors, repeat=2):
            if not is_admissible_triple(s, b, b, lv):
                continue
            col = [s] * n + [b] * n  # spokes first, then the rim
            want = yokota(wheel(n), col, r, memo=memo)
            for twin in (wheel_log_invariant, wheel_log_invariant_mp):
                if want == 0.0:
                    with pytest.raises(ValueError, match="vanished"):
                        twin(r, n, s, b)
                    continue
                logv, sign, cancel = twin(r, n, s, b)
                assert abs(sign * math.exp(logv) - want) <= 1e-10 * abs(want)
                assert cancel >= 0.0
    for twin in (wheel_log_invariant, wheel_log_invariant_mp):
        with pytest.raises(ValueError, match="at least 4 spokes"):
            twin(11, 3, 2, 4)  # the 3-spoke wheel, the tetrahedron


def test_wheel_float_vs_highprec():
    for r, n, s, b in [(11, 4, 2, 4), (31, 4, 8, 12), (31, 5, 6, 12)]:
        lf, sf, _ = wheel_log_invariant(r, n, s, b)
        lm, sm, _ = wheel_log_invariant_mp(r, n, s, b)
        assert sf == sm
        assert abs(lf - lm) < 1e-9 * max(1.0, abs(lm))


def test_wheel_mp_value_holds_at_1024_bits(monkeypatch):
    # starting above the 2r + 256 = 458-bit floor changes the working
    # precision, not the value; so does starting the zero-angled W_6 and
    # W_8, whose middle links cancel the most, at twice the floor
    cases = [(101, 5, *appendix_colors("pent-zero", 101), 1024)]
    cases += [(r, n, *appendix_colors("sq-zero", r), 2 * (2 * r + 256))
              for r in (101, 201) for n in (6, 8)]
    wants = [wheel_log_invariant_mp(*case[:4]) for case in cases]
    used = []
    real = Level.mp_factorials
    monkeypatch.setattr(Level, "mp_factorials",
                        lambda lv, prec: used.append(prec) or real(lv, prec))
    for (*case, start), (want, sign, _) in zip(cases, wants):
        used.clear()
        monkeypatch.setattr(scans, "_wheel_start_bits", lambda r: start)
        got, got_sign, _ = wheel_log_invariant_mp(*case)
        assert used == [start]
        assert got_sign == sign
        assert abs(got - want) <= 1e-12 * abs(want)


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
            pairs = [(mp.mpf(tab.zsum(t)), reference_zsum(t, facts, r)) for t in sixes]
            pairs += [(mp.mpf(tab.inv_theta(*t)), 1 / reference_theta(*t, facts)) for t in triples]
            for got, want in pairs:
                assert want != 0
                assert abs(got - want) <= tol * abs(want)


def reference_qint(k, r):
    """[k] from mp.sin at the working precision, as the wheel sum once took it."""
    return mp.sin(2 * mp.pi * k / r) / mp.sin(2 * mp.pi / r)


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
            pairs = [(mp.mpf(fan.zsum(t[1], t[2])), reference_zsum(t, facts, r)) for t in sixes]
            pairs += [(mp.mpf((tab._fm[k], tab._fe[k])), facts[k]) for k in range(r)]
            pairs += [(mp.mpf((tab._im[k], tab._ie[k])), 1 / facts[k]) for k in range(r)]
            pairs += [(mp.mpf(tab.qint(k)), reference_qint(k, r)) for k in range(1, r)]
            for got, want in pairs:
                assert want != 0
                assert abs(got - want) <= tol * abs(want)


def test_rotation_recurrence_keeps_full_table_precision():
    # [k] = [k]! / [k-1]! read at the table's own P bits is within 16 units
    # of 2**-P of the exact value (it reads 5.9 at most); the recurrence's
    # 40 guard bits are what keep it there: without them it is off by
    # 650 to 1,060 units at these levels.
    for r in (101, 141, 321):
        tab = MpFactorials(r, 2 * r + 256)
        p = tab.bits
        for k in range(1, r):
            with mp.workprec(p):
                got = mp.mpf(tab.qint(k))
            with mp.workprec(p + 30):
                want = reference_qint(k, r)
                assert abs(got - want) <= mp.mpf(2) ** -(p - 4) * abs(want)


def reference_wheel_mp(r, n_spokes, s, b):
    """wheel_log_invariant_mp as the mpf outer loop it once was, over the
    divide reference: every z-sum, Theta and [k] an mpf, the terms summed
    in order in mpf at the working precision, and the same precision
    rule."""
    lv = Level.of(r)
    ilist = [i for i in lv.colors
             if is_admissible_triple(s, s, i, lv) and is_admissible_triple(i, b, b, lv)]
    prec = scans._wheel_start_bits(r)
    while True:
        facts = reference_facts(r, prec)
        with mp.workprec(prec):
            def u(x, y):
                return reference_zsum((s, x, y, b, b, b), facts, r)

            def theta(x, y, z):
                return reference_theta(x, y, z, facts)

            th_sbb = theta(s, b, b)
            terms = []
            if n_spokes == 4:
                for i in ilist:
                    th = theta(s, s, i) * th_sbb ** 2 * theta(i, b, b)
                    terms.append(reference_qint(i + 1, r) * u(s, i) ** 4 / th ** 2)
            else:
                half = {}
                for i in ilist:
                    th_ibb = theta(i, b, b)
                    th = theta(s, s, i) * th_sbb ** 2 * th_ibb
                    half[i] = reference_qint(i + 1, r) * u(s, i) ** 2 / (th * th_ibb)
                for ix, i in enumerate(ilist):
                    for j in ilist[ix:]:
                        if is_admissible_triple(s, i, j, lv):
                            term = half[i] * half[j] * u(i, j) ** 2 / (theta(s, i, j) * th_sbb)
                            terms.append(term if j == i else 2 * term)
            total = abstot = mp.mpf(0)
            for term in terms:
                total += term
                abstot += abs(term)
            cancel_bits = float(mp.log(abstot / abs(total), 2))
            if cancel_bits <= prec - 50:
                return (float(mp.log(abs(total))), 1.0 if total > 0 else -1.0,
                        cancel_bits * math.log10(2.0))
        prec *= 2


def test_wheel_mp_matches_reference_kernel():
    # the fixed-point sum against an mpf one built on its own tables
    cases = [(r, n, *appendix_colors(kind, r))
             for kind, r, n in (("pent-zero", 101, 5), ("sq-zero", 101, 4), ("sq-zero", 141, 4))]
    for case in cases:
        assert wheel_log_invariant_mp(*case) == reference_wheel_mp(*case)


def test_wheel_mp_error_names_last_precision(monkeypatch):
    # from 8 bits the five tries are 8 .. 128 bits, all below the
    # cancellation of pent-zero at r = 101
    used = []
    real = Level.mp_factorials
    monkeypatch.setattr(Level, "mp_factorials",
                        lambda lv, prec: used.append(prec) or real(lv, prec))
    monkeypatch.setattr(scans, "_wheel_start_bits", lambda r: 8)
    s, b = appendix_colors("pent-zero", 101)
    with pytest.raises(ValueError, match=r"cancels beyond 128 bits$"):
        wheel_log_invariant_mp(101, 5, s, b)
    assert used == [8, 16, 32, 64, 128]


def test_tv_record_matches_engine():
    rec = tv_tet_record(7)
    want = tv_graph(tetrahedron(), 7).to_complex().real
    assert rec.log_value == pytest.approx(math.log(want), rel=1e-12)
    assert rec.slope == pytest.approx((math.pi / 7) * rec.log_value, rel=1e-12)
    assert rec.kind == "tv-tet"


def reference_tv_tet_log(r):
    """log sum |6j|^2 over every admissible 6-tuple, unrestricted, with
    every log kept until the overall maximum is known."""
    tab = Level.of(r)
    logs = []
    for tup in sixtuple_chunks(tab, restrict=False):
        lg = batch_sixj(tab, *tup)["log"]
        logs.append(2.0 * lg[np.isfinite(lg)])
    mx = max(float(lg.max()) for lg in logs if lg.size)
    return mx + math.log(sum(float(np.sum(np.exp(lg - mx))) for lg in logs))


def test_orbit_representatives_one_per_class():
    for r in range(5, 17, 2):
        full = all_admissible_sixtuples(r)
        tab = Level.of(r)
        kept = []
        for tup in sixtuple_chunks(tab, restrict=True):
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


def reference_orbit_representatives(lv, tup):
    """The orbit test compared with all 24 images: one base-m key of the
    whole block per symmetry."""
    idx = [np.asarray(x, dtype=np.int64) >> 1 for x in tup]
    m = lv.m

    def key(order):
        k = idx[order[0]] * m
        for i in order[1:-1]:
            k += idx[i]
            k *= m
        k += idx[order[-1]]
        return k

    own = key(SIXJ_SYMMETRIES[0])
    keep = np.ones(own.size, dtype=bool)
    stab = np.ones(own.size, dtype=np.int64)
    for g in SIXJ_SYMMETRIES[1:]:
        img = key(g)
        keep &= own <= img
        stab += own == img
    return keep, 24 // stab[keep]


def test_orbit_representatives_matches_all_images():
    # only the tie rows are compared; on the restricted cover that gives
    # the same keep mask and weights as comparing every image
    blocks = 0
    for r in [*range(5, 43, 2), 65]:
        tab = Level.of(r)
        for tup in sixtuple_chunks(tab, restrict=True):
            keep, weight = orbit_representatives(tab, tup)
            want_keep, want_weight = reference_orbit_representatives(tab, tup)
            np.testing.assert_array_equal(keep, want_keep)
            np.testing.assert_array_equal(weight, want_weight)
            assert weight.dtype == want_weight.dtype
            blocks += 1
    assert blocks == 116


def test_numpy_paths_at_the_smallest_level():
    # r = 3 has the one color 0, and every invariant there is 1: the
    # vectorized records agree with the graph engine and the scalar 6j
    assert tv_tet_record(3).log_value == tv_graph(tetrahedron(), 3).log_abs() == 0.0
    rec, diag = bound_record(3)
    assert rec.log_value == sixj(0, 0, 0, 0, 0, 0, 3).log_abs() == 0.0
    assert diag["tuples"] == 1 and diag["bound_ok"]
    for n in range(4, 9):
        assert wheel_log_invariant(3, n, 0, 0) == (0.0, 1.0, 0.0)
        assert yokota(wheel(n), [0] * (2 * n), 3) == 1.0


def test_tv_record_matches_unrestricted_sum():
    for r in range(5, 33, 2):
        assert tv_tet_record(r).log_value == pytest.approx(reference_tv_tet_log(r), rel=1e-12)
    # r = 31 has two blocks, and the second holds a larger term than the
    # first, so the running maximum rises and the partial sum is rescaled
    tab = Level.of(31)
    tops = []
    for tup in sixtuple_chunks(tab, restrict=True):
        keep, _ = orbit_representatives(tab, tup)
        lg = batch_sixj(tab, *(x[keep] for x in tup))["log"]
        tops.append(float(lg[np.isfinite(lg)].max()))
    assert len(tops) == 2 and tops[1] > tops[0]


def test_tv_record_budget_counts_cover_tuples():
    cover = sum(tup[0].size for tup in sixtuple_chunks(Level.of(11), restrict=True))
    assert tv_tet_record(11, budget=cover).log_value == pytest.approx(reference_tv_tet_log(11))
    with pytest.raises(BudgetExceeded):
        tv_tet_record(11, budget=cover - 1)


def test_tv_record_memory_bounded_by_chunk():
    tracemalloc.start()
    try:
        tv_tet_record(41)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_family_record_keeps_at_most_16_levels():
    rs = range(2001, 2081, 2)  # 40 levels, more than Level.of keeps
    for r in rs:
        family_record(r)
    assert len(live_levels(rs)) <= 16


def test_family_record_prism_identity():
    # the first family member past the base realizes four copies of the symbol
    rec = family_record(7, 1)
    assert rec.log_value == pytest.approx(2 * family_record(7, 0).log_value, rel=1e-10)
    assert rec.target == pytest.approx(2 * V8)
    assert rec.kind == "family-m1"


def test_run_levels_deterministic_and_marks_budget():
    recs = run_levels(tv_tet_record, [11, 5, 9, 7, 5])  # distinct levels, in order
    assert [
        (a.r, a.log_value, a.slope) for a in recs
    ] == [(r, tv_tet_record(r).log_value, tv_tet_record(r).slope) for r in (5, 7, 9, 11)]

    def boom(r):
        raise BudgetExceeded("over budget")

    recs = run_levels(boom, [7, 9], mark=("tet", "fixed"))
    assert [rec.color_policy for rec in recs] == ["fixed!budget", "fixed!budget"]
    assert all(rec.log_value is None for rec in recs)
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

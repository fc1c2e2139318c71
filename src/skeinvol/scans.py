"""Large-level numerical scans of 6j and invariant growth rates.

The graph evaluator is exact but desk-scale; the conjectures ask how
(pi/r) log |invariant| behaves as the level r grows.  This module keeps
those scans feasible with per-level numpy tables and a batched
log-domain 6j evaluator:

* the batched 6j (batch_sixj) sorts each block of 6-tuples by the
  length of its z-range, so every term of every alternating z-sum is
  computed exactly once and no lane is padded.  Its output is
  bit-identical to the earlier padded two-pass kernel; on a 2-core box
  it runs about 3.2 M tuples/s on the bound sweep at r = 41..65, against
  0.78 M tuples/s before;
* the 6-tuple enumeration (sixtuple_chunks) reads every admissibility
  and cover condition as an interval bound, so each slot's colors are
  one range given the earlier slots; the ranges are expanded with
  repeat/cumsum in pieces of at most _BLOCK tuples and copied into
  fixed-size chunks.  On a 2-core box it lists the 34.7 M-tuple cover
  at r = 101 in about 0.75 s, against 8 s for the earlier boolean
  K x K masks;
* the exhaustive 6j bound sweep enumerates admissible 6-tuples up to a
  symmetry restriction, screens them with a cancellation-free upper
  bound, and re-evaluates only the near-maximal ones exactly.  Each
  level's screen runs on every usable core: the cover is dealt in blocks
  of _BLOCK tuples to forked processes (see _screen_cover), which send
  back only counts, maxima and candidates, so the record is
  bit-identical to one process's.  It stays in-process on one core,
  without the fork start method, while other threads run (so on the
  threads of run_levels) and on covers with fewer than one block per
  core;
* the wheel-graph fast paths evaluate the closed forms for the square
  and pentagonal pyramids (one- and two-index sums of 6j products).
  The zero-angled colorings cancel hundreds of bits, so they run on the
  high-precision twin.  Its z-sums read the fan tables of qnum.MpFan,
  built per (spoke, rim) pair over the level's fixed-point factorials,
  so each z-term is two integer multiplies, and the factorials come
  from a rotation recurrence instead of r mpmath sines.  On a 2-core
  box with pure-Python mpmath, pent-zero at r = 321 takes about 1.7 s
  (about 3.5 s with seven multiplies per term, 10 s with the earlier
  mpf-division sums) and the whole pent-zero grid of reproduce-appendix
  about 6 s (13 s, 44 s);
* the family fast path uses Y(prism, all-max) = sixj(max,...)^4 (one
  6j per level), checked against the graph engine at small levels in
  the test suite.

Per-level work is pure and independent, so run_levels can also spread
the levels of a scan over a thread pool and reassemble them in level
order; the emitted records are bit-equal for any thread count.  Threads
pay little here (the numpy kernel releases the GIL only in part, and the
mp paths share one lock), and a bound sweep beside other threads stays
in one process, so the forked screen is the way a bound sweep uses the
cores.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

import numpy as np

import mpmath as mp

from .errors import BudgetExceeded
from .hypvol import V8, ScanRecord, named_volumes
from .qnum import (
    MP_LOCK,
    SIXJ_SYMMETRIES,
    Level,
    is_admissible_triple,
    mp_precision,
    sixj_info,
)
from .yokota import maximizing_color

__all__ = [
    "LevelTables",
    "appendix_colors",
    "appendix_record",
    "batch_sixj",
    "bound_record",
    "family_record",
    "maximizer_record",
    "orbit_representatives",
    "round_even_color",
    "run_levels",
    "sixtuple_chunks",
    "tv_tet_record",
    "wheel_log_invariant",
    "wheel_log_invariant_mp",
]


class LevelTables:
    """Per-level lookup tables for vectorized quantum arithmetic.

    lf[k] = log |[k]!|, sf[k] = sign([k]!) and fneg[k] = [k]! < 0 for
    0 <= k <= r-1; dlog and dsign give the circle weights Delta_i over
    the color set.  [k] is negative exactly for r/2 < k < r, so the sign
    of [k]! alternates with max(0, k - (r-1)/2).
    """

    def __init__(self, r: int):
        if r < 5 or r % 2 == 0:
            raise ValueError("level must be odd and >= 5")
        self.r = r
        self.colors = np.arange(0, r - 2, 2, dtype=np.int64)
        self.m = len(self.colors)
        k = np.arange(r, dtype=np.int64)
        mag = np.abs(np.sin(2 * np.pi * k / r)) / math.sin(2 * math.pi / r)
        lg = np.zeros(r)
        lg[1:] = np.log(mag[1:])
        self.lf = np.concatenate([[0.0], np.cumsum(lg[1:])])
        neg = np.maximum(0, k - (r - 1) // 2)
        self.sf = np.where(neg % 2 == 0, 1, -1).astype(np.int64)
        self.fneg = self.sf < 0
        i = self.colors
        self.dlog = np.log(np.abs(np.sin(2 * np.pi * (i + 1) / r))) - math.log(
            math.sin(2 * math.pi / r)
        )
        # Delta_i = (-1)^i [i+1]; colors are even, and [i+1] < 0 once
        # i+1 passes r/2
        self.dsign = np.where(i + 1 <= (r - 1) // 2, 1, -1).astype(np.int64)

    def admissible3(self, a, b, c):
        """Vectorized admissibility of (even) color triples."""
        return (
            (c >= np.abs(a - b))
            & (c <= a + b)
            & (a + b + c <= 2 * (self.r - 2))
        )


def _sixj_indices(a, b, c, d, e, f):
    # vertex triples (a,b,c), (a,e,f), (b,d,f), (c,d,e) -- the same
    # convention as the scalar evaluator
    bc, de, df, ef = b + c, d + e, d + f, e + f
    t = ((a + bc) >> 1, (a + ef) >> 1, (b + df) >> 1, (c + de) >> 1)
    q = ((a + b + de) >> 1, (a + c + df) >> 1, (bc + ef) >> 1)
    return t, q


_BLOCK = 32_768  # tuples per kernel block and per enumeration piece: they stay in the L2 cache
_TERMS = 32_768  # z-terms kept at once (9 bytes each), whatever the level


def batch_sixj(tab: LevelTables, a, b, c, d, e, f) -> dict:
    """Batched 6j evaluation in the log domain.

    The six inputs are equal-length integer arrays of even colors that
    form admissible 6-tuples.  Returns a dict of arrays, in input order:

      log     log |6j|            (-inf where the z-sum vanished)
      sign    sign of the real z-sum
      quad    number of negative vertex thetas (the 6j is i^quad * real)
      cancel  decimal digits lost to cancellation in the z-sum
      log_ub  cancellation-free upper bound on log |6j|

    Tuple i's z-sum has nz_i + 1 terms.  Each block of _BLOCK tuples is
    put in order of nz, longest first (a stable sort), so the tuples
    with a term at step k are a prefix and no lane computes a term it
    then masks out.  Every term's log-magnitude and sign are computed
    once and kept until the tuple's largest term is known; then sign *
    exp(term - max) is summed over them in the same order.  The sign of
    a term is an XOR of nine parities read from per-level tables.

    Every float operation is the one the earlier padded two-pass kernel
    made, in the same order, so each output is bit-identical to it and
    depends on its own tuple only, not on the blocking or the order of
    the input (tests/test_scans.py keeps that kernel as the reference).
    An online-rescaled log-sum-exp would keep no terms but would break
    this: exp(a-b) * exp(b-c) is not bitwise exp(a-c).  Instead the
    kept terms are capped at _TERMS by summing a sorted block in pieces.

    log_ub replaces the signed sum by the sum of absolute values, which
    cannot cancel, so it bounds the true magnitude from above regardless
    of how badly the signed sum cancels.
    """
    cols = [np.asarray(x, dtype=np.int64) for x in (a, b, c, d, e, f)]
    n = cols[0].shape[0]
    out = {"log": np.empty(n), "sign": np.empty(n), "quad": np.empty(n, dtype=np.int64),
           "cancel": np.empty(n), "log_ub": np.empty(n)}
    for i in range(0, n, _BLOCK):
        part = slice(i, i + _BLOCK)
        _sixj_block(tab, *(x[part] for x in cols), out={k: v[part] for k, v in out.items()})
    return out


def _sixj_block(tab: LevelTables, a, b, c, d, e, f, *, out: dict) -> None:
    """batch_sixj on one non-empty block, written into the views in out."""
    n = a.shape[0]
    r, lf, fneg = tab.r, tab.lf, tab.fneg
    # zneg[z] = [z+1]! < 0 xor z odd: the sign of (-1)^z [z+1]!
    zneg = fneg[1:] ^ (np.arange(r - 1) % 2 == 1)
    t, q = _sixj_indices(a, b, c, d, e, f)

    # Theta(x,y,w) = (-1)^s [s+1]! / ([s-x]! [s-y]! [s-w]!), and t holds s
    preflog = np.zeros(n)
    quad = out["quad"]
    quad[:] = 0
    for s, (x, y, w) in zip(t, ((a, b, c), (a, e, f), (b, d, f), (c, d, e))):
        x, y, w = s - x, s - y, s - w
        preflog -= 0.5 * (lf[1:][s] - lf[x] - lf[y] - lf[w])
        quad += zneg[s] ^ fneg[x] ^ fneg[y] ^ fneg[w]

    zlo = np.maximum.reduce(t)
    nz = np.minimum(np.minimum.reduce(q), r - 2) - zlo  # >= 0 on admissible tuples
    key = -nz
    if r < 2**15:
        key = key.astype(np.int16)  # stable sorts of 16-bit keys are radix sorts
    order = np.argsort(key, kind="stable")
    nz, zlo = nz[order], zlo[order]
    # z = zlo + k.  Each factorial index is a fixed array plus or minus
    # k, so it is read from the table shifted by k instead:
    #   [z+1]!   -> lf[k+1:][zlo]
    #   [z-t_i]! -> lf[k:][zlo - t_i]
    #   [q_j-z]! -> rev[k:][(r-1) - (q_j - zlo)]   with rev = lf[::-1]
    # and the parity of z rides on zneg.
    lo = [zlo - x[order] for x in t]
    top = zlo + (r - 1)
    hi = [top - x[order] for x in q]
    del t, q, key, top
    tables = (lf, fneg, lf[::-1].copy(), fneg[::-1].copy(), zneg)

    mlog, acc, absacc = np.empty(n), np.zeros(n), np.zeros(n)
    kept = np.cumsum(nz + 1)
    cuts = np.searchsorted(kept, np.arange(_TERMS, kept[-1], _TERMS), side="right").tolist()
    for part in map(slice, [0, *cuts], [*cuts, n]):
        _zsum_sorted(tables, zlo[part], [x[part] for x in lo], [x[part] for x in hi],
                     nz[part], mlog[part], acc[part], absacc[part])
    del lo, hi, zlo, nz

    # back to input order
    for arr in (acc, absacc, mlog):
        arr[order] = arr.copy()

    with np.errstate(divide="ignore", invalid="ignore"):
        out["log"][:] = np.where(acc == 0.0, -np.inf, preflog + mlog + np.log(np.abs(acc)))
        out["log_ub"][:] = preflog + mlog + np.log(absacc)
        out["cancel"][:] = np.where(
            acc != 0.0,
            np.log10(np.maximum(absacc / np.abs(np.where(acc == 0.0, 1.0, acc)), 1.0)),
            np.inf,
        )
    out["sign"][:] = np.sign(acc)


def _zsum_sorted(tables, zlo, lo, hi, nz, mlog, acc, absacc) -> None:
    """The z-sums of tuples sorted by nz, longest first, into the views
    mlog (largest term log), acc and absacc (signed and absolute sums of
    exp(term - mlog)).  The first loop keeps every term it computes."""
    lf, fneg, rev, rneg, zneg = tables
    terms = []
    live = np.cumsum(np.bincount(nz)[::-1])[::-1]  # live[k] = #{nz >= k}
    for k, m in enumerate(live.tolist()):
        tl = lf[k + 1:][zlo[:m]]
        neg = zneg[k:][zlo[:m]]
        for ix in lo:
            tl -= lf[k:][ix[:m]]
            neg ^= fneg[k:][ix[:m]]
        for ix in hi:
            tl -= rev[k:][ix[:m]]
            neg ^= rneg[k:][ix[:m]]
        if k == 0:
            mlog[:] = tl
        else:
            np.maximum(mlog[:m], tl, out=mlog[:m])
        terms.append((tl, neg))
    for tl, neg in terms:
        m = tl.size
        tl -= mlog[:m]
        mag = np.exp(tl, out=tl)
        absacc[:m] += mag
        np.negative(mag, out=mag, where=neg)
        acc[:m] += mag


# ---------------------------------------------------------------------------
# admissible 6-tuple enumeration


def _ranges(lo, cnt):
    """The integer ranges [lo[i], lo[i] + cnt[i]) laid end to end, in item
    order, as (item, value): value[k] is the k-th integer and item[k] the
    range it came from.  One repeat per array, no mask."""
    end = np.cumsum(cnt)
    n = int(end[-1]) if end.size else 0
    item = np.repeat(np.arange(cnt.size), cnt)
    value = np.arange(n, dtype=np.int64)
    value += np.repeat(lo - end + cnt, cnt)
    return item, value


def _pieces(cnt, cap):
    """Cut items into consecutive runs [i, j) whose counts sum to at most
    cap; a run of one item may exceed it."""
    end = np.cumsum(cnt)
    i, base = 0, 0
    while i < cnt.size:
        j = max(i + 1, int(np.searchsorted(end, base + cap, side="right")))
        yield i, j
        base = int(end[j - 1])
        i = j


def _cover_pieces(m: int, restrict: bool):
    """Admissible 6-tuples of color indices, lexicographic in
    (a, d, b, c, e, f), as pieces (a, (d, b, c, e), item, f): tuple k of a
    piece is (a, d[item[k]], b[item[k]], c[item[k]], e[item[k]], f[k]).

    Each level is the expansion of per-item ranges.  Per color a, the
    (b, c) pairs are crossed with runs of d of at most _BLOCK // 8 4-tuples;
    each run's e ranges are expanded in pieces of at most _BLOCK // 8
    5-tuples, and each of those is cut into pieces of at most _BLOCK
    6-tuples before its f ranges are expanded.  Only one a's (b, c) pairs,
    fewer than m * m, can outgrow these caps.
    """
    top = 2 * m - 1  # i + j + k <= r - 2
    cap = _BLOCK // 8
    for a in range(m):
        lo = a if restrict else 0
        b = np.arange(lo, m, dtype=np.int64)
        clo = np.abs(a - b)
        if restrict:
            np.maximum(clo, b, out=clo)
        item, pc = _ranges(clo, np.maximum(np.minimum(a + b, top - a - b) - clo + 1, 0))
        pb = b[item]
        if pb.size == 0:
            continue
        step = max(1, cap // pb.size)
        for d0 in range(lo, m, step):
            dd = np.arange(d0, min(d0 + step, m), dtype=np.int64)
            d4 = np.repeat(dd, pb.size)
            b4 = np.tile(pb, dd.size)
            c4 = np.tile(pc, dd.size)
            cd = c4 + d4
            elo = np.abs(c4 - d4)
            if restrict:
                np.maximum(elo, b4, out=elo)
            ecnt = np.minimum(cd, top - cd) - elo + 1
            np.maximum(ecnt, 0, out=ecnt)
            for i, j in _pieces(ecnt, cap):
                item, e = _ranges(elo[i:j], ecnt[i:j])
                d5, b5, c5 = d4[i:j][item], b4[i:j][item], c4[i:j][item]
                bd = b5 + d5
                ae = a + e
                flo = np.maximum(np.abs(b5 - d5), np.abs(a - e))
                if restrict:
                    np.maximum(flo, b5 + (e < c5), out=flo)
                    np.maximum(flo, np.where(e == b5, c5, 0), out=flo)
                fcnt = np.minimum(np.minimum(bd, top - bd), np.minimum(ae, top - ae))
                fcnt -= flo - 1
                np.maximum(fcnt, 0, out=fcnt)
                for i2, j2 in _pieces(fcnt, _BLOCK):
                    item, f = _ranges(flo[i2:j2], fcnt[i2:j2])
                    yield a, (d5[i2:j2], b5[i2:j2], c5[i2:j2], e[i2:j2]), item, f


def sixtuple_chunks(tab: LevelTables, *, restrict: bool = True,
                    chunk: int = 200_000, budget: Optional[int] = None):
    """Yield admissible 6-tuples (a,b,c,d,e,f) as arrays of colors.

    All four vertex triples (a,b,c), (a,e,f), (b,d,f), (c,d,e) are
    admissible.  With restrict=True only a symmetry-reduced cover is
    produced: a must be the minimal color, and (b,c) lexicographically
    minimal among its images (c,b), (e,f), (f,e) under the symmetries
    that fix the a slot.  Every tetrahedral symmetry class keeps at
    least one representative (ties may keep several), which is all the
    max-scan needs, at roughly 1/24 of the full enumeration cost.

    Every condition is an interval bound.  In color indices (color =
    2 * index, m = (r-1)/2) a triple (i,j,k) is admissible exactly when
    |i-j| <= k <= i+j and i+j+k <= r-2, so once a, d, b, c are fixed, e
    runs over one interval set by (c,d,e), and for each e, f runs over
    one interval set by (b,d,f) and (a,e,f).  The cover adds a <= every
    slot, b <= c, e >= b, f >= b + [e < c], and f >= c when e == b.

    The tuples come in lexicographic (a, d, b, c, e, f) order, as six
    int64 arrays; every chunk holds exactly chunk tuples except the
    last, which holds the rest.  Each chunk is six fresh arrays of
    length chunk, filled from pieces of at most _BLOCK tuples, so memory
    is bounded by the chunk, not by the level.  At a level with fewer
    than chunk 6-tuples of colors (m**6) the arrays have m**6 entries.

    budget caps the number of tuples enumerated: BudgetExceeded is
    raised before any tuple past it is yielded.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk}")
    # the cover never exceeds m**6 tuples (m colors in each of six slots)
    cap = min(chunk, tab.m ** 6)
    total = 0
    fill = 0
    out = None
    for a, cols, item, f in _cover_pieces(tab.m, restrict):
        n = f.size
        total += n
        if budget is not None and total > budget:
            raise BudgetExceeded(
                f"6-tuple enumeration passed {budget} tuples at r={tab.r}"
            )
        s = 0
        while s < n:
            if out is None:
                out = tuple(np.empty(cap, dtype=np.int64) for _ in range(6))
            t = min(n, s + chunk - fill)
            dst = slice(fill, fill + t - s)
            out[0][dst] = 2 * a
            sel = item[s:t]
            for k, col in zip((3, 1, 2, 4), cols):
                np.multiply(col[sel], 2, out=out[k][dst])
            np.multiply(f[s:t], 2, out=out[5][dst])
            fill += t - s
            s = t
            if fill == chunk:
                yield out
                out, fill = None, 0
    if fill:
        yield tuple(x[:fill] for x in out)


def orbit_representatives(tab: LevelTables, tup):
    """Which tuples of a chunk are canonical, and their orbit sizes.

    A tuple is canonical when it is the lexicographic minimum of its 24
    tetrahedral images (qnum.SIXJ_SYMMETRIES); its orbit then has 24 //
    |stabilizer| members, the stabilizer being the symmetries that fix
    it.  Returns (keep, weight): a boolean mask over the chunk and the
    orbit size of each kept tuple.  Every canonical tuple has a minimal
    and (b,c) <= (c,b), (e,f), (f,e), so the restricted cover of
    sixtuple_chunks contains each class's representative exactly once.

    Tuples are compared as base-m integers of their color indices, one
    pass per symmetry.
    """
    idx = [np.asarray(x, dtype=np.int64) >> 1 for x in tup]
    m = tab.m

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


# ---------------------------------------------------------------------------
# per-level scan records


def bound_record(r: int, *, margin: float = 4.0, chunk: int = 200_000,
                 budget: Optional[int] = None):
    """Exhaustive 6j max at one level, with the growth-bound check.

    Returns (record, diagnostics).  The record's log_value is the level
    maximum of log|6j| and slope its (2 pi / r) normalization; the
    diagnostics report how many tuples were enumerated, how many were
    re-evaluated exactly, and whether every exact value stayed at or
    under the bound v8 + margin * log(r)/r.

    Screening: a tuple can only threaten the bound if even its
    cancellation-free upper bound comes within 1.0 (in log units) of the
    threshold; those are recomputed with the scalar evaluator, which
    escalates to high precision on its own when doubles cancel away.

    The screen runs on every usable core (see _screen_cover): the cover
    is dealt in blocks of _BLOCK tuples to forked processes, each of
    which sends back its tuple count, maxima and candidates.  These
    merge exactly, so the record and diagnostics are bit-identical for
    any process count and any chunk, and chunk bounds each process's
    memory.  The exact recheck runs in the calling process.
    """
    tab = LevelTables(r)
    lv = Level.of(r)
    thr_slope = V8 + margin * math.log(r) / r
    thr_log = thr_slope * r / (2 * math.pi)
    chunks = sixtuple_chunks(tab, restrict=True, chunk=chunk, budget=budget)
    ntuples, safe_max, worst_cancel, cand = _screen_cover(tab, chunks, thr_log - 1.0)
    exact_max = -math.inf
    excess = -math.inf
    for tup in sorted(set(cand)):
        info = sixj_info(*tup, lv)
        lgv = info["value"].log_abs()
        exact_max = max(exact_max, lgv)
        excess = max(excess, lgv - thr_log)
        worst_cancel = max(worst_cancel, float(info["cancel_digits"]))
    level_max = max(safe_max, exact_max)
    slope = (2 * math.pi / r) * level_max
    rec = ScanRecord(
        r=r, kind="sixj-bound", color_policy="exhaustive",
        log_value=level_max, slope=slope, target=V8,
        rel_gap=(slope - V8) / V8, cancel_digits=worst_cancel,
    )
    diag = {
        "tuples": ntuples,
        "rechecked": len(cand),
        "bound_ok": excess <= 1e-9,
        "excess": excess,
        "threshold_log": thr_log,
    }
    return rec, diag


def _cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _screen_cover(tab: LevelTables, chunks, hot_log: float):
    """bound_record's screen over the cover in chunks, on every usable core.

    Returns (tuples, safe_max, worst_cancel, cand) as _screen_share does
    for the whole cover.  The cover is dealt round-robin in blocks of
    _BLOCK tuples: _cores() - 1 forked processes take one share each and
    this process the first.  Every process enumerates the whole cover
    and skips the blocks that are not its own; a worker sends back only
    its four values.  Counts add, maxima of floats are exact and the
    candidates are rechecked as a sorted set, so the merge is exact.

    It stays in-process when one core is usable, when the fork start
    method is missing, while any other thread runs (a fork copies only
    the calling thread, and the locks the others hold; so never inside
    run_levels with threads > 1) and when the cover holds fewer than
    _cores() blocks, so that some process would get no full block.  A
    fork and its result cost about 5 ms on a 2-core box, the kernel time
    of some 16,000 tuples.  The cover is read that far before deciding,
    so a process holds at most max(chunk, _cores() * _BLOCK) tuples.  A
    worker's exception, BudgetExceeded included, is raised here, and no
    worker outlives the call.
    """
    import multiprocessing  # here, so that importing skeinvol stays as fast

    nproc = _cores()
    if (nproc > 1 and threading.active_count() == 1
            and "fork" in multiprocessing.get_all_start_methods()):
        head, seen = [], 0
        for tup in chunks:
            head.append(tup)
            seen += tup[0].size
            if seen >= nproc * _BLOCK:
                break
        else:
            nproc = 1
        chunks = _replay(head, chunks)
    else:
        nproc = 1
    if nproc == 1:
        return _screen_share(tab, chunks, hot_log)

    ctx = multiprocessing.get_context("fork")
    workers = []
    done = False
    try:
        for share in range(1, nproc):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_screen_worker, daemon=True,
                               args=(send, tab, chunks, hot_log, share, nproc))
            proc.start()
            send.close()
            workers.append((proc, recv))
        shares = [_screen_share(tab, chunks, hot_log, 0, nproc)]
        for proc, recv in workers:
            try:
                ok, out = recv.recv()
            except EOFError:
                raise RuntimeError("a bound sweep worker died without a result") from None
            if not ok:
                raise out
            shares.append(out)
        done = True
    finally:
        for proc, recv in workers:
            recv.close()
            if not done:
                proc.terminate()
            proc.join()
    return (sum(s[0] for s in shares), max(s[1] for s in shares),
            max(s[2] for s in shares), [t for s in shares for t in s[3]])


def _replay(head: list, rest):
    """The chunks in head, released as they are taken, then those of rest."""
    while head:
        yield head.pop(0)
    yield from rest


def _screen_worker(send, *args) -> None:
    """A forked process's side of _screen_cover: one share, sent back."""
    try:
        out = (True, _screen_share(*args))
    except Exception as err:  # _screen_cover raises it in the parent
        out = (False, err)
    send.send(out)
    send.close()


def _screen_share(tab: LevelTables, chunks, hot_log: float,
                  share: int = 0, nshares: int = 1):
    """Screen the tuples of the blocks k of _BLOCK tuples (counted over
    the whole cover) with k % nshares == share.

    Returns (tuples, safe_max, worst_cancel, cand): how many tuples were
    screened; the largest log|6j| and the worst finite cancellation
    among those whose upper bound log_ub stays under hot_log; and the
    tuples at or above it, for the exact recheck.
    """
    ntuples = 0
    safe_max = -math.inf
    worst_cancel = 0.0
    cand: list[tuple] = []
    start = 0  # index of the chunk's first tuple in the cover
    for tup in chunks:
        n = tup[0].size
        if nshares == 1:
            parts = [(0, n)]
        else:
            k = start // _BLOCK
            k += (share - k) % nshares
            parts = [(max(b * _BLOCK - start, 0), min((b + 1) * _BLOCK - start, n))
                     for b in range(k, -(-(start + n) // _BLOCK), nshares)]
        start += n
        for lo, hi in parts:
            part = tuple(x[lo:hi] for x in tup)
            res = batch_sixj(tab, *part)
            ntuples += hi - lo
            hot = res["log_ub"] >= hot_log
            if hot.any():
                idx = np.nonzero(hot)[0]
                for i in idx:
                    cand.append(tuple(int(x[i]) for x in part))
            cold = ~hot
            if cold.any():
                safe_max = max(safe_max, float(res["log"][cold].max()))
                fin = res["cancel"][cold]
                fin = fin[np.isfinite(fin)]
                if fin.size:
                    worst_cancel = max(worst_cancel, float(fin.max()))
    return ntuples, safe_max, worst_cancel, cand


def maximizer_record(r: int) -> ScanRecord:
    """The all-maximizing-color 6j at one level ((2 pi / r) log scale)."""
    c = maximizing_color(r)
    info = sixj_info(c, c, c, c, c, c, Level.of(r))
    lg = info["value"].log_abs()
    slope = (2 * math.pi / r) * lg
    return ScanRecord(
        r=r, kind="sixj-max", color_policy=f"maximizer[c={c}]",
        log_value=lg, slope=slope, target=V8, rel_gap=(slope - V8) / V8,
        cancel_digits=float(info["cancel_digits"]),
    )


def round_even_color(x: float, r: int) -> int:
    """Nearest even integer in the color set, ties toward zero."""
    lo = 2 * math.floor(x / 2)
    hi = lo + 2
    if x - lo < hi - x:
        c = lo
    elif hi - x < x - lo:
        c = hi
    else:
        c = lo if abs(lo) <= abs(hi) else hi
    return int(min(max(c, 0), r - 3))


# kind -> (volume target, spoke count, (spoke, rim) fractions of r).
# A dihedral angle alpha corresponds to the color r (pi - alpha)/(2 pi):
# the ideal square pyramid has lateral angles pi/2 and base angles pi/4
# (colors r/4 and 3r/8), the ideal pentagonal pyramid 3pi/5 and pi/5
# (colors r/5 and 2r/5), and the zero-angled pyramids put every edge at
# r/2.  Fraction tables published alongside the experiments quote half
# these values (spin rather than color units); the colors below are the
# ones that actually reproduce the stated volume limits.
_APPENDIX = {
    "sq-ideal": ("ideal-square-pyramid", 4, (1 / 4, 3 / 8)),
    "sq-zero": ("square-antiprism", 4, (1 / 2, 1 / 2)),
    "pent-ideal": ("ideal-pentagonal-pyramid", 5, (1 / 5, 2 / 5)),
    "pent-zero": ("pentagonal-antiprism", 5, (1 / 2, 1 / 2)),
}


def appendix_colors(kind: str, r: int) -> tuple[int, int]:
    """(spoke, rim) colors for one of the published wheel experiments."""
    _, _, (fs, fb) = _APPENDIX[kind]
    return round_even_color(fs * r, r), round_even_color(fb * r, r)


def wheel_log_invariant(r: int, n_spokes: int, s: int, b: int):
    """log |Y|, sign, and worst cancellation of a colored wheel.

    Spokes carry color s and the rim color b.  The closed forms, with
    u_i = sixj(s,s,i,b,b,b) and w_ij = sixj(s,i,j,b,b,b), are

        4 spokes   Y = sum_i Delta_i u_i^4
        5 spokes   Y = sum_ij Delta_i Delta_j (u_i u_j w_ij)^2

    evaluated in the log domain.  Fourth powers are nonnegative real
    whatever the i^quad phase; squares contribute (-1)^quad, which the
    sign accumulation tracks.  Raises ValueError when the coloring is
    inadmissible or the sum vanishes outright.
    """
    if n_spokes not in (4, 5):
        raise ValueError("closed forms cover 4- and 5-spoke wheels")
    tab = LevelTables(r)
    if not is_admissible_triple(s, b, b, r):
        raise ValueError(f"rim triple ({s},{b},{b}) inadmissible at r={r}")
    i = tab.colors
    i = i[np.asarray(tab.admissible3(s, s, i) & tab.admissible3(i, b, b))]
    if i.size == 0:
        raise ValueError(f"no admissible fan colors for wheel at r={r}")
    const = np.full(i.size, s, dtype=np.int64)
    rimc = np.full(i.size, b, dtype=np.int64)
    u = batch_sixj(tab, const, const, i, rimc, rimc, rimc)
    dlog = tab.dlog[i >> 1]
    dsign = tab.dsign[i >> 1]
    fin = u["cancel"][np.isfinite(u["cancel"])]
    worst_cancel = float(fin.max()) if fin.size else 0.0

    if n_spokes == 4:
        tl = dlog + 4.0 * u["log"]
        ts = dsign.astype(float)
    else:
        ii, jj = np.meshgrid(np.arange(i.size), np.arange(i.size), indexing="ij")
        ii, jj = ii.ravel(), jj.ravel()
        wmask = np.asarray(tab.admissible3(s, i[ii], i[jj]))
        ii, jj = ii[wmask], jj[wmask]
        cs = np.full(ii.size, s, dtype=np.int64)
        cb = np.full(ii.size, b, dtype=np.int64)
        w = batch_sixj(tab, cs, i[ii], i[jj], cb, cb, cb)
        fin = w["cancel"][np.isfinite(w["cancel"])]
        if fin.size:
            worst_cancel = max(worst_cancel, float(fin.max()))
        tl = (
            dlog[ii] + dlog[jj]
            + 2.0 * (u["log"][ii] + u["log"][jj] + w["log"])
        )
        quad = u["quad"][ii] + u["quad"][jj] + w["quad"]
        ts = (dsign[ii] * dsign[jj] * np.where(quad % 2 == 0, 1, -1)).astype(float)

    good = np.isfinite(tl)
    tl, ts = tl[good], ts[good]
    if tl.size == 0:
        raise ValueError(f"wheel invariant vanished at r={r}")
    mx = float(tl.max())
    acc = float(np.sum(ts * np.exp(tl - mx)))
    absacc = float(np.sum(np.exp(tl - mx)))
    if acc == 0.0:
        raise ValueError(f"wheel invariant vanished at r={r}")
    log_y = mx + math.log(abs(acc))
    worst_cancel = max(worst_cancel, math.log10(max(absacc / abs(acc), 1.0)))
    return log_y, (1.0 if acc > 0 else -1.0), worst_cancel


def wheel_log_invariant_mp(r: int, n_spokes: int, s: int, b: int,
                           prec: Optional[int] = None):
    """High-precision wheel closed form; same contract as the float twin.

    The vertex normalizations enter only as Theta^(-2) (fourth powers)
    or Theta^(-1) (squares), so no square-root branches appear and the
    whole sum is carried in signed mp floats.  The thetas and
    Delta_i = [i+1] come from the level's fixed-point factorial tables
    (qnum.MpFactorials), the z-sums from its fan tables for (s, b)
    (qnum.MpFan).  Precision starts at 2r + 256 bits (or
    SKEIN_PRECISION_BITS if larger) and doubles until the observed
    cancellation leaves at least 50 trusted bits.
    """
    lv = Level.of(r)
    if not is_admissible_triple(s, b, b, r):
        raise ValueError(f"rim triple ({s},{b},{b}) inadmissible at r={r}")
    ilist = [i for i in lv.colors
             if is_admissible_triple(s, s, i, lv) and is_admissible_triple(i, b, b, lv)]
    if not ilist:
        raise ValueError(f"no admissible fan colors for wheel at r={r}")
    if prec is None:
        prec = mp_precision(2 * r + 256)
    for _ in range(5):
        tab = lv.mp_factorials(prec)
        fan = tab.fan(s, b)
        with MP_LOCK, mp.workprec(prec):
            th_sbb = tab.theta(s, b, b)
            total = mp.mpf(0)
            abstot = mp.mpf(0)
            if n_spokes == 4:
                for i in ilist:
                    th = tab.theta(s, s, i) * th_sbb ** 2 * tab.theta(i, b, b)
                    term = tab.qint(i + 1) * fan.zsum(s, i) ** 4 / th ** 2
                    total += term
                    abstot += abs(term)
            else:
                # half[i] = Delta_i u_i^2 / Theta(i,b,b) is all of a pair
                # term that depends on i alone, so a pair only adds w_ij
                # and Theta(s,i,j)
                half = {}
                for i in ilist:
                    th_ibb = tab.theta(i, b, b)
                    th = tab.theta(s, s, i) * th_sbb ** 2 * th_ibb
                    half[i] = tab.qint(i + 1) * fan.zsum(s, i) ** 2 / (th * th_ibb)
                for i in ilist:
                    # the j >= i of ilist with (s, i, j) admissible are one
                    # run of it: max(i, |s-i|) <= j <= min(s+i, 2r-4-s-i)
                    lo = bisect.bisect_left(ilist, max(i, abs(s - i)))
                    hi = bisect.bisect_right(ilist, min(s + i, 2 * r - 4 - s - i))
                    for j in ilist[lo:hi]:
                        term = (half[i] * half[j] * fan.zsum(i, j) ** 2
                                / (tab.theta(s, i, j) * th_sbb))
                        if j != i:
                            term *= 2
                        total += term
                        abstot += abs(term)
            if total == 0:
                raise ValueError(f"wheel invariant vanished at r={r}")
            cancel_bits = float(mp.log(abstot / abs(total), 2))
            if cancel_bits <= prec - 50:
                log_y = float(mp.log(abs(total)))
                sign = 1.0 if total > 0 else -1.0
                return log_y, sign, cancel_bits * math.log10(2.0)
        prec *= 2
    raise ValueError(f"wheel sum at r={r} cancels beyond {prec} bits")


def appendix_record(kind: str, r: int) -> ScanRecord:
    """One level of a published wheel-graph experiment.

    kind is sq-ideal, sq-zero, pent-ideal or pent-zero; the spoke and
    rim colors come from the dihedral angles of the target polyhedron
    (see appendix_colors), and the actual colors used are recorded in
    the color_policy field.  The zero-angled colorings sit at the
    maximal-growth color where the closed forms cancel catastrophically
    in doubles, so the evaluation escalates to the mp twin whenever the
    double pass loses more than 8 digits.
    """
    target_name, n_spokes, _ = _APPENDIX[kind]
    s, b = appendix_colors(kind, r)
    target = named_volumes()[target_name]
    try:
        log_y, _, worst_cancel = wheel_log_invariant(r, n_spokes, s, b)
        need_mp = worst_cancel > 8.0
    except ValueError as err:
        if "vanished" not in str(err):
            raise
        need_mp = True
    if need_mp:
        log_y, _, worst_cancel = wheel_log_invariant_mp(r, n_spokes, s, b)
    slope = (math.pi / r) * log_y
    return ScanRecord(
        r=r, kind=kind, color_policy=f"{kind}[spoke={s} rim={b}]",
        log_value=log_y, slope=slope, target=target,
        rel_gap=(slope - target) / target, cancel_digits=worst_cancel,
    )


def tv_tet_record(r: int, *, budget: Optional[int] = None,
                  chunk: int = 500_000) -> ScanRecord:
    """Full state sum sum_col |Y(tet,col)| = sum |6j|^2 at one level.

    Only one tuple per tetrahedral class is evaluated (its canonical
    representative, see orbit_representatives), weighted by its orbit
    size.  The weighted terms are summed as a stream: a running maximum
    of the logs, with the partial sum rescaled whenever it rises, so
    memory is bounded by the chunk, not by the level.  cancel_digits is
    the worst over the representatives; budget caps the enumerated
    cover tuples (sixtuple_chunks with restrict=True).
    """
    tab = LevelTables(r)
    mx = -math.inf  # running max of log |6j|^2
    shifted = 0.0   # sum of weight * |6j|^2 / exp(mx)
    worst_cancel = 0.0
    for tup in sixtuple_chunks(tab, restrict=True, chunk=chunk, budget=budget):
        keep, weight = orbit_representatives(tab, tup)
        tup = tuple(x[keep] for x in tup)  # frees the rest of the chunk
        res = batch_sixj(tab, *tup)
        fin = np.isfinite(res["log"])
        if fin.any():
            lg = 2.0 * res["log"][fin]
            top = float(lg.max())
            if top > mx:
                shifted *= math.exp(mx - top)
                mx = top
            shifted += float(np.sum(weight[fin] * np.exp(lg - mx)))
        fin = res["cancel"][np.isfinite(res["cancel"])]
        if fin.size:
            worst_cancel = max(worst_cancel, float(fin.max()))
    log_tv = mx + math.log(shifted)
    slope = (math.pi / r) * log_tv
    return ScanRecord(
        r=r, kind="tv-tet", color_policy="full-TV-sweep", log_value=log_tv,
        slope=slope, target=V8, rel_gap=(slope - V8) / V8,
        cancel_digits=worst_cancel,
    )


def family_record(r: int, m: int = 1) -> ScanRecord:
    """Maximizing-color invariant of the m-move family graph (m = 0, 1).

    m = 0 is the tetrahedron, Y = sixj^2; m = 1 the blown-up tetrahedron
    (triangular prism), Y = sixj^4.  The prism identity is checked
    against the graph evaluator in the tests; here it keeps the series
    at one scalar 6j per level up to r = 301.
    """
    if m not in (0, 1):
        raise ValueError("fast path covers m = 0 and m = 1 only")
    c = maximizing_color(r)
    info = sixj_info(c, c, c, c, c, c, Level.of(r))
    lg = (2 + 2 * m) * info["value"].log_abs()
    slope = (math.pi / r) * lg
    target = (m + 1) * V8
    return ScanRecord(
        r=r, kind=f"family-m{m}", color_policy=f"maximizer[c={c}]",
        log_value=lg, slope=slope, target=target,
        rel_gap=(slope - target) / target,
        cancel_digits=float(info["cancel_digits"]),
    )


# ---------------------------------------------------------------------------
# level orchestration


def run_levels(fn: Callable[[int], ScanRecord], rs: Sequence[int], *,
               threads: int = 1, timings: bool = False,
               mark: Optional[tuple[str, str]] = None) -> list[ScanRecord]:
    """Evaluate fn(r) over levels, in parallel, assembled in r order.

    Each level is computed independently, so the result list (and any
    CSV built from it) is identical for every thread count.  With
    timings=True the per-level wall time is stored on the records --
    leave it off when byte-stable output matters.  mark=(kind, policy)
    converts a BudgetExceeded at one level into a placeholder record
    (policy suffixed with "!budget") instead of aborting the scan.
    """
    rs = sorted(set(int(r) for r in rs))

    def one(r: int) -> ScanRecord:
        t0 = time.perf_counter()
        try:
            rec = fn(r)
        except BudgetExceeded:
            if mark is None:
                raise
            kind, policy = mark
            rec = ScanRecord(
                r=r, kind=kind, color_policy=policy + "!budget",
                log_value=math.nan, slope=math.nan, target=None,
                rel_gap=None, cancel_digits=0.0,
            )
        if timings:
            rec.wall_ms = (time.perf_counter() - t0) * 1e3
        return rec

    if threads <= 1:
        return [one(r) for r in rs]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        futs = {r: ex.submit(one, r) for r in rs}
        return [futs[r].result() for r in rs]

"""Large-level numerical scans of 6j and invariant growth rates.

The graph evaluator is exact but desk-scale; the conjectures ask how
(pi/r) log |invariant| behaves as the level r grows.  This module keeps
those scans feasible with per-level numpy tables and a batched
log-domain 6j evaluator:

* the batched 6j (batch_sixj) sorts each block of 6-tuples by the
  length of its z-range, so every term of every alternating z-sum is
  computed exactly once and no lane is padded.  Its work arrays live in
  a workspace (_SixjWork) that lasts for one level's screen or TV sweep,
  so the blocks reuse them instead of faulting fresh memory in.  On a
  2-core box it runs about 3.7 M tuples/s per process on the bound sweep
  at r = 41..65;
* the 6-tuple enumeration (sixtuple_chunks) reads every admissibility
  and cover condition as an interval bound, so each slot's colors are
  one range given the earlier slots; the ranges are expanded with
  repeat/cumsum and yielded in blocks of _BLOCK tuples.  The block is
  the one unit of the 6-tuple stream: the enumeration, the kernel and
  the forked screen all work on it.  On a 2-core box the enumeration
  lists the 34.7 M-tuple cover at r = 101 in about 0.8 s;
* the exhaustive 6j bound sweep enumerates admissible 6-tuples up to a
  symmetry restriction, screens them with a cancellation-free upper
  bound, and re-evaluates only the near-maximal ones exactly.  Each
  level's screen runs on every usable core: the blocks of the cover are
  dealt round-robin to forked processes (see _screen_cover), which send
  back only counts, maxima and candidates, so the record is
  bit-identical to one process's.  It stays in-process on one core,
  without the fork start method, while other threads of the caller run,
  and on covers with fewer than one block per core;
* the full TV sweep (tv_tet_record) evaluates one tuple per tetrahedral
  class of the same cover, weighted by its orbit size.  Its orbit test
  (orbit_representatives) reads only a block's tie rows: the rows where
  an image of a cover tuple can equal or undercut it, compared with
  those images alone;
* the wheel sums evaluate every n-spoke wheel, n >= 4, by one fan
  transfer loop over 6j squares, Y = a^T M^(n-4) v; the square and
  pentagonal pyramids of the published experiments are n = 4 and 5.
  The zero-angled colorings cancel hundreds of bits, so they run on the
  high-precision twin.  Its z-sums read the fan tables of qnum.MpFan,
  built per (spoke, rim) pair over the level's fixed-point factorials,
  so each z-term is one integer multiply, the row sums are added in
  integers too, and the factorials come from a rotation recurrence
  instead of r mpmath sines.  Its link loop, most of its time, deals
  whole rows of link pairs to forked processes (see
  wheel_log_invariant_mp) from 2 * _FORK_LINKS links on.  On a 2-core
  box with pure-Python mpmath, pent-zero at r = 321 takes about 0.25 s
  (0.36 s on one core) and the whole pent-zero grid of
  reproduce-appendix about 1.7 s (2 s on one core);
* the family fast path uses Y(prism, all-max) = sixj(max,...)^4 (one
  6j per level), checked against the graph engine at small levels in
  the test suite.

run_levels evaluates the levels of a scan one after another, in level
order.  Two kinds of work are spread over processes within a level, both
through _fork_shares: the screen of the bound sweep and the link loop
of the high-precision wheel sum.  Their records are bit-identical for
any core count.
The numpy tables every kernel here reads (lf, fneg) are the level's one
factorial table on qnum.Level, which the scalar 6j reads too; the 6j
kernel's sign and reversed tables are built from them there.  The wheel
sums start at the fixed floor of 2r + 256 bits; nothing here reads the
environment.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from typing import Callable, Optional, Sequence

import numpy as np

import mpmath as mp

from .errors import BudgetExceeded, Inadmissible
from .hypvol import V8, ScanRecord, family_max_volume, named_volumes
from .qnum import (
    MP_LOCK,
    SIXJ_SYMMETRIES,
    Level,
    _fx_norm,
    _fx_prod,
    _fx_sum,
    _sum_ranges,
    _vertex_triples,
    fusion_colors,
    is_admissible_triple,
    sixj_info,
)
from .yokota import maximizing_color

__all__ = [
    "appendix_colors",
    "appendix_record",
    "batch_sixj",
    "bound_record",
    "family_record",
    "orbit_representatives",
    "round_even_color",
    "run_levels",
    "sixtuple_chunks",
    "tv_tet_record",
    "wheel_log_invariant",
    "wheel_log_invariant_mp",
]


_BLOCK = 32_768  # tuples per block of the 6-tuple stream and of the kernel: they stay in the L2 cache
_TERMS = 32_768  # z-terms kept at once (9 bytes each), whatever the level


def batch_sixj(lv: Level, a, b, c, d, e, f, *, work: Optional[_SixjWork] = None) -> dict:
    """Batched 6j evaluation in the log domain.

    The six inputs are equal-length integer arrays of even colors that
    form admissible 6-tuples.  Returns a dict of arrays, in input order:

      log     log |6j|            (-inf where the z-sum is 0 to rounding)
      sign    sign of the real z-sum (0 where log is -inf)
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

    The blocks run in the scratch arrays of one _SixjWork, made per call.
    A sweep passes its own as work, one per level, so that the arrays
    are reused from block to block; the result is then views into work,
    valid until its next call.  The inputs must be admissible: the
    kernel's gathers clip their indices instead of checking them.
    """
    cols = [np.asarray(x, dtype=np.int64) for x in (a, b, c, d, e, f)]
    n = cols[0].shape[0]
    if work is None:
        work = _SixjWork()
    out = work.outputs(n)
    for i in range(0, n, _BLOCK):
        part = slice(i, i + _BLOCK)
        _sixj_block(lv, [x[part] for x in cols], work, {k: v[part] for k, v in out.items()})
    return out


class _SixjWork:
    """The scratch arrays of batch_sixj, reused from block to block.

    The kernel writes every intermediate into these arrays with out=.
    Made afresh per block, some twenty block-sized arrays would go back
    to the system at the end of each block and be faulted in again at
    the next.  The arrays grow on demand to the largest block and term
    list seen, so memory stays bounded by the block, not by the level.
    The workspace holds scratch only; the level's tables are on Level.
    It belongs to one caller on one thread (there is no module-level
    one) and carries no result from one call to the next.
    """

    def __init__(self):
        self._cap = self._terms_cap = 0
        self._out_cap = -1  # the first outputs call allocates, even for n = 0

    def block(self, n: int):
        """(ints, floats, bools, key): rows of n int64, float and bool
        scratch entries, and an int16 sort key of n entries."""
        if n > self._cap:
            self._cap = n
            self._ints = np.empty((11, n), dtype=np.int64)
            self._floats = np.empty((6, n))
            self._bools = np.empty((2, n), dtype=bool)
            self._key = np.empty(n, dtype=np.int16)
        return (self._ints[:, :n], self._floats[:, :n], self._bools[:, :n],
                self._key[:n])

    def terms(self, n: int, slack: int):
        """The flat term buffers: n term logs and n term signs, grown to
        n + slack entries when they must grow."""
        if n > self._terms_cap:
            self._terms_cap = n + slack
            self._tl = np.empty(self._terms_cap)
            self._neg = np.empty(self._terms_cap, dtype=bool)
        return self._tl[:n], self._neg[:n]

    def outputs(self, n: int) -> dict:
        """batch_sixj's five result arrays, as views of n entries."""
        if n > self._out_cap:
            self._out_cap = n
            self._out = {"log": np.empty(n), "sign": np.empty(n),
                         "quad": np.empty(n, dtype=np.int64),
                         "cancel": np.empty(n), "log_ub": np.empty(n)}
        return {k: v[:n] for k, v in self._out.items()}


def _sixj_block(lv: Level, cols, work: _SixjWork, out: dict) -> None:
    """batch_sixj on one non-empty block, written into the views in out."""
    n = cols[0].shape[0]
    r, lf, fneg, zneg = lv.r, lv.lf, lv.fneg, lv.zneg
    ints, floats, bools, key = work.block(n)
    t, q = _sum_ranges(cols, out=ints[:7])
    zlo, nz, zs, nzs = ints[7:]
    preflog, mlog, acc, absacc, tmp, tmp2 = floats
    b1, b2 = bools

    # Theta(x,y,w) = (-1)^s [s+1]! / ([s-x]! [s-y]! [s-w]!), and t holds s
    preflog.fill(0.0)
    quad = out["quad"]
    quad.fill(0)
    for s, tri in zip(t, _vertex_triples(cols)):
        lf[1:].take(s, out=tmp, mode="clip")
        zneg.take(s, out=b1, mode="clip")
        for x in tri:
            np.subtract(s, x, out=zs)
            lf.take(zs, out=tmp2, mode="clip")
            tmp -= tmp2
            fneg.take(zs, out=b2, mode="clip")
            b1 ^= b2
        tmp *= 0.5
        preflog -= tmp
        quad += b1

    np.maximum(t[0], t[1], out=zlo)
    np.maximum(zlo, t[2], out=zlo)
    np.maximum(zlo, t[3], out=zlo)
    np.minimum(q[0], q[1], out=nz)
    np.minimum(nz, q[2], out=nz)
    np.minimum(nz, r - 2, out=nz)
    nz -= zlo  # >= 0 on admissible tuples
    if r < 2**15:
        np.negative(nz, out=key, casting="unsafe")  # stable sorts of 16-bit keys are radix sorts
    else:
        key = -nz
    order = np.argsort(key, kind="stable")
    nz.take(order, out=nzs, mode="clip")
    zlo.take(order, out=zs, mode="clip")
    # z = zlo + k.  Each factorial index is a fixed array plus or minus
    # k, so it is read from the table shifted by k instead:
    #   [z+1]!   -> lf[k+1:][zlo]
    #   [z-t_i]! -> lf[k:][zlo - t_i]
    #   [q_j-z]! -> rev[k:][(r-1) - (q_j - zlo)]   with rev = lf[::-1]
    # and the parity of z rides on zneg.  lo and hi overwrite t and q;
    # the unsorted zlo and nz are spent, and serve as scratch.
    np.add(zs, r - 1, out=nz)
    for base, xs in ((zs, t), (nz, q)):
        for x in xs:
            x.take(order, out=zlo, mode="clip")
            np.subtract(base, zlo, out=x)
    lo, hi = t, q

    acc.fill(0.0)
    absacc.fill(0.0)
    np.add(nzs, 1, out=zlo)
    kept = np.cumsum(zlo, out=zlo)
    cuts = np.searchsorted(kept, np.arange(_TERMS, kept[-1], _TERMS), side="right").tolist()
    for part in map(slice, [0, *cuts], [*cuts, n]):
        _zsum_sorted(lv, work, (tmp, b1), zs[part], [x[part] for x in lo], [x[part] for x in hi],
                     nzs[part], mlog[part], acc[part], absacc[part])

    # back to input order
    for arr in (acc, absacc, mlog):
        np.copyto(tmp, arr)
        arr[order] = tmp

    # A 6j that is exactly 0 leaves rounding noise in acc.  A term's log
    # is lf[z+1] less seven lf entries whose indices sum to z.  lf is a
    # cumulative sum of up to r - 1 logs, and the rounding made at step j
    # of it (at most u max|lf|, u = 2^-53) reaches every later entry
    # alike, so it enters the term's log with a coefficient c_j where
    # sum_j |c_j| <= 2z + 1 < 2r.  Allowing 32 u max|lf| for the term's
    # own subtractions, a term's relative error is at most
    # E = (2r + 32) u max|lf| = (r + 16) max|lf| 2^-52 (lv.zero_tol),
    # and a z-sum with |acc| <= E absacc is taken as 0.  cancel stays as
    # measured.
    zero, acc0 = b1, b2
    np.multiply(lv.zero_tol, absacc, out=tmp)
    np.abs(acc, out=tmp2)
    np.less_equal(tmp2, tmp, out=zero)
    np.equal(acc, 0.0, out=acc0)
    preflog += mlog
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(tmp2, out=tmp2)
        np.add(preflog, tmp2, out=out["log"])
        np.copyto(out["log"], -np.inf, where=zero)
        np.log(absacc, out=tmp)
        np.add(preflog, tmp, out=out["log_ub"])
        np.abs(acc, out=tmp)
        np.copyto(tmp, 1.0, where=acc0)
        np.divide(absacc, tmp, out=tmp)
        np.maximum(tmp, 1.0, out=tmp)
        np.log10(tmp, out=out["cancel"])
        np.copyto(out["cancel"], np.inf, where=acc0)
    np.sign(acc, out=out["sign"])
    np.copyto(out["sign"], 0.0, where=zero)


def _zsum_sorted(lv: Level, work: _SixjWork, scratch, zlo, lo, hi, nz, mlog, acc, absacc) -> None:
    """The z-sums of tuples sorted by nz, longest first, into the views
    mlog (largest term log), acc and absacc (signed and absolute sums of
    exp(term - mlog)).  The first loop keeps every term it computes, the
    terms of step k one after another in work's term buffers; scratch is
    a float and a bool array at least as long as the views."""
    lf, fneg, rev, rneg, zneg = lv.lf, lv.fneg, lv.rev, lv.rneg, lv.zneg
    live = np.cumsum(np.bincount(nz)[::-1])[::-1].tolist()  # live[k] = #{nz >= k}
    tls, negs = work.terms(sum(live), lv.r)  # a piece holds under _TERMS + r terms
    tmp, bmp = scratch
    steps = []
    start = 0
    for k, m in enumerate(live):
        tl, neg = tls[start:start + m], negs[start:start + m]
        start += m
        tm, bm = tmp[:m], bmp[:m]
        lf[k + 1:].take(zlo[:m], out=tl, mode="clip")
        zneg[k:].take(zlo[:m], out=neg, mode="clip")
        for table, sgn, ixs in ((lf[k:], fneg[k:], lo), (rev[k:], rneg[k:], hi)):
            for ix in ixs:
                ix = ix[:m]
                table.take(ix, out=tm, mode="clip")
                tl -= tm
                sgn.take(ix, out=bm, mode="clip")
                neg ^= bm
        if k == 0:
            mlog[:] = tl
        else:
            np.maximum(mlog[:m], tl, out=mlog[:m])
        steps.append((tl, neg))
    for tl, neg in steps:
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


def sixtuple_chunks(lv: Level, *, restrict: bool = True, budget: Optional[int] = None):
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
    int64 arrays, in blocks of exactly _BLOCK tuples except the last,
    which holds the rest.  Each block is six fresh arrays filled from
    the pieces of _cover_pieces, so memory is bounded by the block, not
    by the level.

    budget caps the number of tuples enumerated: BudgetExceeded is
    raised before any tuple past it is yielded.
    """
    total = 0
    fill = 0
    out = None
    for a, cols, item, f in _cover_pieces(lv.m, restrict):
        n = f.size
        total += n
        if budget is not None and total > budget:
            raise BudgetExceeded(
                f"6-tuple enumeration passed {budget} tuples at r={lv.r}"
            )
        s = 0
        while s < n:
            if out is None:
                out = tuple(np.empty(_BLOCK, dtype=np.int64) for _ in range(6))
            t = min(n, s + _BLOCK - fill)
            dst = slice(fill, fill + t - s)
            out[0][dst] = 2 * a
            sel = item[s:t]
            for k, col in zip((3, 1, 2, 4), cols):
                np.multiply(col[sel], 2, out=out[k][dst])
            np.multiply(f[s:t], 2, out=out[5][dst])
            fill += t - s
            s = t
            if fill == _BLOCK:
                yield out
                out, fill = None, 0
    if fill:
        yield tuple(x[:fill] for x in out)


# The images of a cover tuple t that can tie or undercut it, as (slot
# pairs equal on the rows where they can, leading slots tied there,
# symmetries).  An image starts with t[g[0]], which is at least a on the
# cover, so only the g with t[g[0]] == a count; of those, the three
# non-identity g with g[0] == 0 also need (t[g[1]], t[g[2]]) == (b, c),
# since the cover has (b, c) <= (t[g[1]], t[g[2]]).
_TIE_GROUPS = tuple(
    [(((g[1], 1), (g[2], 2)), 3, (g,)) for g in SIXJ_SYMMETRIES[1:] if g[0] == 0]
    + [(((k, 0),), 1, tuple(g for g in SIXJ_SYMMETRIES if g[0] == k)) for k in range(1, 6)]
)


def _orbit_key(idx, order, m):
    """The base-m integer of the color indices idx read in slot order
    (at least two slots)."""
    k = idx[order[0]] * m
    for i in order[1:-1]:
        k += idx[i]
        k *= m
    k += idx[order[-1]]
    return k


def orbit_representatives(lv: Level, tup):
    """Which tuples of a block are canonical, and their orbit sizes.

    tup must be a block of the restricted cover (sixtuple_chunks with
    restrict=True): a is the minimal color and (b,c) <= (c,b), (e,f),
    (f,e).  A tuple is canonical when it is the lexicographic minimum of
    its 24 tetrahedral images (qnum.SIXJ_SYMMETRIES); its orbit then has
    24 // |stabilizer| members, the stabilizer being the symmetries that
    fix it.  Returns (keep, weight): a boolean mask over the block and
    the orbit size of each kept tuple.  Every canonical tuple meets the
    cover's conditions, so the cover holds each class's representative
    exactly once.

    On the cover a tuple is strictly below every image outside
    _TIE_GROUPS' tie rows, so only those rows are compared: for each
    group, the rows where its slot pairs are equal, and there only the
    slots after the tied ones, as base-m integers of the color indices.
    Every other row keeps weight 24.
    """
    idx = [np.asarray(x, dtype=np.int64) >> 1 for x in tup]
    m = lv.m
    keep = np.ones(idx[0].size, dtype=bool)
    stab = np.ones(idx[0].size, dtype=np.int64)
    for pairs, tied, syms in _TIE_GROUPS:
        rows = np.flatnonzero(np.logical_and.reduce([idx[i] == idx[j] for i, j in pairs]))
        sub = [x[rows] for x in idx]
        own = _orbit_key(sub, SIXJ_SYMMETRIES[0][tied:], m)
        least, fixed = keep[rows], stab[rows]
        for g in syms:
            img = _orbit_key(sub, g[tied:], m)
            least &= own <= img
            fixed += own == img
        keep[rows], stab[rows] = least, fixed
    return keep, 24 // stab[keep]


# ---------------------------------------------------------------------------
# per-level scan records


def bound_record(r: int, *, margin: float = 4.0, budget: Optional[int] = None):
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

    The screen runs on every usable core (see _screen_cover): the
    blocks of the cover are dealt to forked processes, each of which
    sends back its tuple count, maxima and candidates.  These merge
    exactly, so the record and diagnostics are bit-identical for any
    process count.  The exact recheck runs in the calling process.
    """
    lv = Level.of(r)
    thr_slope = V8 + margin * math.log(r) / r
    thr_log = thr_slope * r / (2 * math.pi)
    blocks = sixtuple_chunks(lv, restrict=True, budget=budget)
    ntuples, safe_max, worst_cancel, cand = _screen_cover(lv, blocks, thr_log - 1.0)
    exact_max = -math.inf
    excess = -math.inf
    for tup in sorted(set(cand)):
        info = sixj_info(*tup, lv)
        lgv = info["value"].log_abs()
        exact_max = max(exact_max, lgv)
        excess = max(excess, lgv - thr_log)
        worst_cancel = max(worst_cancel, float(info["cancel_digits"]))
    level_max = max(safe_max, exact_max)
    rec = ScanRecord.at(r, "sixj-bound", "exhaustive", level_max, target=V8,
                        cancel_digits=worst_cancel, per=2 * math.pi)
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


def _fork_shares(fn: Callable[[int, int], object], nshares: int) -> list:
    """fn(share, nshares) for every share, in share order: shares 1 ..
    nshares - 1 each in a forked process, share 0 in this one.

    nshares is the most shares the caller's work can use; it is cut to
    _cores(), and to 1 when the fork start method is missing or while
    any other thread of the caller runs (a fork copies only the calling
    thread, and the locks the others hold).  With one share fn runs here
    alone and nothing is forked or imported.  A worker sends back only
    fn's result; a worker's exception is raised here, a worker that exits
    without a result gives RuntimeError, and no worker outlives the call.
    """
    nshares = min(nshares, _cores())
    if nshares < 2 or threading.active_count() > 1:
        return [fn(0, 1)]
    import multiprocessing  # here, so that importing skeinvol stays as fast

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(0, 1)]

    ctx = multiprocessing.get_context("fork")
    workers = []
    done = False
    try:
        for share in range(1, nshares):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_fork_worker, daemon=True,
                               args=(send, fn, share, nshares))
            proc.start()
            send.close()
            workers.append((proc, recv))
        results = [fn(0, nshares)]
        for proc, recv in workers:
            try:
                ok, out = recv.recv()
            except EOFError:
                raise RuntimeError("a forked worker died without a result") from None
            if not ok:
                raise out
            results.append(out)
        done = True
    finally:
        for proc, recv in workers:
            recv.close()
            if not done:
                proc.terminate()
            proc.join()
    return results


def _fork_worker(send, fn, share: int, nshares: int) -> None:
    """A forked process's side of _fork_shares: one share, sent back."""
    try:
        out = (True, fn(share, nshares))
    except Exception as err:  # _fork_shares raises it in the parent
        out = (False, err)
    send.send(out)
    send.close()


def _screen_cover(lv: Level, blocks, hot_log: float):
    """bound_record's screen over the cover's blocks, on every usable core.

    Returns (tuples, safe_max, worst_cancel, cand) as _screen_share does
    for the whole cover.  The blocks are dealt round-robin to the shares
    of _fork_shares, one share per usable core.  Every process
    enumerates the whole cover and skips the blocks that are not its
    own; a worker sends back only its four values.  Counts add, maxima
    of floats are exact and the candidates are rechecked as a sorted
    set, so the merge is exact.

    Besides _fork_shares' own conditions, it stays in one share when the
    cover holds fewer than _cores() full blocks, so that some process
    would get no full block.  A fork and its result cost about 5 ms on a
    2-core box, the kernel time of some 16,000 tuples.  The first
    _cores() blocks are read before deciding, so a process holds at most
    _cores() + 1 blocks.  A share's BudgetExceeded is raised here.
    """
    nproc = _cores()
    head = list(itertools.islice(blocks, nproc))
    # only the last block of the cover can be short
    if len(head) < nproc or head[-1][0].size < _BLOCK:
        nproc = 1
    blocks = itertools.chain(head, blocks)
    del head  # the chain then frees the head blocks once it has passed them
    shares = _fork_shares(lambda share, n: _screen_share(lv, blocks, hot_log, share, n), nproc)
    return (sum(s[0] for s in shares), max(s[1] for s in shares),
            max(s[2] for s in shares), [t for s in shares for t in s[3]])


def _screen_share(lv: Level, blocks, hot_log: float,
                  share: int = 0, nshares: int = 1):
    """Screen the blocks k of the cover with k % nshares == share.

    Returns (tuples, safe_max, worst_cancel, cand): how many tuples were
    screened; the largest log|6j| and the worst finite cancellation
    among those whose upper bound log_ub stays under hot_log; and the
    tuples at or above it, for the exact recheck.  The blocks of the
    other shares are enumerated too, so a budget is checked alike in
    every share.
    """
    ntuples = 0
    safe_max = -math.inf
    worst_cancel = 0.0
    cand: list[tuple] = []
    work = _SixjWork()
    for tup in itertools.islice(blocks, share, None, nshares):
        res = batch_sixj(lv, *tup, work=work)
        ntuples += tup[0].size
        hot = res["log_ub"] >= hot_log
        for i in np.flatnonzero(hot).tolist():
            cand.append(tuple(int(x[i]) for x in tup))
        cold = ~hot
        safe_max = max(safe_max, float(res["log"].max(where=cold, initial=-math.inf)))
        fin = cold & np.isfinite(res["cancel"])
        worst_cancel = max(worst_cancel, float(res["cancel"].max(where=fin, initial=-math.inf)))
    return ntuples, safe_max, worst_cancel, cand


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
# ones that actually reproduce the stated volume limits.  This table owns which
# experiment fits which wheel: scan's ideal policies are named after their
# targets, and zero-angled picks one of the others by the wheel's spoke count.
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


def _fan_colors(r: int, n_spokes: int, s: int, b: int):
    """The checks both wheel twins make, then the level, the fan's end
    colors ((s,s,i) and (i,b,b) admissible) and all colors a fan path
    visits: its middle colors, only for n >= 6, need (i,b,b).  Both lists
    are read off qnum.fusion_colors and run from 0 in steps of 2, so the
    ends are the first colors of the rim, and color c is at index c/2."""
    if n_spokes < 4:
        raise ValueError(f"the fan transfer matrix needs at least 4 spokes, not {n_spokes}")
    lv = Level.of(r)
    if not is_admissible_triple(s, b, b, r):
        raise Inadmissible(f"rim triple ({s},{b},{b}) inadmissible at r={r}")
    rim = fusion_colors(b, b, lv)
    ends = rim[:len(fusion_colors(s, s, lv))]
    return lv, ends, ends if n_spokes < 6 else rim


def _fan_links(lv: Level, s: int, path):
    """The link pairs (i, j) of a fan path, row-major: i and j on the
    path with (s, i, j) admissible."""
    return [(i, j) for i in path for j in fusion_colors(s, i, lv) if j <= path[-1]]


def _row_logsum(rows, tl, sign, m: int):
    """log |sum| and sign of the terms sign * exp(tl) in each row below m,
    with a running max per row; -inf for a row without finite terms."""
    fin = np.isfinite(tl)
    rows, tl, sign = rows[fin], tl[fin], np.broadcast_to(sign, fin.shape)[fin]
    mx = np.full(m, -np.inf)
    np.maximum.at(mx, rows, tl)
    acc = np.bincount(rows, weights=sign * np.exp(tl - mx[rows]), minlength=m)
    with np.errstate(divide="ignore"):
        return mx + np.log(np.abs(acc)), np.where(acc < 0, -1, 1)


def wheel_log_invariant(r: int, n_spokes: int, s: int, b: int):
    """log |Y|, sign, and worst cancellation of a colored n-spoke wheel.

    Spokes carry color s and the rim color b.  Fusing the hub into a fan
    gives, for every n >= 4, Y = sum_i a_i (M^(n-4) v)_i with v_i = u_i^2,
    a_i = Delta_i v_i and M_ij = w_ij^2 Delta_j, where u_i =
    sixj(s,s,i,b,b,b) and w_ij = sixj(s,i,j,b,b,b).  a and v live on the
    end colors, with (s,s,i) and (i,b,b) admissible; the middle colors of
    n >= 6 need (i,b,b) alone (_fan_colors).  In the log domain y = v, a
    half log, passes the middle links row by row, and the last link is
    one flat sum of the terms a_i M_ij y_j; squares give (-1)^quad to the
    sign.  The cancellation is the worst of the 6j symbols' own and that
    of Y against the path-absolute sum |a|^T |M|^(n-4) |v|.  Raises
    ValueError for n < 4 or when the sum vanishes outright, and
    Inadmissible for an inadmissible (s, b, b).
    """
    lv, ends, path = _fan_colors(r, n_spokes, s, b)
    const, rimc = (np.full(len(ends), c, dtype=np.int64) for c in (s, b))
    u = batch_sixj(lv, const, const, np.array(ends, dtype=np.int64), rimc, rimc, rimc)
    # Delta_i = circle_weight(i) off circle_logs; color i is row i/2 of
    # path, so the end colors are its first rows
    negs, logs = zip(*(lv.circle_logs[i] for i in path))
    dlog, dsign = np.array(logs), np.where(negs, -1, 1)
    rows = np.arange(len(ends))
    ulog, usign = np.full(len(path), -np.inf), np.zeros(len(path), dtype=np.int64)
    ulog[rows], usign[rows] = u["log"], np.where(u["quad"] % 2 == 0, 1, -1)
    cancels = [u["cancel"]]
    # y = M^(n-4) v is kept as the terms Delta_j y_j w_ij^2 of its last link:
    # rows i and the logs dl of |Delta_j|, yh of |y_j|^(1/2) (ya for the
    # path-absolute y) and w of |w_ij|; y = v is one term a row, dl = w = 0.
    dl, yh, ya, w, sign = 0.0, ulog[rows], ulog[rows], 0.0, usign[rows]
    if n_spokes > 4:  # the rows ii, jj of the link pairs, and their w_ij
        ci, cj = np.array(_fan_links(lv, s, path), dtype=np.int64).reshape(-1, 2).T
        ii, jj = ci >> 1, cj >> 1
        cs, cb = (np.full(ii.size, c, dtype=np.int64) for c in (s, b))
        wij = batch_sixj(lv, cs, ci, cj, cb, cb, cb)
        cancels.append(wij["cancel"])
        wlog, wsign = wij["log"], np.where(wij["quad"] % 2 == 0, 1, -1)
    for link in range(n_spokes - 4):
        y, ysign = _row_logsum(rows, dl + 2.0 * (yh + w), sign, len(path))
        # on the first link each row holds one term, so |y| is y
        yabs = _row_logsum(rows, dl + 2.0 * (ya + w), 1, len(path))[0] if link else y
        rows, w = ii, wlog
        dl, yh, ya, sign = dlog[jj], y[jj] / 2, yabs[jj] / 2, dsign[jj] * ysign[jj] * wsign
    tl = dlog[rows] + dl + 2.0 * (ulog[rows] + yh + w)
    tla = dlog[rows] + dl + 2.0 * (ulog[rows] + ya + w)
    ts = (dsign[rows] * usign[rows] * sign).astype(float)
    good = np.isfinite(tl)
    tl, ts, tla = tl[good], ts[good], tla[np.isfinite(tla)]
    mx, mxa = float(tl.max(initial=-np.inf)), float(tla.max(initial=-np.inf))
    acc = float(np.sum(ts * np.exp(tl - mx)))
    absacc = float(np.sum(np.exp(tla - mxa)))
    if acc == 0.0:
        raise ValueError(f"wheel invariant vanished at r={r}")
    log_y = mx + math.log(abs(acc))
    cancel = math.log10(max(absacc / abs(acc), 1.0)) + (mxa - mx) / math.log(10)
    worst_cancel = max(cancel, *(float(c.max(where=np.isfinite(c), initial=0.0)) for c in cancels))
    return log_y, (1.0 if acc > 0 else -1.0), worst_cancel


def _wheel_start_bits(r: int) -> int:
    """The first precision of wheel_log_invariant_mp, at which the fan
    oracle (verify) checks its z-sums too; a seam for tests."""
    return 2 * r + 256


# links of the mp wheel's link loop that each process gets at least; see
# wheel_log_invariant_mp for the break-even it was set from
_FORK_LINKS = 1024


def wheel_log_invariant_mp(r: int, n_spokes: int, s: int, b: int):
    """High-precision wheel sum: the float twin's contract, Y and colors.

    It is carried in the (man, exp) pairs of qnum.MpFactorials, P = prec
    + 32 bits, cut to P bits after every multiply; the z-sums come from
    the fan tables for (s, b) (qnum.MpFan), 1/Theta and Delta_i = [i+1]
    from the factorial tables.  Squares need only Theta^(-1): v_i = u_i^2
    / (Theta(s,s,i) Theta(s,b,b)^2 Theta(i,b,b)) is MpFactorials.square
    of sixj(s,s,i,b,b,b), and a link is (M y)_i =
    sum_j S_ij h_j / (Theta(s,b,b) Theta(i,b,b)), h_j = Delta_j y_j /
    Theta(j,b,b), S_ij = w_ij^2 / Theta(s,i,j) formed once per i <= j.
    Rows and Y = sum_i a_i y_i are summed exactly (_fx_sum).  A path term
    takes 39 + 22(n-4) cuts (three per 1/Theta), each under 2^-(P-1)
    relative, a cut row sum too, of its terms' magnitudes; so Y is off
    by under 22n 2^-(P-1) of the path-absolute sum |a|^T |M|^(n-4) |v|,
    which the links give from |v|, and whose ratio to |Y| is the
    cancellation.  Precision starts at 2r + 256 bits and doubles until
    the cancellation leaves at least 50 trusted bits.

    The S_ij are formed on every usable core (_fork_shares), with at
    least _FORK_LINKS links a process: whole rows i are dealt
    round-robin, so a process reuses fan's tables of each i, and the
    workers send back their (man, exp) pairs, which are put back in link
    order.  The tables are built before the fork and everything after
    the S_ij runs here, so no worker enters mpmath.  Every sum is exact,
    so Y, its sign and the cancellation are the same for any process
    count.  On a 2-core box pent-zero's link loop took about as long in
    two processes as in one at 930 and 1,260 links (r = 121, 141), and
    10-20% less from 1,640 links (r = 161) on; so two processes start at
    2,048 links, r = 181 for pent-zero.
    """
    lv, ends, path = _fan_colors(r, n_spokes, s, b)
    links = [(i, j) for i, j in _fan_links(lv, s, path) if i <= j] if n_spokes > 4 else []
    # the links of one i, dealt whole so that a process reuses fan's tables of that i
    link_rows = [list(row) for _, row in itertools.groupby(links, key=lambda link: link[0])]
    start = _wheel_start_bits(r)
    for k in range(5):
        prec = start << k
        tab = lv.mp_factorials(prec)
        fan, p = tab.fan(s, b), tab.bits
        sbb = tab.inv_theta(s, b, b)
        ibb = {i: tab.inv_theta(i, b, b) for i in path}
        y = {i: tab.square((s, s, i, b, b, b), fan.zsum(s, i)) for i in ends}
        a = {i: _fx_prod((tab.qint(i + 1), y[i]), p) for i in ends}
        # ya is the path-absolute y once a link has summed rows (before, |y|
        # is its own); only absolute sums read it, so its signs do not matter
        ya = None

        def squares(share, nshares):  # S_ij of the link rows share::nshares, as (man, exp)
            out = []
            for row in link_rows[share::nshares]:
                out.append([])
                for i, j in row:
                    wm, we = _fx_norm(fan.zsum(i, j), p)
                    tm, te = tab.inv_theta(s, i, j)
                    out[-1].append((tm * (wm * wm >> p) >> p, te + 2 * we + 3 * p))
            return out

        shares = _fork_shares(squares, len(links) // _FORK_LINKS)
        # row i holds (j, S_ij) for every link pair, as (j, man, exp), in link order
        rows = {i: [] for i in path}
        for x, row in enumerate(link_rows):
            for (i, j), (sm, se) in zip(row, shares[x % len(shares)][x // len(shares)]):
                rows[i].append((j, sm, se))
                if j != i:
                    rows[j].append((i, sm, se))

        def row_sums(y):  # i -> _fx_sum of the terms S_ij h_j of row i
            h = {j: _fx_prod((tab.qint(j + 1), y[j], ibb[j]), p) for j in y}
            return {i: _fx_sum([sm * h[j][0] >> p for j, sm, _ in row if j in h],
                               [se + h[j][1] for j, _, se in row if j in h])
                    for i, row in rows.items()}

        for _ in range(n_spokes - 4):
            sy = row_sums(y)
            sa = sy if ya is None else row_sums(ya)
            y = {i: _fx_prod(((m, e), sbb, ibb[i]), p) for i, (m, _, e) in sy.items() if m}
            ya = {i: _fx_prod(((m, e), sbb, ibb[i]), p) for i, (_, m, e) in sa.items() if m}
        dots = [[_fx_prod((a[i], x[i]), p) for i in ends if i in x] for x in (y, ya or y)]
        (total, _, emin), (_, absum, amin) = (
            _fx_sum([m for m, _ in t], [e for _, e in t]) for t in dots)
        if total == 0:
            raise ValueError(f"wheel invariant vanished at r={r}")
        with MP_LOCK, mp.workprec(prec):
            total, absum = mp.mpf((total, emin)), mp.mpf((absum, amin))
            cancel_bits = float(mp.log(absum / abs(total), 2))
            if cancel_bits <= prec - 50:
                log_y = float(mp.log(abs(total)))
                sign = 1.0 if total > 0 else -1.0
                return log_y, sign, cancel_bits * math.log10(2.0)
    raise ValueError(f"wheel sum at r={r} cancels beyond {prec} bits")


def appendix_record(kind: str, r: int) -> ScanRecord:
    """One level of a published wheel-graph experiment.

    kind is sq-ideal, sq-zero, pent-ideal or pent-zero; the spoke and
    rim colors come from the dihedral angles of the target polyhedron
    (see appendix_colors), and the actual colors used are recorded in
    the color_policy field.  The zero-angled colorings sit at the
    maximal-growth color where the fan transfer loop cancels
    catastrophically in doubles, so the evaluation escalates to the mp
    twin whenever the double pass loses more than 8 digits.
    """
    target_name, n_spokes, _ = _APPENDIX[kind]
    s, b = appendix_colors(kind, r)
    target = named_volumes()[target_name]
    try:
        log_y, _, worst_cancel = wheel_log_invariant(r, n_spokes, s, b)
    except ValueError:  # vanished in doubles; the mp twin raises any other again
        worst_cancel = math.inf
    if worst_cancel > 8.0:
        log_y, _, worst_cancel = wheel_log_invariant_mp(r, n_spokes, s, b)
    return ScanRecord.at(r, kind, f"{kind}[spoke={s} rim={b}]", log_y,
                         target=target, cancel_digits=worst_cancel)


def tv_tet_record(r: int, *, budget: Optional[int] = None) -> ScanRecord:
    """Full state sum sum_col |Y(tet,col)| = sum |6j|^2 at one level.

    Only one tuple per tetrahedral class is evaluated (its canonical
    representative, see orbit_representatives), weighted by its orbit
    size.  The weighted terms are summed as a stream, block by block: a
    running maximum of the logs, with the partial sum rescaled whenever
    it rises, so memory is bounded by the block, not by the level.  cancel_digits is
    the worst over the representatives; budget caps the enumerated
    cover tuples (sixtuple_chunks with restrict=True).
    """
    lv = Level.of(r)
    mx = -math.inf  # running max of log |6j|^2
    shifted = 0.0   # sum of weight * |6j|^2 / exp(mx)
    worst_cancel = 0.0
    work = _SixjWork()
    for tup in sixtuple_chunks(lv, restrict=True, budget=budget):
        keep, weight = orbit_representatives(lv, tup)
        tup = tuple(x[keep] for x in tup)  # frees the rest of the block
        res = batch_sixj(lv, *tup, work=work)
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
    return ScanRecord.at(r, "tv-tet", "full-TV-sweep", mx + math.log(shifted),
                         target=V8, cancel_digits=worst_cancel)


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
    return ScanRecord.at(r, f"family-m{m}", f"maximizer[c={c}]",
                         (2 + 2 * m) * info["value"].log_abs(), target=family_max_volume(m),
                         cancel_digits=float(info["cancel_digits"]))


# ---------------------------------------------------------------------------
# level orchestration


def run_levels(fn: Callable[[int], ScanRecord], rs: Sequence[int], *,
               timings: bool = False,
               mark: Optional[tuple[str, str]] = None) -> list[ScanRecord]:
    """Evaluate fn(r) over the distinct levels rs, in increasing r.

    With timings=True the per-level wall time is stored on the records --
    leave it off when byte-stable output matters.  mark=(kind, policy)
    converts a BudgetExceeded at one level into a placeholder record
    (policy suffixed with "!budget", every numeric field None) instead of
    aborting the scan.
    """
    records = []
    for r in sorted(set(int(r) for r in rs)):
        t0 = time.perf_counter()
        try:
            rec = fn(r)
        except BudgetExceeded:
            if mark is None:
                raise
            kind, policy = mark
            rec = ScanRecord.at(r, kind, policy + "!budget")
        if timings:
            rec.wall_ms = (time.perf_counter() - t0) * 1e3
        records.append(rec)
    return records

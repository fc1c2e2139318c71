"""Spans around the calls into each skeinvol layer, recorded from outside.

``install`` replaces each traced public function by a wrapper in every
loaded ``skeinvol`` module that holds it, matched by identity, so calls
between modules go through the wrapper too: ``scans`` imported
``sixj_info``, ``bracket`` imported ``canonical_signature`` and ``sixj``
(which looks ``qnum.sixj_info`` up at call time), and ``yokota`` imported
``bracket``.  The package attribute ``skeinvol.bracket`` is the function,
so modules are reached through ``sys.modules``.

A span is (name, start, end, parent, op).  Spans stay in memory until the
round ends.  A span's self time is its duration minus the durations of
its direct children; calls are single-threaded, so children never
overlap.  Work the wrapper itself does after a call (lane counting for
batch_sixj) is recorded as a ``trace.bookkeeping`` span, so it is not
charged to the caller's self time.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# (module, function) pairs wrapped in a traced round
TRACED = (
    ("scans", "appendix_record"),
    ("scans", "wheel_log_invariant"),
    ("scans", "wheel_log_invariant_mp"),
    ("scans", "bound_record"),
    ("scans", "tv_tet_record"),
    ("scans", "batch_sixj"),
    ("scans", "sixtuple_chunks"),
    ("qnum", "sixj_info"),
    ("planar", "canonical_signature"),
    ("bracket", "bracket"),
    ("yokota", "yokota_ext"),
    ("yokota", "tv_graph"),
)


def _lane_counts(tab, a, b, c, d, e, f):
    """(useful z-terms, padded lanes) of one batch_sixj call: each pass
    over the z-range runs every tuple for max(nz) + 1 steps, of which
    nz + 1 are terms of that tuple's sum."""
    a, b, c, d, e, f = (np.asarray(x, dtype=np.int64) for x in (a, b, c, d, e, f))
    if a.size == 0:
        return 0, 0
    zlo = np.maximum.reduce([a + b + c, a + e + f, b + d + f, c + d + e]) >> 1
    zhi = np.minimum(np.minimum.reduce([a + b + d + e, a + c + d + f, b + c + e + f]) >> 1,
                     tab.r - 2)
    nz = zhi - zlo
    return int(nz.sum()) + nz.size, nz.size * (int(nz.max()) + 1)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, extra]
        self._stack: list[int] = []
        self.op = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "scans.sixtuple_chunks":
            def chunks(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name)
                    try:
                        tup = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer.spans[idx][5] = {"tuples": int(tup[0].size)}
                    yield tup
            return chunks

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name == "scans.batch_sixj":
                book = tracer._open("trace.bookkeeping")
                useful, padded = _lane_counts(*args)
                tracer._close(book)
                tracer.spans[idx][5] = {"tuples": int(np.asarray(args[1]).size),
                                        "useful": useful, "padded": padded}
            elif name == "qnum.sixj_info":
                tracer.spans[idx][5] = {"mp": bool(out["used_mp"])}
            return out
        return wrapper

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items()
                if k == "skeinvol" or k.startswith("skeinvol.")}
        for mod_name, fn_name in TRACED:
            orig = getattr(mods["skeinvol." + mod_name], fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, summed extras."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, t0, t1, _, _, extra) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child[i]
            for k, v in (extra or {}).items():
                row[k] = row.get(k, 0) + int(v)
        return out

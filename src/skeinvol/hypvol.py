"""Hyperbolic volume targets and scan-record bookkeeping.

The growth rate (pi/r) * log|invariant| of colored-graph invariants is
compared against volumes of hyperbolic polyhedra.  Everything here is
classical hyperbolic geometry: the Lobachevsky function, the volumes of
the regular ideal octahedron and of right-angled ideal antiprisms, and
a least-squares extrapolation of slope sequences whose finite-level
error decays like log(r)/r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath as mp
import numpy as np

from .errors import IllConditioned

__all__ = [
    "CSV_FIELDS",
    "ScanRecord",
    "V8",
    "antiprism_volume",
    "extrapolate_limit",
    "family_max_volume",
    "lobachevsky",
    "named_volumes",
    "records_to_csv",
]


_ZETA_EVEN: list = []


def _zeta_even(n):
    """zeta(2n) as a float, cached."""
    while len(_ZETA_EVEN) < n:
        _ZETA_EVEN.append(float(mp.zeta(2 * (len(_ZETA_EVEN) + 1))))
    return _ZETA_EVEN[n - 1]


def lobachevsky(theta: float) -> float:
    """The Lobachevsky function, -integral_0^theta log|2 sin t| dt.

    Odd and pi-periodic; the argument is first reduced to [-pi/2, pi/2]
    so that the power series

        L(t) = t (1 - log 2t) + t * sum_n zeta(2n) / (n (2n+1)) (t/pi)^(2n)

    gains at least two bits per term.
    """
    t = math.remainder(theta, math.pi)
    if t == 0.0:
        return 0.0
    sign = 1.0 if t > 0 else -1.0
    t = abs(t)
    x = (t / math.pi) ** 2
    total = 0.0
    power = 1.0
    for n in range(1, 60):
        power *= x
        term = _zeta_even(n) / (n * (2 * n + 1)) * power
        total += term
        if term < 1e-18:
            break
    return sign * t * (1.0 - math.log(2.0 * t) + total)


#: Volume of the regular ideal right-angled octahedron.
V8 = 8 * lobachevsky(math.pi / 4)


def antiprism_volume(n: int) -> float:
    """Volume of the right-angled ideal antiprism with n-gonal faces."""
    if n < 3:
        raise ValueError("antiprisms need n >= 3")
    return 2 * n * (
        lobachevsky(math.pi / 4 + math.pi / (2 * n))
        + lobachevsky(math.pi / 4 - math.pi / (2 * n))
    )


def family_max_volume(m: int) -> float:
    """Largest volume over polyhedra whose 1-skeleton is m moves from the
    tetrahedron (each vertex blow-up or face triangulation adds one
    ideal octahedron to the rectification)."""
    if m < 0:
        raise ValueError("move count must be >= 0")
    return (m + 1) * V8


def named_volumes() -> dict:
    """The volume targets used by the built-in scans."""
    return {
        "ideal-octahedron": V8,
        "ideal-square-pyramid": 4 * lobachevsky(math.pi / 4),
        "square-antiprism": antiprism_volume(4),
        # three ideal tetrahedra over the fan triangulation of the pentagon;
        # collapses to 5 L(pi/5) via L(3pi/5) = -L(2pi/5)
        "ideal-pentagonal-pyramid": (
            5 * lobachevsky(math.pi / 5)
            + 2 * lobachevsky(2 * math.pi / 5)
            + 2 * lobachevsky(3 * math.pi / 5)
        ),
        "pentagonal-antiprism": antiprism_volume(5),
    }


# ---------------------------------------------------------------------------
# scan records


CSV_FIELDS = (
    "r",
    "kind",
    "color_policy",
    "log_value",
    "slope",
    "target",
    "rel_gap",
    "cancel_digits",
    "wall_ms",
)


@dataclass
class ScanRecord:
    """One level of one scan: a log-magnitude and its volume comparison.

    slope is the volume-normalized growth rate at this level, target the
    corresponding limit volume, rel_gap their relative difference, and
    cancel_digits the worst decimal cancellation hit while summing.
    wall_ms stays None (empty in CSV) unless timings were requested,
    keeping the output reproducible across machines.

    Build rows with ScanRecord.at, which owns the slope and rel_gap
    arithmetic and the placeholder row of a level without a value.
    """

    r: int
    kind: str
    color_policy: str
    log_value: float
    slope: float
    target: float
    rel_gap: float
    cancel_digits: float
    wall_ms: Optional[float] = None

    @classmethod
    def at(cls, r: int, kind: str, policy: str, log_value: Optional[float] = None, *,
           target: Optional[float] = None, cancel_digits: Optional[float] = None,
           per: float = math.pi) -> "ScanRecord":
        """The row of level r: slope = (per / r) * log_value, and
        rel_gap = (slope - target) / target when a target is given.

        per is pi for an invariant and 2 pi for a single 6j (sixj-bound).
        Without a log_value this is the placeholder row of a level that
        has no value (a zero or a blown budget, marked in policy): every
        numeric field is None, so CSV prints it empty and JSON null.
        """
        if log_value is None:
            return cls(r, kind, policy, None, None, None, None, None)
        slope = (per / r) * log_value
        rel_gap = None if target is None else (slope - target) / target
        return cls(r, kind, policy, log_value, slope, target, rel_gap, cancel_digits)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def records_to_csv(records: Sequence[ScanRecord]) -> str:
    lines = [",".join(CSV_FIELDS)]
    for rec in records:
        lines.append(",".join(_fmt(getattr(rec, f)) for f in CSV_FIELDS))
    return "\n".join(lines) + "\n"


def extrapolate_limit(pairs) -> float:
    """Estimate lim slope(r) from (r, slope) samples.

    Fits slope(r) = L + b * log(r)/r by least squares and returns L; the
    correction term matches the known finite-level error of the growth
    rates.  Needs at least 4 samples spread over distinct levels.
    """
    pts = [(int(r), float(s)) for r, s in pairs]
    if len(pts) < 4:
        raise IllConditioned("extrapolation needs at least 4 samples")
    rs = np.array([p[0] for p in pts], dtype=float)
    ss = np.array([p[1] for p in pts], dtype=float)
    a = np.column_stack([np.ones_like(rs), np.log(rs) / rs])
    if np.linalg.matrix_rank(a) < 2 or np.linalg.cond(a) > 1e12:
        raise IllConditioned("levels too clustered to separate the log(r)/r term")
    coef, *_ = np.linalg.lstsq(a, ss, rcond=None)
    return float(coef[0])

"""Quantum integers, admissibility, and tetrahedral 6j symbols at odd levels.

Everything here lives at a fixed odd integer level r >= 3, with
q = exp(2*pi*i/r).  The quantum integer is

    [n] = sin(2*pi*n/r) / sin(2*pi/r),

which is periodic mod r, vanishes exactly when r divides n, and is
negative for (r+1)/2 <= n mod r <= r-1.  Colors are the even integers
0, 2, ..., r-3; a triple of colors is admissible when it satisfies the
triangle inequalities and its sum is at most 2r-4.

Two sign conventions for the value of a closed colored loop circulate in
tables: (-1)^n [n+1] and (-1)^(n+1) [n+1].  They differ by a global sign.
The evaluation machinery in this package consistently uses the first one
(``circle_weight``): it is the one under which the fusion identity
sum_i circle_weight(i) = circle_weight(a) * circle_weight(b) over
admissible i, and the handle-slide identities, come out with the correct
signs.  ``loop_weight`` returns the second variant for comparison with
sources that use it.

Each level takes the sines of 2*pi*k/r once, as its quantum integers
[k] (Level.qint), and every float table of the level is read off them:
one table of quantum factorials, Level.lf (log |[k]!|) and Level.fneg
([k]! < 0), and the circle weights.  The scalar 6j, the one float theta
(Level.theta) and the batched 6j of scans all read lf, so the scalar
and batched z-sums take the same term logs and signs, and add them by
the same rule.  A real product of such factors is carried the same
way, as a (negative, log) pair of a bool and a float, and becomes an
ExtScalar once, through ExtScalar.from_log.  Where doubles lose too
many digits the 6j is recomputed at r + 64 bits from MpFactorials'
integer tables, for which mpmath gives only cos and sin of 2*pi/r;
nothing reads the environment.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from functools import cached_property, lru_cache

import mpmath as mp
import numpy as np

from .errors import Inadmissible
from .extscalar import ExtScalar

_SIXJ_CACHE_MAX = 1 << 21

# mpmath's working precision is process-global state; every high-precision
# evaluation in the package serializes on this lock, so a caller that runs
# evaluations on threads of its own gets the same bits as a serial run.
MP_LOCK = threading.RLock()


class Level:
    """Fixed odd level r with cached quantum-number tables.

    Attributes:
        r: the level (odd, >= 3).
        m: number of colors, (r-1)/2.
        colors: the even integers 0, 2, ..., r-3.
        lf: numpy array, lf[k] = log |[k]!| for 0 <= k <= r-1.
        fneg: numpy bool array, fneg[k] = [k]! < 0.  [k] is negative
            exactly for r/2 < k < r, so the sign of [k]! alternates with
            max(0, k - (r-1)/2).
        zneg, rev, rneg, zero_tol: the batched 6j's read-only tables,
            built from lf and fneg: the sign of (-1)^z [z+1]!, lf and
            fneg reversed, and the rounding floor of a z-sum.
        ext_weights, circle_logs: per-color weight tables of the graph
            engine and the float wheel, built on first use from
            circle_weight.

    The level takes one sine pass, the quantum integers [k] = qint(k):
    lf sums their logs, and every weight table reads them through
    circle_weight.  lf and fneg are the level's one factorial table: the
    vectorized scans (scans.batch_sixj) read the arrays, and the scalar
    6j and theta read their plain-list copies _lf and _fneg, so both
    z-sums see the same bits.  Every per-level table lives on its Level,
    and Level.of keeps the 16 most recently used levels, so a scan over
    many levels holds the tables of at most 16.
    """

    def __init__(self, r: int):
        if not isinstance(r, int) or r < 3 or r % 2 == 0:
            raise ValueError(f"level must be an odd integer >= 3, got {r!r}")
        self.r = r
        self.m = (r - 1) // 2
        self.colors = tuple(range(0, r - 2, 2))
        s0 = math.sin(2 * math.pi / r)
        # [k] for k = 0 .. r-1, the level's one sine pass; extended
        # periodically by qint().
        self._qint = [math.sin(2 * math.pi * k / r) / s0 for k in range(r)]
        k = np.arange(r, dtype=np.int64)
        self.lf = np.concatenate([[0.0], np.cumsum(np.log(np.abs(self._qint[1:])))])
        self.fneg = np.maximum(0, k - (r - 1) // 2) % 2 == 1
        # zneg[z] = [z+1]! < 0 xor z odd: the sign of (-1)^z [z+1]!
        self.zneg = self.fneg[1:] ^ (k[:-1] % 2 == 1)
        self.rev, self.rneg = self.lf[::-1].copy(), self.fneg[::-1].copy()
        self.zero_tol = (r + 16) * np.abs(self.lf).max() * 2.0**-52  # see scans._sixj_block
        self._lf = self.lf.tolist()
        self._fneg = self.fneg.tolist()
        self._sixj_cache: dict[tuple, tuple[ExtScalar, dict]] = {}
        self._mp_tables: dict[int, MpFactorials] = {}

    @classmethod
    def of(cls, r) -> "Level":
        """The Level of r, shared while it is among the 16 most recently
        used; a Level is returned unchanged.  r is read as colors are
        (_ints), so 7.0, which hashes like 7, raises ValueError."""
        if isinstance(r, Level):
            return r
        t = _ints(r)
        return cls(r) if t is None else cls._recent(*t)

    @classmethod
    @lru_cache(maxsize=16)
    def _recent(cls, r) -> "Level":
        return cls(r)

    def qint(self, n: int) -> float:
        return self._qint[n % self.r]

    def theta(self, a: int, b: int, c: int) -> tuple[bool, float]:
        """Theta(a,b,c) of an admissible triple as (negative, log |Theta|).

        Theta = (-1)^s [s+1]! / ([s-a]! [s-b]! [s-c]!) with s = (a+b+c)/2,
        read off the factorial table; s + 1 <= r - 1, so it never vanishes.
        """
        s = (a + b + c) // 2
        lf, fneg = self._lf, self._fneg
        return (fneg[s + 1] ^ fneg[s - a] ^ fneg[s - b] ^ fneg[s - c] ^ (s % 2 == 1),
                lf[s + 1] - ((lf[s - a] + lf[s - b]) + lf[s - c]))

    @cached_property
    def ext_weights(self) -> tuple[list, list, list]:
        """Per color c, as the ExtScalars that bracket replays multiply in:
        circle_weight(c), its inverse and vertex_weight(c, c, 0), in three
        lists indexed by color (None at odd indices)."""
        tables = ([None] * self.r, [None] * self.r, [None] * self.r)
        for c in self.colors:
            w = circle_weight(c, self)
            tables[0][c] = ExtScalar(w)
            tables[1][c] = ExtScalar(1.0 / w)
            tables[2][c] = vertex_weight(c, c, 0, self)
        return tables

    @cached_property
    def circle_logs(self) -> dict[int, tuple[bool, float]]:
        """Color -> circle_weight as a (negative, log) pair, the weights
        of yokota's sums and the float wheel's Delta_i."""
        return {c: _neg_log(circle_weight(c, self)) for c in self.colors}

    def mp_factorials(self, prec: int) -> "MpFactorials":
        """The fixed-point factorial tables for prec-bit work, built once."""
        if prec not in self._mp_tables:
            self._mp_tables[prec] = MpFactorials(self.r, prec)
        return self._mp_tables[prec]

    def __repr__(self):
        return f"Level(r={self.r})"


class MpFactorials:
    """High-precision 6j arithmetic at one level and one precision.

    For k = 0 .. r-1 the table holds [k]! and 1/[k]! as integer mantissas
    of P = prec + 32 bits, each with its own exponent: the value is
    man * 2**exp.  A product of table entries is a chain of integer
    multiplies, each truncated by >> P, with the exponents summed as
    ints.  An eight-factor chain keeps at least P - 8 significant bits
    and its truncations cost under 2**-(P-9) relative, so the 32 guard
    bits keep every term good past prec bits.  The terms of one sum are
    added exactly in one integer at their lowest exponent (_fx_sum).

    The quantum integers [k] = sin(k theta) / sin(theta), theta = 2 pi/r,
    come from one rotation recurrence instead of r mpmath sines.  cos
    theta and sin theta are taken once at G = P + 40 bits, and (cos k
    theta, sin k theta) is stepped by integer complex multiplies at G
    fractional bits for k <= (r-1)/2; sin((r-k) theta) = -sin(k theta)
    gives the rest.  Each step adds under five units of 2**-G, so sin(k
    theta) is off by under 2.5 r units, and as it is at least sin(pi/r)
    > 2/r there, [k] is off by under 1.5 r**2 units relative.  The 40
    guard bits keep that under 2**-(P+7) for every r below 2**16.  The
    tables are built from those integers with no mpmath: [k], read at G
    fractional bits as (sin k theta << G) // sin theta, multiplies [k-1]!
    into [k]!, cut to P bits (_fx_norm), and 1/[k]! is 2**(2P-1) // ([k]!'s
    mantissa), cut to P bits.  An entry takes at most r truncations, each
    under 2**-(P-1) relative, so with the error of each [k] it is within
    1.01 r 2**-(P-1) relative: past prec + 14 bits.

    fan(s, b) gives the tables of the wheel symbols sixj(s, x, y, b, b,
    b), whose z-sums are one exact dot product of two tables, with six
    truncations behind each term (see MpFan).  zsum, qint,
    inv_theta, square and the fan z-sums all return (man, exp) pairs, the
    one format of the high-precision layer: _fx_prod multiplies them with
    no mpmath state, and mpmath reads one as it is where a log is wanted.
    """

    def __init__(self, r: int, prec: int):
        self.r = r
        self.bits = p = prec + 32
        g = p + 40
        with MP_LOCK, mp.workprec(g):
            cos1, sin1 = (int(mp.ldexp(f(2 * mp.pi / r), g)) for f in (mp.cos, mp.sin))
        sines = [0] * r
        c, s = cos1, sin1
        for k in range(1, (r + 1) // 2):
            sines[k], sines[r - k] = s, -s
            c, s = (c * cos1 - s * sin1) >> g, (s * cos1 + c * sin1) >> g
        self._fm, self._fe = fm, fe = [1 << (p - 1)], [1 - p]  # [0]! = 1
        for k in range(1, r):
            m, e = _fx_norm((fm[-1] * ((sines[k] << g) // sin1), fe[-1] - g), p)
            fm.append(m)
            fe.append(e)
        self._im, self._ie = zip(*[_fx_norm(((1 << (2 * p - 1)) // m, 1 - 2 * p - e), p)
                                   for m, e in zip(fm, fe)])

    def zsum(self, t) -> tuple[int, int]:
        """Signed z-sum of the 6-tuple t (no vertex normalization), as a
        fixed-point (man, exp) pair.

        The sum runs over z = max T_i .. min(min Q_j, r-2); each term is
        (-1)^z [z+1]! / (prod_i [z-T_i]! prod_j [Q_j-z]!), see sixj.  It
        is (0, 0) when |sum| <= 2**-(P-9) sum |term|, the truncation bound.
        """
        (t1, t2, t3, t4), (q1, q2, q3) = _sum_ranges(t)
        fm, fe, im, ie, p = self._fm, self._fe, self._im, self._ie, self.bits
        mans, exps = [], []
        for z in range(max(t1, t2, t3, t4), min(q1, q2, q3, self.r - 2) + 1):
            m = fm[z + 1] * im[z - t1] >> p
            m = m * im[z - t2] >> p
            m = m * im[z - t3] >> p
            m = m * im[z - t4] >> p
            m = m * im[q1 - z] >> p
            m = m * im[q2 - z] >> p
            m = m * im[q3 - z] >> p
            mans.append(-m if z & 1 else m)
            exps.append(fe[z + 1] + ie[z - t1] + ie[z - t2] + ie[z - t3]
                        + ie[z - t4] + ie[q1 - z] + ie[q2 - z] + ie[q3 - z])
        acc, absacc, emin = _fx_sum(mans, exps)
        # every term is off by under 2**-(p-9) relative, so a sum within
        # that share of sum |term| cannot be told from 0
        if abs(acc) << (p - 9) <= absacc:
            return 0, 0
        # each of the seven truncations scaled the mantissa by 2**-p
        return acc, emin + 7 * p

    def inv_theta(self, a: int, b: int, c: int) -> tuple[int, int]:
        """Signed 1/Theta(a,b,c) of an admissible triple, as a (man, exp)
        pair of three truncated multiplies."""
        s = (a + b + c) // 2
        fm, fe, im, ie, p = self._fm, self._fe, self._im, self._ie, self.bits
        m = im[s + 1] * fm[s - a] >> p
        m = m * fm[s - b] >> p
        m = m * fm[s - c] >> p
        return -m if s & 1 else m, ie[s + 1] + fe[s - a] + fe[s - b] + fe[s - c] + 3 * p

    def square(self, t, zsum) -> tuple[int, int]:
        """The one fixed-point 6j square zsum^2 / prod_v Theta(v) of the
        6-tuple t, from its z-sum pair (zsum or MpFan.zsum), cut to P bits."""
        inv = [self.inv_theta(a, b, c) for a, b, c in _vertex_triples(t)]
        return _fx_prod((zsum, zsum, *inv), self.bits)

    def qint(self, k: int) -> tuple[int, int]:
        """The quantum integer [k] = [k]! / [k-1]! for 1 <= k <= r-1, as a (man, exp) pair."""
        p = self.bits
        return self._fm[k] * self._im[k - 1] >> p, self._fe[k] + self._ie[k - 1] + p

    def fan(self, s: int, b: int) -> "MpFan":
        """Fan tables of the wheel symbols sixj(s, x, y, b, b, b)."""
        return MpFan(self, s, b)


class MpFan:
    """Z-sums of the wheel symbols sixj(s, x, y, b, b, b) from fan tables.

    With spoke color s and rim color b the z-term of that symbol factors
    as A(z) B_x(z) B_y(z) C_{x+y}(z), where

        A(z)   = (-1)^z [z+1]! / [z - (s+2b)/2]!,
        B_x(z) = 1 / ([z - (x+2b)/2]! [(s+x+2b)/2 - z]!),
        C_y(z) = 1 / ([z - (s+y)/2]! [(y+2b)/2 - z]!),

    and the sum runs over the z where all four are defined (A stops at
    z = r-2).  The fan transfer loop of the wheel sum needs u_i =
    zsum(s, i) and w_ij = zsum(i, j).  Every B_x is one table B(w) =
    1/([w]! [s/2-w]!) read at w = z - (x+2b)/2, and every C_y one table
    C(w) = 1/([w]! [b-s/2-w]!) read at w = z - (s+y)/2.  At w = z - (y/2 + b),

        B_y(z) C_{x+y}(z) = B(w) C(w + b - (s+x)/2) = E_x(w),

    which depends on x alone, so a term is D_x(z) E_x(z - y/2 - b) with
    D_x = A B_x.  A, B and C are lists of fixed-point entries in the
    convention of MpFactorials: an entry is man * 2**exp with a signed
    mantissa of at most P bits, and a product of two is (m1 * m2 >> P) *
    2**(e1 + e2 + P).  D_x and E_x are formed that way and then each
    shifted up onto its own lowest exponent, exactly, so a table is one
    exponent and a list of mantissas, and a z-sum is the exact integer
    dot product of two slices of them, with no shift, cut or exponent
    per term.  They are kept for the last x asked for only, so callers
    should vary y fastest; a term then costs one multiply, against seven
    in MpFactorials.zsum.  Its eight factorial factors pass through six
    truncations: one each in A, B_x, B_y and C, each leaving at least P -
    2 bits, and one each to form D and E, at least P - 4, so a term is
    off by under (4 * 2**2 + 2 * 2**4) 2**-P < 2**-(P-6) relative (the
    2**-(P-9) of MpFactorials.zsum has a seventh, at P - 8 bits).  The
    tables hold O(r) entries however many fan colors there are.
    """

    def __init__(self, tab: MpFactorials, s: int, b: int):
        self.s, self.b, self.bits = s, b, tab.bits
        fm, fe, im, ie, p = tab._fm, tab._fe, tab._im, tab._ie, tab.bits
        t = (s + 2 * b) // 2
        zs = range(t, tab.r - 1)
        mans = [fm[z + 1] * im[z - t] >> p for z in zs]
        self._alo = t
        self._am = [-m if z & 1 else m for z, m in zip(zs, mans)]
        self._ae = [fe[z + 1] + ie[z - t] + p for z in zs]
        self._bm, self._be = _inverse_pairs(im, ie, s // 2, p)
        self._cm, self._ce = _inverse_pairs(im, ie, b - s // 2, p)
        self._x = self._dtab = self._etab = None

    def _tables(self, x: int):
        """D_x over z and E_x over w, each as (lo, mantissas, exp): one
        exponent per table, the mantissas shifted onto it, kept for the
        last x."""
        if x != self._x:
            self._dtab = _products(self._alo, self._am, self._ae,
                                   x // 2 + self.b, self._bm, self._be, self.bits)
            self._etab = _products(0, self._bm, self._be,
                                   (self.s + x) // 2 - self.b, self._cm, self._ce, self.bits)
            self._x = x
        return self._dtab, self._etab

    def zsum(self, x: int, y: int) -> tuple[int, int]:
        """Signed z-sum of sixj(s, x, y, b, b, b) (no vertex normalization),
        as a fixed-point pair (man, exp): the value is man * 2**exp, the
        exact dot product of the two tables' mantissas."""
        (dlo, dm, de), (elo, em, ee) = self._tables(x)
        elo += y // 2 + self.b  # E_x's first w, as a z
        lo, hi = max(dlo, elo), min(dlo + len(dm), elo + len(em))
        return sum(map(operator.mul, dm[lo - dlo:hi - dlo], em[lo - elo:hi - elo])), de + ee


def _products(alo, am, ae, blo, bm, be, p):
    """The fixed-point product of two tables, the first read at index
    k - alo and the second at k - blo, over the k where both are
    defined, as (first k, mantissas, e): each product is cut by >> p and
    then shifted up, exactly, onto the lowest exponent e."""
    lo = max(alo, blo)
    hi = min(alo + len(am), blo + len(bm))
    sa, sb = slice(lo - alo, hi - alo), slice(lo - blo, hi - blo)
    exps = [u + v + p for u, v in zip(ae[sa], be[sb])]
    e = min(exps, default=0)
    return lo, [(u * v >> p) << (x - e) for u, v, x in zip(am[sa], bm[sb], exps)], e


def _inverse_pairs(im, ie, n: int, p: int):
    """Fixed-point 1 / ([w]! [n-w]!) for w = 0 .. n, as mantissas and exponents."""
    return ([im[w] * im[n - w] >> p for w in range(n + 1)],
            [ie[w] + ie[n - w] + p for w in range(n + 1)])


def _fx_sum(mans, exps) -> tuple[int, int, int]:
    """The exact sum of the fixed-point terms man * 2**exp, and of their
    magnitudes, as (sum, absolute sum, e): both are integers scaled by
    2**e, e the lowest exponent (0 when there are no terms)."""
    emin = min(exps, default=0)
    terms = [m << (e - emin) for m, e in zip(mans, exps)]
    return sum(terms), sum(map(abs, terms)), emin


def _fx_norm(pair, p: int) -> tuple[int, int]:
    """A fixed-point (man, exp) pair with its mantissa cut to p bits, or
    shifted up to p bits; the cut truncates, by under one unit of 2**-(p-1)
    relative."""
    m, e = pair
    sh = m.bit_length() - p
    return (m >> sh, e + sh) if sh >= 0 else (m << -sh, e + sh)


def _fx_prod(pairs, p: int) -> tuple[int, int]:
    """The product of fixed-point pairs, cut to p bits after each multiply."""
    m, e = 1, 0
    for pm, pe in pairs:
        m, e = _fx_norm((m * pm, e + pe), p)
    return m, e


def _neg_log(x: float) -> tuple[bool, float]:
    """The float x as a (negative, log |x|) pair; the log of 0 is -inf."""
    return x < 0, math.log(abs(x)) if x else -math.inf


def quantum_integer(n: int, level) -> float:
    """[n] = sin(2*pi*n/r) / sin(2*pi/r), periodic mod r."""
    return Level.of(level).qint(n)


def circle_weight(n: int, level) -> float:
    """Value of a closed loop colored n: (-1)^n [n+1].

    This is the convention used throughout the evaluation machinery (see
    the module docstring).  On even colors it equals [n+1], which is
    negative once n+1 passes (r-1)/2.
    """
    lv = Level.of(level)
    w = lv.qint(n + 1)
    return -w if n % 2 else w


def loop_weight(n: int, level) -> float:
    """The opposite-sign loop convention: (-1)^(n+1) [n+1].

    Equal to -circle_weight(n, level) for every n.  Provided for
    comparison with tables that normalize the circle this way; nothing
    internal uses it.
    """
    return -circle_weight(n, level)


def _ints(*xs):
    """xs as a tuple of Python ints, or None when one of them is not of
    an integral type (a float such as 2.0 is not; a numpy integer is)."""
    try:
        return tuple(map(operator.index, xs))
    except TypeError:
        return None


def is_admissible_triple(a: int, b: int, c: int, level) -> bool:
    """Admissibility of a color triple at level r.

    Requires even integers in [0, r-2] satisfying the triangle
    inequalities with a + b + c <= 2r - 4.
    """
    lv = Level.of(level)
    t = _ints(a, b, c)
    if t is None:
        return False
    a, b, c = t
    for x in t:
        if x < 0 or x > lv.r - 2 or x % 2:
            return False
    if a + b + c > 2 * lv.r - 4:
        return False
    return abs(a - b) <= c <= a + b


def is_admissible_sixtuple(colors, level) -> bool:
    """Admissibility of the four vertex triples of a tetrahedral 6-tuple.

    The tuple (n1, ..., n6) is admissible when (n1,n2,n3), (n1,n5,n6),
    (n2,n4,n6) and (n3,n4,n5) all are.
    """
    return all(is_admissible_triple(a, b, c, level) for a, b, c in _vertex_triples(colors))


def admissible_triples(level):
    """All admissible triples (a, b, c) at the level, lexicographic."""
    lv = Level.of(level)
    return [(a, b, c) for a in lv.colors for b in lv.colors
            for c in fusion_colors(a, b, lv)]


def fusion_colors(a: int, b: int, level):
    """Colors i with (a, b, i) admissible, ascending: the even i from
    |a - b| to min(a + b, 2r - 4 - a - b); none when a or b is not a
    color."""
    lv = Level.of(level)
    t = _ints(a, b)
    if t is None or not all(0 <= x <= lv.r - 2 and x % 2 == 0 for x in t):
        return ()
    a, b = t
    return tuple(range(abs(a - b), min(a + b, 2 * lv.r - 4 - a - b) + 1, 2))


def _admissible_theta(a: int, b: int, c: int, level) -> tuple[bool, float]:
    """Level.theta of the triple; raises Inadmissible when undefined."""
    lv = Level.of(level)
    if not is_admissible_triple(a, b, c, lv):
        raise Inadmissible(f"triple ({a},{b},{c}) not admissible at r={lv.r}")
    return lv.theta(a, b, c)


def theta_weight(a: int, b: int, c: int, level) -> float:
    """Theta(a,b,c) = (-1)^S [S+1]! / ([S-a]! [S-b]! [S-c]!), S = (a+b+c)/2.

    Returned as a float, which is adequate at the small levels where one
    wants the number itself; large-level code reads Level.theta, the
    (negative, log) pair.  Raises Inadmissible when undefined.
    """
    negative, lg = _admissible_theta(a, b, c, level)
    return -math.exp(lg) if negative else math.exp(lg)


def vertex_weight(a: int, b: int, c: int, level) -> ExtScalar:
    """The vertex normalization Theta(a,b,c)^(-1/2).

    For Theta > 0 this is the positive real root; for Theta < 0 it is
    -i / sqrt(|Theta|), so that the square is 1/Theta in both cases.
    Raises Inadmissible when undefined.
    """
    negative, lg = _admissible_theta(a, b, c, level)
    return ExtScalar.from_log(-0.5 * lg, sign=1, quadrant=1 if negative else 0)


# The 6j symbol is invariant under the symmetries of the tetrahedron it
# labels: the color pairs (n1,n4), (n2,n5), (n3,n6) sit on opposite edge
# pairs, and the group (order 24) permutes the three pairs arbitrarily
# and swaps the two members of exactly two pairs at a time.  Each entry
# is one symmetry as an index permutation: the image of t is
# tuple(t[i] for i in g).  The identity comes first.
SIXJ_SYMMETRIES = tuple(
    tuple(p[k] + 3 * f[k] for k in range(3)) + tuple(p[k] + 3 - 3 * f[k] for k in range(3))
    for p in itertools.permutations(range(3))
    for f in ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1))
)
_SYMMETRY_GETTERS = tuple(operator.itemgetter(*g) for g in SIXJ_SYMMETRIES)


def _canonical_sixtuple(t, _getters=_SYMMETRY_GETTERS):
    """The lexicographically smallest of the 24 images of t."""
    return min([g(t) for g in _getters])


def _sum_ranges(t, out=None):
    """Triple half-sums T_i and square half-sums Q_j of a 6-tuple; the z
    range runs from max T_i to min Q_j.

    The six entries are ints, or equal-length int64 arrays (scans.batch_sixj).
    With out, seven int64 arrays of that length, the sums are written
    into them and they are returned.  >> 1 is floor division by 2.
    """
    n1, n2, n3, n4, n5, n6 = t
    groups = ((n1, n2, n3), (n1, n5, n6), (n2, n4, n6), (n3, n4, n5),
              (n1, n2, n4, n5), (n1, n3, n4, n6), (n2, n3, n5, n6))
    if out is None:
        out = [s >> 1 for s in map(sum, groups)]
    else:
        for (x, y, *rest), o in zip(groups, out):
            np.add(x, y, out=o)
            for z in rest:
                o += z
            o >>= 1
    return tuple(out[:4]), tuple(out[4:])


def _sixj_double(t, lv):
    """Sum-over-z evaluation in doubles, with a cancellation estimate.

    Returns ((sign, log) of the z-sum, cancel_digits, terms); the first
    is None when doubles cannot deliver ~8 significant digits.  A term's
    log is lf[z+1] - lf[z-T_1] - ... - lf[Q_3-z], subtracted in that
    order, and the term is negative when the fneg entries it reads and
    the parity of z XOR to 1: the terms and signs of scans.batch_sixj.
    The terms, scaled by the largest, are added in z order to a signed
    and an absolute running sum, as the batch kernel adds them.  A plain
    running sum of n terms is off by at most n u sum |term| (u = 2^-53),
    that is cond n u of the sum, cond = sum |term| / |sum|; the path is
    kept only when cond n 2^-52, twice that, is at most 1e-8.
    """
    (t1, t2, t3, t4), (q1, q2, q3) = _sum_ranges(t)
    lf, fneg = lv._lf, lv._fneg
    # Admissibility makes the range nonempty (Q_j >= T_i always); terms
    # with z >= r-1 would contain the factor [r] = 0 and are dropped by
    # the clamp.
    logs = []
    negs = []
    for z in range(max(t1, t2, t3, t4), min(q1, q2, q3, lv.r - 2) + 1):
        logs.append(lf[z + 1] - lf[z - t1] - lf[z - t2] - lf[z - t3] - lf[z - t4]
                    - lf[q1 - z] - lf[q2 - z] - lf[q3 - z])
        negs.append(fneg[z + 1] ^ fneg[z - t1] ^ fneg[z - t2] ^ fneg[z - t3] ^ fneg[z - t4]
                    ^ fneg[q1 - z] ^ fneg[q2 - z] ^ fneg[q3 - z] ^ (z & 1))
    lmax = max(logs)
    s = total = 0.0
    for lg, ng in zip(logs, negs):
        x = math.exp(lg - lmax)
        total += x
        s += -x if ng else x
    nterms = len(logs)
    if s == 0.0:
        return None, math.inf, nterms  # full cancellation: defer to mp
    cond = total / abs(s)
    cancel = math.log10(cond) if cond > 1 else 0.0
    if cond * nterms * 2.0 ** -52 > 1e-8:
        return None, cancel, nterms
    return (1 if s > 0 else -1, lmax + math.log(abs(s))), cancel, nterms


def _sixj_mp(t, lv, prec):
    """Full recomputation of the symbol at prec bits.

    6j^2 is MpFactorials.square at P = prec + 32 bits, and log |6j| is
    half its log, taken once in mpmath at prec bits.  The sign is the
    z-sum's, and each negative Theta (Level.theta) turns the quadrant
    once, as in sixj_info's float branch.
    """
    tab = lv.mp_factorials(prec)
    zsum = tab.zsum(t)
    if not zsum[0]:
        return ExtScalar()
    m, e = tab.square(t, zsum)
    quad = sum(lv.theta(a, b, c)[0] for a, b, c in _vertex_triples(t))
    with MP_LOCK, mp.workprec(prec):
        lg = float(mp.log(mp.mpf((abs(m), e)))) / 2
    return ExtScalar.from_log(lg, sign=1 if zsum[0] > 0 else -1, quadrant=quad)


def _vertex_triples(t):
    n1, n2, n3, n4, n5, n6 = t
    return ((n1, n2, n3), (n1, n5, n6), (n2, n4, n6), (n3, n4, n5))


def sixj_info(n1, n2, n3, n4, n5, n6, level) -> dict:
    """The 6j symbol together with evaluation diagnostics.

    Returns a dict with keys ``value`` (ExtScalar), ``admissible``,
    ``terms`` (length of the z sum), ``cancel_digits`` (decimal digits
    lost to cancellation in the alternating sum, as estimated from the
    double-precision pass), ``used_mp`` and ``prec_bits``.
    """
    lv = Level.of(level)
    t = (n1, n2, n3, n4, n5, n6)
    if not is_admissible_sixtuple(t, lv):
        return {
            "value": ExtScalar(),
            "admissible": False,
            "terms": 0,
            "cancel_digits": 0.0,
            "used_mp": False,
            "prec_bits": None,
        }
    key = _canonical_sixtuple(_ints(*t))  # admissible, so integral
    hit = lv._sixj_cache.get(key)
    if hit is not None:
        return {"value": hit[0], **hit[1]}
    zsum, cancel, nterms = _sixj_double(key, lv)
    if zsum is None:
        prec = lv.r + 64
        value = _sixj_mp(key, lv, prec)
    else:
        prec = None
        quad = 0
        preflog = 0.0
        for a, b, c in _vertex_triples(key):
            negative, lg = lv.theta(a, b, c)
            quad += negative
            preflog -= 0.5 * lg
        sign, log = zsum
        value = ExtScalar.from_log(preflog + log, sign=sign, quadrant=quad)
    info = {
        "admissible": True,
        "terms": nterms,
        "cancel_digits": cancel,
        "used_mp": prec is not None,
        "prec_bits": prec,
    }
    if len(lv._sixj_cache) >= _SIXJ_CACHE_MAX:
        lv._sixj_cache.clear()
    lv._sixj_cache[key] = (value, info)
    return {"value": value, **info}


def sixj(n1, n2, n3, n4, n5, n6, level) -> ExtScalar:
    """Tetrahedral 6j symbol at the level, as an ExtScalar.

    The six colors label the edges of a tetrahedron so that the vertex
    triples are (n1,n2,n3), (n1,n5,n6), (n2,n4,n6), (n3,n4,n5); the pairs
    (n1,n4), (n2,n5), (n3,n6) sit on opposite edges.  The value is

        prod_v Theta(v)^(-1/2) *
        sum_z (-1)^z [z+1]! / (prod_i [z-T_i]! * prod_j [Q_j-z]!)

    with z running from max_i T_i to min(min_j Q_j, r-2).  It is purely
    real when the number of negative vertex thetas is even and purely
    imaginary when odd.  Inadmissible tuples give zero.

    The alternating sum is evaluated in log-shifted double precision as
    one signed running sum beside an absolute one; when the cancellation
    estimate says doubles cannot deliver ~8 significant digits the symbol
    is recomputed at r + 64 bits from MpFactorials' fixed-point tables
    (_sixj_mp).  Values are memoized per level under the 24 tetrahedral
    symmetries, and under the tuple as given, so a repeated call is one
    lookup; a tuple with a non-integral entry is not a tuple of colors
    and gives zero without a lookup.
    """
    lv = Level.of(level)
    t = _ints(n1, n2, n3, n4, n5, n6)
    if t is None:
        return ExtScalar()  # 2.0 is not a color, though it hashes like 2
    hit = lv._sixj_cache.get(t)
    if hit is None:
        info = sixj_info(*t, lv)
        hit = (info.pop("value"), info)
        if len(lv._sixj_cache) >= _SIXJ_CACHE_MAX:
            lv._sixj_cache.clear()
        lv._sixj_cache[t] = hit
    return hit[0]


def kirby_norm(level) -> float:
    """N = r / (4 sin^2(2 pi / r)), the square norm of the Kirby color.

    Equals sum over colors i of circle_weight(i)^2 = sum [i+1]^2.
    """
    lv = Level.of(level)
    s = math.sin(2 * math.pi / lv.r)
    return lv.r / (4 * s * s)

"""Exact arithmetic in cyclotomic fields, used as an evaluation oracle.

The floating-point 6j engine in qnum is cross-checked against exact
computation in Q(zeta_r).  Square roots of thetas are not elements of the
field, so the oracle computes the *square* of the 6j symbol: with
Delta(v)^2 = 1/Theta(v) the square is a ratio of quantum factorials and
lives in the field.  Everything here is coefficient vectors of Fractions
over the basis 1, zeta, ..., zeta^(d-1) with d = phi(r), reduced modulo
the cyclotomic polynomial Phi_r; nothing is shared with the float path
beyond the statement of the formulas.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .errors import BudgetExceeded, Inadmissible
from .qnum import MP_LOCK

_EMBED_BITS = 120


# ---------------------------------------------------------------------------
# integer polynomial helpers (little-endian coefficient lists)


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _int_poly_div_exact(num, den):
    """Exact division of integer polynomials; den must be monic and divide num."""
    num = list(num)
    dn = len(den) - 1
    q = [0] * (len(num) - dn)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + dn]
        q[k] = c
        if c:
            for i, dc in enumerate(den):
                num[k + i] -= c * dc
    if any(num[:dn]):
        raise ArithmeticError("polynomial division left a remainder")
    return q


def cyclotomic_poly(r):
    """Phi_r as an integer coefficient list, via x^r - 1 = prod_{d|r} Phi_d."""
    polys = {}
    for d in _divisors(r):
        xd1 = [0] * d + [1]
        xd1[0] = -1
        p = xd1
        for e in _divisors(d)[:-1]:
            p = _int_poly_div_exact(p, polys[e])
        polys[d] = p
    return polys[r]


class CycloField:
    """Q(zeta_r) with precomputed reduction rows for zeta^k."""

    def __init__(self, r: int):
        self.r = r
        self.phi = cyclotomic_poly(r)
        self.d = len(self.phi) - 1
        d = self.d
        # rows[k] = coefficients of x^k reduced mod Phi_r (integers, since
        # Phi_r is monic).  Needed up to max(r-1, 2d-2) for products.
        kmax = max(r - 1, 2 * d - 2)
        rows = []
        for k in range(min(d, kmax + 1)):
            row = [0] * d
            row[k] = 1
            rows.append(row)
        for k in range(d, kmax + 1):
            prev = rows[k - 1]
            over = prev[d - 1]
            row = [-over * self.phi[0]] + [prev[i - 1] - over * self.phi[i] for i in range(1, d)]
            rows.append(row)
        self.rows = rows

    @classmethod
    @lru_cache(maxsize=16)
    def of(cls, r) -> "CycloField":
        return cls(r)

    def zero(self):
        return CycloExact(self, (Fraction(0),) * self.d)

    def one(self):
        return CycloExact(self, (Fraction(1),) + (Fraction(0),) * (self.d - 1))

    def zeta(self, k: int = 1):
        row = self.rows[k % self.r]
        return CycloExact(self, tuple(Fraction(c) for c in row))


class CycloExact:
    """An element of Q(zeta_r) as a Fraction vector over 1, zeta, ..., zeta^(d-1)."""

    __slots__ = ("field", "vec")

    def __init__(self, field: CycloField, vec):
        self.field = field
        self.vec = tuple(vec)

    def __eq__(self, other):
        if isinstance(other, CycloExact):
            return self.field.r == other.field.r and self.vec == other.vec
        return NotImplemented

    def __hash__(self):
        return hash((self.field.r, self.vec))

    def __add__(self, other):
        return CycloExact(self.field, tuple(a + b for a, b in zip(self.vec, other.vec)))

    def __sub__(self, other):
        return CycloExact(self.field, tuple(a - b for a, b in zip(self.vec, other.vec)))

    def __neg__(self):
        return CycloExact(self.field, tuple(-a for a in self.vec))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloExact(self.field, tuple(a * other for a in self.vec))
        d = self.field.d
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.vec):
            if a == 0:
                continue
            for j, b in enumerate(other.vec):
                if b:
                    conv[i + j] += a * b
        out = list(conv[:d]) + [Fraction(0)] * (d - len(conv[:d]))
        rows = self.field.rows
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c == 0:
                continue
            row = rows[k]
            for j in range(d):
                if row[j]:
                    out[j] += c * row[j]
        return CycloExact(self.field, out)

    __rmul__ = __mul__

    def embed(self) -> complex:
        """Numeric value at zeta = exp(2*pi*i/r), at _EMBED_BITS bits under MP_LOCK."""
        with MP_LOCK, mp.workprec(_EMBED_BITS):
            z = mp.e ** (2j * mp.pi / self.field.r)
            acc = mp.mpc(0)
            p = mp.mpc(1)
            for c in self.vec:
                if c:
                    acc += p * mp.mpf(c.numerator) / mp.mpf(c.denominator)
                p *= z
            return complex(acc)

    def __repr__(self):
        terms = [f"{c}*z^{k}" for k, c in enumerate(self.vec) if c]
        return "CycloExact(" + (" + ".join(terms) if terms else "0") + ")"


# the exact oracle refuses levels past this, where the Fraction arithmetic
# stops being worth the wait
_MAX_LEVEL = 31


class CycloOracle:
    """Exact evaluation of quantum-number expressions at one level.

    Independent of the floating-point path: quantum integers are built
    from the Laurent expansion [n] = sum_j zeta^(n-1-2j), factorials and
    their inverses are exact field elements, and the 6j square is a ratio
    of those.  Levels past _MAX_LEVEL raise BudgetExceeded.
    """

    def __init__(self, r: int):
        if r > _MAX_LEVEL:
            raise BudgetExceeded(f"exact oracle capped at r <= {_MAX_LEVEL}, got r={r}")
        if r < 3 or r % 2 == 0:
            raise ValueError(f"level must be an odd integer >= 3, got {r}")
        self.r = r
        self.field = CycloField.of(r)
        f = self.field
        self.qint = [f.zero()]
        for n in range(1, r):
            acc = f.zero()
            for j in range(n):
                acc = acc + f.zeta((n - 1 - 2 * j) % r)
            self.qint.append(acc)
        self.fact = [f.one()]
        for n in range(1, r):
            self.fact.append(self.fact[-1] * self.qint[n])
        # The top inverse in closed form, 1/[r-1]! = (zeta - 1/zeta)^(r-1) / r:
        # [n] = zeta^-n (zeta^2n - 1) / (zeta - 1/zeta), the zeta^-n multiply
        # to 1 for odd r, and 2n runs over the nonzero residues mod r, so
        # prod (zeta^2n - 1) = prod_j (1 - zeta^j) = r.  Then walk down
        # with 1/[n-1]! = [n] / [n]!.
        inv = [None] * r
        step = f.zeta(1) - f.zeta(r - 1)
        top = f.one() * Fraction(1, r)
        for _ in range(r - 1):
            top = top * step
        inv[r - 1] = top
        for n in range(r - 1, 0, -1):
            inv[n - 1] = inv[n] * self.qint[n]
        self.fact_inv = inv
        # exact values per admissible triple; field elements are immutable
        self._theta_inverse: dict[tuple, CycloExact] = {}

    @classmethod
    @lru_cache(maxsize=16)
    def of(cls, r) -> "CycloOracle":
        return cls(r)

    def _admissible_triple(self, a, b, c):
        if any(x < 0 or x > self.r - 2 or x % 2 for x in (a, b, c)):
            return False
        return abs(a - b) <= c <= a + b and a + b + c <= 2 * self.r - 4

    def theta_inverse(self, a, b, c) -> CycloExact:
        th = self._theta_inverse.get((a, b, c))
        if th is None:
            if not self._admissible_triple(a, b, c):
                raise Inadmissible(f"triple ({a},{b},{c}) not admissible at r={self.r}")
            s = (a + b + c) // 2
            th = self.fact_inv[s + 1] * self.fact[s - a] * self.fact[s - b] * self.fact[s - c]
            th = self._theta_inverse[(a, b, c)] = -th if s % 2 else th
        return th

    def sixj_square(self, colors) -> CycloExact:
        """Exact square of the tetrahedral 6j symbol; zero when inadmissible."""
        n1, n2, n3, n4, n5, n6 = colors
        triples = ((n1, n2, n3), (n1, n5, n6), (n2, n4, n6), (n3, n4, n5))
        if not all(self._admissible_triple(*t) for t in triples):
            return self.field.zero()
        T = [sum(t) // 2 for t in triples]
        Q = (
            (n1 + n2 + n4 + n5) // 2,
            (n1 + n3 + n4 + n6) // 2,
            (n2 + n3 + n5 + n6) // 2,
        )
        zsum = self.field.zero()
        for z in range(max(T), min(min(Q), self.r - 2) + 1):
            term = self.fact[z + 1]
            for ti in T:
                term = term * self.fact_inv[z - ti]
            for qj in Q:
                term = term * self.fact_inv[qj - z]
            zsum = (zsum - term) if z % 2 else (zsum + term)
        out = zsum * zsum
        for t in triples:
            out = out * self.theta_inverse(*t)
        return out


def sixj_exact_square(n1, n2, n3, n4, n5, n6, level) -> complex:
    """Numeric value of the exact 6j square at the level.

    The computation runs entirely in Q(zeta_r) and is embedded at the
    end; use it to validate the floating-point engine.  Raises
    BudgetExceeded for levels past _MAX_LEVEL.
    """
    r = level.r if hasattr(level, "r") else int(level)
    oracle = CycloOracle.of(r)
    return oracle.sixj_square((n1, n2, n3, n4, n5, n6)).embed()

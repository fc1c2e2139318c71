"""Extended-range scalars.

Invariant values at level r grow like exp(c*r), which overflows IEEE
doubles somewhere around r ~ 150.  Everything that can get large is
therefore carried as a float mantissa times a power of two (ExtScalar).
Under the unitary normalization every vertex carries 1/sqrt(Theta) and a
negative Theta contributes a factor -i, so every value is real or purely
imaginary: +-|x| * (-i)**q with q in {0, 1}, since (-i)**2 folds into the
sign.  A real product of quantum integers is accumulated as a plain
(negative, log) pair of a bool and a float, the form of the factorial
table qnum.Level.lf/fneg, and converted once with ExtScalar.from_log.
"""

from __future__ import annotations

import math

# Beyond this exponent gap the smaller addend cannot move the mantissa of
# the larger one (doubles hold 53 bits), so addition returns the larger
# operand unchanged.
_ADD_GAP = 64

_LN2 = math.log(2.0)


class ExtScalar:
    """The number (-i)**q * m * 2**e: real for q = 0, imaginary for q = 1.

    Nonzero values are normalized so that |m| lies in [1/2, 1).  Zero is
    canonical: m = 0.0, e = 0, q = 0.  The constructor takes a real
    mantissa and a quadrant of 0 or 1; from_log folds larger quadrants
    into the sign.  A sum of a real and an imaginary value raises
    ValueError, since no invariant is a complex number in general
    position.
    """

    __slots__ = ("m", "e", "q")

    def __init__(self, mantissa=0.0, exponent=0, quadrant=0):
        if mantissa == 0.0:
            self.m = 0.0
            self.e = 0
            self.q = 0
            return
        # frexp(x) = (f, k) with |f| in [1/2, 1) and x = f * 2**k
        m, k = math.frexp(mantissa)
        self.m = m
        self.e = exponent + k
        self.q = quadrant

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_log(cls, log_magnitude, sign=1.0, quadrant=0):
        """Build sign * (-i)**quadrant * exp(log_magnitude).

        The quadrant argument covers the values produced by products of
        vertex weights: an even count of negative thetas gives a real
        result, an odd count an imaginary one.  A quadrant of 2 or 3
        folds (-i)**2 = -1 into the sign.
        """
        if sign == 0:
            return cls()
        e = int(math.floor(log_magnitude / _LN2))
        frac = log_magnitude - e * _LN2
        m = math.exp(frac)
        if (sign < 0) != (quadrant % 4 >= 2):
            m = -m
        return cls(m, e, quadrant % 2)

    # ---- queries ------------------------------------------------------

    def is_zero(self):
        return self.m == 0.0

    def _scaled(self):
        """m * 2**e as a float, signed inf on overflow."""
        try:
            return math.ldexp(self.m, self.e)
        except OverflowError:
            return math.copysign(math.inf, self.m)

    def to_complex(self):
        """Collapse to an ordinary complex (inf on overflow)."""
        v = self._scaled()
        return complex(0.0, -v) if self.q else complex(v, 0.0)

    def to_float(self):
        """The value as a float (inf on overflow); imaginary values raise."""
        if self.q:
            raise ValueError(f"{self!r} is imaginary, not a float")
        return self._scaled()

    def log_abs(self):
        """Natural log of |value|; -inf for zero."""
        if self.m == 0.0:
            return -math.inf
        return math.log(abs(self.m)) + self.e * _LN2

    # ---- arithmetic ---------------------------------------------------

    def __mul__(self, other):
        m = self.m * other.m
        q = self.q + other.q
        if q == 2:  # (-i)**2 = -1
            return ExtScalar(-m, self.e + other.e)
        return ExtScalar(m, self.e + other.e, q)

    def __add__(self, other):
        if self.m == 0.0:
            return other
        if other.m == 0.0:
            return self
        if self.q != other.q:
            raise ValueError(f"adding real and imaginary values: {self!r} + {other!r}")
        big, small = (self, other) if self.e >= other.e else (other, self)
        gap = big.e - small.e
        if gap > _ADD_GAP:
            return big
        return ExtScalar(big.m + math.ldexp(small.m, -gap), big.e, big.q)

    # ---- formatting ---------------------------------------------------

    def __repr__(self):
        if self.is_zero():
            return "ExtScalar(0)"
        l10 = math.log10(abs(self.m)) + self.e * math.log10(2.0)
        d = int(math.floor(l10))
        mant = math.copysign(10.0 ** (l10 - d), self.m)
        return f"ExtScalar({mant:.9f}e{d:+d}{' * -i' if self.q else ''})"

"""Extended-range scalars.

Invariant values at level r grow like exp(c*r), which overflows IEEE
doubles somewhere around r ~ 150.  Everything that can get large is
therefore carried as a complex mantissa times a power of two
(ExtScalar).  A real product of quantum integers is accumulated as a
plain (negative, log) pair of a bool and a float, the form of the
factorial table qnum.Level.lf/fneg, and converted once with
ExtScalar.from_log.
"""

from __future__ import annotations

import math

# Beyond this exponent gap the smaller addend cannot move the mantissa of
# the larger one (doubles hold 53 bits), so addition returns the larger
# operand unchanged.
_ADD_GAP = 64

_LN2 = math.log(2.0)


class ExtScalar:
    """A complex number stored as mantissa * 2**exponent.

    Nonzero values are normalized so that max(|re|, |im|) of the mantissa
    lies in [1/2, 1).  Zero is canonical: mantissa 0j, exponent 0.
    """

    __slots__ = ("m", "e")

    def __init__(self, mantissa=0j, exponent=0):
        m = complex(mantissa)
        a = max(abs(m.real), abs(m.imag))
        if a == 0.0:
            self.m = 0j
            self.e = 0
            return
        # frexp(a) = (f, k) with f in [1/2, 1) and a = f * 2**k
        _, k = math.frexp(a)
        if k != 0:
            m = complex(math.ldexp(m.real, -k), math.ldexp(m.imag, -k))
        self.m = m
        self.e = exponent + k

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_complex(cls, z):
        return cls(complex(z), 0)

    @classmethod
    def from_log(cls, log_magnitude, sign=1.0, quadrant=0):
        """Build sign * (-i)**quadrant * exp(log_magnitude).

        The quadrant argument covers the values produced by products of
        vertex weights: an even count of negative thetas gives a real
        result, an odd count an imaginary one.
        """
        if sign == 0:
            return cls()
        e = int(math.floor(log_magnitude / _LN2))
        frac = log_magnitude - e * _LN2
        m = math.exp(frac) * (1.0 if sign > 0 else -1.0)
        m *= (1, -1j, -1, 1j)[quadrant % 4]
        return cls(m, e)

    # ---- queries ------------------------------------------------------

    def is_zero(self):
        return self.m == 0j

    def to_complex(self):
        """Collapse to an ordinary complex (inf on overflow)."""
        try:
            return complex(
                math.ldexp(self.m.real, self.e), math.ldexp(self.m.imag, self.e)
            )
        except OverflowError:
            re = math.copysign(math.inf, self.m.real) if self.m.real else 0.0
            im = math.copysign(math.inf, self.m.imag) if self.m.imag else 0.0
            return complex(re, im)

    def to_float(self):
        """Real part as a float; use only on values known to be real."""
        return self.to_complex().real

    def log_abs(self):
        """Natural log of |value|; -inf for zero."""
        if self.is_zero():
            return -math.inf
        return math.log(abs(self.m)) + self.e * _LN2

    # ---- arithmetic ---------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, ExtScalar):
            return ExtScalar(self.m * other.m, self.e + other.e)
        return ExtScalar(self.m * complex(other), self.e)

    __rmul__ = __mul__

    def __neg__(self):
        return ExtScalar(-self.m, self.e)

    def __add__(self, other):
        if not isinstance(other, ExtScalar):
            other = ExtScalar.from_complex(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        big, small = (self, other) if self.e >= other.e else (other, self)
        gap = big.e - small.e
        if gap > _ADD_GAP:
            return big
        shifted = complex(
            math.ldexp(small.m.real, -gap), math.ldexp(small.m.imag, -gap)
        )
        return ExtScalar(big.m + shifted, big.e)

    def __sub__(self, other):
        if not isinstance(other, ExtScalar):
            other = ExtScalar.from_complex(other)
        return self + (-other)

    # ---- formatting ---------------------------------------------------

    def _part_str(self, x):
        if x == 0.0:
            return "0"
        l10 = math.log10(abs(x)) + self.e * math.log10(2.0)
        d = int(math.floor(l10))
        mant = math.copysign(10.0 ** (l10 - d), x)
        return f"{mant:.9f}e{d:+d}"

    def __repr__(self):
        if self.is_zero():
            return "ExtScalar(0)"
        return f"ExtScalar({self._part_str(self.m.real)} {self._part_str(self.m.imag)}j)"


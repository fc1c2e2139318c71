"""Extended-exponent scalar arithmetic."""

import math

import pytest

from skeinvol.extscalar import ExtScalar

MINUS_I = ExtScalar(1.0, 0, 1)  # (-i)**1 * 1.0


def test_normalization_window():
    for x, e, q in [(3.0, 0, 0), (1e-200, 50, 0), (-7.0, -3, 1), (0.5, 0, 1), (-1e300, 9, 0)]:
        s = ExtScalar(x, e, q)
        assert 0.5 <= abs(s.m) < 1.0
        assert s.q == q
        assert math.ldexp(s.m, s.e - e) == x  # the shift is exact


def test_zero_is_canonical():
    for z in (ExtScalar(0.0, 12345), ExtScalar(-0.0, 7, 1), ExtScalar(0, 3)):
        assert z.is_zero()
        assert (z.m, z.e, z.q) == (0.0, 0, 0)
        assert z.log_abs() == -math.inf
    # a product with zero and a sum that cancels are canonical zeros too
    z = ExtScalar(0.0) * MINUS_I
    assert (z.m, z.e, z.q) == (0.0, 0, 0)
    a = ExtScalar(-2.5, 0, 1)
    z = a + ExtScalar(2.5, 0, 1)
    assert (z.m, z.e, z.q) == (0.0, 0, 0)


def test_round_trip_ordinary_values():
    for x in (1.0, -2.618, 3.0, -1e-12, 12345.678):
        assert ExtScalar(x).to_complex() == complex(x, 0.0)
        assert ExtScalar(x).to_float() == x
        # the imaginary value (-i) * x
        assert ExtScalar(x, 0, 1).to_complex() == complex(0.0, -x)


def test_from_log_quadrants():
    # sign * (-i)^quadrant * exp(log): the branch used by vertex weights
    want = {0: 1.0, 1: -1j, 2: -1.0, 3: 1j, 4: 1.0, 5: -1j}
    for quad, phase in want.items():
        x = ExtScalar.from_log(0.0, sign=1.0, quadrant=quad)
        assert x.q == quad % 2
        assert abs(x.to_complex() - phase) < 1e-15
    x = ExtScalar.from_log(2.5, sign=-1.0, quadrant=1)
    assert abs(x.to_complex() - (-1.0) * (-1j) * math.exp(2.5)) < 1e-12
    assert ExtScalar.from_log(2.5, sign=0).is_zero()


def test_huge_exponents_survive():
    big = ExtScalar.from_log(5000.0)
    assert big.to_complex() == complex(math.inf, 0.0)  # collapse overflows...
    assert big.to_float() == math.inf
    assert abs(big.log_abs() - 5000.0) < 1e-9  # ...but the log view is exact
    prod = big * ExtScalar.from_log(-5000.0)
    assert abs(prod.to_complex() - 1.0) < 1e-12
    huge_i = ExtScalar.from_log(5000.0, sign=-1.0, quadrant=1)
    assert huge_i.to_complex() == complex(0.0, math.inf)


def test_mul_adds_exponents():
    a = ExtScalar(0.75, 100)
    b = ExtScalar(0.75, -40)
    c = a * b
    assert abs(c.log_abs() - (a.log_abs() + b.log_abs())) < 1e-12
    # a real times an imaginary value is imaginary, with the mantissas' product
    d = a * ExtScalar(-0.75, -40, 1)
    assert (d.m, d.e, d.q) == (-c.m, c.e, 1)


def test_i_products_fold_into_the_sign():
    # (-i) * (-i) = -1, a real value
    x = MINUS_I * MINUS_I
    assert (x.m, x.e, x.q) == (-0.5, 1, 0)
    assert x.to_float() == -1.0
    # (-i)**3 = i = -(-i)
    y = x * MINUS_I
    assert (y.m, y.e, y.q) == (-0.5, 1, 1)
    assert y.to_complex() == 1j
    # two imaginary weights of negative thetas square to a real product
    w = ExtScalar.from_log(-0.7, quadrant=1)
    assert (w * w).q == 0 and (w * w).to_float() < 0


def test_add_and_sub():
    a = ExtScalar(3.0)
    b = ExtScalar(-1.0)
    assert (a + b).to_float() == 2.0
    assert (b + a).to_float() == 2.0
    # with no __sub__, a difference is the sum with the negated mantissa
    assert (a + ExtScalar(-b.m, b.e, b.q)).to_float() == 4.0
    # imaginary values add like reals in their own quadrant
    ai = ExtScalar(3.0, 0, 1)
    bi = ExtScalar(-1.0, 0, 1)
    s = ai + bi
    assert s.q == 1 and s.to_complex() == -2j
    # zero is the identity in either quadrant
    assert (ExtScalar() + ai) is ai and (ai + ExtScalar()) is ai
    # a vastly smaller addend is absorbed without error
    tiny = ExtScalar(0.5, -5000)
    assert (a + tiny).to_float() == 3.0
    assert (ai + ExtScalar(0.5, -5000, 1)).to_complex() == -3j


def test_mixed_quadrant_addition_raises():
    with pytest.raises(ValueError):
        ExtScalar(3.0) + ExtScalar(1.0, 0, 1)
    with pytest.raises(ValueError):
        MINUS_I + ExtScalar(0.5, -5000)  # even when the real addend is absorbed


def test_to_float_refuses_imaginary_values():
    with pytest.raises(ValueError):
        MINUS_I.to_float()
    with pytest.raises(ValueError):
        ExtScalar.from_log(2.0, quadrant=3).to_float()
    assert ExtScalar.from_log(0.0, quadrant=2).to_float() == -1.0


def test_repr_names_the_quadrant():
    assert repr(ExtScalar()) == "ExtScalar(0)"
    assert repr(ExtScalar(-250.0)) == "ExtScalar(-2.500000000e+2)"
    assert repr(ExtScalar(250.0, 0, 1)) == "ExtScalar(2.500000000e+2 * -i)"

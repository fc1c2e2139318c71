"""Extended-exponent scalar arithmetic."""

import math

from skeinvol.extscalar import ExtScalar


def test_normalization_window():
    for z, e in [(3 + 4j, 0), (1e-200, 50), (-7j, -3), (0.5, 0)]:
        x = ExtScalar(z, e)
        a = max(abs(x.m.real), abs(x.m.imag))
        assert 0.5 <= a < 1.0


def test_zero_is_canonical():
    z = ExtScalar(0j, 12345)
    assert z.is_zero()
    assert z.m == 0j and z.e == 0
    assert z.log_abs() == -math.inf


def test_round_trip_ordinary_values():
    for z in (1.0, -2.618, 3 + 4j, -1e-12j, 12345.678):
        got = ExtScalar.from_complex(z).to_complex()
        assert abs(got - z) <= 1e-15 * abs(z)


def test_from_log_quadrants():
    # sign * (-i)^quadrant * exp(log): the branch used by vertex weights
    want = {0: 1.0, 1: -1j, 2: -1.0, 3: 1j}
    for quad, phase in want.items():
        x = ExtScalar.from_log(0.0, sign=1.0, quadrant=quad)
        assert abs(x.to_complex() - phase) < 1e-15
    x = ExtScalar.from_log(2.5, sign=-1.0, quadrant=1)
    assert abs(x.to_complex() - (-1.0) * (-1j) * math.exp(2.5)) < 1e-12


def test_huge_exponents_survive():
    big = ExtScalar.from_log(5000.0)
    assert big.to_complex() == complex(math.inf, 0.0)  # collapse overflows...
    assert abs(big.log_abs() - 5000.0) < 1e-9  # ...but the log view is exact
    prod = big * ExtScalar.from_log(-5000.0)
    assert abs(prod.to_complex() - 1.0) < 1e-12


def test_mul_adds_exponents():
    a = ExtScalar(0.75, 100)
    b = ExtScalar(0.75, -40)
    c = a * b
    assert abs(c.log_abs() - (a.log_abs() + b.log_abs())) < 1e-12


def test_add_and_sub():
    a = ExtScalar.from_complex(3.0)
    b = ExtScalar.from_complex(-1.0 + 2j)
    assert abs((a + b).to_complex() - (2 + 2j)) < 1e-15
    assert abs((a - b).to_complex() - (4 - 2j)) < 1e-15
    # a vastly smaller addend is absorbed without error
    tiny = ExtScalar(0.5, -5000)
    assert (a + tiny).to_complex() == 3.0

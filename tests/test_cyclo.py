"""Exact cyclotomic-field arithmetic used as the 6j oracle."""

import math
import threading

import pytest

from skeinvol.cyclo import CycloField, CycloOracle, cyclotomic_poly, sixj_exact_square
from skeinvol.errors import BudgetExceeded
from skeinvol.qnum import MP_LOCK, is_admissible_triple, sixj, theta_weight


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == [-1, 1]
    assert cyclotomic_poly(2) == [1, 1]
    assert cyclotomic_poly(4) == [1, 0, 1]
    assert cyclotomic_poly(6) == [1, -1, 1]
    assert cyclotomic_poly(12) == [1, 0, -1, 0, 1]
    for p in (5, 7, 11):
        assert cyclotomic_poly(p) == [1] * p


def test_field_root_relations():
    fld = CycloField(7)
    z = fld.zeta().embed()
    assert abs(z - complex(math.cos(2 * math.pi / 7), math.sin(2 * math.pi / 7))) < 1e-12
    # zeta^7 = 1 and 1 + zeta + ... + zeta^6 = 0 hold exactly in the field
    power = fld.one()
    total = fld.zero()
    for _ in range(7):
        total = total + power
        power = power * fld.zeta()
    assert power == fld.one()
    assert total == fld.zero()


def test_embed_waits_for_the_mp_lock():
    # embed sets mpmath's process-wide precision, so it waits while another
    # thread holds MP_LOCK instead of changing the precision under it
    x = CycloField(7).zeta()
    got = []
    with MP_LOCK:
        worker = threading.Thread(target=lambda: got.append(x.embed()))
        worker.start()
        worker.join(0.5)
        assert worker.is_alive() and not got
    worker.join()
    assert got == [x.embed()]


def test_oracle_theta_inverse():
    # the exact inverse against the float theta weight, on every triple
    orc = CycloOracle(7)
    colors = range(0, 5, 2)
    triples = [(a, b, c) for a in colors for b in colors for c in colors
               if is_admissible_triple(a, b, c, 7)]
    assert len(triples) == 14
    for triple in triples:
        want = 1 / theta_weight(*triple, 7)
        assert abs(orc.theta_inverse(*triple).embed() - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("r", [5, 9, 15, 21, 25, 27])
def test_factorial_inverses_exact(r):
    # the top inverse is in closed form; composite levels included
    orc = CycloOracle(r)
    one = orc.field.one()
    for n in range(r):
        assert orc.fact[n] * orc.fact_inv[n] == one


def _sixtuples(r):
    cols = range(0, r - 2, 2)
    for a in cols:
        for b in cols:
            for c in cols:
                if not is_admissible_triple(a, b, c, r):
                    continue
                for d in cols:
                    for e in cols:
                        for f in cols:
                            if (
                                is_admissible_triple(a, e, f, r)
                                and is_admissible_triple(b, d, f, r)
                                and is_admissible_triple(c, d, e, r)
                            ):
                                yield (a, b, c, d, e, f)


@pytest.mark.parametrize("r", [5, 7, 9])
def test_exact_square_matches_float_engine(r):
    worst = 0.0
    for t in _sixtuples(r):
        exact = sixj_exact_square(*t, r)
        v = sixj(*t, r).to_complex()
        worst = max(worst, abs(v * v - exact) / max(1e-300, abs(exact)))
    assert worst < 1e-12


def test_exact_square_inadmissible_is_zero():
    assert abs(sixj_exact_square(2, 0, 0, 0, 0, 0, 7)) == 0.0


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        CycloOracle(101)

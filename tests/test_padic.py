from fractions import Fraction as F

import pytest

from regdyn.padic import PAdic, PrecisionLoss
from regdyn.polyalg import parse_poly


def test_from_rational():
    a = PAdic.from_rational(F(12), 2, 10)
    assert a.valuation() == 2
    b = PAdic.from_rational(F(1, 3), 2, 10)
    assert b.valuation() == 0
    c = PAdic.from_rational(F(9, 2), 3, 10)
    assert c.valuation() == 2


def test_arithmetic_tracks_valuation():
    p = 5
    a = PAdic.from_rational(F(5), p, 8)
    b = PAdic.from_rational(F(1, 5), p, 8)
    assert (a * b).valuation() == 0
    assert (a + a).valuation() == 1
    assert (a ** 3).valuation() == 3


def test_cancellation_gives_inexact_zero():
    p = 3
    a = PAdic.from_rational(F(1), p, 6)
    d = a - a
    with pytest.raises(PrecisionLoss):
        d.valuation()
    assert d.valuation_lower() >= 6


def test_exact_zero():
    z = PAdic.from_rational(0, 7, 6)
    a = PAdic.from_rational(F(7), 7, 6)
    assert (z * a).is_exact_zero


def test_valuation_recursion_oracle():
    # z -> z^2/3 at p = 3: v(z_{n+1}) = 2 v(z_n) - 1, starting at v = 1
    p = 3
    z = PAdic.from_rational(F(3), p, 40)
    inv3 = PAdic.from_rational(F(1, 3), p, 40)
    vals = []
    for _ in range(4):
        vals.append(z.valuation())
        z = z * z * inv3
    assert vals == [1, 1, 1, 1]


def test_zeroth_power_caps_no_precision():
    # x**0 is an exact 1 even for an inexact zero x, so a term without z keeps
    # the precision of its other factors when z has lost all its digits
    one = PAdic.from_rational(F(1), 3, 200)
    zero = one - one
    assert zero ** 0 == 1
    assert parse_poly("w + 1").eval(zero, one).rel == 200

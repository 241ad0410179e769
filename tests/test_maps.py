from fractions import Fraction as F

import pytest

from regdyn.maps import (BitSizeCap, DegreeTooLow, NotRegular,
                         binary_form_resultant, make_regular_map)
from regdyn.polyalg import parse_poly


def test_regular_accepts():
    f = make_regular_map("z^2", "w^2")
    assert f.d == 2 and f.res != 0


def test_not_regular_shared_top_factor():
    # top forms z*w and z^2 share the factor z
    with pytest.raises(NotRegular):
        make_regular_map("z*w", "z^2 + w")


def test_degree_too_low():
    with pytest.raises(DegreeTooLow):
        make_regular_map("z", "w")


def test_mixed_degree_rejection():
    # d = max(deg P, deg Q); a vanishing top form shares every zero
    with pytest.raises(NotRegular):
        make_regular_map("z^3", "w^2")
    with pytest.raises(NotRegular):
        make_regular_map("z^3", "w^2 + z")


def test_binary_form_resultant_oracle():
    # Res(z^2, w^2) = 1 (up to sign conventions it is +-1); nonzero suffices
    r = binary_form_resultant(parse_poly("z^2"), parse_poly("w^2"), 2)
    assert r != 0
    # shared root [1:1] of (z-w)^2 and z*w - w^2 = w(z-w)
    r = binary_form_resultant(parse_poly("(z-w)^2"), parse_poly("z*w - w^2"), 2)
    assert r == 0


def test_apply_and_iterate():
    f = make_regular_map("z^2", "w^2")
    assert f.apply((F(2), F(1))) == (F(4), F(1))
    assert f.iterate(3, (F(2), F(1))) == (F(256), F(1))


def test_iterate_bit_cap():
    f = make_regular_map("z^2", "w^2")
    with pytest.raises(BitSizeCap):
        f.iterate(40, (F(2), F(1)), max_bits=1000)

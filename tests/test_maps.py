from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from regdyn.maps import (BitSizeCap, DegreeTooLow, NotRegular, _solve_rational,
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


@st.composite
def rational_systems(draw):
    """(rows, rhs): a random square rational matrix up to 7 x 7, sparse, and
    singular in about one draw of four, with 0-2 right-hand sides."""
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.just(F(0)), st.fractions(-20, 20, max_denominator=12))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.integers(0, 3)) == 0:  # a row a combination of two others
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        s, t = draw(entry), draw(entry)
        rows[k] = [s * a + t * b for a, b in zip(rows[i], rows[j])] if k not in (i, j) \
            else [F(0)] * n
    rhs = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=2))
    return rows, rhs


def _fraction(x):
    return F(int(x.p), int(x.q))


@settings(max_examples=60, deadline=None)
@given(rational_systems())
def test_fraction_free_solve_matches_sympy(system):
    rows, rhs = system
    det, xs = _solve_rational(rows, rhs)
    M = sp.Matrix([[sp.Rational(a.numerator, a.denominator) for a in row] for row in rows])
    assert type(det) is F and det == _fraction(M.det())
    if det == 0:
        assert xs is None
        return
    assert len(xs) == len(rhs)
    for b, x in zip(rhs, xs):
        want = M.LUsolve(sp.Matrix([sp.Rational(c.numerator, c.denominator) for c in b]))
        assert x == [_fraction(c) for c in want]
        assert all(type(c) is F for c in x)

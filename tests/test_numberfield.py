import math
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.polys.polyerrors import NotInvertible

from regdyn.numberfield import NumberField

x = sp.Symbol("x")

# the cyclotomic fields Q(zeta_L) that dmm searches, and two non-monic
# moduli; 3x^3 - x + 2 = (x + 1)(3x^2 - 3x + 2) is reducible, so its ring
# has zero divisors and exercises the non-invertible branch
NAMED = [(f"Phi_{L}", sp.Poly(sp.cyclotomic_poly(L, x), x)) for L in range(1, 61)] + [
    ("2x^2-3", sp.Poly(2 * x**2 - 3, x)), ("3x^3-x+2", sp.Poly(3 * x**3 - x + 2, x))]
MODULI = [m for _name, m in NAMED]

coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def ascending(p: sp.Poly) -> list:
    return [int(c) for c in reversed(p.all_coeffs())]


def to_poly(cs) -> sp.Poly:
    return sp.Poly(sum((sp.Rational(c.numerator, c.denominator) * x**k
                        for k, c in enumerate(cs)), sp.Integer(0)), x, domain="QQ")


def oracle(p: sp.Poly, m: sp.Poly) -> tuple:
    """Coefficients of p mod m as a tuple of m.degree() Fractions."""
    r = p.rem(m)
    cs = [F(int(c.p), int(c.q)) for c in reversed(r.all_coeffs())] if not r.is_zero else []
    return tuple(cs + [F(0)] * (m.degree() - len(cs)))


@st.composite
def field_and_elements(draw, count=2):
    m = draw(st.sampled_from(MODULI))
    n = m.degree()
    # up to n + 2 coefficients, so construction reduces mod m too; a
    # sparse draw keeps products of the degree-58 fields small
    elems = [draw(st.lists(st.one_of(st.just(F(0)), coeff), min_size=1, max_size=n + 2))
             for _ in range(count)]
    return m, NumberField(ascending(m)), elems


def key(e):
    return e.num, e.den


def check(value, m, expected_poly):
    assert value.coeffs == oracle(expected_poly, m)
    assert all(type(c) is F for c in value.coeffs)
    assert value.den > 0 and value.field.degree == m.degree()
    # lowest terms: (num, den) is unique to the element
    assert math.gcd(value.den, *value.num) == 1


@settings(max_examples=150, deadline=None)
@given(field_and_elements())
def test_ring_operations_match_sympy(fe):
    m, K, (a, b) = fe
    A, B = to_poly(a), to_poly(b)
    ea, eb = K(a), K(b)
    check(ea, m, A)
    check(ea + eb, m, A + B)
    check(ea - eb, m, A - B)
    check(-ea, m, -A)
    check(ea * eb, m, A * B)
    check(ea ** 3, m, A ** 3)
    check(ea ** 0, m, sp.Poly(1, x, domain="QQ"))
    assert (ea == eb) == (oracle(A, m) == oracle(B, m))
    assert ea == K(list(ea.coeffs)) and hash(ea) == hash(K(list(ea.coeffs)))


@settings(max_examples=150, deadline=None)
@given(field_and_elements(), coeff, st.integers(-30, 30))
def test_scalars_match_sympy(fe, q, k):
    m, K, (a, _b) = fe
    A = to_poly(a)
    ea = K(a)
    for s in (q, k):
        S = sp.Rational(F(s).numerator, F(s).denominator)
        check(ea * s, m, A * S)
        check(s * ea, m, A * S)
        check(ea + s, m, A + S)
        check(s - ea, m, S - A)
        assert ea * s == ea * K(s)


@settings(max_examples=150, deadline=None)
@given(field_and_elements())
def test_inverse_matches_sympy(fe):
    m, K, (a, _b) = fe
    A = to_poly(a)
    ea = K(a)
    try:
        inv = A.invert(m)
    except NotInvertible:
        with pytest.raises(ZeroDivisionError):
            ea.inverse()
        return
    check(ea.inverse(), m, inv)
    assert ea * ea.inverse() == 1
    assert ea ** -2 == (ea * ea).inverse()
    assert K(1) / ea == ea.inverse()


@pytest.mark.parametrize("m", MODULI, ids=[name for name, _m in NAMED])
def test_same_element_built_two_ways(m):
    K = NumberField(ascending(m))
    n = K.degree
    g = K.generator()
    # x^k for k up to 2n: a power of the generator against one reduction
    # of the monomial, and against the oracle
    for k in range(2 * n + 1):
        direct = K([0] * k + [1])
        power = g ** k
        assert direct == power
        assert key(direct) == key(power) and hash(direct) == hash(power)
        assert {(direct, g): k}[(power, g)] == k  # orbit points as dict keys
        assert direct.coeffs == oracle(sp.Poly(x**k, x, domain="QQ"), m)
    # the same value reached through a common denominator that cancels
    a = K([F(1, 3), F(-2, 9)] + [0] * (n - 2)) if n >= 2 else K([F(1, 3)])
    b = (a * 6) / 6
    c = a + K([F(1, 2)]) - K([F(1, 2)])
    assert key(a) == key(b) == key(c)
    assert hash(a) == hash(b) == hash(c)
    # a field built from a rational multiple of the modulus is the same field
    K2 = NumberField([F(c, 7) for c in ascending(m)])
    assert K2 == K and K2.modulus == K.modulus
    assert key(K2(list(a.coeffs))) == key(a) and hash(K2(list(a.coeffs))) == hash(a)


def test_modulus_is_primitive_with_positive_lead():
    K = NumberField([F(-3, 2), 0, 1])   # x^2 - 3/2
    assert K.modulus == (-3, 0, 2)
    assert NumberField([6, 0, -4]).modulus == (-3, 0, 2)
    with pytest.raises(ValueError):
        NumberField([5])


def test_non_monic_reduction():
    # in Q[x]/(2x^2 - 3), x^2 = 3/2 and x^3 = 3x/2
    K = NumberField([-3, 0, 2])
    g = K.generator()
    assert (g * g).coeffs == (F(3, 2), F(0))
    assert (g ** 3).coeffs == (F(0), F(3, 2))
    assert (g ** 3).num == (0, 3) and (g ** 3).den == 2
    assert g.inverse().coeffs == (F(0), F(2, 3))


def test_repr_lists_the_fraction_coefficients():
    K = NumberField([1, 1, 1])
    assert repr(K([F(1, 2), -1])) == "NFElement(Fraction(1, 2), Fraction(-1, 1))"
    assert repr(K(0)) == "NFElement(Fraction(0, 1), Fraction(0, 1))"


def test_mixed_fields_are_rejected():
    K, L = NumberField([1, 0, 1]), NumberField([2, 0, 1])
    with pytest.raises(ValueError):
        K.generator() * L.generator()
    with pytest.raises(ZeroDivisionError):
        K.zero().inverse()

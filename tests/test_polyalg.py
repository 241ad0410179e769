import math
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from regdyn.numberfield import NumberField
from regdyn.polyalg import (MultiPoly, PolyParseError, _low_degree_factors, homogeneous_top,
                            parse_poly)
from regdyn.series import TruncSeries, TruncSeries2


def test_parse_basic():
    p = parse_poly("z^2 + 3*w - 1/2")
    assert p.coeffs == {(2, 0): F(1), (0, 1): F(3), (0, 0): F(-1, 2)}


def test_parse_nested():
    p = parse_poly("(z + w)^2 - z^2 - w^2")
    assert p.coeffs == {(1, 1): F(2)}


def test_parse_error_position():
    with pytest.raises(PolyParseError):
        parse_poly("z^2 + + w")
    with pytest.raises(PolyParseError):
        parse_poly("z^")


# an expression string with its value built by MultiPoly arithmetic in the
# order it is written: sums term by term, products factor by factor
_numbers = st.builds(lambda n, d: (f"{n}/{d}" if d else str(n), F(n, d or 1)),
                     st.integers(0, 5), st.integers(0, 4))
_variables = st.sampled_from([("z", MultiPoly.variable(0)), ("w", MultiPoly.variable(1))])


def _expressions(depth):
    base = _variables | _numbers.map(lambda t: (t[0], MultiPoly.constant(t[1])))
    if depth:
        base = base | _expressions(depth - 1).map(lambda t: (f"({t[0]})", t[1]))
    factor = st.tuples(base, st.none() | st.integers(0, 2)).map(
        lambda t: t[0] if t[1] is None else (f"{t[0][0]}^{t[1]}", t[0][1] ** t[1]))

    def product(fs):
        value = fs[0][1]
        for _, g in fs[1:]:
            value = value * g
        return "*".join(s for s, _ in fs), value

    def total(t):
        lead, terms = t
        text = ("-" if lead else "") + terms[0][1][0]
        value = terms[0][1][1] * (-1 if lead else 1)
        for sign, (s, g) in terms[1:]:
            text += f" {sign} {s}"
            value = value + g if sign == "+" else value - g
        return text, value

    term = st.lists(factor, min_size=1, max_size=3).map(product)
    return st.tuples(st.booleans(), st.lists(st.tuples(st.sampled_from("+-"), term),
                                             min_size=1, max_size=4)).map(total)


@given(_expressions(1))
def test_parse_matches_multipoly_arithmetic_in_value_and_order(case):
    # the coefficient dict keeps the insertion order of MultiPoly sums (which
    # MultiPoly.eval follows), cancelled monomials dropped
    text, value = case
    assert list(parse_poly(text).coeffs.items()) == list(value.coeffs.items())


def test_a_cancelled_monomial_reenters_at_the_end():
    assert list(parse_poly("z - z + w + z").coeffs) == [(0, 1), (1, 0)]
    assert list(parse_poly("z*(w + 1) - z*w + 2*z*w").coeffs) == [(1, 0), (1, 1)]


def test_parse_errors_keep_their_message_and_position():
    for text, message, position in [
            ("z^2 + + w", "unexpected character '+'", 6), ("z^", "expected integer", 2),
            ("(z + w", "expected ')'", 6), ("z + 1/0", "zero denominator", 7),
            ("z * x", "unknown variable 'x'", 4), ("z w", "unexpected character 'w'", 2),
            ("", "unexpected end of input", 0), ("z*-1", "unexpected character '-'", 2)]:
        with pytest.raises(PolyParseError) as err:
            parse_poly(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position


def test_roundtrip_printer():
    for s in ["z^2 - w", "z*w + 1", "2/3*z - w^3"]:
        p = parse_poly(s)
        assert parse_poly(p.to_string()).coeffs == p.coeffs


coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=10)
polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=5
).map(MultiPoly)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b).coeffs == (b + a).coeffs
    assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs


@given(polys, polys)
def test_eval_hom(a, b):
    z, w = F(2, 3), F(-5, 7)
    assert (a * b).eval(z, w) == a.eval(z, w) * b.eval(z, w)
    assert (a + b).eval(z, w) == a.eval(z, w) + b.eval(z, w)


def naive_eval(p, z, w):
    total = 0
    for (i, j), c in p.coeffs.items():
        total = total + c * z**i * w**j
    return total


_K = NumberField([1, -1, 0, 1, -1, 1, 0, -1, 1])  # the 15th cyclotomic polynomial
_L = NumberField([2, -1, 0, 3])                  # 3x^3 - x + 2, not monic
EVAL_POINTS = [
    (F(2, 3), F(-5, 7)),
    (complex(0.3, 0.4), complex(-1.2, 0.5)),
    (_K.generator() ** 4, _K([F(1, 2), 0, -1])),
    (_L([F(1, 3), 2]), _L.generator() ** 2),
]


def _same(a, b):
    return type(a) is type(b) and a == b


@given(polys)
def test_eval_is_the_naive_term_sum(p):
    # the same terms in the same order: equal exactly, complex rounding
    # included
    assume(any(i or j for i, j in p.coeffs))
    for z, w in EVAL_POINTS:
        assert _same(p.eval(z, w), naive_eval(p, z, w))


@given(coeffs)
def test_a_constant_evaluates_to_its_coefficient(c):
    # no int 0 or 1 is mixed into the point's ring, so a constant stays a
    # Fraction at every point (the zero polynomial gives the int 0)
    for z, w in EVAL_POINTS:
        assert _same(MultiPoly.constant(c).eval(z, w), c if c else 0)


def test_homogeneous_top():
    assert homogeneous_top(parse_poly("z^2 + z*w + w")).coeffs == \
        {(2, 0): F(1), (1, 1): F(1)}


def test_compose():
    p = parse_poly("z^2 + w")
    q = p.compose(parse_poly("w"), parse_poly("z"))
    assert q.coeffs == {(0, 2): F(1), (1, 0): F(1)}


def test_poly_round_trip_keeps_the_coefficients():
    z, w = sp.symbols("z w")
    for text in ("3*z^2*w - 1/2*w + 7", "z - w", "0"):
        p = parse_poly(text)
        before = dict(p.coeffs)
        q = p.to_poly(z, w)
        assert q.domain == (sp.QQ if "/" in text else sp.ZZ)
        assert MultiPoly.from_poly(q) == p
        # to_poly leaves the Fraction coefficients of p as they were
        assert p.coeffs == before and all(type(c) is F for c in p.coeffs.values())


# MultiPoly's integer form against a plain Fraction-dict reference: raw
# term dicts with zeros, small denominators that share primes
_raw_terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                             st.fractions(-3, 3, max_denominator=6), max_size=5)


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: F(c) for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for (i, j), c in a.items():
        for (k, l), e in b.items():
            out[i + k, j + l] = out.get((i + k, j + l), 0) + c * e
    return {e: F(c) for e, c in out.items() if c}


def _ref_pow(a, n):
    out = {(0, 0): F(1)}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_compose(a, u, v):
    out = {}
    for (i, j), c in a.items():
        out = _ref_add(out, _ref_mul({(0, 0): c}, _ref_mul(_ref_pow(u, i), _ref_pow(v, j))))
    return out


@given(_raw_terms, _raw_terms, _raw_terms, st.integers(0, 3), st.integers(0, 6))
def test_integer_form_is_canonical_and_matches_a_fraction_reference(ta, tb, tc, n, k):
    a, b, c = MultiPoly(ta), MultiPoly(tb), MultiPoly(tc)
    ra, rb, rc = ({e: F(x) for e, x in t.items() if x} for t in (ta, tb, tc))
    cases = [(a, ra), (b, rb), (a + b, _ref_add(ra, rb)), (a - b, _ref_add(ra, rb, -1)),
             (a * b, _ref_mul(ra, rb)), (a ** n, _ref_pow(ra, n)),
             (a.compose(b, c), _ref_compose(ra, rb, rc)),
             (a.homogeneous_part(k), {e: x for e, x in ra.items() if sum(e) == k})]
    for p, ref in cases:
        # integer numerators over one positive denominator, in lowest terms
        assert p.den > 0 and math.gcd(p.den, *p.num.values()) == 1
        assert all(type(x) is int and x for x in p.num.values())
        assert p.num or p.den == 1
        assert p.coeffs == ref and all(type(x) is F for x in p.coeffs.values())
        q = MultiPoly(ref)
        assert p == q and hash(p) == hash(q)
    # equal polynomials built by different routes compare and hash alike
    for p, q in [((a + b) - b, a), (a * b, b * a), (a * (b + c), a * b + a * c),
                 (a - a, MultiPoly.zero()), (a * F(2, 3) * F(3, 2), a)]:
        assert p == q and hash(p) == hash(q)


# -- the operators the exact types share (polyalg._Exact) ---------------------

_small = st.fractions(-3, 3, max_denominator=4)
_pairs = st.tuples(st.integers(0, 2), st.integers(0, 2))


@st.composite
def exact_pairs(draw):
    """(x, y, one): two values of one exact type and the one of x's type and
    order.  The series orders may differ; the number fields are Q(sqrt 2),
    Q(zeta_5) and Q(sqrt(3/2)), whose modulus is not monic."""
    kind = draw(st.sampled_from(["poly", "series", "series2", "nf"]))
    if kind == "poly":
        x, y = (MultiPoly(draw(st.dictionaries(_pairs, _small, max_size=3))) for _ in "xy")
        return x, y, MultiPoly.constant(1)
    if kind == "series":
        x, y = (TruncSeries(draw(st.lists(_small, max_size=4)), draw(st.integers(0, 4)))
                for _ in "xy")
        return x, y, TruncSeries.one(x.order)
    if kind == "series2":
        x, y = (TruncSeries2(draw(st.dictionaries(_pairs, _small, max_size=3)),
                             draw(st.integers(0, 3))) for _ in "xy")
        return x, y, TruncSeries2.constant(1, x.order)
    K = NumberField(draw(st.sampled_from([[-2, 0, 1], [1, 1, 1, 1, 1], [-3, 0, 2]])))
    x, y = (K(draw(st.lists(_small, min_size=1, max_size=K.degree))) for _ in "xy")
    return x, y, K(1)


@settings(max_examples=200, deadline=None)
@given(exact_pairs(), st.integers(-3, 3), st.integers(1, 3))
def test_the_shared_operators_of_every_exact_type(case, k, m):
    x, y, one = case
    product = one  # x ** 0 is the one of x's type and order
    for n in range(9):
        assert x ** n == product and type(x ** n) is type(x)
        product = product * x
    assert x - y == x + (-y)
    assert k - x == -(x - k)
    if isinstance(x, MultiPoly | TruncSeries | TruncSeries2):
        with pytest.raises(ValueError):
            x ** -m
    elif not x.is_zero():
        assert x ** -m == x.inverse() ** m


# -- factors of univariate integer polynomials --------------------------------

_x = sp.Symbol("x")


def _sympy_factors(cs):
    """sp.factor_list's factors of sum cs[k] x^k as (ascending tuple, multiplicity)."""
    return [(tuple(int(c) for c in reversed(b.all_coeffs())), m)
            for b, m in sp.factor_list(sp.Poly(cs[::-1], _x))[1]]


_linear = st.tuples(st.integers(1, 6), st.integers(-8, 8))  # (a, b): a x + b
_quadratic = st.tuples(st.integers(1, 4), st.integers(-6, 6), st.integers(-6, 6))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(_linear, _quadratic), st.integers(1, 3)), max_size=4),
       st.integers(0, 3), st.sampled_from([1, -1, 2, -6, 15]), st.booleans())
def test_low_degree_factors_match_sympy(factors, zeros, content, cubic):
    # products of linear and quadratic factors with multiplicities, a root 0
    # of multiplicity `zeros`, a content and a sign; an irreducible cubic or
    # quartic, or two irreducible quadratics, leave the closed form
    p = sp.Poly(content * _x ** zeros, _x)
    for f, m in factors:
        p *= sp.Poly(list(f), _x) ** m
    if cubic:
        p *= sp.Poly(_x ** 3 - 2 if zeros % 2 else _x ** 4 + _x + 1, _x)
    cs = [int(c) for c in reversed(p.all_coeffs())]
    got, want = _low_degree_factors(cs), _sympy_factors(cs)
    quadratics = sum(len(f) == 3 for f, _m in want)
    if got is not None:
        assert got == want
        assert all(len(f) <= 3 for f, _m in want) and quadratics <= 1
    if any(len(f) > 3 for f, _m in want) or quadratics > 1 or cubic:
        assert got is None


@pytest.mark.parametrize("cs, closed", [
    ([5], True), ([0, 0, 3], True), ([-4, 0, 1], True), ([1, 0, 1], True),
    ([6, -11, 6, -1], True), ([0, 2, -3, 1], True), ([-1, 0, 0, 0, 1], True),
    ([4, -4, 1], True), ([-2, 0, 0, 1], False), ([2**70, 0, 0, 1], False),
    # a coefficient ratio past the double range: sympy factors it
    ([1, 2**1100, 0, 1], False), ([-(2**1100), 1, 0, 1], False),
    # (x + 1)(x + 5)^2 (4x + 5)^5: the five approximations of -5/4 lie
    # farther apart than the fractions of denominator <= 1024, their mean not
    ([78125, 421875, 971875, 1240625, 952500, 445600, 122240, 17664, 1024], True)])
def test_low_degree_factors_of_fixed_cases(cs, closed):
    got = _low_degree_factors(cs)
    assert got == (_sympy_factors(cs) if closed else None)

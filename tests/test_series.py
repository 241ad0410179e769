from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from regdyn.series import TruncSeries, TruncSeries2, exp_series, log_unit


def X(n):
    return TruncSeries2.variable(0, n)


def Y(n):
    return TruncSeries2.variable(1, n)


def test_mul_reciprocal():
    s = TruncSeries([1, 2, 3], 8)
    assert (s * s.reciprocal()) == TruncSeries.one(8)


def test_compose_associative():
    a = TruncSeries([0, 1, 1], 10)
    b = TruncSeries([0, 2, 0, 1], 10)
    c = TruncSeries([0, 1, 0, 0, 5], 10)
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_reversion():
    s = TruncSeries([0, 1, -1, 2, 7], 12)
    g = s.reversion()
    assert s.compose(g) == TruncSeries.identity(12)
    assert g.compose(s) == TruncSeries.identity(12)


def test_log_exp_roundtrip():
    s = TruncSeries([1, 1], 12) ** 3
    assert exp_series(log_unit(s)) == s
    t = TruncSeries([0, 1, F(1, 3), 0, 7], 12)
    assert log_unit(exp_series(t)) == t


def test_log_of_product():
    a = TruncSeries([1, 2, 1], 10)
    b = TruncSeries([1, 0, 3], 10)
    assert log_unit(a * b) == log_unit(a) + log_unit(b)


def test_nth_root():
    s = (TruncSeries([1, 1], 10)) ** 3
    assert s.nth_root_of_unit(3) == TruncSeries([1, 1], 10)


def test_bivariate_reciprocal():
    s = X(8) + Y(8) * 2 + 1
    assert s * s.reciprocal() == TruncSeries2.constant(1, 8)


def _naive_compose(s, u, v):
    out = TruncSeries2.zero(s.order)
    for (i, j), c in s.coeffs.items():
        out = out + TruncSeries2.constant(c, s.order) * u**i * v**j
    return out


def test_compose_fast_paths_match_naive():
    s = (X(9) + Y(9) + X(9) * Y(9)) ** 3 + X(9)
    cases = [
        (X(9), Y(9)),                      # identity
        (X(9), Y(9) + Y(9) ** 2),          # v pure-y
        (X(9) * 2 + Y(9) ** 2, Y(9)),      # v identity
        (X(9) + Y(9), Y(9) + X(9) ** 2),   # generic
    ]
    for u, v in cases:
        assert s.compose(u, v) == _naive_compose(s, u, v)


def test_compose_requires_vanishing():
    with pytest.raises(ValueError):
        X(5).compose(X(5) + 1, Y(5))


def test_coefficient_in_x_roundtrip():
    s = (X(7) + Y(7) * 3 + 1) ** 2
    rebuilt = TruncSeries2.zero(7)
    for i in range(8):
        row = s.coefficient_in_x(i)
        for j, c in enumerate(row.coeffs):
            if c != 0 and i + j <= 7:
                rebuilt = rebuilt + TruncSeries2({(i, j): c}, 7)
    assert rebuilt == s


coeff = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@given(st.lists(coeff, min_size=1, max_size=6), st.lists(coeff, min_size=1, max_size=6))
def test_univariate_mul_commutes(a, b):
    sa, sb = TruncSeries(a, 6), TruncSeries(b, 6)
    assert sa * sb == sb * sa


@given(st.lists(coeff, min_size=2, max_size=6))
def test_derivative_of_product(a):
    s = TruncSeries(a, 6)
    t = TruncSeries([1, 1, 1], 6)
    lhs = (s * t).derivative()
    rhs = s.derivative() * t.truncate(5) + s.truncate(5) * t.derivative()
    assert lhs == rhs


# -- the integer-numerator product kernels against per-term Fraction products

def _naive_mul(a, b):
    n = min(a.order, b.order)
    out = [F(0)] * (n + 1)
    for i, ai in enumerate(a.coeffs[: n + 1]):
        for j, bj in enumerate(b.coeffs[: n + 1 - i]):
            out[i + j] += ai * bj
    return out, n


def _naive_mul2(a, b):
    n = min(a.order, b.order)
    out = {}
    for (i1, j1), c1 in a.coeffs.items():
        for (i2, j2), c2 in b.coeffs.items():
            if i1 + j1 + i2 + j2 <= n:
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}, n


wide = st.one_of(st.just(F(0)),
                 st.fractions(min_value=-50, max_value=50, max_denominator=60))


@st.composite
def series1(draw):
    order = draw(st.integers(0, 9))
    return TruncSeries(draw(st.lists(wide, max_size=order + 1)), order)


@st.composite
def series2(draw):
    order = draw(st.integers(0, 7))
    zero_rows = draw(st.sets(st.integers(0, order)))
    exps = st.tuples(st.integers(0, order), st.integers(0, order))
    terms = draw(st.dictionaries(exps, wide, max_size=24))
    return TruncSeries2({(i, j): c for (i, j), c in terms.items()
                         if i + j <= order and i not in zero_rows}, order)


@given(series1(), series1())
def test_univariate_mul_matches_naive(a, b):
    out, n = _naive_mul(a, b)
    prod = a * b
    assert prod.order == n and prod.coeffs == out
    assert all(type(c) is F for c in prod.coeffs)


@given(series2(), series2())
def test_bivariate_mul_matches_naive(a, b):
    out, n = _naive_mul2(a, b)
    prod = a * b
    assert prod.order == n and prod.coeffs == out
    assert all(type(c) is F for c in prod.coeffs.values())


def test_scalar_add_touches_the_constant_term_only():
    s = TruncSeries([1, 2], 3)
    assert s + 1 == TruncSeries([2, 2], 3)
    assert 1 - s == TruncSeries([0, -2], 3)
    d = TruncSeries([5], 0).derivative()  # order -1: no terms to add to
    assert d.order == -1 and (d + 1).coeffs == []

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from regdyn.series import TruncSeries, TruncSeries2, _fixed_point, exp_series, log_unit


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


def test_fixed_point_raises_when_a_step_never_settles():
    # y -> y + y^3 gains no order: every pass changes the series
    n = 6
    with pytest.raises(ArithmeticError):
        _fixed_point(lambda s: s + TruncSeries.monomial(1, 3, n), TruncSeries.zero(n), n)
    # an order-gaining step settles: phi = y + y^2 phi(y)
    phi = _fixed_point(lambda s: TruncSeries.monomial(1, 1, n) + s.shift(2),
                       TruncSeries.zero(n), n)
    assert phi == TruncSeries([0, 1, 0, 1, 0, 1, 0], n)


def test_log_exp_roundtrip():
    s = TruncSeries([1, 1], 12) ** 3
    assert exp_series(log_unit(s)) == s
    t = TruncSeries([0, 1, F(1, 3), 0, 7], 12)
    assert log_unit(exp_series(t)) == t


def test_log_of_product():
    a = TruncSeries([1, 2, 1], 10)
    b = TruncSeries([1, 0, 3], 10)
    assert log_unit(a * b) == log_unit(a) + log_unit(b)


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


# -- the integer-numerator product kernels against per-term Fraction products
# of coefficient lists a[k] resp. dicts {(i, j): c}

def _fmul(a, b, n):
    out = [F(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        for j, bj in enumerate(b[: n + 1 - i]):
            out[i + j] += ai * bj
    return out


def _fmul2(a, b, n):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            if i1 + j1 + i2 + j2 <= n:
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def _naive_mul(a, b):
    n = min(a.order, b.order)
    return _fmul(a.coeffs, b.coeffs, n), n


def _naive_mul2(a, b):
    n = min(a.order, b.order)
    return _fmul2(a.coeffs, b.coeffs, n), n


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


# -- the numerator form against plain-Fraction oracles, computed term by term

def _fcompose(a, b, n):
    out, power = [F(0)] * (n + 1), [F(1)] + [F(0)] * n
    for ak in a[: n + 1]:
        out = [x + ak * p for x, p in zip(out, power)]
        power = _fmul(power, b, n)
    return out


def _fcompose2(s, u, v, n):
    upow, vpow = [{(0, 0): F(1)}], [{(0, 0): F(1)}]
    for _ in range(n):
        upow.append(_fmul2(upow[-1], u, n))
        vpow.append(_fmul2(vpow[-1], v, n))
    out = {}
    for (i, j), c in s.items():
        if i + j <= n:
            for e, t in _fmul2(upow[i], vpow[j], n).items():
                out[e] = out.get(e, F(0)) + c * t
    return {e: c for e, c in out.items() if c != 0}


def _canonical(s):
    """The stored form is integer numerators over a positive denominator,
    in lowest terms, and coeffs is its Fraction view."""
    nums = s.num if isinstance(s, TruncSeries) else list(s.num.values())
    view = s.coeffs if isinstance(s, TruncSeries) else list(s.coeffs.values())
    assert all(type(c) is int for c in nums) and type(s.den) is int and s.den > 0
    assert math.gcd(s.den, *nums) == 1
    assert all(type(c) is F for c in view) and view == [F(c, s.den) for c in nums]
    if isinstance(s, TruncSeries2):
        assert all(s.num.values())
    return s


def _same(s, t):
    assert s == t and (s.order, s.den, s.num) == (t.order, t.den, t.num)


def _lower(s):
    """s with its constant term removed, so that it vanishes at the origin."""
    return s - s[(0, 0) if isinstance(s, TruncSeries2) else 0]


@given(series1(), series1(), wide)
def test_univariate_ring_operations_match_fraction_oracle(a, b, c):
    n = min(a.order, b.order)
    fa, fb = a.coeffs[: n + 1], b.coeffs[: n + 1]
    cases = [
        (a + b, [x + y for x, y in zip(fa, fb)]),
        (a - b, [x - y for x, y in zip(fa, fb)]),
        (-a, [-x for x in a.coeffs]),
        (a * c, [x * c for x in a.coeffs]),
        (c * a, [c * x for x in a.coeffs]),
        (a + c, [a.coeffs[0] + c] + a.coeffs[1:]),
        (c - a, [c - a.coeffs[0]] + [-x for x in a.coeffs[1:]]),
        (a.truncate(n), fa),
    ]
    for got, want in cases:
        assert _canonical(got).coeffs == want


@given(series1(), series1(), wide)
def test_univariate_routes_to_one_value_store_one_form(a, b, c):
    n = min(a.order, b.order)
    _same(a - a, TruncSeries.zero(a.order))  # cancels to zero: den 1
    _same(a + (-a), TruncSeries.zero(a.order))
    _same(a * 0, TruncSeries.zero(a.order))
    _same((a + b) - b, a.truncate(n))
    _same(b + a, a + b)
    _same(TruncSeries(list(a.coeffs), a.order), a)
    if c != 0:
        _same((a * c) * (1 / c), a)
        _same(a / c, a * (1 / c))


@given(series1(), series1())
def test_univariate_compose_reciprocal_reversion_match_fraction_oracle(a, b):
    inner = _lower(b)
    n = min(a.order, inner.order)
    assert _canonical(a.compose(inner)).coeffs == _fcompose(a.coeffs, inner.coeffs, n)
    if a[0] != 0:
        r = _canonical(a.reciprocal())
        want = [1 / a[0]] + [F(0)] * a.order
        for k in range(1, a.order + 1):
            want[k] = -sum(a[j] * want[k - j] for j in range(1, k + 1)) / a[0]
        assert r.coeffs == want
        _same(a * r, TruncSeries.one(a.order))
    s = _lower(a)
    if s.order >= 1 and s[1] != 0:
        g = _canonical(s.reversion())
        want = [F(0), 1 / s[1]] + [F(0)] * (s.order - 1)
        for k in range(2, s.order + 1):  # s(g + t y^k) = s(g) + s_1 t y^k + ...
            want[k] = -_fcompose(s.coeffs, want, s.order)[k] / s[1]
        assert g.coeffs == want
        _same(s.compose(g), TruncSeries.identity(s.order))


@given(series1())
def test_exp_and_log_match_fraction_oracle(a):
    s = _lower(a)
    want = [F(1)] + [F(0)] * s.order  # k e_k = sum_m m s_m e_(k-m)
    for k in range(1, s.order + 1):
        want[k] = sum(m * s[m] * want[k - m] for m in range(1, k + 1)) / k
    e = _canonical(exp_series(s))
    assert e.coeffs == want
    _same(_canonical(log_unit(e)), s)


@given(series2(), series2(), wide)
def test_bivariate_ring_operations_match_fraction_oracle(a, b, c):
    n = min(a.order, b.order)
    fa = {e: x for e, x in a.coeffs.items() if sum(e) <= n}
    fb = {e: x for e, x in b.coeffs.items() if sum(e) <= n}

    def plus(p, q, sign=1):
        out = dict(p)
        for e, x in q.items():
            out[e] = out.get(e, F(0)) + sign * x
        return {e: x for e, x in out.items() if x != 0}

    cases = [
        (a + b, plus(fa, fb)),
        (a - b, plus(fa, fb, -1)),
        (-a, {e: -x for e, x in a.coeffs.items()}),
        (a * c, {e: x * c for e, x in a.coeffs.items() if x * c != 0}),
        (c * a, {e: c * x for e, x in a.coeffs.items() if c * x != 0}),
        (a + c, plus(a.coeffs, {(0, 0): c})),
        (c - a, plus({(0, 0): c}, a.coeffs, -1)),
        (a.truncate(n), fa),
    ]
    for got, want in cases:
        assert _canonical(got).coeffs == want


@given(series2(), series2(), wide)
def test_bivariate_routes_to_one_value_store_one_form(a, b, c):
    n = min(a.order, b.order)
    _same(a - a, TruncSeries2.zero(a.order))
    _same(a + (-a), TruncSeries2.zero(a.order))
    _same(a * 0, TruncSeries2.zero(a.order))
    _same((a + b) - b, a.truncate(n))
    _same(b + a, a + b)
    _same(TruncSeries2(dict(a.coeffs), a.order), a)
    if c != 0:
        _same((a * c) * (1 / c), a)


@settings(max_examples=40, deadline=None)
@given(series2(), series2(), series2(), st.sampled_from(["general", "x", "y", "pure-y"]))
def test_bivariate_compose_and_reciprocal_match_fraction_oracle(s, u, v, shape):
    n = min(s.order, u.order, v.order)
    u, v = _lower(u), _lower(v)
    if shape in ("x", "y"):  # the identity fast paths
        u = X(u.order) if shape == "x" else u
        v = Y(v.order) if shape == "y" else v
    elif shape == "pure-y":
        v = v.coefficient_in_x(0).to_series2(v.order)
    got = _canonical(s.compose(u, v))
    assert got.order == n and got.coeffs == _fcompose2(s.coeffs, u.coeffs, v.coeffs, n)
    if s[(0, 0)] != 0:
        r = _canonical(s.reciprocal())
        want, c0 = {}, s[(0, 0)]
        for d in range(s.order + 1):  # r_e = -(1/s_00) sum_{f != 0} s_f r_(e - f)
            for i in range(d + 1):
                e = (i, d - i)
                t = F(int(e == (0, 0))) - sum(
                    x * want.get((i - a, d - i - b), F(0))
                    for (a, b), x in s.coeffs.items() if (a, b) != (0, 0))
                want[e] = t / c0
        assert r.coeffs == {e: x for e, x in want.items() if x != 0}
        _same(s * r, TruncSeries2.constant(1, s.order))


@st.composite
def quotients2(draw):
    """(a, b) of orders up to 8, b(0, 0) not 0 or +-1, so the quotient's
    denominators grow with the degree."""
    n, m = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    exps = st.integers(0, n).flatmap(lambda i: st.tuples(st.just(i), st.integers(0, n - i)))
    a = draw(st.dictionaries(exps, wide, max_size=30))
    b = draw(st.dictionaries(exps, wide, max_size=30))
    b[(0, 0)] = draw(wide.filter(lambda c: c not in (0, 1, -1)))
    return TruncSeries2(a, n), TruncSeries2(b, m)


@settings(max_examples=60, deadline=None)
@given(quotients2())
def test_bivariate_division_matches_fraction_oracle(ab):
    a, b = ab
    n = min(a.order, b.order)
    want, b0 = {}, b[(0, 0)]
    for d in range(n + 1):  # q_e = (a_e - sum_{f != 0} b_f q_(e - f)) / b_00
        for i in range(d + 1):
            e = (i, d - i)
            want[e] = (a[e] - sum(x * want.get((i - p, d - i - q), F(0))
                                  for (p, q), x in b.coeffs.items() if (p, q) != (0, 0))) / b0
    q = _canonical(a / b)
    assert q.order == n and q.coeffs == {e: x for e, x in want.items() if x != 0}
    _same(b * q, a.truncate(n))
    with pytest.raises(ZeroDivisionError):
        a / (b - b0)
    # restricting to x = 0 commutes with division: the univariate quotient
    ua, ub = a.coefficient_in_x(0), b.coefficient_in_x(0)
    assert _canonical(ua / ub).coeffs == [want[(0, j)] for j in range(n + 1)]
    with pytest.raises(ZeroDivisionError):
        ua / (ub - b0)


# -- composition computes only the terms the truncation keeps: inner series
# of valuation 1-3, powers of v shared by every row, polynomials in one
# variable by baby-step/giant-step, at orders up to 16

# the values of wide without 0, by construction: a sign, a denominator q and a
# numerator up to 50 * q (wide.filter(bool) rejected about half its draws)
nonzero = st.integers(1, 60).flatmap(lambda q: st.builds(
    lambda sign, p: F(sign * p, q), st.sampled_from((1, -1)), st.integers(1, 50 * q)))


@st.composite
def inner1(draw, order):
    """A univariate series of the given order with valuation 1-3 (when the
    order reaches it)."""
    val = draw(st.integers(1, 3))
    return TruncSeries([0] * val + [draw(nonzero)] + draw(st.lists(wide, max_size=6)), order)


@st.composite
def inner2(draw, order):
    """A bivariate series of the given order with valuation 1-3 (when the
    order reaches it)."""
    val = draw(st.integers(1, 3))
    k = draw(st.integers(0, val))
    exps = st.tuples(st.integers(0, order), st.integers(0, order))
    terms = draw(st.dictionaries(exps, wide, max_size=6))
    terms = {(i, j): c for (i, j), c in terms.items() if val <= i + j <= order}
    terms[k, val - k] = draw(nonzero)
    return TruncSeries2(terms, order)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 16), st.data())
def test_univariate_compose_cuts_by_the_inner_valuation(n, data):
    a = TruncSeries(data.draw(st.lists(wide, max_size=n + 1)), n)
    b = data.draw(inner1(n))
    assert _canonical(a.compose(b)).coeffs == _fcompose(a.coeffs, b.coeffs, n)
    assert a.compose(b) == a.to_series2(n, var=0).compose(b.to_series2(n), Y(n)) \
        .coefficient_in_x(0)


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 16), st.sampled_from(["general", "u=x", "v=y", "v(y)", "in-u", "in-v",
                                            "x,v(y)", "u(x),y", "x*b(y),y"]), st.data())
def test_bivariate_compose_paths_match_fraction_oracle(n, shape, data):
    # "v(y)": v in y alone under a general u; "in-u": every row a scalar, at
    # least 4 rows; "in-v": one row; the last three read the power table of
    # their one univariate series, which the spy sees
    exps = st.tuples(st.integers(0, n), st.integers(0, n))
    terms = data.draw(st.dictionaries(exps, wide, max_size=10))
    if shape == "in-u":
        terms = {(i, 0): data.draw(nonzero) for i in range(data.draw(st.integers(4, n)) + 1)}
    elif shape == "in-v":
        terms = {(0, j): data.draw(nonzero) for j in range(data.draw(st.integers(4, n)) + 1)}
    s = TruncSeries2({e: c for e, c in terms.items() if sum(e) <= n}, n)
    u = X(n) if shape in ("u=x", "x,v(y)") else data.draw(inner2(n))
    v = Y(n) if shape in ("v=y", "u(x),y", "x*b(y),y") else data.draw(inner2(n))
    table = None  # (var, series) whose power table the composition must read
    if shape in ("v(y)", "x,v(y)"):
        v = data.draw(inner1(n)).to_series2(n)
        table = (1, v.coefficient_in_x(0)) if shape == "x,v(y)" else None
    elif shape == "u(x),y":
        u = data.draw(inner1(n)).to_series2(n, var=0)
        table = (0, u.restrict_x_axis())
    elif shape == "x*b(y),y":
        # b(y) not a constant, else x*b(y) is a u(x)
        b = TruncSeries([data.draw(nonzero), data.draw(nonzero)]
                        + data.draw(st.lists(wide, max_size=5)), n)
        u = b.to_series2(n).shift(1, 0)
        table = (1, TruncSeries(b.coeffs[:n], n))  # x*y^j, j < n, within the order
    if shape == "u(x),y":
        assume(u != X(n))  # u = x takes the (x, v(y)) substitution
    calls = []
    read = TruncSeries2._sum_powers
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TruncSeries2, "_sum_powers", lambda self, t, var, terms, m:
                   calls.append((var, t)) or read(self, t, var, terms, m))
        got = _canonical(s.compose(u, v))
    assert got.order == n and got.coeffs == _fcompose2(s.coeffs, u.coeffs, v.coeffs, n)
    if table is not None:
        assert calls == [table]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 20), st.data())
def test_reversion_inverts_both_ways(n, data):
    f = TruncSeries([0, data.draw(nonzero)] + data.draw(st.lists(wide, max_size=n)), n)
    g = _canonical(f.reversion())
    y = [F(0), F(1)] + [F(0)] * (n - 1)
    assert _fcompose(f.coeffs, g.coeffs, n) == y
    assert _fcompose(g.coeffs, f.coeffs, n) == y


@given(series1(), series1(), st.integers(0, 9))
def test_a_univariate_product_at_any_order_reads_missing_terms_as_zero(a, b, n):
    got = _canonical(a._times(b, n))
    assert got.order == n and got.coeffs == _fmul(a.coeffs, b.coeffs, n)


@given(series2(), series2(), st.integers(0, 7))
def test_a_bivariate_product_at_any_order_reads_missing_terms_as_zero(a, b, n):
    # the flat layout follows the widest operand, so a series meets several
    got = _canonical(a._times(b, n))
    assert got.order == n and got.coeffs == _fmul2(a.coeffs, b.coeffs, n)
    assert (a * a).coeffs == _fmul2(a.coeffs, a.coeffs, a.order)


def _count_products(monkeypatch) -> list:
    calls = []
    original = TruncSeries2._times
    monkeypatch.setattr(TruncSeries2, "_times",
                        lambda self, b, n: calls.append(n) or original(self, b, n))
    return calls


def test_a_polynomial_in_one_variable_takes_baby_steps_and_giant_steps(monkeypatch):
    n = 16
    a = TruncSeries([F(k + 1, 3) for k in range(n + 1)], n)
    u = X(n) + Y(n) * 2 + X(n) * Y(n) * F(1, 5)
    want = _fcompose2(a.to_series2(n, var=0).coeffs, u.coeffs, {(0, 1): F(1)}, n)
    calls = _count_products(monkeypatch)
    assert a.compose(u).coeffs == want
    assert len(calls) <= 8  # Horner takes 16; 2*sqrt(16) = 8
    calls.clear()
    s = a.to_series2(n)  # one row: a polynomial in v
    assert s.compose(u, u).coeffs == want
    assert len(calls) <= 8


def test_the_rows_share_the_powers_of_v(monkeypatch):
    n, top = 12, 8
    s = TruncSeries2({(i, j): F(i + 1, j + 1) for i in range(4) for j in range(top + 1)}, n)
    v = Y(n) + X(n) ** 2 * 3 + X(n) * Y(n)
    want = _fcompose2(s.coeffs, {(1, 0): F(1)}, v.coeffs, n)
    calls = _count_products(monkeypatch)
    assert s.compose(X(n), v).coeffs == want
    assert len(calls) == top - 1  # v^2..v^8 once, for all four rows


@settings(max_examples=25, deadline=None)
@given(series2(), st.data())
def test_a_series_on_a_graph_matches_fraction_oracle(f, data):
    # super_stable_series evaluates f(phi(y), y) as sum_i phi^i row_i(y)
    n = f.order
    phi = data.draw(inner1(n))
    rows = {i: f.coefficient_in_x(i) for i in {i for i, _ in f.num}}
    want = _fcompose2(f.coeffs, {(0, k): c for k, c in enumerate(phi.coeffs)},
                      {(0, 1): F(1)}, n)
    got = _canonical(phi._horner(rows, n))
    assert got.order == n and got.coeffs == [want.get((0, k), F(0)) for k in range(n + 1)]

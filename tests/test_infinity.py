import math
from fractions import Fraction as F
from unittest import mock

import mpmath
import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from regdyn import infinity
from regdyn.curves import PlaneCurve, points_at_infinity
from regdyn.exactnum import AlgebraicNumber, Place
from regdyn.green import GreenContext, bad_places, green_homog
from regdyn.intervals import log_of_fraction
from regdyn.infinity import (ExpandingPlace, InfinityPoint, RootOfUnity, Superattracting,
                             classify_multiplier, compose_forms, fixed_points_infinity,
                             infinity_orbit_preperiodicity, multiplier, projective_roots)
from regdyn.maps import NotRegular, make_regular_map
from regdyn.polyalg import MultiPoly, homogeneous_top


def _rat(q):
    return AlgebraicNumber.from_rational(F(q))


def _classification(f, p):
    return classify_multiplier(multiplier((f.top_P, f.top_Q), p))


def _chart_derivative(forms, p):
    """The multiplier at a rational fixed point by sympy: the derivative of
    t -> B(1, t)/A(1, t) in chart 0, of t -> A(t, 1)/B(t, 1) in chart 1."""
    z, w, t = sp.symbols("z w t")
    A, B = (form.to_poly(z, w).as_expr() for form in forms)
    if p.chart == 0:
        g = B.subs({z: 1, w: t}) / A.subs({z: 1, w: t})
    else:
        g = A.subs({z: t, w: 1}) / B.subs({z: t, w: 1})
    c = p.coordinate.as_rational()
    value = sp.diff(g, t).subs(t, sp.Rational(c.numerator, c.denominator))
    return F(int(value.p), int(value.q))


def test_classify_trichotomy_oracles():
    assert isinstance(classify_multiplier(_rat(1)), RootOfUnity)
    assert classify_multiplier(_rat(1)).order == 1
    assert classify_multiplier(_rat(-1)).order == 2
    c = classify_multiplier(_rat(2))
    assert isinstance(c, ExpandingPlace) and not c.place.is_finite
    c = classify_multiplier(_rat(F(1, 2)))
    assert isinstance(c, ExpandingPlace) and c.place.prime == 2
    c = classify_multiplier(_rat(F(2, 3)))
    assert isinstance(c, ExpandingPlace) and c.place.prime == 3
    zeta3 = AlgebraicNumber([1, 1, 1], 0)
    assert classify_multiplier(zeta3) == RootOfUnity(3)
    sqrt2 = AlgebraicNumber([-2, 0, 1], 1)
    assert isinstance(classify_multiplier(sqrt2), ExpandingPlace)


def _abs_greater_than_one(q, v):
    """|q|_v > 1, by hand: |q| at infinity, p^(-ord_p q) at p."""
    if not v.is_finite:
        return abs(q) > 1
    p, num, den = v.prime, abs(q.numerator), q.denominator
    order = 0
    while num % p == 0:
        num, order = num // p, order + 1
    while den % p == 0:
        den, order = den // p, order - 1
    return order < 0


def _trichotomy_by_definition(q):
    """(kind, order or place, embedding index) of a rational multiplier q,
    from the definition: the roots of unity in Q are +-1, |q| > 1 expands at
    infinity (conjugate 0), and any other q != 0 at the least prime of its
    denominator, whose p-adic absolute value it exceeds 1 at."""
    if q == 0:
        return "superattracting", None, None
    if abs(q) == 1:
        return "root of unity", 1 if q == 1 else 2, None
    if abs(q) > 1:
        return "expanding", Place.archimedean(), 0
    p = next(p for p in range(2, q.denominator + 1) if q.denominator % p == 0)
    return "expanding", Place.finite(p), None


# +-1 +- 10^-18 and +-1 +- 2^-150
_NEAR_ONE = [s * (1 + e * F(1, k)) for s in (1, -1) for e in (1, -1) for k in (10**18, 2**150)]


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from([F(0), F(1), F(-1), F(1, 2**150)] + _NEAR_ONE),
                 st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**6),
                 st.integers(min_value=1, max_value=10**30).map(lambda k: 1 + F(1, k)),
                 # +-1 +- 1/k with k whose least prime the oracle finds by trial division
                 st.one_of(st.integers(1, 10**6), st.integers(0, 200).map(lambda a: 2**a),
                           st.integers(0, 120).map(lambda a: 3**a)).flatmap(
                     lambda k: st.sampled_from([s * (1 + e * F(1, k))
                                                for s in (1, -1) for e in (1, -1)]))))
def test_rational_classification_matches_the_absolute_values(q):
    c = classify_multiplier(_rat(q))
    kind, what, index = _trichotomy_by_definition(q)
    if kind == "superattracting":
        assert c == Superattracting()
    elif kind == "root of unity":
        assert c == RootOfUnity(what)
    else:
        assert isinstance(c, ExpandingPlace) and c.place == c.witness.place == what
        assert c.witness.embedding_index == index
        assert _abs_greater_than_one(q, c.place)


def test_rational_multiplier_just_above_one_is_expanding_at_infinity():
    # the box of a rational is the point itself and the square root of its
    # square is exact, so |q| > 1 is read before the prime 2 of the denominator
    c = classify_multiplier(_rat(1 + F(1, 10**18)))
    assert c.place == Place.archimedean() and c.witness.embedding_index == 0


def test_squaring_fixed_points():
    # action at infinity is t -> t^2: fixed points [1:0], [1:1], [0:1]
    f = make_regular_map("z^2", "w^2")
    pts = fixed_points_infinity(f)
    assert all(type(p) is InfinityPoint for p in pts)
    assert sum(p.multiplicity for p in pts) == f.d + 1
    coords = sorted((p.chart, p.coordinate.as_rational()) for p in pts)
    assert coords == [(0, F(0)), (0, F(1)), (1, F(0))]
    by_coord = {(p.chart, p.coordinate.as_rational()): p for p in pts}
    assert isinstance(_classification(f, by_coord[(0, F(0))]), Superattracting)
    assert isinstance(_classification(f, by_coord[(1, F(0))]), Superattracting)
    amp = by_coord[(0, F(1))]
    assert multiplier((f.top_P, f.top_Q), amp).as_rational() == 2
    assert isinstance(_classification(f, amp), ExpandingPlace)


def test_quadratic_fixed_point_field():
    # t -> t^2/(1 + t^2) style action: (z^2 + w^2, w^2) at infinity sends
    # t = w/z to t^2 / (1 + t^2); finite fixed points solve t^3 - t^2 + t = 0
    f = make_regular_map("z^2 + w^2", "w^2")
    pts = fixed_points_infinity(f)
    assert sum(p.multiplicity for p in pts) == 3
    degs = sorted(p.coordinate.degree for p in pts if p.chart == 0)
    assert degs[0] == 1  # t = 0


def test_fixed_point_coordinates_of_a_map_with_rational_coefficients():
    # the fixed form has a coefficient 1/2; [1 : 0] must still have the
    # coordinate 0, not a minimal polynomial x over QQ that is not "zero"
    f = make_regular_map("1/2*z^2 + w^2", "w^2")
    pts = fixed_points_infinity(f)
    assert sum(p.multiplicity for p in pts) == 3
    (zero,) = [p for p in pts if p.coordinate.is_rational()]
    assert zero.chart == 0 and zero.coordinate.is_zero()
    assert zero.coordinate == _rat(0) and _classification(f, zero) == Superattracting()
    assert sorted(p.coordinate.minpoly_coeffs() for p in pts if p is not zero) == \
        [(1, -2, 2)] * 2


def test_multiplier_matches_derivative():
    # t -> t^2 + lower order: (z^2, w^2 + z*w) has infinity action
    # t -> (t^2 + t)/1, derivative 2t + 1, so 3 at the fixed point t = 1?
    # fixed points of t^2 + t = t: t = 0 with multiplier 1
    f = make_regular_map("z^2", "w^2 + z*w")
    pts = fixed_points_infinity(f)
    by = {(p.chart, p.coordinate.as_rational() if p.coordinate.is_rational() else None): p
          for p in pts}
    assert multiplier((f.top_P, f.top_Q), by[(0, F(0))]).as_rational() == 1
    assert _classification(f, by[(0, F(0))]) == RootOfUnity(1)


def test_irrational_multiplier_is_a_root_of_its_minimal_polynomial():
    # (z^3 + w^3, z*w^2 - w^3) acts at infinity as g(t) = (t^2 - t^3)/(1 + t^3)
    # on t = w/z; besides t = 0 its fixed points are the roots of
    # t^3 + t^2 - t + 1, where the multiplier g'(t) is irrational
    f = make_regular_map("z^3 + w^3", "z*w^2 - w^3")
    pts = [p for p in fixed_points_infinity(f) if not p.coordinate.is_rational()]

    def g_prime(t):
        return ((2 * t - 3 * t**2) * (1 + t**3) - (t**2 - t**3) * 3 * t**2) / (1 + t**3) ** 2

    betas = [g_prime(t) for t in mpmath.polyroots([1, 1, -1, 1])]
    matched = set()
    for p in pts:
        lam = multiplier((f.top_P, f.top_Q), p)
        i = min(range(3), key=lambda i: abs(betas[i] - lam.approx()))
        assert abs(betas[i] - lam.approx()) < 1e-9
        assert abs(sum(c * betas[i]**k for k, c in enumerate(lam.minpoly_coeffs()))) < 1e-9
        # the embedding of lam is that of the point's own coordinate
        assert abs(g_prime(mpmath.mpc(p.coordinate.approx())) - lam.approx()) < 1e-9
        matched.add(i)
    assert len(pts) == 3 and matched == {0, 1, 2}


def test_orbit_preperiodicity_rational():
    f = make_regular_map("z^2", "w^2")
    v = infinity_orbit_preperiodicity(f, InfinityPoint.from_pair(1, 1))
    assert v.kind == "Preperiodic"
    v = infinity_orbit_preperiodicity(f, InfinityPoint.from_pair(1, -1))
    assert v.kind == "Preperiodic" and v.preperiod == 1
    v = infinity_orbit_preperiodicity(f, InfinityPoint.from_pair(2, 3))
    assert v.kind == "NotPreperiodic"


def test_orbit_verdict_reports_the_certified_height():
    # [2 : 3] under t -> t^2 has canonical height log 3, and (z^2, w^2) has no
    # bad place: height_lower is the lower end of G_inf(0, 2, 3)
    f = make_regular_map("z^2", "w^2")
    v = infinity_orbit_preperiodicity(f, InfinityPoint.from_pair(2, 3))
    g = green_homog(GreenContext(f, Place.archimedean()), (F(0), F(2), F(3)), F(1, 10**9))
    assert v.kind == "NotPreperiodic" and v.height_lower == g.lower
    log3 = log_of_fraction(F(3))
    assert log3.upper - F(1, 10**9) <= v.height_lower <= log3.upper


def test_orbit_verdict_sums_the_bad_places():
    # the top forms (2z^2 + zw, 2w^2) have resultant 16, so the height of
    # [1 : 3] sums G_v(0, 1, 3) over inf and 2, each to tol / #places
    f = make_regular_map("2*z^2 + z*w + w", "2*w^2 - z")
    v = infinity_orbit_preperiodicity(f, InfinityPoint.from_pair(1, 3))
    places = [Place.archimedean()] + [Place.finite(p) for p in sorted(bad_places(f))]
    h = sum(green_homog(GreenContext(f, pl), (F(0), F(1), F(3)), F(1, 10**9) / len(places))
            for pl in places)
    assert v.kind == "NotPreperiodic" and v.height_lower == h.lower


def test_orbit_preperiodicity_algebraic():
    f = make_regular_map("z^2", "w^2")
    zeta3 = AlgebraicNumber([1, 1, 1], 0)
    v = infinity_orbit_preperiodicity(f, InfinityPoint(zeta3, 0, 1))
    assert v.kind == "Preperiodic"
    sqrt2 = AlgebraicNumber([-2, 0, 1], 1)
    v = infinity_orbit_preperiodicity(f, InfinityPoint(sqrt2, 0, 1))
    assert v.kind in {"NotPreperiodic", "Unknown"}


def _assert_roots(form, degree, pts):
    """Multiplicities sum to degree; each point is an exact root of the
    form, in the number field of its coordinate, or is [0 : 1] when the
    degree of form(1, t) drops below degree."""
    assert sum(p.multiplicity for p in pts) == degree
    top_t = max(j for (_i, j) in form.coeffs)
    for p in pts:
        if p.chart == 1:
            assert p.coordinate.is_zero() and p.multiplicity == degree - top_t
            assert p is pts[-1]
            continue
        K = p.coordinate.number_field()
        a = K.generator()
        value = K(0)
        for (_i, j), c in form.coeffs.items():
            value = value + a ** j * c
        assert value.is_zero()
    assert any(p.chart == 1 for p in pts) == (top_t < degree)


def _sympy_projective_roots(form, degree):
    """projective_roots with every factor from sympy: the reference."""
    poly = sp.Poly.from_dict({(j,): c for (i, j), c in form.num.items()}, sp.Symbol("x"),
                             domain=sp.ZZ)
    pts = [InfinityPoint(AlgebraicNumber(fac, idx), 0, mult)
           for fac, mult in sp.factor_list(poly)[1] for idx in range(fac.degree())]
    if degree > poly.degree():
        pts.append(InfinityPoint(AlgebraicNumber.from_rational(0), 1, degree - poly.degree()))
    return pts


small = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(small, min_size=n + 1, max_size=n + 1))))
def test_projective_roots_of_random_binary_forms(case):
    degree, cs = case
    form = MultiPoly({(degree - j, j): c for j, c in enumerate(cs)})
    assume(not form.is_zero())
    pts = projective_roots(form, degree)
    _assert_roots(form, degree, pts)
    assert pts == _sympy_projective_roots(form, degree)


_factor = st.one_of(st.tuples(st.integers(1, 4), st.integers(-5, 5)),
                    st.tuples(st.integers(1, 3), st.integers(-4, 4), st.integers(-4, 4)))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_factor, st.integers(1, 3)), min_size=1, max_size=3),
       st.integers(0, 2), st.integers(0, 2), st.sampled_from([1, -2, 3]))
def test_projective_roots_of_products_match_sympy(factors, zeros, drop, content):
    # form(1, t) = content * t^zeros * prod f(t)^m, of formal degree `drop`
    # above its own: the closed form meets every factor shape, the point [0 : 1]
    # and repeated roots, and must give sympy's points in sympy's order
    t = sp.Symbol("t")
    p = sp.Poly(content * t ** zeros, t)
    for f, m in factors:
        p *= sp.Poly(list(f), t) ** m
    degree = p.degree() + drop
    form = MultiPoly({(degree - j, j): int(c) for (j,), c in p.terms()})
    pts = projective_roots(form, degree)
    _assert_roots(form, degree, pts)
    assert pts == _sympy_projective_roots(form, degree)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from([(i, j) for i in range(4) for j in range(4 - i)]),
                       small, min_size=1, max_size=6))
def test_points_at_infinity_of_random_curves(coeffs):
    R = MultiPoly(coeffs)
    assume(R.degree >= 1)
    C = PlaneCurve(R)
    _assert_roots(homogeneous_top(C.poly), C.degree, points_at_infinity(C))


@settings(max_examples=30, deadline=None)
@given(st.lists(small, min_size=6, max_size=6))
def test_every_fixed_point_passes_the_fixedness_check(cs):
    z, w = MultiPoly.variable(0), MultiPoly.variable(1)
    P = z * z * cs[0] + z * w * cs[1] + w * w * cs[2] + w
    Q = z * z * cs[3] + z * w * cs[4] + w * w * cs[5] - z
    try:
        f = make_regular_map(P, Q)
    except (NotRegular, ValueError):
        assume(False)
    forms = (f.top_P, f.top_Q)
    pts = fixed_points_infinity(f)
    _assert_roots(w * f.top_P - z * f.top_Q, f.d + 1, pts)
    # no embedding search: an irrational multiplier costs sympy root isolation
    with mock.patch.object(infinity, "_algebraic_from_nf", lambda elem, alpha: alpha):
        assert all(multiplier(forms, p) is p.coordinate
                   for p in pts if not p.coordinate.is_rational())
    for p in pts:
        if p.coordinate.is_rational():
            assert multiplier(forms, p).as_rational() == _chart_derivative(forms, p)


_den_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.data())
def test_every_multiplier_is_the_derivative_of_the_chart_map(d, data):
    # random regular maps of degree 2 and 3 with coefficient denominators,
    # their fixed form w P_d - z Q_d drawn as a product of linear and
    # quadratic forms, so that most fixed points have degree 1 or 2; sympy
    # differentiates the chart map and evaluates it at each of those in
    # radicals (higher degrees take CRootOf values and are left to
    # `test_irrational_multiplier_is_a_root_of_its_minimal_polynomial`)
    z, w, t = sp.symbols("z w t")
    fixed = MultiPoly.constant(data.draw(_den_coeffs.filter(bool)))
    degrees = data.draw(st.sampled_from([(1, 2), (1, 1, 1)] if d == 2 else
                                        [(2, 2), (1, 1, 2), (1, 3)]))
    for k in degrees:
        cs = data.draw(st.lists(_den_coeffs, min_size=k + 1, max_size=k + 1))
        fixed = fixed * MultiPoly({(k - j, j): c for j, c in enumerate(cs)})
    P = data.draw(st.lists(_den_coeffs, min_size=d, max_size=d))
    P = MultiPoly({**{(d - j, j): c for j, c in enumerate(P)},
                   (0, d): fixed.coeffs.get((0, d + 1), 0)})
    # Q_d = (w P_d - fixed) / z, every term of the numerator having a z
    Q = MultiPoly({(i - 1, j): c
                   for (i, j), c in (MultiPoly.variable(1) * P - fixed).coeffs.items()})
    P = P + MultiPoly({(0, 1): data.draw(_den_coeffs)})
    Q = Q + MultiPoly({(1, 0): data.draw(_den_coeffs)})
    try:
        f = make_regular_map(P, Q)
    except (NotRegular, ValueError):
        assume(False)
    A, B = (form.to_poly(z, w).as_expr() for form in (f.top_P, f.top_Q))
    for p in fixed_points_infinity(f):
        if p.coordinate.degree > 2:
            continue
        if p.chart == 0:
            g = B.subs({z: 1, w: t}) / A.subs({z: 1, w: t})
        else:
            g = A.subs({z: t, w: 1}) / B.subs({z: t, w: 1})
        root = p.coordinate.minpoly.all_roots()[p.coordinate.embedding_index]
        want = sp.diff(g, t).subs(t, root)
        lam = multiplier((f.top_P, f.top_Q), p)
        got = lam.minpoly.all_roots()[lam.embedding_index]
        assert sp.expand(sp.radsimp(want - got)) == 0


def test_multiplier_refuses_a_point_that_is_not_fixed():
    f = make_regular_map("z^2", "w^2")
    with pytest.raises(ValueError):
        multiplier((f.top_P, f.top_Q), InfinityPoint.from_pair(1, 2))


def test_two_cycle_multiplier_from_the_composed_forms():
    # f_inf in t = w/z is g(t) = (1 - t^2)/(1 + 3t), with the 2-cycle
    # 0 -> 1 -> 0 and g'(0) g'(1) = (-3)(-1/2) = 3/2
    f = make_regular_map("z^2 + 3*z*w", "z^2 - w^2")
    A, B = compose_forms(f, 2)
    # oracle: the top forms of (P(P, Q), Q(P, Q))
    assert A == f.P.compose(f.P, f.Q).homogeneous_part(4)
    assert B == f.Q.compose(f.P, f.Q).homogeneous_part(4)
    assert compose_forms(f, 1) == (f.top_P, f.top_Q)
    for pair in ((1, 0), (1, 1)):
        lam = multiplier((A, B), InfinityPoint.from_pair(*pair))
        assert lam.as_rational() == F(3, 2)
        with pytest.raises(ValueError):
            multiplier((f.top_P, f.top_Q), InfinityPoint.from_pair(*pair))
    v = infinity_orbit_preperiodicity(f, InfinityPoint.from_pair(1, 0))
    assert (v.kind, v.preperiod, v.period) == ("Preperiodic", 0, 2)


@st.composite
def quadratic_numbers(draw):
    """A root of a random irreducible quadratic, real or complex."""
    c, b, a = (draw(st.integers(-30, 30)) for _ in range(3))
    a = abs(a) + 1
    D = b * b - 4 * a * c
    assume(c != 0 and (D < 0 or math.isqrt(D) ** 2 != D))
    return AlgebraicNumber([c, b, a], draw(st.integers(0, 1)))


@settings(max_examples=40, deadline=None)
@given(quadratic_numbers(), st.integers(-10**4, 10**4), st.integers(-10**4, 10**4),
       st.integers(1, 500))
def test_quadratic_field_elements_in_closed_form_match_the_resultant_path(alpha, n0, n1, den):
    # num(t) / den; n1 = 0 gives a rational
    elem = alpha.number_field()([F(n0, den), F(n1, den)])
    assert infinity._algebraic_from_nf(elem, alpha) == infinity._embedded_root(elem, alpha)

import itertools
import math
import random
from fractions import Fraction as F
from unittest import mock

import mpmath
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings, strategies as st

from regdyn.exactnum import FactoringCap, Place, abs_at_place_exact
from regdyn.green import (GreenContext, _arch_log_norm, _cofactor_bound, _line_constant, _size,
                          _tail_iterations, bad_places, green_homog, green_value,
                          nullstellensatz_constant)
from regdyn.heights import canonical_height
from regdyn.intervals import RealInterval, escape_norm, log_of_fraction
from regdyn.maps import IntegerLift, NotRegular, make_regular_map
from regdyn.padic import PrecisionLoss
from regdyn.polyalg import MultiPoly

TOL = F(1, 10**9)


def _log(q):
    return log_of_fraction(F(q))


def test_bad_places():
    assert set(bad_places(make_regular_map("z^2", "w^2"))) == set()
    assert set(bad_places(make_regular_map("z^2 + 1/3*w", "w^2"))) == {3}
    assert set(bad_places(make_regular_map("z^2", "1/3*w^2"))) == {3}


def test_nullstellensatz_good_reduction():
    f = make_regular_map("z^2", "w^2")
    for v in [Place.archimedean(), Place.finite(2), Place.finite(97)]:
        C, good = nullstellensatz_constant(f, v)
        if v.is_finite:
            assert (C, good) == (1, True)
        else:
            assert C == 1  # diagonal unit monomial branch


def test_nullstellensatz_bad_place_oracle():
    # cofactor computation for (z^2, w^2/3) at p=3 gives C_3 = 3
    f = make_regular_map("z^2", "1/3*w^2")
    C, good = nullstellensatz_constant(f, Place.finite(3))
    assert not good and C == 3


def test_good_reduction_closed_form():
    f = make_regular_map("z^2", "w^2")
    ctx = GreenContext(f, Place.finite(2))
    g = green_value(ctx, (F(1, 2), F(1)), TOL)
    assert g.lower == g.upper == _log(2).lower or \
        abs(float(g.lower) - float(_log(2).lower)) < 1e-12
    assert green_value(ctx, (F(3), F(5)), TOL).upper == 0


def test_archimedean_exact_log():
    f = make_regular_map("z^2", "w^2")
    ctx = GreenContext(f, Place.archimedean())
    g = green_value(ctx, (F(2), F(3)), TOL)
    l3 = _log(3)
    assert g.lower <= l3.upper and l3.lower <= g.upper
    assert float(g.upper - g.lower) < 1e-9


def test_bad_place_padic_iteration():
    # (z^2, w^2/3): g_3(1,1) = log 3 (v(w_n) = 1 - 2^n drives escape)
    f = make_regular_map("z^2", "1/3*w^2")
    ctx = GreenContext(f, Place.finite(3))
    g = green_value(ctx, (F(1), F(1)), TOL)
    l3 = _log(3)
    assert g.lower <= l3.upper and l3.lower <= g.upper


def test_invariance_property():
    random.seed(7)
    f = make_regular_map("z^2 + w", "w^2 + z")
    for v in [Place.archimedean(), Place.finite(2)]:
        ctx = GreenContext(f, v)
        for _ in range(5):
            pt = (F(random.randint(-9, 9), random.randint(1, 5)),
                  F(random.randint(-9, 9), random.randint(1, 5)))
            g1 = green_value(ctx, f.apply(pt), TOL)
            g2 = green_value(ctx, pt, TOL).scale(2)
            assert g1.lower <= g2.upper + TOL and g2.lower <= g1.upper + TOL


def test_homogeneity():
    f = make_regular_map("z^2", "w^2")
    ctx = GreenContext(f, Place.archimedean())
    a = green_homog(ctx, (F(1), F(2), F(3)), TOL)
    b = green_homog(ctx, (F(2), F(4), F(6)), TOL)
    l2 = _log(2)
    diff_lo = b.lower - a.upper
    diff_hi = b.upper - a.lower
    assert diff_lo <= l2.upper and l2.lower <= diff_hi


def test_green_homog_line_infinity():
    # G at [0 : 2 : 2] for the squaring map: -log 2 at the 2-adic place
    f = make_regular_map("z^2", "w^2")
    ctx = GreenContext(f, Place.finite(2))
    g = green_homog(ctx, (F(0), F(2), F(2)), TOL)
    ml2 = _log(2).scale(-1)
    assert g.lower <= ml2.upper and ml2.lower <= g.upper


# -- properties on random regular maps ---------------------------------------

PROP_TOL = F(1, 10**6)
small_q = st.builds(F, st.integers(-3, 3), st.integers(1, 9))


@st.composite
def regular_maps(draw):
    d = draw(st.integers(2, 3))
    monomials = [(i, k - i) for k in range(d + 1) for i in range(k + 1)]
    P, Q = (MultiPoly({e: draw(small_q) for e in monomials}) for _ in range(2))
    assume(P.degree == Q.degree == d)
    try:
        f = make_regular_map(P, Q)
    except NotRegular:
        assume(False)
    bad = bad_places(f)
    assume(bad)
    good = next(p for p in map(sp.prime, itertools.count(1)) if p not in bad)
    return f, [Place.archimedean(), Place.finite(min(bad)), Place.finite(good)]


def _overlap(a, b):
    return a.lower <= b.upper and b.lower <= a.upper


@settings(max_examples=20, deadline=None)
@given(regular_maps(), st.tuples(small_q, small_q),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda t: t != (0, 0)))
def test_green_functional_equation_and_height_sign(case, pt, line_pt):
    # G_v(f(x)) = d G_v(x) for affine points and for points [0 : a : b] of
    # the line at infinity, at infinity, a bad prime and a good prime
    f, places = case
    a, b = (F(c) for c in line_pt)
    image = (F(0), f.top_P.eval(a, b), f.top_Q.eval(a, b))
    for v in places:
        ctx = GreenContext(f, v)
        assert _overlap(green_value(ctx, f.apply(pt), PROP_TOL),
                        green_value(ctx, pt, PROP_TOL).scale(f.d))
        assert _overlap(green_homog(ctx, image, PROP_TOL),
                        green_homog(ctx, (F(0), a, b), PROP_TOL).scale(f.d))
    assert canonical_height(f, pt, PROP_TOL).value.lower >= 0


# -- the two-sided estimate behind every tail and the height box -------------

# coefficients that are often 0, so that sparse and diagonal maps come up too
sparse_q = st.one_of(st.just(F(0)), small_q)
# a coordinate, large or small at infinity and at 2 and 3 when scaled
wide_q = st.builds(lambda q, s: q * s,
                   st.builds(F, st.integers(-10**4, 10**4), st.integers(1, 50)),
                   st.sampled_from([1, 2**20, 3**13, 10**15, F(1, 2**20), F(1, 3**13),
                                    F(1, 10**15)]))


@st.composite
def maps_and_places(draw):
    """A regular map of degree 2 or 3 with coefficients over small
    denominators, and its places: infinity, every bad prime, a good prime."""
    d = draw(st.integers(2, 3))
    monomials = [(i, k - i) for k in range(d + 1) for i in range(k + 1)]
    P, Q = (MultiPoly({e: draw(sparse_q) for e in monomials}) for _ in range(2))
    assume(P.degree == Q.degree == d)
    try:
        f = make_regular_map(P, Q)
    except NotRegular:
        assume(False)
    bad = bad_places(f)
    good = next(p for p in map(sp.prime, itertools.count(1)) if p not in bad)
    return f, [Place.archimedean()] + [Place.finite(p) for p in sorted(bad | {good})]


def _norm(X, v):
    return max(abs_at_place_exact(x, v) for x in X)


@settings(max_examples=60, deadline=None)
@given(maps_and_places(), st.tuples(wide_q, wide_q), st.tuples(wide_q, wide_q).filter(any))
def test_the_constants_are_two_sided(case, pt, line_pt):
    # C_v^-1 <= |F(X)|_v / |X|_v^d <= C_v in exact rationals, for X = (1, z, w)
    # with C_v = nullstellensatz_constant and for X = (0, a, b) with
    # `_line_constant`, which is at most C_v
    f, places = case
    z, w = pt
    a, b = line_pt
    for v in places:
        ctx = GreenContext(f, v)
        C, line_C = ctx.C, _line_constant(ctx)
        assert 1 <= line_C <= C
        if ctx.good_reduction:
            assert C == 1
        r = _norm((1, f.P.eval(z, w), f.Q.eval(z, w)), v) / _norm((1, z, w), v) ** f.d
        assert 1 / C <= r <= C
        r = _norm((f.top_P.eval(a, b), f.top_Q.eval(a, b)), v) / _norm((a, b), v) ** f.d
        assert 1 / line_C <= r <= line_C


def _near(m0, v, data):
    """A scale s with |s|_v within a factor of about 2 (at infinity) or p
    (at p) of m0 >= 1."""
    if not v.is_finite:
        return m0 * data.draw(st.sampled_from([F(1, 2), F(9, 10), F(1), F(11, 10), F(2)]))
    j = 0  # p^j <= m0 < p^(j+1)
    while v.prime ** (j + 1) <= m0:
        j += 1
    return F(v.prime) ** -(j + data.draw(st.integers(-1, 1)))


@settings(max_examples=60, deadline=None)
@given(maps_and_places(), st.data())
def test_the_constants_are_two_sided_near_m0(case, data):
    # the lower side of C_v binds near max(|z|_v, |w|_v) = m0 = max(1, 2ke),
    # where the cofactor identity takes over from N >= 1: points of that
    # size at each place: z the scale times a unit at p, or times 1/2 to 2
    # at infinity, and w at most that
    f, places = case
    for v in places:
        ctx = GreenContext(f, v)
        e = max(F(*_size(f.P, v, f.d)), F(*_size(f.Q, v, f.d)))
        m0 = F(1) if ctx.good_reduction else max(F(1), 2 * F(*_cofactor_bound(f, v)) * e)
        for _ in range(8):
            s = _near(m0, v, data)
            if v.is_finite:
                p = v.prime
                unit = st.builds(lambda a, b, c: F(a * p + b, c * p + 1), st.integers(0, 9),
                                 st.integers(1, p - 1), st.integers(0, 3))
                z = s * data.draw(unit) * data.draw(st.sampled_from([1, -1]))
                w = s * data.draw(unit) * data.draw(st.sampled_from([0, 1, -1, p]))
            else:
                z = s * data.draw(st.builds(F, st.integers(4, 16), st.just(8)))  # |z|/s in [1/2, 2]
                w = s * data.draw(st.builds(F, st.integers(-16, 16), st.just(8)))
            r = _norm((1, f.P.eval(z, w), f.Q.eval(z, w)), v) / _norm((1, z, w), v) ** f.d
            assert 1 / ctx.C <= r <= ctx.C


@pytest.mark.parametrize("P, Q, pt", [
    ("w^2 + w", "z^2", (F(0), F(-3, 2))),  # |P|, |Q| <= 1 at m = 3/2, near m0 = 2
    ("-1/2*z^2 + 1/2", "w^2", (F(2**20), F(0))),  # |P| / m^2 just below 1/k = 1/2
])
def test_the_lower_constant_binds_below_a_weaker_one(P, Q, pt):
    # r = N / m^d lies below 1/2, the reciprocal of max(1, k, m0^(d-1)) at
    # infinity (k = 1, 2 and m0 = 2 here), but not below 1/C_inf = 1/4
    f, v = make_regular_map(P, Q), Place.archimedean()
    C, _good = nullstellensatz_constant(f, v)
    z, w = pt
    r = _norm((1, f.P.eval(z, w), f.Q.eval(z, w)), v) / _norm((1, z, w), v) ** f.d
    assert C == 4 and 1 / C <= r < F(1, 2)


# -- the integer orbit at infinity against exact rational iteration ----------


def _exact_iterate(P, Q, pt, n):
    z, w = pt
    for _ in range(n):
        z, w = P.eval(z, w), Q.eval(z, w)
    return z, w


@st.composite
def sparse_quartic_maps(draw):
    """(f, []): a regular map of degree 4 on a sparse support, z^4 in P and
    w^4 in Q and up to four more terms in each."""
    monomials = [(i, k - i) for k in range(5) for i in range(k + 1)]
    unit = st.builds(F, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 9))
    P, Q = ({e: draw(unit) for e in draw(st.sets(st.sampled_from(monomials), max_size=4))}
            for _ in range(2))
    P[(4, 0)], Q[(0, 4)] = draw(unit), draw(unit)
    try:
        return make_regular_map(MultiPoly(P), MultiPoly(Q)), []
    except NotRegular:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(st.one_of(regular_maps(), sparse_quartic_maps()), st.sampled_from([0, 1]),
       st.tuples(small_q, small_q), st.sampled_from([8, 24, 53, 120]), st.integers(0, 4))
@example((make_regular_map("-z^4 + 3*z*w^3 - 3*w - 3", "-3*w^4"), []), 0,
         (F(-2, 3), F(-1, 3)), 8, 2)
def test_escape_norm_encloses_the_exact_values(case, z0, pt, prec, n):
    # max(|a_n|, |b_n|) lies in 2^m D^-k [lo, hi], exactly, and the
    # logarithm the kernel returns encloses log max(z0, |a_n|, |b_n|) / d^n.
    # The kernel sees only the cell of 2^-s Z^2 that pt starts in, so the
    # enclosure is the same, and as sound, from each point near a corner of
    # that cell: error radii that miss the worst point of a cell fail there
    f, _ = case
    P, Q = (f.P, f.Q) if z0 else (f.top_P, f.top_Q)
    assume(z0 or any(pt))
    lift = IntegerLift(P, Q)
    m, k, D, lo, hi = enclosure = escape_norm(lift, z0, pt[0], pt[1], n, prec)
    scale = F(2) ** m / F(D) ** k
    s = -escape_norm(lift, z0, pt[0], pt[1], 0, prec)[0]
    corners = {tuple(q if (q * 2**s).denominator == 1 else (math.floor(q * 2**s) + u) / 2**s
                     for q, u in zip(pt, us))
               for us in itertools.product([F(1, 999), F(998, 999)], repeat=2)}
    # pt last: the logarithm below is checked against its a_n, b_n
    for start in [c for c in corners if escape_norm(lift, z0, *c, 0, prec)[0] == -s] + [pt]:
        assert escape_norm(lift, z0, *start, n, prec) == enclosure
        a, b = _exact_iterate(P, Q, start, n)
        assert scale * lo <= max(abs(a), abs(b)) <= scale * hi
    if not (z0 or lo):  # the enclosure of max(|a_n|, |b_n|) reaches 0
        with pytest.raises(PrecisionLoss):
            _arch_log_norm(lift, z0, pt[0], pt[1], n, f.d, prec)
        return
    g = _arch_log_norm(lift, z0, pt[0], pt[1], n, f.d, prec).scale(f.d**n)
    exact = log_of_fraction(max(z0, abs(a), abs(b)), 400)
    assert g.lower <= exact.lower and exact.upper <= g.upper


# -- closed orbits: exact zero ------------------------------------------------


@st.composite
def planted_fixed_points(draw):
    # shifting the constant terms of P and Q leaves the top forms, and so
    # regularity, unchanged
    f, _ = draw(regular_maps())
    x, y = pt = draw(st.tuples(small_q, small_q))
    P = f.P + (x - f.P.eval(x, y))
    Q = f.Q + (y - f.Q.eval(x, y))
    g = make_regular_map(P, Q)
    bad = bad_places(g)
    assume(bad)
    good = next(p for p in map(sp.prime, itertools.count(1)) if p not in bad)
    return g, pt, [Place.archimedean(), Place.finite(min(bad)), Place.finite(good)]


@settings(max_examples=20, deadline=None)
@given(planted_fixed_points())
def test_a_closed_orbit_has_green_values_and_height_exactly_zero(case):
    f, pt, places = case
    assert f.apply(pt) == pt
    zero = RealInterval.exact(0)
    for v in places:
        ctx = GreenContext(f, v)
        assert green_value(ctx, pt, PROP_TOL) == zero
        assert green_homog(ctx, (F(-1), -pt[0], -pt[1]), PROP_TOL) == zero
        g = green_homog(ctx, (F(2), 2 * pt[0], 2 * pt[1]), PROP_TOL)
        assert g.width <= PROP_TOL / 2  # log|2|_v alone
        assert _overlap(g, _log(abs_at_place_exact(F(2), v)))
        # the escalating kernel, with the exact orbit cut off, agrees
        with mock.patch("regdyn.green._box_orbit", lambda *a: ([], None)):
            assert green_value(ctx, pt, PROP_TOL).contains(0)
    h = canonical_height(f, pt, PROP_TOL)
    assert h.value == zero and h.support == []


def test_a_good_prime_denominator_gets_the_closed_form():
    # res = 1 and integral coefficients: every prime is good, and
    # g_5(1/5, 2) = log max(1, |1/5|_5, |2|_5) = log 5 with no orbit run
    f = make_regular_map("z^2 + w", "w^2 - z")
    ctx = GreenContext(f, Place.finite(5))
    assert ctx.good_reduction
    with mock.patch("regdyn.green._box_orbit", side_effect=AssertionError):
        g = green_value(ctx, (F(1, 5), F(2)), TOL)
    assert g.width <= TOL and _overlap(g, _log(5))
    arch = green_value(GreenContext(f, Place.archimedean()), (F(1, 5), F(2)), TOL)
    assert arch.lower > 0


def test_green_value_needs_the_bad_places_only_past_its_own_box():
    # the resultant of (z^2 + N w^2, z w) is the RSA-100 semiprime N, so the
    # height box is out of reach: (0, 0) is fixed, and (1, 2) leaves the box
    # of infinity at once, both without it; the orbit of (1/2, 0) stays in
    # that box while its triples outgrow C_inf, and the kernel alone answers
    N = int("15226050279225333605356183781326374297180681149613"
            "80688657908494580122963258952897654000350692006139")
    f = make_regular_map(f"z^2 + {N}*w^2", "z*w")
    ctx = GreenContext(f, Place.archimedean())
    assert green_value(ctx, (F(0), F(0)), TOL) == RealInterval.exact(0)
    assert green_value(ctx, (F(1), F(2)), TOL).lower > 100
    g = green_value(ctx, (F(1, 2), F(0)), TOL)
    assert g.lower == 0 and g.upper <= TOL
    with pytest.raises(FactoringCap):
        canonical_height(f, (F(1, 2), F(0)), TOL)


# -- the logarithm and the tail count on integers ------------------------------


def _mpf_value(t) -> F:
    sign, man, exp, _ = t
    return (-1) ** sign * F(man) * F(2) ** exp


# 2^-200 <= q <= 2^400, and q near 1, where the last bits of the logarithm
# see how its numerator and denominator were rounded
_log_args = st.one_of(st.builds(F, st.integers(1, 2**400), st.integers(1, 2**200)),
                      st.builds(lambda den, k: F(max(den + k, 1), den),
                                st.integers(1, 2**200), st.integers(-2**20, 2**20)))


@settings(max_examples=200, deadline=None)
@given(_log_args, st.sampled_from([53, 120, 240, 480]))
@example(F(2**150 + 1, 2**150 + 3), 53)
@example(F(3**190 - 1, 3**190), 120)
def test_log_of_fraction_is_the_interval_context_log(q, prec):
    # the reference: mpmath.iv at prec on the exact quotient
    saved = mpmath.iv.prec
    try:
        mpmath.iv.prec = prec
        ref = mpmath.iv.log(mpmath.iv.mpf(q.numerator) / mpmath.iv.mpf(q.denominator))
    finally:
        mpmath.iv.prec = saved
    got = log_of_fraction(q, prec)
    assert (got.lower, got.upper) == tuple(map(_mpf_value, ref._mpi_))


def test_a_disordered_interval_is_refused_and_every_operation_keeps_the_order():
    with pytest.raises(ValueError, match="empty interval"):
        RealInterval(F(2), F(1))
    x = RealInterval(F(-1, 3), F(1, 2))
    # the results built without the order check: each is a valid interval
    for y, ends in [(x + x, (F(-2, 3), 1)), (-x, (F(-1, 2), F(1, 3))),
                    (x - x, (F(-5, 6), F(5, 6))), (x.scale(-3), (F(-3, 2), 1)),
                    (x.scale(F(1, 2)), (F(-1, 6), F(1, 4))), (x.clamp_nonnegative(), (0, F(1, 2))),
                    (RealInterval.exact(F(5, 7)), (F(5, 7), F(5, 7)))]:
        assert (y.lower, y.upper) == ends
        assert y == RealInterval(*ends)


def _tail_iterations_by_fractions(log_C, d, tol):
    if not log_C:
        return 0
    target = log_C / (F(tol) * (d - 1))
    n, power = 0, 1
    while power < target:
        power *= d
        n += 1
    return n


@pytest.mark.parametrize("log_C, d, tol, n", [
    (0, 2, F(1, 10**30), 0),
    (F(8), 2, F(1), 3),  # d^3 (d - 1) tol = log_C exactly: n = 3 already suffices
    (F(8) + F(1, 10**40), 2, F(1), 4),
    (F(18), 3, F(1), 2),  # 3^2 2 = 18
    (F(18, 7), 3, F(1, 7), 2),
    (F(1, 3), 2, F(1), 0),
    (F(1), 2, F(1), 0),
])
def test_tail_iterations_at_the_boundary(log_C, d, tol, n):
    assert _tail_iterations(log_C, d, tol) == n == _tail_iterations_by_fractions(log_C, d, tol)


@settings(max_examples=200, deadline=None)
@given(st.fractions(0, 10**6), st.integers(2, 5),
       st.builds(F, st.integers(1, 10**6), st.integers(1, 10**40)))
def test_tail_iterations_matches_the_fraction_loop(log_C, d, tol):
    assert _tail_iterations(log_C, d, tol) == _tail_iterations_by_fractions(log_C, d, tol)

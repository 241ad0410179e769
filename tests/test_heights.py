import math
import random
from fractions import Fraction as F

from unittest import mock

import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from regdyn.exactnum import Place
from regdyn.green import (GreenContext, _box_orbit, _orbit_green, bad_places, green_homog,
                          green_value, nullstellensatz_constant)
from regdyn.heights import canonical_height, height_support, is_preperiodic, orbit_verdict
from regdyn.maps import NotRegular, _exact_orbit, _triple, make_regular_map
from regdyn.polyalg import MultiPoly

TOL = F(1, 10**9)


def _weil(q: F) -> float:
    return math.log(max(abs(q.numerator), q.denominator))


def test_support_finite():
    # 3 is the bad place of the map; 2, the prime of the point's denominator,
    # is good, and G_2 of the primitive triple (2, 1, 10) is 0
    f = make_regular_map("z^2", "1/3*w^2")
    sup = height_support(f)
    primes = {v.prime for v in sup if v.is_finite}
    assert primes == {3}
    h = canonical_height(f, (F(1, 2), F(5)), TOL)
    assert {v.prime for v in h.support if v.is_finite} == {3}


def _weil_pair(z: F, w: F) -> float:
    # height of [1 : z : w]: clear denominators to a primitive integer triple
    c = math.lcm(z.denominator, w.denominator)
    a, b = z.numerator * (c // z.denominator), w.numerator * (c // w.denominator)
    g = math.gcd(math.gcd(abs(a), abs(b)), c)
    return math.log(max(abs(a), abs(b), c) // g)


def test_squaring_height_is_projective_weil():
    f = make_regular_map("z^2", "w^2")
    random.seed(3)
    for _ in range(20):
        pt = (F(random.randint(-50, 50), random.randint(1, 20)),
              F(random.randint(-50, 50), random.randint(1, 20)))
        h = canonical_height(f, pt, TOL)
        want = _weil_pair(*pt)
        assert abs(float(h.value.lower) - want) < 1e-8


def test_squaring_height_integer_points_max_form():
    # for integral coordinates the pair height reduces to max(h(z), h(w))
    f = make_regular_map("z^2", "w^2")
    random.seed(4)
    for _ in range(20):
        pt = (F(random.randint(-99, 99)), F(random.randint(-99, 99)))
        h = canonical_height(f, pt, TOL)
        want = max(_weil(pt[0]), _weil(pt[1]))
        assert abs(float(h.value.lower) - want) < 1e-8


def test_height_functional_equation():
    f = make_regular_map("z^2 + w", "w^2 - z")
    pt = (F(1, 2), F(3))
    h1 = canonical_height(f, f.apply(pt), TOL)
    h2 = canonical_height(f, pt, TOL)
    assert abs(float(h1.value.lower) - 2 * float(h2.value.lower)) < 1e-7


def test_preperiodic_exact_cycle():
    f = make_regular_map("z^2", "w^2")
    v = is_preperiodic(f, (F(-1), F(0)))
    assert v.kind == "Preperiodic" and (v.preperiod, v.period) == (1, 1)
    v = is_preperiodic(f, (F(1), F(1)))
    assert v.kind == "Preperiodic" and (v.preperiod, v.period) == (0, 1)


def test_not_preperiodic_certificate():
    f = make_regular_map("z^2", "w^2")
    v = is_preperiodic(f, (F(2), F(3)))
    assert v.kind == "NotPreperiodic"
    assert float(v.height_lower) >= math.log(3) - 1e-6


def test_not_preperiodic_small_denominators():
    # orbit collapses toward (0, 0) but the 2-adic height is positive
    f = make_regular_map("z^2", "w^2")
    v = is_preperiodic(f, (F(1, 2), F(1, 3)))
    assert v.kind == "NotPreperiodic"


PROP_TOL = F(1, 10**6)
small_q = st.builds(F, st.integers(-3, 3), st.integers(1, 9))


@st.composite
def maps_and_points(draw):
    """(f, pt): a regular map of degree 2 or 3 whose coefficients have
    denominators up to 9, and an affine point with denominators up to 9 or a
    triple (0, a, b) on the line at infinity."""
    d = draw(st.integers(2, 3))
    monomials = [(i, k - i) for k in range(d + 1) for i in range(k + 1)]
    P, Q = (MultiPoly({e: draw(small_q) for e in monomials}) for _ in range(2))
    assume(P.degree == Q.degree == d)
    try:
        f = make_regular_map(P, Q)
    except NotRegular:
        assume(False)
    if draw(st.booleans()):
        return f, draw(st.tuples(small_q, small_q))
    a, b = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any))
    return f, (0, a, b)


def _sum_of_greens(f, pt, tol):
    """The canonical height by the formula of each point kind before one
    height served both: for an affine point, g_v summed over inf, the bad
    places and the primes of its denominators, each to tol / #places; for
    (0, a, b), G_v(0, a/g, b/g), g = gcd(a, b), summed over inf and the bad
    places, each to tol."""
    primes = set(bad_places(f))
    if len(pt) == 2:
        primes |= {p for c in pt for p in sp.primefactors(c.denominator)}
    places = [Place.archimedean()] + [Place.finite(p) for p in sorted(primes)]
    if len(pt) == 2:
        return sum(green_value(GreenContext(f, v), pt, tol / len(places)) for v in places)
    _, a, b = pt
    g = math.gcd(a, b)
    return sum(green_homog(GreenContext(f, v), (0, a // g, b // g), tol) for v in places)


def _overlap(a, b):
    return a.lower <= b.upper and b.lower <= a.upper


@settings(max_examples=25, deadline=None)
@given(maps_and_points())
def test_height_of_the_primitive_triple_matches_the_sum_over_denominators(case):
    # the sum of G_v of the primitive triple over inf and the bad places is
    # the canonical height that the formulas of each point kind computed,
    # and it satisfies h(f(P)) = d h(P)
    f, pt = case
    h = canonical_height(f, pt, PROP_TOL)
    assert h.value.width <= PROP_TOL
    assert _overlap(h.value, _sum_of_greens(f, pt, PROP_TOL))
    if len(pt) == 2:
        image = f.apply(pt)
    else:
        image = (0, f.top_P.eval(*pt[1:]), f.top_Q.eval(*pt[1:]))
    assert _overlap(canonical_height(f, image, PROP_TOL).value, h.value.scale(f.d))
    if h.verdict.kind == "Preperiodic":
        assert h.value.lower == h.value.upper == 0 and h.support == []
    else:
        assert (h.verdict.kind == "NotPreperiodic") is (h.value.lower > PROP_TOL)


def test_a_height_runs_one_exact_orbit():
    # the orbit of (1/2, 3) does not close, and at the bad place 2 and at
    # inf C_v > 1, where green_value would run the orbit again
    f = make_regular_map("2*z^2 + z*w + w", "2*w^2 - z")
    calls = []

    def counted(*args):
        calls.append(args)
        return _box_orbit(*args)

    with mock.patch("regdyn.heights._box_orbit", counted), \
            mock.patch("regdyn.green._box_orbit", counted):
        h = canonical_height(f, (F(1, 2), F(3)), TOL)
    assert h.verdict.kind == "NotPreperiodic"
    assert [v.prime if v.is_finite else "inf" for v in h.support] == ["inf", 2]
    assert len(calls) == 1


def test_the_box_verdict_is_exact():
    # (z^2, w^2) has no bad place and C_inf = 1, so Λ = 1: (2, 3) is past the
    # box at once, with height_lower 1 - 1/3 <= log 3 = h(2, 3)
    f = make_regular_map("z^2", "w^2")
    assert orbit_verdict(f, (F(2), F(3))).height_lower == F(2, 3)
    # (2z^2 + zw + w, 2w^2 - z), whose bad place is 2: the triple (2, 1, 6)
    # of (1/2, 3) starts inside the box, and the first point of its Fraction
    # orbit whose primitive triple is past it gives n and M
    f = make_regular_map("2*z^2 + z*w + w", "2*w^2 - z")
    box = math.prod(nullstellensatz_constant(f, v)[0]
                    for v in [Place.archimedean(), Place.finite(2)])
    pt, n = (F(1, 2), F(3)), 0
    while (M := max(map(abs, _triple((1, *pt))))) <= box:
        pt, n = f.apply(pt), n + 1
    assert n > 0
    v = orbit_verdict(f, (F(1, 2), F(3)))
    assert v.kind == "NotPreperiodic" and v.height_lower == (1 - box / M) / 2**n
    assert v.height_lower <= canonical_height(f, (F(1, 2), F(3)), TOL).value.upper


@st.composite
def maps_and_planted_points(draw):
    """(f, pt) of `maps_and_points`, the affine point made a fixed point of
    f half of the time by shifting the constant terms of P and Q."""
    f, pt = draw(maps_and_points())
    if len(pt) == 2 and draw(st.booleans()):
        f = make_regular_map(f.P + (pt[0] - f.P.eval(*pt)), f.Q + (pt[1] - f.Q.eval(*pt)))
    return f, pt


@settings(max_examples=40, deadline=None)
@given(maps_and_planted_points())
def test_the_box_verdict_agrees_with_the_green_sum(case):
    # the verdict of the orbit and the height box against the sum of the
    # Green kernel over inf and the bad places, which runs no exact orbit:
    # a sum above 0 is NotPreperiodic, a Preperiodic point has a sum that
    # holds 0, and a NotPreperiodic height_lower lies below the sum's upper end
    f, pt = case
    v = orbit_verdict(f, pt)
    X = _triple((1, *pt) if len(pt) == 2 else pt)
    places = height_support(f)
    g = sum(_orbit_green(GreenContext(f, pl), *X, PROP_TOL / len(places)) for pl in places)
    if g.lower > 0:
        assert v.kind == "NotPreperiodic"
    if v.kind == "Preperiodic":
        assert g.lower <= 0 <= g.upper
    elif v.kind == "NotPreperiodic":
        assert 0 < v.height_lower <= g.upper
    if len(pt) == 2 and f.apply(pt) == pt:
        assert (v.preperiod, v.period) == (0, 1)


def _rho(step, start, m):
    """(iterates x_0..x_m, r, mu): x_r is the first iterate equal to an
    earlier one, x_mu; a self-map of range(m) repeats within m steps."""
    xs = [start]
    for _ in range(m):
        xs.append(step(xs[-1]))
    r = next(n for n in range(1, m + 1) if xs[n] in xs[:n])
    return xs, r, xs.index(xs[r])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda m: st.tuples(
    st.lists(st.integers(0, m - 1), min_size=m, max_size=m), st.integers(0, m - 1),
    st.integers(0, 15), st.sets(st.integers(0, m - 1)))))
def test_exact_orbit_against_the_whole_rho(case):
    table, start, max_steps, big = case
    step = table.__getitem__
    orbit, k = _exact_orbit(step, start, max_steps, big.__contains__)
    xs, r, mu = _rho(step, start, len(table))
    # the first iterate after the start that is too big, among the new ones
    t = next((n for n in range(1, r) if xs[n] in big), None)
    if t is not None and t <= max_steps:
        assert (orbit, k) == (xs[:t + 1], None)
    elif r <= max_steps:
        assert (orbit, k) == (xs[:r], mu)
        period = len(orbit) - k
        assert step(orbit[-1]) == orbit[k]
        x = orbit[k]
        for _ in range(period - 1):
            x = step(x)
            assert x != orbit[k]
    else:
        assert (orbit, k) == (xs[:max_steps + 1], None)


def test_exact_orbit_stops_at_max_steps_and_at_a_point_too_big():
    step = {0: 1, 1: 2, 2: 0}.__getitem__
    never = lambda x: False
    # the 3-cycle closes on the third step
    assert _exact_orbit(step, 0, 3, never) == ([0, 1, 2], 0)
    assert _exact_orbit(step, 0, 2, never) == ([0, 1, 2], None)
    assert _exact_orbit(step, 0, 0, never) == ([0], None)
    # a too-big point ends the orbit and is kept; the start is never tested
    assert _exact_orbit(step, 0, 10, {2}.__contains__) == ([0, 1, 2], None)
    assert _exact_orbit(step, 0, 10, {0}.__contains__) == ([0, 1, 2], 0)

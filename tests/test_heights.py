import math
import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from regdyn.heights import _exact_orbit, canonical_height, height_support, is_preperiodic
from regdyn.maps import make_regular_map

TOL = F(1, 10**9)


def _weil(q: F) -> float:
    return math.log(max(abs(q.numerator), q.denominator))


def test_support_finite():
    f = make_regular_map("z^2", "1/3*w^2")
    sup = height_support(f, (F(1, 2), F(5)))
    primes = {v.prime for v in sup if v.is_finite}
    assert primes == {2, 3}


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

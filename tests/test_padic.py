import json
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from regdyn.cli import run
from regdyn.exactnum import valuation
from regdyn.maps import IntegerLift, NotRegular, make_regular_map
from regdyn.padic import PrecisionLoss, escape_exponent
from regdyn.polyalg import MultiPoly, parse_poly

small_q = st.builds(F, st.integers(-3, 3), st.integers(1, 9))


@st.composite
def regular_maps(draw):
    d = draw(st.integers(2, 3))
    monomials = [(i, k - i) for k in range(d + 1) for i in range(k + 1)]
    P, Q = (MultiPoly({e: draw(small_q) for e in monomials}) for _ in range(2))
    assume(P.degree == Q.degree == d)
    try:
        return make_regular_map(P, Q)
    except NotRegular:
        assume(False)


def _exact_exponent(P, Q, z0, z1, z2, n, p):
    """-min(v(a_n), v(b_n), 0 if z0 else +infinity) by exact rational
    iteration of (P, Q)."""
    a, b = z1, z2
    for _ in range(n):
        a, b = (sum(c * a**i * b**j for (i, j), c in g.coeffs.items()) for g in (P, Q))
    return -min([valuation(x, p) for x in (a, b) if x] + ([0] if z0 else []))


@settings(max_examples=60, deadline=None)
@given(regular_maps(), st.tuples(small_q, small_q), st.sampled_from([2, 3, 5, 7]),
       st.integers(0, 4), st.booleans(), st.integers(1, 12))
def test_escape_exponent_matches_exact_iteration(f, pt, p, n, affine, k):
    # affine points under (P, Q) and points of the line at infinity under the
    # top forms, at good and bad primes: 256 digits always suffice here, and
    # k digits give the exact exponent or PrecisionLoss
    z0, (P, Q) = (1, (f.P, f.Q)) if affine else (0, (f.top_P, f.top_Q))
    assume(affine or any(pt))
    exact = _exact_exponent(P, Q, z0, *pt, n, p)
    lift = IntegerLift(P, Q)
    assert escape_exponent(lift, z0, *pt, n, p, 256) == exact
    try:
        assert escape_exponent(lift, z0, *pt, n, p, k) == exact
    except PrecisionLoss:
        pass


def test_valuation_recursion_oracle():
    # z -> z^2/3 at p = 3 from z = 1: v(z_n) = 1 - 2^n, so m_n = 2^n - 1
    f = make_regular_map("1/3*z^2", "w^2")
    assert [escape_exponent(f.lift, 1, F(1), F(1), n, 3, 8) for n in range(7)] == \
        [2**n - 1 for n in range(7)]


def test_exact_zero():
    # a coordinate that stays exactly 0 costs no digits: a_n = 0 for all n
    # under (z^2, w^2/3) from (0, 1), and v(b_n) = 1 - 2^n
    f = make_regular_map("z^2", "1/3*w^2")
    assert escape_exponent(f.lift, 1, F(0), F(1), 10, 3, 1) == 2**10 - 1


def test_cancellation_gives_inexact_zero():
    # at [0 : 1 : 10] the top forms (z^2 - w^2, 9 z w) take 1 - 100 = -99 and
    # 90, both of 3-adic valuation 2: two digits cannot tell them from 0
    lift = IntegerLift(parse_poly("z^2 - w^2"), parse_poly("9*z*w"))
    with pytest.raises(PrecisionLoss):
        escape_exponent(lift, 0, F(1), F(10), 1, 3, 2)
    assert escape_exponent(lift, 0, F(1), F(10), 1, 3, 3) == -2


ESCALATING = ("--map", "2*z^2 - z*w + 2*z + 1/3*w + 1/3, z*w + 2*w^2 - 3",
              "--point=1,1/2", "--tol", "1e-30")


def test_an_escalating_green_value_keeps_its_enclosure(capsys):
    # G_3 at (1, 1/2) to 1e-30 takes 104 steps, which exhaust 64 digits, so
    # the kernel restarts at 128; the enclosure is pinned to its exact value
    f = make_regular_map(*ESCALATING[1].split(","))
    with pytest.raises(PrecisionLoss):
        escape_exponent(f.lift, 1, F(1), F(1, 2), 104, 3, 64)
    assert run(["green", *ESCALATING, "--place", "3"]) == 0
    green = json.loads(capsys.readouterr().out)["result"]["green"]
    assert green["lo_exact"] == (
        "242634987195339083557316722314324415297631328395077969099273104087665193/"
        "883423532389192164791648750371459257913741948437809479060803100646309888")
    assert green["hi_exact"] == (
        "970539948781356334229266889259902436746576145228634956848842784547088549/"
        "3533694129556768659166595001485837031654967793751237916243212402585239552")


def _plain_escape_exponent(lift, z0, z1, z2, n, p, k):
    """escape_exponent as the plain loop of n steps, with no early stop."""
    d, s, mod = lift.d, valuation(F(lift.D), p), p**k
    pt = (F(z0), F(z1), F(z2))
    m = -min(valuation(q, p) for q in pt if q)
    X = [(q * F(p)**m).numerator * pow((q * F(p)**m).denominator, -1, mod) % mod for q in pt]
    for _ in range(n):
        Y = lift(X)
        t = min(valuation(F(y), p) if y % mod else k for y in Y)
        if t >= k:
            raise PrecisionLoss("digits exhausted")
        k -= t
        mod = p**k
        X = [y // p**t % mod for y in Y]
        m = d * m + s - t
    return m


@settings(max_examples=200, deadline=None)
@given(regular_maps(), st.tuples(small_q, small_q), st.sampled_from([2, 3, 5, 7]),
       st.integers(0, 40), st.booleans(), st.integers(1, 10))
@example(make_regular_map("z^2 + 1/5*w", "w^2 - z"), (F(1), F(2)), 5, 40, True, 3)
@example(make_regular_map(*ESCALATING[1].split(",")), (F(1), F(1, 2)), 3, 40, True, 4)
def test_the_early_stop_gives_the_plain_loops_exponent(f, pt, p, n, affine, k):
    # a repeated reduction mod p ends the loop early; its exponent, or its
    # PrecisionLoss, is that of running every step
    z0, (P, Q) = (1, (f.P, f.Q)) if affine else (0, (f.top_P, f.top_Q))
    assume(affine or any(pt))
    lift = IntegerLift(P, Q)
    try:
        want = _plain_escape_exponent(lift, z0, *pt, n, p, k)
    except PrecisionLoss:
        with pytest.raises(PrecisionLoss):
            escape_exponent(lift, z0, *pt, n, p, k)
    else:
        assert escape_exponent(lift, z0, *pt, n, p, k) == want

import contextlib
import io
import json
import math
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from regdyn.cli import MAX_BITS, run
from regdyn.heights import PreperiodicityVerdict, orbit_verdict
from regdyn.infinity import InfinityPoint, infinity_orbit_preperiodicity
from regdyn.maps import (ORBIT_CAP, DegreeTooLow, IntegerLift, NotRegular, _affine,
                         _exact_orbit, _kernel, _solve_rational, _triple, make_regular_map)
from regdyn.polyalg import MultiPoly


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
    # the resultant of make_regular_map's one elimination, against sympy's
    # determinant of the Sylvester matrix of the top forms at formal degree d
    for P, Q in [("z^2", "w^2"), ("1/2*z^2 - 3*z*w + w", "2/3*z*w + 5*w^2 - z"),
                 ("z^3 + 2*w^3", "1/7*z*w^2 - z^2*w"), ("w^2", "z^2")]:
        f = make_regular_map(P, Q)
        d = f.d
        rows = [[sp.Rational(str(g.coefficient(d - j + s, j - s))) if 0 <= j - s <= d else 0
                 for j in range(2 * d)] for g in (f.top_P, f.top_Q) for s in range(d)]
        assert f.res == _fraction(sp.Matrix(rows).det())
    # shared root [1:1] of (z-w)^2 and z*w - w^2 = w(z-w)
    with pytest.raises(NotRegular):
        make_regular_map("(z-w)^2", "z*w - w^2")


def test_apply():
    f = make_regular_map("z^2", "w^2")
    assert f.apply((F(2), F(1))) == (F(4), F(1))


@st.composite
def integer_systems(draw):
    """(rows, rhs): a random square integer matrix up to 7 x 7, sparse, and
    singular in about one draw of four, with 0-2 right-hand sides."""
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.integers(-20, 20))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.integers(0, 3)) == 0:  # a row a combination of two others
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        s, t = draw(entry), draw(entry)
        rows[k] = [s * a + t * b for a, b in zip(rows[i], rows[j])] if k not in (i, j) \
            else [0] * n
    rhs = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=2))
    return rows, rhs


def _fraction(x):
    return F(int(x.p), int(x.q))


@settings(max_examples=60, deadline=None)
@given(integer_systems())
def test_fraction_free_solve_matches_sympy(system):
    # det, and det times each solution, all integers
    rows, rhs = system
    det, ys = _solve_rational(rows, rhs)
    M = sp.Matrix(rows)
    assert type(det) is int and det == M.det()
    if det == 0:
        assert ys is None
        return
    assert len(ys) == len(rhs)
    for b, y in zip(rhs, ys):
        assert all(type(c) is int for c in y)
        assert [F(c, det) for c in y] == [_fraction(c) for c in M.LUsolve(sp.Matrix(b))]


# -- the cofactors of the one elimination, in exact polynomial arithmetic -----

nonzero_q = st.builds(F, st.sampled_from([-9, -5, -3, -2, -1, 1, 2, 3, 4, 7]),
                      st.integers(1, 9))


def _assert_cofactor_identities(f):
    # A1 P_d + B1 Q_d = Res z^(2d-1) and A2 P_d + B2 Q_d = Res w^(2d-1)
    A1, B1, A2, B2 = f._cofactors
    n = 2 * f.d - 1
    assert A1 * f.top_P + B1 * f.top_Q == MultiPoly({(n, 0): f.res})
    assert A2 * f.top_P + B2 * f.top_Q == MultiPoly({(0, n): f.res})
    assert all(g.degree < f.d for g in (A1, B1, A2, B2))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(
    st.just(d), *[st.dictionaries(st.sampled_from(
        [(i, k - i) for k in range(d + 1) for i in range(k + 1)]), nonzero_q, min_size=1)] * 2)))
def test_cofactors_solve_the_resultant_identities(case):
    d, P, Q = case
    P[(d, 0)], Q[(0, d)] = P.get((d, 0), F(1)), Q.get((0, d), F(-2))
    try:
        f = make_regular_map(MultiPoly(P), MultiPoly(Q))
    except NotRegular:
        assume(False)
    _assert_cofactor_identities(f)


def test_cofactors_after_a_row_swap_and_a_shared_zero():
    # (w^2, z^2): the first row of the transposed Sylvester matrix is (0, 0, 1, 0),
    # so the elimination swaps rows at its first pivot
    f = make_regular_map("w^2", "z^2 + w")
    _assert_cofactor_identities(f)
    assert f.res == 1
    # w^2 and z w + w^2 share the zero [1 : 0]
    with pytest.raises(NotRegular):
        make_regular_map("w^2", "z*w + w^2")


# -- the integer lift and its one step against Fraction arithmetic ------------

small_q = st.builds(F, st.integers(-3, 3), st.integers(1, 9))
big = st.integers(-2**300, 2**300)


@st.composite
def sparse_pairs(draw):
    """(P, Q): a pair of degree 2-5 on random sparse supports, some of a
    single term, nonzero coefficients with denominators 1-9."""
    d = draw(st.integers(2, 5))
    monomials = [(i, k - i) for k in range(d + 1) for i in range(k + 1)]
    forms = []
    for _ in range(2):
        size = draw(st.sampled_from([1, 2, 4, len(monomials)]))
        support = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=size,
                                unique=True))
        forms.append({e: draw(nonzero_q) for e in support})
    top = draw(st.sampled_from([e for e in monomials if sum(e) == d]))
    forms[0][top] = draw(nonzero_q)
    return tuple(map(MultiPoly, forms))


def _lift_reference(P, Q, X) -> list:
    """D (x0^d, x0^d P(x1/x0, x2/x0), x0^d Q(...)) in Fraction arithmetic,
    through RegularMap.apply when (P, Q) is regular; D (0, P_d, Q_d)(x1, x2)
    at x0 = 0."""
    d = max(P.degree, Q.degree)
    D = math.lcm(P.den, Q.den)
    x0, x1, x2 = X
    if not x0:
        return [0] + [D * g.homogeneous_part(d).eval(F(x1), F(x2)) for g in (P, Q)]
    try:
        apply = make_regular_map(P, Q).apply
    except NotRegular:
        def apply(pt):
            return P.eval(*pt), Q.eval(*pt)
    return [D * F(x0) ** d] + [D * F(x0) ** d * v for v in apply((F(x1, x0), F(x2, x0)))]


@settings(max_examples=80, deadline=None)
@given(sparse_pairs(), st.tuples(st.one_of(st.just(0), big), big, big), st.data())
def test_the_lift_kernel_matches_fraction_arithmetic_on_sparse_supports(pair, X, data):
    P, Q = pair
    assume(any(X))
    lift = IntegerLift(P, Q)
    assert lift(X) == _lift_reference(P, Q, X)
    # another map of the same support shares the compiled function and gets
    # its own values
    P2, Q2 = (MultiPoly({e: data.draw(nonzero_q) for e in g.num}) for g in pair)
    other = IntegerLift(P2, Q2)
    assert other.support == lift.support and other.F is lift.F
    assert other(X) == _lift_reference(P2, Q2, X)
    if (P2, Q2) != (P, Q):
        assert other.c != lift.c


def test_the_lift_kernel_is_cached_by_support():
    # the cache holds compiled code keyed by support, not by map or by point
    f, g = make_regular_map("z^2 + 1/3*w", "w^2 - z"), make_regular_map("5*z^2 + w", "7*w^2 + z")
    assert f.lift.F is g.lift.F
    assert _kernel.cache_info().maxsize is not None
    assert f.lift((1, 2, 3)) == [3, 15, 21] and g.lift((1, 2, 3)) == [1, 23, 65]


@st.composite
def maps_and_points(draw):
    """(f, z0, z1, z2): a regular map of degree 2 or 3 whose coefficient
    denominators, from 1 to 9, share primes, and a rational point, affine
    (z0 = 1) or [z1 : z2] at infinity (z0 = 0).  About half the draws plant
    the point as a fixed point, so that its orbit closes: the constant terms
    move it on the affine plane, a term z^d or w^d of the map at infinity."""
    d = draw(st.integers(2, 3))
    monomials = [(i, k - i) for k in range(d + 1) for i in range(k + 1)]
    P, Q = (MultiPoly({e: draw(small_q) for e in monomials}) for _ in range(2))
    z0 = draw(st.sampled_from([0, 1]))
    z1, z2 = draw(st.tuples(small_q, small_q))
    assume(z0 or z1 or z2)
    if draw(st.booleans()):
        top_P, top_Q = P.homogeneous_part(d), Q.homogeneous_part(d)
        if z0:
            P, Q = P + (z1 - P.eval(z1, z2)), Q + (z2 - Q.eval(z1, z2))
        elif z1:  # Q_d(z1, z2) becomes z2 P_d(z1, z2) / z1
            t = (z2 * top_P.eval(z1, z2) - z1 * top_Q.eval(z1, z2)) / z1 ** (d + 1)
            Q = Q + MultiPoly({(d, 0): t})
        else:  # P_d(0, 1) becomes 0
            P = P - MultiPoly({(0, d): P.coefficient(0, d)})
    assume(P.degree == Q.degree == d)
    try:
        return make_regular_map(P, Q), z0, z1, z2
    except NotRegular:
        assume(False)


def _coprime(a: F, b: F) -> tuple:
    """[a : b] as coprime integers, the last nonzero one positive."""
    L = math.lcm(a.denominator, b.denominator)
    x, y = int(a * L), int(b * L)
    g = math.gcd(x, y) * (-1 if y < 0 or (y == 0 and x < 0) else 1)
    return x // g, y // g


def _affine_rule(pt):
    return max(map(abs, pt)) > 10**40 or max(
        c.numerator.bit_length() + c.denominator.bit_length() for c in pt) > 4096


def _run_orbit(f, pt, n):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["orbit", "--map", f"{f.P.to_string()}, {f.Q.to_string()}",
                    f"--point={pt[0]},{pt[1]}", "-n", str(n)])
    assert code == 0
    return json.loads(out.getvalue())


@settings(max_examples=60, deadline=None)
@given(maps_and_points(), st.tuples(*[st.integers(-5, 5)] * 3))
def test_integer_orbits_match_a_fraction_replay(case, X):
    # the lift is D (z0^d, P^h, Q^h), D the lcm of the coefficient
    # denominators, so D (0, P_d, Q_d) at z0 = 0
    f, z0, z1, z2 = case
    x0, x1, x2 = X
    D = math.lcm(*(c.denominator for g in (f.P, f.Q) for c in g.coeffs.values()))
    if x0:
        want = [F(x0) ** f.d * g.eval(F(x1, x0), F(x2, x0)) for g in (f.P, f.Q)]
    else:
        want = [f.top_P.eval(x1, x2), f.top_Q.eval(x1, x2)]
    assert f.lift(X) == [D * x0 ** f.d] + [D * v for v in want]
    if z0:
        # the same points, the same k and the same cut point as (P, Q)
        # iterated on Fractions under the size rule of an affine orbit
        ref, k = _exact_orbit(f.apply, (z1, z2), ORBIT_CAP, _affine_rule)
        orbit, k2 = _exact_orbit(f.lift.step, _triple((1, z1, z2)), ORBIT_CAP,
                                 lambda X: _affine_rule(_affine(X)))
        assert (list(map(_affine, orbit)), k2) == (ref, k)
        verdict = orbit_verdict(f, (z1, z2))
        if k is None:
            assert verdict.kind != "Preperiodic"
        else:
            assert verdict == PreperiodicityVerdict.preperiodic(ref, k)
        # the orbit command stops before a coordinate passes MAX_BITS
        rows = [(z1, z2)]
        for _ in range(16):
            nxt = f.apply(rows[-1])
            if any(max(abs(c.numerator), c.denominator).bit_length() > MAX_BITS for c in nxt):
                break
            rows.append(nxt)
        doc = _run_orbit(f, (z1, z2), 16)
        assert [tuple(F(c["exact"]) for c in row) for row in doc["result"]["orbit"]] == rows
        assert doc["caps"]["bit_capped"] is (len(rows) < 17)
    else:
        # on the line at infinity, as the top forms on coprime pairs
        def step(pair):
            return _coprime(f.top_P.eval(*map(F, pair)), f.top_Q.eval(*map(F, pair)))

        def big(pair):
            return max(map(abs, pair)) > 10**60

        ref, k = _exact_orbit(step, _coprime(z1, z2), ORBIT_CAP, big)
        orbit, k2 = _exact_orbit(f.lift.step, _triple((0, z1, z2)), ORBIT_CAP,
                                 lambda X: big(X[1:]))
        assert ([X[1:] for X in orbit], k2) == (ref, k)
        if k is not None:
            verdict = infinity_orbit_preperiodicity(f, InfinityPoint.from_pair(z1, z2))
            assert verdict == PreperiodicityVerdict.preperiodic(ref, k)

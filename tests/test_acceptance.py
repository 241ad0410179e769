"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line (with its runtime) on top of the
usual pytest verdict.  Oracles are independent of the code under test:
closed forms, direct Weil-height formulas, and hand-derived series
coefficients.
"""

import math
import random
import time
from fractions import Fraction as F

from regdyn.curves import PlaneCurve, curve_preperiodicity, dmm_report, \
    find_preperiodic_points, pushforward
from regdyn.exactnum import AlgebraicNumber, Place
from regdyn.green import GreenContext, green_value
from regdyn.heights import canonical_height, is_preperiodic
from regdyn.infinity import (ExpandingPlace, RootOfUnity, Superattracting,
                             classify_multiplier)
from regdyn.localdyn import (LocalGerm, SectorMap, VerticalGraphSample,
                             graph_pullback, parabolic_normal_form,
                             rescaling_check, saddle_normal_form,
                             super_stable_series)
from regdyn.maps import make_regular_map
from regdyn.series import TruncSeries, TruncSeries2

TOL = F(1, 10**10)


def _report(num, started, limit):
    elapsed = time.monotonic() - started
    print(f"criterion {num}: PASS ({elapsed:.2f}s, limit {limit}s)")
    assert elapsed < limit


def _rand_point(rng, span=30, den=12):
    return (F(rng.randint(-span, span), rng.randint(1, den)),
            F(rng.randint(-span, span), rng.randint(1, den)))


def _overlap(a, b, tol):
    return a.lower <= b.upper + tol and b.lower <= a.upper + tol


def test_criterion_1_green_invariance():
    t0 = time.monotonic()
    rng = random.Random(11)
    maps = ["z^2, w^2", "z^2 + w, w^2 + z", "z^2 - w + 1, 2*w^2 + z"]
    places = [Place.archimedean(), Place.finite(2), Place.finite(3),
              Place.finite(5)]
    tol = F(1, 10**8)
    for text in maps:
        P, Q = text.split(",")
        f = make_regular_map(P, Q)
        ctxs = [GreenContext(f, v) for v in places]
        for _ in range(50):
            pt = _rand_point(rng)
            image = f.apply(pt)
            for ctx in ctxs:
                a = green_value(ctx, image, TOL)
                b = green_value(ctx, pt, TOL).scale(f.d)
                assert _overlap(a, b, tol)
    _report(1, t0, 30)


def test_criterion_2_good_reduction_closed_form():
    t0 = time.monotonic()
    rng = random.Random(22)
    f = make_regular_map("z^2", "w^2")
    for _ in range(100):
        z, w = _rand_point(rng, span=40, den=18)
        primes = {2, 3, 7}
        for q in (z, w):
            primes |= set(sympy_factorint(q.denominator))
            primes |= set(sympy_factorint(q.numerator))
        for p in sorted(primes):
            v = Place.finite(p)
            got = green_value(GreenContext(f, v), (z, w), TOL)
            want = math.log(max(1, _abs_p(z, p), _abs_p(w, p)))
            assert abs(float(got.lower) - want) < 1e-10
            assert abs(float(got.upper) - want) < 1e-10
        got = green_value(GreenContext(f, Place.archimedean()), (z, w), TOL)
        want = math.log(max(1.0, abs(z), abs(w)))
        assert abs(float(got.lower) - want) < 1e-10
    _report(2, t0, 10)


def sympy_factorint(n):
    import sympy
    return sympy.factorint(abs(n)) if n else {}


def _abs_p(q, p):
    if q == 0:
        return 0.0
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return float(p) ** (-v)


def test_criterion_3_height_oracle():
    # The stated oracle max(h(z), h(w)) only agrees with the canonical
    # height of the squaring map when both coordinates are v-integral at
    # every finite place that matters (e.g. integers).  The correct
    # independent oracle for arbitrary rationals is the Weil height of
    # [1 : z : w].  We check the corrected oracle on general rationals and
    # the stated max-form on integer points, where it is valid.
    t0 = time.monotonic()
    rng = random.Random(33)
    f = make_regular_map("z^2", "w^2")

    def weil(q):
        return math.log(max(abs(q.numerator), q.denominator))

    def weil_pair(z, w):
        c = math.lcm(z.denominator, w.denominator)
        a = z.numerator * (c // z.denominator)
        b = w.numerator * (c // w.denominator)
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        return math.log(max(abs(a), abs(b), c) // g)

    for _ in range(100):
        pt = _rand_point(rng, span=60, den=15)
        h = canonical_height(f, pt, F(1, 10**10))
        assert abs(float(h.value.lower) - weil_pair(*pt)) < 1e-8
    for _ in range(100):
        pt = (F(rng.randint(-999, 999)), F(rng.randint(-999, 999)))
        h = canonical_height(f, pt, F(1, 10**10))
        assert abs(float(h.value.lower) - max(weil(pt[0]), weil(pt[1]))) < 1e-8
    _report(3, t0, 30)


def test_criterion_4_preperiodicity_exactness():
    t0 = time.monotonic()
    f = make_regular_map("z^2", "w^2")
    pts = find_preperiodic_points(f, PlaneCurve("w - z"), height_bound=1,
                                  max_order=24)
    approx = []
    for p in pts:
        assert p.verdict.kind == "Preperiodic"
        try:
            z = complex(p.point[0])
        except TypeError:
            import sympy
            z = complex(sympy.N(p.point[0]))
        approx.append(z)
    for a in range(24):
        zeta = complex(math.cos(2 * math.pi * a / 24),
                       math.sin(2 * math.pi * a / 24))
        assert any(abs(z - zeta) < 1e-9 for z in approx), a
    v = is_preperiodic(f, (F(2), F(3)))
    assert v.kind == "NotPreperiodic"
    assert float(v.height_lower) >= math.log(3) - 1e-6
    _report(4, t0, 10)


def test_criterion_5_super_stable_manifold():
    t0 = time.monotonic()
    N = 32
    X = TruncSeries2.variable(0, N)
    Y = TruncSeries2.variable(1, N)
    g = LocalGerm(X * 2 + Y ** 2, Y ** 2, 2)
    phi = super_stable_series(g)
    expect = TruncSeries.zero(N)
    for k in range(1, 6):
        expect = expect + TruncSeries.monomial(F(-1, 2 ** k), 2 ** k, N)
    assert phi == expect
    # functional equation lambda*phi + g(phi, y) = phi(y^2 (1 + h)) mod y^33
    # is asserted inside super_stable_series; re-check it independently here
    y = TruncSeries.identity(N)
    lhs = phi * 2 + (y * y)           # g(x, y) = y^2, h = 0
    rhs = phi.compose(y * y)
    assert lhs == rhs
    _report(5, t0, 5)


def test_criterion_6_saddle_normal_form():
    t0 = time.monotonic()
    N = 24
    X = TruncSeries2.variable(0, N)
    Y = TruncSeries2.variable(1, N)
    g = LocalGerm(X * 2 * (Y + 1), Y ** 2 * (X + 1), 2)
    res = saddle_normal_form(g)
    assert res.verify()  # exact conjugacy soundness at every step
    out = res.germ
    resid1 = out.first - X * 2
    assert all(i >= 2 and j >= 1 for (i, j), c in resid1.coeffs.items() if c)
    resid2 = out.second - Y ** 2
    assert all(i >= 1 and j >= 2 for (i, j), c in resid2.coeffs.items() if c)
    _report(6, t0, 10)


def test_criterion_7_parabolic_normal_form():
    t0 = time.monotonic()
    N = 24
    X = TruncSeries2.variable(0, N)
    Y = TruncSeries2.variable(1, N)
    g = LocalGerm(X * (Y + 1) + X ** 2, Y ** 2 * (X + 1), 2)
    k, res = parabolic_normal_form(g)
    assert res.verify()
    assert k == 1
    first = res.germ.first
    assert first.coeffs.get((1, 0)) == 1
    assert first.coeffs.get((k + 1, 0)) == 1
    # forbidden mixed terms x^{j+1} y^m for 1 <= j <= 2k-1, j != k, m >= 1
    for (i, j), c in first.coeffs.items():
        if c and j >= 1 and 2 <= i <= 2 * k and i != k + 1:
            raise AssertionError(f"forbidden coefficient x^{i} y^{j}")
    _report(7, t0, 10)


def test_criterion_8_rescaling():
    t0 = time.monotonic()
    N = 24
    X = TruncSeries2.variable(0, N)
    Y = TruncSeries2.variable(1, N)
    g = LocalGerm(X * 2 * (Y + 1), Y ** 2 * (X + 1), 2)
    out = saddle_normal_form(g).germ
    devs = [rescaling_check(out, n, 0.05) for n in range(1, 21)]
    assert devs[-1] < 1e-6
    for a, b in zip(devs, devs[1:]):
        assert b <= a + 1e-12
    _report(8, t0, 10)


def test_criterion_9_graph_transform():
    t0 = time.monotonic()
    N = 16
    X = TruncSeries2.variable(0, N)
    Y = TruncSeries2.variable(1, N)
    g = LocalGerm(X + X ** 2, Y ** 2 * (X + 1), 2)
    k, res = parabolic_normal_form(g)
    sector = SectorMap.from_parabolic(res.germ, k, r=0.005)
    base = complex(2.0 * sector.R, 0.0)
    cur = VerticalGraphSample.constant(base, rho=0.001)
    total = 0.0
    for _ in range(30):
        nxt = graph_pullback(sector, cur)
        assert nxt.sigma <= 0.1 + 1e-9
        step = nxt.base.real - cur.base.real
        assert step >= 0.9 - 1e-9
        total += step
        cur = nxt
    assert total >= 27.0
    _report(9, t0, 30)


def test_criterion_10_curve_pipeline():
    t0 = time.monotonic()
    f = make_regular_map("z^2", "w^2")
    for eq in ("w - z", "w - z^2"):
        C = PlaneCurve(eq)
        assert pushforward(f, C) == C
    C = PlaneCurve("w - z - 1")
    degs = [C.degree]
    for _ in range(2):
        C = pushforward(f, C)
        degs.append(C.degree)
    assert degs == [1, 2, 4]
    st = curve_preperiodicity(f, PlaneCurve("w - z - 1"), max_iters=4)
    assert st.kind == "NotDetectedPreperiodic"
    rep = dmm_report(f, PlaneCurve("w - z"), height_bound=2, max_order=8)
    assert rep.hypothesis_witnessed and rep.conclusion_witnessed
    assert rep.consistency is True
    assert rep.curve_status.kind == "Fixed" and rep.curve_status.period == 1
    _report(10, t0, 60)


def test_criterion_11_trichotomy_exhaustiveness():
    t0 = time.monotonic()
    rng = random.Random(55)
    branches = (Superattracting, RootOfUnity, ExpandingPlace)

    def fired(c):
        hits = [isinstance(c, b) for b in branches]
        assert sum(hits) == 1
        return c

    for _ in range(500):
        q = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        fired(classify_multiplier(AlgebraicNumber.from_rational(q)))
    fixed = {F(0): Superattracting, F(1): RootOfUnity, F(-1): RootOfUnity,
             F(2): ExpandingPlace, F(1, 2): ExpandingPlace,
             F(2, 3): ExpandingPlace}
    for q, want in fixed.items():
        assert isinstance(fired(classify_multiplier(
            AlgebraicNumber.from_rational(q))), want)
    zeta3 = AlgebraicNumber([1, 1, 1], 0)
    assert fired(classify_multiplier(zeta3)) == RootOfUnity(3)
    _report(11, t0, 5)

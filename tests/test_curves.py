import functools
import math
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings, strategies as st

from regdyn import curves
from regdyn.curves import (CurveOrbitStatus, EliminationError, PlaneCurve, Zeta,
                           curve_preperiodicity, dmm_report, find_preperiodic_points,
                           points_at_infinity, pushforward)
from regdyn.maps import ORBIT_CAP
from regdyn.infinity import ExpandingPlace
from regdyn.maps import make_regular_map
from regdyn.numberfield import NumberField
from regdyn.polyalg import MultiPoly, parse_poly


def test_plane_curve_canonical_form():
    # scaling and sign are normalized away; squarefree part is taken
    a = PlaneCurve("2*w - 2*z")
    b = PlaneCurve("z - w")
    c = PlaneCurve("(w - z)^2")
    assert a == b == c
    assert PlaneCurve("w - z^2") != b


def test_contains():
    C = PlaneCurve("w - z^2")
    assert C.contains((F(3), F(9)))
    assert not C.contains((F(3), F(8)))


def test_points_at_infinity_oracles():
    # a line meets the line at infinity at one point
    pts = points_at_infinity(PlaneCurve("w - z"))
    assert sum(p.multiplicity for p in pts) == 1
    pt = pts[0]
    assert pt.chart == 0 and pt.coordinate.as_rational() == 1

    # w = z^2 has degree 2: the unique branch at infinity is [0:1]
    pts = points_at_infinity(PlaneCurve("w - z^2"))
    assert sum(p.multiplicity for p in pts) == 2
    charts = {p.chart for p in pts}
    assert charts == {1}

    # vertical line z = 1 hits [0:1]
    pts = points_at_infinity(PlaneCurve("z - 1"))
    assert len(pts) == 1 and pts[0].chart == 1


def test_pushforward_fixed_curves():
    f = make_regular_map("z^2", "w^2")
    for eq in ("w - z", "w - z^2", "z - 1", "w - 1"):
        C = PlaneCurve(eq)
        img = pushforward(f, C)
        if eq in ("w - z", "w - z^2"):
            assert img == C
    assert pushforward(f, PlaneCurve("z - 1")) == PlaneCurve("z - 1")


def test_pushforward_degree_growth():
    f = make_regular_map("z^2", "w^2")
    C = PlaneCurve("w - z - 1")
    degs = [C.degree]
    for _ in range(3):
        C = pushforward(f, C)
        degs.append(C.degree)
    assert degs == [1, 2, 4, 8]


def test_pushforward_functoriality():
    f = make_regular_map("z^2", "w^2")
    f2 = make_regular_map("z^4", "w^4")
    C = PlaneCurve("w - z - 1")
    assert pushforward(f, pushforward(f, C)) == pushforward(f2, C)


def test_pushforward_witness_points():
    # image contains the images of points of the source curve
    f = make_regular_map("z^2 + w", "w^2")
    C = PlaneCurve("w - z")
    img = pushforward(f, C)
    for a in (F(1, 2), F(2), F(-3), F(5, 7)):
        assert img.contains(f.apply((a, a)))


def test_pushforward_rejects_an_image_degree_not_dividing_d_deg_c(monkeypatch):
    # under (z^3, w^3) a line's image has degree 1 or 3; a conic passes the
    # bound deg <= d * deg C = 3 but is impossible
    f = make_regular_map("z^3", "w^3")
    monkeypatch.setattr(curves, "_component_image",
                        lambda Ri, f, cap: [{(0, 1): 1, (2, 0): -1}])  # W - Z^2
    with pytest.raises(EliminationError):
        pushforward(f, PlaneCurve("w - z"))


def test_pushforward_reducible_curve_with_images_of_different_degrees():
    # z = 0 goes onto itself and w = z + 1 onto a conic, so the image has
    # degree 3, which does not divide d * deg C = 4; each component's does
    f = make_regular_map("z^2", "w^2")
    img = pushforward(f, PlaneCurve("z*(w - z - 1)"))
    assert img == PlaneCurve(f"z*({pushforward(f, PlaneCurve('w - z - 1')).poly.to_string()})")
    assert img.degree == 3


def test_curve_preperiodicity_kinds():
    f = make_regular_map("z^2", "w^2")
    assert curve_preperiodicity(f, PlaneCurve("w - z")).kind == "Fixed"
    assert curve_preperiodicity(f, PlaneCurve("z - 1")).kind == "Fixed"
    st = curve_preperiodicity(f, PlaneCurve("w - z - 1"), max_iters=4)
    assert st.kind == "NotDetectedPreperiodic"
    # z = -1 maps to z = 1 which is fixed
    st = curve_preperiodicity(f, PlaneCurve("z + 1"))
    assert st.kind == "PreperiodicTo" and (st.preperiod, st.period) == (1, 1)


def test_find_preperiodic_points_diagonal():
    f = make_regular_map("z^2", "w^2")
    pts = find_preperiodic_points(f, PlaneCurve("w - z"), height_bound=2,
                                  max_order=8)
    coords = {p.point for p in pts if len(p.point) == 2
              and isinstance(p.point[0], F)}
    assert (F(1), F(1)) in coords
    assert (F(-1), F(-1)) in coords
    assert (F(0), F(0)) in coords
    assert len(pts) > 3  # roots-of-unity pairs beyond the rational ones


def test_find_preperiodic_points_at_height_bound_zero():
    # no rational probe runs, so the roots-of-unity probe finds (+-1, +-1) too
    f = make_regular_map("z^2", "w^2")
    pts = find_preperiodic_points(f, PlaneCurve("w - z"), height_bound=0, max_order=3)
    assert [p.point for p in pts] == [(Zeta(F(t)), Zeta(F(t)))
                                      for t in (0, F(1, 2), F(1, 3), F(2, 3))]


def test_find_preperiodic_points_off_diagonal_line():
    # w = z + 1 picks up (0, 1) (0 and 1 both fixed by squaring)
    f = make_regular_map("z^2", "w^2")
    pts = find_preperiodic_points(f, PlaneCurve("w - z - 1"), height_bound=2,
                                  max_order=2)
    coords = {p.point for p in pts}
    assert (F(0), F(1)) in coords
    assert (F(-1), F(0)) in coords


def test_find_preperiodic_points_computes_no_height(monkeypatch):
    # only exact cycles count, so the rational search needs no canonical height
    f = make_regular_map("z^2", "w^2")
    C = PlaneCurve("w - z")
    expected = find_preperiodic_points(f, C, height_bound=2, max_order=4)

    def refuse(*args, **kwargs):
        raise AssertionError("canonical_height called")

    monkeypatch.setattr("regdyn.heights.canonical_height", refuse)
    pts = find_preperiodic_points(f, C, height_bound=2, max_order=4)
    assert [(p.point, p.verdict) for p in pts] == [(p.point, p.verdict) for p in expected]
    assert (F(1, 2), F(1, 2)) not in {p.point for p in pts}


def test_zeta_prints_as_sympy_prints_the_exponential():
    # every root of unity of order at most 60, 1,102 of them
    for n in range(1, 61):
        for a in range(n):
            if math.gcd(a, n) == 1:
                expr = sp.exp(2 * sp.pi * sp.I * sp.Rational(a, n))
                z = Zeta(F(a, n))
                assert str(z) == str(expr), (a, n)
                assert abs(complex(z) - complex(expr)) < 1e-12
                assert z == Zeta(F(a + 3 * n, n)) == Zeta(F(a - n, n))


@st.composite
def monomial_detector_maps(draw):
    """A regular map of degree 2 or 3 of one of five kinds: diagonal (c1 z^d,
    c2 w^d); swapped (c1 w^d, c2 z^d); unit or non-unit, either shape with
    c1, c2 = +-1 or with |c1| != 1; non-monomial, one of whose components
    has a second term."""
    d = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["diagonal", "swapped", "unit", "non-unit", "non-monomial"]))
    coef = st.fractions(-9, 9, max_denominator=5).filter(bool)
    if kind == "unit":
        c1, c2 = (draw(st.sampled_from([F(1), F(-1)])) for _ in range(2))
    elif kind == "non-unit":
        c1, c2 = draw(coef.filter(lambda c: abs(c) != 1)), draw(coef)
    else:
        c1, c2 = draw(coef), draw(coef)
    swapped = kind == "swapped" or (kind in ("unit", "non-unit") and draw(st.booleans()))
    P, Q = ("w", "z") if swapped else ("z", "w")
    P, Q = f"({c1})*{P}^{d}", f"({c2})*{Q}^{d}"
    if kind == "non-monomial":
        extra = f" + ({draw(coef)})*{draw(st.sampled_from(['z', 'w', '1', 'z*w']))}"
        P, Q = (P + extra, Q) if draw(st.booleans()) else (P, Q + extra)
    return make_regular_map(P, Q)


def _detector_matches_apply(f, z, w):
    # (c1, c2, swapped) must reproduce f at (z, w); None only off monomial maps
    mono = f._monomial
    if mono is None:
        assert len(f.P.num) > 1 or len(f.Q.num) > 1
        return
    assert len(f.P.num) == len(f.Q.num) == 1
    c1, c2, swapped = mono
    x, y = (w, z) if swapped else (z, w)
    assert f.apply((z, w)) == (c1 * x**f.d, c2 * y**f.d)


@settings(max_examples=80, deadline=None)
@given(monomial_detector_maps(), st.fractions(-5, 5, max_denominator=7),
       st.fractions(-5, 5, max_denominator=7))
def test_monomial_detector_matches_apply(f, z, w):
    _detector_matches_apply(f, z, w)


@pytest.mark.parametrize("P, Q, exps", [
    ("z^2", "w^2", ((2, 0, 0), (0, 2, 0))),
    ("w^3", "-z^3", ((0, 3, 0), (3, 0, 1))),
    ("-z^2", "-w^2", ((2, 0, 1), (0, 2, 1))),
    ("2*z^2", "w^2", None),
    ("z^2 + w", "w^2 - z", None),
    ("z^2", "w^2 + 1", None),
])
def test_unit_monomial_detector(P, Q, exps):
    # the fixed cases of the detector; exps, when not None, gives each
    # component as (a, b, h), (-1)^h z^a w^b, a unit monomial
    f, z, w = make_regular_map(P, Q), F(2), F(3)
    _detector_matches_apply(f, z, w)
    mono = f._monomial
    assert (mono is not None and abs(mono[0]) == abs(mono[1]) == 1) == (exps is not None)
    if exps is not None:
        assert f.apply((z, w)) == tuple((-1) ** h * z**a * w**b for a, b, h in exps)


def _cyclotomic_replay(f, start, L, orbit_cap):
    """(orbit, k) of start under f.apply in Q(zeta_L), iterated step by step:
    k the index the orbit returns to within orbit_cap steps, else None."""
    orbit, seen, pt = [], {}, start
    while pt not in seen and len(orbit) <= orbit_cap:
        seen[pt] = len(orbit)
        orbit.append(pt)
        pt = f.apply(pt)
    return orbit, seen[pt] if pt in seen and len(orbit) <= orbit_cap else None


@st.composite
def unit_monomial_points(draw):
    """A diagonal (+-z^d, +-w^d) or swapped (+-w^d, +-z^d) map with d = 2, 3
    and a pair of roots of unity of order at most 24."""
    d = draw(st.sampled_from([2, 3]))
    s1, s2 = (draw(st.sampled_from(["", "-"])) for _ in range(2))
    P, Q = ("w", "z") if draw(st.booleans()) else ("z", "w")
    n1, n2 = (draw(st.integers(1, 24)) for _ in range(2))
    a1, a2 = draw(st.integers(0, n1 - 1)), draw(st.integers(0, n2 - 1))
    return make_regular_map(f"{s1}{P}^{d}", f"{s2}{Q}^{d}"), F(a1, n1), F(a2, n2)


@settings(max_examples=60, deadline=None)
@given(unit_monomial_points())
# periods 3 and 11 of the squared map: the pair needs more than 64 steps
@example((make_regular_map("w^2", "z^2"), F(1, 7), F(1, 23)))
def test_unit_monomial_orbit_matches_a_cyclotomic_replay(case):
    # the oracle iterates the map's polynomials on number-field elements
    f, t1, t2 = case
    L = math.lcm(t1.denominator, t2.denominator, 2)  # -1 = zeta_L^(L/2)
    K = NumberField(sp.Poly(sp.cyclotomic_poly(L, sp.Symbol("x"))).all_coeffs()[::-1])

    def power(t):  # zeta_L^(t L)
        return K([0] * int(t * L) + [1])

    replay, k = _cyclotomic_replay(f, (power(t1), power(t2)), L, ORBIT_CAP)
    orbit = curves._exponent_orbit(f, ((t1.numerator, t1.denominator),
                                       (t2.numerator, t2.denominator)))
    verdict = None if orbit is None else curves._zeta_verdict(*orbit, 1)
    if k is None:
        assert verdict is None
        return
    assert (verdict.preperiod, verdict.period) == (k, len(replay) - k)
    assert [tuple(power(z.t) for z in pt) for pt in verdict.orbit] == replay
    # each root of unity of the orbit is one shared Zeta
    zetas = [z for pt in verdict.orbit for z in pt]
    assert len({id(z) for z in zetas}) == len(set(zetas))


@pytest.mark.parametrize("P, Q", [("z^2 + w", "w^2 - z"), ("2*z^2", "w^2")])
def test_find_preperiodic_points_probes_no_roots_of_unity_off_unit_monomials(
        monkeypatch, P, Q):
    monkeypatch.setattr(curves, "_on_curve_cyclotomic",
                        lambda *args: pytest.fail("roots-of-unity probe ran"))
    f = make_regular_map(P, Q)
    for curve in ("w - z", "z^2 + w^2 - 2"):
        pts = find_preperiodic_points(f, PlaneCurve(curve), height_bound=2, max_order=8)
        assert all(isinstance(c, F) for p in pts for c in p.point)
        assert all(isinstance(c, F) for p in pts for pt in p.verdict.orbit for c in pt)


def test_find_preperiodic_points_on_a_swapped_map():
    # (w^2, -z^2) sends (zeta, zeta) to (zeta^2, -zeta^2)
    f = make_regular_map("w^2", "-z^2")
    pts = find_preperiodic_points(f, PlaneCurve("w - z"), height_bound=1, max_order=4)
    by_point = {p.point: p.verdict for p in pts}
    v = by_point[(Zeta(F(1, 4)), Zeta(F(1, 4)))]
    assert (v.preperiod, v.period) == (2, 1)
    assert v.orbit == [(Zeta(F(1, 4)), Zeta(F(1, 4))), (Zeta(F(1, 2)), Zeta(F(0))),
                       (Zeta(F(0)), Zeta(F(1, 2)))]


@functools.lru_cache(maxsize=None)
def _cyclotomic_field(L):
    return NumberField(sp.Poly(sp.cyclotomic_poly(L, sp.Symbol("x"))).all_coeffs()[::-1])


def _pair_scan(f, C, max_order):
    """The roots-of-unity points of find_preperiodic_points at height bound 0
    found by testing every ordered pair of roots of unity of order at most
    max_order exactly, as an element of Q(zeta_L) built on sympy's
    cyclotomic polynomial: the reference for the probe, which tries only
    those near the roots of each row R(z1, w)."""
    rous = [(a, n) for n in range(1, max_order + 1) for a in range(n) if math.gcd(a, n) == 1]
    found = []
    for a1, n1 in rous:
        for a2, n2 in rous:
            L = math.lcm(n1, n2)
            cs = [0] * L  # R(zeta_L^e1, zeta_L^e2) as a polynomial in zeta_L
            for (i, j), c in C.poly.num.items():
                cs[(i * a1 * (L // n1) + j * a2 * (L // n2)) % L] += c
            if not _cyclotomic_field(L)(cs).is_zero():
                continue
            orbit = curves._exponent_orbit(f, ((a1, n1), (a2, n2)))
            if orbit is not None:
                found.append(((Zeta(F(a1, n1)), Zeta(F(a2, n2))), curves._zeta_verdict(*orbit, 1)))
    return found


_Z_FACTORS = ["z^2 + z + 1", "z + 1", "z^2 + 1", "z^2 - z + 1", "z^4 + 1"]


@st.composite
def unit_monomial_cases(draw):
    """A unit monomial map (signs +-1, degree 2 or 3, maybe swapped) and a
    line, a binomial (coprime exponents or not), a conic, a product with a
    factor free of w (whose rows vanish at its roots), a curve whose rows
    have a double or triple root at roots of unity, or N Z(z) + w -+ z^k for
    a large N and a cyclotomic factor Z (a line or a conic of nonzero
    determinant, so no sympy factoring)."""
    d = draw(st.sampled_from([2, 3]))
    s1, s2 = (draw(st.sampled_from(["", "-"])) for _ in range(2))
    P, Q = (f"{s1}w^{d}", f"{s2}z^{d}") if draw(st.booleans()) else (f"{s1}z^{d}", f"{s2}w^{d}")
    c = st.sampled_from([-2, -1, 1, 2])
    kind = draw(st.sampled_from(["line", "binomial", "conic", "vertical", "multiple", "large"]))
    if kind == "line":
        curve = f"{draw(c)}*z + {draw(c)}*w + {draw(st.integers(-1, 1))}"
    elif kind == "binomial":
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        curve = f"w^{m} + {draw(c)}*z^{n}"
    elif kind == "conic":
        a, b, e, g, h, k = (draw(st.integers(-2, 2)) for _ in range(6))
        curve = f"{a}*z^2 + {b}*z*w + {e}*w^2 + {g}*z + {h}*w + {k} + w^2"
    elif kind == "vertical":
        zf, k = draw(st.sampled_from(_Z_FACTORS)), draw(st.integers(1, 2))
        curve = f"({zf})*(w - {draw(c)}*z^{k})"
    elif kind == "multiple":
        e = draw(st.integers(2, 3))
        curve = f"(w - z^{draw(st.integers(1, 2))})^{e} - ({draw(st.sampled_from(_Z_FACTORS))})"
    else:  # N from 10^9 to past the double range, whose terms cancel at the points
        N = draw(st.integers(10**9, 10**12)) * 10 ** draw(st.sampled_from([0, 200, 300, 400]))
        zf, k = draw(st.sampled_from(_Z_FACTORS[:4])), draw(st.integers(1, 2))
        curve = f"{N}*({zf}) + w {draw(st.sampled_from(['+', '-']))} z^{k}"
    return make_regular_map(P, Q), curve, draw(st.sampled_from([4, 6, 8, 12]))


@settings(max_examples=60, deadline=None)
@given(unit_monomial_cases())
@example((make_regular_map("z^2", "w^2"), "(z^2 + z + 1)*(w - z)", 12))
@example((make_regular_map("w^2", "-z^2"), "(w - z)^2 - (z^2 + z + 1)", 12))
@example((make_regular_map("z^2", "w^2"), "(w - z)*(1000000000000*z + 1)", 12))
@example((make_regular_map("z^2", "w^2"), f"{10**400}*(z^2 + z + 1) + w - z", 8))
# rows whose leading coefficient, 1 / 2^s, rounds to 0 past the double range
@example((make_regular_map("z^2", "w^2"), f"w^2 + {2**3000}*w - {2**3000}*z", 4))
def test_roots_of_unity_probe_matches_the_pair_scan(case):
    # same points, same verdicts, same order as testing every pair
    f, curve, max_order = case
    try:
        C = PlaneCurve(curve)
    except ValueError:  # a constant
        assume(False)
    got = [(p.point, p.verdict) for p in find_preperiodic_points(f, C, 0, max_order)]
    assert got == _pair_scan(f, C, max_order)


@pytest.mark.parametrize("P, Q, curve", [("-z^3", "w^3", "w - z"), ("z^2", "-w^2", "-z^3 + w"),
                                         ("z^2", "-w^2", "w^4 - z^2")])
def test_the_probe_matches_the_pair_scan_over_many_conjugates(P, Q, curve):
    # at order 24 most points lie over a z1 = zeta_n^a with a != 1: they come
    # from those over zeta_n by sigma_k, k = a mod n; over each z1, w^4 = z^2
    # has four points, which sigma_k reorders
    f, C = make_regular_map(P, Q), PlaneCurve(curve)
    got = [(p.point, p.verdict) for p in find_preperiodic_points(f, C, 0, 24)]
    assert len(got) > 100
    assert got == _pair_scan(f, C, 24)


def test_dmm_report_diagonal():
    f = make_regular_map("z^2", "w^2")
    rep = dmm_report(f, PlaneCurve("w - z"), height_bound=2, max_order=8)
    assert rep.hypothesis_witnessed
    assert rep.conclusion_witnessed
    assert rep.consistency is True


def test_dmm_report_vertical_line():
    # z = 1 is fixed but only meets infinity at the superattracting [0:1]
    f = make_regular_map("z^2", "w^2")
    rep = dmm_report(f, PlaneCurve("z - 1"), height_bound=2, max_order=4)
    assert not rep.hypothesis_witnessed
    assert rep.conclusion_witnessed


def test_dmm_report_non_preperiodic_line():
    f = make_regular_map("z^2", "w^2")
    rep = dmm_report(f, PlaneCurve("w - z - 1"), max_iters=4,
                     height_bound=2, max_order=4)
    assert rep.hypothesis_witnessed  # [1:1] at infinity is fixed, multiplier 2
    assert not rep.conclusion_witnessed


def test_dmm_report_classifies_a_two_cycle_at_infinity(monkeypatch):
    # w = 1 meets infinity at [1:0], t = 0 in the chart [1:t], which lies on
    # the 2-cycle {0, 1} of g(t) = (1 - t^2)/(1 + 3t); by hand the cycle's
    # multiplier is g'(0) g'(1) = (-3)(-1/2) = 3/2
    lams = []
    original = curves.classify_multiplier
    monkeypatch.setattr(curves, "classify_multiplier",
                        lambda lam: lams.append(lam) or original(lam))
    f = make_regular_map("z^2 + 3*z*w", "z^2 - w^2")
    rep = dmm_report(f, PlaneCurve("w - 1"), max_iters=2, max_degree=4,
                     height_bound=1, max_order=2)
    (r,) = rep.infinity_points
    assert r.point.chart == 0 and r.point.coordinate.as_rational() == 0
    v = r.orbit_verdict
    assert (v.kind, v.preperiod, v.period) == ("Preperiodic", 0, 2)
    assert [lam.as_rational() for lam in lams] == [F(3, 2)]
    assert isinstance(r.terminal_classification, ExpandingPlace)
    assert not r.terminal_classification.place.is_finite
    assert rep.hypothesis_witnessed


def test_curve_orbit_factors_each_curve_once(monkeypatch):
    # a start curve that needs sympy is factored once, when it is made, and
    # one proved irreducible in closed form (a line, a conic of nonzero
    # determinant) not at all; the components of each curve are reused by
    # the next pushforward
    calls = []
    original = sp.factor_list
    monkeypatch.setattr(sp, "factor_list",
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    f = make_regular_map("z^2", "w^2")
    st = curve_preperiodicity(f, PlaneCurve("w - z - 1"), max_iters=4)
    assert [C.degree for C in st.orbit] == [1, 2, 4, 8, 16]
    # under a monomial map every step takes the norm, which factors nothing,
    # also from degree 8, where d * deg passes KERNEL_MAX_DEGREE (resultants
    # there factored two eliminants and the second eliminant)
    assert 2 * 4 <= curves.KERNEL_MAX_DEGREE < 2 * 8
    assert len(calls) == 0
    st = curve_preperiodicity(f, PlaneCurve("z*w - z - 1"), max_iters=3)
    assert [C.degree for C in st.orbit] == [2, 4, 8, 16]
    assert len(calls) == 0
    # a cubic goes to sympy once; its images, cubics again, come from the norm
    st = curve_preperiodicity(f, PlaneCurve("w^2 - z^3 - z"), max_iters=2)
    assert [C.degree for C in st.orbit] == [3, 3, 3]
    assert len(calls) == 1
    calls.clear()
    # off monomial maps the step past KERNEL_MAX_DEGREE still factors the
    # eliminants: two, and the second eliminant
    g = make_regular_map("z^2", "w^2 + 1")
    st = curve_preperiodicity(g, PlaneCurve("w - z - 1"), max_iters=4)
    assert [C.degree for C in st.orbit] == [1, 2, 4, 8, 16]
    assert len(calls) == 3


def test_pushforward_takes_a_shared_image_once():
    # w = z and w = -z both go onto w = z under (z^2, w^2)
    f = make_regular_map("z^2", "w^2")
    img = pushforward(f, PlaneCurve("(w - z)*(w + z)"))
    assert img == PlaneCurve("w - z") and img.components == [{(1, 0): 1, (0, 1): -1}]  # z - w


# -- canonical form ----------------------------------------------------------

small = st.integers(min_value=-4, max_value=4)
ratio = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(lambda q: q != 0)


@st.composite
def distinct_lines(draw):
    """1-3 lines a*z + b*w + c, pairwise not proportional, with rational
    coefficients."""
    lines, n = [], draw(st.integers(min_value=1, max_value=3))
    while len(lines) < n:
        a, b, c = draw(small), draw(small), draw(small)
        q = draw(ratio)
        if (a, b) == (0, 0) or any(a * l[4] == b * l[3] and a * l[5] == c * l[3]
                                   and b * l[5] == c * l[4] for l in lines):
            continue
        lines.append((q * a, q * b, q * c, a, b, c))
    return [MultiPoly({(1, 0): a, (0, 1): b, (0, 0): c}) for a, b, c, *_ in lines]


def normalized_key(R: MultiPoly):
    """Integer coefficients with gcd 1 and a positive coefficient at the
    lex-largest exponent, computed from the Fractions alone."""
    den = math.lcm(*(c.denominator for c in R.coeffs.values()))
    ints = {e: int(c * den) for e, c in R.coeffs.items()}
    g = math.gcd(*ints.values())
    sign = 1 if ints[max(ints)] > 0 else -1
    return tuple(sorted((e, F(sign * c, g)) for e, c in ints.items()))


@settings(max_examples=40, deadline=None)
@given(distinct_lines(), st.data())
def test_canonical_form_ignores_scaling_powers_signs_and_order(lines, data):
    squarefree = lines[0]
    for L in lines[1:]:
        squarefree = squarefree * L
    expected = PlaneCurve(squarefree)
    assert tuple(sorted(expected.poly.coeffs.items())) == normalized_key(squarefree)
    powers = [data.draw(st.integers(min_value=1, max_value=3)) for _ in lines]
    order = data.draw(st.permutations(range(len(lines))))
    R = MultiPoly.constant(data.draw(ratio))
    for k in order:
        R = R * lines[k] ** powers[k]
    C = PlaneCurve(R)
    assert C == expected and hash(C) == hash(expected)
    assert tuple(sorted(C.poly.coeffs.items())) == tuple(sorted(expected.poly.coeffs.items()))
    assert PlaneCurve(-R) == expected
    assert PlaneCurve(C) == expected


def test_canonical_form_of_rational_coefficients():
    a = PlaneCurve("1/2*w - 3/4*z^2 + 1/6")
    b = PlaneCurve("9*z^2 - 6*w - 2")
    assert a == b and hash(a) == hash(b)
    assert a.poly.coeffs == {(2, 0): 9, (0, 1): -6, (0, 0): -2}
    # reordered products with a squared factor and a sign flip
    assert PlaneCurve("(z - w)^2*(2*z + 1)") == PlaneCurve("-(1 + 2*z)*(w - z)")



def _sympy_components(R: MultiPoly) -> list:
    """The components the factoring path gives R: sympy's factors over Q,
    cleared of denominators and content, the lex-leading coefficient made
    positive, as dicts."""
    z, w = sp.symbols("z w")
    out = []
    for b, _m in sp.factor_list(R.to_poly(z, w))[1]:
        b = b.clear_denoms(convert=True)[1].primitive()[1]
        b = -b if b.LC() < 0 else b
        out.append({m: int(c) for m, c in b.terms()})
    return out


@settings(max_examples=40, deadline=None)
@given(small, small, small, ratio)
def test_a_line_is_its_own_component_as_factoring_would_give(a, b, c, q):
    # degree-1 curves skip sympy: scaling by the common denominator and the
    # content, and the sign, must give the one factor factor_list would
    assume((a, b) != (0, 0))
    R = MultiPoly({(1, 0): q * a, (0, 1): q * b, (0, 0): q * c})
    C = PlaneCurve(R)
    ref = _sympy_components(R)
    assert C.components == ref
    z, w = sp.symbols("z w")
    expected = MultiPoly.from_poly(sp.Poly.from_dict(ref[0], z, w))
    assert list(C.poly.coeffs.items()) == list(expected.coeffs.items())


@st.composite
def closed_form_irreducibles(draw):
    """A conic with a nonzero determinant or a binomial a w^m + b z^n with
    gcd(m, n) = 1, rational coefficients."""
    if draw(st.booleans()):
        m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        assume(math.gcd(m, n) == 1)
        return MultiPoly({(0, m): draw(ratio), (n, 0): draw(ratio)})
    R = MultiPoly({e: draw(small) for e in _monomials(2)})
    A, B, C, D, E, G = (R.coeffs.get(e, 0)
                        for e in ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)))
    assume(R.degree == 2 and sp.Matrix([[2 * A, B, D], [B, 2 * C, E], [D, E, 2 * G]]).det() != 0)
    return R * draw(ratio)


@settings(max_examples=80, deadline=None)
@given(closed_form_irreducibles())
def test_closed_form_irreducibles_skip_sympy_and_match_it(R):
    # the one factor factor_list finds, with multiplicity 1, without asking it
    z, w = sp.symbols("z w")
    (_b, m), = sp.factor_list(R.to_poly(z, w))[1]
    assert m == 1 and curves._irreducible(R.num)
    assert PlaneCurve(R).components == _sympy_components(R)


@pytest.mark.parametrize("curve, count", [("z^2 - w^2", 2), ("z^2 - 2*w^2", 1),
                                          ("(w - 2*z + 1)^2", 1), ("w^2 - 4*z^2", 2),
                                          ("w^4 - z^2", 2), ("z^2 - 1", 2)])
def test_curves_without_a_closed_form_go_to_sympy(monkeypatch, curve, count):
    # degenerate conics and binomials with a common exponent factor may
    # split: sympy decides
    R = parse_poly(curve)
    assert not curves._irreducible(R.num)
    calls = []
    original = sp.factor_list
    monkeypatch.setattr(sp, "factor_list",
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    C = PlaneCurve(R)
    assert len(calls) == 1 and len(C.components) == count
    assert C.components == _sympy_components(R)


@st.composite
def lines_and_conics(draw):
    """1-3 primitive integer lines and conics with a positive lex-leading
    coefficient, a vertical line z - c among them when drawn."""
    n = draw(st.integers(min_value=1, max_value=3))
    c = draw(small)
    out = [{(1, 0): 1, (0, 0): -c} if c else {(1, 0): 1}] if draw(st.booleans()) else []
    while len(out) < n:
        top = draw(st.sampled_from([1, 2]))
        G = {e: draw(small) for e in _monomials(top)}
        G = {e: c for e, c in G.items() if c}
        if not any(sum(e) == top for e in G):
            G[(0, top)] = 1
        out.append(curves._canonical(G))
    return out


@settings(max_examples=60, deadline=None)
@given(lines_and_conics())
def test_the_product_of_the_components_prints_as_sympy_multiplies(components):
    # the integer product against sympy's, its terms in the same (lex) order
    z, w = sp.symbols("z w")
    C = PlaneCurve._of_components(components)
    ref = MultiPoly.from_poly(sp.prod(sp.Poly.from_dict(G, z, w) for G in components))
    assert list(C.poly.coeffs.items()) == list(ref.coeffs.items())
    assert C.poly.to_string() == ref.to_string()


@st.composite
def divisions(draw):
    """(R, H): R an irreducible primitive integer polynomial of degree 1-3,
    free of w when drawn, and H a multiple of R or such a multiple plus a
    small polynomial."""
    z, w = sp.symbols("z w")
    free_of_w = draw(st.booleans())
    top = draw(st.integers(1, 3))
    coeffs = {e: draw(small) for e in _monomials(top) if not (free_of_w and e[1])}
    coeffs[(top, 0)] = draw(st.integers(1, 4))
    factors = [b for b, _m in sp.factor_list(sp.Poly.from_dict(coeffs, z, w))[1]
               if b.total_degree() >= 1]
    R = curves._canonical(MultiPoly.from_poly(draw(st.sampled_from(factors))).num)
    S = {e: draw(st.integers(-9, 9)) for e in _monomials(draw(st.integers(0, 3)))}
    H = {e: c for e, c in (MultiPoly(R) * MultiPoly(S)).coeffs.items()}
    if draw(st.booleans()):
        for e in _monomials(draw(st.integers(0, 2))):
            H[e] = H.get(e, 0) + draw(small)
    return R, {e: int(c) for e, c in H.items() if c}


@settings(max_examples=150, deadline=None)
@given(divisions())
@example(({(1, 0): 1, (0, 0): -2}, {(2, 1): 1, (1, 1): -4, (0, 1): 4}))  # z - 2 | (z-2)^2 w
@example(({(1, 1): 1, (0, 0): -1}, {(1, 0): 1}))  # z w - 1 does not divide z
def test_pseudo_division_agrees_with_sympy_rem(case):
    R, H = case
    z, w = sp.symbols("z w")
    Rp = sp.Poly.from_dict(dict(R), z, w, domain=sp.ZZ)
    expected = not H or sp.Poly.from_dict(dict(H), z, w, domain=sp.ZZ).rem(Rp).is_zero
    assert curves._divides(R, H) == expected


_L = {(1, 1): 2, (0, 1): 1, (2, 0): -1, (0, 0): -1}  # (2z + 1) w - z^2 - 1


@pytest.mark.parametrize("R, S, extra, divides", [
    # l(z) = 2z + 1: each step multiplies the rest of H by l
    (_L, {(0, 1): 1}, {}, True),
    (_L, {(0, 2): 1, (1, 0): 3}, {}, True),
    (_L, {(0, 1): 1}, {(1, 0): 1}, False),
    # R = z^2 + 1, free of w: the division runs in z
    ({(2, 0): 1, (0, 0): 1}, {(0, 3): 1, (1, 1): 1}, {}, True),
    ({(2, 0): 1, (0, 0): 1}, {(0, 1): 1}, {(1, 0): 1}, False),
    # l = 1
    ({(0, 1): 1, (2, 0): -1}, {(0, 2): 1, (0, 0): 3}, {}, True),
    ({(0, 1): 1, (2, 0): -1}, {(0, 2): 1, (0, 0): 3}, {(0, 1): 1}, False),
])
def test_pseudo_division_by_each_kind_of_leading_coefficient(R, S, extra, divides):
    H = curves._combine(curves._times(R, S), 1, extra, -1)  # R S + extra
    assert curves._divides(R, H) is divides


# -- pushforward against an independent oracle ---------------------------------

def _generic_map(draw):
    """The regbench family: P = a z^2 + b z w + c w + e, Q = f w^2 + g z + h;
    its top forms a z^2 + b z w and f w^2 have no common zero, so it is regular."""
    P = (f"{draw(st.sampled_from([1, 2, -1]))}*z^2 + {draw(st.sampled_from([-1, 0, 1]))}*z*w"
         f" + {draw(st.sampled_from([-1, 1, 2]))}*w + {draw(st.sampled_from([-1, 0, 1]))}")
    Q = (f"{draw(st.sampled_from([1, -1, 2]))}*w^2 + {draw(st.sampled_from([-1, 1]))}*z"
         f" + {draw(st.sampled_from([-1, 0, 2]))}")
    return make_regular_map(P.replace("+ -", "- "), Q.replace("+ -", "- "))


@st.composite
def map_and_curve(draw):
    """A generic map, an irreducible line or conic, and a parametrization
    t -> (z(t), w(t)) of its rational points."""
    f = _generic_map(draw)
    q = st.fractions(-3, 3, max_denominator=4)
    m, k = draw(q), draw(q)
    a = draw(st.integers(-2, 2).filter(bool))
    kind = draw(st.sampled_from(["line", "vertical", "parabola", "sideways", "hyperbola",
                                 "circle"]))
    if kind == "line":  # w = m z + k
        R = MultiPoly({(0, 1): 1, (1, 0): -m, (0, 0): -k})
        param = lambda t: (t, m * t + k)
    elif kind == "vertical":  # z = k
        R = MultiPoly({(1, 0): 1, (0, 0): -k})
        param = lambda t: (k, t)
    elif kind == "parabola":  # w = a z^2 + m z + k
        R = MultiPoly({(0, 1): 1, (2, 0): -a, (1, 0): -m, (0, 0): -k})
        param = lambda t: (t, a * t * t + m * t + k)
    elif kind == "sideways":  # z = a w^2 + m w + k, quadratic in the eliminated w
        R = MultiPoly({(1, 0): 1, (0, 2): -a, (0, 1): -m, (0, 0): -k})
        param = lambda t: (a * t * t + m * t + k, t)
    elif kind == "hyperbola":  # z w = a
        R = MultiPoly({(1, 1): 1, (0, 0): -a})
        param = lambda t: (t, F(a) / t)
    else:  # z^2 + w^2 = 1, through (-1, 0) with slope t
        R = MultiPoly({(2, 0): 1, (0, 2): 1, (0, 0): -1})
        param = lambda t: ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
    return f, PlaneCurve(R), param


def _monomials(n):
    return [(i, e - i) for e in range(n + 1) for i in range(e + 1)]


def _rank(rows):
    """Rank of a matrix of Fractions, by Gaussian elimination."""
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                q = rows[r][col] / rows[rank][col]
                rows[r] = [x - q * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=25, deadline=None)
@given(map_and_curve())
def test_pushforward_against_image_points(case):
    f, C, param = case
    G = pushforward(f, C).poly
    ts = [F(n, den) for den in (1, 2, 3) for n in range(-7, 8)
          if n and F(n, den).denominator == den]
    image = {f.apply(param(t)) for t in ts}
    # the image curve passes through the image of every point of C
    assert all(G.eval(z, w) == 0 for z, w in image)
    # projection formula: deg f(C) divides d * deg C
    assert (f.d * C.degree) % G.degree == 0
    # C is irreducible, so f(C) is: no curve of lower degree contains the
    # image points (an irreducible curve of degree e meets a curve of
    # degree n < e, not containing it, in at most n * e <= 12 points)
    assert len(image) > 12
    for n in range(G.degree):
        mons = _monomials(n)
        assert _rank([[z**i * w**j for i, j in mons] for z, w in image]) == len(mons)


@settings(max_examples=20, deadline=None)
@given(st.data(), distinct_lines())
def test_pushforward_builds_the_curve_factoring_would(data, lines):
    spec = data.draw(st.sampled_from([None, "z^2, w^2", "z^2, w^2 + z"]))
    f = _generic_map(data.draw) if spec is None else make_regular_map(*spec.split(","))
    R = lines[0]
    for L in lines[1:]:
        R = R * L
    if spec and data.draw(st.booleans()):
        # both maps are even in w: a line and its mirror w -> -w share an image
        R = R * MultiPoly({e: -c if e == (0, 1) else c for e, c in lines[0].coeffs.items()})
    C = PlaneCurve(R)
    img = pushforward(f, C)
    # the factoring path: the product of every component's image, factored
    z, w = sp.symbols("z w")
    kept = [sp.Poly.from_dict(G, z, w, domain=sp.ZZ) for Ri in C.components
            for G in curves._component_image(Ri, f, f.d * max(map(sum, Ri)))]
    ref = PlaneCurve(MultiPoly.from_poly(sp.prod(kept)))
    assert img.poly == ref.poly and img.poly.coeffs == ref.poly.coeffs
    assert ({frozenset(G.items()) for G in img.components}
            == {frozenset(G.items()) for G in ref.components})


def test_degree_eight_image_of_a_line():
    # three steps of w = 2z - 1 under a generic map: the last image has
    # degree 8 = d * deg, and comes from the kernel
    f = make_regular_map("z^2 + w", "w^2 - z")
    C = PlaneCurve("w - 2*z + 1")
    for _ in range(3):
        C = pushforward(f, C)
    G = C.poly
    assert G.degree == 8
    image = [f.apply(f.apply(f.apply((F(t), F(2 * t - 1))))) for t in range(-32, 33)]
    assert len(set(image)) == 65
    assert all(G.eval(z, w) == 0 for z, w in image)
    # the image curve f^3(L) is irreducible of degree at most 8 and passes
    # through the points.  No curve of degree 7 passes through the 36 of
    # smallest height (a curve of degree n < 7 through them, times
    # z^(7 - n), would be one), so f^3(L) has degree 8; G meets it in
    # 65 > 8 * 8 points, so by Bezout G contains it, and with the same
    # degree G is f^3(L)
    mons = _monomials(7)
    small = image[32 - 18:32 + 18]
    assert _rank([[z**i * w**j for i, j in mons] for z, w in small]) == len(mons)


@st.composite
def small_degree_case(draw):
    """A map from the `_generic_map` family or (+-z^d, +-w^d) for d = 2, 3,
    and a curve with small integer coefficients: a line or a conic, and under
    the monomial maps also a cubic, or for d = 2 a quartic, so that d * deg
    takes every value up to KERNEL_MAX_DEGREE = 9 that a product can."""
    monomial = draw(st.booleans())
    if monomial:
        d = draw(st.sampled_from([2, 3]))
        s1, s2 = draw(st.sampled_from(["", "-"])), draw(st.sampled_from(["", "-"]))
        f = make_regular_map(f"{s1}z^{d}", f"{s2}w^{d}")
    else:
        f = _generic_map(draw)
    # the resultant reference takes 0.5 s on a generic cubic and seconds on a
    # generic quartic; the generic degree-8 image has its own test
    top = draw(st.sampled_from([1, 2] if not monomial else [1, 2, 3, 4] if f.d == 2
                               else [1, 2, 3]))
    exps = _monomials(top)
    coeffs = {e: draw(st.integers(-3, 3)) for e in exps}
    if not any(coeffs[e] for e in exps if sum(e) == top):
        coeffs[(top, 0)] = 1
    return f, PlaneCurve(MultiPoly(coeffs))


def _kernel_matches_resultants(f, C):
    for Ri in C.components:
        cap = f.d * max(map(sum, Ri))
        assert cap <= curves.KERNEL_MAX_DEGREE
        assert curves._component_image(Ri, f, cap) == curves._resultant_image(Ri, f)


@settings(max_examples=60, deadline=None)
@given(small_degree_case())
def test_kernel_image_matches_the_resultant_image(case):
    _kernel_matches_resultants(*case)


_HALVES = st.sampled_from([F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2)])


@st.composite
def monomial_norm_case(draw):
    """A monomial map (c1 z^d, c2 w^d) or, swapped, (c1 w^d, c2 z^d) with
    d = 2, 3 and c1, c2 in {+-1, +-2, +-1/2}, and a curve: a line, a conic, a
    binomial, for d = 2 a quartic, a curve with a nontrivial stabilizer or
    an axis."""
    d = draw(st.sampled_from([2, 3]))
    x, y = ("w", "z") if draw(st.booleans()) else ("z", "w")
    c1, c2 = draw(_HALVES), draw(_HALVES)
    f = make_regular_map(MultiPoly({(d, 0) if x == "z" else (0, d): c1}),
                         MultiPoly({(0, d) if y == "w" else (d, 0): c2}))
    kind = draw(st.sampled_from(["line", "conic", "binomial", "stabilized", "axis"]
                                + ["quartic"] * (d == 2)))
    coef = st.one_of(st.just(F(0)), _HALVES)
    if kind == "binomial":
        m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        return f, PlaneCurve(MultiPoly({(0, m): F(1), (n, 0): draw(_HALVES)}))
    if kind in ("stabilized", "axis"):
        curves_ = (["w - z", "z^2 + w^2 - 2", "z^3 + w^3 - 2", "w + 2*z", "z*w - 1",
                    "w^2 - z^3", "z^2 - z*w + w^2 + z + w + 1"] if kind == "stabilized"
                   else ["z", "w"])
        return f, PlaneCurve(draw(st.sampled_from(curves_)))
    top = {"line": 1, "conic": 2, "quartic": 4}[kind]
    coeffs = {e: draw(coef) for e in _monomials(top)}
    if not any(coeffs[e] for e in _monomials(top) if sum(e) == top):
        coeffs[(0, top)] = F(1)
    return f, PlaneCurve(MultiPoly(coeffs))


@settings(max_examples=80, deadline=None)
@given(monomial_norm_case())
# z^2 - zw + w^2 + z + w + 1 is two lines over Q(zeta_3), which translates
# under (z^3, w^3) share: its norm is c G~^2 though its stabilizer is trivial
@example((make_regular_map("z^3", "w^3"), PlaneCurve("z^2 - z*w + w^2 + z + w + 1")))
@example((make_regular_map("-1/2*w^2", "2*z^2"), PlaneCurve("z^2 + w^2 - 2")))
@example((make_regular_map("w^3", "z^3"), PlaneCurve("z")))
def test_norm_image_matches_the_kernel_image(case):
    f, C = case
    PQ = (f.P.num, f.P.den), (f.Q.num, f.Q.den)
    for Ri in C.components:
        G = curves._norm_image(Ri, f.d, *f._monomial)
        assert G == curves._kernel_image(Ri, PQ, f.d * max(map(sum, Ri)))


def test_monomial_maps_take_neither_the_kernel_nor_resultants(monkeypatch):
    for name in ("_kernel_image", "_resultant_image"):
        monkeypatch.setattr(curves, name, lambda *a: pytest.fail(f"{name} ran"))
    f = make_regular_map("z^2", "w^2")
    st = curve_preperiodicity(f, PlaneCurve("w - z - 1"), max_iters=4)
    assert [C.degree for C in st.orbit] == [1, 2, 4, 8, 16]
    g = make_regular_map("1/2*w^3", "-z^3")
    for curve, degrees in [("w^2 - 2*z", [2, 2, 2]), ("w - z", [1, 1, 1]),
                           ("z^2 + w^2 - 2", [2, 6, 18])]:
        st = curve_preperiodicity(g, PlaneCurve(curve), max_iters=2)
        assert [C.degree for C in st.orbit] == degrees, curve


def test_the_root_of_a_norm_raises_back_to_it():
    # the square and the cube of a conic, and a line, which is no square
    G = {(2, 0): 1, (1, 1): -3, (0, 2): 2, (0, 1): 1, (0, 0): -5}
    for m in (2, 3):
        H = G
        for _ in range(m - 1):
            H = curves._times(H, G)
        H = {e: c for e, c in H.items() if c}
        assert curves._root(H, m) in (G, {e: -c for e, c in G.items()})  # -G for m = 2
        assert curves._root(H, 2 * m) is None
    assert curves._root({(1, 0): 1, (0, 1): 1, (0, 0): 1}, 2) is None


@pytest.mark.parametrize("spec, curve, degree", [
    # images of full degree 8 and 9 that the regbench curves workload
    # reaches under monomial maps
    ("-z^2, w^2", "w^4 + 4*w^3*z - 4*w^3 + 6*w^2*z^2 + 124*w^2*z + 6*w^2 + 4*w*z^3"
     " - 124*w*z^2 + 124*w*z - 4*w + z^4 + 4*z^3 + 6*z^2 + 4*z + 1", 8),
    ("z^3, w^3", "-w^3 + 3*w^2*z - 3*w^2 - 3*w*z^2 - 21*w*z - 3*w + z^3 - 3*z^2 + 3*z - 1",
     9),
])
def test_kernel_image_matches_the_resultant_image_at_degrees_eight_and_nine(spec, curve,
                                                                            degree):
    f, C = make_regular_map(*spec.split(",")), PlaneCurve(curve)
    assert pushforward(f, C).degree == degree == f.d * C.degree
    _kernel_matches_resultants(f, C)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_component_test_agrees_with_substitution_in_sympy(data):
    # P, Q with denominators and G(Z, W) of degree <= 2; each component of
    # G(P, Q) passes, and a random line passes iff sympy's remainder is 0
    z, w, Z, W = sp.symbols("z w Z W")
    coef = st.fractions(-3, 3, max_denominator=4)

    def poly(x, y, top):
        terms = {(i, j): data.draw(coef) for i, j in _monomials(top)}
        return sum(sp.Rational(c.numerator, c.denominator) * x**i * y**j
                   for (i, j), c in terms.items())

    P, Q = (sp.Poly(poly(z, w, 2), z, w) for _ in range(2))
    G = sp.Poly(poly(Z, W, 2), Z, W)
    assume(G.total_degree() >= 1 and not P.is_ground and not Q.is_ground)
    H = sp.Poly(G.as_expr().subs({Z: P.as_expr(), W: Q.as_expr()}, simultaneous=True), z, w)
    assume(not H.is_zero)
    line = sp.Poly(poly(z, w, 1), z, w)
    assume(line.total_degree() == 1)
    # the integer path's inputs: primitive integer dicts, P and Q cleared
    G, line = (curves._canonical(MultiPoly.from_poly(X).num) for X in (G, line))
    PQ = [(M.num, M.den) for M in (MultiPoly.from_poly(X) for X in (P, Q))]
    assert all(curves._vanishes_on(G, curves._canonical(MultiPoly.from_poly(b).num), PQ)
               for b, _m in sp.factor_list(H)[1])
    assert curves._vanishes_on(G, line, PQ) == H.rem(sp.Poly.from_dict(line, z, w)).is_zero

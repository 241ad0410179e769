from fractions import Fraction as F

import pytest
import sympy as sp

from regdyn import curves
from regdyn.curves import (CurveOrbitStatus, EliminationError, PlaneCurve,
                           curve_preperiodicity, dmm_report, find_preperiodic_points,
                           points_at_infinity, pushforward)
from regdyn.maps import make_regular_map


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
    div = points_at_infinity(PlaneCurve("w - z"))
    assert sum(p.multiplicity for p in div.points) == 1
    pt = div.points[0]
    assert pt.chart == 0 and pt.coordinate.as_rational() == 1

    # w = z^2 has degree 2: the unique branch at infinity is [0:1]
    div = points_at_infinity(PlaneCurve("w - z^2"))
    assert sum(p.multiplicity for p in div.points) == 2
    charts = {p.chart for p in div.points}
    assert charts == {1}

    # vertical line z = 1 hits [0:1]
    div = points_at_infinity(PlaneCurve("z - 1"))
    assert len(div.points) == 1 and div.points[0].chart == 1


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
    Z, W = sp.symbols("Z W")
    monkeypatch.setattr(curves, "_component_image", lambda Ri, Pe, Qe: [W - Z**2])
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


def test_find_preperiodic_points_off_diagonal_line():
    # w = z + 1 picks up (0, 1) (0 and 1 both fixed by squaring)
    f = make_regular_map("z^2", "w^2")
    pts = find_preperiodic_points(f, PlaneCurve("w - z - 1"), height_bound=2,
                                  max_order=2)
    coords = {p.point for p in pts}
    assert (F(0), F(1)) in coords
    assert (F(-1), F(0)) in coords


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

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from datetime import timedelta
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import regdyn
from regdyn import cli, exactnum
from regdyn.cli import run
from regdyn.curves import PlaneCurve
from regdyn.exactnum import Place
from regdyn.green import GreenContext, green_value
from regdyn.intervals import RealInterval, log_of_fraction
from regdyn.maps import make_regular_map
from regdyn.series import TruncSeries2


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out)
    return code, doc


def test_classify(capsys):
    code, doc = _run(capsys, "classify", "--map", "z^2, w^2")
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["command"] == "classify"
    kinds = {p["classification"]["type"]
             for p in doc["result"]["fixed_points_at_infinity"]}
    assert "Superattracting" in kinds and "ExpandingPlace" in kinds


def test_classify_past_the_double_range_prints_strict_json(capsys):
    # the fixed points at infinity are +-2^1350.5: approx is null, as for a
    # Fraction past the double range, and no Infinity token is printed
    assert run(["classify", "--map", "z^2 + w^2, 2^2700*z*w"]) == 0

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
    coords = [p["point"]["coordinate"] for p in doc["result"]["fixed_points_at_infinity"]]
    assert sum(c.get("minpoly") is not None and c["approx"] is None for c in coords) == 2


def test_classify_quadratic_points_and_multipliers_at_infinity(capsys):
    # pinned from the sympy (CRootOf) embedding match: the points at infinity
    # solve t^2 - t + 2 = 0 and their multipliers 2x^2 - 11x + 16 = 0
    code, doc = _run(capsys, "classify", "--map",
                     "2*z^3 - z^2*w - 2*z^2 + 2*z*w - w^2 + 1/3*z + 1, -w^3 - 2")
    assert code == 0
    del doc["timing"]
    zero = {"exact": "0/1", "approx": 0.0}

    def rational(chart):
        return {"point": {"chart": chart, "coordinate": zero, "multiplicity": 1},
                "multiplier": zero, "classification": {"type": "Superattracting"}}

    def quadratic(i, sign):
        place = {"type": "ExpandingPlace", "place": "inf",
                 "witness": {"type": "ExpandingPlaceWitness", "place": "inf",
                             "embedding_index": 0, "note": "|conjugate 0| > 1"}}
        return {"point": {"chart": 0, "multiplicity": 1, "coordinate": {
                    "minpoly": "x**2 - x + 2", "root_index": i,
                    "approx": [0.5, sign * 1.3228756555322954]}},
                "multiplier": {"minpoly": "2*x**2 - 11*x + 16", "root_index": i,
                               "approx": [2.75, sign * 0.6614378277661477]},
                "classification": place}

    assert doc == {
        "schema_version": 1, "command": "classify",
        "input": {"map": "2*z^3 - z^2*w - 2*z^2 + 2*z*w - w^2 + 1/3*z + 1, -w^3 - 2"},
        "result": {"degree": 3, "bad_places": [2, 3], "fixed_points_at_infinity": [
            rational(0), quadratic(0, -1), quadratic(1, 1), rational(1)]},
        "witnesses": {"multiplicity_sum": 4}, "caps": {}}


def test_classify_rejects_non_regular(capsys):
    code = run(["classify", "--map", "z*w, z^2 + w"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert "error" in doc


def test_green_archimedean(capsys):
    code, doc = _run(capsys, "green", "--map", "z^2, w^2",
                     "--point", "2,3", "--place", "inf")
    assert code == 0
    g = doc["result"]["green"]
    assert abs(g["lo"] - math.log(3)) < 1e-6
    assert abs(g["hi"] - math.log(3)) < 1e-6


def test_green_finite_place(capsys):
    code, doc = _run(capsys, "green", "--map", "z^2, w^2",
                     "--point", "1/2,1", "--place", "2")
    assert code == 0
    g = doc["result"]["green"]
    assert abs(g["lo"] - math.log(2)) < 1e-9


# P(-1, 1/3) = 0 exactly: the 2-adic orbit then holds an inexact zero, which
# must not cap the precision of later iterates
CANCELLING_MAP = "2*z^2 + 1/2*z - 3/2, z*w + w^2 - 1"


def test_green_bad_prime_after_exact_cancellation(capsys):
    code, doc = _run(capsys, "green", "--map", CANCELLING_MAP, "--point=-1,1/3",
                     "--place", "2", "--tol", "1e-30")
    assert code == 0
    g = doc["result"]["green"]
    assert F(g["hi_exact"]) - F(g["lo_exact"]) <= F(1, 10**30)


def test_height_bad_prime_after_exact_cancellation(capsys):
    code, doc = _run(capsys, "height", "--map", CANCELLING_MAP, "--point=-1/6,0",
                     "--tol", "1e-30")
    assert code == 0
    assert doc["result"]["preperiodicity"]["kind"] == "NotPreperiodic"


def test_green_line_infinity_needs_only_the_minimal_valuation(capsys):
    # P_d(2, 4) = 0 exactly and Q_d(2, 4) = -2^6; then (0, b) -> (0, -b^3), so
    # G_2(0, 2, 4) = -6 log 2 / 3 = -2 log 2
    code, doc = _run(capsys, "green", "--map",
                     "2*z^3 - z^2*w - 2*z^2 + 2*z*w - w^2 + 1/3*z + 1, -w^3 - 2",
                     "--homog=0,2,4", "--place", "2", "--tol", "1e-15")
    assert code == 0
    g = doc["result"]["green"]
    assert g["lo"] <= -2 * math.log(2) <= g["hi"]
    assert F(g["hi_exact"]) - F(g["lo_exact"]) <= F(1, 10**15)


def test_green_line_infinity_escalates_past_a_zero_enclosure(capsys):
    # at 120 bits the 64 iterates of [-5 : 1] lose every significant bit and
    # the enclosure of max(|a_n|, |b_n|) reaches 0; 240 bits suffice
    code, doc = _run(capsys, "green", "--map",
                     "3*z^3 - 1/2*z^2*w - 2*z*w^2 + 2*w^3 + 3*z^2 - 3/2*z*w + 2/3*w^2"
                     " + z + w + 1, -2*z^3 + 1/2*z^2*w - 2/3*z*w^2 - 2*w^3 - z^2"
                     " + 2*w^2 - 2*z - w", "--homog=0,-5,1", "--place", "inf",
                     "--tol", "1e-30")
    assert code == 0
    g = doc["result"]["green"]
    assert F(g["hi_exact"]) - F(g["lo_exact"]) <= F(1, 10**30)


def test_height_preperiodic(capsys):
    code, doc = _run(capsys, "height", "--map", "z^2, w^2", "--point", "1,1")
    assert code == 0
    assert doc["result"]["preperiodicity"]["kind"] == "Preperiodic"


def test_a_closed_orbit_has_green_value_and_height_exactly_zero(capsys):
    # (0, 0) is fixed by (z^2 + w, w^2 - z): no place is visited, and the
    # enclosures are [0, 0], not [0, 1e-30]
    zero = {"lo": 0.0, "hi": 0.0, "lo_exact": "0/1", "hi_exact": "0/1"}
    m = "z^2+w, w^2-z"
    code, doc = _run(capsys, "green", "--map", m, "--point=0,0", "--tol", "1e-30")
    assert code == 0 and doc["result"]["green"] == zero
    code, doc = _run(capsys, "height", "--map", m, "--point=0,0", "--tol", "1e-30")
    assert code == 0 and doc["result"]["canonical_height"] == zero
    assert doc["result"]["support"] == []
    assert doc["result"]["preperiodicity"]["kind"] == "Preperiodic"


def test_height_wandering(capsys):
    code, doc = _run(capsys, "height", "--map", "z^2, w^2", "--point", "2,3")
    assert code == 0
    assert doc["result"]["preperiodicity"]["kind"] == "NotPreperiodic"
    assert doc["result"]["canonical_height"]["lo"] > 1.0


def test_orbit(capsys):
    code, doc = _run(capsys, "orbit", "--map", "z^2, w^2",
                     "--point", "2,1", "-n", "3")
    assert code == 0
    last = doc["result"]["orbit"][-1]
    assert last[0]["exact"] == "256/1"


def test_orbit_past_the_float_range(capsys):
    # the coordinates of the last points exceed 1e308: exact stays exact,
    # approx becomes null
    code, doc = _run(capsys, "orbit", "--map", "z^2+w, w^2-z", "--point", "2,3",
                     "-n", "12")
    assert code == 0
    assert doc["result"]["length"] == 13
    last = doc["result"]["orbit"][-1]
    assert last[0]["approx"] is None
    assert F(last[0]["exact"]) > 10**308


def test_orbit_stops_at_the_bit_cap(capsys):
    # 2^(2^n) has 2^n bits: without a cap the 40th iterate never ends, and
    # rows past 4,300 decimal digits cannot be rendered as strings
    code, doc = _run(capsys, "orbit", "--map", "z^2,w^2", "--point", "2,3", "-n", "40")
    assert code == 0
    caps = doc["caps"]
    assert caps["bit_capped"] is True and caps["n"] == 40
    rows = [tuple(F(c["exact"]) for c in row) for row in doc["result"]["orbit"]]
    assert len(rows) == doc["result"]["length"] <= 40
    assert rows[0] == (2, 3)
    for (z, w), (z1, w1) in zip(rows, rows[1:]):
        assert (z1, w1) == (z * z, w * w)
    assert all(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               <= caps["max_bits"] for row in rows for c in row)
    # the next iterate would pass the cap
    z, w = rows[-1]
    assert (w * w).numerator.bit_length() > caps["max_bits"]


def test_stable_manifold_classifies_no_irrational_point(capsys, monkeypatch):
    # [1 : 0] has multiplier 2; the other fixed points at infinity solve
    # t^2 - t - 1 = 0, so they are irrational and never needed
    import regdyn.infinity as infinity
    calls = []
    original = infinity._algebraic_from_nf
    monkeypatch.setattr(infinity, "_algebraic_from_nf",
                        lambda *a: calls.append(a) or original(*a))
    code, doc = _run(capsys, "stable-manifold", "--map",
                     "z^2 + w^2 + w + 1, 2*z*w + w^2 + z", "--point", "0", "--order", "6")
    assert code == 0
    (entry,) = doc["result"]["manifolds"]
    assert entry["lambda"]["exact"] == "2/1"
    assert entry["normal_form"]["kind"] == "saddle"
    assert calls == []


def test_stable_manifold_saddle(capsys):
    code, doc = _run(capsys, "stable-manifold", "--map", "z^2, w^2",
                     "--point", "1", "--order", "12")
    assert code == 0
    nf = doc["result"]["manifolds"][0]["normal_form"]
    assert nf["kind"] == "saddle" and nf["verified"] is True


@pytest.mark.parametrize("wrong", ["bottcher", "koenigs"])
def test_stable_manifold_reports_a_failed_identity_as_unavailable(capsys, monkeypatch, wrong):
    # a solver that returns a wrong series trips the check of its identity
    # (Böttcher) or of the axis it straightens (Koenigs, in the saddle form)
    from regdyn import localdyn
    from regdyn.series import TruncSeries
    if wrong == "bottcher":
        solve = localdyn._triangular
        monkeypatch.setattr(localdyn, "_triangular", lambda *args: solve(*args)
                            + TruncSeries.monomial(1, 2, args[3]))
    else:
        koenigs = localdyn.koenigs_series
        monkeypatch.setattr(localdyn, "koenigs_series", lambda s: koenigs(s)
                            + TruncSeries.monomial(1, 2, s.order))
    code, doc = _run(capsys, "stable-manifold", "--map", "2*z^2+w, w^2",
                     "--point", "2", "--order", "8")
    assert code == 0
    nf = doc["result"]["manifolds"][0]["normal_form"]
    assert nf["kind"] == "unavailable"
    assert ("Böttcher" if wrong == "bottcher" else "{y = 0}") in nf["reason"]


def test_stable_manifold_parabolic_with_mu(capsys):
    # mu != 0 at [1 : 0]: one shear to the super-stable graph starts the chain
    code, doc = _run(capsys, "stable-manifold", "--map", "z^2 + w^2 - w + 1, z*w - w^2 - z",
                     "--point", "0", "--order", "12")
    assert code == 0
    nf = doc["result"]["manifolds"][0]["normal_form"]
    assert nf == {"kind": "parabolic", "k": 1, "steps": 5, "verified": True}


def test_stable_manifold_parabolic_with_an_axis_step(capsys):
    # k = 2 at [1 : 0], with one closed-form axis step in the chain
    code, doc = _run(capsys, "stable-manifold", "--map", "z^4 + w, z^3*w + z*w^3 + w^4 + z",
                     "--point", "0", "--order", "12")
    assert code == 0
    nf = doc["result"]["manifolds"][0]["normal_form"]
    assert nf == {"kind": "parabolic", "k": 2, "steps": 7, "verified": True}


@pytest.mark.parametrize("argv", [
    ["--map", "2*z^2+w, w^2", "--order", "0"],
    ["--map", "2*z^2+w, w^2", "--order", "1"],
    ["--map", "2*z^2+w, w^2", "--order", "-3"],
    ["--map", "2*z^2+w, w^2", "--point", "abc"],
    ["--map", "2*z^2+w, w^2", "--point", "1/0"],
    # the y^2 coefficient of the germ at [1 : 1] is 2, which has no rational square root
    ["--map", "2*z^3+w, z*w^2+w^3+1"],
], ids=["order-0", "order-1", "negative-order", "point-abc", "point-1/0", "irrational-scale"])
def test_stable_manifold_bad_input_exits_2_with_one_json_error(capsys, argv):
    code, doc = _run(capsys, "stable-manifold", *argv)
    assert code == 2
    assert "error" in doc and "result" not in doc


def test_stable_manifold_refuses_an_order_above_the_cap_at_once(capsys, monkeypatch):
    # the cost grows about as the order to the 5th power: nothing is computed
    import regdyn.cli as cli
    monkeypatch.setattr(cli, "fixed_points_infinity", lambda f: pytest.fail("computed"))
    code, doc = _run(capsys, "stable-manifold", "--map", "2*z^2+w, w^2", "--order", "65")
    assert code == 2 and "result" not in doc
    assert "STABLE_MANIFOLD_MAX_ORDER = 64" in doc["error"]
    assert cli.STABLE_MANIFOLD_MAX_ORDER == 64


def test_stable_manifold_at_the_map_degree(capsys):
    code, doc = _run(capsys, "stable-manifold", "--map", "2*z^2+w, w^2", "--order", "2")
    assert code == 0 and doc["caps"] == {"order": 2}


def test_curve_fixed(capsys):
    code, doc = _run(capsys, "curve", "--map", "z^2, w^2", "--curve", "w - z")
    assert code == 0
    assert doc["result"]["orbit_status"]["kind"] == "Fixed"


def test_curve_undetected_exit_code(capsys):
    code, doc = _run(capsys, "curve", "--map", "z^2, w^2",
                     "--curve", "w - z - 1", "--max-iters", "3")
    assert code == 3
    assert doc["result"]["orbit_status"]["kind"] == "NotDetectedPreperiodic"


def test_curve_with_no_iterations_reports_the_iteration_cap_above_the_degree_cap(capsys):
    # the start curve is never held to --max-degree: with no steps the orbit
    # stopped at --max-iters, though the curve alone is above --max-degree
    code, doc = _run(capsys, "curve", "--map", "z^2, w^2", "--curve", "w - z^2 - 1",
                     "--max-iters", "0", "--max-degree", "1")
    assert code == 3
    status = doc["result"]["orbit_status"]
    assert status["kind"] == "NotDetectedPreperiodic"
    assert status["caps"] == {"max_iters": 0}


def test_dmm(capsys):
    code, doc = _run(capsys, "dmm", "--map", "z^2, w^2", "--curve", "w - z",
                     "--height-bound", "2", "--max-order", "8")
    assert code == 0
    r = doc["result"]
    assert r["hypothesis_witnessed"] and r["conclusion_witnessed"]
    assert r["consistency"] is True


def test_dmm_prints_roots_of_unity_as_sympy_exponentials(capsys):
    code, doc = _run(capsys, "dmm", "--map", "z^2, w^2", "--curve", "w - z",
                     "--height-bound", "1", "--max-order", "3")
    assert code == 0
    (fp,) = [p for p in doc["result"]["preperiodic_points_found"]
             if p["point"] == ["exp(2*I*pi/3)", "exp(2*I*pi/3)"]]
    v = fp["verdict"]
    assert (v["preperiod"], v["period"]) == (0, 2)
    assert v["orbit"] == [["exp(2*I*pi/3)", "exp(2*I*pi/3)"],
                          ["exp(-2*I*pi/3)", "exp(-2*I*pi/3)"]]


def test_dmm_refuses_a_max_order_above_the_cap_at_once(capsys, monkeypatch):
    # the roots-of-unity prefilter grows about as the order to the 4th power
    import regdyn.cli as cli
    monkeypatch.setattr("regdyn.curves.dmm_report", lambda *a: pytest.fail("computed"))
    code, doc = _run(capsys, "dmm", "--map", "z^2, w^2", "--curve", "w - z",
                     "--max-order", "65")
    assert code == 2 and "result" not in doc
    assert "DMM_MAX_ORDER = 64" in doc["error"]
    assert cli.DMM_MAX_ORDER == 64


def test_dmm_refuses_a_height_bound_above_the_cap_at_once(capsys, monkeypatch):
    # the rational probes take time about the square of the height bound
    import regdyn.cli as cli
    monkeypatch.setattr("regdyn.curves.dmm_report", lambda *a: pytest.fail("computed"))
    code, doc = _run(capsys, "dmm", "--map", "z^2, w^2", "--curve", "w - z",
                     "--height-bound", "65")
    assert code == 2 and "result" not in doc
    assert "DMM_MAX_HEIGHT_BOUND = 64" in doc["error"]
    assert cli.DMM_MAX_HEIGHT_BOUND == 64


def test_orbit_refuses_an_n_above_the_cap_at_once(capsys, monkeypatch):
    # time and output grow linearly in n, also on a bounded orbit
    import regdyn.cli as cli
    monkeypatch.setattr(cli, "make_regular_map", lambda *a: pytest.fail("computed"))
    code, doc = _run(capsys, "orbit", "--map", "z^2, w^2", "--point", "1,1", "-n", "10001")
    assert code == 2 and "result" not in doc
    assert "ORBIT_MAX_N = 10000" in doc["error"]
    assert cli.ORBIT_MAX_N == 10_000


def test_bad_point_input(capsys):
    code = run(["height", "--map", "z^2, w^2", "--point", "bogus"])
    assert code == 2


def test_json_is_single_document(capsys):
    run(["classify", "--map", "z^2, w^2"])
    out = capsys.readouterr().out
    json.loads(out)  # would raise on trailing junk


def test_json_keeps_plain_scalars_and_renders_the_rest():
    # bool, None, int, float and str are printed as json.dumps prints them
    # (True stays true, not 1 or "True"); tuples become lists and a Zeta its text
    from regdyn.cli import _encode
    from regdyn.curves import Zeta
    for value, plain in [(True, True), (False, False), (None, None), (0, 0), (2**70, 2**70),
                         (2.5, 2.5), ("s", "s"),
                         ((True, [None, (Zeta(F(1, 4)), F(1, 2))]),
                          [True, [None, ["I", {"exact": "1/2", "approx": 0.5}]]])]:
        out = []
        _encode(value, out, "")
        assert "".join(out) == json.dumps(plain, indent=2)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
    | st.floats() | st.sampled_from([-0.0, 1e300, -1e-300, 5e-324]) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_the_writer_prints_what_json_dumps_prints(value):
    # nested and empty containers, tuples, non-ASCII and control characters,
    # -0.0, NaN and the infinities, big ints, booleans, None
    from regdyn.cli import _encode
    out = []
    _encode(value, out, "")
    assert "".join(out) == json.dumps(value, indent=2)


def test_the_writer_renders_domain_objects_as_json_does():
    from regdyn.cli import _encode
    from regdyn.curves import Zeta, CurveOrbitStatus
    value = [Zeta(F(1, 3)), F(-7, 2), F(10**400), Place(5), Place(None),
             RealInterval(F(1, 3), F(1, 2)), CurveOrbitStatus("Fixed", 0, 1, [], {1: 2}),
             {"nested": (Zeta(F(1, 2)), object)}]
    plain = ["exp(2*I*pi/3)", {"exact": "-7/2", "approx": -3.5},
             {"exact": f"{10**400}/1", "approx": None}, 5, "inf",
             {"lo": 1 / 3, "hi": 0.5, "lo_exact": "1/3", "hi_exact": "1/2"},
             {"type": "CurveOrbitStatus", "kind": "Fixed", "preperiod": 0, "period": 1,
              "orbit": [], "caps": {"1": 2}},
             {"nested": ["-1", repr(object)]}]
    out = []
    _encode(value, out, "")
    assert "".join(out) == json.dumps(plain, indent=2)


class _Str(str):
    def __str__(self):  # json.dumps prints the characters, not str()
        return "str() of a str subclass"


class _Int(int):
    def __repr__(self):  # json.dumps prints int.__repr__, not repr()
        return "repr() of an int subclass"

    __str__ = __repr__


def _plain_fraction(q):
    try:
        approx = float(q)
    except OverflowError:
        approx = None
    return {"exact": f"{q.numerator}/{q.denominator}", "approx": approx}


def _pairs(values):
    return [v for v, _ in values], [p for _, p in values]


def _documents(inner):
    """(document, the plain tree json.dumps prints the same) for containers
    and the dataclasses of a dmm document, built over inner pairs."""
    from regdyn.curves import CurveOrbitStatus, FoundPoint, PreperiodicityVerdict

    def dataclass(cls, names):
        return st.tuples(*[inner] * len(names)).map(lambda vs: (
            cls(*(v for v, _ in vs)),
            {"type": cls.__name__, **{n: p for n, (_, p) in zip(names, vs)}}))

    lists = st.lists(inner, max_size=4).map(_pairs)
    return (lists | lists.map(lambda vp: (tuple(vp[0]), vp[1]))
            | st.dictionaries(st.text(max_size=3) | st.text(max_size=3).map(_Str), inner,
                              max_size=4).map(
                lambda d: ({k: v for k, (v, _) in d.items()}, {k: p for k, (_, p) in d.items()}))
            | dataclass(FoundPoint, ["point", "verdict"])
            | dataclass(PreperiodicityVerdict,
                        ["kind", "preperiod", "period", "orbit", "height_lower"])
            | dataclass(CurveOrbitStatus, ["kind", "preperiod", "period", "orbit", "caps"]))


_leaves = (
    (st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=4))
    .map(lambda v: (v, v))
    | st.text(max_size=4).map(lambda t: (_Str(t), t))
    | st.integers(-2**70, 2**70).map(lambda i: (_Int(i), i))
    | (st.fractions(max_denominator=10**6)
       | st.builds(F, st.integers(-10**400, 10**400), st.integers(1, 10**6))).map(
        lambda q: (q, _plain_fraction(q)))
    | st.integers(1, 40).flatmap(lambda n: st.integers(0, n - 1).map(lambda a: (
        exactnum.Zeta(F(a, n)), str(sympy.exp(2 * sympy.pi * sympy.I * sympy.Rational(a, n))))))
)


@settings(max_examples=300, deadline=None)
@given(st.recursive(_leaves, _documents, max_leaves=25))
def test_the_writer_prints_documents_of_domain_objects_as_json_dumps_prints_them(pair):
    # nested dicts, lists and tuples of the dataclasses a dmm document holds,
    # Fractions in and past the float range, Zetas, empty containers, and
    # subclasses of str and int, against json.dumps of the plain tree
    from regdyn.cli import _encode
    value, plain = pair
    out = []
    _encode(value, out, "")
    assert "".join(out) == json.dumps(plain, indent=2)


def test_a_dmm_document_is_printed_as_json_dumps_prints_it(capsys):
    # hundreds of roots-of-unity points with their orbits, and the timing float
    code = run(["dmm", "--map", "-z^2, -w^2", "--curve", "w - z", "--max-iters", "4",
                "--max-degree", "8", "--height-bound", "1", "--max-order", "16"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0 and len(doc["result"]["preperiodic_points_found"]) > 50
    assert out == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["green", "--map", "z^2, w^2", "--point", "1,2", "--place", "4"],
    ["green", "--map", "z^2, w^2"],
    ["height", "--map", "z^2, w^2", "--point", "1,2", "--tol", "0"],
    ["height", "--map", "z^2, w^2", "--point", "1,2", "--tol=-1/2"],
    # usage errors that argparse finds
    ["classify"],
    [],
    ["collapse", "--map", "z^2, w^2"],
    ["classify", "--map", "z^2, w^2", "--point", "1,2"],
    ["orbit", "--map", "z^2, w^2", "--point", "1,2", "-n", "ten"],
    ["stable-manifold", "--map", "z^2, w^2", "--order", "1.5"],
    # negative counts
    ["orbit", "--map", "z^2, w^2", "--point", "1,2", "-n", "-1"],
    ["curve", "--map", "z^2, w^2", "--curve", "w-z-1", "--max-iters", "-2"],
    ["curve", "--map", "z^2, w^2", "--curve", "w-z-1", "--max-degree", "-1"],
    ["dmm", "--map", "z^2, w^2", "--curve", "w-z", "--max-iters", "-1"],
    ["dmm", "--map", "z^2, w^2", "--curve", "w-z", "--max-degree", "-1"],
    ["dmm", "--map", "z^2, w^2", "--curve", "w-z", "--height-bound", "-1"],
    ["dmm", "--map", "z^2, w^2", "--curve", "w-z", "--max-order", "-1"],
    # the zero triple is no projective point
    ["green", "--map", "z^2, w^2", "--homog=0,0,0"],
    # past the precision cap of the Green kernel
    ["green", "--map", "z^2, w^2", "--point=2,3", "--tol=1e-5000"],
    ["height", "--map", "z^2, w^2", "--point=2,3", "--tol=1e-5000"],
    # past the precision cap of the logarithm at a prime or of |z0|
    ["green", "--map", "z^2, w^2", "--place", "3", "--point=1/3,1", "--tol", "1e-5000"],
    ["green", "--map", "z^2, w^2", "--homog=3,1,1", "--tol", "1e-5000"],
    ["height", "--map", "z^2, w^2", "--point=1/3,1", "--tol", "1e-5000"],
    # a coordinate of more than 4,300 digits cannot be printed
    ["orbit", "--map", "z^2, w^2", "--point=1e5000,1", "-n", "1"],
    ["green", "--map", "z^2, w^2", "--homog=1,1e5000,1"],
], ids=["non-prime-place", "no-point", "zero-tol", "negative-tol",
        "no-map", "no-command", "unknown-command", "unknown-option", "non-integer-count",
        "non-integer-order", "orbit-negative-n", "curve-negative-max-iters",
        "curve-negative-max-degree", "dmm-negative-max-iters", "dmm-negative-max-degree",
        "dmm-negative-height-bound", "dmm-negative-max-order", "green-zero-homog",
        "green-tol-past-precision-cap", "height-tol-past-precision-cap",
        "green-tol-past-log-cap-at-prime", "green-tol-past-log-cap-homog",
        "height-tol-past-log-cap-at-prime", "orbit-oversize-point",
        "green-oversize-homog"])
def test_malformed_input_exits_2_with_one_json_error(capsys, argv):
    code, doc = _run(capsys, *argv)
    assert code == 2
    assert "error" in doc and "result" not in doc


RSA_100 = ("15226050279225333605356183781326374297180681149613"
           "80688657908494580122963258952897654000350692006139")


@pytest.mark.parametrize("argv", [
    ["classify", "--map", f"z^2 + {RSA_100}*w^2, z*w"],
    ["height", "--map", f"z^2 + {RSA_100}*w^2, z*w", "--point=1,2"],
    ["dmm", "--map", f"z^2 + {RSA_100}*w^2, z*w", "--curve", "w - z", "--max-iters", "1",
     "--max-degree", "4", "--height-bound", "1", "--max-order", "2"],
], ids=["classify-resultant", "height-resultant", "dmm-resultant"])
def test_an_unfactorable_integer_exits_2_naming_the_factoring_cap(capsys, argv):
    # the resultant is the RSA-100 semiprime, which sympy does not factor in
    # practice
    code, doc = _run(capsys, *argv)
    assert code == 2 and "result" not in doc
    assert "FACTOR_MAX_BITS = 96" in doc["error"]


def test_a_height_never_factors_the_point(capsys, monkeypatch):
    # the point (1/N, 1), N the RSA-100 semiprime, has the primitive triple
    # (N, 1, N), whose G_p is 0 at every good prime: no denominator is
    # factored.  Its height is g_inf(1/N, 1) + log N, log N being the sum of
    # g_p(1/N, 1) = log p over the primes p of N
    N = int(RSA_100)

    def refuse_the_point(n):
        assert n % N, "the point's denominator was factored"
        return real(n)

    real = exactnum.prime_factors
    for module in [m for name, m in sys.modules.items() if name.startswith("regdyn")]:
        if getattr(module, "prime_factors", None) is real:
            monkeypatch.setattr(module, "prime_factors", refuse_the_point)
    code, doc = _run(capsys, "height", "--map", "z^2+w, w^2-z", f"--point=1/{N},1")
    assert code == 0 and doc["result"]["preperiodicity"]["kind"] == "NotPreperiodic"
    h = doc["result"]["canonical_height"]
    got = RealInterval(F(h["lo_exact"]), F(h["hi_exact"]))
    f = make_regular_map("z^2+w", "w^2-z")
    g_inf = green_value(GreenContext(f, Place.archimedean()), (F(1, N), F(1)))
    want = g_inf + log_of_fraction(F(N))
    assert got.width <= F(1, 10**9)
    assert got.lower <= want.upper and want.lower <= got.upper
    assert got.lower > log_of_fraction(F(N)).upper


@pytest.mark.parametrize("argv, code", [
    (["dmm", "--map", "z^2, w^2", "--curve", "w - z", "--max-iters", "1", "--max-degree", "4",
      "--height-bound", "2", "--max-order", "24"], 0),
    (["dmm", "--map", "z^2, w^2", "--curve", "w - z", "--max-order", "65"], 2),
], ids=["answer", "error"])
def test_a_closed_stdout_ends_quietly_with_the_exit_code(argv, code):
    # a reader that closes the pipe before the document is printed, as
    # `regdyn dmm ... | head -1` may: no traceback, and the run's exit code
    src = os.path.dirname(os.path.dirname(regdyn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", "from regdyn.cli import main; main()", *argv],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (code, b"")


def test_usage_error_names_the_subcommand_and_the_argument(capsys):
    code, doc = _run(capsys, "curve", "--map", "z^2, w^2", "--curve", "w-z-1",
                     "--max-iters", "-1")
    assert code == 2 and doc["command"] is None
    assert doc["error"] == ("regdyn curve: argument --max-iters: must be a "
                            "non-negative integer, got '-1'")


def test_help_still_exits_0_with_usage_text(capsys):
    assert run(["classify", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: regdyn classify")


_MAP = "z^2+w, w^2-z"


def _outcome(argv):
    """The exit code and the printed document minus its timing (or the
    printed text, for --help)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    text = out.getvalue()
    if not text.startswith("{"):
        return code, text
    doc = json.loads(text)
    del doc["timing"]
    return code, doc


@pytest.mark.parametrize("argv", [
    ["classify", "--map", "z^2, w^2"],
    ["classify", "--map=(z + 1)^2 - w ,  w^2 + 1/2 * z"],
    ["green", "--map", _MAP, "--point", "1,2", "--place", "3"],
    ["green", f"--map={_MAP}", "--homog=0,1,2", "--tol=1e-5"],
    ["green", "--map", "z^2, w^2", "--poi=1,2"],
    ["height", "--map", _MAP, "--point=1,2", "--tol", "1e-6"],
    ["orbit", "--map", _MAP, "--point", "1,2", "-n5"],
    ["orbit", f"--map={_MAP}", "--point=1,2", "-n", "3"],
    ["stable-manifold", "--map", "2*z^2+w, w^2", "--point", "2", "--order", "6"],
    ["stable-manifold", "--map=2*z^2+w, w^2", "--order=6"],
    ["curve", "--map", "z^2, w^2", "--curve", "w - z", "--max-iters", "2", "--max-degree=4"],
    ["dmm", "--map", "z^2, w^2", "--curve=w - z", "--max-iters=1", "--max-degree", "4",
     "--height-bound", "1", "--max-order", "2"],
    ["height", "--map", _MAP],
    ["height", "--map", _MAP, "--point=1,2", "--bogus", "1"],
    ["classify", "--map", "z^2, w^2", "extra"],
    ["classify", "--", "--map", "z^2, w^2"],
    ["dmm", "--map", "z^2, w^2", "--curve", "w - z", "--max", "1"],
    ["height", "--map", _MAP, "--point", "-1,2"],
    ["orbit", "--map", _MAP, "--point=1,2", "-n", "x"],
    [],
    ["collapse", "--map", "z^2, w^2"],
    ["--map", "z^2, w^2"],
    ["--help"],
    ["height", "--help"],
    ["orbit", "-h", "--map", _MAP],
], ids=["classify", "classify-spaced", "green-point", "green-homog-equals", "green-abbreviated",
        "height", "orbit-n5", "orbit-equals", "stable-manifold", "stable-manifold-equals",
        "curve", "dmm", "missing-option", "unknown-option", "stray-positional",
        "double-dash", "ambiguous-abbreviation", "negative-looking-value", "bad-count",
        "bare", "unknown-command", "option-first", "help", "height-help", "orbit-h"])
def test_one_argparse_pass_gives_the_two_pass_document(monkeypatch, argv):
    got = _outcome(argv)
    # the oracle: every argv through the top parser's parse_args, which
    # runs the subcommand's parser inside it
    monkeypatch.setattr(cli._build_parser(), "commands", {})
    assert got == _outcome(argv)


def _count_pushforwards(monkeypatch):
    from regdyn import cli, curves
    calls = []

    def counting(f, C, _real=curves.pushforward):
        calls.append(C)
        return _real(f, C)

    monkeypatch.setattr(curves, "pushforward", counting)
    monkeypatch.setattr(cli, "pushforward", counting, raising=False)
    return calls


@pytest.mark.parametrize("curve, iters, steps", [
    ("w - z", "8", 1),        # Fixed: the first image closes the orbit
    ("z + 1", "8", 2),        # z = -1 -> z = 1 -> z = 1
    ("w - z - 1", "3", 3),    # degrees 1, 2, 4, 8: stopped by --max-iters
])
def test_curve_runs_one_pushforward_per_orbit_step(capsys, monkeypatch, curve, iters,
                                                   steps):
    calls = _count_pushforwards(monkeypatch)
    code, doc = _run(capsys, "curve", "--map", "z^2, w^2", "--curve", curve,
                     "--max-iters", iters)
    assert code in (0, 3)
    assert len(calls) == steps


def test_curve_with_no_iterations_still_reports_the_image(capsys, monkeypatch):
    calls = _count_pushforwards(monkeypatch)
    code, doc = _run(capsys, "curve", "--map", "z^2, w^2", "--curve", "w - z - 1",
                     "--max-iters", "0")
    assert code == 3
    assert len(calls) == 1
    # (t, t + 1) goes to (t^2, (t + 1)^2), so w - z - 1 = 2t and (w - z - 1)^2 = 4z
    assert PlaneCurve(doc["result"]["pushforward"]) == PlaneCurve("(w - z - 1)^2 - 4*z")
    assert doc["witnesses"]["orbit_degrees"] == [1]


# -- the CLI contract on drawn input: one JSON document, exit 0, 2 or 3 ------

def _mostly(valid, malformed):
    """valid, or 1 time in 10 one of the malformed tokens."""
    return st.integers(0, 9).flatmap(lambda k: valid if k else st.sampled_from(malformed))


def _sum(terms):
    return " ".join(f"{'-' if c[0] == '-' else '+'} {c.lstrip('-')}*{m}"
                    for c, m in terms).lstrip("+ ")


_coef = st.sampled_from(["1", "-1", "2", "-3", "1/2", "-2/3"])
_MONOMIALS = ["1", "z", "w", "z^2", "z*w", "w^2"]


@st.composite
def _map(draw):
    """Two polynomials led by c z^d and c' w^d, d = 2 or 3, plus a few
    terms of degree at most d: top terms mixed in can make it not regular."""
    d = draw(st.sampled_from([2, 3]))
    monomials = st.sampled_from(_MONOMIALS + (["z^2*w", "z*w^2", "z^3", "w^3"] if d == 3 else []))

    def poly(lead):
        return _sum([(draw(_coef), lead)] + draw(st.lists(st.tuples(_coef, monomials),
                                                          max_size=3)))
    return f"{poly(f'z^{d}')}, {poly(f'w^{d}')}"


_maps = _mostly(_map(), ["", "z^2", "z^2, w^2, z", "z^, w^2", "z^2, w**2", "1/0*z^2, w^2",
                         "z^2, 0", "x^2, w^2", "z*w, z^2 + w", "z, w"])
_curve = _mostly(st.lists(st.tuples(_coef, st.sampled_from(_MONOMIALS)), min_size=1,
                          max_size=4).map(_sum),
                 ["", "0", "1", "w -", "x + 1", "z^2, w"])
_rational = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "5"])


def _point(n):
    return _mostly(st.lists(_rational, min_size=n, max_size=n).map(",".join),
                   ["abc", "1/0,1", "1", "1,2,3,4", "", "0,0,0", "1e5000,1", "1,1e5000,1"])


def _cap(hi):
    return _mostly(st.integers(0, hi).map(str), ["-1", "x", "1.5", ""])


_place = _mostly(st.sampled_from(["inf", "2", "3", "5"]), ["oo", "arch", "4", "1", "0", "-2", "p"])
_tol = _mostly(st.sampled_from(["1e-3", "1/1000", "1e-9", "1e400"]), ["0", "-1", "abc", "1/0"])
# each subcommand with its options; small caps keep most runs under a second,
# but `classify` has no cap, and on some maps sympy takes seconds to match the
# embedding of an irrational multiplier (ROADMAP O9)
_OPTIONS = {
    "classify": {},
    "green": {"--point": _point(2), "--homog": _point(3), "--place": _place, "--tol": _tol},
    "height": {"--point": _point(2), "--tol": _tol},
    "orbit": {"--point": _point(2), "-n": _cap(10)},
    "stable-manifold": {"--point": _mostly(_rational, ["abc", "1/0"]), "--order": _cap(8)},
    "curve": {"--curve": _curve, "--max-iters": _cap(2), "--max-degree": _cap(4)},
    "dmm": {"--curve": _curve, "--max-iters": _cap(2), "--max-degree": _cap(4),
            "--height-bound": _cap(2), "--max-order": _cap(8)},
}


# (+-z^d, +-w^d) or (+-w^d, +-z^d), d = 2 or 3, and a line with a coefficient
# of 10 or 401 digits, past the double range: the roots-of-unity probe scales
# its rows.  Under other maps, or on curves that are not lines, sympy's
# factoring and the linear kernel take seconds to minutes on such coefficients
_unit_monomial_map = st.tuples(st.sampled_from(["", "-"]), st.sampled_from(["", "-"]),
                               st.sampled_from([2, 3]), st.sampled_from(["zw", "wz"])).map(
    lambda t: f"{t[0]}{t[3][0]}^{t[2]}, {t[1]}{t[3][1]}^{t[2]}")
_big_line = st.tuples(st.sampled_from(["1000000000", f"-{10**400}"]), _coef, _coef).map(
    lambda c: _sum([(c[0], "z"), (c[1], "w"), (c[2], "1")]))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS) + ["collapse"]))
    options = {"--map": _maps, **_OPTIONS.get(command, {})}
    # a big line keeps every option: at the default caps (--max-degree 64)
    # the pushforwards of its image run for minutes
    big = command in ("curve", "dmm") and draw(st.integers(0, 3)) == 0
    if big:
        options.update({"--map": _unit_monomial_map, "--curve": _big_line})
    argv = [command] + [f"{flag}={draw(value)}" for flag, value in options.items()
                        if big or draw(st.integers(0, 9)) > 0]  # an option is left out 1 in 10
    if draw(st.integers(0, 9)) == 0:  # a stray token
        junk = draw(st.sampled_from(["--bogus", "extra", "--map", "-n"]))
        argv.insert(draw(st.integers(0, len(argv))), junk)
    return argv


@settings(max_examples=100, deadline=timedelta(seconds=120))
@given(_argv())
# a tol past the double range, and a curve coefficient past it in the probe's rows
@example(["green", "--map=z^2+w, w^2-z", "--point=1,2", "--tol=1e400"])
@example(["height", "--map=z^2+w, w^2-z", "--point=1,2", "--tol=1e400"])
@example(["dmm", "--map=z^2, w^2", f"--curve=-{10**400}*z + w + 1", "--max-iters=1",
          "--max-order=8"])
# an image whose coefficients have more than 4,300 digits, Python's default
# limit on int to str
@example(["curve", "--map=z^2, w^2", f"--curve=-{10**400}*z + w + 1", "--max-iters=2",
          "--max-degree=4"])
def test_any_argv_prints_one_json_document_and_exits_0_2_or_3(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    doc = json.loads(out.getvalue())  # raises on a second document or trailing text
    assert code in (0, 2, 3)
    assert doc["schema_version"] == 1
    assert ("error" in doc) == (code == 2) and ("result" in doc) == (code != 2)


def test_stable_manifold_at_order_32_makes_at_most_400_bivariate_products(capsys, monkeypatch):
    # a count, not a time, so the bound holds on any machine
    calls = []
    original = TruncSeries2._times
    monkeypatch.setattr(TruncSeries2, "_times",
                        lambda self, b, n: calls.append(n) or original(self, b, n))
    code, doc = _run(capsys, "stable-manifold", "--map", "2*z^2+w, w^2", "--point", "2",
                     "--order", "32")
    assert code == 0
    (m,) = doc["result"]["manifolds"]
    assert m["normal_form"] == {"kind": "saddle", "steps": 4, "verified": True}
    assert [F(c["exact"]) for c in m["phi_coefficients"]] == [
        0, 2, 2, 0, 0, -2, 2, 0, 2, -8, 10, -8, 6, 6, -22, 0, 36, 50, -284, 448, -344, 6,
        36, 1904, -6892, 9438, 3030, -35384, 68674, -67698, 19952, 0, 184296]
    assert len(calls) <= 400

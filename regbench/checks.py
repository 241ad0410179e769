"""Answer checks, run after the timed region.

Each check reads the JSON document a query printed and tests it against
oracles that do not go through regdyn's fast paths: the benchmark's own
exact arithmetic (regbench.exact), closed forms, sympy for curve
divisibility, and mpmath for logarithms.  The one exception is the
normal-form shape check, which needs the conjugated germ that the CLI does
not print; it recomputes the germ through regdyn's public functions on a
fixed sample of queries and checks its shape as acceptance criteria 6 and
7 do.

`judge` returns "ok", "unknown" (a checked, cap-limited answer), "failed"
(no answer: an exception escaped cli.run, stdout is not one JSON document,
or the exit code is outside {0, 2, 3}) or "wrong" (an answer that fails
its check), with a reason.
"""

from __future__ import annotations

import json
from fractions import Fraction as F

import mpmath
import sympy as sp

from .exact import apply_map, peval, valuation, weil_height_int
from .workloads import point_arg

_z, _w = sp.symbols("z w")
LOG_PREC = 256


class CheckError(Exception):
    pass


class RerunError(Exception):
    """A query the check issued itself crashed, so the answer is unverified."""


def expect(cond, reason):
    if not cond:
        raise CheckError(reason)


def judge(workload: str, query, outcome: dict, rerun) -> tuple:
    """Classify one answer as ("ok" | "unknown" | "failed" | "wrong", reason)."""
    if outcome["exc"] is not None:
        return "failed", f"exception escaped cli.run: {outcome['exc']}"
    try:
        doc = json.loads(outcome["out"])
    except ValueError:
        return "failed", "stdout is not exactly one JSON document"
    code = outcome["code"]
    if code not in (0, 2, 3):
        return "failed", f"exit code {code}"
    if query.kind == "malformed":
        ok = code == 2 and "error" in doc
        return ("ok", "") if ok else ("wrong", f"malformed input not rejected (exit {code})")
    if code == 2:
        return "wrong", f"well-formed query rejected: {doc.get('error')}"
    try:
        unknown = CHECKS[workload](query, doc, code, rerun)
    except CheckError as exc:
        return "wrong", str(exc)
    except RerunError as exc:
        return "failed", str(exc)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return "wrong", f"malformed answer: {type(exc).__name__}: {exc}"
    return ("unknown" if unknown else "ok"), ""


# -- shared helpers --------------------------------------------------------


def frac(x) -> F:
    return F(x["exact"]) if isinstance(x, dict) else F(x)


def enclosure(g) -> tuple:
    return F(g["lo_exact"]), F(g["hi_exact"])


def _mpf(q: F):
    return mpmath.mpf(q.numerator) / q.denominator


def contains_log(lo: F, hi: F, x: F) -> bool:
    """Does [lo, hi] contain log(x)?  Evaluated at 256 bits."""
    with mpmath.workprec(LOG_PREC):
        L, eps = mpmath.log(_mpf(x)), mpmath.mpf(2) ** -200
        return _mpf(lo) <= L + eps and _mpf(hi) >= L - eps


def abs_at(q: F, place: str) -> F:
    """|q|_v as an exact rational."""
    if place == "inf":
        return abs(q)
    if q == 0:
        return F(0)
    p = int(place)
    return F(p) ** -valuation(q, p)


def replay_orbit(verdict: dict, P, Q, start):
    """Exact replay of a Preperiodic verdict's orbit: each row is the image
    of the previous one, and the image of the last row closes the cycle."""
    rows = [tuple(frac(c) for c in row) for row in verdict["orbit"]]
    k, l = verdict["preperiod"], verdict["period"]
    expect(l >= 1 and len(rows) == k + l, "orbit length differs from preperiod + period")
    expect(rows[0] == tuple(start), "orbit does not start at the point")
    for a, b in zip(rows, rows[1:]):
        expect(apply_map(P, Q, a) == b, "orbit row is not the image of the previous row")
    expect(apply_map(P, Q, rows[-1]) == rows[k], "orbit does not close at the preperiod")
    expect(len(set(rows)) == len(rows), "orbit repeats before the claimed cycle")


# -- heights ---------------------------------------------------------------


def _check_heights(q, doc, code, rerun) -> bool:
    m, r = q.meta, doc["result"]
    P, Q, d = m["P"], m["Q"], m["d"]
    if q.kind == "classify":
        expect(r["degree"] == d, "degree")
        expect(sorted(r["bad_places"]) == m["bad"], "bad places differ from the resultant's")
        expect(doc["witnesses"]["multiplicity_sum"] == d + 1,
               "fixed points at infinity do not add up to d + 1")
        return False
    if q.kind == "orbit":
        rows = [tuple(frac(c) for c in row) for row in r["orbit"]]
        capped = doc["caps"]["bit_capped"]  # a cap-limited orbit stops early
        expect(rows[0] == m["point"] and (len(rows) == m["n"] + 1 or
                                          capped and len(rows) <= m["n"]),
               "orbit length or start")
        for a, b in zip(rows, rows[1:]):
            expect(apply_map(P, Q, a) == b, "orbit row is not the image of the previous row")
        return capped
    tol = m["tol"]
    if q.kind == "height":
        lo, hi = enclosure(r["canonical_height"])
        expect(lo <= hi and hi - lo <= tol, "height enclosure wider than tol")
        expect(hi >= 0, "negative height")
        if m["diagonal"]:
            expect(contains_log(lo, hi, F(weil_height_int(*m["point"]))),
                   "height enclosure misses the Weil height")
        v = r["preperiodicity"]
        if v["kind"] == "Preperiodic":
            replay_orbit(v, P, Q, m["point"])
            expect(lo <= 0, "preperiodic point with positive height")
        elif v["kind"] == "NotPreperiodic":
            hl = frac(v["height_lower"])
            expect(0 < hl <= hi, "NotPreperiodic without a height lower bound in (0, h]")
        else:
            expect(v["kind"] == "Unknown" and code == 3, "verdict/exit code mismatch")
            return True
        expect(code == 0, "decided verdict with exit code 3")
        return False
    lo, hi = enclosure(r["green"])
    expect(lo <= hi and hi - lo <= tol, "green enclosure wider than tol")
    place = m["place"]
    if q.kind == "green-homog":  # G_v(z) = g_v(z1/z0, z2/z0) + log|z0|_v may be < 0
        if m["diagonal"]:  # |c_i|_v = 1 everywhere: G_v = log max_i |z_i|_v
            top = max(abs_at(c, place) for c in m["homog"])
            expect(contains_log(lo, hi, top), "homogeneous Green value misses log max|z_i|")
        return False
    expect(hi >= 0, "negative Green value")
    pt = m["point"]
    if m["diagonal"] or q.kind == "green-good":  # good reduction: closed form
        top = max([F(1)] + [abs_at(c, place) for c in pt])
        expect(contains_log(lo, hi, top), "Green value misses log max(1, |z|, |w|)")
    if m.get("invariance"):
        img = apply_map(P, Q, pt)
        doc2 = rerun(["green", "--map", q.argv[2], f"--point={point_arg(img)}",
                      "--place", place, "--tol", str(q.argv[-1])])
        lo2, hi2 = enclosure(doc2["result"]["green"])
        expect(lo2 <= d * hi and d * lo <= hi2, "g_v(f(p)) does not overlap d*g_v(p)")
    return False


# -- normal-forms ----------------------------------------------------------


def shape_errors(nf_kind: str, germ, lam: F, k=None) -> list:
    """Criterion 6 (saddle) or 7 (parabolic) shape of a normal-form germ."""
    first, second, d = germ.first.coeffs, germ.second.coeffs, germ.d
    bad = []
    if nf_kind == "saddle":
        for (i, j), c in first.items():
            c = c - (lam if (i, j) == (1, 0) else 0)
            if c and not (i >= 2 and j >= 1):
                bad.append(f"first x^{i} y^{j}")
        for (i, j), c in second.items():
            c = c - (1 if (i, j) == (0, d) else 0)
            if c and not (i >= 1 and j >= d):
                bad.append(f"second x^{i} y^{j}")
    else:
        if first.get((1, 0)) != 1 or first.get((k + 1, 0)) != 1:
            bad.append("first is not x + x^(k+1) + ...")
        for (i, j), c in first.items():
            if c and j >= 1 and 2 <= i <= 2 * k and i != k + 1:
                bad.append(f"forbidden x^{i} y^{j}")
    return bad


def normal_form_germ(q, order: int):
    """The germ the CLI's stable-manifold conjugates to, via regdyn's public API."""
    from regdyn.exactnum import AlgebraicNumber
    from regdyn.localdyn import (localize_at_infinity, parabolic_normal_form,
                                 reduce_form, saddle_normal_form, super_stable_series)
    from regdyn.maps import make_regular_map
    P, Q = q.argv[2].split(",")
    f = make_regular_map(P.strip(), Q.strip())
    germ = localize_at_infinity(f, (AlgebraicNumber.from_rational(0), 0), order)
    phi = super_stable_series(germ)
    if q.meta["lam"] == 1:
        k, res = parabolic_normal_form(germ)
        return phi, res.germ, k
    return phi, saddle_normal_form(reduce_form(germ, phi).germ).germ, None


def _check_normal_forms(q, doc, code, rerun) -> bool:
    m = q.meta
    expect(code == 0, "exit code")
    ms = doc["result"]["manifolds"]
    expect(len(ms) == 1, "expected exactly the fixed point [1 : 0]")
    e = ms[0]
    expect(e["point"]["chart"] == 0 and frac(e["point"]["coordinate"]) == 0, "wrong point")
    expect(frac(e["lambda"]) == m["lam"], "multiplier differs from the constructed one")
    expect(len(e["phi_coefficients"]) >= 1 and frac(e["phi_coefficients"][0]) == 0,
           "stable manifold does not pass through the fixed point")
    nf = e["normal_form"]
    if nf["kind"] == "unavailable":
        return True
    expect(nf["kind"] == ("parabolic" if m["lam"] == 1 else "saddle"), "normal form kind")
    expect(nf["verified"] is True, "normal form not verified")
    if m.get("shape"):
        phi, germ, k = normal_form_germ(q, m["order"])
        expect([frac(c) for c in e["phi_coefficients"]] == list(phi.coeffs),
               "phi differs from the recomputed stable manifold")
        if nf["kind"] == "parabolic":
            expect(nf["k"] == k, "parabolic k differs")
        errs = shape_errors(nf["kind"], germ, m["lam"], k)
        expect(not errs, f"normal form shape: {errs[:3]}")
    return False


# -- curves ----------------------------------------------------------------


def parse_curve(text: str) -> sp.Poly:
    if text.startswith("PlaneCurve(") and text.endswith(")"):
        text = text[len("PlaneCurve("):-1]
    expr = sp.sympify(text.replace("^", "**"), locals={"z": _z, "w": _w})
    return sp.Poly(expr, _z, _w, domain="QQ")


def _poly(p: dict) -> sp.Poly:
    return sp.Poly.from_dict({m: sp.Rational(c.numerator, c.denominator)
                              for m, c in p.items()}, _z, _w, domain="QQ")


def divides(R: sp.Poly, G: sp.Poly, P: sp.Poly, Q: sp.Poly) -> bool:
    """Exact test R | G(P, Q)."""
    one = sp.Poly(1, _z, _w, domain="QQ")
    ppow, qpow = [one], [one]
    H = sp.Poly(0, _z, _w, domain="QQ")
    for (i, j), c in G.terms():
        while len(ppow) <= i:
            ppow.append(ppow[-1] * P)
        while len(qpow) <= j:
            qpow.append(qpow[-1] * Q)
        H += ppow[i] * qpow[j] * c
    return H.rem(R).is_zero


def same_curve(A: sp.Poly, B: sp.Poly) -> bool:
    return A.monic() == B.monic()


def _check_curve_orbit(status: dict, m, P, Q, C0: sp.Poly, caps: dict) -> bool:
    orbit = [parse_curve(c) for c in status["orbit"]]
    expect(orbit and same_curve(orbit[0], C0), "curve orbit does not start at the curve")
    for a, b in zip(orbit, orbit[1:]):
        expect(divides(a, b, P, Q), "curve orbit step is not an image")
        expect(m["d"] * a.total_degree() % b.total_degree() == 0,
               "deg f(C) does not divide d*deg C")
    kind = status["kind"]
    if kind == "NotDetectedPreperiodic":
        reached = status["caps"].get("reached_degree")
        if reached is not None:
            expect(orbit[-1].total_degree() == reached > caps["max_degree"],
                   "degree cap claimed but not reached")
        else:
            expect(len(orbit) == caps["max_iters"] + 1, "iteration cap claimed but not reached")
        return True
    k, l = status["preperiod"], status["period"]
    expect(kind in ("Fixed", "Periodic", "PreperiodicTo") and len(orbit) == k + l,
           "curve cycle length")
    expect(divides(orbit[-1], orbit[k], P, Q), "curve orbit does not close")
    return False


def _angle(expr_text: str, max_order: int) -> F:
    """The exact a/n with point = exp(2*pi*i*a/n), n <= max_order."""
    val = sp.N(sp.sympify(expr_text), 60)
    with mpmath.workdps(60):
        z = mpmath.mpc(str(sp.re(val)), str(sp.im(val)))
        t = F(str(mpmath.arg(z) / (2 * mpmath.pi))).limit_denominator(max_order) % 1
        err = abs(z - mpmath.expjpi(2 * _mpf(t)))
        expect(err < mpmath.mpf(10) ** -40, "found point is not a root of unity")
    return t


def _replay_root_of_unity(pt, verdict, m, max_order):
    """Exact replay for monomial maps (s1*z^d, s2*w^d) with s_i = +-1 acting
    on angles: t -> d*t + (0 or 1/2) mod 1 in each coordinate."""
    P, Q, d = m["P"], m["Q"], m["d"]
    expect(set(P) == {(d, 0)} and set(Q) == {(0, d)}, "root-of-unity point for a non-monomial map")
    shift = [F(0) if c == 1 else F(1, 2) for c in (P[(d, 0)], Q[(0, d)])]
    ang = tuple(_angle(c, max_order) for c in pt)
    with mpmath.workdps(60):
        zs = [mpmath.expjpi(2 * _mpf(a)) for a in ang]
        val = sum(_mpf(c) * zs[0] ** i * zs[1] ** j for (i, j), c in m["R"].items())
        expect(abs(val) < mpmath.mpf(10) ** -40, "found point is not on the curve")
    seen = {}
    for n in range(64):
        if ang in seen:
            k = seen[ang]
            expect((verdict["preperiod"], verdict["period"]) == (k, n - k),
                   "root-of-unity orbit replays to another cycle")
            return
        seen[ang] = n
        ang = tuple((d * a + s) % 1 for a, s in zip(ang, shift))
    raise CheckError("root-of-unity orbit does not cycle")


def _check_curves(q, doc, code, rerun) -> bool:
    m, r = q.meta, doc["result"]
    P, Q, R = _poly(m["P"]), _poly(m["Q"]), _poly(m["R"])
    caps = doc["caps"]
    if q.argv[0] == "curve":
        C0, G = parse_curve(r["curve"]), parse_curve(r["pushforward"])
        expect(same_curve(C0, R), "canonical curve differs from the input")
        expect(divides(C0, G, P, Q), "R does not divide G(P, Q)")
        expect(m["d"] * C0.total_degree() % G.total_degree() == 0,
               "deg f(C) does not divide d*deg C")
        unknown = _check_curve_orbit(r["orbit_status"], m, P, Q, C0, caps)
        orbit = r["orbit_status"]["orbit"]
        expect(same_curve(G, parse_curve(orbit[1] if len(orbit) > 1 else orbit[0])),
               "pushforward differs from the orbit's first image")
        expect((code == 3) == unknown, "exit code does not match the orbit status")
        return unknown
    status = r["curve_status"]
    curve_unknown = _check_curve_orbit(status, m, P, Q, R, caps)
    pts = r["preperiodic_points_found"]
    for fp in pts:
        pt, v = fp["point"], fp["verdict"]
        expect(v["kind"] == "Preperiodic", "found point without a Preperiodic verdict")
        if all(isinstance(c, dict) for c in pt):
            start = tuple(frac(c) for c in pt)
            expect(peval(m["R"], *start) == 0, "found point is not on the curve")
            replay_orbit(v, m["P"], m["Q"], start)
        else:
            _replay_root_of_unity(pt, v, m, caps["max_order"])
    unresolved = curve_unknown and not r["hypothesis_witnessed"] and not pts
    expect((code == 3) == unresolved, "exit code does not match the report")
    return unresolved


CHECKS = {"heights": _check_heights, "normal-forms": _check_normal_forms,
          "curves": _check_curves}

"""Canonical heights, preperiodicity verdicts, essential-minimum sampling.

The canonical height of a point is the sum of the local Green values over
a finite, a-priori computable support: the Archimedean place, the bad
places of the map, and the primes at which a coordinate is non-integral.
Everywhere else good reduction forces g_v = log max{1,|z|_v,|w|_v} = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import sympy as sp
import mpmath

from .exactnum import Place, valuation, AlgebraicNumber
from .green import (GreenContext, bad_places, green_value, _tail_iterations,
                    _widen_by_tail)
from .intervals import RealInterval, log_of_fraction, _mpf_tuple_to_fraction
from .maps import RegularMap, BitSizeCap
from .polyalg import MultiPoly

_x = sp.Symbol("x")


@dataclass
class HeightResult:
    value: RealInterval
    support: list
    certified: bool


@dataclass
class PreperiodicityVerdict:
    kind: str  # "Preperiodic" | "NotPreperiodic" | "Unknown"
    preperiod: Optional[int] = None
    period: Optional[int] = None
    orbit: list = field(default_factory=list)
    height_lower: Optional[Fraction] = None

    @staticmethod
    def preperiodic(k: int, l: int, orbit) -> "PreperiodicityVerdict":
        return PreperiodicityVerdict("Preperiodic", preperiod=k, period=l,
                                     orbit=list(orbit))

    @staticmethod
    def not_preperiodic(lower: Fraction) -> "PreperiodicityVerdict":
        return PreperiodicityVerdict("NotPreperiodic", height_lower=lower)

    @staticmethod
    def unknown() -> "PreperiodicityVerdict":
        return PreperiodicityVerdict("Unknown")


def height_support(f: RegularMap, pt) -> list:
    """{∞} ∪ bad_places ∪ {p : some coordinate is non-p-integral}."""
    places = [Place.archimedean()]
    primes = set(bad_places(f))
    for c in pt:
        primes |= set(sp.factorint(Fraction(c).denominator))
    places += [Place.finite(int(p)) for p in sorted(primes)]
    return places


def canonical_height(f: RegularMap, pt, tol=Fraction(1, 10**9)) -> HeightResult:
    """Certified enclosure of the canonical height of a rational point."""
    tol = Fraction(tol)
    pt = (Fraction(pt[0]), Fraction(pt[1]))
    places = height_support(f, pt)
    per = tol / len(places)
    total = RealInterval.exact(0)
    support = []
    for v in places:
        g = green_value(GreenContext(f, v), pt, per)
        if g.upper > 0:
            support.append(v)
        total = total + g
    return HeightResult(total, support, certified=True)


def is_preperiodic(f: RegularMap, pt, orbit_cap: int = 64, tol=Fraction(1, 10**9),
                   height: Optional[HeightResult] = None) -> PreperiodicityVerdict:
    """Exact cycle detection, else a height-based NotPreperiodic certificate;
    ``height`` is ``canonical_height(f, pt, tol)`` if the caller has it."""
    tol = Fraction(tol)
    z, w = Fraction(pt[0]), Fraction(pt[1])
    seen = {(z, w): 0}
    orbit = [(z, w)]
    try:
        for n in range(1, orbit_cap + 1):
            z, w = f.apply((z, w))
            if (z, w) in seen:
                k = seen[(z, w)]
                return PreperiodicityVerdict.preperiodic(k, n - k, orbit)
            # coordinates of a preperiodic point stay bounded with bounded
            # denominators; bail out early on blowup in either direction
            if max(abs(z), abs(w)) > 10**40:
                break
            if max(c.numerator.bit_length() + c.denominator.bit_length()
                   for c in (z, w)) > 4096:
                break
            seen[(z, w)] = n
            orbit.append((z, w))
    except BitSizeCap:
        pass
    h = height if height is not None else canonical_height(f, pt, tol)
    if h.value.lower > tol:
        return PreperiodicityVerdict.not_preperiodic(h.value.lower)
    return PreperiodicityVerdict.unknown()


# ---------------------------------------------------------------------------
# algebraic points


def newton_polygon_slopes(coeffs, p: int) -> list:
    """(root valuation, multiplicity) pairs for a rational polynomial at p.

    Root valuations are the negatives of the Newton polygon slopes of the
    lower convex hull of (i, v_p(a_i))."""
    pts = [(i, valuation(c, p)) for i, c in enumerate(coeffs) if c != 0]
    hull = [pts[0]]
    for pt in pts[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out.append((Fraction(-(y2 - y1), x2 - x1), x2 - x1))
    return out


def _algebraic_nonintegral_primes(a: AlgebraicNumber) -> set:
    return {int(p) for p in sp.factorint(abs(a.minpoly_coeffs()[-1]))} \
        if abs(a.minpoly_coeffs()[-1]) != 1 else set()


def canonical_height_algebraic(f: RegularMap, pt, tol=Fraction(1, 10**9)) -> HeightResult:
    """Galois-averaged canonical height for a point with one algebraic and
    one rational coordinate (or both rational).

    Archimedean terms are evaluated per embedding in high-precision
    floating point; the result is flagged uncertified unless it reduces to
    the rational case."""
    tol = Fraction(tol)
    a, b = pt
    if isinstance(a, Fraction) or isinstance(a, int):
        a = AlgebraicNumber.from_rational(a)
    if isinstance(b, Fraction) or isinstance(b, int):
        b = AlgebraicNumber.from_rational(b)
    if a.is_rational() and b.is_rational():
        return canonical_height(f, (a.as_rational(), b.as_rational()), tol)
    if not a.is_rational() and not b.is_rational():
        raise NotImplementedError(
            "two irrational coordinates: joint field arithmetic not supported")
    alg, rat, alg_first = (a, b.as_rational(), True) if not a.is_rational() \
        else (b, a.as_rational(), False)
    N = alg.degree

    # finite support: at each prime the Newton polygon valuations of the
    # conjugates give s = sum of max(0, -min(v(conj), v(rat)))
    bad = bad_places(f)
    primes = bad | set(sp.factorint(rat.denominator)) | _algebraic_nonintegral_primes(alg)
    total = RealInterval.exact(0)
    support = []
    for p in sorted(primes):
        caps = [] if rat == 0 else [Fraction(valuation(rat, p))]
        s = sum(mult * max(Fraction(0), -min(slope, *caps))
                for slope, mult in newton_polygon_slopes(alg.minpoly_coeffs(), p))
        if s == 0 and p not in bad:
            continue
        v = Place.finite(p)
        enc = log_of_fraction(Fraction(p)).scale(Fraction(s, N))
        if p in bad:
            # bad place: widen by the uniform comparison bound
            enc = _widen_by_tail(enc, GreenContext(f, v).C, f.d, 0)
        total = total + enc
        support.append(v)

    # Archimedean terms per conjugate embedding
    arch = _arch_green_algebraic(f, alg, rat, alg_first, tol)
    total = (total + arch).clamp_nonnegative()
    if arch.upper > 0:
        support.insert(0, Place.archimedean())
    # per-embedding floating iteration is a precision fallback by design
    return HeightResult(total, support, certified=False)


def _arch_green_algebraic(f: RegularMap, alg, rat, alg_first, tol) -> RealInterval:
    """(1/N) sum of g_∞ over conjugates, by high-precision iteration.

    Rounding is not tracked rigorously; the reported interval combines the
    telescoped tail bound with a fixed numeric margin."""
    ctx = GreenContext(f, Place.archimedean())
    n = _tail_iterations(ctx.C, f.d, Fraction(tol) / 2)
    N = alg.degree
    with mpmath.workprec(300):
        P, Q = (MultiPoly({e: mpmath.mpf(c.numerator) / c.denominator
                           for e, c in g.coeffs.items()}) for g in (f.P, f.Q))
        roots = [mpmath.mpc(sp.N(r, 80)) for r in alg.minpoly.all_roots()]
        terms = []
        for r in roots:
            q = mpmath.mpf(rat.numerator) / rat.denominator
            zz, ww = (r, mpmath.mpc(q)) if alg_first else (mpmath.mpc(q), r)
            for _ in range(n):
                zz, ww = P.eval(zz, ww), Q.eval(zz, ww)
            m = max(mpmath.mpf(1), abs(zz), abs(ww))
            terms.append(mpmath.log(m) / mpmath.mpf(f.d) ** n)
        mean = sum(terms) / N
    margin = Fraction(1, 10**40)
    mid = _mpf_tuple_to_fraction(mpmath.mpf(mean)._mpf_) if mean != 0 else Fraction(0)
    return _widen_by_tail(RealInterval(mid - margin, mid + margin), ctx.C, f.d, n)


# ---------------------------------------------------------------------------
# essential minimum sampling


def _small_rationals():
    yield Fraction(0)
    for h in itertools.count(1):
        for den in range(1, h + 1):
            for num in range(-h, h + 1):
                q = Fraction(num, den)
                if abs(q.numerator) == h or q.denominator == h:
                    if max(abs(q.numerator), q.denominator) == h:
                        yield q


def essential_min_estimate(f: RegularMap, curve, num_samples: int = 50,
                           tol=Fraction(1, 10**6)) -> float:
    """Minimum canonical height over algebraic points sampled on the curve
    by vertical (or horizontal) lines; a heuristic upper statistic for the
    essential minimum, not a certificate."""
    poly = curve.poly if hasattr(curve, "poly") else curve
    if poly.degree < 1:
        raise ValueError("curve must be nonconstant")
    # slice along the variable that actually appears
    var = 1 if poly.degree_in(1) > 0 else 0
    best = None
    count = 0
    for aval in _small_rationals():
        if count >= num_samples:
            break
        heights = _heights_on_slice(f, poly, var, aval, tol)
        for h in heights:
            if count >= num_samples:
                break
            count += 1
            hv = float(h.value.upper)
            if best is None or hv < best:
                best = hv
        if best is not None and best <= float(tol):
            break
    if best is None:
        raise ValueError("sampling produced no points on the curve")
    return best


def _heights_on_slice(f: RegularMap, poly, var: int, aval: Fraction, tol):
    # substitute z = aval (var=1 -> solve for w), factor, take each root
    expr = 0
    w = _x
    for (i, j), c in poly.coeffs.items():
        ci = sp.Rational(c.numerator, c.denominator)
        expr += ci * (sp.Rational(aval.numerator, aval.denominator) ** i * w**j
                      if var == 1 else
                      w**i * sp.Rational(aval.numerator, aval.denominator) ** j)
    expr = sp.expand(expr)
    if expr == 0 or not expr.free_symbols:
        return []
    out = []
    for fac, _mult in sp.factor_list(sp.Poly(expr, _x))[1]:
        fac = sp.Poly(fac, _x)
        if fac.degree() == 0:
            continue
        for idx in range(fac.degree()):
            root = AlgebraicNumber(fac, idx)
            pt = (aval, root) if var == 1 else (root, aval)
            try:
                out.append(canonical_height_algebraic(f, pt, tol))
            except NotImplementedError:
                continue
    return out

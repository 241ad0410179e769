"""Dynamics of the induced map on the line at infinity.

A regular map restricts to f_inf = [P_d : Q_d] on the invariant line at
infinity.  Fixed points are the projective roots of z2*P_d - z1*Q_d; each
carries a multiplier whose arithmetic nature drives the trichotomy:
superattracting (multiplier 0), root of unity, or a place where the
multiplier has absolute value > 1 (Kronecker's theorem makes these
exhaustive and exclusive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import sympy as sp

from .exactnum import (AlgebraicNumber, ExpandingPlaceWitness, Place,
                       find_expanding_place, is_root_of_unity)
from .green import GreenContext, bad_places, green_homog
from .heights import PreperiodicityVerdict
from .maps import RegularMap
from .polyalg import MultiPoly

_x, _t = sp.symbols("x t")


@dataclass(frozen=True)
class Superattracting:
    pass


@dataclass(frozen=True)
class RootOfUnity:
    order: int


@dataclass(frozen=True)
class ExpandingPlace:
    place: Place
    witness: ExpandingPlaceWitness


@dataclass
class InfinityFixedPoint:
    """A fixed point of f_inf given by (coordinate, chart):
    chart 0 means [1 : t], chart 1 means [t : 1].  The multiplier and its
    classification are computed from the map f on first access."""
    coordinate: AlgebraicNumber
    chart: int
    multiplicity: int
    f: RegularMap = field(repr=False, compare=False)

    @cached_property
    def multiplier(self) -> AlgebraicNumber:
        return _nf_multiplier(self.f, self.coordinate, self.chart)

    @cached_property
    def classification(self):
        return classify_multiplier(self.multiplier)

    def projective(self) -> str:
        t = self.coordinate
        s = str(t.as_rational()) if t.is_rational() else repr(t)
        return f"[1 : {s}]" if self.chart == 0 else f"[{s} : 1]"


def classify_multiplier(lam: AlgebraicNumber):
    if lam.is_rational():
        return _classify_rational(lam.as_rational())
    rou, n = is_root_of_unity(lam)
    if rou:
        return RootOfUnity(n)
    witness = find_expanding_place(lam)
    # Kronecker: a nonzero algebraic integer-or-not that is not a root of
    # unity always has an expanding place
    return ExpandingPlace(witness.place, witness)


def _classify_rational(q: Fraction):
    """The trichotomy for a rational multiplier, exactly on Q: the roots of
    unity in Q are +-1, and any other nonzero q has |q| > 1 or a prime in its
    denominator (the leading coefficient of its minimal polynomial)."""
    if q == 0:
        return Superattracting()
    if abs(q) == 1:
        return RootOfUnity(1 if q == 1 else 2)
    if abs(q) > 1:
        witness = ExpandingPlaceWitness(Place.archimedean(), 0, note="|conjugate 0| > 1")
    else:
        p = min(sp.factorint(q.denominator))
        witness = ExpandingPlaceWitness(
            Place.finite(int(p)), None,
            note=f"minimal polynomial not monic: {p} divides leading coefficient")
    return ExpandingPlace(witness.place, witness)


def _fixed_form(f: RegularMap) -> MultiPoly:
    """z2 * P_d(z1,z2) - z1 * Q_d(z1,z2), a binary form of degree d+1
    (variables reused as (z, w) = (z1, z2))."""
    z = MultiPoly.variable(0)
    w = MultiPoly.variable(1)
    return w * f.top_P - z * f.top_Q


def _nf_multiplier(f: RegularMap, alpha: AlgebraicNumber, chart: int) -> AlgebraicNumber:
    """Multiplier of f_inf at the fixed point with chart coordinate alpha.

    chart 1: t = z/w, map t -> P_d(t,1)/Q_d(t,1); chart 0: t = w/z,
    map t -> Q_d(1,t)/P_d(1,t).  Derivative evaluated exactly in Q(alpha)."""
    if chart == 1:
        num = [f.top_P.coefficient(f.d - k, k) for k in range(f.d + 1)][::-1]
        den = [f.top_Q.coefficient(f.d - k, k) for k in range(f.d + 1)][::-1]
    else:
        num = [f.top_Q.coefficient(f.d - k, k) for k in range(f.d + 1)]
        den = [f.top_P.coefficient(f.d - k, k) for k in range(f.d + 1)]
    # num/den as univariate polys in t (ascending)
    a = alpha.as_rational() if alpha.is_rational() else alpha.number_field().generator()

    def ev(cs, t):
        total = 0
        for c in reversed(cs):
            total = total * t + c
        return total

    def dcs(cs):
        return [k * cs[k] for k in range(1, len(cs))]

    N, D = ev(num, a), ev(den, a)
    Np, Dp = ev(dcs(num), a), ev(dcs(den), a)
    lam = (Np * D - N * Dp) / (D * D)  # (N/D)'
    if alpha.is_rational():
        return AlgebraicNumber.from_rational(lam)
    return _algebraic_from_nf(lam, alpha)


def _algebraic_from_nf(elem, alpha: AlgebraicNumber) -> AlgebraicNumber:
    """Package an element of Q(alpha) as an AlgebraicNumber with the
    embedding matching alpha's."""
    if elem.is_rational():
        return AlgebraicNumber.from_rational(elem.as_rational())
    # Res_t(m(t), den*x - num(t)) is, up to a constant, the characteristic
    # polynomial of multiplication by elem: a power of its minimal polynomial
    m = sp.Poly.from_dict({(k, 0): c for (k,), c in alpha.minpoly.terms()}, _t, _x)
    g = sp.Poly.from_dict({(0, 1): elem.den, **{(k, 0): -n for k, n in enumerate(elem.num)}},
                          _t, _x)
    (minpoly, _m), = sp.factor_list(m.resultant(g))[1]
    roots = minpoly.all_roots()
    root = alpha.root()
    expr = sum(sp.Rational(n, elem.den) * root**k for k, n in enumerate(elem.num))
    for prec in (30, 60, 120):
        target = sp.N(expr, prec)
        dists = [abs(sp.N(r, prec) - target) for r in roots]
        best = min(range(len(roots)), key=lambda i: dists[i])
        others = [d for i, d in enumerate(dists) if i != best]
        if not others or dists[best] < min(others) / 4:
            return AlgebraicNumber(minpoly, best)
    raise ValueError("could not certify embedding index")


def fixed_points_infinity(f: RegularMap) -> list:
    """All fixed points of f_inf with multiplicities (summing to d+1); each
    point computes its multiplier and classification when first read."""
    form = _fixed_form(f)
    d = f.d
    out = []
    # dehomogenize in chart [1 : t], t = z2/z1: the degree drop of form(1, t)
    # against d+1 is exactly the multiplicity of the root at [0 : 1]
    poly_t = sum(sp.Rational(c.numerator, c.denominator) * _x**j
                 for (i, j), c in form.coeffs.items())
    poly_t = sp.Poly(poly_t, _x)
    drop = d + 1 - poly_t.degree()
    # roots with t = w/z finite: chart 0 coordinates
    for fac, mult in sp.factor_list(poly_t)[1]:
        fac = sp.Poly(fac, _x)
        for idx in range(fac.degree()):
            out.append(InfinityFixedPoint(AlgebraicNumber(fac, idx), 0, mult, f))
    if drop > 0:
        # remaining multiplicity sits at [0:1] (t = infinity in this chart)
        # chart 1 coordinate z/w = 0
        out.append(InfinityFixedPoint(AlgebraicNumber.from_rational(0), 1, drop, f))
    assert sum(p.multiplicity for p in out) == d + 1
    return out


def multiplier(f: RegularMap, point) -> AlgebraicNumber:
    """Multiplier at a projective point (pair [z1 : z2] of rationals or an
    (AlgebraicNumber, chart) pair); the point must be fixed by f_inf."""
    if isinstance(point, InfinityFixedPoint):
        return point.multiplier
    if isinstance(point, tuple) and isinstance(point[0], AlgebraicNumber):
        alpha, chart = point
    else:
        z1, z2 = Fraction(point[0]), Fraction(point[1])
        if z1 == z2 == 0:
            raise ValueError("not a projective point")
        if z1 != 0:
            alpha, chart = AlgebraicNumber.from_rational(z2 / z1), 0
        else:
            alpha, chart = AlgebraicNumber.from_rational(0), 1
    if not _is_fixed(f, alpha, chart):
        raise ValueError("point is not fixed by the map at infinity")
    return _nf_multiplier(f, alpha, chart)


def _is_fixed(f: RegularMap, alpha: AlgebraicNumber, chart: int) -> bool:
    form = _fixed_form(f)
    if alpha.degree == 1:
        t = alpha.as_rational()
        val = form.eval(Fraction(1), t) if chart == 0 else form.eval(t, Fraction(1))
        return val == 0
    K = alpha.number_field()
    a = K.generator()
    val = form.eval(K(1), a) if chart == 0 else form.eval(a, K(1))
    return val.is_zero()


# ---------------------------------------------------------------------------
# orbits on the line at infinity


def infinity_orbit_preperiodicity(f: RegularMap, point, orbit_cap: int = 64,
                                  degree_cap: int = 64) -> PreperiodicityVerdict:
    """Exact orbit of a point of the line at infinity under [P_d : Q_d]
    with cycle detection inside the field of definition."""
    if isinstance(point, InfinityFixedPoint):
        return PreperiodicityVerdict.preperiodic(0, 1, [point])
    if isinstance(point, tuple) and len(point) == 2 \
            and isinstance(point[0], AlgebraicNumber):
        alpha, chart = point
        if alpha.degree > degree_cap:
            return PreperiodicityVerdict.unknown()
        if alpha.degree == 1:
            q = alpha.as_rational()
            z1, z2 = (Fraction(1), q) if chart == 0 else (q, Fraction(1))
            return _rational_infinity_orbit(f, z1, z2, orbit_cap)
        return _nf_infinity_orbit(f, alpha, chart, orbit_cap)
    z1, z2 = Fraction(point[0]), Fraction(point[1])
    return _rational_infinity_orbit(f, z1, z2, orbit_cap)


def _normalize_rational_pair(z1: Fraction, z2: Fraction):
    import math
    if z1 == 0:
        return (0, 1)
    if z2 == 0:
        return (1, 0)
    a = z1.numerator * z2.denominator
    b = z2.numerator * z1.denominator
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if b < 0 or (b == 0 and a < 0):
        a, b = -a, -b
    return (a, b)


def _rational_infinity_orbit(f: RegularMap, z1, z2, orbit_cap):
    cur = _normalize_rational_pair(z1, z2)
    seen = {cur: 0}
    orbit = [cur]
    for n in range(1, orbit_cap + 1):
        a, b = cur
        na = f.top_P.eval(Fraction(a), Fraction(b))
        nb = f.top_Q.eval(Fraction(a), Fraction(b))
        cur = _normalize_rational_pair(na, nb)
        if cur in seen:
            k = seen[cur]
            return PreperiodicityVerdict.preperiodic(k, n - k, orbit)
        if max(abs(cur[0]), abs(cur[1])) > 10**60:
            break
        seen[cur] = n
        orbit.append(cur)
    # the canonical height of [a : b] sums G_v(0, a, b) over all places; for
    # coprime integers it is log max(|a|_p, |b|_p) = 0 at every good prime
    a, b = orbit[0]
    places = [Place.archimedean()] + [Place.finite(p) for p in sorted(bad_places(f))]
    h = sum(green_homog(GreenContext(f, v), (0, a, b), Fraction(1, 10**9)) for v in places)
    if h.lower > 0:
        return PreperiodicityVerdict.not_preperiodic(h.lower)
    return PreperiodicityVerdict.unknown()


def _nf_infinity_orbit(f: RegularMap, alpha: AlgebraicNumber, chart, orbit_cap):
    K = alpha.number_field()
    a0 = K.generator()
    cur = (K(1), a0) if chart == 0 else (a0, K(1))
    cur = _normalize_nf_pair(cur)
    seen = {cur: 0}
    orbit = [cur]
    for n in range(1, orbit_cap + 1):
        z1, z2 = cur
        nz1 = f.top_P.eval(z1, z2)
        nz2 = f.top_Q.eval(z1, z2)
        if nz1.is_zero() and nz2.is_zero():
            raise RuntimeError("regular map sent a projective point to 0")
        cur = _normalize_nf_pair((nz1, nz2))
        if cur in seen:
            k = seen[cur]
            return PreperiodicityVerdict.preperiodic(k, n - k, orbit)
        # the cap is per coefficient in lowest terms; max|num| and den bound it
        if max(max(map(abs, z.num)).bit_length() + z.den.bit_length() for z in cur) > 4096 \
                and max(c.numerator.bit_length() + c.denominator.bit_length()
                        for z in cur for c in z.coeffs) > 4096:
            break
        seen[cur] = n
        orbit.append(cur)
    return PreperiodicityVerdict.unknown()


def _normalize_nf_pair(pair):
    z1, z2 = pair
    if not z2.is_zero():
        return (z1 / z2, z2 / z2)
    return (z1 / z1, z2 / z1)

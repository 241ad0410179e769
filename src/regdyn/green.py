"""Local Green functions with certified enclosures at every place.

The key estimate is the two-sided comparison ("the standard estimate")

    C_v^{-1} <= max{1, |P(z,w)|_v, |Q(z,w)|_v} / max{1, |z|_v, |w|_v}^d <= C_v

valid for all points, with an explicit constant C_v >= 1.  Telescoping it
along the orbit bounds the tail of g_{v,n} = d^{-n} log max{1,|P_n|,|Q_n|}
by log(C_v) / (d^n (d-1)), which is what certifies every enclosure here.

One kernel computes G_v(z0, z1, z2) for z0 in {0, 1}: it iterates (P, Q)
on the affine plane, or the top forms (P_d, Q_d) on the line at infinity
with their own two-sided constant, on an integer triple with error radii
at infinity (regdyn.intervals.escape_norm) and, at p, on a primitive
integer triple known mod p^k (regdyn.padic), doubling the precision until
the enclosure is certified and narrow enough; any other z0 adds log|z0|_v.

Λ = Π C_v over {∞} and the bad places gives |ĥ - h| <= log Λ / (d - 1)
(Call-Silverman, Compositio Math. 89, 1993): leaving this box (`_past_box`)
is the one stop rule of every exact orbit of a point, within ORBIT_CAP.
`green_value` alone first runs its point's orbit: when it closes, g_v = 0 exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import (FactoringCap, Place, _int_valuation, abs_at_place_exact, prime_factors,
                       valuation)
from .exactnum import sp  # noqa: F401  regbench's tracer swaps this module's sp
from .intervals import RealInterval, escape_norm, log_bound, log_of_fraction, DEFAULT_PREC
from .maps import ORBIT_CAP, RegularMap, _exact_orbit, _triple
from .padic import PrecisionLoss, escape_exponent
from .polyalg import MultiPoly


# the enclosure width of a Green value and of a height when none is given
DEFAULT_TOL = Fraction(1, 10**9)


def _positive(tol) -> Fraction:
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    return tol


class GreenContext:
    """A regular map together with a place and its certified constant,
    computed once per map and place and kept on the map."""

    def __init__(self, f: RegularMap, v: Place):
        self.f = f
        self.place = v
        if v not in f._constants:
            f._constants[v] = nullstellensatz_constant(f, v)
        self.C, self.good_reduction = f._constants[v]

    def __repr__(self):
        return (f"GreenContext({self.f!r}, {self.place!r}, C={self.C}, "
                f"good={self.good_reduction})")


def _pmax(*qs) -> tuple:
    """The largest of rationals held as pairs (num, den), den > 0, the form
    the constants are built in, with one Fraction at the end."""
    best = qs[0]
    for q in qs[1:]:
        if q[0] * best[1] > best[0] * q[1]:
            best = q
    return best


def _psum(a: tuple, b: tuple) -> tuple:
    """a + b for rationals held as pairs."""
    return a[0] * b[1] + b[0] * a[1], a[1] * b[1]


def _size(poly: MultiPoly, v: Place, below=None) -> tuple:
    """Sum of coefficient absolute values (sound bound at every place), of
    the terms of total degree below `below` when given, as a pair.  At p it
    is p^v_p(den) Σ p^-v_p(c) over the integer numerators c, summed over
    the common denominator p^m, m the largest v_p(c)."""
    nums = [c for (i, j), c in poly.num.items() if below is None or i + j < below]
    if not v.is_finite:
        return sum(map(abs, nums)), poly.den
    p = v.prime
    vals = [_int_valuation(c, p) for c in nums]
    m = max(vals, default=0)
    return p ** _int_valuation(poly.den, p) * sum(p ** (m - e) for e in vals), p ** m


def _cofactor_bound(f: RegularMap, v: Place) -> tuple:
    """c1/|Res|_v as a pair, with c1 bounding the cofactors of
    `RegularMap._cofactors`: max(|z|,|w|)^d <= (c1/|Res|_v) max(|P_d|,|Q_d|)
    at v."""
    A1, B1, A2, B2 = (_size(g, v) for g in f._cofactors)
    n, m = _pmax(_psum(A1, B1), _psum(A2, B2))
    r = abs_at_place_exact(f.res, v)
    return n * r.denominator, m * r.numerator


def nullstellensatz_constant(f: RegularMap, v: Place) -> tuple:
    """(C_v, good_reduction): C_v^-1 m^d <= N <= C_v m^d at every (z, w)
    over Q_v, m = max(1, |z|_v, |w|_v), N = max(1, |P|_v, |Q|_v).

    Good reduction (P, Q p-integral, |Res|_p = 1) gives N = m^d: the lift of
    a primitive p-integral triple is p-integral, and 0 mod p only if x0 = 0
    and P_d, Q_d share a zero mod p.  So does (c1 z^d, c2 w^d), |c_i|_v = 1.
    Otherwise, with mu = max(|z|_v, |w|_v): upper, |c z^i w^j|_v <= |c|_v m^d
    gives N <= max(1, _size(P), _size(Q)) m^d = C_up m^d.  Lower, the
    cofactor identities A P_d + B Q_d = Res z^(2d-1) (and w) give
    max(|P_d|_v, |Q_d|_v) >= mu^d / k, k = `_cofactor_bound`, and the terms
    below degree d are at most e max(1, mu)^(d-1), e = max(_size(P, d),
    _size(Q, d)): for mu >= m0 = max(1, 2ke), N >= mu^d/k - e mu^(d-1) >=
    m^d / 2k, and for mu < m0, N >= 1 >= m^d / m0^d.  So C_v = max(C_up,
    C_low), C_low = max(1, 2k, m0^d)."""
    if v.is_finite:
        p = v.prime
        if f.P.den % p and f.Q.den % p and valuation(f.res, p) == 0:
            return Fraction(1), True
    mono = f._monomial
    if mono and not mono[2] and all(abs_at_place_exact(c, v) == 1 for c in mono[:2]):
        return Fraction(1), True  # (c1 z^d, c2 w^d), |c_i|_v = 1: the max-norm identity
    k1, k2 = _cofactor_bound(f, v)
    e1, e2 = _pmax(_size(f.P, v, f.d), _size(f.Q, v, f.d))  # the terms below the top forms
    # lower bound: for m = max(|z|,|w|) >= m0 the cofactor identity gives
    # max(|P|,|Q|) >= m^d / (2 k); below m0 use max(1,...) >= 1
    m1, m2 = _pmax((1, 1), (2 * k1 * e1, k2 * e2))
    C_low = _pmax((1, 1), (2 * k1, k2), (m1 ** f.d, m2 ** f.d))
    C_up = _pmax((1, 1), _size(f.P, v), _size(f.Q, v))
    return Fraction(*_pmax(C_low, C_up)), False


def _line_constant(ctx: GreenContext) -> Fraction:
    """C with C^-1 mu^d <= max(|P_d(a, b)|_v, |Q_d(a, b)|_v) <= C mu^d at
    every (a, b) over Q_v, mu = max(|a|_v, |b|_v), by the proof of
    `nullstellensatz_constant` on the top forms alone: 1 at good reduction,
    else the term bound _size(P_d) and the cofactor bound k.  C <= C_v, as
    C_low >= 2k and _size(P) >= _size(P_d)."""
    f, v = ctx.f, ctx.place
    if ctx.good_reduction:
        return Fraction(1)
    return Fraction(*_pmax((1, 1), _cofactor_bound(f, v), _size(f.top_P, v),
                           _size(f.top_Q, v)))


def bad_places(f: RegularMap) -> set:
    """Finite set of primes outside which C_p = 1 is certified."""
    primes = prime_factors(f.res.numerator)
    for c in list(f.P.coeffs.values()) + list(f.Q.coeffs.values()):
        primes |= prime_factors(c.denominator)
    return primes


def height_box(f: RegularMap) -> tuple:
    """(places, Λ), found once per map: {∞} ∪ bad_places(f), the places
    where G_v of a primitive triple can be nonzero, and the height box
    Λ = Π C_v over them, so that |ĥ - h| <= log Λ / (d - 1) at every point
    of P^2 (C_v = 1 elsewhere).  FactoringCap when the bad places cannot be
    found."""
    if f._height is None:
        places = (Place.archimedean(),) + tuple(Place.finite(p) for p in sorted(bad_places(f)))
        f._height = places, math.prod((GreenContext(f, v).C for v in places), start=Fraction(1))
    return f._height


def height_support(f: RegularMap) -> list:
    """{∞} ∪ bad_places: the places where G_v of a primitive triple can be
    nonzero."""
    return list(height_box(f)[0])


def _mahler_lower(cs) -> tuple:
    """max_i |c_i| / C(n, i) <= M(c_0 + ... + c_n x^n), the Mahler measure of
    an integer polynomial, as a pair (Mahler's inequality)."""
    return _pmax(*((abs(c), math.comb(len(cs) - 1, i)) for i, c in enumerate(cs)))


def _box_floor(f: RegularMap) -> tuple:
    """max(1, _size(P), _size(Q)) at ∞, a pair <= C_∞ <= Λ."""
    inf = Place.archimedean()
    return _pmax((1, 1), _size(f.P, inf), _size(f.Q, inf))


def _past_box(f: RegularMap, M: tuple, n: int, low: tuple) -> bool:
    """M^(d-1) > Λ^n (`height_box`), for a pair M <= M(χ), χ the primitive
    integer characteristic polynomial, of degree n, of a point's coordinate
    (n = 1 and M = max|X_i| for a primitive triple X): then h = log M(χ)/n >
    log Λ/(d-1) >= h - ĥ.  Λ is found only past a pair low <= Λ, such as
    `_box_floor` (FactoringCap when it cannot be)."""
    a, b = M[0] ** (f.d - 1), M[1] ** (f.d - 1)
    if a * low[1] ** n <= low[0] ** n * b:  # inside the height box, as Λ >= low
        return False
    box = height_box(f)[1]
    return a * box.denominator ** n > box.numerator ** n * b


def _box_orbit(f: RegularMap, X: tuple, ctx: GreenContext = None) -> tuple:
    """(orbit, k) of `_exact_orbit` for the primitive triple X under the
    map's lift, ORBIT_CAP steps, cut at the first X_n, X included, past the
    height box (`_past_box` at M = max|X_n,i|), which a preperiodic orbit,
    of ĥ = 0, never leaves (on the line at infinity too: `_line_constant`
    <= C_v), with Λ found only past C_v, else `_box_floor`.
    With a context at v (X affine) the orbit is also cut past v's box,
    max(1, |y1/y0|_v, |y2/y0|_v)^(d-1) > C_v, where g_v > 0 ((M/y0)^(d-1)
    at ∞, p^((d-1) v_p(y0)) at p), and where Λ would be needed but the bad
    places cannot be found (FactoringCap)."""
    d = f.d
    if ctx is None:
        (ln, ld), p = _box_floor(f), None
    else:
        ln, ld, p = ctx.C.numerator, ctx.C.denominator, ctx.place.prime

    def out(Y):  # each bound q compared as M q.den > q.num
        top = max(map(abs, Y))
        if ctx is not None and (p ** ((d - 1) * _int_valuation(Y[0], p)) * ld > ln if p
                                else top ** (d - 1) * ld > ln * Y[0] ** (d - 1)):
            return True  # past v's box
        try:
            return _past_box(f, (top, 1), 1, (ln, ld))
        except FactoringCap:
            if ctx is None:
                raise
            return True
    if out(X):
        return [X], None
    return _exact_orbit(f.lift.step, X, ORBIT_CAP, out)


def _tail_iterations(log_C: Fraction, d: int, tol: Fraction) -> int:
    """Smallest n with log(C)/(d^n (d-1)) <= tol, log_C = a/b an upper bound
    of log C: the least n with d^n b t (d-1) >= a u, tol = t/u."""
    if not log_C:
        return 0
    target = log_C.numerator * tol.denominator
    scaled = log_C.denominator * tol.numerator * (d - 1)
    n = 0
    while scaled < target:
        scaled *= d
        n += 1
    return n


# precisions a Green value tries, doubling from the first, before PrecisionLoss
ATTEMPTS = 6


def _log_to_width(q: Fraction, m: int, width: Fraction) -> RealInterval:
    """Enclosure of m * log(q), of width <= width, at DEFAULT_PREC bits
    doubled at most ATTEMPTS - 1 times; PrecisionLoss past that."""
    if m == 0 or q == 1:
        return RealInterval.exact(0)
    prec = DEFAULT_PREC
    for _ in range(ATTEMPTS):
        enc = log_of_fraction(q, prec).scale(m)
        if enc.width <= width:
            return enc
        prec *= 2
    raise PrecisionLoss("green: precision escalation exhausted at a logarithm")


def green_value(ctx: GreenContext, pt, tol=DEFAULT_TOL) -> RealInterval:
    """Certified enclosure of g_v at a rational point, width <= tol.  Where
    C_v > 1 the point's exact orbit runs first, cut at the height box and at
    v's own box (`_box_orbit`): when it closes the point is preperiodic and
    g_v = 0 exactly."""
    tol = _positive(tol)
    z, w = Fraction(pt[0]), Fraction(pt[1])
    if ctx.C > 1 and _box_orbit(ctx.f, _triple((1, z, w)), ctx)[1] is not None:
        return RealInterval.exact(0)
    return _orbit_green(ctx, 1, z, w, tol)


def green_homog(ctx: GreenContext, pt, tol=DEFAULT_TOL) -> RealInterval:
    """G_v on a nonzero triple: g_v of the affine part (`green_value`) plus
    log|z0|_v, extended to z0 = 0 by the escape rate of the top binary forms."""
    tol = _positive(tol)
    z0, z1, z2 = (Fraction(c) for c in pt)
    if z0 == z1 == z2 == 0:
        raise ValueError("zero vector has no homogeneous Green value")
    if z0 == 0:
        return _orbit_green(ctx, 0, z1, z2, tol)
    g = green_value(ctx, (z1 / z0, z2 / z0), tol / 2)
    return g + _log_to_width(abs_at_place_exact(z0, ctx.place), 1, tol / 2)


def _orbit_green(ctx: GreenContext, z0, z1, z2, tol: Fraction) -> RealInterval:
    """G_v(z0, z1, z2) at a nonzero rational triple, of width <= tol, with
    no closed-orbit test.  A z0 other than 0 and 1 splits the width between
    G_v(1, z1/z0, z2/z0) and log|z0|_v.

    Iterates (P, Q) when z0 = 1 and the top forms (P_d, Q_d) when z0 = 0,
    n times from (z1, z2) in the arithmetic of v, takes
    log max(z0, |a_n|_v, |b_n|_v) / d^n and widens it by the tail of that
    case's constant.  An attempt is repeated at twice the precision (bits at
    infinity, p-adic digits at p) when it loses precision, or at infinity
    when its enclosure is too wide; PrecisionLoss after ATTEMPTS attempts.
    At p the exponent is exact and only its logarithm needs a width
    (`_log_to_width`, with its own ladder).  Both cases run on the map's
    one integer lift, which is D (0, P_d, Q_d) at z0 = 0."""
    f, v, d = ctx.f, ctx.place, ctx.f.d
    if z0 not in (0, 1):
        z1, z2 = Fraction(z1) / z0, Fraction(z2) / z0
        return (_orbit_green(ctx, 1, z1, z2, tol / 2)
                + _log_to_width(abs_at_place_exact(z0, v), 1, tol / 2))
    lift, C = f.lift, (ctx.C if z0 else _line_constant(ctx))
    log_C = 0 if C == 1 else log_bound(C, DEFAULT_PREC, True)
    n = _tail_iterations(log_C, d, tol / 2)
    tail = log_C / (d**n * (d - 1)) if log_C else 0  # the telescoped tail, each side
    prec = 64 if v.is_finite else DEFAULT_PREC
    for _ in range(ATTEMPTS):
        try:
            if v.is_finite:
                m = escape_exponent(lift, z0, z1, z2, n, v.prime, prec)
            else:
                val = _arch_log_norm(lift, z0, z1, z2, n, d, prec)
        except PrecisionLoss:
            prec *= 2
            continue
        if v.is_finite:  # log max(z0, |a_n|_p, |b_n|_p) / d^n, p^m that max
            val = _log_to_width(v.prime, m, tol / 2).scale(Fraction(1, d**n))
        out = RealInterval(val.lower - tail, val.upper + tail)
        if z0:
            out = out.clamp_nonnegative()  # G_v(1, z, w) >= log 1
        if v.is_finite or out.width <= tol:
            return out
        prec *= 2
    raise PrecisionLoss(f"green: precision escalation exhausted at {v!r}")


def _arch_log_norm(lift, z0, z1, z2, n: int, d: int, prec: int) -> RealInterval:
    """log max(z0, |a_n|, |b_n|) / d^n from the integer orbit of escape_norm,
    the logarithms enclosed at prec bits: of x 2^m D^-k in one piece while
    that rational is small (exact at 1), else as log x + m log 2 - k log D."""
    m, k, D, lo, hi = escape_norm(lift, z0, z1, z2, n, prec)
    if not (lo or z0):
        raise PrecisionLoss("the enclosure of max(|a_n|, |b_n|) reaches 0")
    if abs(m) + k * D.bit_length() <= 4 * prec:
        q, shift = Fraction(2) ** m / D**k, RealInterval.exact(0)
    else:
        q = 1
        shift = log_of_fraction(2, prec).scale(m) - log_of_fraction(D, prec).scale(k)
    # each end of the logarithm alone, rounded its way
    lower = shift.lower + log_bound(q * lo, prec, False) if lo else 0
    upper = shift.upper + log_bound(q * hi, prec, True) if hi else 0
    if z0:  # max(1, |a_n|, |b_n|)
        lower, upper = max(lower, 0), max(upper, 0)
    return RealInterval(lower, upper).scale(Fraction(1, d**n))

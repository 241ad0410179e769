"""Local Green functions with certified enclosures at every place.

The key estimate is the two-sided comparison ("the standard estimate")

    C_v^{-1} <= max{1, |P(z,w)|_v, |Q(z,w)|_v} / max{1, |z|_v, |w|_v}^d <= C_v

valid for all points, with an explicit constant C_v >= 1.  Telescoping it
along the orbit bounds the tail of g_{v,n} = d^{-n} log max{1,|P_n|,|Q_n|}
by log(C_v) / (d^n (d-1)), which is what certifies every enclosure here.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp

from .exactnum import Place, valuation, abs_at_place_exact
from .intervals import (RealInterval, iv, frac_to_mpi, ivmax, log_of_fraction,
                        DEFAULT_PREC)
from .maps import RegularMap
from .padic import PAdic, PrecisionLoss
from .polyalg import MultiPoly


class GreenContext:
    """A regular map together with a place and its certified constant."""

    def __init__(self, f: RegularMap, v: Place):
        self.f = f
        self.place = v
        self.C, self.good_reduction = nullstellensatz_constant(f, v)

    def __repr__(self):
        return (f"GreenContext({self.f!r}, {self.place!r}, C={self.C}, "
                f"good={self.good_reduction})")


def _cofactors(f: RegularMap):
    """Binary forms (A1,B1,A2,B2) of degree d-1 with

        A1*P_d + B1*Q_d = Res * z^(2d-1),   A2*P_d + B2*Q_d = Res * w^(2d-1).

    Unique since the Sylvester determinant Res is nonzero; cached on f."""
    cached = getattr(f, "_cofactors", None)
    if cached is not None:
        return cached
    d = f.d
    n = 2 * d
    # columns: coefficients of A (deg d-1) then B; rows: coeff of z^(2d-1-k) w^k
    rows = []
    for k in range(n):
        row = []
        for s in range(d):  # A = sum_s a_s z^(d-1-s) w^s
            # z^(d-1-s) w^s * P_d contributes its coeff of z^(d-(k-s)) w^(k-s)
            t = k - s
            row.append(f.top_P.coefficient(d - t, t) if 0 <= t <= d else Fraction(0))
        for s in range(d):
            t = k - s
            row.append(f.top_Q.coefficient(d - t, t) if 0 <= t <= d else Fraction(0))
        rows.append([sp.Rational(c) for c in row])
    M = sp.Matrix(rows)
    out = []
    for target in (0, n - 1):
        rhs = sp.zeros(n, 1)
        rhs[target] = sp.Rational(f.res)
        sol = M.solve(rhs)
        A = MultiPoly({(d - 1 - s, s): Fraction(int(sp.Rational(sol[s]).p),
                                                int(sp.Rational(sol[s]).q))
                       for s in range(d)})
        B = MultiPoly({(d - 1 - s, s): Fraction(int(sp.Rational(sol[d + s]).p),
                                                int(sp.Rational(sol[d + s]).q))
                       for s in range(d)})
        out.extend([A, B])
    f._cofactors = tuple(out)
    return f._cofactors


def _size(poly: MultiPoly, v: Place) -> Fraction:
    """Sum of coefficient absolute values (sound bound at every place)."""
    total = Fraction(0)
    for c in poly.coeffs.values():
        total += abs_at_place_exact(c, v)
    return total


def _is_diagonal_unit_monomial(f: RegularMap, v: Place) -> bool:
    # P = c1*z^d, Q = c2*w^d with |c1|_v = |c2|_v = 1: the standard
    # estimate holds with C_v = 1 by the max-norm identity
    d = f.d
    if set(f.P.coeffs) != {(d, 0)} or set(f.Q.coeffs) != {(0, d)}:
        return False
    return (abs_at_place_exact(f.P.coefficient(d, 0), v) == 1
            and abs_at_place_exact(f.Q.coefficient(0, d), v) == 1)


def nullstellensatz_constant(f: RegularMap, v: Place) -> tuple:
    """(C_v, good_reduction) with C_v >= 1 certified for all points."""
    if v.is_finite:
        p = v.prime
        coeffs_integral = all(
            valuation(c, p) >= 0
            for c in list(f.P.coeffs.values()) + list(f.Q.coeffs.values()))
        if coeffs_integral and valuation(f.res, p) == 0:
            return Fraction(1), True
    if _is_diagonal_unit_monomial(f, v):
        return Fraction(1), True
    A1, B1, A2, B2 = _cofactors(f)
    absR = abs_at_place_exact(f.res, v)
    c1 = max(_size(A1, v) + _size(B1, v), _size(A2, v) + _size(B2, v))
    EP = f.P - f.top_P
    EQ = f.Q - f.top_Q
    e = max(_size(EP, v), _size(EQ, v))
    # lower bound: for m = max(|z|,|w|) >= m0 the cofactor identity gives
    # max(|P|,|Q|) >= (|R|/(2 c1)) m^d; below m0 use max(1,...) >= 1
    m0 = max(Fraction(1), 2 * c1 * e / absR)
    C_low = max(Fraction(1), 2 * c1 / absR, m0 ** f.d)
    C_up = max(Fraction(1), _size(f.P, v), _size(f.Q, v))
    return max(C_low, C_up), False


def bad_places(f: RegularMap) -> set:
    """Finite set of primes outside which C_p = 1 is certified."""
    primes = set()
    for c in list(f.P.coeffs.values()) + list(f.Q.coeffs.values()):
        primes |= set(sp.factorint(c.denominator))
    primes |= set(sp.factorint(abs(f.res.numerator)))
    return {int(p) for p in primes}


def _tail_iterations(C: Fraction, d: int, tol: Fraction) -> int:
    """Smallest n with log(C)/(d^n (d-1)) <= tol."""
    if C == 1:
        return 0
    target = log_of_fraction(C).upper / (Fraction(tol) * (d - 1))
    n = 0
    power = 1
    while power < target:
        power *= d
        n += 1
    return n


def _interval_with_tail(val: RealInterval, C: Fraction, d: int, n: int) -> RealInterval:
    if C == 1:
        out = val
    else:
        tail = log_of_fraction(C).upper / (d**n * (d - 1))
        out = RealInterval(val.lower - tail, val.upper + tail)
    return out.clamp_nonnegative()


def green_value(ctx: GreenContext, pt, tol=Fraction(1, 10**9)) -> RealInterval:
    """Certified enclosure of g_v at a rational point, width <= tol."""
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    z, w = Fraction(pt[0]), Fraction(pt[1])
    v, f = ctx.place, ctx.f
    if v.is_finite and ctx.good_reduction:
        m = _neg_min_valuation(z, w, v.prime)
        return _log_p_multiple(v.prime, m, tol)
    n = _tail_iterations(ctx.C, f.d, tol / 2)
    if v.is_finite:
        return _green_finite(ctx, z, w, n, tol)
    return _green_arch(ctx, z, w, n, tol)


def _neg_min_valuation(z: Fraction, w: Fraction, p: int) -> int:
    vals = [valuation(c, p) for c in (z, w) if c != 0]
    if not vals:
        return 0
    return max(0, -min(vals))


def _log_p_multiple(p: int, m: int, tol: Fraction) -> RealInterval:
    if m == 0:
        return RealInterval.exact(0)
    prec = DEFAULT_PREC
    while True:
        enc = log_of_fraction(Fraction(p), prec).scale(m)
        if enc.width <= tol:
            return enc
        prec *= 2


def _iv_poly(poly: MultiPoly) -> MultiPoly:
    # enclose each rational coefficient at the current iv working precision
    return MultiPoly({e: frac_to_mpi(c) for e, c in poly.coeffs.items()})


def _green_arch(ctx: GreenContext, z, w, n: int, tol) -> RealInterval:
    f, d = ctx.f, ctx.f.d
    prec = DEFAULT_PREC
    for _ in range(6):
        old = iv.prec
        try:
            iv.prec = prec
            Pt, Qt = _iv_poly(f.P), _iv_poly(f.Q)
            zz, ww = frac_to_mpi(z), frac_to_mpi(w)
            for _ in range(n):
                zz, ww = Pt.eval(zz, ww), Qt.eval(zz, ww)
            m = ivmax(iv.mpf(1), ivmax(abs(zz), abs(ww)))
            gn = iv.log(m) / iv.mpf(d) ** n
            val = RealInterval.from_mpi(gn)
        finally:
            iv.prec = old
        out = _interval_with_tail(val, ctx.C, d, n)
        if out.width <= tol:
            return out
        prec *= 2
    raise RuntimeError("green_value: precision escalation exhausted")


def _green_finite(ctx: GreenContext, z, w, n: int, tol) -> RealInterval:
    f, d, p = ctx.f, ctx.f.d, ctx.place.prime
    rel = 64
    for _ in range(6):
        try:
            zz = PAdic.from_rational(z, p, rel)
            ww = PAdic.from_rational(w, p, rel)
            for _ in range(n):
                zz, ww = f.P.eval(zz, ww), f.Q.eval(zz, ww)
            vals = []
            for c in (zz, ww):
                if c.is_exact_zero:
                    continue
                lo = c.valuation_lower()
                if lo < 0:
                    vals.append(c.valuation())  # needs exactness only when < 0
            m = max([0] + [-x for x in vals])
            base = _log_p_multiple(p, m, tol / 2).scale(Fraction(1, d**n))
            return _interval_with_tail(base, ctx.C, d, n)
        except PrecisionLoss:
            rel *= 2
    raise RuntimeError("green_value: p-adic precision escalation exhausted")


def green_homog(ctx: GreenContext, pt, tol=Fraction(1, 10**9)) -> RealInterval:
    """G_v on a nonzero triple: g_v of the affine part plus log|z0|_v,
    extended to z0 = 0 by the escape rate of the top binary forms."""
    tol = Fraction(tol)
    z0, z1, z2 = (Fraction(c) for c in pt)
    if z0 == z1 == z2 == 0:
        raise ValueError("zero vector has no homogeneous Green value")
    if z0 != 0:
        g = green_value(ctx, (z1 / z0, z2 / z0), tol / 2)
        ab = abs_at_place_exact(z0, ctx.place)
        if ab == 1:
            return g
        prec = DEFAULT_PREC
        while True:
            l = log_of_fraction(ab, prec)
            if l.width <= tol / 2:
                break
            prec *= 2
        return RealInterval(g.lower + l.lower, g.upper + l.upper)
    return _green_line_infinity(ctx, z1, z2, tol)


def _line_constant(ctx: GreenContext) -> Fraction:
    """Two-sided constant for max(|P_d|,|Q_d|) vs max(|z|,|w|)^d."""
    f, v = ctx.f, ctx.place
    if v.is_finite and ctx.good_reduction:
        return Fraction(1)
    if _is_diagonal_unit_monomial(f, v):
        return Fraction(1)
    A1, B1, A2, B2 = _cofactors(f)
    absR = abs_at_place_exact(f.res, v)
    c1 = max(_size(A1, v) + _size(B1, v), _size(A2, v) + _size(B2, v))
    up = max(_size(f.top_P, v), _size(f.top_Q, v))
    return max(Fraction(1), c1 / absR, up)


def _green_line_infinity(ctx: GreenContext, z1, z2, tol) -> RealInterval:
    f, v, d = ctx.f, ctx.place, ctx.f.d
    C = _line_constant(ctx)
    n = _tail_iterations(C, d, tol / 2) if C != 1 else 0
    if v.is_finite:
        p = v.prime
        rel = 64
        for _ in range(6):
            try:
                a = PAdic.from_rational(z1, p, rel)
                b = PAdic.from_rational(z2, p, rel)
                for _ in range(n):
                    a, b = f.top_P.eval(a, b), f.top_Q.eval(a, b)
                vals = [c.valuation() for c in (a, b) if not c.is_exact_zero]
                m = -min(vals)  # log max(|a|,|b|) = -min(val) * log p
                base = _log_p_multiple(p, 1, tol / (2 * max(1, abs(m)))) \
                    .scale(Fraction(m, d**n))
                out = _grow_by_tail_line(base, C, d, n)
                return out
            except PrecisionLoss:
                rel *= 2
        raise RuntimeError("green_homog: p-adic precision exhausted")
    prec = DEFAULT_PREC
    for _ in range(6):
        old = iv.prec
        try:
            iv.prec = prec
            At, Bt = _iv_poly(f.top_P), _iv_poly(f.top_Q)
            a, b = frac_to_mpi(z1), frac_to_mpi(z2)
            for _ in range(n):
                a, b = At.eval(a, b), Bt.eval(a, b)
            m = ivmax(abs(a), abs(b))
            val = RealInterval.from_mpi(iv.log(m) / iv.mpf(d) ** n)
        finally:
            iv.prec = old
        out = _grow_by_tail_line(val, C, d, n)
        if out.width <= tol:
            return out
        prec *= 2
    raise RuntimeError("green_homog: precision escalation exhausted")


def _grow_by_tail_line(val: RealInterval, C: Fraction, d: int, n: int) -> RealInterval:
    if C == 1:
        return val
    tail = log_of_fraction(C).upper / (d**n * (d - 1))
    return RealInterval(val.lower - tail, val.upper + tail)

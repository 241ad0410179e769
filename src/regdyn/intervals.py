"""Certified real enclosures.

Three layers:

* :class:`RealInterval` -- dyadic-rational endpoints, the type every
  certified numeric answer is reported in.
* a thin bridge to mpmath interval contexts, used internally for
  logarithms.  Each precision has its own context, built once and never
  mutated, so no computation depends on a global working precision.
  mpmath interval endpoints are dyadic floats with arbitrary-precision
  exponents, so the conversion back to :class:`RealInterval` is exact.
* :func:`escape_norm`, the orbit of a point under the homogeneous lift of a
  polynomial map on integers with error radii and exact scale exponents,
  the archimedean twin of :func:`regdyn.padic.escape_exponent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from mpmath.ctx_iv import MPIntervalContext

DEFAULT_PREC = 120


@cache
def iv_context(prec: int) -> MPIntervalContext:
    """The mpmath interval context working at ``prec`` bits."""
    ctx = MPIntervalContext()
    ctx.prec = prec
    return ctx


def _mpf_tuple_to_fraction(t) -> Fraction:
    sign, man, exp, bc = t
    if man == 0 and exp != 0:
        raise ValueError("non-finite mpf endpoint")
    f = Fraction(man) * Fraction(2) ** exp
    return -f if sign else f


@dataclass(frozen=True)
class RealInterval:
    """Closed interval [lower, upper] with dyadic rational endpoints."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"empty interval: {self.lower} > {self.upper}")

    @staticmethod
    def exact(x) -> "RealInterval":
        q = Fraction(x)
        return RealInterval(q, q)

    @staticmethod
    def from_mpi(x) -> "RealInterval":
        lo, hi = x._mpi_
        return RealInterval(_mpf_tuple_to_fraction(lo), _mpf_tuple_to_fraction(hi))

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def contains(self, x) -> bool:
        q = Fraction(x)
        return self.lower <= q <= self.upper

    def overlaps(self, other: "RealInterval") -> bool:
        return self.lower <= other.upper and other.lower <= self.upper

    def __add__(self, other):
        other = _coerce(other)
        return RealInterval(self.lower + other.lower, self.upper + other.upper)

    __radd__ = __add__

    def __neg__(self):
        return RealInterval(-self.upper, -self.lower)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def scale(self, q) -> "RealInterval":
        q = Fraction(q)
        if q >= 0:
            return RealInterval(self.lower * q, self.upper * q)
        return RealInterval(self.upper * q, self.lower * q)

    def clamp_nonnegative(self) -> "RealInterval":
        return RealInterval(max(self.lower, Fraction(0)), max(self.upper, Fraction(0)))

    def __repr__(self):
        return f"RealInterval({float(self.lower)!r}, {float(self.upper)!r})"


def _coerce(x) -> RealInterval:
    if isinstance(x, RealInterval):
        return x
    return RealInterval.exact(x)


def frac_to_mpi(q: Fraction, ctx: MPIntervalContext):
    """Enclosure of a rational in the interval context ``ctx``."""
    q = Fraction(q)
    return ctx.mpf(q.numerator) / ctx.mpf(q.denominator)


def log_of_fraction(q: Fraction, prec: int = DEFAULT_PREC) -> RealInterval:
    """Certified enclosure of log(q) for q > 0."""
    if q <= 0:
        raise ValueError("log of nonpositive rational")
    ctx = iv_context(prec)
    return RealInterval.from_mpi(ctx.log(frac_to_mpi(q, ctx)))


def _floor_scaled(q: Fraction, s: int) -> tuple:
    """(floor(q 2^s), r), r = 0 if that is exact, else 1."""
    num, den = q.numerator, q.denominator
    if s >= 0:
        num <<= s
    else:
        den <<= -s
    y, rem = divmod(num, den)
    return y, int(rem != 0)


def escape_norm(lift, z0: int, z1: Fraction, z2: Fraction, n: int, prec: int) -> tuple:
    """(m, k, D, lo, hi) with 2^m D^-k lo <= max(|a_n|, |b_n|) <= 2^m D^-k hi,
    where (a_n, b_n) is the n-th iterate of (z1, z2) under the map whose
    integer lift F' = D (z0^d, P^h, Q^h) (`regdyn.maps.IntegerLift`) is
    `lift`: for z0 = 1 on the affine plane, for z0 = 0 on the line at
    infinity, the lift being then that of the top forms.

    The true triple x_n = (z0, a_n, b_n) is
    2^m D^-k y_n, and y_n lies within R of the integer triple Y
    coordinatewise.  Each step evaluates F' at Y exactly, bounds
    |F'(y) - F'(Y)| by the absolute-value forms at |Y| + R minus at |Y|,
    and drops t low bits so that Y and R keep at most `prec` bits; then
    m <- d m + t and k <- d k + 1.  A point whose coordinates need few bits
    runs exactly (R = 0) until they outgrow `prec`."""
    d, D, forms = lift.d, lift.D, lift.forms
    pt = (Fraction(z0), Fraction(z1), Fraction(z2))
    s = prec - max(c.numerator.bit_length() - c.denominator.bit_length() for c in pt if c)
    if all(c.denominator & (c.denominator - 1) == 0 for c in pt):  # dyadic: exact
        s = min(s, max(c.denominator.bit_length() for c in pt) - 1)
    Y, R = zip(*(_floor_scaled(c, s) for c in pt))
    m, k = -s, 0
    for _ in range(n):
        vals = lift._monomials(Y)
        V = [sum(c * vals[e] for e, c in form) for form in forms]
        if any(R):
            u = lift._monomials([abs(y) + r for y, r in zip(Y, R)])
            errs = [x - abs(v) for x, v in zip(u, vals)]
            E = [sum(abs(c) * errs[e] for e, c in form) for form in forms]
        else:
            E = (0, 0, 0)
        t = max(0, max(x.bit_length() for x in (*V, *E)) - prec)
        if t:
            mask = (1 << t) - 1
            Y = [v >> t for v in V]
            R = [((e + mask) >> t) + bool(v & mask) for v, e in zip(V, E)]
        else:
            Y, R = V, E
        m, k = d * m + t, d * k + 1
    lo = max(max(abs(y) - r, 0) for y, r in zip(Y[1:], R[1:]))
    hi = max(abs(y) + r for y, r in zip(Y[1:], R[1:]))
    return m, k, D, lo, hi

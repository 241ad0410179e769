"""Certified real enclosures.

Three layers:

* :class:`RealInterval` -- dyadic-rational endpoints, the type every
  certified numeric answer is reported in.
* :func:`log_of_fraction`, the enclosure of a logarithm by mpmath's
  outward-rounded interval functions (`mpmath.libmp`), called at an
  explicit precision, so no computation depends on a global working
  precision.  Their endpoints are dyadic floats with arbitrary-precision
  exponents, so the conversion back to :class:`RealInterval` is exact.
* :func:`escape_norm`, the orbit of a point under the homogeneous lift of a
  polynomial map on integers with error radii and exact scale exponents,
  evaluated by the lift's compiled function, the error forms being
  F(|c|, |Y| + R) - F(|c|, |Y|); the archimedean twin of
  :func:`regdyn.padic.escape_exponent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import from_int, mpf_div, mpf_log, round_ceiling, round_floor

DEFAULT_PREC = 120


def _mpf_to_fraction(t) -> Fraction:
    """The value of a finite mpf tuple (sign, man, exp, bc): (-1)^sign man 2^exp."""
    sign, man, exp, bc = t
    if man == 0 and exp != 0:
        raise ValueError("non-finite mpf endpoint")
    if sign:
        man = -man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


@dataclass(frozen=True)
class RealInterval:
    """Closed interval [lower, upper] with dyadic rational endpoints."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"empty interval: {self.lower} > {self.upper}")

    @staticmethod
    def _ordered(lower: Fraction, upper: Fraction) -> "RealInterval":
        """[lower, upper], ordered by construction: no `__post_init__` check."""
        x = object.__new__(RealInterval)
        object.__setattr__(x, "lower", lower)
        object.__setattr__(x, "upper", upper)
        return x

    @staticmethod
    def exact(x) -> "RealInterval":
        q = Fraction(x)
        return RealInterval._ordered(q, q)

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
        return RealInterval._ordered(self.lower + other.lower, self.upper + other.upper)

    __radd__ = __add__

    def __neg__(self):
        return RealInterval._ordered(-self.upper, -self.lower)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def scale(self, q) -> "RealInterval":
        q = Fraction(q)
        if q >= 0:
            return RealInterval._ordered(self.lower * q, self.upper * q)
        return RealInterval._ordered(self.upper * q, self.lower * q)

    def clamp_nonnegative(self) -> "RealInterval":
        return RealInterval._ordered(max(self.lower, Fraction(0)), max(self.upper, Fraction(0)))

    def __repr__(self):
        return f"RealInterval({float(self.lower)!r}, {float(self.upper)!r})"


def _coerce(x) -> RealInterval:
    if isinstance(x, RealInterval):
        return x
    return RealInterval.exact(x)


def log_of_fraction(q: Fraction, prec: int = DEFAULT_PREC) -> RealInterval:
    """Certified enclosure of log(q) for a rational (Fraction or int)
    q > 0: the numerator and the denominator rounded outward to prec bits,
    their quotient and its logarithm enclosed at prec bits, so that the
    endpoints are those of mpmath's interval context `mpmath.iv` there."""
    if q.numerator <= 0:
        raise ValueError("log of nonpositive rational")
    return RealInterval(log_bound(q, prec, False), log_bound(q, prec, True))


def log_bound(q: Fraction, prec: int, upper: bool) -> Fraction:
    """The lower (upper) end of `log_of_fraction(q, prec)` alone, rounded
    down (up) at each step as mpmath's `mpi_div` and `mpi_log` round it."""
    r, s = (round_ceiling, round_floor) if upper else (round_floor, round_ceiling)
    x = mpf_div(from_int(q.numerator, prec, r), from_int(q.denominator, prec, s), prec, r)
    return _mpf_to_fraction(mpf_log(x, prec, r))


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
    coordinatewise.  Each step evaluates F' at Y exactly through the lift's
    compiled function F(c, ...), bounds |F'(y) - F'(Y)| by the error forms
    F(|c|, |Y| + R) - F(|c|, |Y|) (|Y^e| = |Y|^e for every monomial), and
    drops t low bits so that Y and R keep at most `prec` bits; then
    m <- d m + t and k <- d k + 1.  A point whose coordinates need few bits
    runs exactly (R = 0) until they outgrow `prec`."""
    d, D, F, c = lift.d, lift.D, lift.F, lift.c
    abs_c = tuple(map(abs, c))
    pt = (Fraction(z0), Fraction(z1), Fraction(z2))
    s = prec - max(q.numerator.bit_length() - q.denominator.bit_length() for q in pt if q)
    if all(q.denominator & (q.denominator - 1) == 0 for q in pt):  # dyadic: exact
        s = min(s, max(q.denominator.bit_length() for q in pt) - 1)
    (y0, r0), (y1, r1), (y2, r2) = (_floor_scaled(q, s) for q in pt)
    m, k = -s, 0
    for _ in range(n):
        v0, v1, v2 = F(c, y0, y1, y2)
        if r0 or r1 or r2:
            a0, a1, a2 = abs(y0), abs(y1), abs(y2)
            u0, u1, u2 = F(abs_c, a0 + r0, a1 + r1, a2 + r2)
            w0, w1, w2 = F(abs_c, a0, a1, a2)
            r0, r1, r2 = u0 - w0, u1 - w1, u2 - w2
        t = max(v0.bit_length(), v1.bit_length(), v2.bit_length(),
                r0.bit_length(), r1.bit_length(), r2.bit_length()) - prec
        if t > 0:  # Y = V >> t, R = ceil(E / 2^t) + 1 where bits are dropped
            mask = (1 << t) - 1
            y0, y1, y2 = v0 >> t, v1 >> t, v2 >> t
            r0 = ((r0 + mask) >> t) + bool(v0 & mask)
            r1 = ((r1 + mask) >> t) + bool(v1 & mask)
            r2 = ((r2 + mask) >> t) + bool(v2 & mask)
        else:
            y0, y1, y2, t = v0, v1, v2, 0
        m, k = d * m + t, d * k + 1
    lo = max(abs(y1) - r1, abs(y2) - r2, 0)
    hi = max(abs(y1) + r1, abs(y2) + r2)
    return m, k, D, lo, hi

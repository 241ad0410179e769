"""Certified real enclosures.

Two layers:

* :class:`RealInterval` -- dyadic-rational endpoints, the type every
  certified numeric answer is reported in.
* a thin bridge to mpmath interval contexts, used internally when
  transcendental functions (log, exp) or huge dynamic ranges are
  involved.  Each precision has its own context, built once and never
  mutated, so no computation depends on a global working precision.
  mpmath interval endpoints are dyadic floats with arbitrary-precision
  exponents, so the conversion back to :class:`RealInterval` is exact.
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

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        prods = [a * b for a in (self.lower, self.upper)
                 for b in (other.lower, other.upper)]
        return RealInterval(min(prods), max(prods))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.lower <= 0 <= other.upper:
            raise ZeroDivisionError("division by interval containing 0")
        recs = [Fraction(1) / e for e in (other.lower, other.upper)]
        return self * RealInterval(min(recs), max(recs))

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


def ivmax(a, b):
    """Interval max: [max lows, max highs] (mpmath's builtin max is not this)."""
    lo = a.a if a.a >= b.a else b.a
    hi = a.b if a.b >= b.b else b.b
    return a.ctx.mpf([lo.a, hi.b])


def log_of_fraction(q: Fraction, prec: int = DEFAULT_PREC) -> RealInterval:
    """Certified enclosure of log(q) for q > 0."""
    if q <= 0:
        raise ValueError("log of nonpositive rational")
    ctx = iv_context(prec)
    return RealInterval.from_mpi(ctx.log(frac_to_mpi(q, ctx)))

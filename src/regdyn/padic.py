"""Capped-precision p-adic arithmetic.

Only valuations of iterated polynomial values are needed downstream, so
elements store an exact valuation plus a unit known modulo p^rel.  Full
rational iteration would double bit sizes every step; here the unit part
stays bounded while the valuation (a plain integer) may grow freely.

Cancellation in additions can exhaust the known digits; the element then
degrades to an "inexact zero" carrying only a valuation lower bound, and
asking for its exact valuation raises :class:`PrecisionLoss` so callers
can restart at higher precision.
"""

from __future__ import annotations

from fractions import Fraction


class PrecisionLoss(ArithmeticError):
    pass


def _intval(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PAdic:
    """value = p^v * unit with unit known mod p^rel.

    unit == 0 encodes zeros: v is None for the exact zero, otherwise v is
    a certified lower bound on the valuation."""

    __slots__ = ("p", "v", "unit", "rel")

    def __init__(self, p: int, v, unit: int, rel: int):
        self.p = p
        self.v = v
        self.unit = unit
        self.rel = rel

    @staticmethod
    def exact_zero(p: int) -> "PAdic":
        return PAdic(p, None, 0, 0)

    @staticmethod
    def inexact_zero(p: int, bound: int) -> "PAdic":
        return PAdic(p, bound, 0, 0)

    @staticmethod
    def from_rational(q, p: int, rel: int) -> "PAdic":
        q = Fraction(q)
        if q == 0:
            return PAdic.exact_zero(p)
        num, den = q.numerator, q.denominator
        vn, vd = _intval(abs(num), p), _intval(den, p)
        num //= p**vn
        den //= p**vd
        mod = p**rel
        unit = num * pow(den, -1, mod) % mod
        return PAdic(p, vn - vd, unit, rel)

    @property
    def is_exact_zero(self) -> bool:
        return self.unit == 0 and self.v is None

    def valuation_lower(self):
        """Certified lower bound on the valuation (None = +infinity)."""
        return self.v

    def valuation(self) -> int:
        if self.unit != 0:
            return self.v
        raise PrecisionLoss("valuation known only up to a lower bound")

    def _coerce(self, other):
        if isinstance(other, PAdic):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, (int, Fraction)):
            return PAdic.from_rational(other, self.p, max(self.rel, 1))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self, o
        if a.is_exact_zero:
            return b
        if b.is_exact_zero:
            return a
        # absolute precision of each operand, then of the sum
        abs_a = a.v + (a.rel if a.unit else 0)
        abs_b = b.v + (b.rel if b.unit else 0)
        if a.unit == 0 or b.unit == 0:
            if a.unit == 0 and b.unit == 0:
                return PAdic.inexact_zero(self.p, min(a.v, b.v))
            reg, z = (a, b) if a.unit else (b, a)
            if reg.v >= z.v:
                return PAdic.inexact_zero(self.p, z.v)
            return PAdic(self.p, reg.v, reg.unit % self.p ** (min(reg.rel, z.v - reg.v)),
                         min(reg.rel, z.v - reg.v))
        vmin = min(a.v, b.v)
        absprec = min(abs_a, abs_b)
        k = absprec - vmin
        mod = self.p ** k
        # shifts can be astronomically large when valuations diverge along
        # an escaping orbit; anything shifted past the precision window is 0
        ta = a.unit * pow(self.p, a.v - vmin, mod) if a.v - vmin < k else 0
        tb = b.unit * pow(self.p, b.v - vmin, mod) if b.v - vmin < k else 0
        s = (ta + tb) % mod
        if s == 0:
            return PAdic.inexact_zero(self.p, absprec)
        t = _intval(s, self.p)
        return PAdic(self.p, vmin + t, s // self.p**t, absprec - vmin - t)

    __radd__ = __add__

    def __neg__(self):
        if self.unit == 0:
            return self
        return PAdic(self.p, self.v, (-self.unit) % self.p**self.rel, self.rel)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self, o
        if a.is_exact_zero or b.is_exact_zero:
            return PAdic.exact_zero(self.p)
        if a.unit == 0 or b.unit == 0:
            return PAdic.inexact_zero(self.p, a.v + b.v)
        rel = min(a.rel, b.rel)
        return PAdic(self.p, a.v + b.v, a.unit * b.unit % self.p**rel, rel)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        # an exact 1 seeds the product, so x**0 caps no precision even when x
        # is an inexact zero
        result = 1
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self):
        if self.is_exact_zero:
            return f"PAdic(0, p={self.p})"
        if self.unit == 0:
            return f"PAdic(O({self.p}^{self.v}))"
        return f"PAdic({self.p}^{self.v}*{self.unit} + O({self.p}^{self.v + self.rel}))"

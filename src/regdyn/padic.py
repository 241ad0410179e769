"""Capped-precision p-adic arithmetic.

Only valuations of iterated polynomial values are needed downstream, so
elements store an exact valuation plus a unit known modulo p^rel.  Full
rational iteration would double bit sizes every step; here the unit part
stays bounded while the valuation (a plain integer) may grow freely.

Cancellation in additions can exhaust the known digits; the element then
degrades to an "inexact zero" carrying only a valuation lower bound, and
asking for its exact valuation raises :class:`PrecisionLoss` so callers
can restart at higher precision.

The arithmetic is functions on ``(v, unit, rel)`` triples, the prime first;
:class:`PAdic` wraps a triple with its prime and its operators call them.
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


# value = p^v * unit with unit known mod p^rel.  unit == 0 encodes zeros:
# v is None for the exact zero, otherwise v is a certified lower bound on
# the valuation.
_ZERO = (None, 0, 0)


def _from_rational(p: int, q, rel: int) -> tuple:
    q = Fraction(q)
    if q == 0:
        return _ZERO
    num, den = q.numerator, q.denominator
    vn, vd = _intval(abs(num), p), _intval(den, p)
    num, den = num // p**vn, den // p**vd
    mod = p**rel
    return (vn - vd, num * pow(den, -1, mod) % mod, rel)


def _add(p: int, a: tuple, b: tuple) -> tuple:
    va, ua, ra = a
    vb, ub, rb = b
    if va is None:
        return b
    if vb is None:
        return a
    if not ua or not ub:
        if not ua and not ub:
            return (min(va, vb), 0, 0)
        (vr, ur, rr), vz = (a, vb) if ua else (b, va)
        if vr >= vz:
            return (vz, 0, 0)
        k = min(rr, vz - vr)
        return (vr, ur % p**k, k)
    # absolute precision of each operand, then of the sum
    vmin = min(va, vb)
    absprec = min(va + ra, vb + rb)
    k = absprec - vmin
    mod = p**k
    # shifts can be astronomically large when valuations diverge along
    # an escaping orbit; anything shifted past the precision window is 0
    ta = ua * pow(p, va - vmin, mod) if va - vmin < k else 0
    tb = ub * pow(p, vb - vmin, mod) if vb - vmin < k else 0
    s = (ta + tb) % mod
    if s == 0:
        return (absprec, 0, 0)
    t = _intval(s, p)
    return (vmin + t, s // p**t, k - t)


def _neg(p: int, a: tuple) -> tuple:
    v, unit, rel = a
    if unit == 0:
        return a
    return (v, -unit % p**rel, rel)


def _mul(p: int, a: tuple, b: tuple) -> tuple:
    va, ua, ra = a
    vb, ub, rb = b
    if va is None or vb is None:
        return _ZERO
    if not ua or not ub:
        return (va + vb, 0, 0)
    rel = min(ra, rb)
    return (va + vb, ua * ub % p**rel, rel)


def _pow(p: int, a: tuple, n: int) -> tuple:
    """a**n for n >= 1, by repeated squaring."""
    result = None
    while n:
        if n & 1:
            result = a if result is None else _mul(p, result, a)
        n >>= 1
        a = _mul(p, a, a) if n else a
    return result


class PAdic:
    """A triple of this module together with its prime."""

    __slots__ = ("p", "v", "unit", "rel")

    def __init__(self, p: int, v, unit: int, rel: int):
        self.p = p
        self.v = v
        self.unit = unit
        self.rel = rel

    @staticmethod
    def from_rational(q, p: int, rel: int) -> "PAdic":
        return PAdic(p, *_from_rational(p, q, rel))

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

    def _binary(self, op, other):
        """op on the triples of self and other, other coerced to this prime."""
        if isinstance(other, PAdic):
            if other.p != self.p:
                raise ValueError("mixed primes")
            o = (other.v, other.unit, other.rel)
        elif isinstance(other, (int, Fraction)):
            o = _from_rational(self.p, other, max(self.rel, 1))
        else:
            return NotImplemented
        return PAdic(self.p, *op(self.p, (self.v, self.unit, self.rel), o))

    def __add__(self, other):
        return self._binary(_add, other)

    __radd__ = __add__

    def __neg__(self):
        return PAdic(self.p, *_neg(self.p, (self.v, self.unit, self.rel)))

    def __sub__(self, other):
        return self._binary(lambda p, a, b: _add(p, a, _neg(p, b)), other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return self._binary(_mul, other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        # x**0 is an exact 1, which caps no precision even when x is an
        # inexact zero
        if n == 0:
            return 1
        return PAdic(self.p, *_pow(self.p, (self.v, self.unit, self.rel), n))

    def __repr__(self):
        if self.is_exact_zero:
            return f"PAdic(0, p={self.p})"
        if self.unit == 0:
            return f"PAdic(O({self.p}^{self.v}))"
        return f"PAdic({self.p}^{self.v}*{self.unit} + O({self.p}^{self.v + self.rel}))"

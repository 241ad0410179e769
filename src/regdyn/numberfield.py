"""Exact arithmetic in Q[x]/(m(x)) for an irreducible modulus m.

Used wherever orbits must be iterated exactly inside the field generated
by an algebraic coordinate (roots of unity on curves, fixed points at
infinity, ...).  m is kept as a primitive integer polynomial.  An element
is its integer numerators n_0..n_{D-1} over one positive denominator, in
lowest terms, so equality and hashing are exact and cheap, which is what
cycle detection needs.  A product is an integer
convolution reduced by integer pseudo-division (for a non-monic m, the
denominator takes the powers of m's leading coefficient); scaling by a
rational scales the numerators.  `coeffs` gives the Fraction coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from .polyalg import _conv, _Exact, _over_den, _sum


def _trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _product(a, b) -> list:
    """The product of two integer polynomials (ascending coefficient lists)."""
    return _conv(a, [(j, c) for j, c in enumerate(b) if c], len(a) + len(b) - 2)


def _pdivmod(a, b):
    """Integer pseudo-division of a by b (lists of ints, b[-1] != 0; a is
    overwritten): (s, q, r) with s*a == q*b + r and len(r) <= deg b, where
    s is a power of b's leading coefficient (1 when b is monic)."""
    n = len(b) - 1
    lead = b[-1]
    low = [(j, bj) for j, bj in enumerate(b[:n]) if bj]
    q = [0] * max(0, len(a) - n)
    s = 1
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k]
        if c:
            if lead != 1:
                for i in range(k):
                    a[i] *= lead
                for i in range(k - n + 1, len(q)):
                    q[i] *= lead
                s *= lead
            q[k - n] = c
            a[k] = 0
            for j, bj in low:
                a[k - n + j] -= c * bj
    return s, q, a[:n]


class NumberField:
    """Q[x]/(m) with m irreducible over Q."""

    def __init__(self, modulus: Sequence):
        ints = _trim(_over_den(modulus)[0])
        if len(ints) < 2:
            raise ValueError("modulus must have positive degree")
        g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
        self.modulus = tuple(c // g for c in ints)
        self.degree = len(self.modulus) - 1

    def _make(self, nums: list, den: int) -> "NFElement":
        """The element (sum_k nums[k] x^k) / den for a fresh list of ints
        and den > 0, reduced mod the modulus and put in lowest terms."""
        if len(nums) > self.degree:
            s, _q, nums = _pdivmod(nums, self.modulus)
            den *= s
        nums += [0] * (self.degree - len(nums))
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        return NFElement._make(self, tuple(nums), den)

    def __call__(self, coeffs) -> "NFElement":
        if isinstance(coeffs, NFElement):
            if coeffs.field is not self and coeffs.field.modulus != self.modulus:
                raise ValueError("element of a different field")
            return coeffs
        if isinstance(coeffs, (int, Fraction)):
            coeffs = [coeffs]
        return self._make(*_over_den(coeffs))

    def generator(self) -> "NFElement":
        return self([0, 1])

    def zero(self) -> "NFElement":
        return self(0)

    def one(self) -> "NFElement":
        return self(1)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        return f"NumberField(deg={self.degree})"


class NFElement(_Exact):
    """num / den in its field: `num` a tuple of field.degree ints, `den` a
    positive int, gcd(*num, den) == 1.  Built by its field."""

    __slots__ = ("field", "num", "den")

    def _set(self, field: NumberField, num: tuple, den: int):
        """A form that its field has already reduced and put in lowest terms."""
        self.field, self.num, self.den = field, num, den

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self.den) for c in self.num)

    def _lift(self, other):
        if isinstance(other, NFElement):
            if other.field is not self.field and other.field.modulus != self.field.modulus:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field(other)
        return NotImplemented

    def _plus(self, other, sign: int):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.field._make(*_sum(self.num, self.den, o.num, o.den, sign))

    def __neg__(self):
        return NFElement._make(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return self.field._make([a * p for a in self.num], self.den * q)
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.field._make(_product(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "NFElement":
        """Extended Euclid against the modulus on primitive integer polynomials
        (each remainder and its cofactor divided by their common content)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # invariant: t_i * num ≡ r_i (mod modulus)
        r0, t0 = list(self.field.modulus), []
        r1, t1 = _trim(list(self.num)), [1]
        while len(r1) > 1:
            s, q, r = _pdivmod(r0, r1)  # s*r0 = q*r1 + r
            r = _trim(r)
            if not r:
                raise ZeroDivisionError("element not invertible; modulus reducible?")
            t = [s * a - b for a, b in zip_longest(t0, _product(q, t1), fillvalue=0)]
            g = math.gcd(*r, *t)
            r0, t0, r1, t1 = r1, t1, [c // g for c in r], [c // g for c in t]
        # t1 * num ≡ r1[0], so 1 / (num / den) = den * t1 / r1[0]
        c = r1[0]
        sign = 1 if c > 0 else -1
        return self.field._make([sign * self.den * x for x in t1], abs(c))

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, n: int):
        return self.inverse() ** -n if n < 0 else _Exact.__pow__(self, n)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.field.modulus, self.num, self.den))

    def __repr__(self):
        return f"NFElement{self.coeffs}"

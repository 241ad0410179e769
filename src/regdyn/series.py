"""Exact truncated power series in one and two variables.

Coefficients are rationals: Fractions, with ints converted on the way in.
All operations truncate to a fixed order N, i.e. compute mod y^(N+1) resp.
mod total degree N+1; truncation order is part of the value and mixed-order
arithmetic truncates to the smaller order.

Products run on integer numerators over one common denominator per
operand: a plain int convolution, then one Fraction (one gcd) per output
coefficient instead of one Fraction multiply and add per pair of terms.
"""

from __future__ import annotations

import math
from fractions import Fraction

_ZERO = Fraction(0)


def _cf(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


def _numerators(cs):
    """Integer numerators of the Fractions cs over their least common
    denominator, and that denominator."""
    den = math.lcm(*[c.denominator for c in cs])
    return [c.numerator * (den // c.denominator) for c in cs], den


def _terms(s: "TruncSeries"):
    """Nonzero terms (k, numerator) of s over its common denominator, and that denominator."""
    ns, den = _numerators(s.coeffs)
    return [(k, c) for k, c in enumerate(ns) if c], den


def _terms2(s: "TruncSeries2", n: int):
    """Nonzero terms of s as (total degree, flat index i*(n+1)+j,
    numerator), sorted by degree, over their common denominator."""
    ns, den = _numerators(list(s.coeffs.values()))
    w = n + 1
    return sorted((i + j, i * w + j, c) for (i, j), c in zip(s.coeffs, ns)), den


class TruncSeries:
    """Univariate series a_0 + a_1 y + ... + a_N y^N (exact, mod y^{N+1})."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int):
        cs = [_cf(c) for c in coeffs[: order + 1]]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        self.coeffs = cs
        self.order = order

    @staticmethod
    def _of(coeffs: list, order: int) -> "TruncSeries":
        """Wrap len(coeffs) == order + 1 Fractions without re-checking them."""
        s = object.__new__(TruncSeries)
        s.coeffs, s.order = coeffs, order
        return s

    @staticmethod
    def zero(order: int) -> "TruncSeries":
        return TruncSeries([], order)

    @staticmethod
    def one(order: int) -> "TruncSeries":
        return TruncSeries([1], order)

    @staticmethod
    def identity(order: int) -> "TruncSeries":
        return TruncSeries([0, 1], order)

    @staticmethod
    def monomial(c, k: int, order: int) -> "TruncSeries":
        return TruncSeries([0] * k + [c], order)

    def __getitem__(self, k: int):
        return self.coeffs[k] if 0 <= k <= self.order else Fraction(0)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def valuation(self):
        """Order of vanishing; None for the zero truncation."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return None

    def truncate(self, order: int) -> "TruncSeries":
        if order == self.order:
            return self
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries._of(self.coeffs[: order + 1], order)

    def _common(self, other):
        n = min(self.order, other.order)
        return self.truncate(n), other.truncate(n)

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            cs = list(self.coeffs)
            if cs:  # order -1, the derivative of an order-0 series, has none
                cs[0] += other
            return TruncSeries._of(cs, self.order)
        a, b = self._common(other)
        return TruncSeries._of([x + y for x, y in zip(a.coeffs, b.coeffs)], a.order)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._of([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return TruncSeries([c * other for c in self.coeffs], self.order)
        a, b = self._common(other)
        return a._times(*_terms(b))

    def _times(self, tb, db) -> "TruncSeries":
        """self * b for b of the same order given as _terms(b)."""
        n = self.order
        na, da = _numerators(self.coeffs)
        out = [0] * (n + 1)
        for i, ai in enumerate(na):
            if ai:
                for j, bj in tb:
                    if i + j > n:
                        break
                    out[i + j] += ai * bj
        den = da * db
        return TruncSeries._of([Fraction(v, den) if v else _ZERO for v in out], n)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("use reciprocal for negative powers")
        result = TruncSeries.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner); inner must have zero constant term."""
        if inner[0] != 0:
            raise ValueError("inner series must vanish at 0")
        n = min(self.order, inner.order)
        a = self
        result = TruncSeries([a.coeffs[n]], n)
        tb = _terms(inner.truncate(n))
        for k in range(n - 1, -1, -1):  # Horner
            result = result._times(*tb) + a.coeffs[k]
        return result

    def reciprocal(self) -> "TruncSeries":
        """1/self; constant term must be invertible."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("reciprocal of a series vanishing at 0")
        inv0 = 1 / c0
        out = [inv0] + [_ZERO] * self.order
        for k in range(1, self.order + 1):
            s = 0
            for j in range(1, k + 1):
                if self.coeffs[j] != 0:
                    s = s + self.coeffs[j] * out[k - j]
            out[k] = -inv0 * s
        return TruncSeries(out, self.order)

    def __truediv__(self, other):
        if isinstance(other, TruncSeries):
            return self * other.reciprocal()
        return self * (Fraction(1) / Fraction(other))

    def derivative(self) -> "TruncSeries":
        return TruncSeries([k * self.coeffs[k] for k in range(1, self.order + 1)],
                           self.order - 1)

    def reversion(self) -> "TruncSeries":
        """Compositional inverse; needs a_0 = 0 and a_1 invertible."""
        if self.coeffs[0] != 0:
            raise ValueError("reversion needs zero constant term")
        a1 = self.coeffs[1]
        if a1 == 0:
            raise ValueError("reversion needs invertible linear term")
        inv1 = 1 / a1
        # g correct mod y^{m+1} stays correct and gains one order per pass:
        # self(g + delta) = self(g) + a1*delta + (higher valuation)
        g = TruncSeries([0, inv1], self.order)
        for _ in range(self.order):
            err = self.compose(g) - TruncSeries.identity(self.order)
            if err.is_zero():
                break
            g = g - err * inv1
        return g

    def nth_root_of_unit(self, n: int) -> "TruncSeries":
        """The unique n-th root with the same constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("root extraction needs constant term 1")
        r = TruncSeries.one(self.order)
        for _ in range(self.order + 2):  # Newton: r <- r - (r^n - s)/(n r^{n-1})
            err = r**n - self
            if err.is_zero():
                return r
            r = r - err * (r ** (n - 1) * n).reciprocal()
        raise RuntimeError("root iteration failed to stabilize")

    def eval(self, x):
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def to_series2(self, order: int, var: int = 1) -> "TruncSeries2":
        out = {}
        for k, c in enumerate(self.coeffs[: order + 1]):
            if c != 0:
                out[(0, k) if var == 1 else (k, 0)] = c
        return TruncSeries2(out, order)

    def __repr__(self):
        from .polyalg import MultiPoly
        terms = {(0, k): c for k, c in enumerate(self.coeffs) if c != 0}
        body = MultiPoly(terms).to_string(("y", "y")) if terms else "0"
        return f"TruncSeries({body} + O(y^{self.order + 1}))"


def log_unit(s: TruncSeries) -> TruncSeries:
    """log of a series with constant term 1, via (log s)' = s'/s."""
    if s.coeffs[0] != 1:
        raise ValueError("log needs constant term 1")
    d = (s.derivative() * s.truncate(s.order - 1).reciprocal()) \
        if s.order >= 1 else TruncSeries.zero(0)
    out = [Fraction(0)] * (s.order + 1)
    for k in range(1, s.order + 1):
        out[k] = d[k - 1] / k
    return TruncSeries(out, s.order)


def exp_series(a: TruncSeries) -> TruncSeries:
    """exp of a series with zero constant term (coefficient recursion e' = a'e)."""
    if a.coeffs[0] != 0:
        raise ValueError("exp needs zero constant term")
    out = [Fraction(1)] + [_ZERO] * a.order
    for k in range(1, a.order + 1):
        s = _ZERO
        for m in range(1, k + 1):
            if a.coeffs[m] != 0:
                s = s + m * a.coeffs[m] * out[k - m]
        out[k] = s / k
    return TruncSeries(out, a.order)


class TruncSeries2:
    """Bivariate series mod total degree N+1, sparse {(i, j): coeff}."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: dict, order: int):
        cs = {}
        for (i, j), c in coeffs.items():
            if i + j <= order:
                c = _cf(c)
                if c != 0:
                    cs[(i, j)] = c
        self.coeffs = cs
        self.order = order

    @staticmethod
    def _of(coeffs: dict, order: int) -> "TruncSeries2":
        """Wrap nonzero Fractions of total degree <= order without re-checking."""
        s = object.__new__(TruncSeries2)
        s.coeffs, s.order = coeffs, order
        return s

    @staticmethod
    def zero(order: int) -> "TruncSeries2":
        return TruncSeries2({}, order)

    @staticmethod
    def constant(c, order: int) -> "TruncSeries2":
        return TruncSeries2({(0, 0): c}, order)

    @staticmethod
    def variable(which: int, order: int) -> "TruncSeries2":
        return TruncSeries2({(1, 0) if which == 0 else (0, 1): 1}, order)

    def __getitem__(self, ij):
        return self.coeffs.get(tuple(ij), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self):
        if not self.coeffs:
            return None
        return min(i + j for i, j in self.coeffs)

    def truncate(self, order: int) -> "TruncSeries2":
        if order == self.order:
            return self
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries2(self.coeffs, order)

    def _common(self, other):
        if isinstance(other, TruncSeries2):
            n = min(self.order, other.order)
            return self.truncate(n), other.truncate(n)
        return self, TruncSeries2({(0, 0): other}, self.order)

    def __add__(self, other):
        a, b = self._common(other)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return TruncSeries2._of(out, a.order)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries2._of({e: -c for e, c in self.coeffs.items()}, self.order)

    def __sub__(self, other):
        a, b = self._common(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncSeries2):
            return TruncSeries2({e: c * other for e, c in self.coeffs.items()}, self.order)
        a, b = self._common(other)
        return a._times(*_terms2(b, a.order))

    def _times(self, tb, db) -> "TruncSeries2":
        """self * b for b of the same order given as _terms2(b, order)."""
        n = self.order
        w = n + 1  # x^i y^j sits at flat index i*w + j; sums never carry
        ta, da = _terms2(self, n)
        out = [0] * (w * w)
        for d1, k1, c1 in ta:
            room = n - d1
            for d2, k2, c2 in tb:
                if d2 > room:
                    break
                out[k1 + k2] += c1 * c2
        den = da * db
        return TruncSeries2._of({divmod(k, w): Fraction(v, den)
                                 for k, v in enumerate(out) if v}, n)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("use reciprocal for negative powers")
        result = TruncSeries2.constant(1, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, TruncSeries2):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def reciprocal(self) -> "TruncSeries2":
        """1/self; constant term must be invertible (Newton doubling)."""
        c0 = self.coeffs.get((0, 0), Fraction(0))
        if c0 == 0:
            raise ZeroDivisionError("reciprocal of a series vanishing at 0")
        inv0 = 1 / c0
        r = TruncSeries2.constant(inv0, self.order)
        known = 1
        while known <= self.order:
            r = r * (2 - self * r)
            known *= 2
        return r

    def __truediv__(self, other):
        if isinstance(other, TruncSeries2):
            return self * other.reciprocal()
        return self * (Fraction(1) / Fraction(other))

    def compose(self, u: "TruncSeries2", v: "TruncSeries2") -> "TruncSeries2":
        """self(u, v); both inner series must vanish at the origin.

        Fast paths when u is the identity in x, v is the identity in y, or
        v involves only y — the shapes every conjugacy here produces."""
        if u[(0, 0)] != 0 or v[(0, 0)] != 0:
            raise ValueError("inner series must vanish at the origin")
        n = min(self.order, u.order, v.order)
        u, v = u.truncate(n), v.truncate(n)
        u_is_x = u.coeffs == {(1, 0): _cf(1)}
        v_is_y = v.coeffs == {(0, 1): _cf(1)}
        if u_is_x and v_is_y:
            return self.truncate(n)
        v_pure_y = all(i == 0 for i, _ in v.coeffs)
        by_i = {}
        for (i, j), c in self.coeffs.items():
            by_i.setdefault(i, {})[j] = c
        imax = max(by_i) if by_i else 0
        # the inner series in the form the Horner steps below take, made once
        vu = TruncSeries([v[(0, j)] for j in range(n + 1)], n) \
            if v_pure_y and not v_is_y else None
        tv = None if v_pure_y else _terms2(v, n)
        rows = []
        for i in range(imax + 1):
            row = by_i.get(i, {})
            if v_is_y:
                qi = TruncSeries2({(0, j): c for j, c in row.items()}, n)
            elif v_pure_y:
                cs = [Fraction(0)] * (n + 1)
                for j, c in row.items():
                    cs[j] = c
                qi = TruncSeries(cs, n).compose(vu).to_series2(n)
            else:
                qi = TruncSeries2.zero(n)
                if row:
                    jmax = max(row)
                    for j in range(jmax, 0, -1):
                        qi = (qi + row.get(j, 0))._times(*tv)
                    qi = qi + row.get(0, 0)
            rows.append(qi)
        if u_is_x:
            out = {}
            for i, qi in enumerate(rows):
                for (a, b), c in qi.coeffs.items():
                    if a + i + b <= n:
                        e = (a + i, b)
                        out[e] = out.get(e, 0) + c
            return TruncSeries2(out, n)
        result = rows[imax]
        tu = _terms2(u, n)
        for i in range(imax - 1, -1, -1):
            result = result._times(*tu) + rows[i]
        return result

    def coefficient_in_x(self, i: int) -> TruncSeries:
        """The series p_i(y) in self = sum_i x^i p_i(y)."""
        out = [Fraction(0)] * (self.order + 1)
        for (a, j), c in self.coeffs.items():
            if a == i:
                out[j] = c
        return TruncSeries(out, self.order)

    def restrict_y_axis(self) -> TruncSeries:
        """self(0, y) as a univariate series."""
        return self.coefficient_in_x(0)

    def restrict_x_axis(self) -> TruncSeries:
        out = [Fraction(0)] * (self.order + 1)
        for (i, j), c in self.coeffs.items():
            if j == 0:
                out[i] = c
        return TruncSeries(out, self.order)

    def divisible_by(self, i: int, j: int) -> bool:
        """True when every monomial is a multiple of x^i y^j."""
        return all(a >= i and b >= j for a, b in self.coeffs)

    def eval(self, x, y):
        total = 0
        for (i, j), c in sorted(self.coeffs.items()):
            total = total + c * x**i * y**j
        return total

    def __repr__(self):
        from .polyalg import MultiPoly
        body = MultiPoly(dict(self.coeffs)).to_string(("x", "y")) if self.coeffs else "0"
        return f"TruncSeries2({body} + O(deg {self.order + 1}))"

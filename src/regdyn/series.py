"""Exact truncated power series in one and two variables.

Coefficients are rationals.  All operations truncate to a fixed order N,
i.e. compute mod y^(N+1) resp. mod total degree N+1; truncation order is
part of the value and mixed-order arithmetic truncates to the smaller order.

A series is stored as integer numerators `num` over one positive common
denominator `den`, in lowest terms: gcd(den, *num) == 1, and the zero
series has den 1.  `num` is a list of order + 1 ints for TruncSeries and a
dict {(i, j): nonzero int} for TruncSeries2.  The form is canonical, so
`==` compares it directly.  A product is an integer convolution of the
numerators followed by one gcd; sums and scalar operations rescale
numerators.  Series are immutable: each builds the list of nonzero terms
its products walk once, on first use, and shares it with every product.
`coeffs` is a read-only Fraction view (a list, resp. a dict), also built
once on first use.

A univariate series also keeps its power table (`_powers`): the integer
numerators of s^0..s^k over den^k, built once and read by every use.
Composition computes no product for a term the truncation drops.  A
bivariate composition whose inner series is one univariate series,
(x, v(y)), (u(x), y) or (x*b(y), y), reads its terms off that table, which
both components of a germ share; other polynomials with scalar
coefficients in a bivariate series take baby-step/giant-step (Paterson &
Stockmeyer, SIAM J. Comput. 2, 1973; `_eval`).

Three solvers, one job each.  `_triangular` solves every linear
one-variable recurrence (Knuth, TAOCP Vol. 2, 4.7): reversion (the system
sum_k g_k [y^j] f^k = [j = 1] over the table of f), division, exp, log,
and the Koenigs and Böttcher equations of `localdyn`.  A bivariate
quotient is the same kind of pass over the cells by degree
(`TruncSeries2.__truediv__`).  `_fixed_point` iterates the equations that
are not linear in their unknown.  `reciprocal` is 1/self for both types.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .polyalg import MultiPoly, _conv, _Exact, _over_den, _sum, _sum2


def _rat(c):
    """(numerator, positive denominator) of a rational scalar."""
    if not isinstance(c, (int, Fraction)):
        c = Fraction(c)
    return c.numerator, c.denominator


def _conv2(ta: list, tb: list, n: int, w: int) -> list:
    """The flat integer numerators of a * b mod total degree n + 1, x^i y^j
    at index i*w + j (w > n); ta and tb list the terms (degree, flat index,
    numerator) of a and b by degree."""
    out = [0] * (w * w)
    for d1, k1, c1 in ta:
        room = n - d1
        if room < 0:
            break
        for d2, k2, c2 in tb:
            if d2 > room:
                break
            out[k1 + k2] += c1 * c2
    return out


@functools.lru_cache(maxsize=65)
def _cells(w: int) -> list:
    """(flat index i*w + j, (i, j), i + j) for every i + j < w, by degree:
    reads a flat array of width w back into terms."""
    return [(i * w + d - i, (i, d - i), d) for d in range(w) for i in range(d + 1)]


def _unflatten(out: list, w: int) -> dict:
    """The nonzero terms {(i, j): c} of a flat array of width w, by degree."""
    return {e: out[k] for k, e, _ in _cells(w) if out[k]}


def _triangular(table: list, den: int, first: int, n: int, rhs, diag) -> "TruncSeries":
    """sum_k x_k den^k y^k mod y^(n+1) for the x_first..x_n (x_k = 0 below
    first) with
        diag(j) * x_j = rhs(j) - sum_{first <= k < j} x_k * table[k][j],
    int table entries (the rows past the table read as zero), rational
    rhs(j) and diag(j); diag is called only when the right side is nonzero,
    else x_j is 0.  The x_k are kept over one common denominator Q, which
    grows by the least factor that keeps the new x_j * Q integral; the sum
    runs over the nonzero x_k only."""
    X, Q, nz = [0] * (n + 1), 1, []
    for j in range(first, n + 1):
        p, q = _rat(rhs(j))
        r = p * Q - q * sum(X[k] * table[k][j] for k in nz)
        if not r:
            continue
        a, b = _rat(diag(j))
        r, qa = r * b, q * a  # x_j * Q = r / qa
        f = abs(qa) // math.gcd(r, qa)
        if f != 1:
            X, Q, r = [c * f for c in X], Q * f, r * f
        X[j] = r // qa
        if j < len(table):
            nz.append(j)
    return TruncSeries._make([x * den**k for k, x in enumerate(X)], Q, n)


def _lift(s, order: int):
    """s as a series of a higher order, its missing terms zero."""
    num = s.num + [0] * (order - s.order) if isinstance(s, TruncSeries) else s.num
    return type(s)._make(num, s.den, order)


def _fixed_point(step, start, N: int):
    """The fixed point of step at order N, from start.  An order-gaining pass
    fixes one more coefficient: the pass for coefficient k runs at order k,
    then passes at order N confirm; ArithmeticError if pass N + 2 changes it."""
    x = start.truncate(0)
    for k in range(N + 1):
        x = step(_lift(x, k))
    for _ in range(N + 2):
        nxt = step(x)
        if nxt == x:
            return x
        x = nxt
    raise ArithmeticError("fixed-point iteration did not settle")


class _Series(_Exact):
    """The operators TruncSeries and TruncSeries2 share past `_Exact`'s.  A
    subclass gives `_set(num, den, order)`, `_plus`, `__neg__`, `__mul__`,
    `truncate`, and `__truediv__` for a series divisor."""

    __slots__ = ()

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return (self.order == other.order and self.den == other.den
                    and self.num == other.num)
        return NotImplemented

    def _common(self, other):
        n = min(self.order, other.order)
        return self.truncate(n), other.truncate(n)

    def __truediv__(self, other):
        return self * (Fraction(1) / Fraction(other))

    def reciprocal(self):
        """1/self; the constant term must be nonzero."""
        return (self * 0 + 1) / self


class TruncSeries(_Series):
    """Univariate series a_0 + a_1 y + ... + a_N y^N (exact, mod y^{N+1}),
    a_k = num[k] / den."""

    __slots__ = ("num", "den", "order", "_view", "_nz", "_pw")

    def __init__(self, coeffs, order: int):
        num, den = _over_den(coeffs[: order + 1])
        self._set(num + [0] * (order + 1 - len(num)), den, order)

    def _set(self, num: list, den: int, order: int):
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
        self.num, self.den, self.order = num, den, order
        self._view = self._nz = self._pw = None

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

    @property
    def coeffs(self) -> list:
        """The coefficients a_0..a_N as Fractions (a view: do not modify)."""
        if self._view is None:
            self._view = [Fraction(c, self.den) for c in self.num]
        return self._view

    def _nonzero(self) -> list:
        """The nonzero (k, num[k]) by increasing k."""
        if self._nz is None:
            self._nz = [(k, c) for k, c in enumerate(self.num) if c]
        return self._nz

    def _powers(self, k: int) -> list:
        """The power table up to k: entry i lists the integer numerators of
        num^i mod y^(order+1), so self^i = entry / den^i.  Kept on self and
        extended on demand."""
        if self._pw is None:
            self._pw = [[1] + [0] * self.order]
        pw = self._pw
        while len(pw) <= k:
            pw.append(_conv(pw[-1], self._nonzero(), self.order))
        return pw

    def __getitem__(self, k: int):
        return Fraction(self.num[k], self.den) if 0 <= k <= self.order else Fraction(0)

    def is_zero(self) -> bool:
        return not any(self.num)

    def valuation(self):
        """Order of vanishing; None for the zero truncation."""
        for k, c in enumerate(self.num):
            if c:
                return k
        return None

    def truncate(self, order: int) -> "TruncSeries":
        if order == self.order:
            return self
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries._make(self.num[: order + 1], self.den, order)

    def shift(self, k: int) -> "TruncSeries":
        """self * y^k at the same order; k < 0 divides by y^(-k), which
        needs the coefficients of y^0..y^(-k-1) to vanish."""
        n = self.order
        if k >= 0:
            return TruncSeries._make(([0] * k + self.num)[: n + 1], self.den, n)
        if any(self.num[:-k]):
            raise ValueError(f"series not divisible by y^{-k}")
        return TruncSeries._make((self.num[-k:] + [0] * -k)[: n + 1], self.den, n)

    def _plus(self, other, sign: int) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            p, q = _rat(other)
            return self._plus(TruncSeries._make([p] + [0] * self.order, q, self.order), sign)
        a, b = self._common(other)
        return TruncSeries._make(*_sum(a.num, a.den, b.num, b.den, sign), a.order)

    def __neg__(self):
        return TruncSeries._make([-c for c in self.num], self.den, self.order)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            p, q = _rat(other)
            return TruncSeries._make([c * p for c in self.num], self.den * q, self.order)
        a, b = self._common(other)
        return a._times(b, a.order)

    def _times(self, b: "TruncSeries", n: int) -> "TruncSeries":
        """self * b mod y^(n+1), the terms either lacks read as zero."""
        return TruncSeries._make(_conv(self.num[: n + 1], b._nonzero(), n), self.den * b.den, n)

    def _horner(self, rows: dict, n: int) -> "TruncSeries":
        """sum_i rows[i] * self^i mod y^(n+1), rows[i] of order >= n, on
        integer numerators over one denominator: the partial sum that self^i
        multiplies later is kept to order n - i*val(self)."""
        val = self.valuation() or n + 1
        top = max((i for i in rows if i * val <= n), default=None)
        if top is None:
            return TruncSeries.zero(n)
        den = math.lcm(*(rows[i].den for i in rows if i <= top))
        acc = [c * (den // rows[top].den) for c in rows[top].num[: n - top * val + 1]]
        scale, tb = 1, self._nonzero()
        for i in range(top - 1, -1, -1):
            m = n - i * val
            acc, scale = _conv(acc, tb, m), scale * self.den
            if i in rows:
                f = den // rows[i].den * scale
                acc = [a + c * f for a, c in zip(acc, rows[i].num)]
        return TruncSeries._make(acc + [0] * (n + 1 - len(acc)), den * scale, n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self / other, other a scalar or a series b with b_0 != 0: the
        quotient q solves sum_k q_k B_(j-k) = a_j * b.den, B = b.num, a
        triangular system with diagonal B_0 (`_triangular`)."""
        if not isinstance(other, TruncSeries):
            return super().__truediv__(other)
        a, b = self._common(other)
        n, B = a.order, b.num
        if not B[0]:
            raise ZeroDivisionError("division by a series vanishing at 0")
        table = [[0] * k + B[: n + 1 - k] for k in range(n + 1)]
        return _triangular(table, 1, 0, n, lambda j: Fraction(a.num[j] * b.den, a.den),
                           lambda j: B[0])

    def compose(self, inner):
        """self(inner); inner, a TruncSeries or TruncSeries2, must vanish at 0.
        The numerators of self are evaluated at inner, by _eval when inner is
        bivariate; self.den divides out at the end."""
        val = inner.valuation()
        if val == 0:
            raise ValueError("inner series must vanish at 0")
        n, a = min(self.order, inner.order), self.num
        if isinstance(inner, TruncSeries2):
            r = inner._eval([dict(enumerate(a[: n + 1]))], n)[0]
            return TruncSeries2._make(r.num, r.den * self.den, n)
        # Horner on integer numerators, reduced once at the end: the partial
        # sum that inner^k multiplies later is kept to order n - k*val(inner)
        val, tb, di = val or n + 1, inner._nonzero(), inner.den
        r, dr = [a[n // val]], 1
        for k in range(n // val - 1, -1, -1):
            r = _conv(r, tb, n - k * val)
            dr *= di
            r[0] += a[k] * dr
        return TruncSeries._make(r + [0] * (n + 1 - len(r)), dr * self.den, n)

    def reversion(self) -> "TruncSeries":
        """Compositional inverse; needs a_0 = 0 and a_1 invertible.

        g(self) = y reads sum_{k<=j} g_k [y^j] self^k = [j = 1], triangular
        since self^k = (a_1 y)^k + O(y^(k+1)): with g_k = x_k den^k its
        coefficients come off the power table of self."""
        n = self.order
        if self.num[0] != 0:
            raise ValueError("reversion needs zero constant term")
        if n < 1 or self.num[1] == 0:
            raise ValueError("reversion needs invertible linear term")
        pw = self._powers(n)
        return _triangular(pw, self.den, 1, n, lambda j: int(j == 1), lambda j: pw[j][j])

    def to_series2(self, order: int, var: int = 1) -> "TruncSeries2":
        num = {((0, k) if var == 1 else (k, 0)): c
               for k, c in enumerate(self.num[: order + 1]) if c}
        return TruncSeries2._make(num, self.den, order)

    def __repr__(self):
        terms = {(0, k): c for k, c in enumerate(self.num) if c}
        body = MultiPoly._make(terms, self.den).to_string(("y", "y"))
        return f"TruncSeries({body} + O(y^{self.order + 1}))"


def log_unit(s: TruncSeries) -> TruncSeries:
    """log of a series with constant term 1: L = log s solves s L' = s', i.e.
    j S_0 L_j = j S_j - sum_{0<k<j} k S_(j-k) L_k with S = s.num."""
    if s[0] != 1:
        raise ValueError("log needs constant term 1")
    S, n = s.num, s.order
    table = [[0] * k + [k * c for c in S[: n + 1 - k]] for k in range(n + 1)]
    return _triangular(table, 1, 1, n, lambda j: j * S[j], lambda j: j * S[0])


def exp_series(a: TruncSeries) -> TruncSeries:
    """exp of a series with zero constant term: e = exp(a) solves e' = a' e,
    i.e. j D e_j = sum_{k<j} (j-k) A_(j-k) e_k with e_0 = 1, a = A/D."""
    if a.num[0] != 0:
        raise ValueError("exp needs zero constant term")
    A, D, n = a.num, a.den, a.order
    table = [[0] * k + [-i * A[i] for i in range(n + 1 - k)] for k in range(n + 1)]
    return _triangular(table, 1, 0, n, lambda j: int(j == 0), lambda j: j * D or 1)


class TruncSeries2(_Series):
    """Bivariate series mod total degree N+1: the coefficient of x^i y^j is
    num[(i, j)] / den, and num holds the nonzero numerators only."""

    __slots__ = ("num", "den", "order", "_view", "_nz", "_uni", "_by_degree")

    def __init__(self, coeffs: dict, order: int):
        keep = [((i, j), c) for (i, j), c in coeffs.items() if i + j <= order]
        num, den = _over_den([c for _, c in keep])
        self._set({e: c for (e, _), c in zip(keep, num) if c}, den, order)

    def _set(self, num: dict, den: int, order: int):
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
        self.num, self.den, self.order = num, den, order
        self._view = self._uni = None
        self._nz, self._by_degree = {}, False

    @staticmethod
    def zero(order: int) -> "TruncSeries2":
        return TruncSeries2({}, order)

    @staticmethod
    def constant(c, order: int) -> "TruncSeries2":
        return TruncSeries2({(0, 0): c}, order)

    @staticmethod
    def variable(which: int, order: int) -> "TruncSeries2":
        return TruncSeries2({(1, 0) if which == 0 else (0, 1): 1}, order)

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients {(i, j): Fraction} (a view: do not modify)."""
        if self._view is None:
            self._view = {e: Fraction(c, self.den) for e, c in self.num.items()}
        return self._view

    def _nonzero(self, w: int) -> list:
        """The terms as (i + j, flat index i*w + j, numerator), by degree;
        kept per width.  A product's terms come by degree already."""
        nz = self._nz.get(w)
        if nz is None:
            nz = self._nz[w] = [(i + j, i * w + j, c) for (i, j), c in self.num.items()]
            if not self._by_degree:
                nz.sort()
        return nz

    def _one_variable(self) -> tuple:
        """(var, t) when self is one univariate series t: var 1 for t(y),
        0 for t(x), 2 for x*t(y); else (None, None).  t, and with it its power
        table, is kept on self."""
        if self._uni is None:
            rows = {i for i, _ in self.num}
            if rows <= {0}:
                self._uni = 1, self.coefficient_in_x(0)
            elif all(j == 0 for _, j in self.num):
                self._uni = 0, self.restrict_x_axis()
            elif rows == {1}:
                self._uni = 2, self.coefficient_in_x(1)
            else:
                self._uni = None, None
        return self._uni

    def __getitem__(self, ij):
        return Fraction(self.num.get(tuple(ij), 0), self.den)

    def is_zero(self) -> bool:
        return not self.num

    def valuation(self):
        if not self.num:
            return None
        return min(i + j for i, j in self.num)

    def truncate(self, order: int) -> "TruncSeries2":
        if order == self.order:
            return self
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries2._make({(i, j): c for (i, j), c in self.num.items()
                                   if i + j <= order}, self.den, order)

    def shift(self, di: int, dj: int) -> "TruncSeries2":
        """self * x^di y^dj at the same order; a negative exponent divides,
        which needs every monomial to be divisible."""
        n = self.order
        out = {}
        for (i, j), c in self.num.items():
            if i + di < 0 or j + dj < 0:
                raise ValueError("negative exponent in shift")
            if i + di + j + dj <= n:
                out[(i + di, j + dj)] = c
        return TruncSeries2._make(out, self.den, n)

    def _plus(self, other, sign: int) -> "TruncSeries2":
        if isinstance(other, TruncSeries2):
            a, b = self._common(other)
            return TruncSeries2._make(*_sum2(a.num, a.den, b.num, b.den, sign), a.order)
        p, q = _rat(other)
        if not p:
            return self
        return TruncSeries2._make(*_sum2(self.num, self.den, {(0, 0): p}, q, sign),
                                  self.order)

    def __neg__(self):
        return TruncSeries2._make({e: -c for e, c in self.num.items()}, self.den, self.order)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries2):
            p, q = _rat(other)
            num = {e: c * p for e, c in self.num.items()} if p else {}
            return TruncSeries2._make(num, self.den * q, self.order)
        a, b = self._common(other)
        return a._times(b, a.order)

    def _times(self, b: "TruncSeries2", n: int) -> "TruncSeries2":
        """self * b mod total degree n + 1, the terms either lacks read as zero."""
        w = n + 1  # x^i y^j at flat index i*w + j: no carries below degree w
        out = _conv2(self._nonzero(w), b._nonzero(w), n, w)
        r = TruncSeries2._make(_unflatten(out, w), self.den * b.den, n)
        r._by_degree = True
        return r

    def _horner(self, rows: dict, n: int) -> "TruncSeries2":
        """sum_i rows[i] * self^i mod degree n + 1, rows[i] of order >= n, on
        integer numerators over one denominator: the partial sum that self^i
        multiplies later is kept to order n - i*val(self)."""
        val = self.valuation() or n + 1
        top = max((i for i in rows if i * val <= n), default=None)
        if top is None:
            return TruncSeries2.zero(n)
        w, den = n + 1, math.lcm(*(rows[i].den for i in rows if i <= top))
        acc, scale, tb = [0] * (w * w), 1, self._nonzero(w)
        for i in range(top, -1, -1):
            m = n - i * val
            if i < top:
                terms = [(d, k, acc[k]) for k, _, d in _cells(w) if acc[k]]
                acc, scale = _conv2(terms, tb, m, w), scale * self.den
            if i in rows:
                f = den // rows[i].den * scale
                for (a, b), c in rows[i].num.items():
                    if a + b <= m:
                        acc[a * w + b] += c * f
        return TruncSeries2._make(_unflatten(acc, w), den * scale, n)

    def _sum_powers(self, t: TruncSeries, var: int, terms: list, n: int) -> "TruncSeries2":
        """The sum of c * x^a * y^b * t^p over the (a, b, p, c) in terms, over
        self.den (c are numerators of self), mod total degree n + 1, with t a
        series in x (var 0) or y (var 1): every t^p comes off its power table."""
        top = max((p for _, _, p, _ in terms), default=0)
        pw, w = t._powers(top), n + 1
        dpow = [1]
        for _ in range(top):
            dpow.append(dpow[-1] * t.den)
        step, out = (w if var == 0 else 1), [0] * (w * w)
        for a, b, p, c in terms:
            f, at = c * dpow[top - p], a * w + b
            for k, x in enumerate(pw[p][: n + 1 - a - b]):
                if x:
                    out[at + k * step] += f * x
        return TruncSeries2._make(_unflatten(out, w), self.den * dpow[top], n)

    def _eval(self, polys: list, n: int) -> list:
        """[p(self) for p in polys] mod degree n + 1, p a dict {k: int}; self
        vanishes at 0 and has order >= n.  Each p runs Horner in W = self^m
        over blocks that combine the shared self^0..self^(m-1); m makes the
        fewest products, about 2*sqrt(k) for one p of degree k."""
        val = self.valuation() or n + 1
        polys = [{k: c for k, c in p.items() if c and k * val <= n} for p in polys]
        tops = [max(p, default=0) for p in polys]
        m = min(range(1, max(tops, default=0) + 2), key=lambda m:  # the fewest products
                max(m - 2, 0) + (m > 1 and max(tops) >= m) + sum(t // m for t in tops))
        baby = [None, self]  # self^0 enters each block as its constant term
        while len(baby) < m:
            baby.append(baby[-1]._times(self, n))
        big = baby[-1]._times(self, n) if m > 1 and max(tops) >= m else self
        out = []
        for p, t in zip(polys, tops):
            acc = None
            for b in range(t // m, -1, -1):  # W^b multiplies this partial sum
                keep, lo = n - b * m * val, b * m
                terms = [(p[k], baby[k - lo]) for k in range(lo + 1, lo + m) if k in p]
                if acc is not None:
                    terms.append((1, acc._times(big, keep)))
                acc = self._lincomb(p.get(lo, 0), terms, keep)
            out.append(acc)
        return out

    @staticmethod
    def _lincomb(c0: int, terms: list, n: int) -> "TruncSeries2":
        """c0 + the sum of c * s over (int c, s) in terms, mod total degree n + 1."""
        den = math.lcm(*[s.den for _, s in terms])
        out = {(0, 0): c0 * den}
        for c, s in terms:
            f = c * (den // s.den)
            for (i, j), x in s.num.items():
                if i + j <= n:
                    out[i, j] = out.get((i, j), 0) + f * x
        return TruncSeries2._make({e: x for e, x in out.items() if x}, den, n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self / other, other a scalar or a series b with b_00 != 0: one
        pass over the cells by degree (Knuth, TAOCP Vol. 2, 4.7).  A cell
        holds R times the products scattered into it less a, until its
        quotient numerator over R replaces that and is scattered against the
        other terms of b, as in `_conv2`; R grows by the least factor that
        keeps the new numerator integral, as in `_triangular`."""
        if not isinstance(other, TruncSeries2):
            return super().__truediv__(other)
        a, b = self._common(other)
        n, w = a.order, a.order + 1
        tb = b._nonzero(w)
        if not tb or tb[0][0]:
            raise ZeroDivisionError("division by a series vanishing at 0")
        b0, rest, R = tb[0][2], tb[1:], 1
        out = [0] * (w * w)
        for (i, j), c in a.num.items():
            out[i * w + j] = -c
        for k, _, d in _cells(w):
            r = -out[k]
            if not r:
                continue
            f = abs(b0) // math.gcd(r, b0)
            if f != 1:
                out, R, r = [x * f for x in out], R * f, r * f
            x = out[k] = r // b0
            room = n - d
            for d2, k2, c2 in rest:
                if d2 > room:
                    break
                out[k + k2] += x * c2
        q = TruncSeries2._make(_unflatten(out, w), R * a.den, n)
        return q if b.den == 1 else q * b.den

    def compose(self, u: "TruncSeries2", v: "TruncSeries2") -> "TruncSeries2":
        """self(u, v); both inner series must vanish at the origin.

        x(u, v) is u and y(u, v) is v, with no product.  Else a term
        c x^i y^j with i*val(u) + j*val(v) > n is skipped.  The
        substitutions (x, v(y)), (u(x), y) and (x*b(y), y) read every term
        off the power table of the one univariate series they hold
        (_sum_powers).  Otherwise, if every row is a scalar, self(u) is one
        _eval; else the rows sum_j c_ij v^j share the powers of v (_eval),
        and are summed by Horner in u (_horner), or shifted when u = x."""
        if (0, 0) in u.num or (0, 0) in v.num:
            raise ValueError("inner series must vanish at the origin")
        n = min(self.order, u.order, v.order)
        s, u, v = self.truncate(n), u.truncate(n), v.truncate(n)
        if s.den == 1 and s.num in ({(1, 0): 1}, {(0, 1): 1}):  # self is x or y
            return u if (1, 0) in s.num else v
        u_is_x = u.den == 1 and u.num == {(1, 0): 1}
        v_is_y = v.den == 1 and v.num == {(0, 1): 1}
        vu, vv = u.valuation() or n + 1, v.valuation() or n + 1
        kept = [(i, j, c) for (i, j), c in s.num.items() if i * vu + j * vv <= n]
        var, t = v._one_variable() if u_is_x else u._one_variable() if v_is_y else (None, None)
        if u_is_x and var == 1:
            return s._sum_powers(t, 1, [(i, 0, j, c) for i, j, c in kept], n)
        if v_is_y and var == 0:
            return s._sum_powers(t, 0, [(0, j, i, c) for i, j, c in kept], n)
        if v_is_y and var == 2:
            return s._sum_powers(t, 1, [(i, j, i, c) for i, j, c in kept], n)
        by_i = {}  # the numerators of s by row; s.den divides out at the end
        for i, j, c in kept:
            by_i.setdefault(i, {})[j] = c
        if not u_is_x and all(row.keys() == {0} for row in by_i.values()):
            result = u._eval([{i: row[0] for i, row in by_i.items()}], n)[0]
        else:
            if v_is_y:
                rows = [TruncSeries2._make({(0, j): c for j, c in row.items()}, 1, n)
                        for row in by_i.values()]
            else:
                rows = v._eval(list(by_i.values()), n)
            rows = dict(zip(by_i, rows))
            result = (TruncSeries2._lincomb(0, [(1, q.shift(i, 0)) for i, q in rows.items()], n)
                      if u_is_x else u._horner(rows, n))
        return TruncSeries2._make(result.num, result.den * s.den, n)

    def coefficient_in_x(self, i: int) -> TruncSeries:
        """The series p_i(y) in self = sum_i x^i p_i(y)."""
        out = [0] * (self.order + 1)
        for (a, j), c in self.num.items():
            if a == i:
                out[j] = c
        return TruncSeries._make(out, self.den, self.order)

    def restrict_x_axis(self) -> TruncSeries:
        out = [0] * (self.order + 1)
        for (i, j), c in self.num.items():
            if j == 0:
                out[i] = c
        return TruncSeries._make(out, self.den, self.order)

    def divisible_by(self, i: int, j: int) -> bool:
        """True when every monomial is a multiple of x^i y^j."""
        return all(a >= i and b >= j for a, b in self.num)

    def __repr__(self):
        body = MultiPoly._make(dict(self.num), self.den).to_string(("x", "y"))
        return f"TruncSeries2({body} + O(deg {self.order + 1}))"

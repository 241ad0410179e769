"""Regular polynomial endomorphisms of the affine plane.

A polynomial map f = (P, Q) of degree d is *regular* when the top-degree
forms P_d, Q_d share no projective zero, i.e. their homogeneous resultant
is nonzero.  Such a map extends to the projective plane, fixes the line
at infinity, and restricts there to the degree-d map [P_d : Q_d].
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polyalg import MultiPoly, _over_den, parse_poly


class NotRegular(ValueError):
    pass


class DegreeTooLow(ValueError):
    pass


class BitSizeCap(RuntimeError):
    pass


def _sylvester_rows(p: MultiPoly, q: MultiPoly, d: int) -> list:
    """Sylvester matrix of two binary forms of formal degree d: rows
    z^(d-1-s) w^s * p, then * q, column j the coefficient of z^(2d-1-j) w^j.
    Padding to formal degree d handles a zero at [1:0] uniformly."""
    rows = []
    for form in (p, q):
        c = [form.coefficient(d - k, k) for k in range(d + 1)]
        rows += [[c[j - s] if 0 <= j - s <= d else Fraction(0) for j in range(2 * d)]
                 for s in range(d)]
    return rows


def _solve_rational(rows: list, rhs: list = ()) -> tuple:
    """(det, xs) for a square matrix over Q: its determinant and, for each
    column b of rhs, the solution x of rows · x = b (xs is None when det = 0),
    by fraction-free (Bareiss) elimination on [rows | rhs], its rows cleared
    of denominators, then back-substitution over the integer determinant."""
    n = len(rows)
    m, dens = zip(*[_over_den(list(row) + [b[i] for b in rhs]) for i, row in enumerate(rows)])
    m = list(m)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0), None
        if piv != k:
            m[k], m[piv], sign = m[piv], m[k], -sign
        top, p = m[k], m[k][k]
        for i in range(k + 1, n):
            r, c = m[i], m[i][k]
            m[i] = [0] * (k + 1) + [(p * r[j] - c * top[j]) // prev for j in range(k + 1, len(r))]
        prev = p
    xs = []
    for col in range(n, n + len(rhs)):
        y = [0] * n  # y = prev * x, integral by Cramer's rule
        for i in range(n - 1, -1, -1):
            y[i] = (prev * m[i][col] - sum(m[i][j] * y[j] for j in range(i + 1, n))) // m[i][i]
        xs.append([Fraction(v, prev) for v in y])
    return Fraction(sign * prev, math.prod(dens)), xs


def binary_form_resultant(p: MultiPoly, q: MultiPoly, d: int) -> Fraction:
    """Resultant of two binary forms of formal degree d (Sylvester determinant)."""
    return _solve_rational(_sylvester_rows(p, q, d))[0]


# the step cap of every exact orbit of a point: affine (the preperiodicity
# verdict and the Green shortcut), on the line at infinity, and on a curve
ORBIT_CAP = 64


def _exact_orbit(step, start, max_steps: int, too_big) -> tuple:
    """The exact orbit of `start` under `step`, for cycle detection: (orbit,
    k) with step(orbit[-1]) == orbit[k], the first point that repeats; or
    (orbit, None), the orbit ending after `max_steps` steps or at the first
    point after `start` with too_big(point) true, which it includes."""
    seen = {start: 0}
    orbit = [start]
    for n in range(1, max_steps + 1):
        nxt = step(orbit[-1])
        if nxt in seen:
            return orbit, seen[nxt]
        orbit.append(nxt)
        if too_big(nxt):
            break
        seen[nxt] = n
    return orbit, None


class RegularMap:
    """Certified regular endomorphism; immutable after construction."""

    def __init__(self, P: MultiPoly, Q: MultiPoly, d: int, top_P: MultiPoly,
                 top_Q: MultiPoly, res: Fraction):
        self.P = P
        self.Q = Q
        self.d = d
        self.top_P = top_P
        self.top_Q = top_Q
        self.res = res

    @property
    def degree(self) -> int:
        return self.d

    def apply(self, pt):
        z, w = pt
        return (self.P.eval(z, w), self.Q.eval(z, w))

    def iterate(self, n: int, pt, max_bits: int = 10**6):
        """Exact n-th image of a point with rational (or number-field)
        coordinates; raises BitSizeCap if coordinates blow up."""
        if n < 0:
            raise ValueError("iterate needs n >= 0")
        z, w = pt
        for _ in range(n):
            z, w = self.P.eval(z, w), self.Q.eval(z, w)
            if isinstance(z, Fraction) and isinstance(w, Fraction):
                bits = max(z.numerator.bit_length(), z.denominator.bit_length(),
                           w.numerator.bit_length(), w.denominator.bit_length())
                if bits > max_bits:
                    raise BitSizeCap(f"coordinate size {bits} bits exceeds cap")
        return (z, w)

    def __repr__(self):
        return f"RegularMap(({self.P.to_string()}, {self.Q.to_string()}), d={self.d})"


def make_regular_map(P, Q) -> RegularMap:
    """Certify and build a regular map from two polynomials (or strings)."""
    if isinstance(P, str):
        P = parse_poly(P)
    if isinstance(Q, str):
        Q = parse_poly(Q)
    d = max(P.degree, Q.degree)
    if d < 2:
        raise DegreeTooLow(f"degree {d} < 2")
    top_P = P.homogeneous_part(d)
    top_Q = Q.homogeneous_part(d)
    res = binary_form_resultant(top_P, top_Q, d)
    if res == 0:
        raise NotRegular("top-degree forms share a projective zero "
                         "(homogeneous resultant vanishes)")
    return RegularMap(P, Q, d, top_P, top_Q, res)

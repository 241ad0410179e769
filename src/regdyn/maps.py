"""Regular polynomial endomorphisms of the affine plane.

A polynomial map f = (P, Q) of degree d is *regular* when the top-degree
forms P_d, Q_d share no projective zero, i.e. their homogeneous resultant
is nonzero.  Such a map extends to the projective plane, fixes the line
at infinity, and restricts there to the degree-d map [P_d : Q_d].

`make_regular_map` certifies a map by one elimination of the transposed
Sylvester matrix, which gives the resultant and the cofactors of the Green
constants together, and builds its integer lift, which every orbit and
Green kernel evaluates through one straight-line function compiled per
support (`_kernel`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

from .polyalg import MultiPoly, parse_poly


class NotRegular(ValueError):
    pass


class DegreeTooLow(ValueError):
    pass


def _sylvester_rows(p: MultiPoly, q: MultiPoly, d: int) -> list:
    """Sylvester matrix of two binary forms of formal degree d, on their
    integer numerators: rows z^(d-1-s) w^s * p.num, then * q.num, column j
    the coefficient of z^(2d-1-j) w^j, so that its determinant is the
    resultant times (p.den q.den)^d.  Padding to formal degree d handles a
    zero at [1:0] uniformly."""
    rows = []
    for form in (p, q):
        c = [form.num.get((d - k, k), 0) for k in range(d + 1)]
        rows += [[c[j - s] if 0 <= j - s <= d else 0 for j in range(2 * d)] for s in range(d)]
    return rows


def _solve_rational(rows: list, rhs: list = ()) -> tuple:
    """(det, ys) for a square integer matrix: its determinant and, for each
    column b of rhs, y = det·x, x the rational solution of rows · x = b (ys
    is None when det = 0), by fraction-free (Bareiss) elimination on
    [rows | rhs], then back-substitution over the last pivot, ±det, so that
    every number stays an integer (y is integral by Cramer's rule)."""
    n = len(rows)
    m = [list(row) + [b[i] for b in rhs] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            m[k], m[piv], sign = m[piv], m[k], -sign
        top, p = m[k], m[k][k]
        for i in range(k + 1, n):
            r, c = m[i], m[i][k]
            m[i] = [0] * (k + 1) + [(p * r[j] - c * top[j]) // prev for j in range(k + 1, len(r))]
        prev = p
    ys = []
    for col in range(n, n + len(rhs)):
        y = [0] * n  # prev * x
        for i in range(n - 1, -1, -1):
            y[i] = (prev * m[i][col] - sum(m[i][j] * y[j] for j in range(i + 1, n))) // m[i][i]
        ys.append([sign * v for v in y])
    return sign * prev, ys


# the step cap of every exact orbit of a point: of a rational point of P^2
# (the preperiodicity verdict and the Green shortcut) or an algebraic point
# at infinity, all also cut at the height box of regdyn.green, and on a curve
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


@lru_cache(maxsize=128)
def _kernel(support: tuple):
    """The function F(c, x0, x1, x2) that evaluates an integer lift with
    this support (`IntegerLift.support`) and coefficients c at (x0, x1, x2):
    one straight-line sum c[k] x0^a x1^i x2^j per coordinate, the powers
    built once by repeated products.  Its source is generated from the
    exponents and the coefficient indices alone, so one compiled function
    serves every map of one support, and any evaluation order gives the
    same integers."""
    d, *forms = support
    exps = [[(d, 0, 0)]] + [[(d - i - j, i, j) for i, j in form] for form in forms]
    terms = [t for form in exps for t in form]

    def power(v, e):
        return f"x{v}" if e == 1 else f"x{v}_{e}"
    body = [f"{power(v, e)} = {power(v, e - 1)} * x{v}"
            for v in range(3) for e in range(2, max(t[v] for t in terms) + 1)]
    index = iter(range(len(terms)))
    sums = [" + ".join(" * ".join([f"c[{next(index)}]"]
                                  + [power(v, e) for v, e in enumerate(t) if e]) for t in form)
            or "0" for form in exps]
    src = "def F(c, x0, x1, x2):\n" + "".join(
        f"    {line}\n" for line in body + [f"return [{', '.join(sums)}]"])
    namespace = {}
    exec(compile(src, "<regdyn.maps._kernel>", "exec"), namespace)
    return namespace["F"]


class IntegerLift:
    """The homogeneous lift F' = D·(z0^d, P^h, Q^h) of a pair (P, Q) of
    degree d, P^h and Q^h being P and Q made homogeneous in (z0, z1, z2) and
    D = lcm(P.den, Q.den), so that every coefficient is an integer.  At
    z0 = 1 it is (P, Q) scaled, at z0 = 0 the top forms scaled.

    `support` is (d, the exponents (i, j) of P's terms, then of Q's), each
    term z0^(d-i-j) z1^i z2^j, and `c` the integer coefficients: D for the
    z0^d of the first coordinate, then those of P's terms and Q's, in the
    order of `support`.  `F` is the compiled function of that support
    (`_kernel`), called as F(c, x0, x1, x2); every evaluation of the lift
    goes through it."""

    def __init__(self, P: MultiPoly, Q: MultiPoly):
        self.d = d = max(P.degree, Q.degree)
        self.D = D = math.lcm(P.den, Q.den)
        terms = [sorted(g.num.items()) for g in (P, Q)]
        self.support = (d, *(tuple(e for e, _ in t) for t in terms))
        self.c = (D, *(c * (D // g.den) for g, t in zip((P, Q), terms) for _, c in t))

    @cached_property
    def F(self):
        return _kernel(self.support)

    def __call__(self, X) -> list:
        """F'(X), exactly."""
        return self.F(self.c, *X)

    def step(self, X: tuple) -> tuple:
        """The primitive triple (`_primitive`) on the line through F'(X): the
        one exact step of every orbit of a rational point."""
        return _primitive(self.F(self.c, *X))


def _primitive(V) -> tuple:
    """The integer triple V divided by its gcd and signed so that its first
    coordinate is positive or, when that is 0, its last nonzero one: one
    triple for each point of the projective plane."""
    g = math.gcd(*V)
    if next(v for v in (V[0], V[2], V[1]) if v) < 0:
        g = -g
    return tuple(v // g for v in V)


def _triple(pt) -> tuple:
    """The primitive integer triple (`_primitive`) of a nonzero rational triple."""
    pt = [Fraction(c) for c in pt]
    L = math.lcm(*(c.denominator for c in pt))
    return _primitive([c.numerator * (L // c.denominator) for c in pt])


def _affine(X) -> tuple:
    """The affine point (x1/x0, x2/x0) of a triple with x0 != 0, as Fractions."""
    return Fraction(X[1], X[0]), Fraction(X[2], X[0])


class RegularMap:
    """Certified regular endomorphism; immutable after construction, its
    cofactors and Green constants computed on first use.  `lift` is the
    integer lift (`IntegerLift`) of (P, Q); at z0 = 0 it is D (0, P_d, Q_d),
    the lift of the top forms."""

    def __init__(self, P: MultiPoly, Q: MultiPoly, d: int, top_P: MultiPoly,
                 top_Q: MultiPoly, res: Fraction, solutions: list):
        self.P = P
        self.Q = Q
        self.d = d
        self.top_P = top_P
        self.top_Q = top_Q
        self.res = res
        self._solutions = solutions  # of make_regular_map's elimination, for _cofactors
        self.lift = IntegerLift(P, Q)
        # regdyn.green's constants, found on first use: (C_v, good
        # reduction) by place, and the height support with Λ (`height_box`)
        self._constants = {}
        self._height = None

    @property
    def degree(self) -> int:
        return self.d

    def apply(self, pt):
        """(P, Q) at a point of any ring: the reference the integer lift is tested against."""
        z, w = pt
        return (self.P.eval(z, w), self.Q.eval(z, w))

    @cached_property
    def _monomial(self):
        """(c1, c2, swapped) when P and Q are monomials, else None: then f is
        (c1 z^d, c2 w^d), or (c1 w^d, c2 z^d) when swapped, c1 and c2
        Fractions.  A regular monomial map has no other shape: P and Q are
        their own top forms, a monomial z^i w^j with i, j > 0 vanishes at
        both [1 : 0] and [0 : 1], one of which is a zero of the other form
        (of degree d >= 2), and z^d and z^d (or w^d and w^d) share a zero."""
        if len(self.P.num) != 1 or len(self.Q.num) != 1:
            return None
        ((i, _j), c1), = self.P.coeffs.items()
        (c2,) = self.Q.coeffs.values()
        return c1, c2, i == 0

    @cached_property
    def _cofactors(self) -> tuple:
        """Binary forms (A1,B1,A2,B2) of degree d-1 with

            A1*P_d + B1*Q_d = Res * z^(2d-1),   A2*P_d + B2*Q_d = Res * w^(2d-1),

        unique since the Sylvester determinant Res is nonzero: Res times the
        solutions of `make_regular_map`'s one elimination, read from its
        integer vectors with no system solved."""
        d, (P, Q) = self.d, (self.top_P, self.top_Q)
        scale = (P.den * Q.den) ** d
        return tuple(MultiPoly._make({(d - 1 - s, s): g.den * y[k + s]
                                      for s in range(d) if y[k + s]}, scale)
                     for y in self._solutions for k, g in ((0, P), (d, Q)))

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
    # one elimination of N^T, N the integer Sylvester matrix: det N^T = det N
    # = Res t, t = (P_d.den Q_d.den)^d, and its vectors y (N^T y = det e_0,
    # det e_(2d-1)) are t A / P_d.den, then t B / Q_d.den, for the cofactors
    # A, B of `RegularMap._cofactors`
    n = 2 * d
    det, ys = _solve_rational(list(zip(*_sylvester_rows(top_P, top_Q, d))),
                              [[int(k == target) for k in range(n)] for target in (0, n - 1)])
    if det == 0:
        raise NotRegular("top-degree forms share a projective zero "
                         "(homogeneous resultant vanishes)")
    return RegularMap(P, Q, d, top_P, top_Q, Fraction(det, (top_P.den * top_Q.den) ** d), ys)

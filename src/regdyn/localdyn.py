"""Local dynamics at a fixed point of the line at infinity.

Exact truncated-series implementations of the normal-form pipeline:
localization of a regular map at a fixed point at infinity, the
super-stable manifold graph, Böttcher/Koenigs linearizations, the saddle
and parabolic normal forms — plus numeric verifiers for the rescaling
limit and the parabolic graph transform in sector coordinates.

Germs are written (x, y) with {y = 0} the line at infinity:

    f(x, y) = (lam*x + mu*y + g(x,y),  y^d (1 + h(x,y)))

with lam != 0, h(0,0) = 0 and g of order >= 2.  All conjugacies fix the
y = 0 axis and are recorded so every normal-form step can be re-verified
via Phi o G = f o Phi exactly at the truncation order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .maps import RegularMap
from .polyalg import _eval_terms, _integer_nthroot
from .series import TruncSeries, TruncSeries2, _fixed_point, _triangular, exp_series, log_unit


class GermShapeError(ValueError):
    pass


class ResonanceError(ValueError):
    pass


class ContractionError(RuntimeError):
    pass


def _settle(step, start, N: int):
    """_fixed_point, a step that does not settle reported as a GermShapeError."""
    try:
        return _fixed_point(step, start, N)
    except ArithmeticError as exc:
        raise GermShapeError(str(exc)) from exc


def _x2(n):
    return TruncSeries2.variable(0, n)


def _y2(n):
    return TruncSeries2.variable(1, n)


class LocalGerm:
    """Truncated germ (first, second) of the shape described above."""

    def __init__(self, first: TruncSeries2, second: TruncSeries2, d: int):
        N = min(first.order, second.order)
        first, second = first.truncate(N), second.truncate(N)
        if first[(0, 0)] != 0 or second[(0, 0)] != 0:
            raise GermShapeError("germ must fix the origin")
        if not second.divisible_by(0, d):
            raise GermShapeError(f"second component not divisible by y^{d}")
        if second[(0, d)] != 1:
            raise GermShapeError("second component must be y^d*(1 + h), h(0,0)=0")
        lam = first[(1, 0)]
        if lam == 0:
            raise GermShapeError("multiplier lam = 0 (superattracting)")
        self.first = first
        self.second = second
        self.d = d
        self.N = N

    @property
    def lam(self):
        return self.first[(1, 0)]

    @property
    def mu(self):
        return self.first[(0, 1)]

    def h_part(self) -> TruncSeries2:
        """h with second = y^d*(1 + h)."""
        return self.second.shift(0, -self.d) - 1

    def x_row(self, i: int) -> TruncSeries:
        return self.first.coefficient_in_x(i)

    def __repr__(self):
        return f"LocalGerm({self.first!r}, {self.second!r}, d={self.d})"


# ---------------------------------------------------------------------------
# conjugacies


class Conjugacy:
    """An invertible coordinate change Phi fixing the origin.

    conjugate(f) returns (G, f o Phi) with G = Phi^{-1} o f o Phi, which
    _solve finds from the components of f o Phi; forward_pair gives the
    components (u, v) of Phi."""

    def forward_pair(self, n: int):
        raise NotImplementedError

    def _solve(self, germ: LocalGerm, f1: TruncSeries2, f2: TruncSeries2) -> LocalGerm:
        raise NotImplementedError

    def conjugate(self, germ: LocalGerm) -> tuple:
        pushed = self._push(germ)
        return self._solve(germ, *pushed), pushed

    def _push(self, germ: LocalGerm):
        """(f o Phi) components."""
        u, v = self.forward_pair(germ.N)
        return germ.first.compose(u, v), germ.second.compose(u, v)

    def apply_to(self, g1: TruncSeries2, g2: TruncSeries2):
        """(Phi o G) components for a candidate conjugated germ G."""
        u, v = self.forward_pair(g1.order)
        return u.compose(g1, g2), v.compose(g1, g2)


class Shear(Conjugacy):
    """Phi = (x + phi(y), y)."""

    def __init__(self, phi: TruncSeries):
        if phi[0] != 0:
            raise ValueError("shear must fix the origin")
        self.phi = phi

    def forward_pair(self, n):
        return _x2(n) + self.phi.to_series2(n), _y2(n)

    def _solve(self, germ, f1, f2):
        g1 = f1 - self.phi.compose(f2)
        return LocalGerm(g1, f2, germ.d)


class HigherScale(Conjugacy):
    """Phi = (x*(1 + phi(y)*x^n), y); for n >= 1 the identity modulo x^{n+1}."""

    def __init__(self, phi: TruncSeries, n: int):
        self.phi = phi
        self.n = n

    def forward_pair(self, order):
        x = _x2(order)
        return x * (self.phi.to_series2(order) * x**self.n + 1), _y2(order)

    def _solve(self, germ, f1, f2):
        # G1 = F1 / (1 + phi(G2)*G1^n): one pass for n = 0, where the right
        # side does not involve G1, else fixed-point iteration
        phi2 = self.phi.compose(f2)

        def step(g1):
            return f1 * (phi2 * g1**self.n + 1).reciprocal()
        g1 = step(f1) if self.n == 0 else _settle(step, f1, germ.N)
        return LocalGerm(g1, f2, germ.d)


class YCoord(Conjugacy):
    """New vertical coordinate y_new = beta(y_old): Phi = (x, beta^{-1}(y))."""

    def __init__(self, beta: TruncSeries):
        self.beta = beta
        self.binv = beta.reversion()

    def forward_pair(self, n):
        return _x2(n), self.binv.to_series2(n)

    def _solve(self, germ, f1, f2):
        g2 = self.beta.compose(f2)
        return LocalGerm(f1, g2, germ.d)


class XCoord(Conjugacy):
    """New horizontal coordinate x_new = psi(x_old): Phi = (psi^{-1}(x), y)."""

    def __init__(self, psi: TruncSeries):
        self.psi = psi
        self.pinv = psi.reversion()

    def forward_pair(self, n):
        return self.pinv.to_series2(n, var=0), _y2(n)

    def _solve(self, germ, f1, f2):
        g1 = self.psi.compose(f1)
        return LocalGerm(g1, f2, germ.d)


@dataclass
class NormalFormResult:
    germ: LocalGerm
    conjugacies: list  # elementary steps, applied left to right
    intermediates: list  # germs between the steps (source first)
    pushes: list = field(default_factory=list)  # f o Phi of each step

    def verify(self) -> bool:
        """Phi o G = f o Phi exactly at every step, against the f o Phi
        each step was solved from."""
        return all(step.apply_to(tgt.first, tgt.second) == pushed
                   for step, tgt, pushed in zip(self.conjugacies, self.intermediates[1:],
                                                self.pushes))

    def _record(self, step: Conjugacy) -> LocalGerm:
        """Append step and the germ it conjugates self.germ to, with the
        f o Phi it was solved from."""
        self.germ, pushed = step.conjugate(self.germ)
        self.conjugacies.append(step)
        self.intermediates.append(self.germ)
        self.pushes.append(pushed)
        return self.germ


# ---------------------------------------------------------------------------
# localization


def _nth_root_fraction(c: Fraction, n: int) -> Fraction:
    """Exact rational n-th root, or raise."""
    if c < 0 and n % 2 == 0:
        raise ValueError("no real root")
    num, num_exact = _integer_nthroot(abs(c.numerator), n)
    den, den_exact = _integer_nthroot(c.denominator, n)
    if not (num_exact and den_exact):
        raise ValueError(f"{c} has no rational {n}-th root")
    return Fraction(-num if c < 0 else num, den)


def localize_at_infinity(f: RegularMap, point: tuple, N: int = 16) -> LocalGerm:
    """Expand f near a fixed point of the line at infinity.

    Chart: x is the coordinate along the line at infinity centered at the
    point, y the reciprocal of the distinguished affine coordinate, so
    {y = 0} is the line at infinity.  point = (coordinate, chart), as in an
    InfinityPoint, with a rational AlgebraicNumber coordinate and lam != 0."""
    coord, chart = point
    if not coord.is_rational():
        raise NotImplementedError("algebraic fixed points not supported here")
    b = coord.as_rational()
    d = f.d
    # in chart 0 the distinguished affine coordinate is z (y = 1/z, x = w/z - b);
    # in chart 1 it is w (y = 1/w, x = z/w - b).  A term c z^i w^j of P or Q
    # becomes c (x + b)^e y^(d-i-j), e = j in chart 0 and i in chart 1
    def chart_poly(g):  # by the binomial theorem
        out = {}
        for (i, j), c in g.coeffs.items():
            e = j if chart == 0 else i
            for t in range(e + 1):
                out[t, d - i - j] = out.get((t, d - i - j), 0) + c * math.comb(e, t) * b**(e - t)
        return TruncSeries2(out, N)
    D2, Nm2 = (chart_poly(g) for g in ((f.P, f.Q) if chart == 0 else (f.Q, f.P)))
    c0 = D2[(0, 0)]
    if c0 == 0:
        raise ValueError("point is not in the domain of this chart")
    inv = D2.reciprocal()
    first = (Nm2 - D2 * b) * inv
    second = inv.shift(0, d)
    if first[(0, 0)] != 0:
        raise ValueError("point is not fixed by the map at infinity")
    if first[(1, 0)] == 0:
        raise GermShapeError("superattracting fixed point (lam = 0)")
    # normalize the y^d coefficient to 1 by scaling y -> s*y, s^(d-1) = D(0,0)
    s = _nth_root_fraction(Fraction(c0), d - 1)
    if s != 1:
        x2, sy = _x2(N), _y2(N) * s
        first = first.compose(x2, sy)
        second = second.compose(x2, sy) * (1 / s)
    return LocalGerm(first, second, d)


# ---------------------------------------------------------------------------
# normal-form steps


def super_stable_series(germ: LocalGerm) -> TruncSeries:
    """The graph x = phi(y) of the local super-stable manifold.

    phi is the unique solution of f1(phi(y), y) = phi(f2(phi(y), y)) with
    phi(0) = 0, the fixed point of phi <- phi - (f1(phi, y) - phi(f2(phi, y)))/lam:
    f1 = lam*x + (terms of x-degree 0 or >= 2 or with y) and f2 = O(y^d), so
    each pass fixes one more coefficient, for any lam != 0.  The fixed point
    is the functional equation itself, exactly at the truncation order.
    f(phi(y), y) is sum_i phi^i * row_i(y), in one variable."""
    N, inv_lam = germ.N, 1 / germ.lam
    rows1, rows2 = ({i: f.coefficient_in_x(i) for i in {i for i, _ in f.num}}
                    for f in (germ.first, germ.second))

    def step(phi):
        f1, f2 = phi._horner(rows1, phi.order), phi._horner(rows2, phi.order)
        return phi - (f1 - phi.compose(f2)) * inv_lam
    return _settle(step, TruncSeries.zero(N), N)


def reduce_form(germ: LocalGerm, phi: Optional[TruncSeries] = None) -> NormalFormResult:
    """Move the super-stable graph x = phi(y) to {x = 0}: the chain of both
    normal forms starts here, with the one shear (x + phi(y), y), none when
    phi = 0.  phi, when given, is super_stable_series(germ).

    Output first component is divisible by x (reduced form)."""
    if phi is None:
        phi = super_stable_series(germ)
    res = NormalFormResult(germ, [], [germ])
    if not phi.is_zero():
        res._record(Shear(phi))
    if not res.germ.first.divisible_by(1, 0):
        raise GermShapeError("reduction failed: first component not divisible by x")
    return res


def bottcher_series(u: TruncSeries) -> TruncSeries:
    """beta with beta(u(y)) = beta(y)^d, beta(y) = y + O(y^2).

    u must be y^d*(1 + h0(y)) with d >= 2.  Writing beta = y*exp(L), the
    equation becomes L(u) - d*L = -log(1 + h0), solved order by order."""
    d = u.valuation()
    if d is None or d < 2:
        raise ValueError("input must vanish to order >= 2")
    if u[d] != 1:
        raise ValueError("unit cofactor must have constant term 1")
    n, D = u.order, u.den
    H = log_unit(u.shift(-d))
    # d L_j = H_j + sum_{k <= j/d} L_k [y^j] u^k; with L_k = x_k D^k the
    # u^k come off the power table of u, as integers
    L = _triangular(u._powers(n // d), D, 1, n, lambda j: -H[j], lambda j: -d * D**j)
    beta = exp_series(L).shift(1)
    if beta.compose(u) != beta**d:
        raise GermShapeError("Böttcher series fails beta(u) = beta^d at this order")
    return beta


def koenigs_series(s: TruncSeries) -> TruncSeries:
    """psi with psi(s(y)) = lam*psi(y), psi = y + O(y^2); lam = s'(0)."""
    N = s.order
    if s[0] != 0:
        raise ValueError("input must fix 0")
    lam = s[1]
    if lam == 0:
        raise ValueError("multiplier must be nonzero")
    # psi_j (lam^j - lam) = -sum_{k<j} psi_k [y^j] s^k, psi_1 = 1; with
    # psi_k = x_k D^k the s^k come off the power table of s, as integers
    D = s.den
    pw = s._powers(N)

    def diag(j):
        if lam**j == lam:
            raise ResonanceError(f"resonance lam^{j} = lam")
        return pw[j][j] - lam * D**j

    psi = TruncSeries.identity(N) + _triangular(pw, D, 2, N, lambda j: Fraction(-pw[1][j], D),
                                                diag)
    if psi.compose(s) != psi * lam:
        raise GermShapeError("Koenigs series fails psi(s) = lam*psi at this order")
    return psi


def _inf_product_phi(g1: TruncSeries, d: int) -> TruncSeries:
    """phi with (1 + phi(y))(1 + g1(y)) = 1 + phi(y^d):
    1 + phi = prod_k (1 + g1(y^{d^k}))^{-1}, truncated."""
    N = g1.order
    prod = TruncSeries.one(N)
    power = 1
    while power <= N:
        scaled = TruncSeries([g1[m // power] if m % power == 0 else 0
                              for m in range(N + 1)], N)
        prod = prod * (scaled + 1)
        power *= d
    return prod.reciprocal() - 1


def _geometric_sum_phi(gn: TruncSeries, d: int) -> TruncSeries:
    """phi(y) = -sum_m gn(y^{d^m}) solving phi(y) - phi(y^d) = -gn(y)."""
    N = gn.order
    total = TruncSeries.zero(N)
    power = 1
    while power <= N:
        total = total + TruncSeries([gn[m // power] if m % power == 0 else 0
                                     for m in range(N + 1)], N)
        power *= d
    return -total


def saddle_normal_form(germ: LocalGerm, phi: Optional[TruncSeries] = None) -> NormalFormResult:
    """Conjugate a germ (lam not a root of unity) to

        (lam*x*(1 + x*y*gt(x,y)),  y^d*(1 + x*ht(x,y)))

    via reduce_form, Böttcher on {x=0}, Koenigs on {y=0}, and the
    infinite-product multiplicative correction.  phi, when given, is
    super_stable_series(germ)."""
    res = reduce_form(germ, phi)
    # 1. Böttcher: straighten y -> y^d on the invariant axis {x = 0}
    u0 = res.germ.second.coefficient_in_x(0)
    g1 = res._record(YCoord(bottcher_series(u0)))
    if g1.second.coefficient_in_x(0) != TruncSeries.monomial(1, germ.d, germ.N):
        raise GermShapeError("saddle form: {x = 0} not straightened to y -> y^d")
    # 2. Koenigs: linearize x -> lam*x*(1+...) on {y = 0}
    g2 = res._record(XCoord(koenigs_series(g1.first.restrict_x_axis())))
    if g2.first.restrict_x_axis() != TruncSeries([0, g2.lam], g2.N):
        raise GermShapeError("saddle form: {y = 0} not linearized to x -> lam*x")
    # 3. multiplicative correction on the x-linear row
    grow = g2.x_row(1) * (1 / g2.lam) - 1
    if not grow.is_zero():
        res._record(HigherScale(_inf_product_phi(grow, g2.d), 0))
    out = res.germ
    lamx = _x2(out.N) * out.lam
    if not (out.first - lamx).divisible_by(2, 1):
        raise GermShapeError("saddle form: first component residual not in x^2*y")
    if not (out.second - TruncSeries2.constant(1, out.N).shift(0, out.d)) \
            .divisible_by(1, out.d):
        raise GermShapeError("saddle form: second component residual not in x*y^d")
    return res


def parabolic_normal_form(germ: LocalGerm, phi: Optional[TruncSeries] = None) -> tuple:
    """For lam = 1: (k, result) with the germ conjugated to

        (x + x^{k+1} + x^{2k+1}*gt(x,y),  y^d*(1 + x*ht(x,y))).

    Requires the restriction to {y = 0} to differ from the identity at
    the truncation order.  phi, when given, is super_stable_series(germ)."""
    if germ.lam != 1:
        raise GermShapeError("parabolic normal form needs lam = 1")
    # super-stable manifold to {x = 0}, then Böttcher on the vertical axis
    res = reduce_form(germ, phi)
    work = res.germ
    u0 = work.second.coefficient_in_x(0)
    if u0 != TruncSeries.monomial(1, work.d, work.N):
        work = res._record(YCoord(bottcher_series(u0)))
    # read off k from the restriction to {y = 0}
    rx = work.first.restrict_x_axis()
    tail = rx - TruncSeries.identity(work.N)
    val = tail.valuation()
    if val is None:
        raise GermShapeError("restriction to {y=0} is the identity at this order")
    k = val - 1
    # 1-D normalization on the axis: f(x,0) = x + x^{k+1} + O(x^{2k+1}).
    # x_new = x + e*x^m, m = j - k + 1, adds e*c_{k+1}*(j - 2k) to the
    # x^{j+1} coefficient and changes no lower one
    ck = work.first[(k + 1, 0)]
    for j in range(k + 1, 2 * k):
        cj = work.first[(j + 1, 0)]
        if cj != 0:
            e = cj / (ck * (2 * k - j))
            work = res._record(XCoord(TruncSeries.identity(work.N)
                                      + TruncSeries.monomial(e, j - k + 1, work.N)))
            if work.first[(j + 1, 0)] != 0:
                raise GermShapeError(f"parabolic form: x^{j + 1} coefficient not removed")
    if ck != 1:  # x_new = x/a with a^k = 1/c_{k+1}
        a = _nth_root_fraction(1 / ck, k)
        work = res._record(XCoord(TruncSeries.monomial(1 / a, 1, work.N)))
        if work.first[(k + 1, 0)] != 1:
            raise GermShapeError(f"parabolic form: x^{k + 1} coefficient not scaled to 1")
    # kill the y-dependence of the rows x^{n+1}, n = 0..2k-1
    for n in range(2 * k):
        gn = work.x_row(n + 1) - (1 if n in (0, k) else 0)
        if not gn.is_zero():
            phi = _inf_product_phi(gn, work.d) if n == 0 else _geometric_sum_phi(gn, work.d)
            work = res._record(HigherScale(phi, n))
    # posts
    for n in range(0, 2 * k):
        row = work.x_row(n + 1)
        want = TruncSeries([1] if n in (0, k) else [0], work.N)
        if row != want:
            raise GermShapeError(f"parabolic form: row x^{n+1} not normalized")
    if not (work.second - TruncSeries2.constant(1, work.N).shift(0, work.d)) \
            .divisible_by(1, work.d):
        raise GermShapeError("parabolic form: second component residual not x*y^d")
    return k, res


# ---------------------------------------------------------------------------
# numeric verifiers


def _eval_c(s: TruncSeries2, x: complex, y: complex) -> complex:
    return _eval_terms(((e, float(c)) for e, c in s.coeffs.items()), x, y)


def rescaling_check(germ: LocalGerm, n: int, r: float, grid: int = 8) -> float:
    """max over a grid of |f^n(x/lam^n, y) - (x, 0)| for a saddle-form germ.

    Numeric verifier of the rescaling limit; raises if an orbit leaves
    the unit polydisk (radius too large)."""
    lam = complex(float(germ.lam))
    dev = 0.0
    pts = [r * cmath.exp(2j * math.pi * t / grid) for t in range(grid)] + [0j]
    for x0 in pts:
        for y0 in pts:
            x, y = x0 / lam**n, y0
            for _ in range(n):
                x, y = _eval_c(germ.first, x, y), _eval_c(germ.second, x, y)
                if abs(x) > 0.9 or abs(y) > 0.9:
                    raise ValueError("orbit left the polydisk; reduce the radius")
            dev = max(dev, abs(x - x0), abs(y))
    return dev


class SectorMap:
    """The parabolic germ in sector coordinates z = (k x^k)^{-1}:

        f(z, y) = (z - 1 + a(z,y)/z,  y^d * (1 + b(z,y)/z^{1/k}))

    defined on Omega_R x D_r with |a|, |b| and their derivatives <= M."""

    def __init__(self, a: Callable, b: Callable, k: int, d: int,
                 R: float, r: float, M: float):
        self.a, self.b, self.k, self.d, self.R, self.r, self.M = a, b, k, d, R, r, M

    def apply(self, z: complex, y: complex):
        return (z - 1 + self.a(z, y) / z,
                y**self.d * (1 + self.b(z, y) / z**(1.0 / self.k)))

    @staticmethod
    def from_parabolic(germ: LocalGerm, k: int, r: float) -> "SectorMap":
        """Sector expression of a germ in parabolic normal form."""
        d = germ.d
        R = 1.0 / (k * r**k)
        htilde = germ.h_part()  # second = y^d*(1 + x*ht) -> x*ht

        def a(z, y):
            x = (k * z) ** (-1.0 / k)
            x1 = _eval_c(germ.first, x, y)
            return z * (1.0 / (k * x1**k) - z + 1)

        def b(z, y):
            x = (k * z) ** (-1.0 / k)
            return z ** (1.0 / k) * _eval_c(htilde, x, y)

        M = 0.0
        for t in range(8):
            z = 1.5 * R * cmath.exp(1j * (math.pi / 4) * (t / 7.0 * 2 - 1) * 0.98)
            for s in range(4):
                y = 0.95 * r * cmath.exp(2j * math.pi * s / 4)
                eps = 1e-5
                M = max(M, abs(a(z, y)), abs(b(z, y)),
                        abs(a(z + eps, y) - a(z, y)) / eps,
                        abs(b(z + eps, y) - b(z, y)) / eps,
                        abs(a(z, y + eps) - a(z, y)) / eps,
                        abs(b(z, y + eps) - b(z, y)) / eps)
        return SectorMap(a, b, k, d, R, r, 1.2 * M)


@dataclass
class VerticalGraphSample:
    """A vertical graph z = psi(y) over the disk of radius rho."""
    ys: list
    zs: list
    rho: float
    sigma: float
    base: complex
    psi: Callable

    @staticmethod
    def constant(z0: complex, rho: float) -> "VerticalGraphSample":
        return VerticalGraphSample([0j], [z0], rho, 0.0, z0, lambda y: z0)


def graph_pullback(sector: SectorMap, graph: VerticalGraphSample,
                   samples: int = 32) -> VerticalGraphSample:
    """One graph-transform step: the pullback of a vertical graph.

    Solves z = l(z, y) with
        l(z, y) = psi(y^d*(1 + b(z,y)/z^{1/k})) + 1 - a(z,y)/z
    per sample by the certified contraction; checks the admissibility
    constraints and the quantitative outputs (slope <= 1/10, real-part
    advance >= 9/10)."""
    k, d = sector.k, sector.d
    if graph.sigma * graph.rho >= 1.0 / (100 * d):
        raise ContractionError("slope*radius out of the admissible regime")
    if sector.M > 0 and sector.M / sector.R ** (1.0 / k) > 1.0 / 100:
        raise ContractionError("M/R^{1/k} too large for the contraction")
    if sector.r >= 1.0 / (10 * d):
        raise ContractionError("sector radius r too large")
    rho1 = min((graph.rho / 2) ** (1.0 / d), sector.r)

    def ell(z, y):
        yt = y**d * (1 + sector.b(z, y) / z ** (1.0 / k))
        return graph.psi(yt) + 1 - sector.a(z, y) / z

    def in_sector(z):
        return abs(z) > sector.R and abs(cmath.phase(z)) < math.pi / 4

    nodes = [rho1 * cmath.exp(2j * math.pi * t / samples) for t in range(samples)]
    sols = []
    for y in nodes:
        z = graph.base + 1
        for _ in range(200):
            nz = ell(z, y)
            if not in_sector(nz):
                raise ContractionError("iterate left the sector Omega_R")
            if abs(nz - z) < 1e-13:
                z = nz
                break
            z = nz
        else:
            raise ContractionError("fixed-point solve did not converge")
        eps = 1e-6
        if abs(ell(z + eps, y) - ell(z, y)) / eps > 0.5:
            raise ContractionError("contraction certificate failed")
        sols.append(z)

    # trigonometric interpolation -> Taylor coefficients on |y| <= rho1
    m = samples
    coeffs = []
    for mm in range(m):
        c = sum(sols[t] * cmath.exp(-2j * math.pi * mm * t / m)
                for t in range(m)) / m
        coeffs.append(c)

    def psi_new(y, _c=coeffs, _r=rho1):
        w = y / _r
        total = 0j
        for c in reversed(_c):
            total = total * w + c
        return total

    base = coeffs[0]
    sigma_new = sum(mm * abs(coeffs[mm]) for mm in range(1, m)) / rho1
    if sigma_new > 0.1 + 1e-9:
        raise ContractionError(f"output slope {sigma_new} exceeds 1/10")
    advance = min((z.real for z in sols)) - graph.base.real
    if advance < 0.9 - 1e-9:
        raise ContractionError(f"real-part advance {advance} below 9/10")
    return VerticalGraphSample(nodes, sols, rho1, sigma_new, base, psi_new)

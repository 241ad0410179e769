"""Dynamics of the induced map on the line at infinity.

A regular map restricts to f_inf = [P_d : Q_d] on the invariant line at
infinity.  A point of that line is an InfinityPoint; `projective_roots`
finds the roots of a binary form as such points, both the fixed points
(the roots of z2*P_d - z1*Q_d) and the points where a curve meets the
line (the roots of its top form).  Each fixed point has a multiplier
whose arithmetic nature drives the trichotomy: superattracting
(multiplier 0), root of unity, or a place where the multiplier has
absolute value > 1 (Kronecker's theorem makes these exhaustive and
exclusive).  Multipliers are computed from the binary forms (A, B) of a
map of the line; `compose_forms` gives those of an iterate, for cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import (AlgebraicNumber, ExpandingPlaceWitness, Place,
                       find_expanding_place, is_root_of_unity, sp)
from .green import _box_floor, _mahler_lower, _past_box
from .heights import PreperiodicityVerdict, canonical_height
from .maps import ORBIT_CAP, RegularMap, _exact_orbit
from .polyalg import MultiPoly, _factor_list

# points at infinity of higher degree get no exact orbit: Unknown
DEGREE_CAP = 64


@dataclass(frozen=True)
class Superattracting:
    pass


@dataclass(frozen=True)
class RootOfUnity:
    order: int


@dataclass(frozen=True)
class ExpandingPlace:
    place: Place
    witness: ExpandingPlaceWitness


@dataclass
class InfinityPoint:
    """A point of the line at infinity, [1 : t] in chart 0 and [t : 1] in
    chart 1, t the coordinate, with its multiplicity as a root of the
    binary form it was found from."""
    coordinate: AlgebraicNumber
    chart: int
    multiplicity: int

    @staticmethod
    def from_pair(z1, z2) -> "InfinityPoint":
        """[z1 : z2] for rationals z1, z2 not both 0, of multiplicity 1."""
        z1, z2 = Fraction(z1), Fraction(z2)
        if z1 == z2 == 0:
            raise ValueError("not a projective point")
        if z1 == 0:
            return InfinityPoint(AlgebraicNumber.from_rational(0), 1, 1)
        return InfinityPoint(AlgebraicNumber.from_rational(z2 / z1), 0, 1)

    def projective(self):
        """(z1, z2) as Fractions when the coordinate is rational, else None."""
        return _chart_pair(self) if self.coordinate.is_rational() else None


def classify_multiplier(lam: AlgebraicNumber):
    if lam.is_zero():
        return Superattracting()
    rou, n = is_root_of_unity(lam)
    if rou:
        return RootOfUnity(n)
    witness = find_expanding_place(lam)
    # Kronecker: a nonzero algebraic integer-or-not that is not a root of
    # unity always has an expanding place
    return ExpandingPlace(witness.place, witness)


def _fixed_form(f: RegularMap) -> MultiPoly:
    """z2 * P_d(z1,z2) - z1 * Q_d(z1,z2), a binary form of degree d+1
    (variables reused as (z, w) = (z1, z2))."""
    z = MultiPoly.variable(0)
    w = MultiPoly.variable(1)
    return w * f.top_P - z * f.top_Q


def compose_forms(f: RegularMap, n: int) -> tuple:
    """(A, B), the top forms of f^n, n >= 1: the map [A : B] is f_inf
    composed with itself n times."""
    A, B = f.top_P, f.top_Q
    for _ in range(n - 1):
        A, B = A.compose(f.top_P, f.top_Q), B.compose(f.top_P, f.top_Q)
    return A, B


def _chart_pair(point: InfinityPoint) -> tuple:
    """(1, a) in chart 0, (a, 1) in chart 1: a is the coordinate, as a
    Fraction or as the generator of its number field."""
    t = point.coordinate
    if t.is_rational():
        a, one = t.as_rational(), Fraction(1)
    else:
        K = t.number_field()
        a, one = K.generator(), K(1)
    return (one, a) if point.chart == 0 else (a, one)


def _value_and_partial(F: MultiPoly, x, y, var: int) -> tuple:
    """(F~(x, y), dF~/dz (var 0) or dF~/dw (var 1) at (x, y)), F~ = F.den F."""
    X, Y = [1], [1]
    for _ in range(F.degree):
        X.append(X[-1] * x)
        Y.append(Y[-1] * y)
    value = partial = 0
    for (i, j), c in F.num.items():
        value += c * X[i] * Y[j]
        k = j if var else i  # the exponent of the variable of the partial
        if k:
            partial += k * c * (X[i] * Y[j - 1] if var else X[i - 1] * Y[j])
    return value, partial


def multiplier(forms: tuple, point: InfinityPoint) -> AlgebraicNumber:
    """Multiplier of [A : B], forms = (A, B) binary forms of one degree, at
    a point of the line at infinity it fixes (ValueError if it does not),
    exactly in Q(coordinate).

    chart 1: t = z/w, map t -> A(t,1)/B(t,1); chart 0: t = w/z,
    map t -> B(1,t)/A(1,t), numerator N, denominator D, each differentiated
    in z (chart 1) or w (chart 0) on its integer numerators N~ = N.den N at
    (x, y) = (u, a) (chart 0) or (a, u): a/u = p/q for a rational t, a the
    generator of Q(t) and u = 1 otherwise.  As N~(x, y) = u^d N~(t) and
    N~'(x, y) = u^(d-1) N~'(t), lam = u D.den (N~' D~ - N~ D~') / (N.den D~^2)."""
    A, B = forms
    t = point.coordinate
    if t.is_rational():
        p, u = t.minpoly_coeffs()  # the root -p/u, u > 0
        a = -p
    else:
        a, u = t.number_field().generator(), 1
    x, y = (u, a) if point.chart == 0 else (a, u)
    var = 1 - point.chart
    (fa, fa_v), (fb, fb_v) = (_value_and_partial(F, x, y, var) for F in forms)
    if y * fa * B.den != x * fb * A.den:
        raise ValueError("point is not fixed by the map at infinity")
    (N, n, n_v), (D, d, d_v) = ((B, fb, fb_v), (A, fa, fa_v)) if var else \
        ((A, fa, fa_v), (B, fb, fb_v))
    num, den = (n_v * d - n * d_v) * (u * D.den), d * d * N.den
    if t.is_rational():
        return AlgebraicNumber.from_rational(Fraction(num, den))
    return _algebraic_from_nf(num / den, t)


def _algebraic_from_nf(elem, alpha: AlgebraicNumber) -> AlgebraicNumber:
    """Package an element of Q(alpha) as an AlgebraicNumber with the
    embedding matching alpha's."""
    if elem.is_rational():
        return AlgebraicNumber.from_rational(elem.as_rational())
    if alpha.degree == 2:
        # alpha = (-b + e sqrt(D)) / 2a, so elem = (n0 + n1 alpha) / den =
        # (S + T sqrt(D)) / E, a root of E^2 x^2 - 2 S E x + S^2 - T^2 D, the
        # one with + sqrt(D) (index 1) iff T > 0
        (c, b, a), (n0, n1) = alpha.minpoly_coeffs(), elem.num
        S, T, E = 2 * a * n0 - b * n1, (2 * alpha.embedding_index - 1) * n1, 2 * a * elem.den
        return AlgebraicNumber([S * S - T * T * (b * b - 4 * a * c), -2 * S * E, E * E],
                               int(T > 0))
    return _embedded_root(elem, alpha)


def _embedded_root(elem, alpha: AlgebraicNumber) -> AlgebraicNumber:
    """_algebraic_from_nf at any degree, by the characteristic polynomial of
    elem (a power of its minimal polynomial) and CRootOf values."""
    (fac, _m), = _factor_list(elem.charpoly())
    minpoly = sp.Poly(fac[::-1], sp.Symbol("x"))
    roots = minpoly.all_roots()
    root = alpha.minpoly.all_roots()[alpha.embedding_index]
    expr = sum(sp.Rational(n, elem.den) * root**k for k, n in enumerate(elem.num))
    for prec in (30, 60, 120):
        target = sp.N(expr, prec)
        dists = [abs(sp.N(r, prec) - target) for r in roots]
        best = min(range(len(roots)), key=lambda i: dists[i])
        others = [d for i, d in enumerate(dists) if i != best]
        if not others or dists[best] < min(others) / 4:
            return AlgebraicNumber(minpoly, best)
    raise ValueError("could not certify embedding index")


def projective_roots(form: MultiPoly, degree: int) -> list:
    """The roots [z1 : z2] of a binary form of formal degree `degree`, as
    InfinityPoints; the multiplicities sum to `degree`, and [0 : 1] comes
    last.

    The roots with z1 != 0 are those of form(1, t), in chart 0; the drop
    of its degree against `degree` is the multiplicity of [0 : 1].  Its
    factors come in sympy's factor_list order (`_factor_list`)."""
    cs = [0] * (max(j for _i, j in form.num) + 1)  # form(1, t), ascending
    for (_i, j), c in form.num.items():
        cs[j] = c
    pts = [InfinityPoint(AlgebraicNumber(fac, idx), 0, mult)
           for fac, mult in _factor_list(cs) for idx in range(len(fac) - 1)]
    if degree > len(cs) - 1:
        pts.append(InfinityPoint(AlgebraicNumber.from_rational(0), 1, degree - len(cs) + 1))
    return pts


def fixed_points_infinity(f: RegularMap) -> list:
    """All fixed points of f_inf, as InfinityPoints with multiplicities
    (summing to d+1); `multiplier` gives the multiplier of each."""
    return projective_roots(_fixed_form(f), f.d + 1)


# ---------------------------------------------------------------------------
# orbits on the line at infinity


def infinity_orbit_preperiodicity(f: RegularMap, point: InfinityPoint) -> PreperiodicityVerdict:
    """Exact orbit of a point of the line at infinity under [P_d : Q_d]
    with cycle detection inside the field of definition; a rational point
    [0 : a : b] gets the verdict of its canonical height, its orbit the
    coprime pairs (a, b).  The one stop rule is the height box (`_past_box`)."""
    if point.coordinate.degree > DEGREE_CAP:
        return PreperiodicityVerdict.unknown()
    if point.coordinate.is_rational():
        return canonical_height(f, (0, *point.projective())).verdict
    return _nf_infinity_orbit(f, point)


def _nf_infinity_orbit(f: RegularMap, point: InfinityPoint):
    def step(pair):
        nz1, nz2 = f.top_P.eval(*pair), f.top_Q.eval(*pair)
        if nz1.is_zero() and nz2.is_zero():
            raise RuntimeError("regular map sent a projective point to 0")
        return _normalize_nf_pair((nz1, nz2))

    low = _box_floor(f)

    def out(pair):  # [β : 1], or [1 : 0] of height 0
        chi = pair[0].charpoly() if not pair[1].is_zero() else [1]
        return _past_box(f, _mahler_lower(chi), len(chi) - 1, low)

    orbit, k = _exact_orbit(step, _normalize_nf_pair(_chart_pair(point)), ORBIT_CAP, out)
    if k is not None:
        return PreperiodicityVerdict.preperiodic(orbit, k)
    return PreperiodicityVerdict.unknown()


def _normalize_nf_pair(pair):
    z1, z2 = pair
    if not z2.is_zero():
        return (z1 / z2, z2.field(1))
    return (z1.field(1), z2)

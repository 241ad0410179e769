"""Plane curves: points at infinity, pushforward under regular maps,
curve-level preperiodicity, and the integrated dynamical report.

Curves are stored as canonical polynomials (squarefree, primitive integer
coefficients, sign-normalized) so that equality of curves is equality of
polynomials and orbit cycles in curve space are detected exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from typing import Optional

# Zeta is re-exported; regbench's tracer swaps sp
from .exactnum import Zeta, cyclotomic_coeffs, sp
from .heights import PreperiodicityVerdict, orbit_verdict
from .infinity import (InfinityPoint, Superattracting, classify_multiplier, compose_forms,
                       infinity_orbit_preperiodicity, multiplier, projective_roots)
from .maps import ORBIT_CAP, RegularMap, _exact_orbit
from .numberfield import _pdivmod
from .polyalg import (MultiPoly, _approx_roots, _combine, _factor_list, _integer_nthroot, _times,
                      homogeneous_top, parse_poly)


class PlaneCurve:
    """A plane curve {R = 0} in canonical form; R is a string, a MultiPoly
    or a PlaneCurve."""

    def __init__(self, poly):
        if isinstance(poly, str):
            poly = parse_poly(poly)
        if isinstance(poly, PlaneCurve):
            poly = poly.poly
        if poly.degree < 1:
            raise ValueError("curve polynomial must be nonconstant")
        factors = [poly.num] if _irreducible(poly.num) else [
            MultiPoly.from_poly(b).num
            for b, _m in sp.factor_list(poly.to_poly(*sp.symbols("z w")))[1]]
        self._set([_canonical(F) for F in factors])

    def _set(self, components):
        # the irreducible factors as primitive integer dicts {(i, j): c}, the lex-leading
        # coefficient positive; pushforward takes each to its image.  Their product, the
        # squarefree part, lists its terms in descending lex order, as a sympy Poly does
        self.components = components
        R = {(0, 0): 1}
        for G in components:
            R = _times(R, G)
        self.poly = MultiPoly._make({m: R[m] for m in sorted(R, reverse=True) if R[m]}, 1)

    @staticmethod
    def _of_components(components) -> "PlaneCurve":
        """The curve whose irreducible factors are `components` (see `_set`),
        distinct; no factoring: the curve PlaneCurve(their product) would give."""
        C = object.__new__(PlaneCurve)
        C._set(components)
        return C

    @property
    def degree(self) -> int:
        return self.poly.degree

    def __eq__(self, other):
        return isinstance(other, PlaneCurve) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def contains(self, pt) -> bool:
        return self.poly.eval(pt[0], pt[1]) == 0

    def __repr__(self):
        return f"PlaneCurve({self.poly.to_string()})"


def _irreducible(R: dict) -> bool:
    """True when the integer dict R, of degree >= 1, is proved irreducible in
    Q[z, w] in closed form: a line; a binomial a w^m + b z^n with gcd(m, n) =
    1, irreducible in Q(z)[w] by Capelli's theorem (-b/a z^n is no p-th power
    for a prime p | m, nor in -4 Q(z)^4, its order n at z = 0 being prime to
    m) and primitive over Q[z], so irreducible (Gauss's lemma); a conic
    whose symmetric 3 x 3 matrix has a nonzero determinant, irreducible
    even over C.  False says nothing: sympy factors those curves."""
    degree = max(map(sum, R))
    if degree == 1:
        return True
    if len(R) == 2:
        (i, m), (n, j) = sorted(R)  # w^m sorts before z^n
        if i == j == 0 and m and n and math.gcd(m, n) == 1:
            return True
    if degree == 2:
        A, B, C, D, E, F = (R.get(e, 0) for e in ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)))
        # twice the matrix of A z^2 + B z w + C w^2 + D z + E w + F
        return 2 * A * (4 * C * F - E * E) - B * (2 * B * F - D * E) + D * (B * E - 2 * C * D) != 0
    return False


def points_at_infinity(C: PlaneCurve) -> list:
    """Roots of the top homogeneous form of R, with multiplicities
    (the intersection numbers of the closure with the line at infinity)."""
    return projective_roots(homogeneous_top(C.poly), C.degree)


# ---------------------------------------------------------------------------
# pushforward


class EliminationError(RuntimeError):
    pass


# Under a map that is not monomial, the image of a component {Ri = 0} comes
# from the linear kernel when d * deg Ri is at most this, and from resultants
# above it (monomial maps take the norm at every degree).  Near a monomial
# map the kernel loses: the image of w - z - 1 under (z^2, w^2 + 1) took
# 1.58 s by the kernel against 0.54 s by resultants at d * deg = 16, and more
# than 90 s against 3.0 s at 32 (2-core x86-64, Python 3.11).  Under generic
# maps the kernel is faster at every degree measured (0.04 s against 16 s at
# 10, 0.3 s against more than 60 s at 16).  No benchmark workload takes a map
# that is not monomial above 9: the choice there rests on these hand-picked
# cases, not on measured traffic (ROADMAP O5(b)).
KERNEL_MAX_DEGREE = 9


def pushforward(f: RegularMap, C: PlaneCurve) -> PlaneCurve:
    """The squarefree defining polynomial of the Zariski closure of f(C).

    Each irreducible component C_i is taken to its image curve on its own:
    under a monomial map by the norm (`_norm_image`), else by a linear
    kernel when d * deg C_i is small (`_kernel_image`), else by two-stage
    resultant elimination (`_resultant_image`).  Either way an image G is
    kept only if the component's polynomial divides G(P, Q), checked
    exactly.  By the projection
    formula deg f(C_i) divides d * deg C_i for each component C_i; images of
    two components can coincide, so deg f(C) need not divide d * deg C.
    The kept factors are irreducible and primitive, so the image is built
    from them, each taken once, without factoring again."""
    kept = []
    for Ri in C.components:
        cap = f.d * max(map(sum, Ri))
        image = _component_image(Ri, f, cap)
        if cap % sum(max(map(sum, G)) for G in image):
            raise EliminationError("image degree does not divide d * deg C "
                                   "(elimination bug)")
        kept += [G for G in image if G not in kept]
    return PlaneCurve._of_components(kept)


def _canonical(R: dict) -> dict:
    """The primitive integer dict with a positive lex-leading coefficient
    that is a rational multiple of the integer dict R."""
    g = math.gcd(*R.values()) * (1 if R[max(R)] > 0 else -1)
    return {m: c // g for m, c in R.items()}


def _split_eliminant(E):
    """(squarefree part of the factors involving the first generator, the
    factors free of it as Polys in the other two), for E in (inner, Z, W).

    Pure-inner factors are dropped: they impose no condition on (Z, W).
    Discarding multiplicities keeps root sets, which is all the later
    divisibility filter needs."""
    mixed, free = [], []
    for b, _m in sp.factor_list(E)[1]:
        d_inner, d_Z, d_W = b.degree_list()
        if d_inner and (d_Z or d_W):
            mixed.append(b)
        elif d_Z or d_W:
            free.append(b.ltrim(1))
    return mixed, free


def _component_image(Ri: dict, f: RegularMap, cap: int) -> list:
    """The irreducible G(Z, W), as primitive integer dicts, whose curves make
    up the image of {Ri = 0} under f = (P, Q), each certified by the exact
    test Ri | G(P, Q).  Under a monomial map the image comes from the norm;
    else from the linear kernel when cap = d * deg Ri, which its degree
    divides, is at most KERNEL_MAX_DEGREE, and from resultants otherwise."""
    monomial = f._monomial
    if monomial is None and cap > KERNEL_MAX_DEGREE:
        return _resultant_image(Ri, f)
    PQ = (f.P.num, f.P.den), (f.Q.num, f.Q.den)
    G = _kernel_image(Ri, PQ, cap) if monomial is None else _norm_image(Ri, f.d, *monomial)
    if not _vanishes_on(G, Ri, PQ):
        raise EliminationError("the image fails the component test")
    return [G]


def _swap(R: dict) -> dict:
    return {(j, i): c for (i, j), c in R.items()}


def _norm_image(Ri: dict, d: int, c1: Fraction, c2: Fraction, swapped: bool) -> dict:
    """The image of the irreducible curve C = {Ri = 0} under the monomial
    map (c1 z^d, c2 w^d), or (c1 w^d, c2 z^d) when swapped
    (`RegularMap._monomial`), as a primitive integer dict, by the norm of
    the Kummer cover g = (z^d, w^d), whose group mu_d^2 acts by
    sigma(z, w) = (s z, t w).

    The norm N(z^d, w^d) = prod over sigma of Ri o sigma is invariant under
    the group, so a polynomial in X = z^d, Y = w^d (`_norm_z`, once in each
    variable), and it vanishes exactly on g(C), since g^-1(g(C)) is the
    union of the sigma(C).  g(C) is irreducible, so N = c G~^m with G~ its
    primitive equation and m = d deg Ri / deg g(C).  Off the axes g is
    unramified, so G~(z^d, w^d) is squarefree: each distinct Ri o sigma
    enters N with the same multiplicity, a multiple of the e = #{sigma : Ri
    o sigma is a multiple of Ri} (`_stabilizer_order`).  m = e when C is
    absolutely irreducible; when C splits over C into components that the
    group permutes (z^2 - z w + w^2 + z + w + 1, two lines over Q(zeta_3),
    under (z^3, w^3)) translates share a component and m > e.  So m is the
    largest multiple of e dividing d deg Ri for which N / c has an integer
    m-th root (`_root`, checked by raising it back): a root for a larger m
    would be a proper root of the irreducible G~.  A larger m is first
    tried on N(X, 2) = +-G~(X, 2)^m, a cheap necessary test.

    A binomial Ri = u + v takes a closed form: sigma multiplies v / u by a
    character of some order r, which takes each value of mu_r on d^2 / r of
    the sigma, so N is a constant times (u^r - (-v)^r)^(d^2 / r), and G~ is
    that binomial over its monomial factor: a binomial is no proper power.
    An axis z = 0 (w = 0) goes to X = 0 (Y = 0).  In X = z^d, Y = w^d the
    map is (X, Y) -> (cx X, cy Y), read as (Z, W), or as (W, Z) when
    swapped, so the image is G~(Z / cx, W / cy), Z and W exchanged for a
    swapped map."""
    if len(Ri) == 1:
        G = dict.fromkeys(Ri, 1)
    elif len(Ri) == 2:
        ((i, j), u), ((k, l), v) = Ri.items()
        r = math.lcm(d // math.gcd(d, k - i), d // math.gcd(d, l - j))
        a, b = (i - k) * r, (j - l) * r  # multiples of d
        G = {(max(a, 0) // d, max(b, 0) // d): u ** r,
             (max(-a, 0) // d, max(-b, 0) // d): -(-v) ** r}
    else:
        N = _canonical(_swap(_norm_z(_swap(_norm_z(Ri, d)), d)))
        cap, e = d * max(map(sum, Ri)), _stabilizer_order(Ri, d)
        line = {}
        for (i, j), c in N.items():
            line[i, 0] = line.get((i, 0), 0) + c * 2 ** j
        line = {m: c for m, c in line.items() if c}
        for m in range(cap - cap % e, 0, -e):
            if cap % m or (m > e and line and _root(line, m) is None):
                continue
            G = _root(N, m) if m > 1 else N
            if G is not None:
                break
        else:
            raise EliminationError("the norm is no power of an integer polynomial")
    cx, cy = (c2, c1) if swapped else (c1, c2)
    (nx, qx), (ny, qy) = (cx.numerator, cx.denominator), (cy.numerator, cy.denominator)
    a, b = max(i for i, _ in G), max(j for _, j in G)
    G = {(i, j): c * qx ** i * nx ** (a - i) * qy ** j * ny ** (b - j)
         for (i, j), c in G.items()}
    return _canonical(_swap(G) if swapped else G)


def _norm_z(R: dict, d: int) -> dict:
    """The product of R(s z, w) over the d-th roots of unity s, as a dict in
    (X, w), X = z^d: the norm of R from Q(z, w) to Q(z^d, w), taken for one
    prime p | d at a time (the norms for p and d / p compose to that for d).
    With R = sum A_r(X, w) t^r, t = z, split by the exponent of z mod p, the
    norm is the determinant of multiplication by R on the basis t^k of
    Z[X, w][t]/(t^p - X): column k holds A_r in row (r + k) mod p, times X
    when r + k >= p.  The Leibniz sum runs column by column over the sets of
    rows used, so a p x p determinant costs about p 2^p products."""
    p = next(p for p in range(2, d + 1) if d % p == 0)
    A = [{} for _ in range(p)]
    for (i, j), c in R.items():
        A[i % p][i // p, j] = c
    AX = [{(i + 1, j): c for (i, j), c in a.items()} for a in A]
    partial = {0: {(0, 0): 1}}  # the signed sums of products, by set of rows used
    for k in range(p):
        nxt = {}
        for used, D in partial.items():
            for row in range(p):
                entry = (AX if row < k else A)[(row - k) % p]
                if used >> row & 1 or not entry:
                    continue
                # the rows used above this one are the new inversions
                sign = -1 if bin(used >> row).count("1") % 2 else 1
                key = used | 1 << row
                nxt[key] = _combine(nxt.get(key, {}), 1, _times(D, entry), -sign)
        partial = nxt
    N = partial.get((1 << p) - 1, {})
    return N if p == d else _norm_z(N, d // p)


def _stabilizer_order(R: dict, d: int) -> int:
    """The number of (s, t) = (zeta^a, zeta^b) in mu_d^2 with R(s z, t w) a
    multiple of R: those with a i + b j constant mod d on the support."""
    (i0, j0), *rest = R
    return sum(all((a * (i - i0) + b * (j - j0)) % d == 0 for i, j in rest)
               for a in range(d) for b in range(d))


def _root(H: dict, m: int):
    """The integer dict G with G^m = H, for m >= 2, checked by raising it
    back; None when there is none.  Under the Kronecker map z -> x, w ->
    x^B, B past the z-degree of G, it is the univariate root g of h = H(x,
    x^B), from its lowest term up by the recurrence of g h' = m g' h:
    m k h_0 g_k = sum over j = 1..k of (j - m (k - j)) g_(k-j) h_j, each an
    exact integer division."""
    top = max(i for i, _ in H)
    if top % m:
        return None
    B = top // m + 1
    h = {}
    for (i, j), c in H.items():  # terms of H may meet, those of G do not
        h[i + B * j] = h.get(i + B * j, 0) + c
    h = {k: c for k, c in h.items() if c}
    if not h:  # H(x, x^B) = 0: no root has z-degree below B
        return None
    s = min(h)
    h0 = h.pop(s)
    g0, exact = _integer_nthroot(abs(h0), m)
    if s % m or not exact or (h0 < 0 and m % 2 == 0):
        return None
    terms = sorted((k - s, c) for k, c in h.items())
    g = [g0 if h0 > 0 else -g0]
    for k in range(1, (max(h, default=s) - s) // m + 1):
        t = 0
        for j, c in terms:
            if j > k:
                break
            t += (j - m * (k - j)) * g[k - j] * c
        q, r = divmod(t, m * k * h0)
        if r:
            return None
        g.append(q)
    G = {divmod(k + s // m, B)[::-1]: c for k, c in enumerate(g) if c}
    P = G
    for _ in range(m - 1):
        P = _times(P, G)
    return G if {e: c for e, c in P.items() if c} == H else None


def _vanishes_on(G: dict, Ri: dict, PQ) -> bool:
    """Ri | G(P, Q), for PQ = ((P0, dp), (Q0, dq)), the num and den of P and
    of Q.  With a, b the degrees of G in Z and W, dp^a dq^b G(P, Q) = sum g_ij
    P0^i dp^(a-i) Q0^j dq^(b-j) comes from Horner's rule on integer dicts, and
    the primitive Ri divides it iff it divides G(P, Q) (Gauss's lemma)."""
    (p, dp), (q, dq) = PQ
    a, b = max(i for i, _ in G), max(j for _, j in G)
    H = {}
    for i in range(a, -1, -1):
        inner = {}
        for j in range(b, -1, -1):
            inner = _combine(_times(inner, q), 1, {(0, 0): G.get((i, j), 0)}, -dq ** (b - j))
        H = _combine(_times(H, p), 1, inner, -dp ** (a - i))
    return _divides(Ri, H)


def _divides(R: dict, H: dict) -> bool:
    """R | H in Z[z, w], for R irreducible and primitive of positive degree,
    by pseudo-division in w over Z[z] (Knuth, TAOCP 4.6.1), or in z over Z
    when R is free of w.  With n = deg_w R and l its leading coefficient in
    w, each step takes H to l H - t w^(k-n) R, t w^k the leading term of H
    in w; R divides the new H iff it divides H, as it does not divide l.  So
    R | H iff H reaches 0 before its w-degree falls below n.  H is kept as
    rows {w-degree: {z-exponent: c}}.  Written apart from `_normal_form`, so
    that the test is independent of the kernel."""
    if not any(j for _, j in R):  # R in Z[z]: swap z and w
        R, H = _swap(R), _swap(H)
    n = max(j for _, j in R)
    lead, tail, rows = {}, {}, {}
    for (i, j), c in R.items():
        (lead if j == n else tail.setdefault(j, {}))[i] = c
    for (i, j), c in H.items():
        rows.setdefault(j, {})[i] = c
    while rows:  # the rows may hold zero terms
        k = max(rows)
        top = {i: c for i, c in rows.pop(k).items() if c}
        if not top:
            continue
        if k < n:
            return False
        if lead != {0: 1}:  # the rows times l
            for j, row in rows.items():
                rows[j] = prod = {}
                for i, c in row.items():
                    for h, e in lead.items():
                        prod[i + h] = prod.get(i + h, 0) + c * e
        for j, t in tail.items():  # minus top * tail, row by row
            row = rows.setdefault(j + k - n, {})
            for i, c in top.items():
                for h, e in t.items():
                    row[i + h] = row.get(i + h, 0) - c * e
    return True


def _resultant_image(Ri: dict, f: RegularMap) -> list:
    """_component_image by elimination in sympy: the factors of the
    eliminants kept iff Ri | G(P, Q) (`_vanishes_on`).

    No eliminant vanishes: Z - P and W - Q involve Z and W, Ri does not,
    and the mixed factors of E1 involve Z but not W, those of E2 the
    reverse."""
    z, w, Z, W = sp.symbols("z w Z W")
    R = sp.Poly.from_dict(dict(Ri), z, w, domain=sp.ZZ)  # from_dict converts in place
    outer, inner = (w, z) if R.degree(w) > 0 else (z, w)
    # the eliminated variable is the first generator of each resultant
    R, P, Q = (p.reorder(outer, inner) for p in (R, f.P.to_poly(z, w), f.Q.to_poly(z, w)))
    Zp, Wp = (sp.Poly(v, outer, inner, Z, W) for v in (Z, W))
    m1, free1 = _split_eliminant(sp.resultant(R, Zp - P))
    m2, free2 = _split_eliminant(sp.resultant(R, Wp - Q))
    candidates, PQ = free1 + free2, ((f.P.num, f.P.den), (f.Q.num, f.Q.den))
    if m1 and m2:
        elim = sp.resultant(sp.prod(m1), sp.prod(m2))
        candidates += [G for G, _m in sp.factor_list(elim)[1] if G.total_degree() >= 1]
    out = []
    for G in candidates:
        G = _canonical(MultiPoly.from_poly(G).num)
        if G not in out and _vanishes_on(G, Ri, PQ):
            out.append(G)
    if not out:
        raise EliminationError("no factor of the eliminants passed the component test")
    return out


def _kernel_image(Ri: dict, PQ, cap: int) -> dict:
    """The image of the irreducible curve {Ri = 0} under the regular map
    (P, Q) of degree d, PQ as in `_vanishes_on`, as a primitive integer dict
    G(Z, W), by linear algebra; cap = d * deg Ri.

    {Ri} is a Groebner basis of (Ri), so the normal form of G(P, Q) modulo
    Ri is unique and linear in G, and G(P, Q) is divisible by Ri iff the
    normal forms of the P^a Q^b weighted by G's coefficients sum to zero.
    A regular map is finite, so the image is an irreducible curve {G = 0}
    of some degree D <= cap, and the G of degree at most D with
    Ri | G(P, Q) are the constant multiples of it.  So taking the columns
    NF(P^a Q^b) by increasing a + b, the first one that depends on those
    before it has degree D, and the dependency is the image polynomial."""
    lead = max(Ri, key=_grlex)
    sign = -1 if Ri[lead] < 0 else 1  # -Ri generates the same ideal
    R = {m: sign * c for m, c in Ri.items()}
    reducer = (lead, R.pop(lead), list(R.items()))
    nf, columns, basis = {}, [], []  # nf[(a, b)] = (h, den): NF(P^a Q^b) = h / den
    for n in range(cap + 1):
        for a in range(n, -1, -1):
            b = n - a
            if n == 0:
                h, den = {(0, 0): 1}, 1  # Ri is nonconstant, so 1 is reduced
            else:  # NF(P^a Q^b) = NF(P * NF(P^(a-1) Q^b)), or Q for a = 0
                h0, den0 = nf[(a - 1, b) if a else (0, b - 1)]
                terms, fden = PQ[0 if a else 1]
                h, s = _normal_form(_times(h0, terms), *reducer)
                den = den0 * fden * s
                g = math.gcd(den, *h.values())
                if g != 1:
                    h, den = {m: c // g for m, c in h.items()}, den // g
            nf[(a, b)] = h, den
            columns.append((a, b))
            relation = _eliminate(basis, h, {len(columns) - 1: 1})
            if relation is not None:  # sum of y_k h_k = 0 over the columns k
                return _canonical({columns[k]: y * nf[columns[k]][1]
                                   for k, y in relation.items()})
    raise EliminationError("no relation of degree at most d * deg Ri")


def _grlex(m):
    return m[0] + m[1], m[0]


def _normal_form(h: dict, lead, lc: int, tail: list) -> tuple:
    """(h', s) with h' = s * (h reduced modulo R), for R = lc * z^a w^b +
    tail, where z^a w^b is R's grlex-leading monomial; h is a dict of ints,
    consumed.  The terms z^i w^j with i >= a and j >= b are cancelled from
    the grlex-largest down, each step scaling h by lc / gcd(c, lc) so that
    it stays integral; a step only adds terms grlex-smaller than the one it
    cancels.  Zero terms are dropped."""
    a, b = lead
    s = 1
    top = max((i + j for i, j in h), default=-1)
    for k in range(top, a + b - 1, -1):
        for i in range(k - b, a - 1, -1):
            c = h.pop((i, k - i), 0)
            if not c:
                continue
            g = math.gcd(c, lc)
            u, c = lc // g, c // g
            if u != 1:
                s *= u
                for m in h:
                    h[m] *= u
            di, dj = i - a, k - i - b
            for (p, q), r in tail:
                m = (p + di, q + dj)
                h[m] = h.get(m, 0) - c * r
    return {m: c for m, c in h.items() if c}, s


def _eliminate(basis: list, vec: dict, combo: dict):
    """Reduce the column vec, whose combination of the original columns is
    combo, against the echelon basis [(pivot, vector, combination)].  A
    column that reduces to zero returns its combination, a relation among
    the columns; otherwise it joins the basis, divided by its content, and
    None is returned.  Fraction-free: each step is an integer combination
    s * vec - t * v that clears vec's entry at v's pivot."""
    for p, v, vc in basis:
        c = vec.get(p)
        if c:
            e = v[p]
            g = math.gcd(c, e)
            s, t = e // g, c // g
            vec, combo = _combine(vec, s, v, t), _combine(combo, s, vc, t)
    if not vec:
        return combo
    g = math.gcd(*vec.values(), *combo.values())
    if g != 1:
        vec = {m: c // g for m, c in vec.items()}
        combo = {k: c // g for k, c in combo.items()}
    basis.append((max(vec, key=_grlex), vec, combo))
    return None


# ---------------------------------------------------------------------------
# curve orbits


@dataclass
class CurveOrbitStatus:
    kind: str  # "Fixed" | "Periodic" | "PreperiodicTo" | "NotDetectedPreperiodic"
    preperiod: Optional[int] = None
    period: Optional[int] = None
    orbit: list = field(default_factory=list)
    caps: dict = field(default_factory=dict)


def curve_preperiodicity(f: RegularMap, C: PlaneCurve, max_iters: int = 8,
                         max_degree: int = 64) -> CurveOrbitStatus:
    """Iterate pushforward with exact canonical-form cycle detection."""
    orbit, k = _exact_orbit(lambda D: pushforward(f, D), C, max_iters,
                            lambda D: D.degree > max_degree)
    if k is not None:
        period = len(orbit) - k
        kind = "Fixed" if (k, period) == (0, 1) \
            else ("Periodic" if k == 0 else "PreperiodicTo")
        return CurveOrbitStatus(kind, k, period, orbit)
    # the start is never tested against max_degree, so with max_iters = 0 the
    # orbit is [C] and stopped at max_iters whatever the degree of C
    if len(orbit) > 1 and orbit[-1].degree > max_degree:
        caps = {"max_degree": max_degree, "reached_degree": orbit[-1].degree}
    else:
        caps = {"max_iters": max_iters}
    return CurveOrbitStatus("NotDetectedPreperiodic", orbit=orbit, caps=caps)


# ---------------------------------------------------------------------------
# preperiodic point search


@dataclass
class FoundPoint:
    point: tuple
    verdict: PreperiodicityVerdict


def _bounded_rationals(height_bound: int):
    for den in range(1, height_bound + 1):
        for num in range(-height_bound, height_bound + 1):
            q = Fraction(num, den)
            if q.denominator == den:
                yield q


def _on_curve_cyclotomic(R: dict, a1, n1, a2, n2) -> bool:
    """Exact test R(zeta^e1, zeta^e2) = 0, zeta = zeta_L for L = lcm(n1, n2),
    for an integer dict R: the remainder of the exponent sum mod the monic
    Phi_L vanishes."""
    L = n1 * n2 // math.gcd(n1, n2)
    e1, e2 = a1 * L // n1, a2 * L // n2
    cs = [0] * L
    for (i, j), c in R.items():
        cs[(i * e1 + j * e2) % L] += c
    return not any(_pdivmod(cs, cyclotomic_coeffs(L))[2])


def _roots_of_unity_near(x: complex, r: float, max_order: int) -> list:
    """(order n, exponent a) for each root of unity exp(2*pi*i*a/n), n <=
    max_order, within r of x, and maybe a few more, some twice.  A point of
    the unit circle at angle phi from x is at least |x| |sin phi| from x,
    and at least |x| when |phi| >= pi/2; so for r < |x| the window is the
    arc |phi| <= asin(r / |x|), and for r >= |x| (or r = inf) the whole
    circle.  The window's a run from n (t - half) to n (t + half), in turns."""
    m = abs(x)
    if r < abs(m - 1):
        return []
    t, half = 0.0, 0.5  # in turns
    if r < m:
        t, half = cmath.phase(x) / (2 * math.pi), math.asin(r / m) / (2 * math.pi)
    return [(n, a % n) for n in range(1, max_order + 1)
            for a in range(math.ceil(n * (t - half)), math.floor(n * (t + half)) + 1)
            if math.gcd(a, n) == 1]


def _unit_monomial_orbit(f: RegularMap, start: tuple):
    """The verdict of the exact orbit of the pair of roots of unity
    exp(2*pi*i*a/n), start = ((a1, n1), (a2, n2)), under f = (s1 z^d, s2
    w^d) or, swapped, (s1 w^d, s2 z^d), s_i = +-1 (`RegularMap._monomial`);
    None if no cycle closes within ORBIT_CAP steps."""
    orbit = _exponent_orbit(f, start)
    return None if orbit is None else _zeta_verdict(*orbit, 1)


def _exponent_orbit(f: RegularMap, start: tuple):
    """(N, orbit, k) for the orbit of `_unit_monomial_orbit`, run on the
    integer exponents of zeta_N, N = lcm(n1, n2, 2), so s_i = -1 is a half
    turn N / 2: its next point repeats orbit[k]; None if no cycle closes
    within ORBIT_CAP steps.  The exponents stay in 0..N-1, so no size cap
    is needed."""
    (e1, n1), (e2, n2) = start
    N, d = math.lcm(n1, n2, 2), f.d
    s1, s2, swapped = f._monomial
    (a1, b1), (a2, b2) = ((0, d), (d, 0)) if swapped else ((d, 0), (0, d))
    h1, h2 = (N // 2 if s.numerator < 0 else 0 for s in (s1, s2))

    def step(e):
        return (a1 * e[0] + b1 * e[1] + h1) % N, (a2 * e[0] + b2 * e[1] + h2) % N

    orbit, k = _exact_orbit(step, (e1 * N // n1 % N, e2 * N // n2 % N), ORBIT_CAP,
                            lambda e: False)
    return None if k is None else (N, orbit, k)


def _zeta_verdict(N: int, orbit: list, k: int, power: int) -> PreperiodicityVerdict:
    """The verdict of sigma(orbit), an exponent orbit of zeta_N whose next
    point repeats orbit[k], sigma the Galois automorphism zeta_N -> zeta_N^power."""
    return PreperiodicityVerdict.preperiodic(
        [(_zeta(power * e1 % N, N), _zeta(power * e2 % N, N)) for e1, e2 in orbit], k)


@lru_cache(maxsize=4096)
def _zeta(e: int, N: int) -> Zeta:
    """Zeta(e / N), built once for each (e, N) and shared, with its string."""
    return Zeta(Fraction(e, N))


def _unit_roots_tried(R: MultiPoly, row: list, n1: int, a1: int, tol: float,
                      max_order: int) -> list:
    """The (order, exponent) pairs, sorted, of the roots of unity of order at
    most max_order that the probe tries as z2 with z1 = exp(2*pi*i*a1/n1):
    all that solve R(z1, w) = 0, and a few more.  row holds the coefficients
    of R(z1, w) / 2^s by descending powers of w, each within tol of the exact
    one."""
    dw = len(row) - 1
    k = dw  # the degree of R(z1, w): a coefficient within tol of 0 is tested exactly
    while k >= 0 and abs(row[dw - k]) <= tol and _on_curve_cyclotomic(
            {(i, 0): c for (i, j), c in R.num.items() if j == k}, a1, n1, 1, 1):
        k -= 1
    poly = row[dw - k:][::-1] if k >= 0 else []
    mags = list(map(abs, poly))
    if not poly or mags[-1] <= tol:
        # R(z1, w) = 0, a vertical component, or a leading coefficient whose
        # radius would be infinite
        roots = [(0j, math.inf)]
    elif 2 * max(mags) > sum(mags) + (k + 1) * tol:
        roots = []  # one term outweighs the rest on |w| = 1, so no root lies there
    else:
        roots = _approx_roots(poly, tol)
    # r + tol: tol also covers the rounding of the angles
    return sorted({e for x, r in roots for e in _roots_of_unity_near(x, r + tol, max_order)})


def _rational_roots(cs: list) -> list:
    """The rational roots of the integer polynomial sum cs[k] w^k, of degree
    >= 1, one per linear factor, in the order of sympy's factor_list."""
    return [Fraction(-f[0], f[1]) for f, _m in _factor_list(cs) if len(f) == 2]


def find_preperiodic_points(f: RegularMap, C: PlaneCurve, height_bound: int = 3,
                            max_order: int = 24) -> list:
    """Preperiodic points found on C: rational points from vertical-line
    slices at bounded-height rationals, plus, when f is a unit monomial map
    (`RegularMap._monomial` with coefficients +-1), the pairs of roots of
    unity of order at most max_order on C, as Zetas.  Membership is decided
    exactly mod a cyclotomic polynomial for every pair tried, and orbits
    exactly on the exponents.  Other maps get no roots-of-unity probe.

    For each root of unity z1 the probe tries as z2 only the roots of unity
    near the roots of R(z1, w) (`_approx_roots`, `_roots_of_unity_near`),
    whose radii cover every exact root; a row R(z1, w) that vanishes in w,
    a vertical component, tries every z2.  The points of one z1 come in the
    order of (order, exponent) of z2.  The probe runs at z1 = zeta_n1 alone
    (Lang; Beukers-Smyth): sigma_k, zeta -> zeta^k for k prime to 2 and to
    every order up to max_order, fixes R and commutes with f, so it takes the
    points over zeta_n1, and their orbits, to those over zeta_n1^k."""
    R = C.poly
    found = []
    seen = set()
    dz, dw = R.degree_in(0), R.degree_in(1)
    # rational probes along vertical lines z = a
    for a in _bounded_rationals(height_bound):
        p, q = a.numerator, a.denominator
        line = [0] * (dw + 1)  # q^dz R(a, w), ascending in w
        for (i, j), c in R.num.items():
            line[j] += c * p ** i * q ** (dz - i)
        while line and not line[-1]:
            line.pop()
        if not line:
            roots = list(_bounded_rationals(height_bound))  # whole line on C
        elif len(line) == 1:
            continue
        else:
            roots = _rational_roots(line)
        for b in roots:
            if (a, b) in seen:
                continue
            seen.add((a, b))
            verdict = orbit_verdict(f, (a, b))
            if verdict.kind == "Preperiodic":
                found.append(FoundPoint((a, b), verdict))
    mono = f._monomial
    if mono is None or abs(mono[0]) != 1 or abs(mono[1]) != 1:
        return found
    # roots-of-unity probes (numeric window, exact test) at z1 = zeta_n1, on
    # the rows of R / 2^s, whose coefficients lie in the double range
    scale = 2 ** max(0, max(abs(c) for c in R.num.values()).bit_length() - 1000)
    # bounds the rounding of each computed row coefficient, up to degrees in the thousands
    tol = 2.0 ** -40 * (sum(map(abs, R.num.values())) / scale)
    primes = math.factorial(max(max_order, 2))  # k prime to it is prime to every order
    for n1 in range(1, max_order + 1):
        a1 = 1 if n1 > 1 else 0
        z1 = complex(math.cos(2 * math.pi * a1 / n1), math.sin(2 * math.pi * a1 / n1))
        row = [0j] * (dw + 1)  # R(z1, w) / 2^s = sum of row[dw - j] * w^j
        for (i, j), c in R.num.items():
            row[dw - j] += c / scale * z1**i
        base = []  # (order, exponent) of z2 and its exponent orbit, at z1 = zeta_n1
        for n2, a2 in _unit_roots_tried(R, row, n1, a1, tol, max_order):
            if n1 <= 2 and n2 <= 2 and height_bound >= 1:
                continue  # (+-1, +-1) already covered by the rational search
            if _on_curve_cyclotomic(R.num, a1, n1, a2, n2):
                orbit = _exponent_orbit(f, ((a1, n1), (a2, n2)))
                if orbit is not None:
                    base.append((n2, a2, orbit))
        for a1 in (a for a in range(a1, n1) if math.gcd(a, n1) == 1):
            k = next(k for k in range(a1, primes, n1) if math.gcd(k, primes) == 1)
            for n2, a2, orbit in sorted((n2, k * a2 % n2, o) for n2, a2, o in base):
                found.append(FoundPoint((_zeta(a1, n1), _zeta(a2, n2)), _zeta_verdict(*orbit, k)))
    return found


# ---------------------------------------------------------------------------
# integrated report


@dataclass
class InfinityPointReport:
    point: InfinityPoint
    orbit_verdict: PreperiodicityVerdict
    terminal_classification: object  # None when not computed
    note: str = ""


@dataclass
class DmmReport:
    infinity_points: list
    preperiodic_points: list
    curve_status: CurveOrbitStatus
    hypothesis_witnessed: bool
    conclusion_witnessed: bool
    consistency: Optional[bool]
    notes: list


def _terminal_classification(f: RegularMap, pt: InfinityPoint,
                             verdict: PreperiodicityVerdict):
    """Multiplier classification of the terminal cycle, when reachable."""
    if verdict.kind != "Preperiodic":
        return None, "orbit not resolved"
    if (verdict.preperiod, verdict.period) == (0, 1):
        return classify_multiplier(multiplier((f.top_P, f.top_Q), pt)), ""
    cyc = verdict.orbit[verdict.preperiod]
    if not isinstance(cyc[0], (int, Fraction)):
        return None, "terminal cycle not rational; classification skipped"
    lam = multiplier(compose_forms(f, verdict.period), InfinityPoint.from_pair(*cyc))
    return classify_multiplier(lam), ""


def dmm_report(f: RegularMap, C: PlaneCurve, max_iters: int = 8,
               max_degree: int = 64, height_bound: int = 3,
               max_order: int = 24) -> DmmReport:
    """Assemble the full dynamical Manin-Mumford style report for (f, C):
    orbits of the points at infinity, multiplier classifications of their
    terminal cycles, preperiodic points found on C, and the curve's own
    orbit status — with witness-carrying flags for the theorem's
    hypothesis (a point at infinity not eventually superattracting) and
    conclusion (the curve is preperiodic)."""
    notes = []
    inf_reports = []
    for pt in points_at_infinity(C):
        verdict = infinity_orbit_preperiodicity(f, pt)
        cls, note = _terminal_classification(f, pt, verdict)
        inf_reports.append(InfinityPointReport(pt, verdict, cls, note))
        if note:
            notes.append(f"point {pt}: {note}")
    curve_status = curve_preperiodicity(f, C, max_iters, max_degree)
    pts = find_preperiodic_points(f, C, height_bound, max_order)
    # the points at infinity whose terminal cycle is not superattracting
    witnesses = [(r.orbit_verdict.preperiod, r.orbit_verdict.period) for r in inf_reports
                 if r.orbit_verdict.kind == "Preperiodic"
                 and r.terminal_classification is not None
                 and not isinstance(r.terminal_classification, Superattracting)]
    hypothesis = bool(witnesses)
    conclusion = curve_status.kind in ("Fixed", "Periodic", "PreperiodicTo")
    if not hypothesis and conclusion:
        notes.append("curve preperiodic but outside the theorem's hypothesis "
                     "(no non-superattracting point at infinity witnessed)")
    if not pts:
        notes.append("no preperiodic points found at the search caps; the "
                     "infinitude hypothesis is unsupported by this sample")
    consistency = None
    if conclusion and curve_status.period is not None and witnesses:
        consistency = all(s == (curve_status.preperiod, curve_status.period)
                          for s in witnesses)
    return DmmReport(inf_reports, pts, curve_status, hypothesis, conclusion,
                     consistency, notes)

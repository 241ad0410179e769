"""Exact bivariate polynomials over Q: arithmetic, evaluation, parsing; and
the integer helpers and operators (`_Exact`) the series, number fields and
curves share with it."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import accumulate


class PolyParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _over_den(cs):
    """Rationals cs as integer numerators over their least common denominator."""
    cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in cs]
    den = math.lcm(*[c.denominator for c in cs])
    return [c.numerator * (den // c.denominator) for c in cs], den


def _conv(a: list, tb: list, n: int) -> list:
    """Integer numerators of a * b mod y^(n+1): a has at most n + 1 entries,
    tb lists the nonzero (k, b_k) of b by increasing k."""
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in tb:
                if i + j > n:
                    break
                out[i + j] += ai * bj
    return out


def _sum(na: list, da: int, nb: list, db: int, sign: int = 1):
    """na/da + sign * nb/db for numerator lists of one length, over
    lcm(da, db), not reduced."""
    den = da if da == db else math.lcm(da, db)
    fa, fb = den // da, sign * (den // db)
    return [x * fa + y * fb for x, y in zip(na, nb)], den


def _times(h: dict, g: dict) -> dict:
    """The product of two polynomials as dicts {(i, j): c}; zeros are kept."""
    out = {}
    for (i, j), c in h.items():
        for (k, l), e in g.items():
            m = (i + k, j + l)
            out[m] = out.get(m, 0) + c * e
    return out


def _combine(x: dict, s: int, y: dict, t: int) -> dict:
    """s * x - t * y, zero terms dropped."""
    out = {m: s * c for m, c in x.items()} if s != 1 else dict(x)
    for m, c in y.items():
        v = out.get(m, 0) - t * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _sum2(na: dict, da: int, nb: dict, db: int, sign: int = 1):
    """na/da + sign * nb/db for numerator dicts, over lcm(da, db), not
    reduced; zero terms dropped."""
    den = da if da == db else math.lcm(da, db)
    return _combine(na, den // da, nb, -sign * (den // db)), den


def _approx_roots(cs, tol: float = 0.0) -> list:
    """[(x, r)] for the n roots of p = sum cs[k] t^k, of degree n (cs[-1] !=
    0, ints or complex numbers): approximations x_i by the Weierstrass
    (Durand-Kerner) iteration, and radii r_i such that every root of every
    polynomial whose coefficients lie within tol of p's lies within r_i of
    some x_i.  For distinct x_i, p(t) = c_n prod (t - x_j) (1 + sum W_i /
    (t - x_i)) with W_i = p(x_i) / (c_n prod_{j != i} (x_i - x_j)), so at a
    root some |t - x_i| <= n |W_i| (Braess and Hadeler 1973); tol also has
    to cover the rounding of p(x_i).  A radius that is not finite is inf.
    Near a k-fold root the x_i settle about eps^(1/k) apart, and their radii
    grow to match."""
    n, lead = len(cs) - 1, cs[-1]
    a = [c / lead for c in reversed(cs)]  # monic, descending
    x = [complex(0.4, 0.9) ** k for k in range(n)]
    for step in range(101):
        p, d = [], []  # p(x_i) / c_n and prod_{j != i} (x_i - x_j)
        for i, t in enumerate(x):
            v, e = 0j, 1
            for c in a:
                v = v * t + c
            for j, u in enumerate(x):
                if j != i:
                    e *= t - u
            p.append(v)
            d.append(e)
        if step == 100 or all(abs(v) <= 2.0 ** -40 * abs(e) * (1 + abs(t))
                              for v, e, t in zip(p, d, x)):
            break
        x = [t - v / e if e else t for t, v, e in zip(x, p, d)]
    out = []
    for t, v, e in zip(x, p, d):
        powers = 0.0  # sum of |x_i|^k for k <= n, inf past the double range
        for _ in range(n + 1):
            powers = powers * abs(t) + 1
        below = (abs(lead) - tol) * abs(e)
        r = n * (abs(lead * v) + tol * powers) / below if below > 0 else math.inf
        out.append((t, r if r < math.inf else math.inf))
    return out


def _divide_linear(h: list, r: Fraction):
    """h / (q t - p) for r = p / q and ascending integer coefficients h, when
    the division is exact; None otherwise."""
    p, q = r.numerator, r.denominator
    g, carry = [0] * (len(h) - 1), 0
    for k in range(len(h) - 1, 0, -1):  # h_k = q g_(k-1) - p g_k
        carry, rest = divmod(h[k] + p * carry, q)
        if rest:
            return None
        g[k - 1] = carry
    return g if h[0] + p * carry == 0 else None


def _clusters(approx) -> list:
    """(mean, k) for each cluster of k >= 2 approximate roots, a cluster
    joining the (x, r) whose discs overlap, transitively.  The approximations
    of a k-fold root lie about eps^(1/k) apart, but their mean is close to it."""
    clusters = []
    for x, r in approx:
        near = [c for c in clusters if any(abs(x - y) <= r + s for y, s in c)]
        clusters = [c for c in clusters if c not in near] + [[(x, r)] + sum(near, [])]
    return [(sum(y for y, _s in c) / len(c), len(c)) for c in clusters if len(c) > 1]


def _integer_nthroot(y: int, n: int) -> tuple:
    """(the integer part of y^(1/n), whether it is exact) for integers y >= 0
    and n >= 1, by Newton's method from 2^ceil(bits(y) / n) >= y^(1/n): the
    iterates fall strictly until they reach the integer part."""
    if y < 2 or n == 1:
        return y, True
    x = 1 << -(-y.bit_length() // n)
    while (z := ((n - 1) * x + y // x ** (n - 1)) // n) < x:
        x = z
    return x, x ** n == y


def _low_degree_factors(cs):
    """sp.factor_list(...)[1] for the integer polynomial sum cs[k] x^k
    (cs[-1] != 0) when each of its irreducible factors is linear but at most
    one quadratic; None otherwise.  Each factor is a tuple of ascending
    coefficients, primitive with a positive leading one, with its
    multiplicity, in sympy's order: by degree, multiplicity, then
    descending coefficients.  No coefficient is factored.  A rational root
    is an approximate root (`_approx_roots`), or the mean of a cluster of k
    of them (`_clusters`), taken to the nearest fraction whose denominator
    is at most the k-th root of the leading coefficient (a k-fold root p/q
    has q^k dividing it), confirmed by exact division; the quotient is
    approximated again while that finds a root and leaves a degree above 2.
    A quadratic is irreducible iff its discriminant is not a square."""
    j = next(k for k, c in enumerate(cs) if c)
    factors = [((0, 1), j)] if j else []  # x^j
    g = math.gcd(*cs[j:])
    h = [c // g for c in cs[j:]]
    while len(h) > 3:
        try:
            approx = _approx_roots(h)
        except OverflowError:  # a coefficient ratio past the double range
            return None
        degree = len(h)
        for x, k in [(x, 1) for x, _r in approx] + _clusters(approx):
            if not math.isfinite(x.real):
                continue
            q = _integer_nthroot(abs(h[-1]), k)[0]
            r, m = Fraction(x.real).limit_denominator(q), 0
            while (quotient := _divide_linear(h, r)) is not None:
                h, m = quotient, m + 1
            if m:
                factors.append(((-r.numerator, r.denominator), m))
        if len(h) == degree:
            return None
    if len(h) == 3:
        c, b, a = h
        D = b * b - 4 * a * c
        s = math.isqrt(D) if D >= 0 else -1
        if s * s != D:
            factors.append((tuple(h) if a > 0 else (-c, -b, -a), 1))
        else:  # rational roots (-b -+ s) / 2a, one double root when s = 0
            roots = {Fraction(-b - s, 2 * a), Fraction(-b + s, 2 * a)}
            factors += [((-r.numerator, r.denominator), 3 - len(roots)) for r in roots]
    elif len(h) == 2:
        factors.append((tuple(h) if h[1] > 0 else (-h[0], -h[1]), 1))
    return sorted(factors, key=lambda f: (len(f[0]), f[1], f[0][::-1]))


def _factor_list(cs) -> list:
    """The irreducible factors of the integer polynomial sum cs[k] x^k
    (cs[-1] != 0) as sp.factor_list(...)[1] gives them, each a tuple of
    ascending integer coefficients with its multiplicity, in sympy's order:
    in closed form when `_low_degree_factors` finds them, else from sympy."""
    factors = _low_degree_factors(cs)
    if factors is None:
        from .exactnum import sp  # numberfield, which exactnum imports, imports polyalg
        factors = [(tuple(map(int, b.all_coeffs()[::-1])), m)
                   for b, m in sp.factor_list(sp.Poly(cs[::-1], sp.Symbol("x")))[1]]
    return factors


def _eval_terms(terms, z, w):
    """The sum of c * z**i * w**j over the ((i, j), c) terms, in their order,
    in the ring of z and w; the int 0 for no terms.

    The sum starts from the first term and zero exponents are skipped, so no
    int 0 or 1 is mixed into the ring; each power is computed once."""
    zp, wp = {}, {}
    total = None
    for (i, j), t in terms:
        if i:
            if i not in zp:
                zp[i] = z ** i
            t = t * zp[i]
        if j:
            if j not in wp:
                wp[j] = w ** j
            t = t * wp[j]
        total = t if total is None else total + t
    return 0 if total is None else total


class _Exact:
    """The operators of the exact types, each stored as integer numerators
    over one positive denominator in lowest terms (MultiPoly, the series,
    NFElement).  A subclass gives `_set` (store its form, put in lowest
    terms), `_plus(other, sign)`, `__neg__` and `__mul__`."""

    __slots__ = ()

    @classmethod
    def _make(cls, *form):
        """The value of a stored form whose numerators no one else changes,
        bypassing __init__ (see the subclass's `_set`)."""
        x = object.__new__(cls)
        x._set(*form)
        return x

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, n: int):
        """Repeated squaring from self, so no product by one and no square
        past the top bit; self ** 0 is the one of self's type and order."""
        if n < 0:
            raise ValueError("negative power of a value without an inverse")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self * 0 + 1 if result is None else result


class MultiPoly(_Exact):
    """Sparse bivariate polynomial over Q: the coefficient of z^i w^j is
    num[(i, j)] / den, num holding the nonzero integer numerators over one
    positive den, in lowest terms (gcd(den, *num) == 1; den 1 for the zero
    polynomial).  The form is canonical, so `==` compares it directly.
    Immutable; `coeffs` is a read-only Fraction view, built once on first use."""

    __slots__ = ("num", "den", "_view")

    def __init__(self, coeffs=None):
        terms = [(e, c) for e, c in (coeffs or {}).items() if c]
        num, den = _over_den([c for _, c in terms])
        self._set({e: n for (e, _), n in zip(terms, num)}, den)

    def _set(self, num: dict, den: int):
        """num / den for a dict of nonzero ints and den > 0."""
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
        self.num, self.den, self._view = num, den, None

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients {(i, j): Fraction} (a view: do not modify)."""
        if self._view is None:
            self._view = {e: Fraction(c, self.den) for e, c in self.num.items()}
        return self._view

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly()

    @staticmethod
    def constant(c) -> "MultiPoly":
        return MultiPoly({(0, 0): c})

    @staticmethod
    def variable(which: int) -> "MultiPoly":
        return MultiPoly({(1, 0) if which == 0 else (0, 1): 1})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.num:
            return -1
        return max(i + j for i, j in self.num)

    def degree_in(self, var: int) -> int:
        if not self.num:
            return -1
        return max(e[var] for e in self.num)

    def coefficient(self, i: int, j: int):
        return self.coeffs.get((i, j), Fraction(0))

    # -- arithmetic ---------------------------------------------------

    def _lift(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(other)
        return NotImplemented

    def _plus(self, other, sign: int):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return MultiPoly._make(*_sum2(self.num, self.den, o.num, o.den, sign))

    def __neg__(self):
        return MultiPoly._make({e: -c for e, c in self.num.items()}, self.den)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return MultiPoly._make({e: c for e, c in _times(self.num, o.num).items() if c},
                               self.den * o.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    # -- evaluation / substitution ------------------------------------

    def eval(self, z, w):
        """Evaluate at a point of any commutative ring (see :func:`_eval_terms`)."""
        return _eval_terms(self.coeffs.items(), z, w)

    def compose(self, u: "MultiPoly", v: "MultiPoly") -> "MultiPoly":
        """Substitute polynomials for the two variables."""
        return MultiPoly.zero() + self.eval(u, v)  # a MultiPoly even if constant

    # -- homogeneous pieces -------------------------------------------

    def homogeneous_part(self, d: int) -> "MultiPoly":
        return MultiPoly._make({e: c for e, c in self.num.items() if e[0] + e[1] == d},
                               self.den)

    # -- printing / sympy ---------------------------------------------

    def to_poly(self, zgen, wgen):
        """A sympy Poly in the generators standing for z and w, over ZZ (QQ
        if a coefficient is not an integer)."""
        from .exactnum import sp  # here, as exactnum imports this module
        K, terms = (sp.ZZ, self.num) if self.den == 1 else (sp.QQ, self.coeffs)
        # a copy: from_dict converts the values of its dict in place
        return sp.Poly.from_dict(dict(terms), zgen, wgen, domain=K)

    @staticmethod
    def from_poly(poly) -> "MultiPoly":
        """A sympy Poly over ZZ or QQ in two generators, read as z and w; the
        terms keep the Poly's (lex) order."""
        K = poly.domain
        return MultiPoly({e: Fraction(int(K.numer(c)), int(K.denom(c)))
                          for e, c in poly.rep.terms()})

    def to_string(self, vars=("z", "w")) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j) in sorted(self.coeffs, key=lambda e: (-(e[0] + e[1]), -e[0])):
            c = self.coeffs[(i, j)]
            mono = "*".join(
                ([f"{vars[0]}^{i}" if i > 1 else vars[0]] if i else [])
                + ([f"{vars[1]}^{j}" if j > 1 else vars[1]] if j else []))
            if not mono:
                term = str(c)
            elif c == 1:
                term = mono
            elif c == -1:
                term = f"-{mono}"
            else:
                term = f"{c}*{mono}"
            parts.append(term)
        s = parts[0]
        for t in parts[1:]:
            s += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return s

    def __repr__(self):
        return f"MultiPoly({self.to_string()})"


def homogeneous_top(P: MultiPoly) -> MultiPoly:
    """Sum of the terms of maximal total degree."""
    if P.is_zero():
        raise ValueError("zero polynomial has no top form")
    return P.homogeneous_part(P.degree)


# ---------------------------------------------------------------------------
# parser


# a run of decimal digits, a name or any other non-space character; `split`
# returns them between the whitespace runs, so every token has its position
_TOKEN = re.compile(r"(\d+|[^\W\d]\w*|\S)")


def parse_poly(text: str, vars=("z", "w")) -> MultiPoly:
    """Parse an exact polynomial in the two declared variables.

    Grammar: expr := ['-'] term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := base ('^' uint)?; base := rational | var | '(' expr ')'.

    The text is split into tokens once, each with its position (then "" at
    the end of the text), and the descent reads them by index.  Each term is
    read as one monomial c z^i w^j, c a pair (num, den), summed straight into
    a coefficient dict; MultiPoly products and powers only for parentheses."""
    parts = _TOKEN.split(text)
    toks = parts[1::2]
    toks.append("")
    at = list(accumulate(map(len, parts)))[::2]
    terms, i = _parse_expr(toks, at, 0, vars)
    if toks[i]:
        raise PolyParseError(f"unexpected character {text[at[i]]!r}", at[i])
    return _from_pairs(terms)


def _from_pairs(terms: dict) -> MultiPoly:
    """The MultiPoly of a dict of nonzero coefficients (num, den), den > 0."""
    den = math.lcm(*[d for _, d in terms.values()])
    return MultiPoly._make({e: n * (den // d) for e, (n, d) in terms.items()}, den)


def _parse_expr(toks: list, at: list, i: int, vars) -> tuple:
    """(the coefficient dict of the expr at token i, the index after it),
    its values nonzero pairs (num, den).  A monomial enters it where it
    first appears, leaves it when its coefficients cancel and may then
    re-enter at the end: the order of MultiPoly sums, which MultiPoly.eval
    follows."""
    sign = 1
    if toks[i] == "-":
        i, sign = i + 1, -1
    elif toks[i] == "+":
        i += 1
    out = {}
    while True:
        items, i = _parse_term(toks, at, i, vars)
        for e, (n, d) in items:
            old = out.get(e)
            if old is not None:
                m, c = old
                n, d = (m + sign * n, d) if c == d else (m * d + sign * n * c, c * d)
                if not n:
                    del out[e]
                    continue
            elif sign < 0:
                n = -n
            out[e] = (n, d)
        if toks[i] == "+":
            sign = 1
        elif toks[i] == "-":
            sign = -1
        else:
            return out, i
        i += 1


def _uint(toks: list, at: list, i: int) -> int:
    if not toks[i].isdecimal():
        raise PolyParseError("expected integer", at[i])
    return int(toks[i])


def _parse_term(toks: list, at: list, i: int, vars) -> tuple:
    """(the ((i, j), (num, den)) items of the term at token i, the index after
    it): one monomial, or a MultiPoly product for parenthesised factors."""
    num, den, a, b, rest = 1, 1, 0, 0, None
    while True:
        base, i = _parse_base(toks, at, i, vars)
        if toks[i] == "^":
            k = _uint(toks, at, i + 1)
            i += 2
        else:
            k = 1
        if isinstance(base, MultiPoly):
            base = base ** k
            rest = base if rest is None else rest * base
        else:
            n, d, x, y = base
            num, den, a, b = num * n ** k, den * d ** k, a + k * x, b + k * y
        if toks[i] != "*":
            break
        i += 1
    if not num:
        return (), i
    if rest is None:
        return (((a, b), (num, den)),), i
    rest = rest * MultiPoly._make({(a, b): num}, den)
    return [(e, (n, rest.den)) for e, n in rest.num.items()], i


_VARS = ((1, 1, 1, 0), (1, 1, 0, 1))  # z and w as monomials (num, den, i, j)


def _parse_base(toks: list, at: list, i: int, vars) -> tuple:
    """(the base at token i, the index after it): a rational or a variable
    as a monomial (num, den, i, j), or a parenthesised expr as a MultiPoly."""
    t = toks[i]
    if t == "(":
        terms, i = _parse_expr(toks, at, i + 1, vars)
        if toks[i] != ")":
            raise PolyParseError("expected ')'", at[i])
        return _from_pairs(terms), i + 1
    if t.isdecimal():
        if toks[i + 1] != "/":
            return (int(t), 1, 0, 0), i + 1
        den = _uint(toks, at, i + 2)
        if den == 0:
            raise PolyParseError("zero denominator", at[i + 2] + len(toks[i + 2]))
        return (int(t), den, 0, 0), i + 3
    if t in vars:
        return _VARS[vars.index(t)], i + 1
    if not t:
        raise PolyParseError("unexpected end of input", at[i])
    if t[0].isalpha():
        raise PolyParseError(f"unknown variable {t!r}", at[i])
    raise PolyParseError(f"unexpected character {t[0]!r}", at[i])

"""Places of Q, exact absolute values, and algebraic numbers.

The base field is fixed to the rationals.  Algebraic numbers are
represented by an irreducible primitive integer minimal polynomial
together with an embedding index (sympy's ``CRootOf`` root ordering)
and are refinable to arbitrary precision.

This module is regdyn's one boundary to sympy: `sp` imports it on first
use, and every other module reaches sympy through `sp`.  Primality and
trial division run on integers; only what they cannot decide goes there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Optional

from .intervals import RealInterval
from .numberfield import NumberField, _pdivmod
from .polyalg import _conv


class _Sympy:
    """sympy, imported on first attribute access.  Each access looks the
    attribute up anew, so a patched sympy function is seen."""

    def __getattr__(self, name):
        import sympy
        return getattr(sympy, name)


sp = _Sympy()


# the first 13 primes: Miller-Rabin to these bases proves primality below
# PSI_13 (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def isprime(n: int) -> bool:
    """Whether the integer n is prime: trial division by the bases, then
    Miller-Rabin to every base below PSI_13, a proof; sympy's isprime (the
    BPSW test) from PSI_13 on."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n >= PSI_13:
        return sp.isprime(n)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Place:
    """An absolute value on Q: the Archimedean one or a p-adic one."""

    prime: Optional[int] = None  # None means Archimedean

    def __post_init__(self):
        if self.prime is not None and not isprime(self.prime):
            raise ValueError(f"{self.prime} is not prime")

    @property
    def is_finite(self) -> bool:
        return self.prime is not None

    @staticmethod
    def archimedean() -> "Place":
        return Place(None)

    @staticmethod
    def finite(p: int) -> "Place":
        return Place(p)

    def __repr__(self):
        return "Place(inf)" if self.prime is None else f"Place({self.prime})"


# prime_factors splits a leftover cofactor, one without prime factors up to
# FACTOR_TRIAL_LIMIT that is not prime, only up to FACTOR_MAX_BITS bits:
# sympy splits 64-96-bit semiprimes in 0.2-1.1 s on a 2-core Xeon under
# Python 3.11, and does not end in practice on the 330-bit RSA-100 modulus
FACTOR_TRIAL_LIMIT = 10**4
FACTOR_MAX_BITS = 96


class FactoringCap(ArithmeticError):
    pass


@cache
def _trial_primes() -> tuple:
    """The primes up to FACTOR_TRIAL_LIMIT, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (FACTOR_TRIAL_LIMIT - 1)
    for p in range(2, math.isqrt(FACTOR_TRIAL_LIMIT) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(sieve[p * p::p]))
    return tuple(p for p, prime in enumerate(sieve) if prime)


def prime_factors(n: int) -> set:
    """The primes dividing the nonzero integer n: trial division up to
    FACTOR_TRIAL_LIMIT, and a leftover that `isprime` accepts (a proof
    below PSI_13, the BPSW test above).  A composite leftover goes to
    sympy, which splits it when it has at most FACTOR_MAX_BITS bits;
    FactoringCap above."""
    primes, m = set(), abs(n)
    for p in _trial_primes():
        if p * p > m:
            break
        if m % p == 0:
            primes.add(p)
            while m % p == 0:
                m //= p
    if m == 1:
        return primes
    if isprime(m):
        return primes | {m}
    return _sympy_prime_factors(n)


def _sympy_prime_factors(n: int) -> set:
    """prime_factors by sympy's factorint alone, from an empty factor cache.
    factorint keeps the prime factors it finds in a process-wide cache, and
    a call that reads them splits leftovers that a first call leaves whole:
    emptied, the cap is a function of n alone."""
    sp.factor_cache.cache_clear()
    primes = set()
    for q in sp.factorint(abs(n), limit=FACTOR_TRIAL_LIMIT):
        if sp.isprime(q):
            primes.add(int(q))
        elif q.bit_length() <= FACTOR_MAX_BITS:
            primes |= {int(r) for r in sp.factorint(q)}
        else:
            raise FactoringCap(
                f"cannot factor a {q.bit_length()}-bit composite without prime factors "
                f"up to FACTOR_TRIAL_LIMIT = {FACTOR_TRIAL_LIMIT}: it is past "
                f"FACTOR_MAX_BITS = {FACTOR_MAX_BITS}")
    return primes


def _int_valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of 0 is +infinity")
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


def abs_at_place_exact(x, v: Place) -> Fraction:
    """|x|_v exactly (|p|_p = 1/p normalization)."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    if v.is_finite:
        return Fraction(v.prime) ** (-valuation(x, v.prime))
    return abs(x)


@dataclass(frozen=True)
class ComplexInterval:
    re: RealInterval
    im: RealInterval

    def disjoint(self, other: "ComplexInterval") -> bool:
        return not (self.re.overlaps(other.re) and self.im.overlaps(other.im))

    def abs_lower(self) -> Fraction:
        def lo(i):
            if i.lower <= 0 <= i.upper:
                return Fraction(0)
            return min(abs(i.lower), abs(i.upper))
        # |z|^2 >= lo(re)^2 + lo(im)^2; return a dyadic-safe underestimate of |z|
        s = lo(self.re) ** 2 + lo(self.im) ** 2
        return _sqrt_lower(s)


def _sqrt_lower(q: Fraction, bits: int = 128) -> Fraction:
    # floor-isqrt based certified lower bound for sqrt(q)
    if q == 0:
        return Fraction(0)
    scale = 1 << bits
    n = q.numerator * q.denominator * scale * scale
    return Fraction(math.isqrt(n), q.denominator * scale)


class AlgebraicNumber:
    """Root number ``embedding_index`` (CRootOf order) of an irreducible
    primitive integer polynomial, kept as the modulus of its number field:
    ascending integer coefficients, the leading one positive.  Up to degree
    2 the roots are in closed form (`_boxes`), from degree 3 sympy's CRootOf."""

    def __init__(self, minpoly, embedding_index: int = 0):
        # a univariate sympy Poly (any generator, ZZ or QQ) or ascending coefficients
        if hasattr(minpoly, "all_coeffs"):
            minpoly = reversed(minpoly.all_coeffs())
        self._field = NumberField(minpoly)
        self._coeffs = self._field.modulus
        if not 0 <= embedding_index < self.degree:
            raise ValueError("embedding index out of range")
        if self.degree == 2:  # irreducible iff the discriminant is not a square
            c, b, a = self._coeffs
            D = b * b - 4 * a * c
            irreducible = D < 0 or math.isqrt(D) ** 2 != D
        else:
            irreducible = self.degree == 1 or self.minpoly.is_irreducible
        if not irreducible:
            raise ValueError("minimal polynomial must be irreducible")
        self.embedding_index = embedding_index

    @cached_property
    def minpoly(self):
        """The minimal polynomial as a sympy Poly in x."""
        return sp.Poly(self._coeffs[::-1], sp.Symbol("x"))

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q) -> "AlgebraicNumber":
        q = Fraction(q)
        return AlgebraicNumber([-q.numerator, q.denominator])

    # -- basic data ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def minpoly_coeffs(self) -> tuple:
        """Coefficients c_0..c_n, ascending."""
        return self._coeffs

    def is_rational(self) -> bool:
        return self.degree == 1

    def as_rational(self) -> Fraction:
        c0, c1 = self._coeffs
        return Fraction(-c0, c1)

    def number_field(self) -> NumberField:
        return self._field

    def approx(self) -> complex:
        """The nearest double to each coordinate: proved up to degree 2, where
        an irrational end never lies on a rounding boundary; sympy's above."""
        if self.degree > 2:
            return complex(sp.N(self.minpoly.all_roots()[self.embedding_index], 30))
        bits, z = 64, (None,)
        while None in z:
            box = _boxes(self._coeffs, bits)[self.embedding_index]
            z, bits = (_nearest_double(box.re), _nearest_double(box.im)), 2 * bits
        return complex(*z)

    def is_zero(self) -> bool:
        return self._coeffs == (0, 1)

    def __eq__(self, other):
        return (isinstance(other, AlgebraicNumber)
                and self._coeffs == other._coeffs
                and self.embedding_index == other.embedding_index)

    def __hash__(self):
        return hash((self._coeffs, self.embedding_index))

    def minpoly_text(self) -> str:
        """The minimal polynomial in x as sympy prints it (`_poly_text`)."""
        return _poly_text(self._coeffs)

    def __repr__(self):
        if self.is_rational():
            return f"AlgebraicNumber({self.as_rational()})"
        return f"AlgebraicNumber({self.minpoly_text()}, root #{self.embedding_index})"


def _poly_text(coeffs: tuple) -> str:
    """str(sp.Poly(coeffs[::-1], x).as_expr()) for ascending integer
    coefficients, the leading one positive: the nonzero terms by descending
    degree, as in 2*x**2 - 1 or x**3 - x - 1."""
    text = ""
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c:
            x = "" if k == 0 else "x" if k == 1 else f"x**{k}"
            term = f"{abs(c)}*{x}" if abs(c) != 1 and x else x or str(abs(c))
            text += (" - " if c < 0 else " + ") + term if text else term
    return text


def _boxes(coeffs: tuple, bits: int) -> list:
    """Disjoint boxes around the roots of a polynomial of degree <= 2, in
    index order: exact at degree 1.  A quadratic c + b x + a x^2 has root i
    (-b + e sqrt(D)) / 2a, D = b^2 - 4ac and e = 2i - 1, which is CRootOf
    order: real roots ascend, and a complex pair puts the negative imaginary
    part first.  Its boxes come from isqrt(|D| 4^bits) / 2^bits <= sqrt|D| <
    that + 2^-bits, so they are 2^-bits / 2a wide."""
    zero = RealInterval.exact(0)
    if len(coeffs) == 2:
        return [ComplexInterval(RealInterval.exact(Fraction(-coeffs[0], coeffs[1])), zero)]
    c, b, a = coeffs
    D = b * b - 4 * a * c
    s = _sqrt_lower(Fraction(abs(D)), bits)  # >= 1, so the boxes are disjoint
    r = RealInterval(s / (2 * a), (s + Fraction(1, 1 << bits)) / (2 * a))
    centre = RealInterval.exact(Fraction(-b, 2 * a))
    return [ComplexInterval(centre + e, zero) if D > 0 else ComplexInterval(centre, e)
            for e in (-r, r)]


def _nearest_double(i: RealInterval):
    """The double nearest every point of i, or None when its ends round apart."""
    try:
        lo, hi = float(i.lower), float(i.upper)
    except OverflowError:  # past the double range, as mpmath's to_float
        return math.inf if i.lower > 0 else -math.inf
    return lo if lo == hi else None


def conjugates(a: AlgebraicNumber, precision=Fraction(1, 10**6)) -> list:
    """Pairwise-disjoint complex boxes, one per root of the minimal
    polynomial, each of width <= precision; proved up to degree 2."""
    precision = Fraction(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    if a.degree <= 2:  # 2^bits >= 1 / (2a * precision)
        bits = math.ceil(1 / (2 * a.minpoly_coeffs()[-1] * precision)).bit_length()
        return _boxes(a.minpoly_coeffs(), max(64, bits))
    roots = a.minpoly.all_roots()
    for digits in (20, 40, 80, 160, 320, 640):
        radius = Fraction(1, 10 ** (digits - 3))
        if 2 * radius > precision:
            continue
        boxes = []
        for r in roots:
            val = sp.N(r, digits)
            re = Fraction(str(sp.re(val)))
            im = Fraction(str(sp.im(val)))
            boxes.append(ComplexInterval(
                RealInterval(re - radius, re + radius),
                RealInterval(im - radius, im + radius)))
        ok = all(boxes[i].disjoint(boxes[j])
                 for i in range(len(boxes)) for j in range(i + 1, len(boxes)))
        if ok:
            return boxes
    raise RuntimeError("failed to isolate roots at requested precision")


def is_root_of_unity(a: AlgebraicNumber):
    """(True, n) iff the minimal polynomial is the n-th cyclotomic
    polynomial; (False, None) otherwise.  Exact."""
    if a.is_zero():
        raise ValueError("0 is not a root of unity")
    deg = a.degree
    # phi(n) >= sqrt(n/2), so phi(n) = deg forces n <= 2*deg^2 + 1
    for n in range(1, 2 * deg * deg + 2):
        if _totient(n) == deg and cyclotomic_coeffs(n) == a.minpoly_coeffs():
            return True, n
    return False, None


@cache
def cyclotomic_coeffs(n: int) -> tuple:
    """The n-th cyclotomic polynomial, n >= 1, as ascending integer
    coefficients: the Moebius inversion Phi_n = prod over d | n of (x^d -
    1)^mu(n/d) of x^n - 1 = prod over d | n of Phi_d.  The factors of mu = 1
    are multiplied in, then those of mu = -1 divide the product exactly.
    x^d - 1 has two terms, so a step costs the degree, and Phi_4032 takes
    milliseconds, where dividing x^n - 1 by every Phi_d, d | n, would cost
    about n^2."""
    primes = sorted(prime_factors(n))
    up, down = [], []  # the d = n / s, s squarefree, with mu(s) = 1 and -1
    for mask in range(1 << len(primes)):
        s = math.prod(p for k, p in enumerate(primes) if mask >> k & 1)
        (down if bin(mask).count("1") % 2 else up).append(n // s)
    a = [1]
    for d in up:
        a = _conv(a, [(0, -1), (d, 1)], len(a) + d - 1)
    for d in down:
        a = _pdivmod(a, [-1] + [0] * (d - 1) + [1])[1]
    return tuple(a)


def _totient(n: int) -> int:
    """Euler's phi of n >= 1."""
    phi = n
    for p in sorted(prime_factors(n)):
        phi -= phi // p
    return phi


@dataclass(frozen=True)
class Zeta:
    """The root of unity exp(2*pi*i*t), t a Fraction taken mod 1."""
    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "t", self.t % 1)

    def __complex__(self):
        return cmath.exp(2j * math.pi * float(self.t))

    def __str__(self):
        return self._text

    @cached_property
    def _text(self):
        """What sympy prints for exp(2*pi*I*t): 1, -1, I, -I, or exp(c*I*pi)
        with c = 2t taken into (-1, 1]."""
        p, q = self.t.numerator, self.t.denominator
        c = 2 * p - 2 * q if 2 * p > q else 2 * p  # 2t in (-1, 1] is c / q
        g = math.gcd(c, q)
        c, q = c // g, q // g
        if q <= 2:
            return {(0, 1): "1", (1, 1): "-1", (1, 2): "I", (-1, 2): "-I"}[c, q]
        sign, factor = "-" if c < 0 else "", f"{abs(c)}*" if abs(c) != 1 else ""
        return f"exp({sign}{factor}I*pi/{q})"


@dataclass(frozen=True)
class ExpandingPlaceWitness:
    place: Place
    embedding_index: Optional[int] = None  # Archimedean witness
    note: str = ""


def find_expanding_place(a: AlgebraicNumber) -> Optional[ExpandingPlaceWitness]:
    """A place v (with extension witness) where |a|_v > 1, or None.

    None happens exactly when a is a root of unity (Kronecker)."""
    if a.is_zero():
        raise ValueError("0 has no expanding place")
    rou, _ = is_root_of_unity(a)
    if rou:
        return None
    # Archimedean embeddings first
    for precision in (Fraction(1, 10**6), Fraction(1, 10**20), Fraction(1, 10**50)):
        boxes = conjugates(a, precision)
        for i, box in enumerate(boxes):
            if box.abs_lower() > 1:
                return ExpandingPlaceWitness(Place.archimedean(), i,
                                             note=f"|conjugate {i}| > 1")
        lead = a.minpoly_coeffs()[-1]
        if abs(lead) > 1:
            p = min(prime_factors(lead))
            return ExpandingPlaceWitness(
                Place.finite(int(p)), None,
                note=f"minimal polynomial not monic: {p} divides leading coefficient")
        # monic with no archimedean witness found yet: by Kronecker a
        # non-root-of-unity must have a conjugate of modulus > 1, keep refining
    raise RuntimeError("could not certify an expanding place; refinement exhausted")


import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction as F

import mpmath
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings, strategies as st

from regdyn.exactnum import (FACTOR_MAX_BITS, FACTOR_TRIAL_LIMIT, PSI_13, AlgebraicNumber,
                             FactoringCap, Place, _poly_text, _totient, abs_at_place_exact,
                             conjugates, cyclotomic_coeffs, find_expanding_place,
                             is_root_of_unity, isprime, prime_factors, valuation)
from regdyn.polyalg import _integer_nthroot

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def test_place_construction():
    assert Place.archimedean().is_finite is False
    assert Place.finite(7).prime == 7
    with pytest.raises(ValueError):
        Place.finite(6)


def test_valuation_oracles():
    assert valuation(F(12), 2) == 2
    assert valuation(F(12), 3) == 1
    assert valuation(F(1, 8), 2) == -3
    assert valuation(F(5, 7), 5) == 1


def test_abs_at_place_exact():
    assert abs_at_place_exact(F(12), Place.finite(2)) == F(1, 4)
    assert abs_at_place_exact(F(1, 9), Place.finite(3)) == 9
    assert abs_at_place_exact(F(-7, 3), Place.finite(5)) == 1


@given(rationals.filter(lambda q: q != 0))
def test_product_formula_over_infinity_and_the_primes_of_num_den(q):
    # |q|_v = 1 at every other prime, so the product over these places is 1
    places = [Place.archimedean()] + [Place.finite(p) for p in
                                      sp.factorint(abs(q.numerator) * q.denominator)]
    prod = F(1)
    for v in places:
        prod *= abs_at_place_exact(q, v)
    assert prod == 1


RSA_100 = int("15226050279225333605356183781326374297180681149613"
              "80688657908494580122963258952897654000350692006139")


@given(st.integers(-10**12, 10**12).filter(bool))
def test_prime_factors_are_those_of_factorint(n):
    assert prime_factors(n) == set(sp.factorint(abs(n)))


def test_prime_factors_splits_leftovers_up_to_the_cap():
    # primes above the trial limit, a prime leftover, an 82-bit composite one
    p, q = 1000003, 1000033
    assert prime_factors(-2**5 * 3 * p * q) == {2, 3, p, q}
    assert prime_factors(2**89 - 1) == {2**89 - 1}
    a, b = sp.nextprime(2**40), sp.nextprime(2**41)
    assert prime_factors(7 * a * b) == {7, a, b}


def test_prime_factors_refuses_a_composite_past_the_cap():
    with pytest.raises(FactoringCap, match="FACTOR_MAX_BITS = 96"):
        prime_factors(RSA_100)


def _prime_factors_outcome(n: int):
    try:
        return sorted(prime_factors(n))
    except FactoringCap:
        return "FactoringCap"


def test_prime_factors_has_one_outcome_whatever_ran_before():
    # 1097^2 4861^3 1039387 921287058044736080177111: sympy's factor cache
    # once let a second call split the 100-bit leftover that a first left whole
    n = 132361710044291337222013586548893099426425886353
    script = ("import sys; from regdyn.exactnum import prime_factors, FactoringCap\n"
              "try: print(sorted(prime_factors(int(sys.argv[1]))))\n"
              "except FactoringCap: print('FactoringCap')")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    fresh = subprocess.run([sys.executable, "-c", script, str(n)], env=env,
                           capture_output=True, text=True, check=True).stdout.strip()
    first, second = _prime_factors_outcome(n), _prime_factors_outcome(n)
    assert str(first) == str(second) == fresh


# -- integer number theory, sympy the oracle ----------------------------------

PSI_12 = 318665857834031151167461
P61 = 1152921504606847009  # prime, 61 bits


def test_isprime_at_the_strong_pseudoprimes_to_the_first_primes():
    # psi_13 and psi_12 are the least strong pseudoprimes to the first 13 and
    # 12 prime bases, 3825123056546413051 one to the first 9 (Sorenson and
    # Webster); the prime after psi_13 goes to sympy's BPSW test
    assert PSI_13 == 3317044064679887385961981
    for n in (PSI_13, PSI_12, 3825123056546413051):
        assert not isprime(n) and not sp.isprime(n)
    assert isprime(3317044064679887385962123) and sp.nextprime(PSI_13) == 3317044064679887385962123


def test_isprime_agrees_with_sympy_on_carmichael_numbers_and_prime_powers():
    # (6k + 1)(12k + 1)(18k + 1) is a Carmichael number when its three
    # factors are prime
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
    for start in (1, 2 * 10**6, 2 * 10**7):  # below 2^64, above it, above PSI_13
        ks = (k for k in itertools.count(start)
              if all(sp.isprime(m * k + 1) for m in (6, 12, 18)))
        carmichael += [(6 * k + 1) * (12 * k + 1) * (18 * k + 1)
                       for k in itertools.islice(ks, 10)]
    assert min(carmichael[-10:]) > PSI_13 > min(carmichael[-20:]) > 2**64
    powers = [p ** e for p in (2, 3, 41, 43, 10007, 2**31 - 1, P61) for e in range(1, 5)]
    for n in carmichael + powers:
        assert isprime(n) == sp.isprime(n), n


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-5, 2000), st.integers(2, 2**64), st.integers(2**64, PSI_13),
                 st.integers(PSI_13 - 10**4, PSI_13 + 10**4)))
def test_isprime_agrees_with_sympy(n):
    assert isprime(n) == sp.isprime(n)


def _sympy_prime_factors(n: int) -> set:
    """prime_factors as sympy alone computes it: trial division up to the
    limit, then the leftovers split up to FACTOR_MAX_BITS."""
    primes = set()
    for q in sp.factorint(abs(n), limit=FACTOR_TRIAL_LIMIT):
        if sp.isprime(q):
            primes.add(int(q))
        elif q.bit_length() <= FACTOR_MAX_BITS:
            primes |= {int(r) for r in sp.factorint(q)}
        else:
            raise FactoringCap
    return primes


def _cold(fn, n):
    """fn(n) from an empty sympy factor cache: sympy 1.13 on keeps the
    factors factorint finds, so a second call can split what a first
    one could not."""
    getattr(sp, "factor_cache", {}).clear()
    try:
        return fn(n)
    except FactoringCap:
        return FactoringCap


def test_prime_factors_send_composite_leftovers_to_sympy():
    # a square of a 61-bit prime and a 117-bit product with a 100-bit prime:
    # trial division leaves a composite past FACTOR_MAX_BITS, which sympy
    # still splits (a perfect power; a factor just past the trial limit)
    q = 10**30 + 57
    for n in (P61 ** 2, -100003 * q, 2**3 * 7 * P61 ** 2):
        assert _cold(prime_factors, n) == _cold(_sympy_prime_factors, n)
    assert prime_factors(P61 ** 2) == {P61} and prime_factors(100003 * q) == {100003, q}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.integers(2, 10**4), st.integers(2, 10**12),
                          st.sampled_from([P61, 10**30 + 57, 3317044064679887385962123])),
                min_size=1, max_size=4))
def test_prime_factors_of_products_agree_with_sympy(factors):
    n = math.prod(factors)
    assert _cold(prime_factors, n) == _cold(_sympy_prime_factors, n)


@settings(deadline=None)
@given(st.integers(0, 2**300), st.integers(1, 70))
@example(3**200 - 1, 70)
def test_integer_nthroot_agrees_with_sympy(y, n):
    assert _integer_nthroot(y, n) == sp.integer_nthroot(y, n)
    assert _integer_nthroot(y ** n, n) == (y, True)


def test_totient_agrees_with_sympy():
    from sympy.functions.combinatorial.numbers import totient
    assert [_totient(n) for n in range(1, 3000)] == [totient(n) for n in range(1, 3000)]


def test_algebraic_rational_roundtrip():
    a = AlgebraicNumber.from_rational(F(3, 7))
    assert a.is_rational() and a.as_rational() == F(3, 7)


def test_algebraic_sqrt2():
    a = AlgebraicNumber([-2, 0, 1], 1)  # the positive root of x^2 - 2
    box = conjugates(a, F(1, 10**12))[a.embedding_index]
    # compare against a rational approximation tighter than the box itself
    from math import isqrt
    sqrt2 = F(isqrt(2 * 10**80), 10**40)
    assert box.re.lower <= sqrt2 <= box.re.upper + F(1, 10**39)
    assert abs(float(box.re.lower) - 2 ** 0.5) < 1e-10
    assert a.degree == 2


def test_conjugate_boxes_disjoint():
    a = AlgebraicNumber([-2, 0, 1], 0)
    boxes = conjugates(a)
    assert len(boxes) == 2
    assert boxes[0].disjoint(boxes[1])


def test_cyclotomic_polynomials_match_sympy():
    x = sp.Symbol("x")
    for n in range(1, 201):
        want = tuple(int(c) for c in sp.Poly(sp.cyclotomic_poly(n, x), x).all_coeffs()[::-1])
        assert cyclotomic_coeffs(n) == want, n
    # an order reached by dmm at --max-order 64: lcm(64, 63) = 4032
    assert cyclotomic_coeffs(4032) == tuple(
        int(c) for c in sp.Poly(sp.cyclotomic_poly(4032, x), x).all_coeffs()[::-1])


def test_root_of_unity_detection_needs_no_sympy(monkeypatch):
    monkeypatch.setattr(sp, "cyclotomic_poly", lambda *a, **k: pytest.fail("sympy ran"))
    for n in (1, 2, 5, 12, 30, 97):
        minpoly = cyclotomic_coeffs(n)
        assert is_root_of_unity(AlgebraicNumber(minpoly, 0)) == (True, n)
    assert is_root_of_unity(AlgebraicNumber([1, -1, 1, 1], 0)) == (False, None)


def test_root_of_unity_detection():
    zeta3 = AlgebraicNumber([1, 1, 1], 0)  # x^2 + x + 1
    flag, n = is_root_of_unity(zeta3)
    assert flag and n == 3
    sqrt2 = AlgebraicNumber([-2, 0, 1], 1)
    assert is_root_of_unity(sqrt2)[0] is False
    one = AlgebraicNumber.from_rational(1)
    assert is_root_of_unity(one) == (True, 1)


def test_expanding_place_trichotomy():
    # 2: expanding at the Archimedean place
    w = find_expanding_place(AlgebraicNumber.from_rational(2))
    assert w is not None and not w.place.is_finite
    # 1/2: expanding at 2 (denominator)
    w = find_expanding_place(AlgebraicNumber.from_rational(F(1, 2)))
    assert w is not None and w.place.prime == 2
    # 2/3: |2/3|_3 = 3 > 1
    w = find_expanding_place(AlgebraicNumber.from_rational(F(2, 3)))
    assert w is not None and w.place.prime == 3
    # root of unity: no expanding place
    assert find_expanding_place(AlgebraicNumber([1, 1, 1], 0)) is None
    # Kronecker: sqrt(2) expands somewhere
    assert find_expanding_place(AlgebraicNumber([-2, 0, 1], 1)) is not None


@given(st.integers(min_value=2, max_value=50))
def test_roots_of_unity_recognized(n):
    import sympy as sp
    x = sp.Symbol("x")
    poly = sp.Poly(sp.cyclotomic_poly(n, x), x)
    a = AlgebraicNumber(poly, 0)
    flag, order = is_root_of_unity(a)
    assert flag and order == n


def test_a_minimal_polynomial_in_another_generator_is_put_in_x():
    t = sp.Symbol("t")
    assert AlgebraicNumber(sp.Poly(t - 1, t)) == AlgebraicNumber.from_rational(1)
    assert AlgebraicNumber(sp.Poly(t, t)).is_zero()
    sqrt2 = AlgebraicNumber(sp.Poly(t**2 - 2, t), 1)
    assert sqrt2 == AlgebraicNumber([-2, 0, 1], 1)
    assert str(sqrt2.minpoly.as_expr()) == "x**2 - 2"
    # and over ZZ: a QQ Poly of the same number gives the same number
    assert AlgebraicNumber(sp.Poly(t / 2 - 1, t)) == AlgebraicNumber.from_rational(2)
    assert AlgebraicNumber(sp.Poly(t, t, domain="QQ")).is_zero()


# quadratics in closed form, against sympy's CRootOf and mpmath's polyroots

coefficient = st.integers(-10**6, 10**6)
leading = st.one_of(st.just(1), st.integers(2, 10**6))


def _is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


@st.composite
def quadratics(draw):
    """(c, b, a), a > 0, of a quadratic c + b x + a x^2 irreducible over Q;
    D = b^2 - 4ac takes either sign."""
    a, b = draw(leading), draw(coefficient)
    c = draw(coefficient.filter(bool))
    assume(not _is_square(b * b - 4 * a * c))
    return c, b, a


@settings(max_examples=20, deadline=None)
@given(quadratics())
@example((1, 0, 1))  # x^2 + 1: real parts 0
@example((-2, 0, 1))
@example((1, 10**6, 1))  # a root near -10^-6 that -b + sqrt(D) cancels
@example((10**6, 1, 10**6))  # a complex pair with real parts near 0
def test_quadratic_roots_in_closed_form_are_crootof(cs):
    p = sp.Poly(list(reversed(cs)), sp.Symbol("x"))
    with mpmath.workdps(50):
        exact = [(F(str(z.real)), F(str(z.imag)))
                 for z in mpmath.polyroots(list(reversed(cs)), maxsteps=200, extraprec=200)]
    boxes = conjugates(AlgebraicNumber(cs))
    assert boxes[0].disjoint(boxes[1])
    for i, box in enumerate(boxes):
        a = AlgebraicNumber(p, i)
        root = sp.N(sp.CRootOf(p, i), 30)
        assert a.approx() == complex(root)

        def inside(re, im, digits):  # up to the error of that many digits
            tol = F(1, 10**(digits - 5)) * (1 + math.ceil(abs(a.approx())))
            return (box.re.lower - tol <= re <= box.re.upper + tol
                    and box.im.lower - tol <= im <= box.im.upper + tol)

        # the box holds CRootOf(p, i), and exactly one of mpmath's roots
        assert inside(F(str(sp.re(root))), F(str(sp.im(root))), 30)
        assert sum(inside(*z, 50) for z in exact) == 1


def test_approx_past_the_double_range_is_infinite():
    # the roots +-2^1350.5 of x^2 - 2^2701, as sympy's evalf rounds them;
    # classify reaches them on (z^2 + w^2, 2^2700*z*w)
    assert [AlgebraicNumber([-2**2701, 0, 1], i).approx() for i in (0, 1)] == \
        [complex(-math.inf, 0), complex(math.inf, 0)]


# minimal polynomials printed from the integer coefficients, against sympy

text_coefficient = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-2**60, 2**60))


@st.composite
def primitive_polynomials(draw):
    """Ascending integer coefficients of degree 1-5 with content 1 and a
    positive leading coefficient: zeros, +-1 and 60-bit values."""
    n = draw(st.integers(1, 5))
    cs = [draw(text_coefficient) for _ in range(n)]
    cs.append(draw(text_coefficient.filter(lambda c: c > 0)))
    g = math.gcd(*cs)
    return tuple(c // g for c in cs)


@settings(max_examples=200, deadline=None)
@given(primitive_polynomials())
@example((-1, 0, 2))
@example((-1, -1, 0, 1))
@example((0, 1))
@example((5, 0, 0, 0, 0, 1))
def test_minimal_polynomials_print_as_sympy_prints_them(cs):
    assert _poly_text(cs) == str(sp.Poly(cs[::-1], sp.Symbol("x")).as_expr())


def test_an_algebraic_number_prints_its_minimal_polynomial_as_sympy():
    a = AlgebraicNumber([-1, 0, 2], 1)
    assert repr(a) == "AlgebraicNumber(2*x**2 - 1, root #1)"
    assert a.minpoly_text() == str(a.minpoly.as_expr())

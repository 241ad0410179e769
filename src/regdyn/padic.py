"""Escape exponents of orbits at a prime, in capped p-adic arithmetic.

G_p at a point is the escape rate of its orbit under the homogeneous lift
F = (z0^d, P^h, Q^h) of the map, P^h and Q^h being P and Q made homogeneous
in (z0, z1, z2).  Only one valuation per step is needed, so the orbit runs
on a primitive integer triple known modulo p^k: each step evaluates
F' = D F, D = lcm(P.den, Q.den), whose coefficients are integers, and
divides by p^t, t the least valuation of the three residues.  F is
homogeneous, so the prime-to-p part of D, a p-adic unit, only scales the
triple, and s = v_p(D) is all the exponent sees.  The triple stays
primitive and loses t digits, while the exponent stays exact.
When all three residues vanish the digits are exhausted, and
:class:`PrecisionLoss` asks the caller to restart with a larger k.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import valuation


class PrecisionLoss(ArithmeticError):
    pass


def _residue(q: Fraction, mod: int) -> int:
    """A p-integral rational modulo mod = p^k."""
    return q.numerator * pow(q.denominator, -1, mod) % mod


def _intval(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _powers(x: int, d: int, mod: int) -> list:
    pw = [1]
    for _ in range(d):
        pw.append(pw[-1] * x % mod)
    return pw


def escape_exponent(P, Q, z0: int, z1: Fraction, z2: Fraction, n: int, p: int,
                    k: int) -> int:
    """m = -min(v_p(a_n), v_p(b_n), 0 if z0 else +infinity), where (a_n, b_n)
    is the n-th iterate of (z1, z2) under (P, Q): for z0 = 1 on the affine
    plane, for z0 = 0 on the line at infinity, P and Q being then the top
    forms.  The orbit runs on k p-adic digits; PrecisionLoss when they run
    out.

    X_n, the primitive triple on the line through (z0, a_n, b_n), is that
    point scaled by a number of valuation m_n, and F'(X_n) = p^t X_(n+1)
    gives m_(n+1) = d m_n + s - t."""
    d = max(P.degree, Q.degree)
    D = math.lcm(P.den, Q.den)
    s, mod = _intval(D, p), p**k
    forms = [[((d, 0, 0), D % mod)]] + [
        [((d - i - j, i, j), c * (D // g.den) % mod) for (i, j), c in g.num.items()]
        for g in (P, Q)]
    pt = (Fraction(z0), Fraction(z1), Fraction(z2))
    m = -min(valuation(c, p) for c in pt if c)
    X = [_residue(c * Fraction(p)**m, mod) for c in pt]
    for _ in range(n):
        p0, p1, p2 = (_powers(x, d, mod) for x in X)
        Y = [sum(c * p0[a] * p1[i] * p2[j] for (a, i, j), c in form) % mod
             for form in forms]
        t = min((_intval(y, p) for y in Y if y), default=None)
        if t is None:
            raise PrecisionLoss(f"the orbit has exhausted its {p}-adic digits")
        if t:
            mod //= p**t
            Y = [y // p**t % mod for y in Y]
        X = Y
        m = d * m + s - t
    return m

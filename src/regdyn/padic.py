"""Escape exponents of orbits at a prime, in capped p-adic arithmetic.

G_p at a point is the escape rate of its orbit under the homogeneous lift
F = (z0^d, P^h, Q^h) of the map.  Only one valuation per step is needed,
so the orbit runs on a primitive integer triple known modulo p^k: each step
evaluates the map's integer lift F' = D F (`regdyn.maps.IntegerLift`)
through its compiled function F(c, x0, x1, x2), and divides by p^t, t the
least valuation of the three residues.  F is homogeneous, so the
prime-to-p part of D, a p-adic unit, only scales the triple, and
s = v_p(D) is all the exponent sees.  The triple stays
primitive and loses t digits, while the exponent stays exact.
When all three residues vanish the digits are exhausted, and
:class:`PrecisionLoss` asks the caller to restart with a larger k.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import _int_valuation, valuation


class PrecisionLoss(ArithmeticError):
    pass


def _residue(q: Fraction, mod: int) -> int:
    """A p-integral rational modulo mod = p^k."""
    return q.numerator * pow(q.denominator, -1, mod) % mod


def escape_exponent(lift, z0: int, z1: Fraction, z2: Fraction, n: int, p: int,
                    k: int) -> int:
    """m = -min(v_p(a_n), v_p(b_n), 0 if z0 else +infinity), where (a_n, b_n)
    is the n-th iterate of (z1, z2) under the map whose integer lift
    (`regdyn.maps.IntegerLift`) is `lift`: for z0 = 1 on the affine plane,
    for z0 = 0 on the line at infinity, the lift being then that of the top
    forms.  The orbit runs on k p-adic digits; PrecisionLoss when they run
    out.

    X_n, the primitive triple on the line through (z0, a_n, b_n), is that
    point scaled by a number of valuation m_n, and F'(X_n) = p^t X_(n+1)
    gives m_(n+1) = d m_n + s - t."""
    d, s, mod, F, c = lift.d, _int_valuation(lift.D, p), p**k, lift.F, lift.c
    pt = (Fraction(z0), Fraction(z1), Fraction(z2))
    m = -min(valuation(q, p) for q in pt if q)
    X = [_residue(q * Fraction(p)**m, mod) for q in pt]
    for _ in range(n):
        Y = [y % mod for y in F(c, *X)]
        t = min((_int_valuation(y, p) for y in Y if y), default=None)
        if t is None:
            raise PrecisionLoss(f"the orbit has exhausted its {p}-adic digits")
        if t:
            mod //= p**t
            Y = [y // p**t % mod for y in Y]
        X = Y
        m = d * m + s - t
    return m

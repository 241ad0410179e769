"""Exact arithmetic the benchmark uses to build inputs and check answers.

Nothing here imports regdyn: the generators and the answer checks must not
share code with the program they measure.  A polynomial is a dict
{(i, j): Fraction} for the monomial z^i w^j.
"""

from __future__ import annotations

import math
from fractions import Fraction


def poly_str(p: dict) -> str:
    """Render a polynomial in the CLI's input syntax, e.g. "2*z^2 - 1/2*w + 3"."""
    out = []
    for (i, j), c in sorted(p.items(), key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0])):
        if c == 0:
            continue
        mono = "*".join(
            v if e == 1 else f"{v}^{e}" for v, e in (("z", i), ("w", j)) if e)
        mag = abs(c)
        coef = "" if (mag == 1 and mono) else (
            str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}")
        term = f"{coef}*{mono}" if coef and mono else (coef or mono)
        if not out:
            out.append(term if c > 0 else f"-{term}")
        else:
            out.append(("+ " if c > 0 else "- ") + term)
    return " ".join(out) if out else "0"


def map_str(P: dict, Q: dict) -> str:
    return f"{poly_str(P)}, {poly_str(Q)}"


def degree(p: dict) -> int:
    return max((i + j for (i, j), c in p.items() if c), default=-1)


def top_form(p: dict, d: int) -> dict:
    return {m: c for m, c in p.items() if sum(m) == d and c}


def peval(p: dict, z, w):
    return sum((c * z**i * w**j for (i, j), c in p.items()), Fraction(0))


def apply_map(P: dict, Q: dict, pt):
    return (peval(P, *pt), peval(Q, *pt))


def det(rows) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    n, sign, out = len(m), 1, Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        out *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return sign * out


def form_resultant(A: dict, B: dict, d: int) -> Fraction:
    """Sylvester resultant of two binary forms of formal degree d; it is
    nonzero exactly when the map with these top forms is regular."""
    a = [A.get((d - k, k), Fraction(0)) for k in range(d + 1)]
    b = [B.get((d - k, k), Fraction(0)) for k in range(d + 1)]
    rows = [[a[j - s] if 0 <= j - s <= d else 0 for j in range(2 * d)] for s in range(d)]
    rows += [[b[j - s] if 0 <= j - s <= d else 0 for j in range(2 * d)] for s in range(d)]
    return det(rows)


def prime_factors(n: int) -> set:
    n, out, p = abs(n), set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def bad_primes(P: dict, Q: dict) -> set:
    """Primes dividing a coefficient denominator or the top-form resultant."""
    d = max(degree(P), degree(Q))
    out = set()
    for c in list(P.values()) + list(Q.values()):
        out |= prime_factors(c.denominator)
    return out | prime_factors(form_resultant(top_form(P, d), top_form(Q, d), d).numerator)


def valuation(q: Fraction, p: int) -> int:
    if q == 0:
        raise ValueError("valuation of 0")
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def weil_height_int(z: Fraction, w: Fraction) -> int:
    """The integer M with h([1 : z : w]) = log M: the largest coordinate of
    the primitive integer triple."""
    c = math.lcm(z.denominator, w.denominator)
    a, b = z.numerator * (c // z.denominator), w.numerator * (c // w.denominator)
    g = math.gcd(math.gcd(a, b), c)
    return max(abs(a), abs(b), c) // g

"""Canonical heights and preperiodicity verdicts.

The canonical height of a point is the sum of the local Green values over
a finite, a-priori computable support: the Archimedean place, the bad
places of the map, and the primes at which a coordinate is non-integral.
Everywhere else good reduction forces g_v = log max{1,|z|_v,|w|_v} = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import sympy as sp  # noqa: F401  regbench's tracer swaps this module's sp

from .exactnum import Place, prime_factors
from .green import GreenContext, bad_places, green_value
from .intervals import RealInterval
from .maps import ORBIT_CAP, RegularMap, _affine, _exact_orbit, _triple


@dataclass
class HeightResult:
    value: RealInterval
    support: list


@dataclass
class PreperiodicityVerdict:
    kind: str  # "Preperiodic" | "NotPreperiodic" | "Unknown"
    preperiod: Optional[int] = None
    period: Optional[int] = None
    orbit: list = field(default_factory=list)
    height_lower: Optional[Fraction] = None

    @staticmethod
    def preperiodic(orbit: list, k: int) -> "PreperiodicityVerdict":
        """From an exact orbit whose next point repeats orbit[k]."""
        return PreperiodicityVerdict("Preperiodic", preperiod=k, period=len(orbit) - k,
                                     orbit=orbit)

    @staticmethod
    def not_preperiodic(lower: Fraction) -> "PreperiodicityVerdict":
        return PreperiodicityVerdict("NotPreperiodic", height_lower=lower)

    @staticmethod
    def unknown() -> "PreperiodicityVerdict":
        return PreperiodicityVerdict("Unknown")

    @staticmethod
    def from_height(h: HeightResult, tol: Fraction) -> "PreperiodicityVerdict":
        """NotPreperiodic when the height is certified above tol, else Unknown."""
        if h.value.lower > tol:
            return PreperiodicityVerdict.not_preperiodic(h.value.lower)
        return PreperiodicityVerdict.unknown()


def height_support(f: RegularMap, pt) -> list:
    """{∞} ∪ bad_places ∪ {p : some coordinate is non-p-integral}."""
    places = [Place.archimedean()]
    primes = set(bad_places(f))
    for c in pt:
        primes |= prime_factors(Fraction(c).denominator)
    places += [Place.finite(p) for p in sorted(primes)]
    return places


def canonical_height(f: RegularMap, pt, tol=Fraction(1, 10**9)) -> HeightResult:
    """Certified enclosure of the canonical height of a rational point."""
    tol = Fraction(tol)
    pt = (Fraction(pt[0]), Fraction(pt[1]))
    places = height_support(f, pt)
    per = tol / len(places)
    total = RealInterval.exact(0)
    support = []
    for v in places:
        g = green_value(GreenContext(f, v), pt, per)
        if g.upper > 0:
            support.append(v)
        total = total + g
    return HeightResult(total, support)


def _affine_too_big(X) -> bool:
    # coordinates of a preperiodic point stay bounded with bounded
    # denominators; bail out early on blowup in either direction
    pt = _affine(X)
    return max(map(abs, pt)) > 10**40 or max(
        c.numerator.bit_length() + c.denominator.bit_length() for c in pt) > 4096


def orbit_verdict(f: RegularMap, pt) -> Optional[PreperiodicityVerdict]:
    """The Preperiodic verdict of an exact orbit that closes within ORBIT_CAP
    steps, else None; a closed orbit has canonical height exactly 0.  The
    orbit runs on the primitive integer triples of the map's lift."""
    orbit, k = _exact_orbit(f.lift.step, _triple((1, *pt)), ORBIT_CAP, _affine_too_big)
    return None if k is None else PreperiodicityVerdict.preperiodic(list(map(_affine, orbit)), k)


def is_preperiodic(f: RegularMap, pt, tol=Fraction(1, 10**9)) -> PreperiodicityVerdict:
    """Exact cycle detection, else a height-based NotPreperiodic certificate."""
    verdict = orbit_verdict(f, pt)
    if verdict is None:
        verdict = PreperiodicityVerdict.from_height(canonical_height(f, pt, tol), Fraction(tol))
    return verdict

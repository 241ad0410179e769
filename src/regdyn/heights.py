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
from .maps import RegularMap


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


# the step cap of every exact orbit of a point: affine, on the line at
# infinity, and on a curve
ORBIT_CAP = 64


def _exact_orbit(step, start, max_steps: int, too_big) -> tuple:
    """The exact orbit of `start` under `step`, for cycle detection: (orbit,
    k) with step(orbit[-1]) == orbit[k], the first point that repeats; or
    (orbit, None), the orbit ending after `max_steps` steps or at the first
    point after `start` with too_big(point) true, which it includes."""
    seen = {start: 0}
    orbit = [start]
    for n in range(1, max_steps + 1):
        nxt = step(orbit[-1])
        if nxt in seen:
            return orbit, seen[nxt]
        orbit.append(nxt)
        if too_big(nxt):
            break
        seen[nxt] = n
    return orbit, None


def _affine_too_big(pt) -> bool:
    # coordinates of a preperiodic point stay bounded with bounded
    # denominators; bail out early on blowup in either direction
    return max(map(abs, pt)) > 10**40 or max(
        c.numerator.bit_length() + c.denominator.bit_length() for c in pt) > 4096


def is_preperiodic(f: RegularMap, pt, tol=Fraction(1, 10**9),
                   height: Optional[HeightResult] = None) -> PreperiodicityVerdict:
    """Exact cycle detection, else a height-based NotPreperiodic certificate;
    ``height`` is ``canonical_height(f, pt, tol)`` if the caller has it."""
    tol = Fraction(tol)
    pt = (Fraction(pt[0]), Fraction(pt[1]))
    orbit, k = _exact_orbit(f.apply, pt, ORBIT_CAP, _affine_too_big)
    if k is not None:
        return PreperiodicityVerdict.preperiodic(orbit, k)
    h = height if height is not None else canonical_height(f, pt, tol)
    if h.value.lower > tol:
        return PreperiodicityVerdict.not_preperiodic(h.value.lower)
    return PreperiodicityVerdict.unknown()

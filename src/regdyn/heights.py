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

import sympy as sp

from .exactnum import Place
from .green import GreenContext, bad_places, green_value
from .intervals import RealInterval
from .maps import RegularMap, BitSizeCap


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
    def preperiodic(k: int, l: int, orbit) -> "PreperiodicityVerdict":
        return PreperiodicityVerdict("Preperiodic", preperiod=k, period=l,
                                     orbit=list(orbit))

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
        primes |= set(sp.factorint(Fraction(c).denominator))
    places += [Place.finite(int(p)) for p in sorted(primes)]
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


def is_preperiodic(f: RegularMap, pt, orbit_cap: int = 64, tol=Fraction(1, 10**9),
                   height: Optional[HeightResult] = None) -> PreperiodicityVerdict:
    """Exact cycle detection, else a height-based NotPreperiodic certificate;
    ``height`` is ``canonical_height(f, pt, tol)`` if the caller has it."""
    tol = Fraction(tol)
    z, w = Fraction(pt[0]), Fraction(pt[1])
    seen = {(z, w): 0}
    orbit = [(z, w)]
    try:
        for n in range(1, orbit_cap + 1):
            z, w = f.apply((z, w))
            if (z, w) in seen:
                k = seen[(z, w)]
                return PreperiodicityVerdict.preperiodic(k, n - k, orbit)
            # coordinates of a preperiodic point stay bounded with bounded
            # denominators; bail out early on blowup in either direction
            if max(abs(z), abs(w)) > 10**40:
                break
            if max(c.numerator.bit_length() + c.denominator.bit_length()
                   for c in (z, w)) > 4096:
                break
            seen[(z, w)] = n
            orbit.append((z, w))
    except BitSizeCap:
        pass
    h = height if height is not None else canonical_height(f, pt, tol)
    if h.value.lower > tol:
        return PreperiodicityVerdict.not_preperiodic(h.value.lower)
    return PreperiodicityVerdict.unknown()

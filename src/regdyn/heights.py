"""Canonical heights and preperiodicity verdicts.

The canonical height of a rational point of P^2 with primitive integer
triple X is the sum of the homogeneous Green values G_v(X) over all places.
At a prime of good reduction G_p(X) = log max|x_i|_p = 0, since X is
primitive, so the sum runs over a support known from the map alone: the
Archimedean place and the bad places.  No coordinate is factored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import sympy as sp  # noqa: F401  regbench's tracer swaps this module's sp

from .exactnum import Place
from .green import DEFAULT_TOL, GreenContext, _orbit_green, _positive, bad_places
from .intervals import RealInterval
from .maps import ORBIT_CAP, RegularMap, _affine, _affine_too_big, _exact_orbit, _triple


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


@dataclass
class HeightResult:
    value: RealInterval
    support: list  # the places whose G_v(X) is not exactly 0
    verdict: PreperiodicityVerdict


def height_support(f: RegularMap) -> list:
    """{∞} ∪ bad_places: the places where G_v of a primitive triple can be
    nonzero."""
    return [Place.archimedean()] + [Place.finite(p) for p in sorted(bad_places(f))]


def _too_big(X) -> bool:
    """The size rule of the exact orbit of a rational point: `_affine_too_big`
    off the line at infinity, a coordinate past 10^60 on it."""
    return _affine_too_big(X) if X[0] else max(map(abs, X)) > 10**60


def orbit_verdict(f: RegularMap, pt) -> Optional[PreperiodicityVerdict]:
    """The Preperiodic verdict of an affine pair (z, w) or a nonzero triple
    (z0, z1, z2) when the exact orbit of its primitive triple under the
    map's lift closes within ORBIT_CAP steps, else None; no height is
    computed.  The orbit lists affine pairs, or the pairs (a, b) of the
    triples (0, a, b) on the line at infinity."""
    X = _triple((1, *pt) if len(pt) == 2 else pt)
    orbit, k = _exact_orbit(f.lift.step, X, ORBIT_CAP, _too_big)
    if k is None:
        return None
    return PreperiodicityVerdict.preperiodic(
        [_affine(Y) if Y[0] else Y[1:] for Y in orbit], k)


def canonical_height(f: RegularMap, pt, tol=DEFAULT_TOL) -> HeightResult:
    """Certified enclosure, of width <= tol, of the canonical height of a
    rational point of P^2, an affine pair (z, w) or a nonzero triple such as
    (0, a, b) on the line at infinity, with its verdict.

    The exact orbit of the point's primitive triple X runs once
    (`orbit_verdict`).  When it closes the height is exactly 0, no place is
    visited and the verdict is Preperiodic.  Otherwise the height sums
    G_v(X) over `height_support(f)`, tol split evenly between the places,
    and the verdict is NotPreperiodic when the sum is certified above tol,
    else Unknown."""
    tol = _positive(tol)
    X = _triple((1, *pt) if len(pt) == 2 else pt)
    verdict = orbit_verdict(f, X)
    if verdict is not None:
        return HeightResult(RealInterval.exact(0), [], verdict)
    places = height_support(f)
    per = tol / len(places)
    total = RealInterval.exact(0)
    support = []
    for v in places:
        g = _orbit_green(GreenContext(f, v), *X, per)
        if g.lower or g.upper:
            support.append(v)
        total = total + g
    verdict = (PreperiodicityVerdict.not_preperiodic(total.lower) if total.lower > tol
               else PreperiodicityVerdict.unknown())
    return HeightResult(total, support, verdict)


def is_preperiodic(f: RegularMap, pt, tol=DEFAULT_TOL) -> PreperiodicityVerdict:
    """Exact cycle detection, else a height-based NotPreperiodic certificate:
    the verdict of `canonical_height`."""
    return canonical_height(f, pt, tol).verdict

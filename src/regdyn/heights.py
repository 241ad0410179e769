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

from .exactnum import sp  # noqa: F401  regbench's tracer swaps this module's sp
from .green import (DEFAULT_TOL, GreenContext, _box_orbit, _orbit_green, _positive, height_box,
                    height_support)
from .intervals import RealInterval
from .maps import RegularMap, _affine, _triple


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


def orbit_verdict(f: RegularMap, pt) -> PreperiodicityVerdict:
    """The verdict of an affine pair (z, w) or a nonzero triple (z0, z1, z2)
    from the exact orbit X_0, X_1, ... of its primitive triple under the
    map's lift, cut at the height box Λ (`_box_orbit`); no height is computed.

    Preperiodic when the orbit closes within ORBIT_CAP steps; its orbit
    lists affine pairs, or the pairs (a, b) of the triples (0, a, b) on the
    line at infinity.  NotPreperiodic when some X_n has
    M = max|X_n,i|^(d-1) > Λ: then ĥ(X_n) >= log max|X_n,i| - log Λ/(d-1)
    = log(M/Λ)/(d-1) >= (1 - Λ/M)/(d-1), as log q >= 1 - 1/q, and
    ĥ(X_0) = ĥ(X_n)/d^n gives the exact height_lower (1 - Λ/M)/((d-1) d^n).
    Unknown when ORBIT_CAP steps stay inside the box and do not close."""
    X = _triple((1, *pt) if len(pt) == 2 else pt)
    orbit, k = _box_orbit(f, X)
    if k is not None:
        return PreperiodicityVerdict.preperiodic(
            [_affine(Y) if Y[0] else Y[1:] for Y in orbit], k)
    d, box = f.d, height_box(f)[1]
    M = max(map(abs, orbit[-1])) ** (d - 1)
    if M <= box:
        return PreperiodicityVerdict.unknown()
    return PreperiodicityVerdict.not_preperiodic(
        (1 - box / M) / ((d - 1) * d ** (len(orbit) - 1)))


def canonical_height(f: RegularMap, pt, tol=DEFAULT_TOL) -> HeightResult:
    """Certified enclosure, of width <= tol, of the canonical height of a
    rational point of P^2, an affine pair (z, w) or a nonzero triple such as
    (0, a, b) on the line at infinity, with its verdict.

    The exact orbit of the point's primitive triple X runs once and gives
    the verdict (`orbit_verdict`).  When it closes the height is exactly 0
    and no place is visited.  Otherwise the height sums G_v(X) over
    `height_support(f)`, tol split evenly between the places, and a
    NotPreperiodic verdict takes the lower end of that sum as its
    height_lower when it is positive."""
    tol = _positive(tol)
    X = _triple((1, *pt) if len(pt) == 2 else pt)
    verdict = orbit_verdict(f, X)
    if verdict.kind == "Preperiodic":
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
    if verdict.kind == "NotPreperiodic" and total.lower > 0:
        verdict = PreperiodicityVerdict.not_preperiodic(total.lower)
    return HeightResult(total, support, verdict)


def is_preperiodic(f: RegularMap, pt, tol=DEFAULT_TOL) -> PreperiodicityVerdict:
    """Exact cycle detection, else a height-based NotPreperiodic certificate:
    the verdict of `canonical_height`."""
    return canonical_height(f, pt, tol).verdict

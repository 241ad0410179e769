"""Seeded query streams for the three workloads.

A stream is an endless sequence of blocks.  Every block holds each stratum
(query kind, tolerance, order, family) an exact number of times, in a
seeded order, so that two seeds give the same mix.  The shares are not
drawn from traffic, since regdyn has no usage data: every query kind a
workload covers gets the same share, and regbench/NOTES.md gives the
basis of each exception.  The seed draws points, signs and the maps
inside a stratum.  Inputs whose cost or outcome varies most from one draw
to the next (every heights query, the generic curve maps, the monomial
dmm queries, the order-12 and order-14 normal-form queries) come from
generators that do not take the seed, so that runs with different seeds
stay comparable; for heights the seed only sets the order of each block.
The program only ever sees the
argv list of a query; `meta` carries what the answer check needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as F

from .exact import (apply_map, bad_primes, form_resultant, map_str, poly_str,
                    top_form)

WORKLOADS = ("heights", "normal-forms", "curves")

SMALL = [F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(1, 3), F(3)]
TOLS = ["1e-6", "1e-10", "1e-15", "1e-20", "1e-30"]


@dataclass
class Query:
    kind: str
    argv: list
    meta: dict = field(default_factory=dict)


def point_arg(p) -> str:
    """Coordinates for "--point=-1,2": argparse reads "--point -1,2" as an
    unknown option and exits 2."""
    return ",".join(str(c) for c in p)


def _rand_q(rng, span=9, den=6) -> F:
    return F(rng.randint(-span, span), rng.randint(1, den))


# -- heights --------------------------------------------------------------

# one share per query kind, and five malformed queries, one per probe:
# 5 of the 103 queries of a block are malformed
HEIGHTS_KINDS = ("height", "green-inf", "green-bad", "green-good", "green-homog",
                 "classify", "orbit")
PER_KIND = 14
MALFORMED = ("place-4", "no-point", "tol-0", "unparsable", "non-regular")


@dataclass
class PoolMap:
    P: dict
    Q: dict
    d: int
    diagonal: bool
    fixed: tuple  # a rational point the map fixes
    bad: list = field(default_factory=list)
    good: int = 5

    @property
    def text(self) -> str:
        return map_str(self.P, self.Q)


def _diagonal_map(rng, d) -> PoolMap:
    P = {(d, 0): F(rng.choice([1, -1]))}
    Q = {(0, d): F(rng.choice([1, -1]))}
    fixed = (F(0), F(0))
    return PoolMap(P, Q, d, True, fixed)


def _general_map(rng, d) -> PoolMap:
    while True:
        P = {(d, 0): F(rng.choice([1, 2, -1, 3])), (d - 1, 1): F(rng.choice([0, 1, -1]))}
        Q = {(0, d): F(rng.choice([1, -1, 2])), (1, d - 1): F(rng.choice([0, 1, -1]))}
        for poly in (P, Q):
            for i in range(d):
                for j in range(d - i):
                    if (i, j) != (0, 0) and rng.random() < 0.4:
                        poly[(i, j)] = rng.choice(SMALL)
        # put a fixed point in, so that some heights are Preperiodic
        fixed = (F(rng.randint(-1, 2)), F(rng.randint(-1, 2)))
        P[(0, 0)], Q[(0, 0)] = F(0), F(0)
        img = apply_map(P, Q, fixed)
        P[(0, 0)], Q[(0, 0)] = fixed[0] - img[0], fixed[1] - img[1]
        P = {m: c for m, c in P.items() if c}
        Q = {m: c for m, c in Q.items() if c}
        if form_resultant(top_form(P, d), top_form(Q, d), d) == 0:
            continue
        m = PoolMap(P, Q, d, False, fixed)
        if bad_primes(P, Q):
            return m


def heights_pool() -> list:
    """The map pool every heights run shares.  It is drawn once, not per
    seed: the cost of a heights query depends mostly on its map (the
    constants C_v and the bad places), and a per-seed pool of eight maps
    moved throughput by 30% between seeds."""
    rng = random.Random("heights-pool")
    pool = [_diagonal_map(rng, 2), _diagonal_map(rng, 3)]
    pool += [_general_map(rng, d) for d in (2, 2, 2, 2, 3, 3)]
    for m in pool:
        m.bad = sorted(bad_primes(m.P, m.Q))
        m.good = next(p for p in (5, 7, 11, 13, 17, 19, 23) if p not in m.bad)
    return pool


def _preperiodic_point(rng, m: PoolMap):
    if m.diagonal:
        return (F(rng.choice([0, 1, -1])), F(rng.choice([0, 1, -1])))
    return m.fixed


def _heights_query(rng, kind, pool, slot, b) -> Query:
    # every map of the pool serves each kind in turn, so that a run's cost
    # does not hang on how often the seed happened to pick each map
    maps = [m for m in pool if m.bad] if kind == "green-bad" else pool
    m = maps[(slot + b) % len(maps)]
    meta = {"P": m.P, "Q": m.Q, "d": m.d, "diagonal": m.diagonal}
    if kind == "malformed":
        probe = MALFORMED[slot]
        meta["probe"] = probe
        argv = {
            "place-4": ["green", "--map", m.text, "--point=1,2", "--place", "4"],
            "no-point": ["green", "--map", m.text],
            "tol-0": ["height", "--map", m.text, "--point=1,2", "--tol", "0"],
            "unparsable": ["classify", "--map", f"{poly_str(m.P)} +* w, {poly_str(m.Q)}"],
            "non-regular": ["classify", "--map", map_str(
                {(1, 1): rng.choice(SMALL), (0, 1): F(1)},
                {(2, 0): rng.choice(SMALL), (0, 0): F(rng.randint(-3, 3))})],
        }[probe]
        return Query("malformed", argv, meta)
    if kind == "classify":
        meta["bad"] = m.bad
        return Query(kind, ["classify", "--map", m.text], meta)
    pre = slot % 3 == 0  # a third of the points are preperiodic
    pt = _preperiodic_point(rng, m) if pre else (_rand_q(rng), _rand_q(rng))
    meta["point"] = pt
    # tolerances and orbit lengths run through their ranges in turn
    turn = b * PER_KIND + slot
    if kind == "orbit":
        n = 1 + turn % 10
        meta["n"] = n
        return Query(kind, ["orbit", "--map", m.text, f"--point={point_arg(pt)}",
                            "-n", str(n)], meta)
    tol = TOLS[turn % len(TOLS)]
    meta["tol"] = F(tol)
    if kind == "height":
        return Query(kind, ["height", "--map", m.text, f"--point={point_arg(pt)}",
                            "--tol", tol], meta)
    if kind == "green-homog":
        z0 = F(0) if slot % 2 == 0 else rng.choice([F(1), F(2), F(1, 3), F(-2)])
        z1, z2 = F(rng.randint(-5, 5)), F(rng.randint(1, 5))
        place = [str(m.good), "inf"] + [str(p) for p in m.bad]
        place = place[(slot // 2) % len(place)]
        meta.update(homog=(z0, z1, z2), place=place)
        return Query(kind, ["green", "--map", m.text, f"--homog={point_arg((z0, z1, z2))}",
                            "--place", place, "--tol", tol], meta)
    place = {"green-inf": "inf", "green-good": str(m.good),
             "green-bad": str(rng.choice(m.bad)) if m.bad else "inf"}[kind]
    meta.update(place=place, invariance=slot < 2)
    return Query(kind, ["green", "--map", m.text, f"--point={point_arg(pt)}",
                        "--place", place, "--tol", tol], meta)


def _heights_block(seed, b, pool) -> list:
    # the queries of block b are the same for every seed, which only sets
    # their order: whether a query crashes the CLI (an orbit past float
    # range, a bad-prime Green function out of p-adic precision; NOTES.md)
    # depends on its point, and per-seed points moved the number of failed
    # queries between runs
    rng = random.Random(f"heights:{b}")
    out = [_heights_query(rng, kind, pool, slot, b)
           for kind in HEIGHTS_KINDS for slot in range(PER_KIND)]
    out += [_heights_query(rng, "malformed", pool, slot, b) for slot in range(len(MALFORMED))]
    random.Random(f"heights-order:{seed}:{b}").shuffle(out)
    return out


# -- normal-forms ----------------------------------------------------------

LAMBDAS = (F(1), F(2), F(3), F(-2), F(1, 2), F(3, 2))  # lambda = 1 is parabolic
# a block: 7 queries at order 6, 7 at order 8, 5 at order 10 and one at
# order 12 or 14 by turns; multipliers run through LAMBDAS in turn within
# each order.  The counts fall as the cost rises, so that 100 queries take
# about 35 s (equal counts per order would take about 80 s), and they put
# the p50 and p90 latencies inside the order-8 and order-10 strata, away
# from the edges between strata (NOTES.md).
NF_ORDERS = (6,) * 7 + (8,) * 7 + (10,) * 5
NF_TOP = (12, 14)


def nf_map(rng, lam: F):
    """Degree-2 regular map whose line at infinity fixes [1 : 0] with
    multiplier lam: Q_2 = w*(q1*z + q2*w), P_2(1, 0) = p0, lam = q1/p0.

    Every map has the same monomials, with seeded signs and small seeded
    magnitudes: then the cost of a query follows its order and multiplier,
    not the draw (free supports spread one stratum over 0.03-0.4 s)."""
    while True:
        def c(*mags):
            return F(rng.choice([-1, 1]) * rng.choice(mags))
        P = {(2, 0): F(lam.denominator), (0, 2): c(1), (0, 1): c(1), (0, 0): c(1, 2)}
        Q = {(1, 1): F(lam.numerator), (0, 2): c(1), (1, 0): c(1, 2)}
        if form_resultant(top_form(P, 2), top_form(Q, 2), 2) != 0:
            return P, Q


def _nf_query(rng, order, lam, seen) -> Query:
    while True:
        P, Q = nf_map(rng, lam)
        text = map_str(P, Q)
        if text not in seen:  # maps are not shared between queries
            seen.add(text)
            break
    return Query(f"{'parabolic' if lam == 1 else 'saddle'}-{order}",
                 ["stable-manifold", "--map", text, "--point", "0", "--order", str(order)],
                 {"P": P, "Q": Q, "lam": lam, "order": order})


def _nf_block(seed, b, seen) -> list:
    # the order-12 or order-14 query of block b is the same for every seed:
    # one query of 1-3 s would otherwise move a run's throughput by itself.
    # It is drawn first, so that `seen` never redraws it.
    top = random.Random(f"normal-forms-top:{b}")
    out = [_nf_query(top, NF_TOP[b % 2], LAMBDAS[(b // 2) % len(LAMBDAS)], seen)]
    rng = random.Random(f"normal-forms:{seed}:{b}")
    for i, order in enumerate(NF_ORDERS):
        turn = b * NF_ORDERS.count(order) + i - NF_ORDERS.index(order)
        out.append(_nf_query(rng, order, LAMBDAS[turn % len(LAMBDAS)], seen))
    rng.shuffle(out)
    return out


# -- curves ----------------------------------------------------------------

# a block: five queries of each family (generic, monomial) on each of its
# two curve shapes, `curve` and `dmm` in turn.  dmm --max-order runs through
# 8..24 on binomial curves; on invariant lines orders 20 and 24 take 1-12 s
# a query (criterion 4 among them), so lines stop at 16.
CURVES_KINDS = ("generic-line", "generic-conic", "monomial-line", "monomial-binomial")
PER_SHAPE = 5
DMM_ORDERS = {"line": (8, 12, 16), "binomial": (8, 12, 16, 20, 24)}
BINOMIALS = [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1), (1, 2)]


def _generic_map(rng):
    while True:
        P = {(2, 0): F(rng.choice([1, 2, -1])), (1, 1): F(rng.choice([-1, 0, 1])),
             (0, 1): F(rng.choice([-1, 1, 2])), (0, 0): F(rng.choice([-1, 0, 1]))}
        Q = {(0, 2): F(rng.choice([1, -1, 2])), (1, 0): F(rng.choice([-1, 1])),
             (0, 0): F(rng.choice([-1, 0, 2]))}
        P = {m: c for m, c in P.items() if c}
        Q = {m: c for m, c in Q.items() if c}
        if form_resultant(top_form(P, 2), top_form(Q, 2), 2) != 0:
            return P, Q


def _generic_query(rng, cmd, shape) -> Query:
    P, Q = _generic_map(rng)
    if shape == "conic":
        R = rng.choice([{(2, 0): F(1), (0, 2): F(1), (0, 0): F(-rng.randint(1, 4))},
                        {(0, 1): F(1), (2, 0): F(-1), (0, 0): F(rng.randint(-2, 2))},
                        {(1, 1): F(1), (0, 0): F(-rng.randint(1, 3))}])
    else:
        R = {(0, 1): F(1), (1, 0): F(-rng.randint(1, 3)), (0, 0): F(rng.randint(-2, 2))}
    argv = [cmd, "--map", map_str(P, Q), "--curve", poly_str(R), "--max-iters", "8",
            "--max-degree", "2"]
    if cmd == "dmm":
        argv += ["--height-bound", "1", "--max-order", "8"]
    return Query(f"generic-{cmd}-{shape}", argv, {"P": P, "Q": Q, "R": R, "d": 2})


def _monomial_query(rng, cmd, shape, turn) -> Query:
    """(s1*z^d, s2*w^d) with seeded signs; the turn fixes d, the curve's
    shape and the size of its coefficients, which set the query's cost and
    whether its orbit closes."""
    d = 2 + turn % 2
    P = {(d, 0): F(rng.choice([1, -1]))}
    Q = {(0, d): F(rng.choice([1, -1]))}
    sign = rng.choice([1, -1])
    growth = cmd == "curve" and shape == "line" and turn % 5 == 0
    if shape == "binomial":
        m, n = BINOMIALS[turn % len(BINOMIALS)]
        R = {(0, m): F(1), (n, 0): F(-sign * (1 + turn % 2))}
    elif growth:  # w = z +- 1: the degree grows 1 -> d -> d^2 until it passes 8
        R = {(0, 1): F(1), (1, 0): F(-1), (0, 0): F(sign)}
    elif cmd == "dmm":  # an invariant line, with roots of unity on it
        R = {(0, 1): F(1), (1, 0): F(-sign)}
    else:
        R = {(0, 1): F(1), (1, 0): F(-sign * (1 + (turn // 2) % 2))}
    argv = [cmd, "--map", map_str(P, Q), "--curve", poly_str(R),
            "--max-iters", "3" if growth else "4", "--max-degree", "8"]
    if cmd == "dmm":
        orders = DMM_ORDERS[shape]
        argv += ["--height-bound", "1", "--max-order", str(orders[turn % len(orders)])]
    return Query(f"monomial-{cmd}-{shape}", argv, {"P": P, "Q": Q, "R": R, "d": d})


def _curves_block(seed, b) -> list:
    rng = random.Random(f"curves:{seed}:{b}")
    # generic-map queries come from two fixed catalogs of one block each,
    # used by turns: their elimination cost varies threefold between maps,
    # which per-seed draws turned into run-to-run spread
    generic_rng = random.Random(f"curves-generic:{b % 2}")
    # so are the monomial dmm queries of block b: their cost moves 2-6x
    # with the signs of the map and the line
    dmm_rng = random.Random(f"curves-dmm:{b}")
    out = []
    for kind in CURVES_KINDS:
        family, shape = kind.split("-")
        for slot in range(PER_SHAPE):
            turn = b * PER_SHAPE + slot
            cmd = "dmm" if turn % 2 else "curve"
            out.append(_generic_query(generic_rng, cmd, shape) if family == "generic"
                       else _monomial_query(dmm_rng if cmd == "dmm" else rng, cmd, shape,
                                            turn // 2))
    rng.shuffle(out)
    return out


# -- streams ---------------------------------------------------------------


def blocks(workload: str, seed: int):
    """Endless stream of query blocks; the same seed gives the same queries."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    pool = heights_pool() if workload == "heights" else None
    seen = set()
    b = 0
    while True:
        if workload == "heights":
            yield _heights_block(seed, b, pool)
        elif workload == "normal-forms":
            yield _nf_block(seed, b, seen)
        else:
            yield _curves_block(seed, b)
        b += 1


def warmup(workload: str) -> list:
    """Fixed, seed-independent queries that load every code path a workload
    uses before timing starts."""
    m = "z^2 + w, w^2 - z"
    if workload == "heights":
        return [Query("warmup", a) for a in (
            ["classify", "--map", m], ["height", "--map", m, "--point=1/2,3", "--tol", "1e-10"],
            ["green", "--map", m, "--point=1/2,3", "--place", "2", "--tol", "1e-10"],
            ["green", "--map", m, "--homog=0,1,2", "--place", "inf", "--tol", "1e-10"],
            ["orbit", "--map", m, "--point=1,2", "-n", "3"])]
    if workload == "normal-forms":
        return [Query("warmup", ["stable-manifold", "--map", t, "--point", "0", "--order", "6"])
                for t in ("z^2 + w + 1, 2*z*w + w^2 - z", "z^2 + w + 1, z*w + w^2 - z")]
    return [Query("warmup", a) for a in (
        ["curve", "--map", "z^2, w^2", "--curve", "w - 2*z", "--max-iters", "2"],
        ["dmm", "--map", "z^2, w^2", "--curve", "w + z", "--max-iters", "2",
         "--max-degree", "8", "--height-bound", "1", "--max-order", "4"])]

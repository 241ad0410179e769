"""Command-line interface.

Every subcommand prints a single JSON document with the keys
schema_version, command, input, result, witnesses, caps, timing.
Exit codes: 0 success, 2 input error (also a bad argument, a --tol past
the precision cap or an integer past the factoring cap), 3 cap-limited
Unknown-only result.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import time
from fractions import Fraction
from functools import cache

# curves and localdyn are imported by the subcommands that run them
from .exactnum import AlgebraicNumber, FactoringCap, Place, Zeta
from .intervals import RealInterval
from .green import DEFAULT_TOL, GreenContext, bad_places, green_homog, green_value
from .heights import canonical_height
from .infinity import classify_multiplier, fixed_points_infinity, multiplier
from .maps import NotRegular, _affine, _triple, make_regular_map
from .padic import PrecisionLoss
from .polyalg import PolyParseError

SCHEMA_VERSION = 1

# `orbit` stops before a coordinate passes this many bits, and no input point
# may pass it: Python renders an int of at most 4,300 digits as a string
MAX_BITS = 14_000
# `orbit` refuses a larger -n: time and output grow linearly in n, also on a
# bounded orbit (-n 100000 from (1, 1) under (z^2, w^2): 2.0 s, 15.8 MB)
ORBIT_MAX_N = 10_000
# `stable-manifold` refuses a larger --order: the cost grows about as the
# order to the 5th power (`--map "2*z^2+w, w^2" --point 2`: 2.1 s at order
# 48, 10.6 s at 64, 119 s at 96 on a 2-core Xeon under Python 3.11)
STABLE_MANIFOLD_MAX_ORDER = 64
# `dmm` refuses a larger --max-order: its roots-of-unity probe solves
# R(z1, w) for w at each of the about 0.3 N^2 roots of unity z1 of order at
# most N, but a curve such as w = z holds about as many points, each printed
# with its orbit (`dmm --map "z^2, w^2" --curve "w - z" --max-iters 2
# --max-degree 8 --max-order 64`: 1,261 points, 2.8 MB of JSON, 0.9 s wall
# of which 0.6 s is the import, on a 2-core Xeon under Python 3.11)
DMM_MAX_ORDER = 64
# `dmm` refuses a larger --height-bound: its rational probes take time about
# its square (w - z under (z^2, w^2), the other caps 1, 2 and 1: 1.1 s at 32,
# 4.1 s at 64, 18.2 s at 128 on a 2-core Xeon under Python 3.11)
DMM_MAX_HEIGHT_BOUND = 64


class InputError(ValueError):
    pass


def _parse_tol(text: str) -> Fraction:
    try:
        tol = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad tol: {exc}") from exc
    if tol <= 0:
        raise InputError(f"tol must be positive, got {text!r}")
    return tol


def _parse_map(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError("map must be two comma-separated polynomials in z, w")
    try:
        return make_regular_map(parts[0].strip(), parts[1].strip())
    except (PolyParseError, NotRegular, ValueError) as exc:
        raise InputError(f"bad map: {exc}") from exc


def _parse_curve(text: str):
    from .curves import PlaneCurve
    try:
        return PlaneCurve(text)
    except (PolyParseError, ValueError) as exc:
        raise InputError(f"bad curve: {exc}") from exc


def _parse_point(text: str, n: int = 2):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise InputError(f"point must be {n} comma-separated rationals")
    try:
        pt = tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational: {exc}") from exc
    if any(max(abs(c.numerator), c.denominator).bit_length() > MAX_BITS for c in pt):
        raise InputError(f"a coordinate has more than MAX_BITS = {MAX_BITS} bits")
    return pt


def _count(text: str) -> int:
    """A non-negative integer option value (an iteration, degree or order cap)."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return n


def _parse_place(text: str) -> Place:
    if text in ("inf", "oo", "arch"):
        return Place.archimedean()
    try:
        return Place.finite(int(text))
    except ValueError as exc:  # not an integer, or not a prime
        raise InputError(f"place must be 'inf' or a prime, got {text!r}") from exc


# -- JSON rendering ---------------------------------------------------------


def _approx(q: Fraction):
    try:
        return float(q)
    except OverflowError:  # outside the float range
        return None


def _fraction_json(q: Fraction) -> dict:
    return {"exact": f"{q.numerator}/{q.denominator}", "approx": _approx(q)}


def _json_node(value):
    """The JSON form of a domain object that has no writer of its own
    (`_new_writer`), one level deep: a dict whose values may still be domain
    objects, or a scalar."""
    if isinstance(value, AlgebraicNumber):
        if value.is_rational():
            return _fraction_json(value.as_rational())
        z = complex(value.approx())
        return {"minpoly": value.minpoly_text(),
                "root_index": value.embedding_index,
                # null outside the float range, as for a Fraction
                "approx": [z.real, z.imag] if cmath.isfinite(z) else None}
    if isinstance(value, Place):
        return value.prime if value.is_finite else "inf"
    if isinstance(value, RealInterval):
        return {"lo": float(value.lower), "hi": float(value.upper),
                "lo_exact": f"{value.lower.numerator}/{value.lower.denominator}",
                "hi_exact": f"{value.upper.numerator}/{value.upper.denominator}"}
    return repr(value)


def _point_json(pt):
    return {"chart": pt.chart, "coordinate": pt.coordinate,
            "multiplicity": pt.multiplicity}


# -- subcommand handlers ----------------------------------------------------
# each returns (result, witnesses, caps, exit_code), holding domain objects
# that `_print` renders


def _cmd_classify(args):
    f = _parse_map(args.map)
    pts = fixed_points_infinity(f)
    result = {"degree": f.d, "bad_places": sorted(bad_places(f)),
              "fixed_points_at_infinity": []}
    for pt in pts:
        lam = multiplier((f.top_P, f.top_Q), pt)
        result["fixed_points_at_infinity"].append({
            "point": _point_json(pt), "multiplier": lam,
            "classification": classify_multiplier(lam)})
    return result, {"multiplicity_sum": sum(p.multiplicity for p in pts)}, {}, 0


def _cmd_green(args):
    if not (args.point or args.homog):
        raise InputError("green needs --point or --homog")
    f = _parse_map(args.map)
    v = _parse_place(args.place)
    tol = _parse_tol(args.tol) if args.tol else DEFAULT_TOL
    ctx = GreenContext(f, v)
    if args.homog:
        pt = _parse_point(args.homog, 3)
        if not any(pt):
            raise InputError("the homogeneous point must not be 0,0,0")
        g = green_homog(ctx, pt, tol)
        inp = {"homogeneous_point": pt}
    else:
        pt = _parse_point(args.point)
        g = green_value(ctx, pt, tol)
        inp = {"point": pt}
    result = {"green": g, "place": v}
    result.update(inp)
    wit = {"nullstellensatz_constant": ctx.C,
           "good_reduction": ctx.good_reduction}
    return result, wit, {"tol": _approx(tol)}, 0


def _cmd_height(args):
    f = _parse_map(args.map)
    pt = _parse_point(args.point)
    tol = _parse_tol(args.tol) if args.tol else DEFAULT_TOL
    h = canonical_height(f, pt, tol)
    result = {"canonical_height": h.value, "support": h.support,
              "certified": True,  # every enclosure is proved; a key of the v1 schema
              "preperiodicity": h.verdict}
    code = 3 if h.verdict.kind == "Unknown" else 0
    return result, {"verdict_witness": h.verdict}, {"tol": _approx(tol)}, code


def _cmd_orbit(args):
    if args.n > ORBIT_MAX_N:
        raise InputError(f"n must be at most ORBIT_MAX_N = {ORBIT_MAX_N}, got {args.n}")
    f = _parse_map(args.map)
    pt = _parse_point(args.point)
    rows, capped = [pt], False
    X = _triple((1, *pt))
    for _ in range(args.n):
        X = f.lift.step(X)
        pt = _affine(X)
        if any(max(abs(c.numerator), c.denominator).bit_length() > MAX_BITS for c in pt):
            capped = True
            break
        rows.append(pt)
    result = {"orbit": rows, "length": len(rows)}
    caps = {"n": args.n, "bit_capped": capped, "max_bits": MAX_BITS}
    return result, {}, caps, 0


def _cmd_stable_manifold(args):
    from .localdyn import (GermShapeError, localize_at_infinity, parabolic_normal_form,
                           saddle_normal_form, super_stable_series)
    f = _parse_map(args.map)
    N = args.order
    if N < f.d:  # the germ's second component y^d (1 + h) needs order >= d
        raise InputError(f"order must be at least the map degree {f.d}, got {N}")
    if N > STABLE_MANIFOLD_MAX_ORDER:
        raise InputError(f"order must be at most STABLE_MANIFOLD_MAX_ORDER = "
                         f"{STABLE_MANIFOLD_MAX_ORDER}, got {N}")
    t = _parse_point(args.point, 1)[0] if args.point else None
    # only rational points get a multiplier: that of an irrational one
    # costs sympy minimal polynomials and root isolation
    pts = [p for p in fixed_points_infinity(f) if p.coordinate.is_rational()
           and (t is None or p.coordinate.as_rational() == t)]
    pts = [p for p in pts if not multiplier((f.top_P, f.top_Q), p).is_zero()]
    if not pts:
        raise InputError("no matching non-superattracting rational fixed point "
                         "at infinity")
    reports = []
    for p in pts:
        try:
            germ = localize_at_infinity(f, (p.coordinate, p.chart), N)
        except ValueError as exc:  # e.g. the y^d coefficient has no rational root
            raise InputError(f"cannot localize at the fixed point "
                             f"{p.coordinate.as_rational()}: {exc}") from exc
        entry = {"point": _point_json(p), "lambda": germ.lam}
        try:
            phi = super_stable_series(germ)
            entry["phi_coefficients"] = phi.coeffs
            if germ.lam == 1:
                k, res = parabolic_normal_form(germ, phi)
                nf = {"kind": "parabolic", "k": k}
            else:
                res = saddle_normal_form(germ, phi)
                nf = {"kind": "saddle"}
            # both chains start at the localized germ, so verify covers every step
            entry["normal_form"] = {**nf, "steps": len(res.conjugacies),
                                    "verified": res.verify()}
        except (GermShapeError, ValueError) as exc:
            entry["normal_form"] = {"kind": "unavailable", "reason": str(exc)}
        reports.append(entry)
    return {"manifolds": reports}, {}, {"order": N}, 0


def _cmd_curve(args):
    from .curves import curve_preperiodicity, points_at_infinity, pushforward
    f = _parse_map(args.map)
    C = _parse_curve(args.curve)
    status = curve_preperiodicity(f, C, args.max_iters, args.max_degree)
    # the orbit holds the first image unless it closed at once (or --max-iters 0)
    img = status.orbit[1] if len(status.orbit) > 1 else (
        C if status.kind == "Fixed" else pushforward(f, C))
    result = {"curve": C.poly.to_string(),
              "points_at_infinity": [_point_json(p) for p in points_at_infinity(C)],
              "pushforward": img.poly.to_string(),
              "orbit_status": status}
    caps = {"max_iters": args.max_iters, "max_degree": args.max_degree}
    code = 3 if status.kind == "NotDetectedPreperiodic" else 0
    return result, {"orbit_degrees": [c.degree for c in status.orbit]}, caps, code


def _cmd_dmm(args):
    if args.max_order > DMM_MAX_ORDER:
        raise InputError(f"max-order must be at most DMM_MAX_ORDER = {DMM_MAX_ORDER}, "
                         f"got {args.max_order}")
    if args.height_bound > DMM_MAX_HEIGHT_BOUND:
        raise InputError(f"height-bound must be at most DMM_MAX_HEIGHT_BOUND = "
                         f"{DMM_MAX_HEIGHT_BOUND}, got {args.height_bound}")
    from .curves import dmm_report
    f = _parse_map(args.map)
    C = _parse_curve(args.curve)
    rep = dmm_report(f, C, args.max_iters, args.max_degree,
                     args.height_bound, args.max_order)
    result = {
        "hypothesis_witnessed": rep.hypothesis_witnessed,
        "conclusion_witnessed": rep.conclusion_witnessed,
        "consistency": rep.consistency,
        "curve_status": rep.curve_status,
        "infinity_points": [{
            "point": _point_json(r.point),
            "orbit": r.orbit_verdict,
            "terminal_classification": r.terminal_classification,
            "note": r.note} for r in rep.infinity_points],
        "preperiodic_points_found": rep.preperiodic_points,
        "notes": rep.notes,
    }
    caps = {"max_iters": args.max_iters, "max_degree": args.max_degree,
            "height_bound": args.height_bound, "max_order": args.max_order}
    unresolved = (rep.curve_status.kind == "NotDetectedPreperiodic"
                  and not rep.hypothesis_witnessed and not rep.preperiodic_points)
    return result, {}, caps, 3 if unresolved else 0


class _Parser(argparse.ArgumentParser):
    """Usage errors (missing, unknown or malformed arguments) raise InputError,
    so `run` reports them in its one JSON document; --help still exits 0."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@cache
def _build_parser():
    """The top parser; its `commands` maps each subcommand to its parser."""
    p = _Parser(prog="regdyn", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices

    def add(name, handler, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(handler=handler)
        sp.add_argument("--map", required=True,
                        help='two polynomials in z, w: "z^2, w^2"')
        return sp

    add("classify", _cmd_classify,
        help="regularity, fixed points at infinity, multiplier trichotomy")

    g = add("green", _cmd_green, help="local Green value at a point")
    g.add_argument("--point", help='affine point "z,w"')
    g.add_argument("--homog", help='homogeneous point "z0,z1,z2"')
    g.add_argument("--place", default="inf", help="'inf' or a prime")
    g.add_argument("--tol", help="enclosure width target (default 1e-9)")

    h = add("height", _cmd_height, help="canonical height and preperiodicity")
    h.add_argument("--point", required=True)
    h.add_argument("--tol")

    o = add("orbit", _cmd_orbit, help="exact orbit table")
    o.add_argument("--point", required=True)
    o.add_argument("-n", type=_count, default=10, help=f"iterations, at most {ORBIT_MAX_N}")

    s = add("stable-manifold", _cmd_stable_manifold,
            help="localization, stable-manifold series, normal form")
    s.add_argument("--point", help="chart-0 coordinate of the fixed point")
    s.add_argument("--order", type=int, default=16,
                   help=f"truncation order, at most {STABLE_MANIFOLD_MAX_ORDER}")

    c = add("curve", _cmd_curve,
            help="points at infinity, pushforward, curve orbit")
    c.add_argument("--curve", required=True)
    c.add_argument("--max-iters", type=_count, default=8)
    c.add_argument("--max-degree", type=_count, default=64)

    d = add("dmm", _cmd_dmm, help="full dynamical Manin-Mumford report")
    d.add_argument("--curve", required=True)
    d.add_argument("--max-iters", type=_count, default=8)
    d.add_argument("--max-degree", type=_count, default=64)
    d.add_argument("--height-bound", type=_count, default=3)
    d.add_argument("--max-order", type=_count, default=24,
                   help=f"largest order of the roots of unity tried, at most {DMM_MAX_ORDER}")
    return p


_ASCII = json.encoder.encode_basestring_ascii  # json's C string encoder
_FLOATS = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _float_text(x: float) -> str:
    return "NaN" if x != x else _FLOATS.get(x) or float.__repr__(x)


# the text of each exact scalar type, and of a root of unity, by type; the
# subclasses of str, int and float join as they are met (`_new_writer`)
_SCALARS = {str: _ASCII, int: int.__repr__, float: _float_text, type(None): lambda _: "null",
            bool: lambda b: "true" if b else "false", Zeta: lambda z: _ASCII(str(z))}
_KEYS = {}  # the text '"key": ' of each str dict key met so far


def _encode(value, out: list, indent: str):
    """Append to out the text json.dumps(value, indent=2) prints for value
    at this indent, in one pass: domain objects are rendered on the way,
    where the standard library's indented encoder runs in Python through a
    generator per container.  Every other type has one writer (`_WRITERS`),
    chosen when the type is first met."""
    text = _SCALARS.get(type(value))
    if text is not None:
        out.append(text(value))
    else:
        _WRITERS.get(type(value), _new_writer)(value, out, indent)


def _write_list(value, out: list, indent: str):
    if not value:
        out.append("[]")
        return
    inner = indent + "  "
    sep, head = ",\n" + inner, "[\n" + inner
    texts = [_SCALARS.get(type(v)) for v in value]
    if None not in texts:  # a leaf container, all scalars: one join
        out.append(head + sep.join([text(v) for text, v in zip(texts, value)])
                   + "\n" + indent + "]")
        return
    for text, v in zip(texts, value):
        if text is None:
            out.append(head)
            _WRITERS.get(type(v), _new_writer)(v, out, inner)
        else:  # a scalar, in the same append as its separator
            out.append(head + text(v))
        head = sep
    out.append("\n" + indent + "]")


def _write_dict(value, out: list, indent: str):
    if not value:
        out.append("{}")
        return
    inner = indent + "  "
    sep, head = ",\n" + inner, "{\n" + inner
    for k, v in value.items():
        key = _KEYS.get(k)
        if key is None:
            key = _ASCII(k if isinstance(k, str) else str(k)) + ": "
            if type(k) is str:
                _KEYS[k] = key
        text = _SCALARS.get(type(v))
        if text is None:
            out.append(head + key)
            _WRITERS.get(type(v), _new_writer)(v, out, inner)
        else:
            out.append(head + key + text(v))
        head = sep
    out.append("\n" + indent + "}")


_WRITERS = {list: _write_list, tuple: _write_list, dict: _write_dict,
            Fraction: lambda q, out, indent: _write_dict(_fraction_json(q), out, indent)}


def _new_writer(value, out: list, indent: str):
    """Write a value of a type met for the first time, keeping its writer: a
    subclass of a JSON type, of Zeta or of Fraction prints as its base, a
    dataclass as {"type": its class name, field: value, ...}, the rest as
    `_json_node` renders it."""
    t = type(value)
    base = next((b for b in (list, tuple, dict, str, int, float, Zeta, Fraction)
                 if issubclass(t, b)), None)
    if base in _SCALARS:
        _SCALARS[t] = _SCALARS[base]
    elif base is not None:
        _WRITERS[t] = _WRITERS[base]
    elif hasattr(t, "__dataclass_fields__") and not issubclass(t, (Place, RealInterval)):
        names, name = tuple(t.__dataclass_fields__), t.__name__
        _WRITERS[t] = lambda value, out, indent: _write_dict(
            {"type": name, **{k: getattr(value, k) for k in names}}, out, indent)
    else:
        _WRITERS[t] = lambda value, out, indent: _encode(_json_node(value), out, indent)
    _encode(value, out, indent)


def _print(doc: dict):
    """Print the one JSON document, its domain objects rendered (`_encode`),
    with indent 2.  When the reader has closed stdout (as `| head`
    does) stdout goes to devnull instead, so that neither this print nor
    the flush at exit ends in a traceback, and the exit code stands.  An
    exact coefficient prints in full past Python's 4,300-digit default limit
    on int to str (an image of a line with a 401-digit coefficient)."""
    out, limit = [], sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _encode(doc, out, "")
    finally:
        sys.set_int_max_str_digits(limit)
    out.append("\n")
    try:
        sys.stdout.write("".join(out))
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _error(doc: dict, exc: Exception, t0: float) -> int:
    doc.update(error=str(exc), timing={"seconds": time.monotonic() - t0})
    _print(doc)
    return 2


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    t0 = time.monotonic()
    top = _build_parser()
    sub = top.commands.get(argv[0]) if argv else None
    try:
        if sub is None or "-h" in argv or "--help" in argv:
            args = top.parse_args(argv)
        else:  # the subcommand's parser alone, as the top parser would call it
            args, extra = sub.parse_known_args(argv[1:])
            if extra:
                top.error(f"unrecognized arguments: {' '.join(extra)}")
            args.command = argv[0]
    except SystemExit as exc:  # --help
        return 0 if exc.code == 0 else 2
    except InputError as exc:
        return _error({"schema_version": SCHEMA_VERSION, "command": None,
                       "input": {"argv": argv}}, exc, t0)
    doc = {"schema_version": SCHEMA_VERSION, "command": args.command,
           "input": {k: v for k, v in vars(args).items()
                     if k not in ("handler", "command") and v is not None}}
    try:
        result, witnesses, caps, code = args.handler(args)
    except (InputError, NotRegular, PolyParseError, PrecisionLoss, FactoringCap) as exc:
        return _error(doc, exc, t0)
    doc.update(result=result, witnesses=witnesses, caps=caps,
               timing={"seconds": time.monotonic() - t0})
    _print(doc)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

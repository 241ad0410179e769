"""One workload run inside a fresh interpreter (started by regbench/run.py).

    python -m regbench.worker --workload heights --seed 1 --seconds 20 --trace 0
    python -m regbench.worker --workload heights --setup-only

One closed-loop client with no threads drives `regdyn.cli.run(argv)`
in-process and captures what it prints.  Queries run in whole blocks (see
regbench.workloads), so every run holds each stratum in its exact share,
and a run's number of blocks follows from --seconds alone (block_count).
The outcomes of each block go to a file as soon as the block is done, so
that the worker's peak RSS does not grow with the number of queries a run
completes.  Every answer is checked after the timed region.  The last line of stdout
is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import pickle
import resource
import statistics
import sys
import time
from collections import Counter

from .checks import RerunError, judge
from .speed import SpeedLog
from .tracer import Tracer, wrapped_leftovers
from .workloads import blocks, warmup

# wall seconds of one block at the seed commit, on a shared 2-core x86-64
# machine: heights 103 queries, normal-forms and curves 20 each
BLOCK_S = {"heights": 1.5, "normal-forms": 7.0, "curves": 6.6}
# at least 100 queries, so that at least 10 samples lie beyond the p90;
# normal-forms and curves need more for their p50 and p90 to hold still
# from run to run (NOTES.md)
MIN_BLOCKS = {"heights": 1, "normal-forms": 5, "curves": 5}
HARD_STOP_S = 120  # a program this slow stops starting new blocks (180 s limit)
TRACE_BLOCKS = {"heights": 3, "normal-forms": 2, "curves": 2}
WORK_DIR = ".regbench"  # span files and spilled outcomes


def load_cli():
    import regdyn.cli as cli
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"regdyn was imported from {cli.__file__}, not from ./src")
    return cli


def run_query(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
        exc = None
    except Exception as e:  # a traceback escaping the CLI is a counted failure
        code, exc = None, f"{type(e).__name__}: {e}"
    t1 = time.perf_counter()
    return {"seconds": t1 - t0, "t0": t0, "t1": t1, "code": code, "exc": exc,
            "out": out.getvalue()}


def set_up(workload: str):
    """Import regdyn and run the fixed warm-up queries.  Returns the CLI
    module and the set-up time, raw and scaled by the machine speed
    sampled just before and just after."""
    speed = SpeedLog()
    for _ in range(3):
        speed.sample()
    t0 = time.perf_counter()
    cli = load_cli()
    for q in warmup(workload):
        run_query(cli, q.argv)
    t1 = time.perf_counter()
    for _ in range(3):
        speed.sample()
    raw = t1 - t0
    return cli, raw, raw / speed.factor(t0, t1)


def _rerun(cli):
    def rerun(argv):
        o = run_query(cli, argv)
        if o["exc"] is not None or o["code"] != 0:
            raise RerunError(f"check query failed: {o['exc'] or o['code']}")
        return json.loads(o["out"])
    return rerun


def judge_all(workload, cli, done) -> tuple:
    """Status per query, and the reasons of every failure."""
    rerun = _rerun(cli)
    statuses, reasons = [], Counter()
    for q, o in done:
        status, why = judge(workload, q, o, rerun)
        statuses.append(status)
        if status in ("failed", "wrong"):
            probe = f"/{q.meta['probe']}" if "probe" in q.meta else ""
            reasons[f"{q.kind}{probe}: {why[:90]}"] += 1
    return statuses, reasons


class Spill:
    """The (query, outcome) pairs of a run's blocks, kept on disk."""

    def __init__(self, path: str):
        self.path = path
        self.fh = open(path, "wb")

    def add(self, done):
        pickle.dump(done, self.fh)

    def pairs(self):
        self.fh.close()
        with open(self.path, "rb") as fh:
            while True:
                try:
                    yield from pickle.load(fh)
                except EOFError:
                    break
        os.remove(self.path)


def scaled_pass(queries, cli, tracer=None) -> list:
    """Run the queries once, sampling the machine speed between them, and
    give each outcome its time scaled by the speed near it (speed.py)."""
    speed, done = SpeedLog(), []
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        speed.maybe_sample()
        done.append((q, run_query(cli, q.argv)))
    speed.sample()
    for _q, o in done:
        o["scaled"] = o["seconds"] / speed.factor(o["t0"], o["t1"])
    return done


def block_count(workload, seconds) -> int:
    """Blocks a run holds: about `seconds` of queries at the seed commit's
    speed, and at least MIN_BLOCKS.  The count does not depend on how fast
    the queries run, so that every run of a seed attempts the same queries
    and fails the same ones."""
    return max(MIN_BLOCKS[workload], round(seconds / BLOCK_S[workload]))


def timed_run(workload, seed, seconds, t_start, cli, spill) -> list:
    """block_count() whole blocks; outcomes go to `spill`.  Returns
    (kind, seconds, scaled) per query."""
    times = []
    for block in itertools.islice(blocks(workload, seed), block_count(workload, seconds)):
        done = scaled_pass(block, cli)
        spill.add(done)
        times += [(q.kind, o["seconds"], o["scaled"]) for q, o in done]
        del done  # so that two blocks' outputs are never held at once
        if time.perf_counter() - t_start > HARD_STOP_S:
            break
    return times


def latency_metrics(lat) -> tuple:
    """Throughput of the closed loop, median and p90 latency."""
    return len(lat) / sum(lat), statistics.median(lat), statistics.quantiles(lat, n=10)[8]


def end_to_end(times, statuses, rss_mb, setup_s) -> dict:
    thr, p50, p90 = latency_metrics([t for _k, _t, t in times])
    n = len(times)
    counts = Counter(statuses)
    return {
        "throughput_qps": thr,
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "answered_frac": counts["ok"] / n,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "failed_frac": (counts["failed"] + counts["wrong"]) / n,
        "unknown_frac": counts["unknown"] / n,
    }


def _answer(o):
    """An answer without its timing, to compare traced and untraced runs."""
    try:
        doc = json.loads(o["out"])
    except ValueError:
        return (o["code"], o["exc"], o["out"])
    doc.pop("timing", None)
    return (o["code"], o["exc"], doc)


def per_layer(tr: Tracer, done, statuses, t_plain, t_traced) -> dict:
    calls, incl, self_s = tr.calls, tr.incl_s, tr.self_s

    def n(name):
        return tr.total(calls, name)

    def s(name):
        return tr.total(incl, name)

    cmds = Counter(q.argv[0] for q, _o in done)
    curve_queries = cmds["curve"] + cmds["dmm"]
    badprime = n("green.green_value[badprime]")
    pushes = n("curves.pushforward")
    layer = tr.layer_self_s()
    traced_total = sum(layer.values()) or 1.0
    counts = Counter(statuses)
    m = {
        "cli.run_self_s": tr.total(self_s, "cli.run"),
        "maps.make_regular_map_s": s("maps.make_regular_map"),
        "maps.make_regular_map_calls": n("maps.make_regular_map"),
        "maps.apply_calls": n("maps.RegularMap.apply"),
        "polyalg.eval_s": s("polyalg.MultiPoly.eval"),
        "polyalg.parse_poly_s": s("polyalg.parse_poly"),
        "padic.mul_calls": n("padic.PAdic.__mul__"),
        "padic.from_rational_calls": n("padic.PAdic.from_rational"),
        "green.padic_attempts_per_badprime_green":
            tr.child_calls("green.green_value[badprime]", "padic.PAdic.from_rational")
            / (2 * badprime) if badprime else 0.0,
        "intervals.log_of_fraction_calls": n("intervals.log_of_fraction"),
        "intervals.log_of_fraction_s": s("intervals.log_of_fraction"),
        "green.green_homog_s": s("green.green_homog"),
        "green.context_s": s("green.GreenContext.__init__"),
        "green.context_calls": n("green.GreenContext.__init__"),
        "green.bad_places_s": s("green.bad_places"),
        "heights.canonical_height_calls_per_query":
            n("heights.canonical_height") / cmds["height"] if cmds["height"] else 0.0,
        "heights.canonical_height_s": s("heights.canonical_height"),
        "heights.is_preperiodic_s": s("heights.is_preperiodic"),
        "infinity.fixed_points_infinity_s": s("infinity.fixed_points_infinity"),
        "infinity.classify_multiplier_s": s("infinity.classify_multiplier"),
        "exactnum.find_expanding_place_s": s("exactnum.find_expanding_place"),
        "exactnum.is_root_of_unity_s": s("exactnum.is_root_of_unity"),
        "numberfield.mul_calls": n("numberfield.NFElement.__mul__"),
        "numberfield.mul_s": s("numberfield.NFElement.__mul__"),
        "series.mul_calls": n("series.TruncSeries.__mul__"),
        "series.compose_calls": n("series.TruncSeries.compose"),
        "series.reversion_s": s("series.TruncSeries.reversion"),
        "series.mul2_calls": n("series.TruncSeries2.__mul__"),
        "series.mul2_s": s("series.TruncSeries2.__mul__"),
        "series.compose2_calls": n("series.TruncSeries2.compose"),
        "series.compose2_s": s("series.TruncSeries2.compose"),
        "localdyn.localize_at_infinity_s": s("localdyn.localize_at_infinity"),
        "localdyn.super_stable_series_s": s("localdyn.super_stable_series"),
        "localdyn.reduce_form_s": s("localdyn.reduce_form"),
        "localdyn.saddle_normal_form_s": s("localdyn.saddle_normal_form"),
        "localdyn.parabolic_normal_form_s": s("localdyn.parabolic_normal_form"),
        "localdyn.verify_s": s("localdyn.NormalFormResult.verify"),
        "curves.pushforward_s": s("curves.pushforward"),
        "curves.pushforward_calls_per_query": pushes / curve_queries if curve_queries else 0.0,
        "curves.resultant_calls_per_pushforward":
            n("curves.resultant") / pushes if pushes else 0.0,
        "curves.resultant_s": s("curves.resultant"),
        "curves.factor_list_s": s("curves.factor_list"),
        "curves.find_preperiodic_points_s": s("curves.find_preperiodic_points"),
        "failed_frac": (counts["failed"] + counts["wrong"]) / len(done),
        "unknown_frac": counts["unknown"] / len(done),
        "tracing.overhead_frac": t_traced / t_plain - 1,
    }
    for kind in ("fraction", "padic", "nf", "other"):
        m[f"polyalg.eval_calls_{kind}"] = n(f"polyalg.MultiPoly.eval[{kind}]")
    for place in ("arch", "badprime", "good"):
        m[f"green.green_value_{place}_s"] = s(f"green.green_value[{place}]")
    for name, t in layer.items():
        m[f"{name}.self_frac"] = t / traced_total
    return m


def traced_run(workload, seed, cli):
    """The first TRACE_BLOCKS blocks, traced and then untraced, each pass
    from an empty sympy cache.  The traced pass runs first, right after
    set-up as the timed runs do; the untraced pass still finds some state
    warm (sympy's prime sieve, specialised bytecode), which makes the
    overhead it yields too high, and machine noise moves it either way."""
    from sympy.core.cache import clear_cache
    gen = blocks(workload, seed)
    queries = [q for _ in range(TRACE_BLOCKS[workload]) for q in next(gen)]
    tr = Tracer()
    clear_cache()
    tr.install()
    try:
        traced = scaled_pass(queries, cli, tr)
    finally:
        tr.uninstall()
    clear_cache()
    plain = scaled_pass(queries, cli)
    t_plain, t_traced = (sum(o["scaled"] for _q, o in run) for run in (plain, traced))
    leftovers = wrapped_leftovers()
    os.makedirs(WORK_DIR, exist_ok=True)
    span_file = os.path.join(WORK_DIR, f"spans-{workload}-{seed}.tsv.gz")
    tr.write(span_file)
    statuses, reasons = judge_all(workload, cli, plain)
    differ = sum(_answer(a) != _answer(b) for (_q, a), (_q2, b) in zip(plain, traced))
    if differ:
        reasons["traced answer differs from the untraced one"] += differ
    if leftovers:
        reasons[f"tracing wrappers left installed: {leftovers[:3]}"] += 1
    metrics = per_layer(tr, plain, statuses, t_plain, t_traced)
    info = {"queries": len(queries), "spans": len(tr.rec_name), "span_file": span_file,
            "untraced_scaled_s": t_plain, "traced_scaled_s": t_traced}
    return plain, statuses, reasons, metrics, info, not differ and not leftovers


def kind_table(times) -> dict:
    """Per query kind: [count, mean seconds], scaled where the run scaled them."""
    acc = {}
    for kind, t in times:
        n, total = acc.get(kind, (0, 0.0))
        acc[kind] = (n + 1, total + t)
    return {k: [n, round(t / n, 4)] for k, (n, t) in sorted(acc.items())}


def environment() -> dict:
    import mpmath
    import sympy
    from sympy.external.gmpy import GROUND_TYPES
    return {"python": sys.version.split()[0], "sympy": sympy.__version__,
            "mpmath": mpmath.__version__, "sympy_ground_types": GROUND_TYPES,
            "nproc": os.cpu_count(), "pythonhashseed": os.environ.get("PYTHONHASHSEED")}


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(prog="regbench.worker")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    cli, setup_raw, setup_s = set_up(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0
    if args.trace:
        done, statuses, reasons, metrics, info, clean = traced_run(args.workload, args.seed, cli)
        times = [(q.kind, o["seconds"], o["scaled"]) for q, o in done]
    else:
        os.makedirs(WORK_DIR, exist_ok=True)
        spill = Spill(os.path.join(WORK_DIR, f"outcomes-{args.workload}-{os.getpid()}.pickle"))
        times = timed_run(args.workload, args.seed, args.seconds, t_start, cli, spill)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        first = len(next(blocks(args.workload, args.seed)))

        def pairs():  # shape-check the normal forms of the first block
            for i, (q, o) in enumerate(spill.pairs()):
                if args.workload == "normal-forms" and i < first:
                    q.meta["shape"] = True
                yield q, o
        statuses, reasons = judge_all(args.workload, cli, pairs())
        metrics = end_to_end(times, statuses, rss_mb, setup_s)
        raw = latency_metrics([t for _k, t, _s in times])
        info = {"queries": len(times), "timed_s": sum(t for _k, t, _s in times),
                "raw_throughput_qps": raw[0], "raw_latency_p50_s": raw[1],
                "raw_latency_p90_s": raw[2], "raw_setup_s": setup_raw}
        clean = True
    counts = Counter(statuses)
    print(json.dumps({"correct": clean and not counts["wrong"], "attempted": len(times),
                      "failed": counts["failed"] + counts["wrong"], "metrics": metrics,
                      "failures": dict(reasons), "kinds": kind_table((k, t) for k, _t, t in times),
                      "info": info, "env": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

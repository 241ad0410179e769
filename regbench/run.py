"""regdyn benchmark: run one workload and print its metrics.

    python3 regbench/run.py --workload heights --seed 1 --seconds 15 --trace 0

Run it from the root of a regdyn checkout; it measures the code in ./src.
Each run starts fresh interpreters with PYTHONHASHSEED pinned: two that
only set up (import regdyn and run the fixed warm-up queries) and one that
also runs the workload (regbench/worker.py).  With --trace 0 it reports the
end-to-end metrics, setup_s being the median set-up time of the three;
with --trace 1 it reports the per-layer metrics of a traced run.  Every
metric is printed by name with its unit, and the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from regbench.metrics import END_TO_END, PER_LAYER, REPORTED  # noqa: E402
from regbench.workloads import WORKLOADS  # noqa: E402

# set-up-only processes per run, besides the worker: one set-up time per
# run moves by more than setup_s's bound between runs (regbench/NOTES.md)
SETUP_PROBES = 2
DEADLINE_S = 170  # a run must end within 180 s


def child(args: list, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([os.path.join(os.getcwd(), "src"), ROOT]))
    proc = subprocess.run([sys.executable, "-m", "regbench.worker"] + args, cwd=os.getcwd(),
                          env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(prog="regbench")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "regdyn", "cli.py")):
        print("regbench: run from the root of a regdyn checkout (no src/regdyn/cli.py here)",
              file=sys.stderr)
        return 1
    common = ["--workload", args.workload]
    try:
        setups = [] if args.trace else [
            child(common + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
        res = child(common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"regbench: {exc}", file=sys.stderr)
        return 1
    m = res["metrics"]
    if args.trace:
        shown = PER_LAYER
    else:
        each = [m["setup_s"]] + [s["setup_s"] for s in setups]
        res["info"]["setup_each_s"] = "/".join(f"{t:.4f}" for t in each)
        m["setup_s"] = statistics.median(each)
        res["info"]["raw_setup_s"] = statistics.median(
            [s["setup_raw_s"] for s in setups] + [res["info"]["raw_setup_s"]])
        shown = END_TO_END + REPORTED
    env = res["env"]
    print(f"regbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{res['attempted']} queries, {res['failed']} failed, correct={res['correct']}")
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("  info: " + ", ".join(f"{k}={v}" for k, v in res["info"].items()))
    for kind, (n, mean) in res["kinds"].items():
        print(f"  kind {kind:26s} n={n:5d} mean={mean:.4f} s")
    for why, n in sorted(res["failures"].items()):
        print(f"  FAILED x{n}: {why}")
    for name, unit in shown:
        print(f"  {name:44s} {m[name]:14.6g} {unit}")
    keep = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {n: {"value": m[n], "unit": u} for n, u in keep}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself:  python3 -m pytest -q regbench/test_regbench.py"""

import copy
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), ROOT) if p not in sys.path]

from regbench import checks, metrics, tracer, workloads  # noqa: E402
from regbench.worker import Spill, block_count, run_query  # noqa: E402


def _first(workload, seed, k):
    """The first k blocks of a stream, as one list."""
    return [q for block in itertools.islice(workloads.blocks(workload, seed), k)
            for q in block]


def _strata(q):
    if q.argv[0] == "stable-manifold":
        return (q.kind, q.argv[-1], q.meta["lam"])
    if q.argv[0] in ("dmm", "height", "orbit", "green"):
        return (q.kind, q.argv[-1])  # max-order, tolerance or orbit length
    return (q.kind,)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_stream_is_deterministic_per_seed(workload):
    a, b = _first(workload, 7, 2), _first(workload, 7, 2)
    assert [(q.argv, q.meta) for q in a] == [(q.argv, q.meta) for q in b]
    assert [q.argv for q in a] != [q.argv for q in _first(workload, 8, 2)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_share_the_mix(workload):
    for b in range(3):
        mixes = {seed: Counter(_strata(q) for q in list(
            itertools.islice(workloads.blocks(workload, seed), b + 1))[-1])
            for seed in (1, 2, 3)}
        assert mixes[1] == mixes[2] == mixes[3]


def test_orbit_lengths_are_not_cut():
    ns = Counter(int(q.argv[-1]) for q in _first("heights", 1, 5) if q.kind == "orbit")
    assert sorted(ns) == list(range(1, 11)) and len(set(ns.values())) == 1


def test_heights_seeds_only_reorder_the_queries():
    def argvs(seed):
        return sorted(tuple(q.argv) for q in _first("heights", seed, 2))
    assert argvs(1) == argvs(2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_block_count_follows_from_seconds_alone(workload):
    size = len(next(workloads.blocks(workload, 1)))
    assert block_count(workload, 15) == block_count(workload, 15)
    assert block_count(workload, 1) * size >= 100
    assert block_count(workload, 60) > block_count(workload, 1)


def test_spill_gives_back_every_pair_and_removes_its_file(tmp_path):
    spill = Spill(str(tmp_path / "outcomes.pickle"))
    spill.add([(1, "a"), (2, "b")])
    spill.add([(3, "c")])
    assert list(spill.pairs()) == [(1, "a"), (2, "b"), (3, "c")]
    assert not os.listdir(tmp_path)


def test_normal_form_maps_are_distinct_and_have_the_multiplier():
    qs = _first("normal-forms", 3, 3)
    assert len({q.argv[2] for q in qs}) == len(qs)
    for q in qs:  # lam = Q_2's zw coefficient over P_2's z^2 coefficient
        assert q.meta["Q"][(1, 1)] / q.meta["P"][(2, 0)] == q.meta["lam"]


def test_tracer_restores_every_original():
    import sympy
    import regdyn.cli as cli
    import regdyn.curves
    import regdyn.heights
    originals = (cli.run, cli.canonical_height, regdyn.heights.canonical_height,
                 regdyn.heights.green_value, regdyn.padic.PAdic.__dict__["from_rational"])
    tr = tracer.Tracer()
    tr.install()
    try:
        assert cli.canonical_height is regdyn.heights.canonical_height is not originals[1]
        assert regdyn.curves.sp is not sympy
        for i, argv in enumerate([["height", "--map", "z^2 + 1/2*w, w^2 - z",
                                   "--point=1/3,2", "--tol", "1e-8"],
                                  ["curve", "--map", "z^2, w^2", "--curve", "w - 2*z",
                                   "--max-iters", "1"]]):
            tr.query = i
            assert run_query(cli, argv)["code"] in (0, 3)
    finally:
        tr.uninstall()
    assert tracer.wrapped_leftovers() == []
    assert regdyn.curves.sp is sympy
    assert (cli.run, cli.canonical_height, regdyn.heights.canonical_height,
            regdyn.heights.green_value,
            regdyn.padic.PAdic.__dict__["from_rational"]) == originals
    for name in ("cli.run", "heights.canonical_height", "green.green_value[badprime]",
                 "padic.PAdic.__mul__", "curves.pushforward", "curves.resultant"):
        assert tr.total(tr.calls, name) > 0, name
    root = tr.total(tr.incl_s, "cli.run")
    assert sum(tr.layer_self_s().values()) == pytest.approx(root, rel=1e-6)
    assert set(tr.rec_query) == {0, 1}


def _answer(workload, argv, meta, kind):
    import regdyn.cli as cli
    q = workloads.Query(kind, argv, meta)
    out = run_query(cli, argv)
    return q, out, json.loads(out["out"])


def _judge(workload, q, out, doc=None):
    import regdyn.cli as cli
    if doc is not None:
        out = dict(out, out=json.dumps(doc))
    return checks.judge(workload, q, out,
                        lambda argv: json.loads(run_query(cli, argv)["out"]))[0]


def test_heights_check_rejects_a_shifted_endpoint():
    P, Q = {(2, 0): F(1)}, {(0, 2): F(-1)}
    meta = {"P": P, "Q": Q, "d": 2, "diagonal": True, "point": (F(2, 3), F(-5)),
            "tol": F(1, 10**12), "place": "inf", "invariance": True}
    argv = ["green", "--map", "z^2, -w^2", "--point=2/3,-5", "--place", "inf",
            "--tol", "1e-12"]
    q, out, doc = _answer("heights", argv, meta, "green-inf")
    assert _judge("heights", q, out) == "ok"
    for end in ("lo_exact", "hi_exact"):
        bad = copy.deepcopy(doc)
        g = bad["result"]["green"]
        g[end] = str(F(g[end]) + F(1, 10**6))
        assert _judge("heights", q, out, bad) == "wrong", end


def test_heights_check_rejects_a_wrong_orbit_and_counts_crashes():
    meta = {"P": {(2, 0): F(1), (0, 1): F(1)}, "Q": {(0, 2): F(1)}, "d": 2,
            "diagonal": False, "point": (F(1, 2), F(0)), "n": 3}
    argv = ["orbit", "--map", "z^2 + w, w^2", "--point=1/2,0", "-n", "3"]
    q, out, doc = _answer("heights", argv, meta, "orbit")
    assert _judge("heights", q, out) == "ok"
    doc["result"]["orbit"][2][0]["exact"] = "1/17"
    assert _judge("heights", q, out, doc) == "wrong"
    crash = {"seconds": 0.0, "code": None, "exc": "ValueError: 4 is not prime", "out": ""}
    assert _judge("heights", workloads.Query("malformed", [], {"probe": "place-4"}), crash) \
        == "failed"


def test_normal_forms_check_rejects_a_flipped_verified():
    q = _first("normal-forms", 5, 1)
    q = next(x for x in q if x.meta["order"] == 6 and x.meta["lam"] == 2)
    q.meta["shape"] = True
    q, out, doc = _answer("normal-forms", q.argv, q.meta, q.kind)
    assert _judge("normal-forms", q, out) == "ok"
    doc["result"]["manifolds"][0]["normal_form"]["verified"] = False
    assert _judge("normal-forms", q, out, doc) == "wrong"


def test_shape_check_rejects_a_wrong_parabolic_form():
    q = next(x for x in _first("normal-forms", 5, 1)
             if x.meta["order"] == 6 and x.meta["lam"] == 1)
    _phi, germ, k = checks.normal_form_germ(q, 6)
    assert checks.shape_errors("parabolic", germ, F(1), k) == []
    germ.first.coeffs[(k + 1, 0)] = F(1, 7)  # no longer x + x^(k+1) + ...
    assert checks.shape_errors("parabolic", germ, F(1), k)


def test_curves_check_rejects_a_wrong_curve():
    meta = {"P": {(2, 0): F(1)}, "Q": {(0, 2): F(1)}, "R": {(0, 1): F(1), (1, 0): F(-2)},
            "d": 2}
    argv = ["curve", "--map", "z^2, w^2", "--curve", "w - 2*z", "--max-iters", "2",
            "--max-degree", "8"]
    q, out, doc = _answer("curves", argv, meta, "monomial-curve-line")
    assert _judge("curves", q, out) == "unknown"  # no cycle within two steps
    doc["result"]["pushforward"] = "2*z - w"
    assert _judge("curves", q, out, doc) == "wrong"


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == metrics.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "regbench", "run.py"),
                           "--workload", "heights", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

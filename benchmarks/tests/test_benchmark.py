"""Tests of the benchmark itself: tracing, oracles, hooks and the output contract.

Run from the repository root:  python3 -m pytest -q benchmarks/tests
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    """One-op untraced and traced runs of each workload, with the trace summary."""
    pairs = {}
    for name in workloads.NAMES:
        out = tmp_path_factory.mktemp(name)
        plain, _ = worker.run_loop(name, SEED, 0.0, out)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _ = worker.run_loop(name, SEED, 0.0, out, tracer=tracer)
        finally:
            tracer.uninstall()
        pairs[name] = plain, traced, tracer.summary()
    return pairs


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tracing_never_changes_a_result(traced_pairs, name):
    plain, traced, _ = traced_pairs[name]
    assert [op["argv"] for op in plain] == [op["argv"] for op in traced]
    run.verify(name, plain)
    run.verify(name, traced)
    digests = [op["digest"] for op in plain]
    assert all(digests)
    assert digests == [op["digest"] for op in traced]
    assert not any(op["problems"] for op in plain)


def test_predicted_zero_cells_hold(traced_pairs):
    calls = {name: summary["calls"] for name, (_, _, summary) in traced_pairs.items()}
    assert calls["scan"].get("rng.stream", 0) == 0
    assert calls["scan"]["cap._betacf"] > 0
    for name in ("influence", "gsa"):
        assert calls[name].get("cap._betacf", 0) == 0
        assert calls[name]["rng.stream"] > 0
    assert calls["influence"]["hermite.h2"] > 0
    assert calls["gsa"].get("hermite.h2", 0) == 0


def test_hooks_cover_every_per_layer_metric(traced_pairs):
    for _, _, summary in traced_pairs.values():
        metrics, absent = tracing.per_layer(summary, 1)
        assert absent == []
        assert all(math.isfinite(m["value"]) for m in metrics.values())


@pytest.mark.parametrize("name, row, field", [
    ("scan", None, "expected_gsa"),
    ("influence", "influence-hermite-mc", "value"),
    ("gsa", "influence-over-inradius", "value"),
])
def test_corrupted_output_counts_as_failed(traced_pairs, name, row, field):
    op = copy.deepcopy(traced_pairs[name][0][0])
    target = op["doc"]["rows"][0] if row is None else next(
        r for r in op["doc"]["rows"] if r["name"] == row)
    target[field] = target[field] * (1.0 + 1e-6) + 1.0
    missing = copy.deepcopy(traced_pairs[name][0][0])
    missing["doc"] = None
    ops = [op, missing]
    run.verify(name, ops)
    assert all(o["problems"] for o in ops)


@pytest.mark.xfail(strict=True, reason="an influence pass that sees no point of the body "
                   "reports 0 with standard error 0, so any positive facet estimate fails "
                   "the 4-standard-error cross-check")
def test_gsa_cross_check_survives_an_empty_influence_pass(tmp_path):
    # Outside the gsa workload's r = alpha * n^(1/4) range: at r = 1.6 the
    # body is so thin that 4096 influence samples miss it.
    argv = ["gsa", "--n", "55", "--r", "1.595541", "--s", "324", "--samples-per-facet", "1308",
            "--samples", "4096", "--seed", "1525987214"]
    ops, _ = worker.run_loop("gsa", SEED, 0.0, tmp_path, replay=[argv])
    run.verify("gsa", ops)
    assert ops[0]["problems"] == []


def test_failing_exit_code_is_recorded():
    ops = [{"argv": ["scan", "--n", "3"], "exit_code": 1, "error": None,
            "stderr": "error: scan needs n >= 7, got 3\n", "doc": None}]
    run.verify("scan", ops)
    assert ops[0]["problems"] == ["exit code 1: error: scan needs n >= 7, got 3"]


def test_absent_hook_is_reported_not_fatal():
    hooks = [h for h in tracing.HOOKS if h[0] != "cap._betacf"] + [
        ("cap._betacf", "gsalab.cap", "_betacf_renamed", {}),
        ("gone.f", "gsalab.no_such_module", "f", {}),
    ]
    tracer = tracing.Tracer(hooks)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["gsalab.cap._betacf_renamed", "gsalab.no_such_module.f"]
    _, absent = tracing.per_layer(tracer.summary(), 1)
    assert absent == ["cap._betacf.calls", "cap._betacf.self_s", "cap._betacf.elems"]


def test_uninstall_restores_every_target():
    import gsalab.cap
    import gsalab.polytope

    before = (gsalab.cap._betacf, gsalab.polytope.HalfspacePolytope.contains_points)
    tracer = tracing.Tracer()
    tracer.install()
    assert gsalab.cap._betacf is not before[0]
    tracer.uninstall()
    assert (gsalab.cap._betacf, gsalab.polytope.HalfspacePolytope.contains_points) == before


@pytest.mark.parametrize("name", workloads.NAMES)
def test_op_stream_depends_only_on_seed(name):
    def first(seed, count):
        stream = workloads.ops(name, seed)
        return [next(stream) for _ in range(count)]

    assert first(SEED, 5) == first(SEED, 5)
    assert first(SEED, 5) != first(SEED + 1, 5)
    if name == "scan":
        cells = first(SEED, 300)
        assert len({tuple(c) for c in cells}) == len(cells)


def test_tail_keeps_ten_ops_beyond():
    assert run.tail([float(i) for i in range(40)]) == (29.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [w["why"] for w in spec["workloads"]] == [workloads.WHY[n] for n in workloads.NAMES]
    assert [m["name"] for m in spec["per_layer"]] == (
        [m[0] for m in tracing.PER_LAYER] + ["trace_overhead_frac"])
    assert [m["unit"] for m in spec["per_layer"]][:-1] == [m[1] for m in tracing.PER_LAYER]


def _bench(cwd, *args, trace):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "scan", "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_contract_line(trace):
    done = _bench(ROOT, trace=trace)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in last["metrics"].items()}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench(tmp_path, trace=0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

"""gsalab benchmark: one workload, timed end to end or traced layer by layer.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload scan|influence|gsa --seed N
                              --seconds T --trace 0|1

--trace 0 runs the workload in its own process for T seconds as a closed
loop of in-process CLI calls, times set-up in fresh interpreters before and
after it, and reports the end-to-end metrics.  --trace 1 runs the same op stream with
every layer hook installed for T/2 seconds, replays exactly those ops
untraced in a fresh process to price the tracing, and reports the per-layer
metrics.  Either way each op's JSON report is checked against an
independent oracle after the timed loop.  The full result, with every op's
argv, digest and any failure, goes to .bench_out/<workload>-seed<N>-trace<t>.json;
the last line of standard output is the summary the caller parses.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

import report
import tracing
import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
# Every run must end within this many seconds of starting.
BUDGET_S = 170.0
# Time kept back after the workload for oracles and reporting.
RESERVE_S = 20.0
# Set-up is timed this many times before the workload and as many after it,
# so its median spans the run rather than one moment of the machine's speed.
SETUP_RUNS = 5
SETUP_CODE = "import gsalab.cli; gsalab.cli.build_parser()"
# One BLAS thread: with one op outstanding the figures then do not depend on
# how many of the machine's cores happen to be free.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def timed_child(cmd, env, deadline, **popen) -> float:
    """Wall time of a child process, killed if it outlives the deadline.

    A blocking wait with a watchdog thread, because a wait with a timeout
    polls the child and would round every time up to its polling interval.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=env, **popen)
    watchdog = threading.Timer(max(1.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def measure_setup(env, deadline, warm_up=False) -> list[float]:
    """Wall time of fresh interpreters importing gsalab and building the parser.

    With warm_up, one unmeasured run first fills the bytecode cache, as any
    installed copy has.
    """
    cmd = [sys.executable, "-c", SETUP_CODE]
    if warm_up:
        timed_child(cmd, env, deadline)
    return [timed_child(cmd, env, deadline) for _ in range(SETUP_RUNS)]


def run_worker(args, trace, seconds, tag, env, deadline, replay=None) -> dict:
    out = OUT / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--out", str(out)]
    if replay is not None:
        (out / "replay.json").write_text(json.dumps(replay))
        cmd += ["--replay", str(out / "replay.json")]
    timed_child(cmd, env, deadline, stdout=subprocess.DEVNULL)
    return json.loads((out / "worker.json").read_text())


def verify(workload, ops) -> None:
    """Annotate each op with its digest and the problems the oracle found."""
    for op in ops:
        if op["error"] is not None:
            problems = [f"raised: {op['error'].strip().splitlines()[-1]}"]
        elif op["exit_code"] != 0:
            problems = [f"exit code {op['exit_code']}: {op['stderr'].strip()}"]
        else:
            try:
                problems = workloads.check(workload, op["argv"], op["doc"])
            except Exception:  # an oracle crash fails the op and keeps the run going
                problems = [f"oracle raised: {traceback.format_exc().strip().splitlines()[-1]}"]
        op["digest"] = workloads.digest(op["doc"])
        op["problems"] = problems


def tail(latencies):
    """Highest percentile with at least ten ops beyond it: (value, percentile, beyond)."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, 0
    return ordered[count - 11], 100.0 * (count - 10) / count, 10


def end_to_end(setup_times, worker) -> tuple[dict, dict]:
    """Latency and throughput over every op that returned, failed or not.

    Failures are counted on their own; leaving their latencies out would
    shift the op mix, since the ops that fail are not a random sample.
    """
    latencies = [op["latency_s"] for op in worker["ops"]]
    tail_s, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "ops_per_s": {"value": len(latencies) / worker["wall_s"], "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "op_tail_s": {"value": tail_s, "unit": "s"},
        "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
    }
    detail = {"setup_runs_s": setup_times, "tail_percentile": pct, "ops_beyond_tail": beyond,
              "wall_s": worker["wall_s"]}
    return metrics, detail


def layer_stats(summary, ops, mean_latency) -> dict:
    """Per span name: calls, self and total seconds per op, and share of op time."""
    return {name: {"calls": summary["calls"][name] / ops,
                   "self_s": summary["self_s"][name] / ops,
                   "total_s": summary["total_s"].get(name, 0.0) / ops,
                   "share": summary["self_s"][name] / ops / mean_latency}
            for name in summary["calls"]}


def traced(args, env, deadline) -> tuple[dict, dict, dict]:
    worker = run_worker(args, 1, args.seconds / 2.0, f"{args.workload}-trace", env,
                        deadline - RESERVE_S)
    argvs = [op["argv"] for op in worker["ops"]]
    plain = run_worker(args, 0, 0.0, f"{args.workload}-replay", env,
                       deadline - RESERVE_S, replay=argvs)
    verify(args.workload, worker["ops"])
    for op, again in zip(worker["ops"], plain["ops"]):
        again_digest = workloads.digest(again["doc"])
        if op["digest"] != again_digest:
            op["problems"].append(f"traced digest {op['digest']} but untraced {again_digest}")
    ops = len(worker["ops"])
    traced_s = sum(op["latency_s"] for op in worker["ops"])
    plain_s = sum(op["latency_s"] for op in plain["ops"])
    summary = worker["trace"]
    metrics, absent = tracing.per_layer(summary, ops)
    metrics["trace_overhead_frac"] = {"value": traced_s / plain_s - 1.0, "unit": "1"}
    detail = {"absent_metrics": absent, "absent_hooks": summary["absent_hooks"],
              "layers": layer_stats(summary, ops, traced_s / ops),
              "traced_op_s": traced_s, "untraced_op_s": plain_s,
              "spans_file": str((OUT / f"{args.workload}-trace" / "spans.npz").relative_to(ROOT))}
    return metrics, detail, worker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or not (0.0 < args.seconds <= 60.0):
        parser.error("need --seed >= 0 and 0 < --seconds <= 60")
    if not (ROOT / "src" / "gsalab" / "cli.py").is_file():
        print(f"error: no gsalab sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    deadline = perf_counter() + BUDGET_S
    env = child_env()
    if args.trace:
        metrics, detail, worker = traced(args, env, deadline)
    else:
        setup_times = measure_setup(env, deadline, warm_up=True)
        worker = run_worker(args, 0, args.seconds, f"{args.workload}-run", env,
                            deadline - RESERVE_S)
        setup_times += measure_setup(env, deadline)
        verify(args.workload, worker["ops"])
        metrics, detail = end_to_end(setup_times, worker)
    ops = worker["ops"]
    failed = [op for op in ops if op["problems"]]
    for op in ops:
        op.pop("doc")
        if not op["problems"]:
            op.pop("stderr")
            op.pop("error")
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": workloads.WHY[args.workload],
        "environment": {
            "gsalab": worker["gsalab_version"], "numpy": worker["numpy_version"],
            "python": platform.python_version(), "machine": platform.machine(),
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "seed": args.seed, "commit": git_commit(),
        },
        "attempted": len(ops), "failed": len(failed),
        "failed_frac": len(failed) / len(ops),
        "metrics": metrics, **detail, "ops": ops,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    print(report.describe(result))
    print(f"result: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

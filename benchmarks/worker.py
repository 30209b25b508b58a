"""One workload as a closed loop of in-process `gsalab.cli.main` calls.

One client, one op outstanding: the next op starts when the previous one has
returned.  Each op writes its report with `--json` to its own file; the files
are read back after the loop, so the timed interval holds nothing but CLI
calls.  With --trace 1 every hook of tracing.HOOKS is installed first and the
spans are saved at exit.  With --replay the loop runs exactly the argvs of an
earlier run instead of drawing new ones for a fixed time.

Usage: PYTHONPATH=src python3 benchmarks/worker.py --workload W --seed N --seconds T
           --trace 0|1 --out DIR [--replay ARGV_JSON]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads


def _heap_trimmer():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return lambda pad: 0


_malloc_trim = _heap_trimmer()


def release_heap():
    """Hand freed heap pages back to the OS between ops.

    Each CLI invocation normally starts in a fresh process with a compact heap;
    trimming between in-process ops keeps the peak RSS of the loop close to that
    of its largest op instead of depending on how earlier ops fragmented the heap.
    """
    _malloc_trim(0)


def run_loop(workload, seed, seconds, out_dir: Path, tracer=None, replay=None):
    from gsalab import cli

    argvs = iter(replay) if replay is not None else workloads.ops(workload, seed)
    ops = []
    sink = open(os.devnull, "w")
    start = perf_counter()
    try:
        for op_id, argv in enumerate(argvs):
            if replay is None and ops and perf_counter() - start >= seconds:
                break
            report = out_dir / f"op-{op_id}.json"
            err = io.StringIO()
            error = None
            if tracer is not None:
                tracer.op_id = op_id
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                    code = cli.main(argv + ["--json", str(report)])
            except Exception:  # an escaped exception is a failed op, not a crashed run
                code = None
                error = traceback.format_exc()
            latency = perf_counter() - t0
            release_heap()
            ops.append({"argv": argv, "latency_s": latency, "exit_code": code,
                        "stderr": err.getvalue(), "error": error, "report": report})
    finally:
        sink.close()
    wall = perf_counter() - start
    for op in ops:
        report = op.pop("report")
        try:
            op["doc"] = json.loads(report.read_text())
        except (OSError, ValueError):
            op["doc"] = None
        report.unlink(missing_ok=True)
    return ops, wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--replay", type=Path)
    args = parser.parse_args(argv)

    import gsalab
    import numpy

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    replay = json.loads(args.replay.read_text()) if args.replay else None
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        ops, wall = run_loop(args.workload, args.seed, args.seconds, args.out,
                             tracer=tracer, replay=replay)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "ops": ops,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gsalab_version": gsalab.__version__,
        "numpy_version": numpy.__version__,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.save_spans(args.out / "spans.npz")
    (args.out / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

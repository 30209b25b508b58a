"""Readable views of benchmark result files.

    python3 benchmarks/report.py table RESULT.json...
        per-layer table of traced results: calls, self seconds and share of
        op time per op, sorted by self time
    python3 benchmarks/report.py diff PARENT.json CHANGE.json
        metrics side by side, where per-layer self time moved, and whether
        the per-op digests of the ops both runs made agree
"""

from __future__ import annotations

import argparse
import json
import sys


def describe(result: dict) -> str:
    """Summary printed by run.py: environment, every metric, every failed op."""
    lines = [f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
             f"{result['attempted']} ops attempted, {result['failed']} failed "
             f"(failed_frac {result['failed_frac']:.6g})",
             "environment: " + json.dumps(result["environment"], sort_keys=True)]
    for name, metric in result["metrics"].items():
        line = f"{name} {metric['value']!r} {metric['unit']}"
        if name == "op_tail_s":
            line += (f" (p{result['tail_percentile']:.1f}: {result['ops_beyond_tail']} of "
                     f"{result['attempted']} ops beyond it)")
        if name == "setup_s":
            line += f" (median of {len(result['setup_runs_s'])} fresh interpreters)"
        lines.append(line)
    if result.get("absent_metrics"):
        lines.append("absent (hook target gone): " + ", ".join(result["absent_metrics"]))
    if "layers" in result:
        lines.append(layer_table(result))
    for index, op in enumerate(result["ops"]):
        if op["problems"]:
            lines.append(f"FAILED op {index} exit {op['exit_code']}: {' '.join(op['argv'])}: "
                         + "; ".join(op["problems"]))
    return "\n".join(lines)


def layer_table(result: dict) -> str:
    rows = sorted(result["layers"].items(), key=lambda item: -item[1]["self_s"])
    lines = [f"{result['workload']}: per op, {len(result['ops'])} traced ops",
             f"{'span':44} {'calls':>12} {'self_s':>12} {'share':>7}"]
    for name, stat in rows:
        lines.append(f"{name:44} {stat['calls']:12.1f} {stat['self_s']:12.6f} "
                     f"{100.0 * stat['share']:6.2f}%")
    return "\n".join(lines)


def _change(old, new) -> str:
    if old == 0.0:
        return "new" if new else "="
    return f"{100.0 * (new - old) / old:+.1f}%"


def diff(parent: dict, change: dict) -> str:
    lines = [f"{parent['workload']} (trace {parent['trace']}): parent commit "
             f"{parent['environment']['commit']} vs change {change['environment']['commit']}",
             f"{'metric':44} {'parent':>14} {'change':>14} {'change %':>9}"]
    for name, metric in parent["metrics"].items():
        if name in change["metrics"]:
            old, new = metric["value"], change["metrics"][name]["value"]
            lines.append(f"{name:44} {old:14.6g} {new:14.6g} {_change(old, new):>9}")
    if "layers" in parent and "layers" in change:
        lines.append(f"{'span self_s per op':44} {'parent':>14} {'change':>14} {'change %':>9}")
        names = set(parent["layers"]) | set(change["layers"])
        zero = {"self_s": 0.0}
        moved = sorted(names, key=lambda n: -abs(change["layers"].get(n, zero)["self_s"]
                                                 - parent["layers"].get(n, zero)["self_s"]))
        for name in moved:
            old = parent["layers"].get(name, zero)["self_s"]
            new = change["layers"].get(name, zero)["self_s"]
            lines.append(f"{name:44} {old:14.6g} {new:14.6g} {_change(old, new):>9}")
    pairs = list(zip(parent["ops"], change["ops"]))
    same_argv = [(a, b) for a, b in pairs if a["argv"] == b["argv"]]
    differ = [i for i, (a, b) in enumerate(same_argv) if a["digest"] != b["digest"]]
    lines.append(f"digests: {len(same_argv) - len(differ)} of {len(same_argv)} shared ops "
                 f"identical" + (f"; differ at ops {differ}" if differ else ""))
    return "\n".join(lines)


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("table", help="per-layer table of traced results")
    p.add_argument("results", nargs="+")
    p = sub.add_parser("diff", help="compare a parent result with a change result")
    p.add_argument("parent")
    p.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "table":
        for path in args.results:
            result = _load(path)
            if "layers" not in result:
                print(f"{path}: not a traced result (run with --trace 1)", file=sys.stderr)
                return 1
            print(layer_table(result))
    else:
        print(diff(_load(args.parent), _load(args.change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

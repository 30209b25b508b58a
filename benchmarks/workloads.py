"""Workload definitions: the argv stream of each workload and its output oracle.

Every op is one `gsalab` CLI invocation.  Its argv is a pure function of the
workload seed and the op index, so two runs with one seed issue the same ops
in the same order and differ only in how many fit into the measured time.

Parameters are drawn from a randomly shifted additive recurrence (the R_d
low-discrepancy sequence) instead of plain pseudo-random draws, and every
point u is followed by its mirror 1 - u.  Any prefix of the op stream then
covers the documented parameter box evenly, and because sizes are drawn
log-uniformly, an op's log cost is close to linear in u, so each mirrored
pair straddles the centre of the cost distribution.  The cost mix of a run,
and with it every latency and throughput figure, then barely depends on the
seed even when only a couple of dozen expensive ops fit into a run.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

NAMES = ("scan", "influence", "gsa")

# Reason each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "scan": "radial quadrature plus shell lower-bound chain, no Monte Carlo: "
            "where vectorising the chain must show and one-pass Monte Carlo must not",
    "influence": "n+2 Monte Carlo passes over one long chunked point stream with few facets: "
                 "where one-pass Hermite estimation must show and the chain work must not",
    "gsa": "hundreds of short per-facet Philox streams and one moment pass: "
           "stream set-up cost shows here against influence",
}

# Relative agreement required between the node-doubling quadrature and the
# adaptive route, and between the two shared-stream influence estimators.
QUAD_REL_TOL = 1e-8
SHARED_STREAM_REL_TOL = 1e-9
# Independent Monte Carlo estimates must agree within this many combined
# standard errors.
MC_SIGMAS = 4.0


def _recurrence(dim: int):
    """Step vector of the R_d sequence: powers of 1/phi_d, x^(d+1) = x + 1."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    return [phi ** -(j + 1) for j in range(dim)]


def _points(dim: int, rnd: random.Random):
    step = _recurrence(dim)
    shift = [rnd.random() for _ in range(dim)]
    k = 0
    while True:
        k += 1
        u = [(s + k * a) % 1.0 for s, a in zip(shift, step)]
        yield u
        yield [1.0 - v for v in u]


def _log_int_between(u: float, lo: int, hi: int) -> int:
    """Integer log-uniform on [lo, hi]."""
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def _scan_ops(rnd):
    seen = set()
    for u in _points(2, rnd):
        n = _log_int_between(u[0], 64, 65536)
        alpha = f"{0.75 + 0.75 * u[1]:.6f}"
        if (n, alpha) in seen:
            continue
        seen.add((n, alpha))
        yield ["scan", "--n", str(n), "--alpha", alpha]


def _influence_ops(rnd):
    for u in _points(4, rnd):
        yield ["influence", "--body", "naz",
               "--n", str(_log_int_between(u[0], 16, 64)),
               "--s", str(_log_int_between(u[1], 8, 64)),
               "--r", f"{1.0 + u[2]:.6f}",
               "--samples", str(_log_int_between(u[3], 2048, 6144)),
               "--seed", str(rnd.getrandbits(31))]


def _gsa_ops(rnd):
    # The facet offset follows the paper's scaling r = alpha * n^(1/4), alpha in
    # [0.75, 1.5] as in scan.  With r in [1, 2] instead, about a third of these
    # bodies are too thin for 4096 influence samples to see any point of them,
    # and the cross-check then has nothing to compare.
    for u in _points(4, rnd):
        n = _log_int_between(u[0], 16, 64)
        yield ["gsa",
               "--n", str(n),
               "--r", f"{(0.75 + 0.75 * u[1]) * n**0.25:.6f}",
               "--s", str(_log_int_between(u[2], 100, 400)),
               "--samples-per-facet", str(_log_int_between(u[3], 500, 2000)),
               "--samples", "4096",
               "--seed", str(rnd.getrandbits(31))]


_GENERATORS = {"scan": _scan_ops, "influence": _influence_ops, "gsa": _gsa_ops}


def ops(workload: str, seed: int):
    """Endless argv stream of a workload; the same seed gives the same stream."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    return _GENERATORS[workload](random.Random(seed))


def digest(doc) -> str | None:
    """Short hash of a report's rows, compared run against run and commit against commit."""
    if doc is None:
        return None
    text = json.dumps(doc.get("rows"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _by_name(doc):
    return {row["name"]: row for row in doc["rows"]}


def _check_scan(argv, doc, problems):
    from gsalab import bounds, radial

    (row,) = doc["rows"]
    n = int(argv[argv.index("--n") + 1])
    alpha = float(argv[argv.index("--alpha") + 1])
    # The report derives alpha back from r, so it may differ in the last bits.
    if row["n"] != n or not math.isclose(row["alpha"], alpha, rel_tol=1e-12):
        problems.append(f"row is for (n={row['n']}, alpha={row['alpha']})")
        return
    spec = radial.QuadratureSpec.for_dimension(n, rule="adaptive")
    oracle = radial.expected_gsa(n, row["r"], float(row["s"]), spec)
    got = row["expected_gsa"]
    if not abs(got - oracle) <= QUAD_REL_TOL * abs(oracle):
        problems.append(f"expected_gsa {got!r} vs adaptive quadrature {oracle!r}")
    if not row["gsa_lower"] <= got:
        problems.append(f"gsa_lower {row['gsa_lower']!r} above expected_gsa {got!r}")
    ceiling = bounds.raic_upper(n) / n**0.25
    if not 0.0 < row["ratio_to_n14"] <= ceiling:
        problems.append(f"ratio_to_n14 {row['ratio_to_n14']!r} outside (0, {ceiling!r}]")


def _check_influence(argv, doc, problems):
    rows = _by_name(doc)
    moment = rows["influence-moment-mc"]["value"]
    hermite = rows["influence-hermite-mc"]["value"]
    if not abs(moment - hermite) <= SHARED_STREAM_REL_TOL * abs(moment):
        problems.append(f"moment {moment!r} vs Hermite {hermite!r} on one stream")
    volume = rows["gaussian-volume-mc"]["value"]
    if not 0.0 <= volume <= 1.0:
        problems.append(f"Gaussian volume {volume!r} outside [0, 1]")


def _check_gsa(argv, doc, problems):
    rows = _by_name(doc)
    facet = rows["gsa-facet-mc"]
    ratio = rows["influence-over-inradius"]
    gap = abs(facet["value"] - ratio["value"])
    allowed = MC_SIGMAS * math.hypot(facet["stderr"], ratio["stderr"])
    if not gap <= allowed:
        problems.append(f"facet GSA {facet['value']!r} vs influence/r {ratio['value']!r}: "
                        f"gap {gap!r} beyond {MC_SIGMAS} combined standard errors")


_CHECKS = {"scan": _check_scan, "influence": _check_influence, "gsa": _check_gsa}


def check(workload: str, argv, doc) -> list[str]:
    """Problems found in one op's JSON report; an empty list means it passed."""
    if doc is None:
        return ["no readable JSON report"]
    problems = []
    try:
        if doc.get("command") != workload:
            problems.append(f"report is for command {doc.get('command')!r}")
        for row in doc["rows"]:
            for key, value in row.items():
                if isinstance(value, float) and not math.isfinite(value):
                    problems.append(f"non-finite {key}: {value!r}")
        if not problems:
            _CHECKS[workload](argv, doc, problems)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems

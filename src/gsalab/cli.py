"""Command-line front end: one subcommand per computation, reproducible output.

Every Monte Carlo run records its seed; a deterministic one records null.
A run emits either human-readable lines, a JSON document (one object per
run with a `rows` array, validating against schemas/report.schema.json), or
RFC-4180 CSV.  Exit codes: 0 success, 1 validation error or a value outside
the double range (ArithmeticError), 2 numerical non-convergence, 3 invariant
violation found by selftest.  On exit code 2 the JSON document has no rows
and an `error` object instead, and the same params a success records.
Every JSON document is strict: a non-finite number is written as null, and
in CSV as an empty cell.  The Monte Carlo commands (`influence`, `gsa`) run
fastest with OPENBLAS_NUM_THREADS=1 in the environment.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time

import numpy as np

from . import bounds, cap, estimators, hermite, polytope, radial, specfun
from .quadrature import QuadratureConvergenceError, composite_nodes

SCHEMA_VERSION = 3


def _row(name, value, stderr=None, samples=None, seed=None):
    """A measurement row; a Monte Carlo Estimate e enters as _row(name, **vars(e))."""
    return {"name": name, "value": float(value), "stderr": stderr,
            "samples": samples, "seed": seed}


def _emit(args, params, rows, error=None, echo=True):
    """Write a run's report: the JSON document, the CSV and the echoed rows.

    The CSV header is the rows' keys in order, then schema_version.  A
    convergence failure (exit code 2) passes its exception as `error`: the
    JSON document has no rows and an `error` object with the message and,
    for a QuadratureConvergenceError, the node ladder as [nodes, value]
    pairs; the file at the CSV path is left empty, so it holds no rows of
    an earlier run.
    """
    doc = {
        "command": args.command,
        "schema_version": SCHEMA_VERSION,
        "seed": params.get("seed"),
        "params": params,
        "rows": rows,
    }
    if error is not None:
        ladder = [[nodes, float(value)] for nodes, value in getattr(error, "history", [])]
        doc["error"] = {"message": str(error), "history": ladder}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(_finite_or_none(doc), fh, sort_keys=True, indent=2, allow_nan=False)
            fh.write("\n")
    if args.csv and error is not None:
        open(args.csv, "w", encoding="utf-8").close()
    elif args.csv:
        columns = [*dict.fromkeys(key for row in rows for key in row), "schema_version"]
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns, quoting=csv.QUOTE_MINIMAL)
            writer.writeheader()
            for row in rows:
                writer.writerow({**_finite_or_none(row), "schema_version": SCHEMA_VERSION})
    if not echo:
        return
    for row in rows:
        if "name" in row:
            line = f"{row['name']}: {row['value']!r}"
            if row.get("stderr") is not None:
                line += f" +- {row['stderr']!r}"
            if row.get("seed") is not None:
                line += f" (samples={row['samples']}, seed={row['seed']})"
        else:
            line = ("n={n} alpha={alpha} s={s:.6g} ratio_to_n14={ratio_to_n14:.8f} "
                    "expected_gsa={expected_gsa:.8g}").format(**row)
        print(line)


def _finite_or_none(value):
    """value with every non-finite float in it, nested lists and dicts too, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_none(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(item) for item in value]
    return value


def _svg_chart(path, reports):
    """Static line chart of normalized curves against n (log scale)."""
    ns = sorted({rep.n for rep in reports})
    series = {
        "construction": [max(rep.ratio_to_n14 for rep in reports if rep.n == n) for n in ns],
        "upper-raic": [bounds.raic_upper(n) / n**0.25 for n in ns],
        "upper-ball": [bounds.ball_upper(n) / n**0.25 for n in ns],
        "jensen-lower-bound": [max(rep.gsa_lower for rep in reports if rep.n == n) / n**0.25
                               for n in ns],
        "jensen-limit-e^(-5/4)": [bounds.nazarov_lower(n) / n**0.25 for n in ns],
    }
    width, height, pad = 640, 400, 50
    xs = [math.log(n) for n in ns]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo = 0.0
    y_hi = max(max(v) for v in series.values()) * 1.1
    colors = {"construction": "#d62728", "upper-raic": "#1f77b4",
              "upper-ball": "#7f7f7f", "jensen-lower-bound": "#2ca02c",
              "jensen-limit-e^(-5/4)": "#9467bd"}

    def px(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{width//2}" y="{height-12}" text-anchor="middle" font-size="12">n (log scale)</text>',
        f'<text x="14" y="{height//2}" font-size="12" transform="rotate(-90 14 {height//2})" text-anchor="middle">GSA / n^(1/4)</text>',
    ]
    for i, n in enumerate(ns):
        parts.append(f'<text x="{px(xs[i])}" y="{height-pad+16}" text-anchor="middle" '
                     f'font-size="10">{n}</text>')
    for label, values in series.items():
        points = " ".join(f"{px(x):.1f},{py(v):.1f}" for x, v in zip(xs, values))
        parts.append(f'<polyline fill="none" stroke="{colors[label]}" stroke-width="1.5" '
                     f'points="{points}"/>')
    for k, (label, _) in enumerate(series.items()):
        y = pad + 14 * k
        parts.append(f'<rect x="{width-pad-150}" y="{y-8}" width="10" height="3" '
                     f'fill="{colors[label]}"/>')
        parts.append(f'<text x="{width-pad-135}" y="{y-3}" font-size="10">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _cap_params(args):
    return {"n": args.n, "norm": args.norm, "r": args.r}


def _cmd_cap(args, params):
    query = cap.CapQuery(n=args.n, norm_x=args.norm, r=args.r)
    rows = [_row("cap-probability", cap.cap_probability(query))]
    if 0.0 < args.r < args.norm:
        rows.append(_row("cap-log-complement", cap.cap_log_complement(query)))
    if args.n >= 4 and 0.0 < args.r <= args.norm:
        rows.append(_row("cap-complement-upper-bound", cap.cap_complement_upper_G(query)))
    _emit(args, params, rows)


def _make_body(args):
    if args.body == "ball":
        return polytope.Ball(n=args.n, radius=args.radius)
    variant = polytope.UNIT_SPHERE if args.body == "naz" else polytope.GAUSSIAN
    params = polytope.NazParams(n=args.n, offset=args.r, s=args.s, variant=variant)
    return polytope.sample_naz(params, args.seed)


def _influence_params(args):
    # a ball reads only its radius, a polytope only its facet offset and count
    shape = {"radius": args.radius} if args.body == "ball" else {"r": args.r, "s": args.s}
    return {"n": args.n, "body": args.body, **shape, "samples": args.samples, "seed": args.seed}


def _cmd_influence(args, params):
    body = _make_body(args)
    spectral = estimators.estimate_influence_spectral(body, args.samples, args.seed)
    coeffs = estimators.estimate_hermite_coefficients(body, args.samples, args.seed)
    combined = estimators.influence_from_hermite_estimates(coeffs)
    volume = estimators.estimate_volume(body, args.samples, args.seed)
    rows = [
        _row("influence-moment-mc", **vars(spectral)),
        _row("influence-hermite-mc", **vars(combined)),
        _row("gaussian-volume-mc", **vars(volume)),
        _row("surface-upper-variance",
             bounds.final_var_upper(args.n, volume.value, body.inradius())),
        _row("surface-upper-deg2",
             bounds.final_deg2_upper(args.n, [c.value for c in coeffs], body.inradius())),
    ]
    _emit(args, params, rows)


def _gsa_params(args):
    return {"n": args.n, "r": args.r, "s": args.s,
            "samples_per_facet": args.samples_per_facet,
            "samples": args.samples, "seed": args.seed}


def _cmd_gsa(args, params):
    params_obj = polytope.NazParams(n=args.n, offset=args.r, s=args.s)
    K = polytope.sample_naz(params_obj, args.seed)
    surface = estimators.estimate_gsa_facets(K, args.samples_per_facet, args.seed)
    influence = estimators.estimate_influence_spectral(K, args.samples, args.seed + 1)
    rows = [
        _row("gsa-facet-mc", **vars(surface)),
        _row("influence-moment-mc", **vars(influence)),
        _row("influence-over-inradius", bounds.over_inradius(influence.value, K.inradius()),
             stderr=bounds.over_inradius(influence.stderr, K.inradius()),
             samples=influence.samples, seed=influence.seed),
    ]
    _emit(args, params, rows)


def _quad_params(args):
    r = args.r if args.r is not None else args.alpha * args.n**0.25
    return {"n": args.n, "r": r, "alpha": r / args.n**0.25, "s": args.s}


def _cmd_quad(args, params):
    r = params["r"]
    influence = radial.expected_influence_quadrature(args.n, r, float(args.s))
    rows = [
        _row("expected-influence-quadrature", influence),
        _row("expected-gsa-quadrature", influence / r),
        _row("upper-raic", bounds.raic_upper(args.n)),
        _row("upper-ball", bounds.ball_upper(args.n)),
        _row("limit-reference-curve", bounds.nazarov_lower(args.n)),
    ]
    _emit(args, params, rows)


def _optimize_params(args):
    return {"n": args.n, "r": args.r if args.r is not None else args.n**0.25}


def _cmd_optimize(args, params):
    r = params["r"]
    s_star = radial.optimize_s(args.n, r)
    chain = radial.lower_bound_chain(args.n, r, float(s_star))
    gsa = chain.exact_quadrature / r
    rows = [
        _row("limit-constant", bounds.E_M54),
        _row("facet-count-rule", max(1, round(chain.s_jensen))),
        _row("facet-count-optimal", s_star),
        _row("expected-gsa-at-optimal-s", gsa),
        _row("ratio-to-n14", gsa / args.n**0.25),
    ]
    _emit(args, params, rows)


def _scan_params(args):
    return {"n": [int(v) for v in args.n.split(",")],
            "alpha": [float(v) for v in args.alpha.split(",")]}


def _cmd_scan(args, params):
    reports = radial.scan_report(params["n"], params["alpha"])
    rows = []
    for rep in reports:
        rows.append({
            "n": rep.n, "alpha": rep.alpha, "r": rep.r, "s": rep.s,
            "exact_influence": rep.exact_quadrature,
            "expected_gsa": rep.exact_quadrature / rep.r,
            "chain_value": rep.chain_value,
            "gsa_lower": rep.gsa_lower,
            "s_jensen": rep.s_jensen,
            "ratio_to_n14": rep.ratio_to_n14,
            "raic_upper": bounds.raic_upper(rep.n),
            "ball_upper": bounds.ball_upper(rep.n),
            "nazarov_lower": bounds.nazarov_lower(rep.n),
        })
    _emit(args, params, rows)
    if args.svg:
        _svg_chart(args.svg, reports)


def _selftest_checks():
    rng = np.random.default_rng(20240809)

    def cap_routes():
        # the angle form tau_n * integral_{-pi/2}^{asin u} cos^(n-2) theta,
        # smooth for every n >= 2, against the incomplete-beta route
        for _ in range(60):
            n = int(rng.integers(2, 260))
            norm = float(rng.uniform(0.1, 3.0) * math.sqrt(n))
            r = float(rng.uniform(0.0, 1.2) * norm)
            q = cap.CapQuery(n=n, norm_x=norm, r=r)
            a = cap.cap_probability(q)
            theta, w = composite_nodes(-math.pi / 2.0, math.asin(min(r / norm, 1.0)), 1024)
            b = math.exp(specfun.log_tau_n(n)) * float(np.dot(w, np.cos(theta) ** (n - 2)))
            assert abs(a - b) <= 1e-10, f"route disagreement at {q}: {a} vs {b}"

    def cap_closed_forms():
        q = cap.CapQuery(3, 2.0, 1.0)
        assert abs(cap.cap_probability(q) - 0.75) <= 1e-12
        q = cap.CapQuery(2, 1.0, 1.0 / math.sqrt(2.0))
        assert abs(cap.cap_probability(q) - 0.75) <= 1e-12

    def tau_identities():
        for n in range(4, 101):
            lhs = specfun.log_tau_n(n) + specfun.log_tau_n(n - 1)
            rhs = math.log((n - 2) / (2.0 * math.pi))
            assert abs(lhs - rhs) <= 1e-10, f"tau recurrence broken at n={n}"
        for n in np.unique(np.logspace(math.log10(2), 6, 40).astype(int)):
            assert math.exp(specfun.log_tau_n(int(n))) <= math.sqrt(n / (2.0 * math.pi)), n

    def chi_normalization():
        for n in (2, 64):
            grid = np.linspace(1e-9, math.sqrt(n) + 12.0, 400001)
            total = np.trapezoid(np.exp(specfun.chi_log_density(n, grid)), grid)
            assert abs(total - 1.0) <= 1e-8, f"chi density off at n={n}: {total}"

    def single_halfspace_identity():
        for n, r in ((16, 2.0), (64, 1.5)):
            got = radial.expected_influence_quadrature(n, r, 1.0)
            want = r * specfun.gaussian_pdf(r)
            assert abs(got - want) <= 1e-10 * want, f"halfspace identity off at n={n}"

    def h2_bridge():
        points = rng.standard_normal((64, 16))
        lhs = -math.sqrt(2.0) * hermite.h2(points).sum(axis=1)
        rhs = 16 - (points**2).sum(axis=1)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def chain_dominance():
        for n, r, s in ((64, 64**0.25, 200.0),
                        (256, 4.0, float(radial.optimize_s(256, 4.0)))):
            rep = radial.lower_bound_chain(n, r, s)
            assert rep.chain_value <= rep.exact_quadrature + 1e-10

    def polytope_invariants():
        params = polytope.NazParams(n=8, offset=1.5, s=12)
        K = polytope.sample_naz(params, seed=11)
        assert K.contains_points(np.zeros((1, 8)))[0]
        assert abs(K.inradius() - 1.5) < 1e-12

    return [
        ("cap-route-agreement", cap_routes),
        ("cap-closed-forms", cap_closed_forms),
        ("tau-identities", tau_identities),
        ("chi-normalization", chi_normalization),
        ("single-halfspace-identity", single_halfspace_identity),
        ("h2-bridge-identity", h2_bridge),
        ("chain-dominance", chain_dominance),
        ("polytope-invariants", polytope_invariants),
    ]


def _cmd_selftest(args, params):
    rows = []
    failures = 0
    for name, check in _selftest_checks():
        start = time.perf_counter()
        try:
            check()
        except AssertionError as exc:
            print(f"FAIL {name}: {exc}")
            failures += 1
            value = 0.0
        else:
            print(f"PASS {name}")
            value = 1.0
        rows.append({"name": name, "value": value, "seconds": time.perf_counter() - start})
    _emit(args, params, rows, echo=False)
    if failures:
        print(f"{failures} invariant check(s) failed")
        return 3
    print("all invariant checks passed")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gsalab",
        description="Numerical laboratory for Gaussian surface area of convex bodies.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--json", metavar="PATH", help="write a JSON report document")
        p.add_argument("--csv", metavar="PATH", help="write rows as RFC-4180 CSV")

    p = sub.add_parser("cap", help="exact spherical-cap measure and bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--norm", type=float, required=True, help="||x||")
    p.add_argument("--r", type=float, required=True, help="cap offset")
    add_output(p)
    p.set_defaults(func=_cmd_cap, params=_cap_params)

    p = sub.add_parser("influence", help="Monte Carlo influence estimates for a body")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--body", choices=["naz", "naz-prime", "ball"], default="naz")
    p.add_argument("--r", type=float, default=1.0, help="facet offset for polytopes")
    p.add_argument("--s", type=int, default=16, help="facet count for polytopes")
    p.add_argument("--radius", type=float, default=1.0, help="radius for --body ball")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0, help="seed of the Monte Carlo streams")
    add_output(p)
    p.set_defaults(func=_cmd_influence, params=_influence_params)

    p = sub.add_parser("gsa", help="facet Monte Carlo surface area with influence cross-check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--samples-per-facet", type=int, default=2000)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0, help="seed of the Monte Carlo streams")
    add_output(p)
    p.set_defaults(func=_cmd_gsa, params=_gsa_params)

    p = sub.add_parser("quad", help="expected influence and surface area by quadrature")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--alpha", type=float, default=1.0, help="r = alpha * n^(1/4) when --r absent")
    p.add_argument("--s", type=float, required=True)
    add_output(p)
    p.set_defaults(func=_cmd_quad, params=_quad_params)

    p = sub.add_parser("optimize", help="tune s at dimension n and offset r (default "
                       "n^(1/4)): the s that maximizes E[GSA], the better integer "
                       "beside the root of dE/d ln s = 0, and the s that maximizes "
                       "the finite-n Jensen bound, beside e^(-5/4), the large-n "
                       "alpha = 1 value of the log-average (Jensen) bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, default=None)
    add_output(p)
    p.set_defaults(func=_cmd_optimize, params=_optimize_params)

    p = sub.add_parser("scan", help="scan dimensions and offset multipliers")
    p.add_argument("--n", required=True, help="comma-separated dimensions")
    p.add_argument("--alpha", default="1.0", help="comma-separated multipliers of n^(1/4)")
    p.add_argument("--svg", metavar="PATH", help="write a static line chart")
    add_output(p)
    p.set_defaults(func=_cmd_scan, params=_scan_params)

    p = sub.add_parser("selftest", help="run the invariant suite; each check is a row "
                       "with value 1.0 (pass) or 0.0 (fail) and its seconds")
    add_output(p)
    p.set_defaults(func=_cmd_selftest, params=lambda args: {})

    return parser


@functools.cache
def _parser():
    """The parser `main` uses, built on its first call and kept for the process.

    Building it costs about 25 times what a parse does; parsing leaves it
    unchanged, so one process's calls can share it.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        params = args.params(args)
        # a command returns None, or selftest its exit code
        return args.func(args, params) or 0
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureConvergenceError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        _emit(args, params, [], error=exc)
        return 2

if __name__ == "__main__":
    sys.exit(main())

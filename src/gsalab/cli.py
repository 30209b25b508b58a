"""Command-line front end: one subcommand per computation, reproducible output.

Every run records its seed and emits either human-readable lines, a JSON
document (one object per run with a `rows` array, validating against
schemas/report.schema.json), or RFC-4180 CSV.  Exit codes: 0 success,
1 validation error or a value outside the double range (ArithmeticError),
2 numerical non-convergence, 3 invariant violation found by selftest.  On
exit code 2 the JSON document has no rows and an `error` object instead.
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
from .quadrature import QuadratureConvergenceError

SCHEMA_VERSION = 1

SCAN_COLUMNS = [
    "n", "alpha", "r", "s", "c1", "exact_influence", "expected_gsa",
    "chain_value", "bernoulli_value", "gsa_lower", "ratio_to_n14",
    "vol_shell", "inf_F", "inf_G", "sup_G", "stitch_factor_min",
    "raic_upper", "ball_upper", "nazarov_lower", "seed", "schema_version",
]

MEASUREMENT_COLUMNS = ["name", "value", "stderr", "samples", "seed", "schema_version"]

SELFTEST_COLUMNS = ["name", "value", "seconds", "schema_version"]


def _row(name, value, stderr=None, samples=None, seed=None):
    return {"name": name, "value": float(value), "stderr": stderr,
            "samples": samples, "seed": seed}


def _emit(args, command, params, rows, columns, echo=True):
    doc = {
        "command": command,
        "schema_version": SCHEMA_VERSION,
        "seed": params.get("seed"),
        "params": params,
        "rows": rows,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns, quoting=csv.QUOTE_MINIMAL)
            writer.writeheader()
            for row in rows:
                out = {k: row.get(k) for k in columns}
                out["schema_version"] = SCHEMA_VERSION
                writer.writerow(out)
    if not echo:
        return doc
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
    return doc


def _finite_or_none(value):
    return value if not isinstance(value, float) or math.isfinite(value) else None


def _emit_failure(args, exc):
    """Write a convergence failure (exit code 2) as a strict-JSON report.

    The document has no rows; its `error` object carries the message and,
    for a QuadratureConvergenceError, the node ladder as [nodes, value]
    pairs.  Non-finite numbers are written as null.
    """
    params = {key: _finite_or_none(value) for key, value in vars(args).items()
              if key not in ("func", "command", "json", "csv")}
    ladder = [[nodes, _finite_or_none(float(value))]
              for nodes, value in getattr(exc, "history", [])]
    doc = {
        "command": args.command,
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "params": params,
        "rows": [],
        "error": {"message": str(exc), "history": ladder},
    }
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _svg_chart(path, reports):
    """Static line chart of normalized curves against n (log scale)."""
    ns = sorted({rep.n for rep in reports})
    series = {
        "construction": [max(rep.ratio_to_n14 for rep in reports if rep.n == n) for n in ns],
        "upper-raic": [bounds.raic_upper(n) / n**0.25 for n in ns],
        "upper-ball": [bounds.ball_upper(n) / n**0.25 for n in ns],
        "shell-lower-bound": [bounds.nazarov_lower(n) / n**0.25 for n in ns],
    }
    width, height, pad = 640, 400, 50
    xs = [math.log(n) for n in ns]
    x_lo, x_hi = min(xs), max(xs) or 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo = 0.0
    y_hi = max(max(v) for v in series.values()) * 1.1
    colors = {"construction": "#d62728", "upper-raic": "#1f77b4",
              "upper-ball": "#7f7f7f", "shell-lower-bound": "#2ca02c"}

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


def _cmd_cap(args):
    query = cap.CapQuery(n=args.n, norm_x=args.norm, r=args.r)
    rows = [_row("cap-probability", cap.cap_probability(query))]
    if 0.0 < args.r < args.norm:
        rows.append(_row("cap-log-complement", cap.cap_log_complement(query)))
    if args.n >= 4 and 0.0 < args.r <= args.norm:
        rows.append(_row("cap-complement-upper-bound", cap.cap_complement_upper_G(query)))
    params = {"n": args.n, "norm": args.norm, "r": args.r, "seed": args.seed}
    return _emit(args, "cap", params, rows, MEASUREMENT_COLUMNS)


def _make_body(args):
    if args.body == "ball":
        return polytope.Ball(n=args.n, radius=args.radius)
    variant = polytope.UNIT_SPHERE if args.body == "naz" else polytope.GAUSSIAN
    params = polytope.NazParams(n=args.n, offset=args.r, s=args.s, variant=variant)
    return polytope.sample_naz(params, args.seed)


def _cmd_influence(args):
    body = _make_body(args)
    spectral = estimators.estimate_influence_spectral(body, args.samples, args.seed)
    coeffs = estimators.estimate_hermite_coefficients(body, args.samples, args.seed)
    combined = estimators.influence_from_hermite_estimates(coeffs)
    volume = estimators.estimate_volume(body, args.samples, args.seed)
    rows = [
        spectral.to_row("influence-moment-mc"),
        combined.to_row("influence-hermite-mc"),
        volume.to_row("gaussian-volume-mc"),
        _row("surface-upper-variance",
             bounds.final_var_upper(args.n, min(1.0, max(0.0, volume.value)),
                                    body.inradius())),
        _row("surface-upper-deg2",
             bounds.final_deg2_upper(args.n, [c.value for c in coeffs], body.inradius())),
    ]
    params = {"n": args.n, "body": args.body, "r": args.r, "s": args.s,
              "radius": args.radius, "samples": args.samples, "seed": args.seed}
    return _emit(args, "influence", params, rows, MEASUREMENT_COLUMNS)


def _cmd_gsa(args):
    params_obj = polytope.NazParams(n=args.n, offset=args.r, s=args.s)
    K = polytope.sample_naz(params_obj, args.seed)
    surface = estimators.estimate_gsa_facets(K, args.samples_per_facet, args.seed)
    influence = estimators.estimate_influence_spectral(K, args.samples, args.seed + 1)
    rows = [
        surface.to_row("gsa-facet-mc"),
        influence.to_row("influence-moment-mc"),
        _row("influence-over-inradius", influence.value / K.inradius(),
             stderr=influence.stderr / K.inradius(), samples=influence.samples,
             seed=influence.seed),
    ]
    params = {"n": args.n, "r": args.r, "s": args.s,
              "samples_per_facet": args.samples_per_facet,
              "samples": args.samples, "seed": args.seed}
    return _emit(args, "gsa", params, rows, MEASUREMENT_COLUMNS)


def _cmd_quad(args):
    r = args.r if args.r is not None else args.alpha * args.n**0.25
    influence = radial.expected_influence_quadrature(args.n, r, float(args.s))
    rows = [
        _row("expected-influence-quadrature", influence),
        _row("expected-gsa-quadrature", influence / r),
        _row("upper-raic", bounds.raic_upper(args.n)),
        _row("upper-ball", bounds.ball_upper(args.n)),
        _row("limit-reference-curve", bounds.nazarov_lower(args.n)),
    ]
    params = {"n": args.n, "r": r, "alpha": args.alpha, "s": args.s, "seed": args.seed}
    return _emit(args, "quad", params, rows, MEASUREMENT_COLUMNS)


def _cmd_optimize(args):
    c1_star, limit_value = radial.optimal_c1()
    rows = [
        _row("optimal-c1", c1_star),
        _row("limit-constant", limit_value),
    ]
    params = {"n": args.n, "seed": args.seed}
    if args.n is not None:
        r = args.r if args.r is not None else args.n**0.25
        params["r"] = r
        s_rule = radial.choose_s(args.n, r, c1_star)
        s_star, gsa = radial.optimize_s(args.n, r)
        rows.extend([
            _row("facet-count-rule", s_rule),
            _row("facet-count-optimal", s_star),
            _row("expected-gsa-at-optimal-s", gsa),
            _row("ratio-to-n14", gsa / args.n**0.25),
        ])
    return _emit(args, "optimize", params, rows, MEASUREMENT_COLUMNS)


def _cmd_scan(args):
    n_list = [int(v) for v in args.n.split(",")]
    alpha_list = [float(v) for v in args.alpha.split(",")]
    reports = radial.scan_report(n_list, alpha_list)
    rows = []
    for rep in reports:
        rows.append({
            "n": rep.n, "alpha": rep.alpha, "r": rep.r, "s": rep.s, "c1": rep.c1,
            "exact_influence": rep.exact_quadrature,
            "expected_gsa": rep.exact_quadrature / rep.r,
            "chain_value": rep.chain_value,
            "bernoulli_value": rep.bernoulli_value,
            "gsa_lower": rep.gsa_lower,
            "ratio_to_n14": rep.ratio_to_n14,
            "vol_shell": rep.vol_shell,
            "inf_F": rep.inf_F, "inf_G": rep.inf_G, "sup_G": rep.sup_G,
            "stitch_factor_min": rep.stitch_factor_min,
            "raic_upper": bounds.raic_upper(rep.n),
            "ball_upper": bounds.ball_upper(rep.n),
            "nazarov_lower": bounds.nazarov_lower(rep.n),
            "seed": args.seed,
        })
    params = {"n": n_list, "alpha": alpha_list, "seed": args.seed}
    doc = _emit(args, "scan", params, rows, SCAN_COLUMNS)
    if args.svg:
        _svg_chart(args.svg, reports)
    return doc


def _selftest_checks():
    rng = np.random.default_rng(20240809)

    def cap_routes():
        for _ in range(60):
            n = int(rng.integers(2, 260))
            norm = float(rng.uniform(0.1, 3.0) * math.sqrt(n))
            r = float(rng.uniform(0.0, 1.2) * norm)
            q = cap.CapQuery(n=n, norm_x=norm, r=r)
            a = cap.cap_probability(q)
            b = cap.cap_probability_quadrature(q)
            assert abs(a - b) <= 1e-10, f"route disagreement at {q}: {a} vs {b}"

    def cap_closed_forms():
        q = cap.CapQuery(3, 2.0, 1.0)
        assert abs(cap.cap_probability(q) - 0.75) <= 1e-12
        q = cap.CapQuery(2, 1.0, 1.0 / math.sqrt(2.0))
        assert abs(cap.cap_probability(q) - 0.75) <= 1e-12

    def mills_grid():
        for t in np.arange(1.0, 8.05, 0.1):
            sandwich = specfun.mills_sandwich(float(t))
            tail = specfun.gaussian_tail(float(t))
            assert sandwich.lower <= tail <= sandwich.upper, f"sandwich broken at t={t}"

    def tau_identities():
        for n in range(4, 101):
            lhs = specfun.log_tau_n(n) + specfun.log_tau_n(n - 1)
            rhs = math.log((n - 2) / (2.0 * math.pi))
            assert abs(lhs - rhs) <= 1e-10, f"tau recurrence broken at n={n}"
        for n in np.unique(np.logspace(math.log10(2), 6, 40).astype(int)):
            assert specfun.tau_n(int(n)) <= math.sqrt(n / (2.0 * math.pi)), n

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

    def hermite_orthonormality():
        for i in range(7):
            for j in range(7):
                ip = hermite.inner_product_gh(lambda x, i=i: hermite.hermite_1d(i, x),
                                              lambda x, j=j: hermite.hermite_1d(j, x),
                                              max_degree=max(i, j))
                assert abs(ip - (1.0 if i == j else 0.0)) <= 1e-10, (i, j)

    def h2_bridge():
        points = rng.standard_normal((64, 16))
        lhs = -math.sqrt(2.0) * hermite.h2(points).sum(axis=1)
        rhs = 16 - (points**2).sum(axis=1)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def c1_closed_form():
        c_star, value = radial.optimal_c1()
        assert abs(c_star - math.sqrt(2.0 * math.pi) * math.exp(-0.25)) <= 1e-8
        assert abs(value - math.exp(-1.25)) <= 1e-9

    def chain_dominance():
        c1_star, _ = radial.optimal_c1()
        for n, r, s in ((64, 64**0.25, 200.0),
                        (256, 4.0, float(radial.choose_s(256, 4.0, c1_star)))):
            rep = radial.lower_bound_chain(n, r, s)
            assert rep.chain_value <= rep.exact_quadrature + 1e-10

    def shell_edge_infima():
        # the chain reads six shell infima at an edge; on the 513-point shell
        # grid each must be the grid minimum, also where F peaks inside the
        # shell (r = 0.9 at n = 64)
        for n, r, s in ((64, 0.9, 29.0), (256, 4.0, 35720.0), (65536, 14.4, 4e46)):
            shell = radial.shell_for(n)
            xs = np.linspace(shell.rho_min, shell.rho_max, radial._SHELL_GRID)
            log_f = cap.log_F_dilation(n, r, xs)
            log_g = cap.log_complement_upper_from_ratio(n, r / xs)
            log_1m_g = radial._log_1m_g(log_g)
            log_s, g_list = math.log(s), log_g.tolist()
            grid = (float(log_f.min()), float(log_g.min()), float(log_g.max()),
                    float((s * log_1m_g).min()),
                    min(radial._stitch_log(log_s, g) for g in g_list),
                    min(radial._stitch_factor(log_s, g) for g in g_list))
            edge = radial._shell_edge_reads(log_f, log_g, log_1m_g, s)
            assert edge == grid, f"edge reads {edge} vs grid minima {grid} at n={n}"

    def batched_s_grid():
        # optimize_s integrates its 48 values of s on one node ladder; each
        # must be bit for bit the one-point expected_gsa, underflow exits
        # included (the top of the (1000, 0.5) grid)
        for n, alpha, width in ((64, 1.0, 3.0), (1000, 0.5, 14.0), (65536, 1.5, 7.0)):
            r = alpha * n**0.25
            center = -float(cap.log_complement_upper_from_ratio(n, r / math.sqrt(n)))
            lo = max(0.0, center - width)
            grid = np.linspace(lo, center + width, radial._COARSE_GRID)
            batched = radial.expected_gsa_grid(n, r, grid).tolist()
            alone = [radial.expected_gsa(n, r, math.exp(g)) for g in grid]
            assert batched == alone, f"batched s grid differs at (n={n}, alpha={alpha})"

    def polytope_invariants():
        params = polytope.NazParams(n=8, offset=1.5, s=12)
        K = polytope.sample_naz(params, seed=11)
        assert K.contains(np.zeros(8))
        assert abs(K.inradius() - 1.5) < 1e-12
        K2 = polytope.HalfspacePolytope.from_json(K.to_json())
        assert np.array_equal(K2.normals, K.normals)
        assert np.array_equal(K.dilate(2.0).dilate(3.0).offsets, K.dilate(6.0).offsets)

    return [
        ("cap-route-agreement", cap_routes),
        ("cap-closed-forms", cap_closed_forms),
        ("mills-sandwich-grid", mills_grid),
        ("tau-identities", tau_identities),
        ("chi-normalization", chi_normalization),
        ("single-halfspace-identity", single_halfspace_identity),
        ("hermite-orthonormality", hermite_orthonormality),
        ("h2-bridge-identity", h2_bridge),
        ("c1-closed-form", c1_closed_form),
        ("chain-dominance", chain_dominance),
        ("shell-edge-infima", shell_edge_infima),
        ("batched-s-grid", batched_s_grid),
        ("polytope-invariants", polytope_invariants),
    ]


def _cmd_selftest(args):
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
    doc = _emit(args, "selftest", {"seed": args.seed}, rows, SELFTEST_COLUMNS, echo=False)
    if failures:
        print(f"{failures} invariant check(s) failed")
        return doc, 3
    print("all invariant checks passed")
    return doc, 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gsalab",
        description="Numerical laboratory for Gaussian surface area of convex bodies.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--json", metavar="PATH", help="write a JSON report document")
        p.add_argument("--csv", metavar="PATH", help="write rows as RFC-4180 CSV")
        p.add_argument("--seed", type=int, default=0, help="seed recorded in output")

    p = sub.add_parser("cap", help="exact spherical-cap measure and bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--norm", type=float, required=True, help="||x||")
    p.add_argument("--r", type=float, required=True, help="cap offset")
    add_output(p)
    p.set_defaults(func=_cmd_cap)

    p = sub.add_parser("influence", help="Monte Carlo influence estimates for a body")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--body", choices=["naz", "naz-prime", "ball"], default="naz")
    p.add_argument("--r", type=float, default=1.0, help="facet offset for polytopes")
    p.add_argument("--s", type=int, default=16, help="facet count for polytopes")
    p.add_argument("--radius", type=float, default=1.0, help="radius for --body ball")
    p.add_argument("--samples", type=int, default=20000)
    add_output(p)
    p.set_defaults(func=_cmd_influence)

    p = sub.add_parser("gsa", help="facet Monte Carlo surface area with influence cross-check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--samples-per-facet", type=int, default=2000)
    p.add_argument("--samples", type=int, default=20000)
    add_output(p)
    p.set_defaults(func=_cmd_gsa)

    p = sub.add_parser("quad", help="expected influence and surface area by quadrature")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--alpha", type=float, default=1.0, help="r = alpha * n^(1/4) when --r absent")
    p.add_argument("--s", type=float, required=True)
    add_output(p)
    p.set_defaults(func=_cmd_quad)

    p = sub.add_parser("optimize", help="recover the shell lower-bound constant; optionally tune s")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=float, default=None)
    add_output(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("scan", help="scan dimensions and offset multipliers")
    p.add_argument("--n", required=True, help="comma-separated dimensions")
    p.add_argument("--alpha", default="1.0", help="comma-separated multipliers of n^(1/4)")
    p.add_argument("--svg", metavar="PATH", help="write a static line chart")
    add_output(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("selftest", help="run the invariant suite; each check is a row "
                       "with value 1.0 (pass) or 0.0 (fail) and its seconds")
    add_output(p)
    p.set_defaults(func=_cmd_selftest)

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
        result = args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureConvergenceError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if args.json:
            _emit_failure(args, exc)
        return 2
    if isinstance(result, tuple):
        return result[1]
    return 0


if __name__ == "__main__":
    sys.exit(main())

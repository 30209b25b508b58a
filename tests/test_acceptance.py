"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 2 and 11 check the optimized ratio E[GSA] / n^(1/4)
against its true limit L(alpha) (see limit_ratio), not against the shell
lower-bound constant e^(-5/4): the ratio falls toward L(1) = 0.30127 from
above, and the offset-multiplier grid peaks where L does, at alpha = 1.25.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gsalab import bounds, cap, cli, estimators, hermite, polytope, radial, specfun
from gsalab.polytope import NazParams

from oracles import ball_influence_quadrature

GSA_ESTIMATES = []


def limit_ratio(alpha, nodes=200):
    """Limit L(alpha) of the optimized E[GSA] / n^(1/4) at r = alpha n^(1/4).

    Derivation, independent of gsalab.radial: E[GSA] is the radial integral
    of chi_n(rho) s tau_n F(rho) P(rho)^(s-1) / r.  Write rho = sqrt(n) + g;
    the chi_n density of g tends to N(0, 1/2).  The cap complement
    G(rho) = 1 - P(rho) has d ln G / d rho -> n r^2 / rho^3 -> alpha^2, so
    s G(rho) -> lambda e^(alpha^2 g) with lambda = s G(sqrt(n)), and
    P^(s-1) -> exp(-lambda e^(alpha^2 g)).  Integrating the cap density by
    parts gives tau_n F(rho) ~ n (r / rho)^2 G(rho) ~ r^2 G(rho), so
    s tau_n F / r ~ alpha n^(1/4) lambda e^(alpha^2 g).  Optimizing s is
    optimizing lambda, hence

        L(alpha) = alpha * sup_lambda E[lambda e^(alpha^2 g) exp(-lambda e^(alpha^2 g))].

    The expectation is a Gauss-Hermite sum (weight e^(-g^2) is N(0, 1/2) up
    to 1/sqrt(pi)).  With mu = ln lambda the objective is a Gaussian
    smoothing of the log-concave exp(mu - e^mu), so its slope
    E[z (1 - z) e^(-z)], z = e^(mu + alpha^2 g), has one root; a grid
    brackets it and bisection pins it.
    """
    g, w = np.polynomial.hermite.hermgauss(nodes)
    w = w / math.sqrt(math.pi)

    def terms(mu):
        z = np.exp(mu + alpha**2 * g)
        return z, w * z * np.exp(-z)

    mus = np.arange(-20.0, 20.0, 0.25)
    k = int(np.argmax([terms(mu)[1].sum() for mu in mus]))
    lo, hi = mus[k - 1], mus[k + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        z, t = terms(mid)
        if np.sum(t * (1.0 - z)) > 0.0:
            lo = mid
        else:
            hi = mid
    return alpha * float(terms(0.5 * (lo + hi))[1].sum())


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} FAIL - {summary}")
        raise
    print(f"\nACCEPTANCE {number:02d} PASS - {summary}")


def test_c01_constant_recovery(tmp_path):
    with criterion(1, "optimizer recovers sqrt(2 pi) e^(-1/4) and e^(-5/4)"):
        out = tmp_path / "optimize.json"
        start = time.perf_counter()
        assert cli.main(["optimize", "--json", str(out)]) == 0
        elapsed = time.perf_counter() - start
        rows = {row["name"]: row["value"]
                for row in json.loads(out.read_text())["rows"]}
        assert abs(rows["optimal-c1"]
                   - math.sqrt(2.0 * math.pi) * math.exp(-0.25)) <= 1e-8
        assert abs(rows["limit-constant"] - 0.286504797) <= 1e-9
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c02_finite_n_trend():
    with criterion(2, "ratio to n^(1/4) falls to its limit L(1) over n in {256,...,16384}"):
        start = time.perf_counter()
        ratios = []
        for n in (256, 1024, 4096, 16384):
            r = n**0.25
            _, gsa = radial.optimize_s(n, r)
            ratios.append(gsa / r)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
        limit = limit_ratio(1.0)
        gaps = [abs(ratio - limit) for ratio in ratios]
        assert all(b < a for a, b in zip(gaps, gaps[1:])), \
            f"gap to L(1)={limit:.6f} must shrink at each step; measured ratios {ratios}"
        assert all(ratio > limit for ratio in ratios), \
            f"ratio must approach L(1)={limit:.6f} from above; measured {ratios}"
        x0, x1, x2 = ratios[-3:]
        aitken = x2 - (x2 - x1) ** 2 / ((x2 - x1) - (x1 - x0))
        assert abs(aitken - limit) <= 1e-3, \
            f"Aitken limit {aitken:.6f} is not within 1e-3 of L(1)={limit:.6f}"


def test_c03_chain_dominance():
    with criterion(3, "lower-bound chain never exceeds the exact quadrature"):
        reports = radial.scan_report([256, 1024, 4096], [0.75, 1.0, 1.25])
        for rep in reports:
            slack = rep.exact_quadrature - rep.chain_value
            assert slack >= -1e-10, (rep.n, rep.alpha, slack)


def test_c04_mc_matches_quadrature():
    with criterion(4, "Monte Carlo influence matches quadrature at (16, 2, 32)"):
        start = time.perf_counter()
        n, r, s = 16, 2.0, 32
        draws = 200
        values = np.empty(draws)
        for d in range(draws):
            K = polytope.sample_naz(NazParams(n=n, offset=r, s=s), seed=100_000 + d)
            values[d] = estimators.estimate_influence_spectral(
                K, 20_000, seed=110_000 + d).value
        stderr = values.std(ddof=1) / math.sqrt(draws)
        quad = radial.expected_influence_quadrature(n, r, float(s))
        elapsed = time.perf_counter() - start
        assert abs(values.mean() - quad) <= 4 * stderr, \
            f"mc={values.mean():.6f} quad={quad:.6f} stderr={stderr:.6f}"
        assert elapsed < 120.0, f"took {elapsed:.2f}s"


def test_c05_surface_influence_identity_per_draw():
    with criterion(5, "r * facet surface area equals influence draw by draw"):
        n, r, s = 16, 2.0, 32
        for d in range(20):
            K = polytope.sample_naz(NazParams(n=n, offset=r, s=s), seed=200_000 + d)
            surface = estimators.estimate_gsa_facets(K, 4000, seed=210_000 + d)
            influence = estimators.estimate_influence_spectral(
                K, 40_000, seed=220_000 + d)
            GSA_ESTIMATES.append((n, surface))
            gap = abs(r * surface.value - influence.value)
            tol = 4 * math.hypot(r * surface.stderr, influence.stderr)
            assert gap <= tol, f"draw {d}: gap={gap:.5f} tol={tol:.5f}"


def test_c06_ball_oracle():
    with criterion(6, "sphere surface area times R equals the radial moment integral"):
        from scipy.stats import chi as chi_dist

        start = time.perf_counter()
        for n in range(2, 11):
            for R in (0.5, 1.0, 2.0, 3.0):
                lhs = R * chi_dist.pdf(R, n)
                rhs = ball_influence_quadrature(n, R)
                assert abs(lhs - rhs) <= 1e-8, (n, R, lhs, rhs)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c07_cap_correctness():
    with criterion(7, "cap routes agree, closed forms hold, complement bound dominates"):
        state = np.random.default_rng(424242)
        for _ in range(200):
            n = int(state.integers(2, 513))
            norm = float(state.uniform(0.1, 3.0) * math.sqrt(n))
            r = float(state.uniform(0.0, 1.2) * norm)
            q = cap.CapQuery(n, norm, r)
            assert abs(cap.cap_probability(q)
                       - cap.cap_probability_quadrature(q)) <= 1e-10, (n, norm, r)
        assert abs(cap.cap_probability(cap.CapQuery(3, 2.0, 1.0)) - 0.75) <= 1e-12
        assert abs(cap.cap_probability(
            cap.CapQuery(2, 1.0, 1.0 / math.sqrt(2.0))) - 0.75) <= 1e-12
        for n in (5, 10, 50, 200):
            for u in (0.05, 0.1, 0.3, 0.9):
                assert cap.cap_log_complement_from_ratio(n, u) <= \
                    cap.log_complement_upper_from_ratio(n, u) + 1e-12


def test_c08_tail_sandwiches():
    with criterion(8, "Mills sandwich on the t grid; tau below sqrt(n / 2 pi)"):
        for t in np.arange(1.0, 8.05, 0.1):
            sandwich = specfun.mills_sandwich(float(t))
            tail = specfun.gaussian_tail(float(t))
            assert sandwich.lower <= tail <= sandwich.upper, t
        for n in np.unique(np.logspace(math.log10(2), 6, 200).astype(int)):
            assert specfun.tau_n(int(n)) <= math.sqrt(n / (2.0 * math.pi)), n


def test_c09_hermite_suite():
    with criterion(9, "orthonormality, moment bridge, shared-sample estimator equality"):
        for i in range(11):
            for j in range(11):
                ip = hermite.inner_product_gh(
                    lambda x, i=i: hermite.hermite_1d(i, x),
                    lambda x, j=j: hermite.hermite_1d(j, x),
                    max_degree=max(i, j))
                assert abs(ip - (1.0 if i == j else 0.0)) <= 1e-10, (i, j)
        points = np.random.default_rng(99).standard_normal((500, 16))
        lhs = -math.sqrt(2.0) * hermite.h2(points).sum(axis=1)
        rhs = 16 - (points**2).sum(axis=1)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        K = polytope.sample_naz(NazParams(n=8, offset=1.5, s=12), seed=300_000)
        spectral = estimators.estimate_influence_spectral(K, 20_000, seed=300_001)
        coeffs = estimators.estimate_hermite_coefficients(K, 20_000, seed=300_001)
        combined = estimators.influence_from_hermite_estimates(coeffs)
        assert abs(combined.value - spectral.value) <= 1e-12


def test_c10_upper_bound_sanity():
    with criterion(10, "surface estimates below the sharp upper bound; slab blow-up"):
        from scipy.stats import chi as chi_dist

        estimates = list(GSA_ESTIMATES)
        if not estimates:
            K = polytope.sample_naz(NazParams(n=16, offset=2.0, s=32), seed=400_000)
            estimates.append(
                (16, estimators.estimate_gsa_facets(K, 4000, seed=400_001)))
        for n, est in estimates:
            assert est.value <= bounds.raic_upper(n) + 4 * est.stderr
        theta = 0.01
        vol = 1.0 - 2.0 * specfun.gaussian_tail(theta)
        ratio = bounds.final_var_upper(1, vol, theta) / (2.0 * specfun.gaussian_pdf(theta))
        assert ratio > 10.0
        for n in (2, 4, 8):
            for R in (0.5, 1.0, 2.0, 3.0):
                vol = float(chi_dist.cdf(R, n))
                assert chi_dist.pdf(R, n) <= bounds.final_var_upper(n, vol, R)


def test_c11_offset_multiplier_grid():
    with criterion(11, "offset-multiplier grid at n=4096 peaks where L(alpha) does"):
        start = time.perf_counter()
        n = 4096
        ratios = {}
        for alpha in (0.5, 0.75, 1.0, 1.25, 1.5):
            r = alpha * n**0.25
            _, gsa = radial.optimize_s(n, r)
            ratios[alpha] = gsa / n**0.25
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
        limits = {alpha: limit_ratio(alpha) for alpha in ratios}
        best = max(ratios, key=ratios.get)
        assert min(ratios.keys()) < best < max(ratios.keys()), \
            f"grid argmax at the edge alpha={best}; measured {ratios}"
        assert best == max(limits, key=limits.get), \
            f"grid argmax at alpha={best}, L peaks elsewhere; measured {ratios}, L {limits}"
        for alpha, ratio in ratios.items():
            assert 0.0 < ratio - limits[alpha] < n**-0.5, \
                f"alpha={alpha}: ratio {ratio:.6f} vs L {limits[alpha]:.6f}"

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import log_ndtr, ndtr

from gsalab import estimators, polytope, radial, specfun
from gsalab.cap import log_complement_upper_from_ratio
from gsalab.polytope import NazParams
from gsalab.quadrature import QuadratureConvergenceError
from gsalab.radial import (ChainViolationError, QuadratureSpec, expected_gsa,
                           expected_influence_quadrature, lower_bound_chain, optimize_s,
                           scan_report)
from oracles import INFLUENCE_REFERENCE, influence_quad, influence_reference


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rho_lo=-1.0, rho_hi=2.0)
    with pytest.raises(ValueError):
        QuadratureSpec(rho_lo=2.0, rho_hi=1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(rho_lo=0.0, rho_hi=1.0, rule="monte-carlo")


def test_spec_default_window():
    spec = QuadratureSpec.for_dimension(16)
    assert spec.rho_lo == 0.0
    assert spec.rho_hi == pytest.approx(16.0)
    spec = QuadratureSpec.for_dimension(4096)
    assert spec.rho_lo == pytest.approx(52.0)
    assert spec.rho_hi == pytest.approx(76.0)


def test_single_halfspace_closed_form():
    # with one facet the expected influence is r * phi(r), independent of n
    for n, r in ((5, 1.0), (16, 2.0), (64, 2.0), (256, 4.0), (1024, 0.5)):
        got = expected_influence_quadrature(n, r, 1.0)
        want = r * specfun.gaussian_pdf(r)
        assert got == pytest.approx(want, rel=1e-10), (n, r)


def test_influence_quadrature_validation():
    for n in (2, 3):
        with pytest.raises(ValueError, match="radial reduction needs n >= 4"):
            expected_influence_quadrature(n, 0.5, 2.0)
    for r in (0.0, -1.0):
        with pytest.raises(ValueError, match="offset r must be > 0"):
            expected_influence_quadrature(64, r, 2.0)
    with pytest.raises(ValueError):
        expected_influence_quadrature(16, 1.0, 0.5)


def test_subnormal_offset_raises_value_error():
    # below the smallest normal double r / rho is subnormal and ln F loses
    # digits: at n = 64, s = 1, E[GSA] / phi(r) - 1 read -5.7e-4 at
    # r = 1e-320, and at r = 5e-324 r / rho rounded to 0 and a log warned
    # of a division by zero
    for r in (1e-320, 5e-324):
        with pytest.raises(ValueError, match=f"offset r = {r} is subnormal"):
            expected_influence_quadrature(64, r, 1.0)
    # one facet reads phi(r) down to the smallest normal offsets
    assert expected_gsa(64, 1e-300, 1.0) == pytest.approx(
        specfun.gaussian_pdf(1e-300), rel=1e-13)


def test_influence_spike_below_the_first_nodes_is_still_resolved():
    # with 1e12 facets at n = 7 the mass is a sliver just above rho = r, and
    # the 128- and 256-node sums miss it by far more than the double range
    # (log values -44921 and -5641); only an upper bound on the integral,
    # not two tiny node sums, may end the ladder early.  Frozen value.
    assert expected_influence_quadrature(7, 1.5 * 7**0.25, 1e12) == 1.3956684793453333


def test_influence_monotone_in_small_s():
    assert expected_influence_quadrature(16, 2.0, 2.0) > \
        expected_influence_quadrature(16, 2.0, 1.0)


def test_influence_single_cap_against_mc():
    # one-facet draws: the moment estimator must recover r * phi(r)
    n, r = 5, 1.0
    values = np.empty(200)
    for d in range(200):
        K = polytope.sample_naz(NazParams(n=n, offset=r, s=1), seed=7000 + d)
        values[d] = estimators.estimate_influence_spectral(K, 10_000, seed=7500 + d).value
    stderr = values.std(ddof=1) / math.sqrt(values.size)
    quad = expected_influence_quadrature(n, r, 1.0)
    assert abs(values.mean() - quad) <= 4 * stderr


def test_adaptive_rule_matches_composite():
    composite = expected_influence_quadrature(16, 2.0, 32.0)
    adaptive = expected_influence_quadrature(
        16, 2.0, 32.0, QuadratureSpec.for_dimension(16, rule="adaptive"))
    assert adaptive == pytest.approx(composite, rel=1e-8)


def test_expected_gsa_identity_and_cap():
    n, r, s = 64, 64**0.25, 300.0
    gsa = expected_gsa(n, r, s)
    assert gsa * r == pytest.approx(expected_influence_quadrature(n, r, s), rel=1e-14)
    assert gsa <= math.sqrt(2.0 * n) / r + 1e-9


def test_expected_gsa_matches_facet_mc():
    n, r, s = 16, 2.0, 32
    draws = 200
    values = np.empty(draws)
    for d in range(draws):
        K = polytope.sample_naz(NazParams(n=n, offset=r, s=s), seed=9000 + d)
        values[d] = estimators.estimate_gsa_facets(K, 1000, seed=9500 + d).value
    stderr = values.std(ddof=1) / math.sqrt(draws)
    assert abs(values.mean() - expected_gsa(n, r, float(s))) <= 4 * stderr


def jensen_rule(n, r):
    """optimize's facet-count-rule: s_jensen rounded to a facet count."""
    return max(1, round(lower_bound_chain(n, r, 1.0).s_jensen))


def test_optimize_s_dominates_selection_rule():
    n, r = 4096, 4096**0.25
    gsa_star = expected_gsa(n, r, float(optimize_s(n, r)))
    gsa_rule = expected_gsa(n, r, float(jensen_rule(n, r)))
    assert gsa_star >= gsa_rule - 1e-9


def test_optimize_s_unimodal_neighborhood():
    n, r = 256, 4.0
    s_star = optimize_s(n, r)
    gsa_star = expected_gsa(n, r, float(s_star))
    assert gsa_star > expected_gsa(n, r, max(1.0, s_star / 2.0))
    assert gsa_star > expected_gsa(n, r, 2.0 * s_star)


def test_optimize_s_within_factor_three_of_rule():
    # the Jensen rule maximizes a bound within 6% of the exact value, so it
    # lands near the exact optimum: s_jensen / s_star is 0.909 here
    n, r = 4096, 4096**0.25
    s_star = optimize_s(n, r)
    s_rule = jensen_rule(n, r)
    assert s_rule / 3.0 <= s_star <= s_rule * 3.0
    assert s_rule / s_star == pytest.approx(0.909, abs=1e-3)


def test_chain_ordering_moderate_config():
    # a configuration where nothing underflows: the bound is positive
    rep = lower_bound_chain(64, 64**0.25, 502.0)
    assert rep.exact_quadrature > 0.0
    assert 0.0 < rep.chain_value <= rep.exact_quadrature
    assert rep.log_chain_value == pytest.approx(math.log(rep.chain_value), rel=1e-12)
    assert rep.gsa_lower == pytest.approx(rep.chain_value / rep.r, rel=1e-14)


def test_chain_ordering_at_selection_rule():
    # s_jensen maximizes the bound over s, so the bound at the rounded rule
    # and at s_jensen itself beat the bound at nearby facet counts
    s_jensen = lower_bound_chain(256, 4.0, 1.0).s_jensen
    s_rule = jensen_rule(256, 4.0)
    rep = lower_bound_chain(256, 4.0, float(s_rule))
    assert rep.chain_value <= rep.exact_quadrature + 1e-10
    assert rep.s_jensen == s_jensen  # the moments do not depend on s
    peak = lower_bound_chain(256, 4.0, s_jensen).log_chain_value
    assert peak >= rep.log_chain_value
    for s in (0.5 * s_jensen, 2.0 * s_jensen):
        assert lower_bound_chain(256, 4.0, s).log_chain_value < rep.log_chain_value


def test_chain_dominance_across_scan():
    for rep in scan_report([64, 256], [0.75, 1.0, 1.25]):
        assert rep.chain_value <= rep.exact_quadrature + 1e-10


def test_scan_ratios_below_raic_coefficient():
    from gsalab import bounds

    for rep in scan_report([256, 1024], [1.0]):
        assert rep.ratio_to_n14 <= bounds.raic_upper(rep.n) / rep.n**0.25


@pytest.mark.xfail(
    strict=True,
    reason="measured: the optimized ratio decreases toward its limit from above "
    "(0.3269 at n=256 down to 0.3046 at n=16384); it is not nondecreasing")
def test_scan_ratio_nondecreasing_in_n():
    reports = scan_report([256, 1024, 4096], [1.0])
    ratios = [rep.ratio_to_n14 for rep in reports]
    assert all(b >= a - 1e-4 for a, b in zip(ratios, ratios[1:]))


@pytest.mark.xfail(
    strict=True,
    reason="measured: at n=4096 the grid argmax of the optimized ratio sits at "
    "alpha=1.25 (0.3181) rather than alpha=1.0 (0.3080)")
def test_scan_alpha_grid_peaks_at_one():
    reports = scan_report([4096], [0.5, 0.75, 1.0, 1.25, 1.5])
    best = max(reports, key=lambda rep: rep.ratio_to_n14)
    assert best.alpha == pytest.approx(1.0)


def test_log_integrand_extremes_stay_representable():
    # no overflow/underflow surprises at s = 1e9, n = 1e5
    n = 100_000
    r = n**0.25
    spec = QuadratureSpec.for_dimension(n)
    for rho in (spec.rho_lo, r + 1e-6, math.sqrt(n), spec.rho_hi):
        value = radial.influence_log_integrand(n, r, 1e9, rho)
        assert not math.isnan(value)
        assert value < math.inf


def naz_prime_influence(n, w, s):
    """E[influence] of the Gaussian-normal variant by the radial reduction.

    A point at radius rho survives one Gaussian halfspace {x.g <= w} with
    probability Phi(w/rho), so E[influence] integrates
    chi_n(rho) Phi(w/rho)^s (n - rho^2) over the default window.  The sign
    change of (n - rho^2) keeps this one out of pure log space; the survival
    factor is still assembled as s * log Phi.
    """
    spec = QuadratureSpec.for_dimension(n)

    def integrand(rho):
        log_surv = s * log_ndtr(w / rho)
        return np.exp(specfun.chi_log_density(n, rho) + log_surv) * (n - rho**2)

    return quad(integrand, max(spec.rho_lo, 1e-9), spec.rho_hi, epsabs=0.0, epsrel=1e-10)[0]


def test_naz_prime_expected_influence_scales_like_sqrt_n():
    # Gaussian-normal variant at w = n^(3/4) with s = exp(Theta(sqrt(n)))
    for n in (64, 256, 1024):
        w = n**0.75
        s = max(1.0, round(1.0 / float(ndtr(-n**0.25))))
        value = naz_prime_influence(n, w, s)
        assert value / math.sqrt(n) >= 0.25, (n, value)


def test_naz_prime_quadrature_against_mc():
    n, w, s = 8, 8.0**0.75, 20
    params = NazParams(n=n, offset=w, s=s, variant=polytope.GAUSSIAN)
    values = np.empty(150)
    for d in range(values.size):
        K = polytope.sample_naz(params, seed=60_000 + d)
        values[d] = estimators.estimate_influence_spectral(K, 20_000, seed=61_000 + d).value
    stderr = values.std(ddof=1) / math.sqrt(values.size)
    quad = naz_prime_influence(n, w, float(s))
    assert abs(values.mean() - quad) <= 4 * stderr


def test_chain_never_trips_on_valid_configs():
    for n, r, s in ((64, 2.0, 50.0), (256, 4.0, 35720.0),
                    (1024, 1024**0.25, 2000.0),
                    (4096, 8.0, float(jensen_rule(4096, 8.0)))):
        try:
            lower_bound_chain(n, r, s)
        except ChainViolationError as exc:
            pytest.fail(f"chain violation on valid config: {exc}")


# Every LowerBoundReport field, in field order (n, r, s, alpha,
# exact_quadrature, chain_value, gsa_lower, ratio_to_n14, log_chain_value,
# s_jensen); s is the optimized facet count.  The exact-integral fields are
# the values the shell chain's reports held; the bound's three are frozen
# from the first Jensen chain.  s is the integer beside the root of
# dE/d ln s = 0 with the larger E (past 2^53, e^root itself), and the fields
# read at s are frozen there.
CHAIN_FROZEN = {
    (16, 1.0): (
        16, 2.0, 55.0, 1.0, 1.5762345344626725, 1.3217833060739583, 0.6608916530369792,
        0.3940586336156681, 0.27898181428309865, 39.44846527535119),
    (64, 0.75): (
        64, 2.121320343559643, 63.0, 0.75, 1.8792224143871572, 1.838930057826216,
        0.8668799426777914, 0.3132037357311928, 0.6091839121779952, 58.393231405563554),
    (1024, 1.2): (
        1024, 6.788225099390856, 235609376512.0, 1.2, 12.442537498488086,
        9.879764544647287, 1.455426772093025, 0.3240244140231272, 2.290488679962369,
        176178180360.55862),
    (4096, 1.0): (
        4096, 8.0, 1768541292876665.0, 1.0, 19.70949497312179, 18.618635556020628,
        2.3273294445025785, 0.30796085895502795, 2.9241629907547235, 1607468795312186.0),
    (65536, 0.9): (
        65536, 14.4, 4.040000250082976e+46, 0.9, 66.69436258731177, 65.0677126792832,
        4.518591158283556, 0.2894720598407629, 4.175428461195239, 3.865218403434339e+46),
}


@pytest.mark.parametrize("n, alpha", sorted(CHAIN_FROZEN))
def test_chain_frozen_regression(n, alpha):
    r = alpha * n**0.25
    rep = lower_bound_chain(n, r, float(optimize_s(n, r)))
    assert dataclasses.astuple(rep) == CHAIN_FROZEN[(n, alpha)]


# (n, alpha) cells whose shell-chain v2 read 0 * log(1 - G) = 0 * (-inf) = NaN
# at s = 1
S_ONE_CELLS = [(4, 0.5), (4, 0.75), (4, 1.0), (4, 1.25), (5, 0.5), (5, 0.75),
               (6, 0.5), (7, 0.5), (8, 0.5)]


@pytest.mark.parametrize("n, alpha", S_ONE_CELLS)
def test_chain_at_one_facet_is_not_nan(n, alpha):
    # at s = 1 the (s - 1) ln P term is exactly 0, and the window starts one
    # unit clear of rho = r, so ln F is finite on it: the bound is a positive
    # number below the single-halfspace value r phi(r)
    r = alpha * n**0.25
    rep = lower_bound_chain(n, r, 1.0)
    assert rep.exact_quadrature == pytest.approx(r * specfun.gaussian_pdf(r), rel=1e-8)
    assert 0.0 < rep.chain_value < rep.exact_quadrature
    assert rep.log_chain_value == pytest.approx(math.log(rep.chain_value), rel=1e-12)


def spy_on_integrand_parts(monkeypatch):
    """Patch radial's integrand parts and node builder to record their calls.

    Returns {name: [argument size per call]} for chi_n, F, the cap complement
    and composite_nodes, after clearing radial's caches.
    """
    calls = {}

    def recorder(name, size_of):
        real = getattr(radial, name)
        calls[name] = []

        def spy(*args):
            calls[name].append(size_of(*args))
            return real(*args)

        monkeypatch.setattr(radial, name, spy)

    recorder("chi_log_density", lambda n, rho: np.size(rho))
    recorder("log_F_dilation", lambda n, r, rho: np.size(rho))
    recorder("cap_log_complement_from_ratio", lambda n, u: np.size(u))
    recorder("composite_nodes", lambda lo, hi, nodes: nodes)
    radial._node_table.cache_clear()
    radial._log_p_max.cache_clear()
    return calls


def test_chain_evaluates_the_exact_complement_on_one_grid(monkeypatch):
    # Where the Jensen window is the exact integral's window (here [20, 44]),
    # the bound's mass and both moments read the node tables the exact
    # integral built, so the only evaluations are those tables' and the
    # quadrature's early-exit bound at the window's lower edge; the chain
    # made 6 chi_n, 2 F and 4 node builds of its own when its mass and
    # ln F moment built their own nodes
    calls = spy_on_integrand_parts(monkeypatch)
    expected_influence_quadrature(1024, 1024**0.25, 2000.0)
    tables = {name: list(sizes) for name, sizes in calls.items()}
    lower_bound_chain(1024, 1024**0.25, 2000.0)
    assert calls == tables  # the chain's own exact integral and sums hit the cache
    cap_sizes = tables["cap_log_complement_from_ratio"]
    assert cap_sizes.count(1) == 1
    assert all(size in {128 << k for k in range(13)} for size in cap_sizes if size != 1)


def test_chain_builds_one_table_per_rung_off_the_exact_window(monkeypatch):
    # at n = 64 the exact window starts at rho = r and W one unit above it;
    # W's mass and both moments then share one table per rung of their
    # ladders, where they made 8 chi_n, 4 F, 2 cap and 6 node builds
    n, r = 64, 64**0.25
    calls = spy_on_integrand_parts(monkeypatch)
    expected_influence_quadrature(n, r, 502.0)
    before = {name: len(sizes) for name, sizes in calls.items()}
    rungs, ladder = [], radial.node_ladder

    def ladder_spy(evaluate, settled, what):
        def recorder(m):
            rungs.append(m)
            return evaluate(m)
        return ladder(recorder if "Jensen" in what() else evaluate, settled, what)

    monkeypatch.setattr(radial, "node_ladder", ladder_spy)
    lower_bound_chain(n, r, 502.0)
    made = {name: len(sizes) - before[name] for name, sizes in calls.items()}
    assert len(set(rungs)) == 2
    assert made == dict.fromkeys(calls, len(set(rungs)))
    assert calls["composite_nodes"][-2:] == sorted(set(rungs))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 100_000), alpha=st.floats(0.05, 2.0),
       s=st.one_of(st.just(1.0), st.floats(1.0, 1e12)))
def test_chain_is_below_the_exact_value_within_512_nodes(n, alpha, s):
    # a 611-cell sweep (n = 4 ... 1e5, alpha = 0.05 ... 2, s in {1, 1e3,
    # 1e12, s_star}) found no violation and no moment ladder past 256 nodes;
    # on a window reaching rho = r, where ln F ~ ((n - 3)/2) ln(rho - r), 97
    # of those cells climbed past 512 nodes, up to 524288
    rungs = []
    ladder = radial.node_ladder

    def spy(evaluate, settled, what):
        def recorder(m):
            rungs.append(m)
            return evaluate(m)
        return ladder(recorder if "Jensen" in what() else evaluate, settled, what)

    r = alpha * n**0.25
    try:
        exact = expected_influence_quadrature(n, r, s)
    except QuadratureConvergenceError:
        return  # the exact integral's own failure (ROADMAP item 2), not the chain's
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(radial, "node_ladder", spy)
        rep = lower_bound_chain(n, r, s)
    assert rep.exact_quadrature == exact
    assert rep.chain_value <= exact
    assert 0 < max(rungs) <= 512


def jensen_ratio(n, alpha):
    """The Jensen bound at its best s, as GSA / n^(1/4)."""
    r = alpha * n**0.25
    s_jensen = lower_bound_chain(n, r, 1.0).s_jensen
    return lower_bound_chain(n, r, s_jensen).chain_value / (r * n**0.25)


# (ratio - limit) sqrt(n) at n = 1024, 4096, 16384, 65536, measured when the
# Jensen chain came in
JENSEN_GAPS = {0.75: (0.4765, 0.4949, 0.5055, 0.5112),
               1.0: (0.3590, 0.3702, 0.3760, 0.3790),
               1.25: (0.1671, 0.1820, 0.1892, 0.1927)}


@pytest.mark.parametrize("alpha", sorted(JENSEN_GAPS))
def test_jensen_bound_settles_above_its_closed_form_limit(alpha):
    # with rho = sqrt(n) + g, g ~ N(0, 1/2), Jensen's inequality over the
    # chi_n law tends to alpha e^(-1) e^(-alpha^4/4) (e^(-5/4) at alpha = 1)
    # for the bound at its best s; the finite-n bound lies above that limit
    # by a gap of order n^(-1/2), whose coefficient settles as n grows
    limit = alpha * math.exp(-1.0 - alpha**4 / 4.0)
    gaps = [(jensen_ratio(n, alpha) - limit) * math.sqrt(n)
            for n in (1024, 4096, 16384, 65536)]
    assert all(gap > 0.0 for gap in gaps)
    assert gaps == pytest.approx(JENSEN_GAPS[alpha], abs=1e-3)
    steps = [b - a for a, b in zip(gaps, gaps[1:])]
    assert all(0.0 < b < 0.7 * a for a, b in zip(steps, steps[1:]))


@pytest.mark.parametrize("n", [4096, 65536])
def test_jensen_bound_peaks_at_alpha_one(n):
    # 1 - alpha^4 = 0 makes alpha = 1 the argmax of the limit; the finite-n
    # bound peaks there too, unlike the exact ratio (see
    # test_scan_alpha_grid_peaks_at_one)
    grid = [round(0.8 + 0.02 * k, 2) for k in range(21)]
    values = [jensen_ratio(n, alpha) for alpha in grid]
    assert grid[values.index(max(values))] == 1.0


def test_chain_within_ten_percent_of_exact_at_alpha_one():
    # at s_star the bound reads 0.934 of the exact value at n = 256 and
    # 0.947 at n = 65536
    for rep in scan_report([256, 1024, 4096, 16384, 65536], [1.0]):
        assert 0.9 * rep.exact_quadrature <= rep.chain_value <= rep.exact_quadrature


def test_chain_evaluates_no_slope(monkeypatch):
    # the chain reads the exact integral and its own sums at the given s;
    # only optimize_s solves for a facet count
    slopes = []

    def spy(*args):
        slopes.append(args)
        return slope(*args)

    slope = radial._slope
    monkeypatch.setattr(radial, "_slope", spy)
    lower_bound_chain(1024, 1024**0.25, 2000.0)
    assert slopes == []


def first_bracket(n, r):
    # optimize_s's first ln s bracket, [c - ln 1e3, c + ln 1e3] clipped to ln s >= 0
    center = -float(log_complement_upper_from_ratio(n, r / math.sqrt(n)))
    lo = max(0.0, center - math.log(1e3))
    return lo, max(lo + 1.0, center + math.log(1e3))


@pytest.mark.parametrize("n", [64, 256, 1024, 4096, 16384, 65536])
def test_optimize_s_beats_a_48_point_grid_on_its_bracket(n):
    # optimize_s used to take the argmax of 48 equally spaced ln s on its
    # bracket before searching; the integer beside the root of dE/d ln s
    # lands at least as high on the scan box, within 1e-12 relative
    for alpha in (0.75, 1.0, 1.25, 1.5):
        r = alpha * n**0.25
        lo, hi = first_bracket(n, r)
        s_star = optimize_s(n, r)
        assert lo < math.log(s_star) < hi
        best = max(expected_gsa(n, r, math.exp(g)) for g in np.linspace(lo, hi, 48))
        assert expected_gsa(n, r, float(s_star)) >= best * (1.0 - 1e-12), (n, alpha)


def spy_on_slopes_and_ladders(monkeypatch):
    """Record optimize_s's slope points, the node ladders climbed and the s integrated."""
    slopes, ladders, integrated = [], [], []
    slope, ladder = radial._slope, radial.node_ladder
    influence = radial.expected_influence_quadrature

    def slope_spy(n, r, lo, hi, x):
        slopes.append(x)
        return slope(n, r, lo, hi, x)

    def ladder_spy(evaluate, settled, what):
        ladders.append(what().split(" at ")[0])
        return ladder(evaluate, settled, what)

    def influence_spy(n, r, s, spec=None):
        integrated.append(s)
        return influence(n, r, s, spec)

    monkeypatch.setattr(radial, "_slope", slope_spy)
    monkeypatch.setattr(radial, "node_ladder", ladder_spy)
    monkeypatch.setattr(radial, "expected_influence_quadrature", influence_spy)
    return slopes, ladders, integrated


def test_optimize_s_climbs_three_ladders_per_slope(monkeypatch):
    # each Newton step settles ln A, ln B and ln C on their own ladders; then
    # E is integrated at the two integers beside e^root, and nothing else
    slopes, ladders, integrated = spy_on_slopes_and_ladders(monkeypatch)
    s_star = optimize_s(256, 4.0)
    assert 3 <= len(slopes) <= 5
    assert len(set(slopes)) == len(slopes)
    assert ladders == (["facet-count slope (log values)"] * (3 * len(slopes))
                       + ["influence quadrature (log values)"] * 2)
    below, above = integrated
    assert above == below + 1.0 and s_star in (below, above)
    assert abs(math.log(s_star) - slopes[-1]) <= 1e-4


def test_scan_integrates_the_two_integers_beside_the_root(monkeypatch):
    # a scan cell integrates E at the two integers beside e^root, then the
    # chain integrates s_star once more before its three ladders: the mass,
    # then ln F before ln P
    slopes, ladders, integrated = spy_on_slopes_and_ladders(monkeypatch)
    (rep,) = scan_report([256], [1.0])
    assert integrated == [rep.s, rep.s + 1.0, rep.s] or integrated == [rep.s - 1.0, rep.s, rep.s]
    assert ladders == (["facet-count slope (log values)"] * (3 * len(slopes))
                       + ["influence quadrature (log values)"] * 3
                       + ["Jensen mass", "Jensen ln F moment", "Jensen ln P moment"])


def test_optimize_s_takes_the_one_integer_past_two_to_the_53(monkeypatch):
    # at n = 65536, alpha = 0.9 e^root is about 4e46, a double that is an
    # integer and has no other integer beside it: E is not integrated
    slopes, ladders, integrated = spy_on_slopes_and_ladders(monkeypatch)
    s_star = optimize_s(65536, 0.9 * 65536**0.25)
    assert s_star > 2.0**53 and float(s_star) == s_star
    assert abs(math.log(s_star) - slopes[-1]) <= 1e-7
    assert integrated == []


# cells with s_star <= 1e4: two CHAIN_FROZEN cells and scan cells with
# n = 64 ... 256; the relative gap to a neighbour is 9e-7 or more on each
NEIGHBOUR_CELLS = [(16, 1.0), (64, 0.75), (64, 1.0), (128, 0.75), (256, 0.5)]


@pytest.mark.parametrize("n, alpha", NEIGHBOUR_CELLS)
def test_s_star_beats_both_neighbours_by_an_independent_quadrature(n, alpha):
    # s_star is the better integer beside the root of dE/d ln s; unimodality
    # makes it the better of every integer, checked against s_star +- 1 by
    # scipy's adaptive quadrature, whose error (below 1e-12 relative) is far
    # under the gaps
    r = alpha * n**0.25
    s_star = optimize_s(n, r)
    assert 1 < s_star <= 1e4
    best = influence_quad(n, r, float(s_star))
    for neighbour in (s_star - 1, s_star + 1):
        assert best >= influence_quad(n, r, float(neighbour)), (n, alpha, neighbour)


REFERENCE_CELLS = [(256, 4.0, 1e20), (64, 2.0 * math.sqrt(2.0), 502.0),
                   (4096, 8.0, 1768541444386440.0)]


@pytest.mark.parametrize("cell", REFERENCE_CELLS)
def test_influence_matches_the_mpmath_reference(cell):
    assert expected_influence_quadrature(*cell) == pytest.approx(
        INFLUENCE_REFERENCE[cell], rel=1e-11)


@pytest.mark.xfail(raises=QuadratureConvergenceError, strict=True,
                   reason="ROADMAP item 2: the mass is a sliver just above rho = r "
                   "that equal panels never resolve")
@pytest.mark.parametrize("cell", [(16, 2.0, 1e30), (64, 4.0, 1e120)])
def test_influence_reaches_the_sliver_reference_cells(cell):
    assert expected_influence_quadrature(*cell) == pytest.approx(
        INFLUENCE_REFERENCE[cell], rel=1e-11)


def test_mpmath_reference_recomputes_live():
    # 40 and 70 digits, about 1.2 s; the other frozen cells take up to 4.6 s
    cell = (64, 2.0 * math.sqrt(2.0), 502.0)
    assert influence_reference(*cell) == pytest.approx(INFLUENCE_REFERENCE[cell], rel=1e-15)


def test_facet_counts_past_the_double_range_raise_value_error(monkeypatch):
    # ln s_jensen is about 725 at (1e6, alpha = 1.2) and past any double at
    # n = 1e7, where ln P is -0.0 at every node; ln s is about 1130 at the
    # optimum of (1e6, alpha = 1.5); s would not fit in a double
    with pytest.raises(ValueError, match=r"ln s = 724\.\d+ is beyond the double range"):
        lower_bound_chain(1_000_000, 1.2 * 1_000_000**0.25, 1.0)
    with pytest.raises(ValueError, match="ln P underflows.*beyond the double range"):
        lower_bound_chain(10_000_000, 10_000_000**0.25, 1.0)
    # optimize_s checks its bracket's top before it evaluates any slope
    monkeypatch.setattr(radial, "_node_table", None)
    with pytest.raises(ValueError, match=r"ln s = 11\d\d\.\d+ is beyond the double range"):
        optimize_s(1_000_000, 1.5 * 1_000_000**0.25)


@pytest.mark.parametrize("call, value", [
    (lambda: expected_influence_quadrature(64, 2.0, math.inf), "inf"),
    (lambda: expected_influence_quadrature(64, 2.0, math.nan), "nan"),
    (lambda: optimize_s(64, math.inf), "inf"),
    (lambda: optimize_s(64, math.nan), "nan"),
])
def test_non_finite_s_and_r_raise_at_once(call, value):
    # an infinite s used to climb a NaN node ladder to 524288 nodes, and an
    # infinite r left the facet-count optimum unbracketed
    with pytest.raises(ValueError, match=rf"must be finite.*\b{value}$"):
        call()


def test_influence_at_infinite_offset_is_the_whole_space_limit():
    assert expected_influence_quadrature(64, math.inf, 2.0) == 0.0
    assert expected_gsa(64, math.inf, 2.0) == 0.0

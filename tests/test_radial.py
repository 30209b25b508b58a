import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from gsalab import cap, estimators, golden, polytope, radial, specfun
from gsalab.cap import log_complement_upper_from_ratio, log_F_dilation
from gsalab.polytope import NazParams
from gsalab.quadrature import QuadratureConvergenceError, integrate_doubling
from gsalab.radial import (ChainViolationError, QuadratureSpec, choose_s,
                           expected_gsa, expected_influence_quadrature,
                           lower_bound_chain, optimal_c1, optimize_s, scan_report,
                           shell_for)

C1_CLOSED_FORM = math.sqrt(2.0 * math.pi) * math.exp(-0.25)


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


def test_shell_fields():
    shell = shell_for(256)
    assert shell.t == pytest.approx(4.0)
    assert shell.rho_min == pytest.approx(12.0)
    assert shell.rho_max == pytest.approx(20.0)
    with pytest.raises(ValueError):
        shell_for(2)  # the complement bound G the shell carries needs n >= 4


def test_single_halfspace_closed_form():
    # with one facet the expected influence is r * phi(r), independent of n
    for n, r in ((5, 1.0), (16, 2.0), (64, 2.0), (256, 4.0), (1024, 0.5)):
        got = expected_influence_quadrature(n, r, 1.0)
        want = r * specfun.gaussian_pdf(r)
        assert got == pytest.approx(want, rel=1e-10), (n, r)


def test_influence_quadrature_validation():
    with pytest.raises(ValueError):
        expected_influence_quadrature(3, 1.0, 2.0)
    with pytest.raises(ValueError):
        expected_influence_quadrature(16, -1.0, 2.0)
    with pytest.raises(ValueError):
        expected_influence_quadrature(16, 1.0, 0.5)


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


def test_choose_s_frozen_regression():
    # s = round(c1 / F(sqrt(n) - n^(1/4))) at n = 64, r = 64^(1/4); value
    # frozen from a direct evaluation of F at the inner shell edge
    c1_star, _ = optimal_c1()
    assert choose_s(64, 64**0.25, c1_star) == 182160


def test_choose_s_linear_in_c1():
    c1_star, _ = optimal_c1()
    s1 = choose_s(64, 64**0.25, c1_star)
    s2 = choose_s(64, 64**0.25, 2.0 * c1_star)
    assert abs(s2 - 2 * s1) <= 1


def test_choose_s_monotonicity_guard_passes():
    c1_star, _ = optimal_c1()
    for n in (64, 256, 1024, 4096):
        assert choose_s(n, n**0.25, c1_star) >= 1


def test_choose_s_rejects_dimension_below_four():
    # below n = 4 there is no complement bound G, hence no shell; a small r
    # must be rejected for the dimension, not computed from a shell edge
    for n in (2, 3):
        with pytest.raises(ValueError, match="n >= 4"):
            choose_s(n, 0.1, 1.9)


def test_choose_s_degenerate_shell_rejected():
    with pytest.raises(ValueError):
        choose_s(16, 16**0.25, 1.9)  # sqrt(16) - 16^(1/4) == r exactly


def test_choose_s_takes_inf_F_at_the_outer_edge():
    # r = 0.9 puts the peak of F, at r sqrt(n - 2) = 7.09, inside the shell
    # [5.17, 10.83]; F then falls to its infimum at the outer edge
    c1_star, _ = optimal_c1()
    shell = shell_for(64)
    inner, outer = log_F_dilation(64, 0.9, np.array([shell.rho_min, shell.rho_max]))
    assert outer < inner
    assert choose_s(64, 0.9, c1_star) == round(c1_star / math.exp(outer)) == 29


def test_optimal_c1_closed_forms():
    c_star, value = optimal_c1()
    assert abs(c_star - C1_CLOSED_FORM) <= 1e-8
    assert abs(value - math.exp(-1.25)) <= 1e-9


def test_optimal_c1_is_interior_max():
    c_star, value = optimal_c1()
    rate = math.exp(0.25) / math.sqrt(2.0 * math.pi)

    def objective(c):
        return c / math.sqrt(2.0 * math.pi) * math.exp(-rate * c)

    assert objective(c_star / 2.0) < value
    assert objective(2.0 * c_star) < value


def test_optimize_s_dominates_selection_rule():
    c1_star, _ = optimal_c1()
    n, r = 4096, 4096**0.25
    s_star, gsa_star = optimize_s(n, r)
    gsa_rule = expected_gsa(n, r, float(choose_s(n, r, c1_star)))
    assert gsa_star >= gsa_rule - 1e-9


def test_optimize_s_unimodal_neighborhood():
    n, r = 256, 4.0
    s_star, gsa_star = optimize_s(n, r)
    assert gsa_star > expected_gsa(n, r, max(1.0, s_star / 2.0))
    assert gsa_star > expected_gsa(n, r, 2.0 * s_star)


@pytest.mark.xfail(
    strict=True,
    reason="measured: the selection rule pins s to the inner shell edge where the "
    "integrand is negligible; at n=4096 it lands four orders of magnitude above "
    "the true optimum (2.9e19 vs 1.8e15), not within a factor of 3")
def test_optimize_s_within_factor_three_of_rule():
    c1_star, _ = optimal_c1()
    n, r = 4096, 4096**0.25
    s_star, _ = optimize_s(n, r)
    s_rule = choose_s(n, r, c1_star)
    assert s_rule / 3.0 <= s_star <= s_rule * 3.0


def test_chain_ordering_moderate_config():
    # a configuration where nothing underflows: all four steps are positive
    rep = lower_bound_chain(64, 64**0.25, 502.0)
    assert rep.exact_quadrature > 0.0
    assert 0.0 < rep.bernoulli_value <= rep.chain_value <= rep.exact_quadrature
    assert rep.log_chain_value == pytest.approx(math.log(rep.chain_value), rel=1e-12)
    assert rep.gsa_lower == pytest.approx(rep.chain_value / rep.r, rel=1e-14)


def test_chain_ordering_at_selection_rule():
    c1_star, _ = optimal_c1()
    s = float(choose_s(256, 4.0, c1_star))
    rep = lower_bound_chain(256, 4.0, s)
    assert rep.chain_value <= rep.exact_quadrature + 1e-10
    # the chain's c1 is exactly s * F at the inner shell edge; choose_s rounds
    # s to a facet count, so c1 meets the target only to within inf F / 2
    inner_edge = shell_for(256).rho_min
    assert rep.c1 == pytest.approx(s * math.exp(log_F_dilation(256, 4.0, inner_edge)),
                                   rel=1e-12)
    assert abs(rep.c1 - c1_star) <= rep.inf_F / 2.0


def test_chain_stitch_factor_near_one_at_large_n():
    c1_star, _ = optimal_c1()
    n = 4096
    s = float(choose_s(n, n**0.25, c1_star))
    rep = lower_bound_chain(n, n**0.25, s)
    assert 0.99 < rep.stitch_factor_min <= 1.0


@pytest.mark.xfail(
    strict=True,
    reason="measured: the complement bound G is not flat across the shell; its log "
    "varies by about 2 n^(1/4) (sup/inf - 1 is 1.9e7 at n=4096 and grows with n)")
def test_chain_complement_bound_flat_on_shell():
    c1_star, _ = optimal_c1()
    flatness = []
    for n in (256, 1024, 4096):
        s = float(choose_s(n, n**0.25, c1_star))
        rep = lower_bound_chain(n, n**0.25, s)
        flatness.append(rep.sup_G / rep.inf_G - 1.0)
    assert flatness[-1] <= 0.25
    assert flatness[0] >= flatness[1] >= flatness[2]


def test_shell_volume_nearly_full():
    for n in (256, 1024, 4096):
        rep = lower_bound_chain(n, n**0.25, 100.0)
        assert rep.vol_shell > 0.95


def test_chain_dominance_across_scan():
    for rep in scan_report([64, 256], [0.75, 1.0, 1.25]):
        assert rep.chain_value <= rep.exact_quadrature + 1e-10
        assert rep.bernoulli_value <= rep.chain_value + 1e-10


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

    return integrate_doubling(integrand, max(spec.rho_lo, 1e-9), spec.rho_hi,
                              nodes=128, rel_tol=1e-10)


def test_naz_prime_expected_influence_scales_like_sqrt_n():
    # Gaussian-normal variant at w = n^(3/4) with s = exp(Theta(sqrt(n)))
    for n in (64, 256, 1024):
        w = n**0.75
        s = max(1.0, round(1.0 / specfun.gaussian_tail(n**0.25)))
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
    c1_star, _ = optimal_c1()
    for n, r, s in ((64, 2.0, 50.0), (256, 4.0, 35720.0),
                    (1024, 1024**0.25, 2000.0),
                    (4096, 8.0, float(choose_s(4096, 8.0, c1_star)))):
        try:
            lower_bound_chain(n, r, s)
        except ChainViolationError as exc:
            pytest.fail(f"chain violation on valid config: {exc}")


# Every LowerBoundReport field, in field order (n, r, s, alpha, c1,
# exact_quadrature, chain_value, bernoulli_value, gsa_lower, ratio_to_n14,
# log_chain_value, log_bernoulli_value, vol_shell, inf_F, inf_G, sup_G,
# stitch_factor_min), frozen from the per-point shell search the shared
# grid replaced; s is the optimized facet count.  At (16, 1.0) the shell's
# inner edge is r itself, so inf F is 0; its stitch factor changes in the
# last bits if built with numpy's exp instead of math.exp.
CHAIN_FROZEN = {
    (16, 1.0): (
        16, 2.0, 55.0, 1.0, 0.0, 1.5762345344626725, 0.0, 0.0, 0.0, 0.3940586336156681,
        -math.inf, -math.inf, 0.9960098159411965, 0.0, 0.00017573784751750537,
        0.17031133923756295, -0.8915380954049978),
    (64, 0.75): (
        64, 2.121320343559643, 63.0, 0.75, 0.09376266196327206, 1.8792224143871572,
        0.059137029695986165, 0.0009216311908071171, 0.027877463144841366,
        0.3132037357311928, -2.8278979907770827, -6.989365424403599,
        0.9999335267795912, 0.0014882962216392391, 0.0007444659587320177,
        0.08187149157070331, 0.5416868780186621),
    (1024, 1.2): (
        1024, 6.788225099390856, 235609419571.0, 1.2, 3.548627629420801e-05,
        12.442537498487965, 0.0, 0.0, 0.0, 0.3240244140231241, -1009.5791193352374,
        -1027.4330844952678, 0.9999999999998848, 1.5061484536068977e-16,
        9.203463538303842e-17, 4.328064565031297e-09, 0.9999955865306699),
    (4096, 1.0): (
        4096, 8.0, 1768540977739982.0, 1.0, 0.00011924264416535228, 19.709494973121586,
        0.0, 0.0, 0.0, 0.3079608589550248, -1046.5478999433185, -1063.0712695987052,
        1.0000000000000497, 6.742430379969622e-20, 3.174130780283482e-20,
        5.978242484659865e-13, 0.9999999993679344),
    (65536, 0.9): (
        65536, 14.4, 4.039999896875547e+46, 0.9, 1.156063732807215e-06, 66.6943625873116,
        0.0, 0.0, 0.0, 0.28947205984076213, -155226.139236604, -155252.2204684752,
        0.9999999999822339, 2.8615439661305214e-53, 1.5325591742818079e-53,
        3.8426529744801997e-42, 1.0),
}


@pytest.mark.parametrize("n, alpha", sorted(CHAIN_FROZEN))
def test_chain_frozen_regression(n, alpha):
    r = alpha * n**0.25
    s_star, _ = optimize_s(n, r)
    rep = lower_bound_chain(n, r, float(s_star))
    assert dataclasses.astuple(rep) == CHAIN_FROZEN[(n, alpha)]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(4, 100_000), alpha=st.floats(0.05, 2.0),
       s=st.one_of(st.just(1.0), st.floats(1.0, 1e12)))
def test_shell_edge_reads_are_the_grid_minima(n, alpha, s):
    # alpha below about n^(-1/4) puts the peak of F, at r sqrt(n - 2), inside
    # the shell; every edge read must still equal the minimum over the grid
    r = alpha * n**0.25
    shell = shell_for(n)
    xs = np.linspace(shell.rho_min, shell.rho_max, radial._SHELL_GRID)
    log_f = log_F_dilation(n, r, xs)
    log_g = log_complement_upper_from_ratio(n, r / xs)
    log_1m_g = radial._log_1m_g(log_g)
    log_s = math.log(s)
    grid_minima = (
        float(log_f.min()), float(log_g.min()), float(log_g.max()),
        float((s * log_1m_g).min()),
        min(radial._stitch_log(log_s, g) for g in log_g.tolist()),
        min(radial._stitch_factor(log_s, g) for g in log_g.tolist()))
    assert radial._shell_edge_reads(log_f, log_g, log_1m_g, s) == grid_minima


# (n, alpha) cells whose v2 read 0 * log(1 - G) = 0 * (-inf) = NaN at s = 1
S_ONE_CELLS = [(4, 0.5), (4, 0.75), (4, 1.0), (4, 1.25), (5, 0.5), (5, 0.75),
               (6, 0.5), (7, 0.5), (8, 0.5)]


@pytest.mark.parametrize("n, alpha", S_ONE_CELLS)
def test_chain_at_one_facet_is_not_nan(n, alpha):
    # (1 - G)^0 is 1 even where G >= 1: v2 is s F, with no NaN to let the
    # ordering checks pass vacuously
    r = alpha * n**0.25
    rep = lower_bound_chain(n, r, 1.0)
    assert not math.isnan(rep.log_chain_value)
    assert rep.exact_quadrature == pytest.approx(r * specfun.gaussian_pdf(r), rel=1e-8)
    if n >= 6:
        assert 0.0 < rep.chain_value < rep.exact_quadrature
    else:  # the inner shell edge lies below r, where F is 0
        assert rep.log_chain_value == -math.inf


def test_chain_evaluates_the_exact_complement_on_one_grid(monkeypatch):
    # log P is the chain's costly integrand: one call covers the whole shell
    # grid, one is the quadrature's early-exit bound at the window's lower
    # edge and the rest are its node tables; evaluating it point by point
    # took 552 calls, and a golden refinement of v1 added 39 one-point calls
    calls = []
    exact = radial.cap_log_complement_from_ratio

    def recorder(n, u):
        calls.append(np.size(u))
        return exact(n, u)

    radial._node_table.cache_clear()
    radial._log_p_max.cache_clear()
    monkeypatch.setattr(radial, "cap_log_complement_from_ratio", recorder)
    lower_bound_chain(1024, 1024**0.25, 2000.0)
    assert calls.count(513) == 1
    assert calls.count(1) == 1
    tables = [size for size in calls if size not in (1, 513)]
    assert tables and all(size in {128 << k for k in range(13)} for size in tables)


def test_chain_runs_no_golden_search(monkeypatch):
    # v1 and v2 are grid minima; a golden refinement of each made 2 searches
    searches = []

    def spy(search):
        def counted(*args, **kwargs):
            searches.append(args[1:3])
            return search(*args, **kwargs)
        return counted

    monkeypatch.setattr(golden, "golden_section_max", spy(golden.golden_section_max))
    monkeypatch.setattr(radial, "golden_section_max", spy(radial.golden_section_max))
    lower_bound_chain(1024, 1024**0.25, 2000.0)
    assert searches == []


@settings(max_examples=100, deadline=None)
@given(n=st.integers(4, 100_000), alpha=st.floats(0.05, 2.0),
       s=st.one_of(st.just(1.0), st.floats(1.0, 1e12)))
def test_v1_and_v2_grid_minima_sit_at_a_shell_edge(n, alpha, s):
    # the premise for taking v1 and v2 as grid minima: wherever their minimum
    # over the shell grid is finite it is an edge value, so the grid shows no
    # interior dip for a finer search to refine; -inf minima (F = 0 below r,
    # G >= 1) are exact at any resolution
    r = alpha * n**0.25
    shell = shell_for(n)
    xs = np.linspace(shell.rho_min, shell.rho_max, radial._SHELL_GRID)
    log_f = log_F_dilation(n, r, xs)
    log_p = specfun.log1mexp(cap.cap_log_complement_from_ratio(n, r / xs))
    log_1m_g = specfun.log1mexp(np.minimum(log_complement_upper_from_ratio(n, r / xs), 0.0))

    def power(log_base):
        return (s - 1.0) * log_base if s != 1.0 else 0.0

    log_s = math.log(s)
    for vals in (log_s + specfun.log_tau_n(n) + log_f + power(log_p),
                 log_s + log_f + power(log_1m_g)):
        low = float(vals.min())
        assert not math.isnan(low)
        if math.isfinite(low):
            assert low in (float(vals[0]), float(vals[-1]))


def coarse_grid(n, alpha, widen):
    # optimize_s's ln s grid at bracket attempt `widen` (the half width doubles)
    r = alpha * n**0.25
    center = -float(log_complement_upper_from_ratio(n, r / math.sqrt(n)))
    half_width = math.log(1e3) * 2.0**widen
    lo = max(0.0, center - half_width)
    return r, np.linspace(lo, max(lo + 1.0, center + half_width), radial._COARSE_GRID)


def assert_grid_is_one_point_grid(n, r, grid):
    try:
        want = [expected_gsa(n, r, math.exp(g)) for g in grid]
    except QuadratureConvergenceError as exc:
        with pytest.raises(QuadratureConvergenceError) as err:
            radial.expected_gsa_grid(n, r, grid)
        assert str(err.value) == str(exc)
        assert err.value.history == exc.history
        return None
    got = radial.expected_gsa_grid(n, r, grid)
    assert got.tolist() == want
    return got


@settings(max_examples=25, deadline=None)
@given(log_n=st.floats(math.log(7), math.log(100_000)), alpha=st.floats(0.5, 1.5),
       widen=st.integers(0, 1))
def test_batched_s_grid_is_the_one_point_grid(log_n, alpha, widen):
    n = int(round(math.exp(log_n)))
    assert_grid_is_one_point_grid(n, *coarse_grid(n, alpha, widen))


@pytest.mark.parametrize("n, alpha, widen, exits", [
    (1000, 0.5, 1, 1), (1000, 0.5, 2, 20), (100_000, 0.5, 1, 7)])
def test_batched_s_grid_keeps_the_underflow_exit(monkeypatch, n, alpha, widen, exits):
    # the top of a widened grid lies below the double range: those s are 0.0
    # without entering the ladder (the next s or so reach 0.0 through it)
    entries = []
    ladder = radial.node_ladder

    def spy(*args, **kwargs):
        entries.append(kwargs["entries"])
        return ladder(*args, **kwargs)

    r, grid = coarse_grid(n, alpha, widen)
    want = [expected_gsa(n, r, math.exp(g)) for g in grid]
    monkeypatch.setattr(radial, "node_ladder", spy)
    got = radial.expected_gsa_grid(n, r, grid)
    assert got.tolist() == want
    assert entries == [radial._COARSE_GRID - exits]
    assert got[-exits:].tolist() == [0.0] * exits


def test_batched_s_grid_settles_each_s_at_its_own_rung(monkeypatch):
    # at (4096, 1.0) some s settle at 256 nodes, the rest need a third rung;
    # only the s still moving are evaluated there
    rows = []
    ladder = radial.node_ladder

    def spy(evaluate, *args, **kwargs):
        def recorder(m, live):
            rows.append((m, len(live)))
            return evaluate(m, live)
        return ladder(recorder, *args, **kwargs)

    monkeypatch.setattr(radial, "node_ladder", spy)
    assert_grid_is_one_point_grid(4096, *coarse_grid(4096, 1.0, 0))
    batched = [entry for entry in rows if entry[1] > 1]
    assert batched[:2] == [(128, 48), (256, 48)]
    assert batched[2][0] == 512 and 0 < batched[2][1] < 48


def test_batched_s_grid_raises_the_first_failing_s():
    # at n = 7 the widened grid's large s do not settle (ROADMAP item 2); the
    # error is the one the first of them raises alone, ladder included
    assert assert_grid_is_one_point_grid(7, *coarse_grid(7, 1.5, 2)) is None


def test_optimize_s_runs_one_ladder_for_its_grid(monkeypatch):
    # one ladder for the 48 grid values, 31 for golden section, 1 for s*;
    # one ladder per grid value made it 80
    calls = []
    ladder = radial.node_ladder

    def spy(*args, **kwargs):
        calls.append(kwargs.get("entries"))
        return ladder(*args, **kwargs)

    monkeypatch.setattr(radial, "node_ladder", spy)
    optimize_s(4096, 4096**0.25)
    assert len(calls) == 33
    assert calls.count(48) == 1


def test_facet_counts_past_the_double_range_raise_value_error():
    # ln s is about 1644 for the selection rule at n = 1e7 and about 1130 at
    # the optimum of (1e6, alpha = 1.5); s would not fit in a double
    c1_star, _ = optimal_c1()
    with pytest.raises(ValueError, match=r"ln s = 1643\.\d+ is beyond the double range"):
        choose_s(10_000_000, 10_000_000**0.25, c1_star)
    with pytest.raises(ValueError, match=r"ln s = 11\d\d\.\d+ is beyond the double range"):
        optimize_s(1_000_000, 1.5 * 1_000_000**0.25)
    with pytest.raises(ValueError, match="facet count must be >= 1"):
        radial.expected_gsa_grid(64, 2.0, np.array([-0.5, 1.0]))


@pytest.mark.parametrize("call, value", [
    (lambda: expected_influence_quadrature(64, 2.0, math.inf), "inf"),
    (lambda: expected_influence_quadrature(64, 2.0, math.nan), "nan"),
    (lambda: radial.expected_gsa_grid(64, math.inf, np.array([1.0, 2.0])), "inf"),
    (lambda: radial.expected_gsa_grid(64, math.nan, np.array([1.0, 2.0])), "nan"),
    (lambda: radial.expected_gsa_grid(64, 2.0, np.array([1.0, math.nan])), "nan"),
    (lambda: optimize_s(64, math.inf), "inf"),
    (lambda: optimize_s(64, math.nan), "nan"),
])
def test_non_finite_s_and_r_raise_at_once(call, value):
    # an infinite s used to climb a NaN node ladder to 524288 nodes, and an
    # infinite r left the facet-count optimum unbracketed
    with pytest.raises(ValueError, match=rf"must be finite.*\b{value}$"):
        call()


def test_gsa_grid_runs_the_one_point_input_checks():
    # below n = 4 the grid used to return a value (n = 3) or climb to 524288
    # nodes and raise a convergence error (n = 2); both now raise as the
    # one-point call does
    for n in (2, 3):
        with pytest.raises(ValueError, match="radial reduction needs n >= 4"):
            expected_influence_quadrature(n, 0.5, 2.0)
        with pytest.raises(ValueError, match="radial reduction needs n >= 4"):
            radial.expected_gsa_grid(n, 0.5, np.array([math.log(2.0)]))
    for r in (0.0, -1.0):
        with pytest.raises(ValueError, match="offset r must be > 0"):
            expected_influence_quadrature(64, r, 2.0)
        with pytest.raises(ValueError, match="offset r must be > 0"):
            radial.expected_gsa_grid(64, r, np.array([1.0]))


def test_empty_gsa_grid_is_an_empty_array():
    for empty in ([], np.array([])):
        got = radial.expected_gsa_grid(64, 2.0, empty)
        assert isinstance(got, np.ndarray) and got.shape == (0,)
    with pytest.raises(ValueError, match="n >= 4"):
        radial.expected_gsa_grid(3, 2.0, [])


def test_influence_at_infinite_offset_is_the_whole_space_limit():
    assert expected_influence_quadrature(64, math.inf, 2.0) == 0.0
    assert expected_gsa(64, math.inf, 2.0) == 0.0

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln as scipy_gammaln

from gsalab import specfun


def test_pdf_values():
    assert specfun.gaussian_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-12)
    assert specfun.gaussian_pdf(1.0) == pytest.approx(0.2419707245191434, abs=1e-12)


def test_pdf_of_a_huge_numpy_offset_is_zero_without_warning():
    # x * x overflows: an np.float64 warns there, a Python float is inf
    assert specfun.gaussian_pdf(np.float64(1e300)) == 0.0


@given(st.floats(min_value=-30, max_value=30))
def test_pdf_symmetry(x):
    assert specfun.gaussian_pdf(-x) == specfun.gaussian_pdf(x)


def test_log_gamma_values():
    assert specfun.log_gamma(1.0) == 0.0
    assert specfun.log_gamma(0.5) == pytest.approx(0.5723649429247001, abs=1e-12)
    assert specfun.log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-12)
    with pytest.raises(ValueError):
        specfun.log_gamma(0.0)
    with pytest.raises(ValueError):
        specfun.log_gamma(-2.5)


def test_log_gamma_against_scipy():
    for a in np.geomspace(0.1, 1e6, 200):
        assert specfun.log_gamma(float(a)) == pytest.approx(
            float(scipy_gammaln(a)), abs=1e-12, rel=1e-13)


def test_tau_values():
    assert math.exp(specfun.log_tau_n(2)) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert math.exp(specfun.log_tau_n(3)) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(ValueError):
        specfun.log_tau_n(1)


def test_tau_large_n_bracket():
    n = 10**6
    root = math.sqrt(n / (2.0 * math.pi))
    value = math.exp(specfun.log_tau_n(n))
    assert root * (1.0 - 1.0 / n) <= value <= root


def test_tau_recurrence():
    # tau_n * tau_{n-1} = (n-2)/(2 pi), from the Gamma shift identity
    for n in range(4, 101):
        lhs = specfun.log_tau_n(n) + specfun.log_tau_n(n - 1)
        rhs = math.log((n - 2) / (2.0 * math.pi))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_tau_upper_bound_log_sampled():
    for n in np.unique(np.logspace(math.log10(2), 6, 200).astype(int)):
        assert math.exp(specfun.log_tau_n(int(n))) <= math.sqrt(n / (2.0 * math.pi))


def test_chi_log_density_values():
    assert specfun.chi_log_density(1, 1.0) == pytest.approx(
        math.log(2.0 * specfun.gaussian_pdf(1.0)), abs=1e-12)
    assert specfun.chi_log_density(2, 1.0) == pytest.approx(-0.5, abs=1e-14)
    with pytest.raises(ValueError):
        specfun.chi_log_density(2, 0.0)
    with pytest.raises(ValueError):
        specfun.chi_log_density(2, -1.0)


@pytest.mark.parametrize("n", [2, 64, 4096])
def test_chi_density_normalizes(n):
    grid = np.linspace(1e-9, math.sqrt(n) + 12.0, 2_000_001)
    total = np.trapezoid(np.exp(specfun.chi_log_density(n, grid)), grid)
    assert abs(total - 1.0) <= 1e-8


@pytest.mark.parametrize("n", [2, 5, 64, 1024])
def test_chi_density_mode(n):
    mode = math.sqrt(n - 1) if n > 1 else 0.0
    h = 1e-5
    lo = specfun.chi_log_density(n, mode - h)
    mid = specfun.chi_log_density(n, mode)
    hi = specfun.chi_log_density(n, mode + h)
    assert mid >= lo and mid >= hi


def test_log1mexp_edges():
    assert specfun.log1mexp(-math.inf) == 0.0
    assert specfun.log1mexp(0.0) == -math.inf
    assert specfun.log1mexp(-1e-18) == pytest.approx(math.log(1e-18), rel=1e-12)
    assert specfun.log1mexp(-50.0) == pytest.approx(-math.exp(-50.0), rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.floats(-60.0, 0.0), st.sampled_from([-math.inf, 0.0])),
                min_size=1, max_size=8))
def test_log1mexp_array_is_its_one_point_calls(qs):
    # near (q > -ln 2) and far branches, mixed or one alone: the same bits
    got = specfun.log1mexp(np.array(qs))
    assert got.tolist() == [specfun.log1mexp(q) for q in qs]


def test_branchwise_fills_uncovered_elements_and_skips_masks_for_one_branch():
    x = np.array([1.0, 2.0, 3.0])
    cases = [(x > 1.5, lambda v: 10 * v)]
    assert specfun.branchwise(cases, (x,)).tolist() == [-math.inf, 20.0, 30.0]
    seen = []
    specfun.branchwise([(x > 0.0, lambda v: seen.append(v) or v)], (x,))
    assert seen[0] is x  # the whole array, not a masked copy

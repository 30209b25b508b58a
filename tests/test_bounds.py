import math

import numpy as np
import pytest
from scipy.stats import chi as chi_dist

from gsalab import bounds, estimators, specfun
from gsalab.polytope import Ball

from oracles import ball_influence_quadrature


def test_ball_upper_values():
    assert bounds.ball_upper(1) == 4.0
    assert bounds.ball_upper(16) == 8.0
    assert bounds.ball_upper(10**4) == pytest.approx(40.0, rel=1e-14)
    with pytest.raises(ValueError):
        bounds.ball_upper(0)


def test_raic_values():
    assert bounds.raic_upper(1) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
    assert bounds.raic_upper(16) == pytest.approx(1.3878845608028654, rel=1e-14)


def test_raic_below_ball():
    for n in np.unique(np.logspace(0, 6, 300).astype(int)):
        assert bounds.raic_upper(int(n)) <= bounds.ball_upper(int(n))


def test_nazarov_curve():
    assert bounds.E_M54 == pytest.approx(0.2865, abs=5e-5)
    assert bounds.nazarov_lower(16) == pytest.approx(2.0 * bounds.E_M54, rel=1e-14)
    for n in np.unique(np.logspace(0, 6, 300).astype(int)):
        assert bounds.nazarov_lower(int(n)) < bounds.raic_upper(int(n))


def test_gsa_ball_low_dimensions():
    # the GSA of the radius-R sphere is the chi_n density at R: at n = 1 the
    # two boundary points 2 phi(R), at n = 2 the Rayleigh density R e^(-R^2/2)
    for theta in (0.3, 1.0, 2.2):
        assert math.exp(specfun.chi_log_density(1, theta)) == pytest.approx(
            2.0 * specfun.gaussian_pdf(theta), rel=1e-13)
    assert math.exp(specfun.chi_log_density(2, 1.0)) == pytest.approx(math.exp(-0.5),
                                                                       rel=1e-13)


def test_gsa_ball_influence_identity():
    # R * GSA(sphere_R) equals the radial moment integral of (n - rho^2)
    for n in range(2, 11):
        for R in (0.5, 1.0, 2.0, 3.0):
            lhs = R * chi_dist.pdf(R, n)
            rhs = ball_influence_quadrature(n, R)
            assert abs(lhs - rhs) <= 1e-8, (n, R)


def test_ball_influence_quadrature_against_scipy():
    from scipy.integrate import quad

    for n, R in ((4, 1.0), (7, 2.0)):
        ref, _ = quad(lambda rho: chi_dist.pdf(rho, n) * (n - rho**2), 0.0, R,
                      epsabs=1e-12, epsrel=1e-12)
        assert ball_influence_quadrature(n, R) == pytest.approx(ref, abs=1e-9)


def test_final_var_holds_for_balls():
    for n in (2, 4, 8):
        for R in (0.5, 1.0, 2.0, 3.0):
            vol = float(chi_dist.cdf(R, n))
            assert chi_dist.pdf(R, n) <= bounds.final_var_upper(n, vol, R)


def test_final_var_degenerate_volumes():
    assert bounds.final_var_upper(4, 0.0, 1.0) == 0.0
    assert bounds.final_var_upper(4, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        bounds.final_var_upper(4, 1.5, 1.0)
    with pytest.raises(ValueError):
        bounds.final_var_upper(4, 0.5, 0.0)


def test_thin_slab_divergence():
    # bound / true surface area blows up for a thin slab: counterexample to
    # any hope that the variance bound alone is uniformly tight
    theta = 0.01
    vol = 1.0 - 2.0 * specfun.gaussian_tail(theta)
    bound = bounds.final_var_upper(1, vol, theta)
    true_gsa = 2.0 * specfun.gaussian_pdf(theta)
    assert bound / true_gsa > 10.0


def test_final_deg2_zero_coefficients():
    assert bounds.final_deg2_upper(6, [0.0] * 6, 1.0) == 0.0


def test_final_deg2_tighter_than_final_var():
    # diagonal degree-2 coefficients are a sub-sum of the indicator variance
    ball = Ball(n=4, radius=1.0)
    samples, seed = 200_000, 51
    coeffs = estimators.estimate_hermite_coefficients(ball, samples, seed)
    volume = estimators.estimate_volume(ball, samples, seed)
    deg2 = bounds.final_deg2_upper(4, [c.value for c in coeffs], 1.0)
    var_bound = bounds.final_var_upper(4, volume.value, 1.0)
    stderr = math.sqrt(2 * 4) * math.sqrt(sum(c.stderr**2 for c in coeffs))
    assert deg2 <= var_bound + 4 * stderr


def test_final_deg2_covers_ball_surface():
    ball = Ball(n=4, radius=1.0)
    coeffs = estimators.estimate_hermite_coefficients(ball, 200_000, seed=52)
    deg2 = bounds.final_deg2_upper(4, [c.value for c in coeffs], 1.0)
    stderr = math.sqrt(2 * 4) * math.sqrt(sum(c.stderr**2 for c in coeffs))
    assert deg2 >= chi_dist.pdf(1.0, 4) - 4 * stderr


def test_sphere_peak_surface_is_order_one():
    for n in (1, 2, 8, 64, 256):
        grid = np.linspace(0.05, math.sqrt(n) + 3.0, 4000)
        peak = float(chi_dist.pdf(grid, n).max())
        assert 0.4 <= peak <= 0.85
        assert peak <= bounds.ball_upper(n)

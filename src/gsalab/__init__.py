"""Numerical laboratory for the Gaussian surface area of convex bodies.

Exact spherical-cap measures, convex-influence identities, random halfspace
polytopes, Monte Carlo estimators with standard errors, and the radial
quadrature pipeline whose scalar optimization recovers the shell
lower-bound constant e^(-5/4).
"""

from .bounds import ball_upper, final_deg2_upper, final_var_upper, nazarov_lower, raic_upper
from .cap import (CapQuery, cap_complement_upper_G, cap_log_complement, cap_probability,
                  cap_probability_quadrature)
from .estimators import (Estimate, estimate_gsa_facets, estimate_hermite_2ei,
                         estimate_hermite_coefficients, estimate_influence_spectral,
                         estimate_volume, influence_from_hermite_estimates)
from .hermite import hermite_1d, inner_product_gh
from .polytope import Ball, HalfspacePolytope, NazParams, sample_naz
from .radial import (ChainViolationError, LowerBoundReport, QuadratureSpec, ShellA,
                     choose_s, expected_gsa, expected_influence_quadrature,
                     lower_bound_chain, optimal_c1, optimize_s, scan_report,
                     shell_for)
from .specfun import (TailSandwich, chi_log_density, gaussian_pdf, gaussian_tail,
                      log_gamma, mills_sandwich, tau_n)

__version__ = "0.1.0"

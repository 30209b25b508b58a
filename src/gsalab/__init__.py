"""Numerical laboratory for the Gaussian surface area of convex bodies.

Exact spherical-cap measures, convex-influence identities, random halfspace
polytopes, Monte Carlo estimators with standard errors, and the radial
quadrature pipeline with its finite-n log-average (Jensen) lower bound over
the chi_n law.
"""

from .bounds import ball_upper, final_deg2_upper, final_var_upper, nazarov_lower, raic_upper
from .cap import CapQuery, cap_complement_upper_G, cap_log_complement, cap_probability
from .estimators import (Estimate, estimate_gsa_facets, estimate_hermite_coefficients,
                         estimate_influence_spectral, estimate_volume,
                         influence_from_hermite_estimates)
from .polytope import Ball, HalfspacePolytope, NazParams, sample_naz
from .radial import (ChainViolationError, LowerBoundReport, QuadratureSpec, expected_gsa,
                     expected_influence_quadrature, lower_bound_chain, optimize_s,
                     scan_report)
from .specfun import chi_log_density, gaussian_pdf, log_gamma

__version__ = "0.1.0"

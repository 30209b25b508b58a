"""Test-only oracles: independent routes to numbers the library reports.

Not collected by pytest (the name does not match test_*.py); the test
modules import it from their own directory.
"""

import numpy as np

from gsalab.quadrature import integrate_doubling
from gsalab.specfun import chi_log_density


def ball_influence_quadrature(n: int, R: float) -> float:
    """Influence of the radius-R ball as the radial moment integral.

    integral_0^R chi_n(rho) (n - rho^2) drho; the independent oracle for the
    exact sphere surface-area formula via influence = R * GSA.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not R > 0.0:
        raise ValueError(f"radius must be > 0, got {R}")

    def integrand(rho):
        return np.exp(chi_log_density(n, rho)) * (n - rho**2)

    return integrate_doubling(integrand, 0.0, R, nodes=64, rel_tol=1e-12)

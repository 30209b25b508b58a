"""Test-only oracles: independent routes to numbers the library reports.

Not collected by pytest (the name does not match test_*.py); the test
modules import it from their own directory.
"""

import numpy as np

from gsalab import cap
from gsalab.quadrature import integrate_doubling
from gsalab.specfun import chi_log_density


def ball_influence_quadrature(n: int, R: float) -> float:
    """Influence of the radius-R ball as the radial moment integral.

    integral_0^R chi_n(rho) (n - rho^2) drho; the independent oracle for the
    sphere's surface area, the chi_n density at R, via influence = R * GSA.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not R > 0.0:
        raise ValueError(f"radius must be > 0, got {R}")

    def integrand(rho):
        return np.exp(chi_log_density(n, rho)) * (n - rho**2)

    return integrate_doubling(integrand, 0.0, R, nodes=64, rel_tol=1e-12)


def betacf_reference(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The allocating loop `cap._betacf` replaced, kept as its bitwise oracle.

    Modified Lentz on the convergent side x < (a+1)/(a+b+2); every element
    iterates until the last one has converged.  Reads the constants of `cap`
    at call time, so that a patched clamp or iteration cap reaches both.
    """
    fpmin = cap._FPMIN
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < fpmin, fpmin, d)
    d = 1.0 / d
    h = d.copy()
    converged = np.zeros(x.shape, dtype=bool)
    for m in range(1, cap._BETACF_ITMAX + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < fpmin, fpmin, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < fpmin, fpmin, c)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < fpmin, fpmin, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < fpmin, fpmin, c)
        d = 1.0 / d
        delta = d * c
        h *= delta
        converged |= np.abs(delta - 1.0) < cap._BETACF_EPS
        if converged.all():
            break
    else:
        raise RuntimeError(
            f"incomplete beta continued fraction stalled at a={a}, b={b}"
        )
    return h

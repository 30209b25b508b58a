"""Test-only oracles: independent routes to numbers the library reports.

Not collected by pytest (the name does not match test_*.py); the test
modules import it from their own directory.
"""

import math

import numpy as np
from scipy.integrate import quad

from gsalab import cap, rng
from gsalab.estimators import Estimate
from gsalab.polytope import _satisfies_all
from gsalab.specfun import chi_log_density, gaussian_pdf


def ball_influence_quadrature(n: int, R: float) -> float:
    """Influence of the radius-R ball as the radial moment integral.

    integral_0^R chi_n(rho) (n - rho^2) drho; the independent oracle for the
    sphere's surface area, the chi_n density at R, via influence = R * GSA.
    Integrated by scipy.integrate.quad, off the library's own node ladder.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not R > 0.0:
        raise ValueError(f"radius must be > 0, got {R}")

    def integrand(rho):
        return math.exp(chi_log_density(n, rho)) * (n - rho**2)

    return quad(integrand, 0.0, R, epsabs=0.0, epsrel=1e-12)[0]


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


def facet_pass_reference(K, samples_per_facet: int, seed: int) -> Estimate:
    """The copy-based facet loop `estimators.estimate_gsa_facets` replaced.

    For every facet i it copies the other s - 1 normals and offsets and tests
    the in-hyperplane points against that copy; kept as the bitwise oracle
    of the pass that tests against the polytope as stored.
    """
    if samples_per_facet < 2:
        raise ValueError("samples_per_facet must be >= 2")
    normals = K.normals
    offsets = K.offsets
    value = 0.0
    variance = 0.0
    for i in range(K.num_facets):
        v = normals[i]
        others = np.delete(np.arange(K.num_facets), i)
        other_normals, other_offsets = normals[others], offsets[others]
        hits = 0
        for g in rng.gaussian_chunks(K.n, samples_per_facet, seed, rng.DOMAIN_BOUNDARY, i):
            g -= np.outer(g @ v, v)
            g += offsets[i] * v
            hits += int(_satisfies_all(g, other_normals, other_offsets).sum())
        p_hat = hits / samples_per_facet
        density = gaussian_pdf(offsets[i])
        value += density * p_hat
        sample_var = p_hat * (1.0 - p_hat) * samples_per_facet / (samples_per_facet - 1)
        variance += density**2 * sample_var / samples_per_facet
    return Estimate(value=value, stderr=math.sqrt(variance),
                    samples=samples_per_facet, seed=seed)

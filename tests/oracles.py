"""Test-only oracles: independent routes to numbers the library reports.

Not collected by pytest (the name does not match test_*.py); the test
modules import it from their own directory.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import betainc, gammaln

from gsalab import cap, radial, rng
from gsalab.estimators import Estimate
from gsalab.polytope import _satisfies_all
from gsalab.specfun import chi_log_density, gaussian_pdf, log_tau_n


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


def cap_probability_angle(n: int, u: float) -> float:
    """Cap measure P[x.v <= r] at u = r/||x||, in the angle variable.

    tau_n * integral_{-pi/2}^{asin u} cos^(n-2) theta: z = sin(theta) makes
    the integrand bounded and smooth for every n >= 2.  Integrated by
    scipy.integrate.quad, off the incomplete-beta route cap_probability takes;
    u >= 1 integrates over the whole half-turn.
    """
    upper = math.asin(min(u, 1.0))
    integral = quad(lambda theta: math.cos(theta) ** (n - 2), -math.pi / 2.0, upper,
                    epsabs=1e-14, epsrel=1e-12)[0]
    return math.exp(log_tau_n(n)) * integral


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


def _radial_window(n: int, r: float):
    """The radial integral's window, [max(sqrt(n) - 12, r), sqrt(n) + 12]."""
    return max(math.sqrt(n) - 12.0, r), math.sqrt(n) + 12.0


def _peak_cuts(log_f, lo: float, hi: float):
    """Split points of [lo, hi] for an integrand exp(log_f): the peak of the
    vectorized log_f and where it falls 80 below, on a grid dense both
    uniformly and geometrically near lo, where item-2 slivers sit."""
    t = np.unique(np.concatenate((np.logspace(-15.0, 0.0, 3001), np.linspace(0.0, 1.0, 4001))))
    rho = lo + (hi - lo) * t[t > 0.0]
    values = log_f(rho)
    k = int(np.argmax(values))
    alive = np.flatnonzero(values > values[k] - 80.0)
    cuts = {lo, float(rho[k]), hi, float(rho[max(alive[0] - 1, 0)]),
            float(rho[min(alive[-1] + 1, rho.size - 1)])}
    return sorted(cuts), float(rho[k])


def influence_quad(n: int, r: float, s: float) -> float:
    """E[influence] by scipy.integrate.quad of exp(radial.influence_log_integrand).

    The window is the library's; the integral is split at the log
    integrand's peak and where it falls 80 below, and scaled by the peak,
    off the library's own node ladder.
    """
    lo, hi = _radial_window(n, r)
    cuts, peak_rho = _peak_cuts(lambda rho: radial.influence_log_integrand(n, r, s, rho), lo, hi)
    peak = radial.influence_log_integrand(n, r, s, peak_rho)

    def integrand(rho):
        return math.exp(radial.influence_log_integrand(n, r, s, rho) - peak)

    pieces = [quad(integrand, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
              for a, b in zip(cuts, cuts[1:])]
    return math.exp(peak) * math.fsum(pieces)


def _log_integrand_double(n, r, s, rho):
    """The log radial integrand in doubles from scipy.special, to place the splits."""
    u = r / rho
    log_tau = gammaln(n / 2) - gammaln((n - 1) / 2) - 0.5 * math.log(math.pi)
    log_chi = (n - 1) * np.log(rho) - 0.5 * rho**2 - (n / 2 - 1) * math.log(2.0) - gammaln(n / 2)
    with np.errstate(divide="ignore"):
        log_f = np.log(u) + 0.5 * (n - 3) * np.log1p(-u * u)
        log_p = np.log1p(-0.5 * betainc((n - 1) / 2, 0.5, (1.0 - u) * (1.0 + u)))
    return math.log(s) + log_tau + log_chi + log_f + (s - 1) * log_p


def influence_mpmath(n: int, r: float, s: float, dps: int):
    """E[influence] at dps digits: tanh-sinh (Takahasi & Mori, 1974) in mpmath.

    integral of chi_n(rho) s tau_n F(rho) P(rho)^(s-1) on the library's
    window, written out from its definition (P = 1 - I_{1-u^2}((n-1)/2, 1/2)
    / 2 with u = r / rho) and independent of gsalab.  Split at the log
    integrand's peak and where it falls 80 below: without the split tanh-sinh
    read (256, 4, 1e20) 20 orders low.
    """
    lo, hi = _radial_window(n, r)
    cuts, peak_rho = _peak_cuts(lambda rho: _log_integrand_double(n, r, s, rho), lo, hi)
    with mpmath.workdps(dps):
        n_, r_, s_ = mpmath.mpf(n), mpmath.mpf(r), mpmath.mpf(s)
        a = (n_ - 1) / 2
        log_const = (mpmath.log(s_) - mpmath.loggamma(a) - 0.5 * mpmath.log(mpmath.pi)
                     - (n_ / 2 - 1) * mpmath.log(2))

        def log_f(rho):
            u = r_ / rho
            complement = mpmath.betainc(a, 0.5, 0, 1 - u * u, regularized=True) / 2
            return (log_const + (n_ - 1) * mpmath.log(rho) - rho * rho / 2 + mpmath.log(u)
                    + (n_ - 3) / 2 * mpmath.log1p(-u * u) + (s_ - 1) * mpmath.log1p(-complement))

        peak = log_f(mpmath.mpf(peak_rho))
        total = mpmath.quad(lambda rho: mpmath.exp(log_f(rho) - peak),
                            [mpmath.mpf(c) for c in cuts])
        return +(mpmath.exp(peak) * total)


def influence_reference(n: int, r: float, s: float) -> float:
    """influence_mpmath accepted only where 40 and 70 digits agree to 1e-25."""
    low, high = influence_mpmath(n, r, s, 40), influence_mpmath(n, r, s, 70)
    if not abs(low - high) <= 1e-25 * abs(high):
        raise ArithmeticError(f"mpmath at 40 and 70 digits disagree at {(n, r, s)}: "
                              f"{low} vs {high}")
    return float(high)


# E[influence] at (n, r, s), each generated by influence_reference(n, r, s).
INFLUENCE_REFERENCE = {
    (16, 2.0, 1e30): 0.013758858998889808,
    (64, 4.0, 1e120): 6.4905050592441562e-9,
    (256, 4.0, 1e20): 1.3201350603857045e-40,
    (64, 2.0 * math.sqrt(2.0), 502.0): 2.8025188527463022,
    (4096, 8.0, 1768541444386440.0): 19.709494973095466,
}

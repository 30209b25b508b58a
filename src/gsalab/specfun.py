"""Gaussian special functions and tail bounds.

Everything downstream (cap measures, the radial pipeline) leans on these
primitives, so they are kept exact and log-space friendly.  The Gaussian
tail, Mills-ratio, gamma and tau_n helpers take one number; log1mexp and
chi_log_density are vectorized and return a float for a scalar argument.  Large
exponents appear as soon as the halfspace count s gets big, hence the rule:
compute in logs first, exponentiate last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class TailSandwich:
    """Two-sided Mills-ratio bracket for the standard Gaussian upper tail."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError(f"invalid sandwich: lower={self.lower}, upper={self.upper}")


def gaussian_pdf(x: float) -> float:
    """Standard normal density (2*pi)^(-1/2) * exp(-x^2/2)."""
    return math.exp(-0.5 * x * x) / SQRT_2PI


def gaussian_tail(t: float) -> float:
    """P[N(0,1) >= t], evaluated through erfc for stable far tails."""
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def log_gaussian_cdf(t: float) -> float:
    """log P[N(0,1) <= t]; stays accurate far into the left tail."""
    if t >= -1.0:
        return math.log1p(-gaussian_tail(t))
    # For deep left tails, erfc underflows before its log does.
    return math.log(0.5) + _log_erfc(-t / math.sqrt(2.0))


def _log_erfc(x: float) -> float:
    # erfc(x) for large x via the scaled asymptotic series; plain erfc
    # underflows past x ~ 26.6.
    if x < 25.0:
        return math.log(math.erfc(x))
    # erfc(x) = exp(-x^2)/(x sqrt(pi)) * (1 - 1/(2x^2) + 3/(4x^4) - ...)
    inv2 = 1.0 / (2.0 * x * x)
    series = 1.0 - inv2 * (1.0 - 3.0 * inv2 * (1.0 - 5.0 * inv2))
    return -x * x - math.log(x * math.sqrt(math.pi)) + math.log(series)


def mills_sandwich(t: float) -> TailSandwich:
    """Bracket P[N(0,1) >= t] by (1/t - 1/t^3) phi(t) <= . <= phi(t)/t.

    The lower expression is negative for t <= 1 and is clamped at zero; the
    upper one exceeds one for small t and is clamped at one.
    """
    if not t > 0.0:
        raise ValueError(f"mills_sandwich requires t > 0, got {t}")
    density = gaussian_pdf(t)
    lower = max(0.0, (1.0 / t - 1.0 / t**3) * density)
    upper = min(1.0, density / t)
    return TailSandwich(lower=lower, upper=upper)


def log_gamma(a: float) -> float:
    """ln Gamma(a) for a > 0.  Delegates to the platform Lanczos routine."""
    if not a > 0.0:
        raise ValueError(f"log_gamma requires a > 0, got {a}")
    return math.lgamma(a)


def tau_n(n: int) -> float:
    """Normalizing constant Gamma(n/2) / (sqrt(pi) Gamma((n-1)/2)) of the cap integral."""
    if n < 2:
        raise ValueError(f"tau_n requires n >= 2, got {n}")
    return math.exp(log_tau_n(n))


def log_tau_n(n: int) -> float:
    if n < 2:
        raise ValueError(f"tau_n requires n >= 2, got {n}")
    return log_gamma(n / 2.0) - log_gamma((n - 1) / 2.0) - 0.5 * math.log(math.pi)


def log1mexp(q):
    """log(1 - exp(q)) for q <= 0, split at -ln 2 for precision.

    Vectorized; q = 0 maps to -inf and q = -inf maps to 0.
    """
    scalar = np.isscalar(q)
    q = np.atleast_1d(np.asarray(q, dtype=float))
    out = np.full(q.shape, -np.inf)
    near = q > -math.log(2.0)
    with np.errstate(divide="ignore"):
        out[near] = np.log(-np.expm1(q[near]))
        out[~near] = np.log1p(-np.exp(q[~near]))
    return float(out[0]) if scalar else out


def chi_log_density(n: int, rho):
    """log density of ||x|| for x ~ N(0, I_n), at radius rho > 0.

    ln f(rho) = (n-1) ln rho - rho^2/2 - (n/2 - 1) ln 2 - ln Gamma(n/2).
    Accepts scalars or arrays; rejects nonpositive radii.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr <= 0.0):
        raise ValueError("chi_log_density requires rho > 0")
    norm = (n / 2.0 - 1.0) * math.log(2.0) + log_gamma(n / 2.0)
    out = (n - 1) * np.log(rho_arr) - 0.5 * rho_arr**2 - norm
    if np.isscalar(rho) or out.ndim == 0:
        return float(out)
    return out

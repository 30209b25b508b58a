"""Gaussian special functions.

Everything downstream (cap measures, the radial pipeline) leans on these
primitives, so they are kept exact and log-space friendly.  The Gaussian
density, log_gamma and log_tau_n take one number; log1mexp and
chi_log_density are vectorized and return a float for a scalar argument.
branchwise is the branch dispatch of log1mexp and of cap's vectorized
functions: an array that takes one branch skips the masks.  Large
exponents appear as soon as the halfspace count s gets big, hence the rule:
compute in logs first, exponentiate last.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian_pdf(x: float) -> float:
    """Standard normal density (2*pi)^(-1/2) * exp(-x^2/2).

    x is read as a Python float, whose x * x is inf past 1e154 without the
    overflow warning an np.float64 gives."""
    x = float(x)
    return math.exp(-0.5 * x * x) / SQRT_2PI


def log_gamma(a: float) -> float:
    """ln Gamma(a) for a > 0.  Delegates to the platform Lanczos routine."""
    if not a > 0.0:
        raise ValueError(f"log_gamma requires a > 0, got {a}")
    return math.lgamma(a)


def log_tau_n(n: int) -> float:
    """ln tau_n, with tau_n = Gamma(n/2) / (sqrt(pi) Gamma((n-1)/2)) the
    normalizing constant of the cap integral."""
    if n < 2:
        raise ValueError(f"tau_n requires n >= 2, got {n}")
    return log_gamma(n / 2.0) - log_gamma((n - 1) / 2.0) - 0.5 * math.log(math.pi)


def branchwise(cases, args):
    """Evaluate one formula per branch over 1-D arrays of one shape.

    cases holds (mask, formula) pairs with disjoint boolean masks; a formula
    takes the arrays of args cut to its mask, and elements no mask covers
    are -inf.  When one mask covers every element its formula runs on the
    whole arrays, with no fill, mask cuts or assignment: the cut arrays
    would be the whole arrays, so the result has the same bits.
    """
    for mask, formula in cases:
        if mask.all():
            return formula(*args)
    out = np.full(args[0].shape, -np.inf)
    for mask, formula in cases:
        if mask.any():
            out[mask] = formula(*(arg[mask] for arg in args))
    return out


def log1mexp(q):
    """log(1 - exp(q)) for q <= 0, split at -ln 2 for precision.

    Vectorized; q = 0 maps to -inf and q = -inf maps to 0.
    """
    scalar = np.isscalar(q)
    q = np.atleast_1d(np.asarray(q, dtype=float))
    near = q > -math.log(2.0)
    with np.errstate(divide="ignore"):
        out = branchwise([(near, lambda v: np.log(-np.expm1(v))),
                          (~near, lambda v: np.log1p(-np.exp(v)))], (q,))
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

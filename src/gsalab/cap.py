"""Spherical-cap measure on the unit sphere in R^n.

For a point x and offset r, the cap is the set of directions v with
x.v <= r.  Its measure has the exact one-dimensional form

    P = tau_n * integral_{-1}^{min(r/||x||, 1)} (1 - z^2)^((n-3)/2) dz,

which this module evaluates two independent ways: through the symmetric
regularized incomplete beta function (substituting w = z^2), and through
adaptive Gauss-Legendre quadrature after z = sin(theta) removes the endpoint
singularity.  The beta route also comes in a fully log-space flavour so that
complements far below 1e-300 keep nine significant digits in the log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import adaptive_quad
from .specfun import branchwise, log1mexp, log_gamma, log_tau_n, tau_n

_BETACF_ITMAX = 2000
_BETACF_EPS = 1e-15
_BETACF_BLOCK = 16  # values of m whose numerators one outer product forms
_FPMIN = 1e-300


@dataclass(frozen=True)
class CapQuery:
    """Cap parameters: ambient dimension, point norm, and offset."""

    n: int
    norm_x: float
    r: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"cap measure needs n >= 2, got {self.n}")
        if not (math.isfinite(self.norm_x) and self.norm_x >= 0.0):
            raise ValueError(f"invalid norm_x: {self.norm_x}")
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise ValueError(f"invalid r: {self.r}")


def _betacf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz, vectorized).

    Valid on the convergent side x < (a+1)/(a+b+2) of a 1-D x; the caller is
    responsible for flipping to the symmetric side first.  Every element keeps
    iterating until the last one has converged: the loop stops at the first
    m at which every element has had |delta - 1| < 1e-15, and an element
    that converged earlier still takes its further factors delta (each
    within 1e-15 of 1, but not exactly 1).  So each element's bits depend on
    the batch it is in, and a call that merged, split or trimmed batches
    would change the last bits of log P.

    The loop runs in place: d and c share one (2, k) buffer so that the
    `+ 1`, `abs` and 1e-300 clamp run once for both, and the partial
    numerators aa = num * x / den come in blocks of m from one outer
    product, with num and den the Python floats of the textbook recurrence.
    Every element sees the same operations in the same order as in the
    allocating loop (`tests/oracles.py::betacf_reference`).
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    k = x.size
    dc = np.empty((2, k))
    d, c = dc
    c.fill(1.0)
    d0 = 1.0 - qab * x / qap
    np.divide(1.0, np.where(np.abs(d0) < _FPMIN, _FPMIN, d0), out=d)
    h = d.copy()
    mag = np.empty_like(dc)
    delta = np.empty_like(h)
    hit = np.empty(k, dtype=bool)
    converged = np.zeros(k, dtype=bool)
    m = 1
    while m <= _BETACF_ITMAX:
        block = range(m, min(m + _BETACF_BLOCK, _BETACF_ITMAX + 1))
        num, den = [], []
        for j in block:
            j2 = 2 * j
            num += [j * (b - j), -(a + j) * (qab + j)]
            den += [(qam + j2) * (a + j2), (a + j2) * (qap + j2)]
        aas = np.multiply.outer(num, x)
        aas /= np.array(den)[:, None]
        for pair in aas.reshape(len(block), 2, k):
            for aa in pair:  # the even step of m, then the odd one
                np.multiply(aa, d, out=d)
                np.divide(aa, c, out=c)
                np.add(dc, 1.0, out=dc)
                np.absolute(dc, out=mag)
                # fmin skips NaN, so one NaN element cannot hide a needed clamp
                if np.fmin.reduce(mag, axis=None, initial=np.inf) < _FPMIN:
                    dc[mag < _FPMIN] = _FPMIN
                np.divide(1.0, d, out=d)
                np.multiply(d, c, out=delta)
                h *= delta
            np.subtract(delta, 1.0, out=delta)
            np.absolute(delta, out=delta)
            np.less(delta, _BETACF_EPS, out=hit)
            converged |= hit
            if np.count_nonzero(converged) == k:
                return h
        m = block.stop
    raise RuntimeError(
        f"incomplete beta continued fraction stalled at a={a}, b={b}"
    )


def log_betainc_reg(a: float, b: float, x, cx=None):
    """ln I_x(a, b), the log of the regularized incomplete beta function.

    `cx` may supply 1 - x exactly when x was formed by cancellation-prone
    arithmetic.  Vectorized over x; scalar in, scalar out.
    """
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    cx = 1.0 - x if cx is None else np.atleast_1d(np.asarray(cx, dtype=float))
    # x within 1e-8 below 0 (np.isclose's default reach) reads as 0
    if np.any((x < -1e-8) | (x > 1 + 1e-12)):
        raise ValueError("x must lie in [0, 1]")
    log_beta = log_gamma(a) + log_gamma(b) - log_gamma(a + b)
    thresh = (a + 1.0) / (a + b + 2.0)  # in (0, 1): x < thresh implies x < 1

    def direct(xs, cs):
        return (a * np.log(xs) + b * np.log(cs) - log_beta
                - math.log(a) + np.log(_betacf(a, b, xs)))

    def flipped(xs, cs):
        return log1mexp(b * np.log(cs) + a * np.log(xs) - log_beta
                        - math.log(b) + np.log(_betacf(b, a, cs)))

    out = branchwise([((x > 0.0) & (x < thresh), direct),
                      ((x >= thresh) & (x < 1.0), flipped),
                      (x >= 1.0, lambda xs, cs: np.zeros_like(xs))], (x, cx))
    return float(out[0]) if scalar else out


def cap_log_complement_from_ratio(n: int, u):
    """ln P[x.v > r] as a function of the ratio u = r/||x||, vectorized.

    Exact log-space identity: the complement equals (1/2) I_{u^2}((n-1)/2 -> flipped)
    of the symmetric beta, i.e. ln(1/2) + ln I_{1-u^2}((n-1)/2, 1/2).
    """
    if n < 2:
        raise ValueError(f"cap measure needs n >= 2, got {n}")
    scalar = np.isscalar(u)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u < 0):
        raise ValueError("ratio u must be >= 0")

    def inside(us):
        x = (1.0 - us) * (1.0 + us)
        return math.log(0.5) + log_betainc_reg((n - 1) / 2.0, 0.5, x, cx=us**2)

    out = branchwise([(u < 1.0, inside)], (u,))
    return float(out[0]) if scalar else out


def cap_probability_from_ratio(n: int, u):
    """P[x.v <= r] as a function of u = r/||x||, vectorized."""
    scalar = np.isscalar(u)
    lc = cap_log_complement_from_ratio(n, np.atleast_1d(u))
    p = -np.expm1(lc)
    return float(p[0]) if scalar else p


def cap_probability(q: CapQuery) -> float:
    """Exact cap measure P[x.v <= r] for v uniform on the sphere.

    Returns 1 when the cap covers the whole sphere (r >= ||x||, including
    ||x|| = 0).  The value comes from the incomplete-beta identity; see
    cap_probability_quadrature for the independent cross-check route.
    """
    if q.norm_x == 0.0 or q.r >= q.norm_x:
        return 1.0
    return cap_probability_from_ratio(q.n, q.r / q.norm_x)


def cap_probability_quadrature(q: CapQuery, abs_tol: float = 1e-13) -> float:
    """Cap measure by adaptive Gauss-Legendre in the angle variable.

    Substituting z = sin(theta) turns the integrand into cos(theta)^(n-2),
    which is bounded and smooth for every n >= 2, so plain adaptive panels
    reach full accuracy even where the z-form integrand blows up.
    """
    if q.norm_x == 0.0 or q.r >= q.norm_x:
        return 1.0
    u = q.r / q.norm_x
    upper = math.asin(min(u, 1.0))
    n = q.n

    if n == 2:
        integrand = lambda theta: np.ones_like(theta)
    else:
        def integrand(theta):
            return np.exp((n - 2) * np.log(np.cos(theta)))

    val = adaptive_quad(integrand, -math.pi / 2.0, upper, abs_tol=abs_tol)
    return tau_n(n) * val


def cap_log_complement(q: CapQuery) -> float:
    """ln P[x.v > r], entirely in log space.

    Empty complements (r >= ||x||) give -inf; r <= 0 is rejected because the
    plain probability route covers that regime without logs.
    """
    if q.r <= 0.0:
        raise ValueError("cap_log_complement needs r > 0; use cap_probability")
    if q.norm_x == 0.0 or q.r >= q.norm_x:
        return -math.inf
    return cap_log_complement_from_ratio(q.n, q.r / q.norm_x)


def log_complement_upper_from_ratio(n: int, u):
    """ln of the complement upper bound tau_n/(u (n-3)) * exp(-u^2 (n-3)/2)."""
    if n <= 3:
        raise ValueError(f"complement bound needs n >= 4, got {n}")
    scalar = np.isscalar(u)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u <= 0):
        raise ValueError("ratio u must be > 0")
    out = log_tau_n(n) - np.log(u) - math.log(n - 3) - 0.5 * (n - 3) * u**2
    return float(out[0]) if scalar else out


def cap_complement_upper_G(q: CapQuery) -> float:
    """Closed-form upper bound G on the cap complement P[x.v > r].

    G = tau_n * ||x|| / (r (n-3)) * exp(-r^2 (n-3) / (2 ||x||^2)); it depends
    on (n, r/||x||) only and dominates the exact complement for n >= 4.
    """
    if q.n <= 3:
        raise ValueError(f"complement bound needs n >= 4, got {q.n}")
    if not (0.0 < q.r <= q.norm_x):
        raise ValueError(f"complement bound needs 0 < r <= ||x||, got r={q.r}, ||x||={q.norm_x}")
    return math.exp(log_complement_upper_from_ratio(q.n, q.r / q.norm_x))


def log_F_dilation(n: int, r: float, rho):
    """ln F with F(rho) = (r/rho) * (1 - r^2/rho^2)_+^((n-3)/2); -inf where rho <= r.

    F is d/dt of the cap measure with offset r(1+t) at t = 0, divided by
    tau_n; it is exactly 0 at and below rho = r.
    """
    if n < 2:
        raise ValueError(f"dilation derivative needs n >= 2, got {n}")
    if not r > 0.0:
        raise ValueError(f"offset r must be > 0, got {r}")
    scalar = np.isscalar(rho)
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if np.any(rho <= 0):
        raise ValueError("radius rho must be > 0")

    def live(rhos):
        q = r / rhos
        return np.log(q) + 0.5 * (n - 3) * np.log1p(-q * q)

    out = branchwise([(rho > r, live)], (rho,))
    return float(out[0]) if scalar else out


"""Closed-form bounds and oracles for Gaussian surface area.

Reference curves for the supremum of GSA over convex bodies in dimension n
and the influence-derived upper bounds for individual sets.
"""

from __future__ import annotations

import math

E_M54 = math.exp(-1.25)


def ball_upper(n: int) -> float:
    """Uniform upper bound 4 n^(1/4) on the surface-area supremum."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 4.0 * n**0.25


def raic_upper(n: int) -> float:
    """Sharper upper bound sqrt(2/pi) + 0.59 (n^(1/4) - 1)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return math.sqrt(2.0 / math.pi) + 0.59 * (n**0.25 - 1.0)


def nazarov_lower(n: int) -> float:
    """Reference curve e^(-5/4) n^(1/4).

    e^(-5/4) is the large-n, alpha = 1 value of the log-average (Jensen)
    bound over the chi_n law for the random-polytope construction at
    r = n^(1/4).  The finite-n bound (radial.lower_bound_chain, at its best
    s) lies above it, by about 0.37 / sqrt(n) relative to n^(1/4), so this
    curve is a reference, not a certified finite-n lower bound, nor the
    limit of the construction itself: with s optimized, E[GSA] / n^(1/4)
    tends to the larger L(alpha) described in the radial module (0.30127 at
    alpha = 1).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return E_M54 * n**0.25


def over_inradius(value: float, inradius: float) -> float:
    """value / inradius, raising ValueError where the quotient overflows.

    A finite value over a tiny inradius (a denormal facet offset, say) would
    otherwise read as a silent inf.
    """
    if not inradius > 0.0:
        raise ValueError(f"inradius must be > 0, got {inradius}")
    quotient = value / inradius
    if math.isfinite(value) and not math.isfinite(quotient):
        raise ValueError(
            f"inradius {inradius!r} is too small: {value!r} / inradius overflows a double")
    return quotient


def final_var_upper(n: int, vol: float, inradius: float) -> float:
    """Variance-based surface bound sqrt(2n) sqrt(vol (1 - vol)) / inradius.

    Follows from influence >= inradius * GSA together with the coefficient
    bound on influence; vol(1 - vol) is the exact indicator variance.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not 0.0 <= vol <= 1.0:
        raise ValueError(f"vol must be a probability, got {vol}")
    return over_inradius(math.sqrt(2.0 * n) * math.sqrt(vol * (1.0 - vol)), inradius)


def final_deg2_upper(n: int, hermite_2ei, inradius: float) -> float:
    """Degree-2 surface bound (2n sum_i c_i^2)^(1/2) / inradius.

    Tighter than the variance form: the diagonal degree-2 coefficients are a
    sub-sum of the full coefficient variance.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    ssq = sum(float(c) ** 2 for c in hermite_2ei)
    return over_inradius(math.sqrt(2.0 * n * ssq), inradius)

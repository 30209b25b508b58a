"""The degree-2 orthonormal Hermite polynomial.

The basis is normalized so that E[h_j(x)^2] = 1 under the standard Gaussian
(h_j = He_j / sqrt(j!) in terms of the monic probabilists' polynomials).
Degree-2 diagonal coefficients of set indicators tie Gaussian dilation
derivatives to plain moments: sum_i h2(x_i) = (||x||^2 - n) / sqrt(2).
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)


def h2(x):
    """Degree-2 basis polynomial (x^2 - 1)/sqrt(2), the workhorse coefficient."""
    x = np.asarray(x, dtype=float)
    out = (x * x - 1.0) / SQRT2
    return out if out.ndim else float(out)

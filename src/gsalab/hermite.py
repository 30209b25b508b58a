"""Orthonormal Hermite polynomials and Gaussian inner products.

The basis is normalized so that E[h_j(x)^2] = 1 under the standard Gaussian
(h_j = He_j / sqrt(j!) in terms of the monic probabilists' polynomials).
Degree-2 diagonal coefficients of set indicators tie Gaussian dilation
derivatives to plain moments: sum_i h2(x_i) = (||x||^2 - n) / sqrt(2).
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)


def hermite_1d(j: int, x):
    """h_j(x) by the stable orthonormal recurrence.

    h_0 = 1, h_1 = x, sqrt(j+1) h_{j+1} = x h_j - sqrt(j) h_{j-1}.
    Vectorized over x.
    """
    if j < 0:
        raise ValueError(f"degree must be >= 0, got {j}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if j == 0:
        return prev if prev.ndim else float(prev)
    cur = x.copy()
    for k in range(1, j):
        prev, cur = cur, (x * cur - math.sqrt(k) * prev) / math.sqrt(k + 1)
    return cur if cur.ndim else float(cur)


def h2(x):
    """Degree-2 basis polynomial (x^2 - 1)/sqrt(2), the workhorse coefficient."""
    x = np.asarray(x, dtype=float)
    out = (x * x - 1.0) / SQRT2
    return out if out.ndim else float(out)


def gauss_hermite_nodes(count: int):
    """Probabilists' Gauss-Hermite nodes with weights summing to one.

    The returned pair integrates polynomials of degree <= 2*count - 1
    exactly against the standard Gaussian.
    """
    if count < 1:
        raise ValueError(f"need at least one node, got {count}")
    x, w = np.polynomial.hermite_e.hermegauss(count)
    return x, w / math.sqrt(2.0 * math.pi)


def inner_product_gh(f, g, max_degree: int, nodes: int | None = None) -> float:
    """Gaussian inner product E[f(x) g(x)] for polynomial f, g.

    max_degree bounds the degree of each factor; the node count is chosen so
    the product (degree <= 2*max_degree) is integrated exactly.  An explicit
    node override below the exactness requirement is rejected.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    required = max_degree + 1
    if nodes is None:
        nodes = required
    elif nodes < required:
        raise ValueError(
            f"{nodes} nodes integrate degree <= {2 * nodes - 1} exactly; "
            f"the product needs {required}"
        )
    x, w = gauss_hermite_nodes(nodes)
    return float(np.dot(w, np.asarray(f(x), dtype=float) * np.asarray(g(x), dtype=float)))

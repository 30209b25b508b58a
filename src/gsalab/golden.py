"""Golden-section search for unimodal scalar objectives."""

from __future__ import annotations

import math

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 400):
    """Maximize a unimodal f on [lo, hi]; returns (argmax, value).

    The bracket shrinks by the golden ratio each step, so max_iter is a
    safety stop well beyond what any representable tolerance needs.
    """
    if not hi > lo:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    a, b = lo, hi
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
    else:
        raise RuntimeError(f"golden section failed to shrink [{lo}, {hi}] to {tol}")
    x = 0.5 * (a + b)
    return x, f(x)

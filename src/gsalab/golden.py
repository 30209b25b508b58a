"""Golden-section search for unimodal scalar objectives."""

from __future__ import annotations

import math

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITER = 400  # a safety stop well beyond what any representable tolerance needs


def golden_section_max(f, lo: float, hi: float, tol: float):
    """Maximize a unimodal f on [lo, hi] to a bracket of width tol; returns the argmax.

    The argmax is the midpoint of the final bracket, where f is not
    evaluated: callers that need f there evaluate it once themselves.  The
    bracket shrinks by the golden ratio each step; a bracket still wider
    than tol after _MAX_ITER steps raises RuntimeError.
    """
    if not hi > lo:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    a, b = lo, hi
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_MAX_ITER):
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
    return 0.5 * (a + b)

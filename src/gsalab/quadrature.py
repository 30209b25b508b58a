"""Gauss-Legendre quadrature: composite panels, the one node-doubling
ladder every fixed-rule integral runs on, and an adaptive bisection rule."""

from __future__ import annotations

import numpy as np

PANEL_ORDER = 16
_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(PANEL_ORDER)
_GIVE_UP_TOL = 1e-6
_MAX_DOUBLINGS = 14
_ADAPTIVE_PANELS = 8
_ADAPTIVE_DEPTH = 48


class QuadratureConvergenceError(RuntimeError):
    """Raised when node doubling fails to stabilize an integral."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


def composite_nodes(lo: float, hi: float, nodes: int):
    """Nodes and weights of a composite Gauss-Legendre rule on [lo, hi].

    The interval is split into equal panels carrying PANEL_ORDER points each;
    `nodes` is rounded up to a whole number of panels.
    """
    if not hi > lo:
        raise ValueError(f"empty integration window [{lo}, {hi}]")
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    panels = max(1, -(-nodes // PANEL_ORDER))
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * _PANEL_X[None, :]).ravel()
    w = (half[:, None] * _PANEL_W[None, :]).ravel()
    return x, w


def node_ladder(evaluate, nodes, settled, tol, give_up_tol, max_doublings, what):
    """Evaluate a rule at nodes, 2 nodes, 4 nodes, ... until it stabilizes.

    evaluate(m) is the rule's value with m nodes; settled(prev, val, tol)
    says whether one doubling step moved the value by at most tol, in the
    caller's own measure.  The first settled step returns its value.  If the
    budget of max_doublings runs out, the last value is still returned when
    its step settles within give_up_tol; otherwise the failure is raised
    with the (nodes, value) ladder attached rather than returned silently.
    """
    history = []
    for k in range(max_doublings + 1):
        val = evaluate(nodes << k)
        history.append((nodes << k, val))
        if k and settled(history[-2][1], val, tol):
            return val
    (_, prev), (_, last) = history[-2:]
    if settled(prev, last, give_up_tol):
        return last
    raise QuadratureConvergenceError(
        f"{what} did not stabilize: node ladder {history}", history=history)


def _relative_step(prev, val, tol):
    return abs(val - prev) <= tol * max(abs(val), abs(prev), 1e-300)


def integrate_doubling(f, lo, hi, nodes=128, rel_tol=1e-8):
    """Integrate a vectorized f on [lo, hi], doubling nodes until stable.

    Convergence means successive values agree to rel_tol; if 14 doublings
    still leave them more than 1e-6 apart (relative) the computation is
    reported as failed rather than returned silently.
    """
    def evaluate(m):
        x, w = composite_nodes(lo, hi, m)
        return float(np.dot(w, f(x)))

    return node_ladder(evaluate, nodes, _relative_step, rel_tol, _GIVE_UP_TOL,
                       _MAX_DOUBLINGS, f"integral on [{lo}, {hi}]")


def adaptive_quad(f, lo, hi, abs_tol=1e-12):
    """Adaptive Gauss-Legendre on [lo, hi] for a vectorized integrand.

    Each panel is accepted when one 16-point estimate agrees with the sum of
    its two half-panel estimates; otherwise the halves are refined.
    """
    if not hi > lo:
        return 0.0

    def panel(a, b):
        x, w = composite_nodes(a, b, PANEL_ORDER)
        return float(np.dot(w, f(x)))

    total = 0.0
    edges = np.linspace(lo, hi, _ADAPTIVE_PANELS + 1)
    stack = [(edges[i], edges[i + 1], panel(edges[i], edges[i + 1]), 0)
             for i in range(_ADAPTIVE_PANELS)]
    tol_per = abs_tol / max(1, len(stack))
    while stack:
        a, b, coarse, depth = stack.pop()
        m = 0.5 * (a + b)
        left, right = panel(a, m), panel(m, b)
        fine = left + right
        if abs(fine - coarse) <= tol_per or depth >= _ADAPTIVE_DEPTH:
            total += fine
        else:
            stack.append((a, m, left, depth + 1))
            stack.append((m, b, right, depth + 1))
    return total

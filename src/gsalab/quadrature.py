"""Gauss-Legendre quadrature: composite panels, the one node-doubling
ladder every fixed-rule integral runs on, and an adaptive bisection rule.
The ladder climbs a caller's own evaluate(m), such as a sum over radial's
cached node tables; no plain integral of a function is offered."""

from __future__ import annotations

import numpy as np

PANEL_ORDER = 16
_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(PANEL_ORDER)
# the one node-doubling policy of every fixed-rule integral (see node_ladder)
NODES = 128
REL_TOL = 1e-8
GIVE_UP_TOL = 1e-6
MAX_DOUBLINGS = 12
_ADAPTIVE_PANELS = 8
_ADAPTIVE_DEPTH = 48
_ADAPTIVE_BUDGET = 4096  # panels in one call of f; an f that never settles doubles them


class QuadratureConvergenceError(RuntimeError):
    """Raised when node doubling fails to stabilize an integral."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


def _panel_nodes(a, b):
    """Gauss-Legendre nodes and weights on the panels [a[i], b[i]], one row each."""
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    x = mid[:, None] + half[:, None] * _PANEL_X[None, :]
    return x, half[:, None] * _PANEL_W[None, :]


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
    x, w = _panel_nodes(edges[:-1], edges[1:])
    return x.ravel(), w.ravel()


def node_ladder(evaluate, settled, what):
    """Evaluate a rule at NODES, 2 NODES, 4 NODES, ... nodes until it stabilizes.

    evaluate(m) returns the rule's value with m nodes; settled(prev, val, tol)
    says whether one doubling step moved the value by at most tol, in the
    caller's own measure.  The first step within REL_TOL ends the ladder.  If
    MAX_DOUBLINGS doublings run out, the last value is still returned when
    its step settles within GIVE_UP_TOL; otherwise the failure is raised,
    named by what(), with the (nodes, value) ladder attached rather than
    returned silently.
    """
    ladder = []
    for k in range(MAX_DOUBLINGS + 1):
        m = NODES << k
        val = evaluate(m)
        ladder.append((m, val))
        if k and settled(ladder[-2][1], val, REL_TOL):
            return val
    if not settled(ladder[-2][1], val, GIVE_UP_TOL):
        raise QuadratureConvergenceError(
            f"{what()} did not stabilize: node ladder {ladder}", history=ladder)
    return val


def _relative_step(prev, val, tol):
    return abs(val - prev) <= tol * max(abs(val), abs(prev), 1e-300)


def adaptive_quad(f, lo, hi, abs_tol=1e-12):
    """Adaptive Gauss-Legendre on [lo, hi] for a vectorized integrand.

    Each panel is accepted when one 16-point estimate agrees with the sum of
    its two half-panel estimates to abs_tol / 8; otherwise the halves are
    refined.  The rule runs one depth at a time: the halves of every live
    panel go to f in a single call.  A panel still unsettled at depth 48, or
    a next depth whose halves would pass _ADAPTIVE_BUDGET panels in that
    call, raises QuadratureConvergenceError rather than returning an
    unconverged sum.  The budget is checked before the next depth is built.
    """
    if not hi > lo:
        return 0.0

    def panel_sums(a, b):
        x, w = _panel_nodes(a, b)
        return np.sum(w * f(x.ravel()).reshape(x.shape), axis=1)

    edges = np.linspace(lo, hi, _ADAPTIVE_PANELS + 1)
    a, b = edges[:-1], edges[1:]
    coarse = panel_sums(a, b)
    tol_per = abs_tol / _ADAPTIVE_PANELS
    total = 0.0
    for depth in range(_ADAPTIVE_DEPTH + 1):
        m = 0.5 * (a + b)
        halves = panel_sums(np.concatenate((a, m)), np.concatenate((m, b)))
        left, right = halves[:a.size], halves[a.size:]
        fine = left + right
        settled = np.abs(fine - coarse) <= tol_per  # a NaN step stays live
        total += float(np.sum(fine[settled]))
        live = ~settled
        unsettled = int(np.count_nonzero(live))
        if not unsettled:
            return total
        if depth == _ADAPTIVE_DEPTH or 4 * unsettled > _ADAPTIVE_BUDGET:
            raise QuadratureConvergenceError(
                f"adaptive rule on [{lo}, {hi}] did not settle: {unsettled} panels "
                f"unsettled at depth {depth} (depth cap {_ADAPTIVE_DEPTH}, "
                f"budget {_ADAPTIVE_BUDGET} panels per call)")
        a, b = np.concatenate((a[live], m[live])), np.concatenate((m[live], b[live]))
        coarse = np.concatenate((left[live], right[live]))

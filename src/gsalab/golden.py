"""Golden-section search for unimodal scalar objectives."""

from __future__ import annotations

import math

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_LOOKAHEAD = 4  # steps priced per batch: 2^(4+1) - 2 = 30 probes


def _probes_ahead(a, b, c, d):
    """Every probe the next _LOOKAHEAD steps can make from [a, b] with inner c < d.

    Heap order with the current bracket as node 0: node j's successors are
    2j + 1 (when f(c) > f(d): the bracket keeps a, the new probe is its c)
    and 2j + 2 (it keeps b, the new probe is its d); node j's probe is entry
    j - 1.  The points come from the same arithmetic as the search's own.
    """
    states = [(a, b, c, d)]
    points = []
    for j in range(2**_LOOKAHEAD - 1):
        a, b, c, d = states[j]
        left_c = d - INV_PHI * (d - a)
        right_d = c + INV_PHI * (b - c)
        states += [(a, d, left_c, c), (c, b, d, right_d)]
        points += [left_c, right_d]
    return points


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 400,
                       f_batch=None):
    """Maximize a unimodal f on [lo, hi]; returns (argmax, value).

    The bracket shrinks by the golden ratio each step, so max_iter is a
    safety stop well beyond what any representable tolerance needs.
    f_batch, when given, evaluates f on a 1-D array of points, bit for bit
    f's value at each.  The search then prices every probe its next
    _LOOKAHEAD steps could make, both outcomes of each comparison, in one
    call of f_batch, and walks the same probe sequence as without it: the
    same points, comparisons and returned (x, f(x)).
    """
    if not hi > lo:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    a, b = lo, hi
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    if f_batch is None:
        fc, fd = f(c), f(d)
    else:
        fc, fd, *ahead = f_batch(np.array([c, d, *_probes_ahead(a, b, c, d)])).tolist()
    node = 0  # with f_batch: where the walk stands in the probe tree priced last
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if f_batch is not None and node >= 2**_LOOKAHEAD - 1:
            ahead, node = f_batch(np.array(_probes_ahead(a, b, c, d))).tolist(), 0
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            node = 2 * node + 1
            fc = f(c) if f_batch is None else ahead[node - 1]
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            node = 2 * node + 2
            fd = f(d) if f_batch is None else ahead[node - 1]
    else:
        raise RuntimeError(f"golden section failed to shrink [{lo}, {hi}] to {tol}")
    x = 0.5 * (a + b)
    return x, f(x)


def golden_section_min(f, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 400,
                       f_batch=None):
    neg_batch = None if f_batch is None else (lambda ts: -f_batch(ts))
    x, fx = golden_section_max(lambda t: -f(t), lo, hi, tol=tol, max_iter=max_iter,
                               f_batch=neg_batch)
    return x, -fx

import math

import numpy as np
import pytest

from gsalab import quadrature
from gsalab.golden import golden_section_max
from gsalab.quadrature import (QuadratureConvergenceError, adaptive_quad,
                               composite_nodes, integrate_doubling, node_ladder)


def gaussian(x):
    return np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi)


def test_composite_weights_sum_to_length():
    x, w = composite_nodes(-3.0, 5.0, 128)
    assert w.sum() == pytest.approx(8.0, rel=1e-14)
    assert x.min() > -3.0 and x.max() < 5.0


def test_composite_rejects_bad_window():
    with pytest.raises(ValueError):
        composite_nodes(1.0, 1.0, 64)


def test_integrate_doubling_gaussian_mass():
    assert integrate_doubling(gaussian, -10.0, 10.0) == pytest.approx(1.0, abs=1e-12)


def test_integrate_doubling_polynomial_exact():
    assert integrate_doubling(lambda x: x**3 - 2 * x + 1, 0.0, 2.0) == pytest.approx(
        2.0, rel=1e-14)


def test_integrate_doubling_reports_failure():
    # white-noise integrand never stabilizes under node doubling
    state = np.random.default_rng(0)

    def noisy(x):
        return state.standard_normal(x.shape)

    with pytest.raises(QuadratureConvergenceError) as err:
        integrate_doubling(noisy, 0.0, 1.0, nodes=16)
    assert err.value.history


def test_adaptive_quad_gaussian_mass():
    assert adaptive_quad(gaussian, -10.0, 10.0, abs_tol=1e-13) == pytest.approx(
        1.0, abs=1e-11)


def test_adaptive_quad_narrow_bump():
    # width-0.01 bump far from panel boundaries still gets found
    def bump(x):
        return np.exp(-0.5 * ((x - 0.4567) / 0.01) ** 2)

    want = 0.01 * math.sqrt(2.0 * math.pi)
    assert adaptive_quad(bump, 0.0, 1.0, abs_tol=1e-13) == pytest.approx(want, rel=1e-10)


def test_adaptive_quad_raises_at_the_depth_cap():
    # the panel holding the jump never settles to 1e-300; on the dyadic panels
    # of [0, 1] the flat pieces settle exactly, so the depth cap is what stops
    def jump(x):
        return (x > 0.3).astype(float)

    with pytest.raises(QuadratureConvergenceError, match="depth 48"):
        adaptive_quad(jump, 0.0, 1.0, abs_tol=1e-300)


def test_adaptive_quad_raises_past_its_panel_budget(monkeypatch):
    # the bump needs four panels at depth 1, eight halves in one call of f
    def bump(x):
        return np.exp(-0.5 * ((x - 0.4567) / 0.01) ** 2)

    monkeypatch.setattr(quadrature, "_ADAPTIVE_BUDGET", 4)
    with pytest.raises(QuadratureConvergenceError, match="budget 4 panels"):
        adaptive_quad(bump, 0.0, 1.0, abs_tol=1e-13)


def test_adaptive_quad_evaluates_one_depth_per_call():
    # the 8 starting panels, then the halves of every live panel at each depth
    calls = []

    def bump(x):
        calls.append(x.size // quadrature.PANEL_ORDER)
        return np.exp(-0.5 * ((x - 0.4567) / 0.01) ** 2)

    adaptive_quad(bump, 0.0, 1.0, abs_tol=1e-13)
    assert calls == [8, 16, 8]


def test_golden_section_quadratic():
    x, fx = golden_section_max(lambda c: -(c - 2.0) ** 2, 0.0, 5.0, tol=1e-12)
    assert x == pytest.approx(2.0, abs=1e-6)
    assert fx <= 0.0


def test_golden_section_min_cos():
    x, _ = golden_section_max(lambda t: -math.cos(t), 2.0, 4.5, tol=1e-12)
    assert x == pytest.approx(math.pi, abs=1e-6)


def test_golden_rejects_bad_bracket():
    with pytest.raises(ValueError):
        golden_section_max(lambda c: c, 1.0, 1.0)


def test_node_ladder_budget_and_give_up():
    # 1/m moves by 1/(2m) per doubling: never within 1e-9 in four doublings,
    # so the ladder ends at m = 256 and the give-up tolerance decides
    def settled(prev, val, tol):
        return abs(val - prev) <= tol

    def ladder(give_up_tol):
        return node_ladder(lambda m, live: [1.0 / m], 16, settled, 1e-9, give_up_tol, 4,
                           lambda i: "1/m", 1)

    assert ladder(1e-2) == [1.0 / 256]
    with pytest.raises(QuadratureConvergenceError, match="1/m did not stabilize") as err:
        ladder(1e-3)
    assert err.value.history == [(m, 1.0 / m) for m in (16, 32, 64, 128, 256)]


def test_node_ladder_entries_settle_one_by_one():
    # entry i moves by 2^-(i + 2) / m per doubling; each freezes at its own
    # first settled step, with the value and ladder it gets as a one-entry rule
    def settled(prev, val, tol):
        return abs(val - prev) <= tol

    def rule(i, m):
        return 2.0**-(i + 1) / m

    seen = []

    def evaluate(m, live):
        seen.append((m, list(live)))
        return [rule(i, m) for i in live]

    def name(i):
        return "rule"

    got = node_ladder(evaluate, 16, settled, 2e-3, 1e-9, 6, name, 3)
    alone = [node_ladder(lambda m, live, i=i: [rule(i, m)], 16, settled, 2e-3, 1e-9, 6,
                         name, 1)[0]
             for i in range(3)]
    assert got == alone
    assert seen == [(16, [0, 1, 2]), (32, [0, 1, 2]), (64, [0, 1, 2]), (128, [0, 1]),
                    (256, [0])]


def test_node_ladder_entries_raise_the_first_failure():
    # entries 1 and 2 never settle; the error is entry 1's, as its one-entry
    # rule raises it
    def settled(prev, val, tol):
        return abs(val - prev) <= tol

    def rule(i, m):
        return 0.0 if i == 0 else i / m

    with pytest.raises(QuadratureConvergenceError) as alone:
        node_ladder(lambda m, live: [rule(1, m)], 16, settled, 1e-9, 1e-9, 4,
                    lambda i: "entry 1", 1)
    with pytest.raises(QuadratureConvergenceError) as batched:
        node_ladder(lambda m, live: [rule(i, m) for i in live], 16, settled, 1e-9, 1e-9,
                    4, lambda i: f"entry {i}", 3)
    assert str(batched.value) == str(alone.value)
    assert batched.value.history == alone.value.history


def test_lookahead_golden_raises_when_max_iter_runs_out():
    with pytest.raises(RuntimeError, match="failed to shrink"):
        golden_section_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0, tol=1e-12, max_iter=9)

import math

import numpy as np
import pytest

from gsalab import quadrature, radial
from gsalab.quadrature import (QuadratureConvergenceError, _relative_step, adaptive_quad,
                               composite_nodes, node_ladder)


def gaussian(x):
    return np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi)


def test_composite_weights_sum_to_length():
    x, w = composite_nodes(-3.0, 5.0, 128)
    assert w.sum() == pytest.approx(8.0, rel=1e-14)
    assert x.min() > -3.0 and x.max() < 5.0


def test_composite_rejects_bad_window():
    with pytest.raises(ValueError):
        composite_nodes(1.0, 1.0, 64)


def test_composite_rule_gaussian_mass():
    x, w = composite_nodes(-10.0, 10.0, quadrature.NODES)
    assert np.dot(w, gaussian(x)) == pytest.approx(1.0, abs=1e-12)


def test_composite_rule_polynomial_exact():
    # one 16-point panel already integrates a cubic exactly
    x, w = composite_nodes(0.0, 2.0, quadrature.PANEL_ORDER)
    assert np.dot(w, x**3 - 2 * x + 1) == pytest.approx(2.0, rel=1e-14)


def noise_ladder():
    """A node ladder over composite sums of white noise, which never stabilize."""
    state = np.random.default_rng(0)

    def evaluate(m):
        x, w = composite_nodes(0.0, 1.0, m)
        return float(np.dot(w, state.standard_normal(x.shape)))

    return node_ladder(evaluate, _relative_step, lambda: "white noise")


def test_node_ladder_reports_failure_with_its_rungs():
    with pytest.raises(QuadratureConvergenceError, match="white noise did not stabilize") as err:
        noise_ladder()
    assert [m for m, _ in err.value.history] == [
        quadrature.NODES << k for k in range(quadrature.MAX_DOUBLINGS + 1)]


def test_one_doubling_budget_for_every_ladder(monkeypatch):
    # the budget is quadrature's alone: cutting it to 3 doublings ends both a
    # caller's own ladder and the radial influence ladder at NODES << 3
    monkeypatch.setattr(quadrature, "MAX_DOUBLINGS", 3)
    rungs = [quadrature.NODES << k for k in range(4)]
    with pytest.raises(QuadratureConvergenceError) as err:
        noise_ladder()
    assert [m for m, _ in err.value.history] == rungs
    # the log value of this cell keeps moving by far more than GIVE_UP_TOL
    with pytest.raises(QuadratureConvergenceError) as err:
        radial.expected_influence_quadrature(64, 64**0.25, 1e300)
    assert [m for m, _ in err.value.history] == rungs


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


def test_node_ladder_budget_and_give_up(monkeypatch):
    # 1/m moves by 1/(2m) per doubling: never within REL_TOL in four
    # doublings, so the ladder ends at m = 16 << 4 = 256 and the give-up
    # tolerance decides
    monkeypatch.setattr(quadrature, "NODES", 16)
    monkeypatch.setattr(quadrature, "REL_TOL", 1e-9)
    monkeypatch.setattr(quadrature, "MAX_DOUBLINGS", 4)

    def settled(prev, val, tol):
        return abs(val - prev) <= tol

    def ladder(give_up_tol):
        monkeypatch.setattr(quadrature, "GIVE_UP_TOL", give_up_tol)
        return node_ladder(lambda m: 1.0 / m, settled, lambda: "1/m")

    assert ladder(1e-2) == 1.0 / 256
    with pytest.raises(QuadratureConvergenceError, match="1/m did not stabilize") as err:
        ladder(1e-3)
    assert err.value.history == [(m, 1.0 / m) for m in (16, 32, 64, 128, 256)]


import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import ndtr

from gsalab import specfun
from gsalab.hermite import h2


def test_h2_values():
    assert h2(1.0) == pytest.approx(0.0, abs=1e-15)
    assert h2(0.0) == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-15)
    xs = np.linspace(-4, 4, 9)
    assert np.allclose(h2(xs), (xs**2 - 1) / math.sqrt(2.0), atol=1e-14)


@pytest.mark.parametrize("n", [2, 16])
def test_h2_sum_bridges_to_norm(n):
    state = np.random.default_rng(n)
    points = state.standard_normal((200, n))
    lhs = -math.sqrt(2.0) * h2(points).sum(axis=1)
    rhs = n - (points**2).sum(axis=1)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


@given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80)
def test_h2_bridge_property(n, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    lhs = -math.sqrt(2.0) * float(h2(x).sum())
    rhs = n - float((x**2).sum())
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_indicator_variance_by_parseval():
    # 1-D slab indicator: closed-form coefficients f_hat(j) = -2 phi(t) h_{j-1}(t)/sqrt(j)
    # for even j >= 2; partial coefficient sums approach p(1-p) from below
    theta = 1.0
    p = 1.0 - 2.0 * float(ndtr(-theta))
    density = specfun.gaussian_pdf(theta)
    J = 40000
    partial = 0.0
    prev_h = 1.0            # h_0(theta)
    cur_h = theta           # h_1(theta)
    for j in range(2, J + 1):
        coeff = -2.0 * density * cur_h / math.sqrt(j) if j % 2 == 0 else 0.0
        partial += coeff * coeff
        prev_h, cur_h = cur_h, (theta * cur_h - math.sqrt(j - 1) * prev_h) / math.sqrt(j)
    target = p * (1.0 - p)
    gap = target - partial
    assert 0.0 < gap < 0.35 / math.sqrt(J)

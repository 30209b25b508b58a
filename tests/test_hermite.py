import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsalab import hermite, specfun
from gsalab.hermite import h2, hermite_1d, inner_product_gh


def test_h0_is_one():
    xs = np.linspace(-5, 5, 11)
    assert np.all(hermite_1d(0, xs) == 1.0)


def test_h2_values():
    assert hermite_1d(2, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert hermite_1d(2, 0.0) == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-15)
    xs = np.linspace(-4, 4, 9)
    assert np.allclose(hermite_1d(2, xs), (xs**2 - 1) / math.sqrt(2.0), atol=1e-14)
    assert np.allclose(h2(xs), hermite_1d(2, xs), atol=1e-14)


def test_h3_values():
    assert hermite_1d(3, 1.0) == pytest.approx(-2.0 / math.sqrt(6.0), rel=1e-14)
    xs = np.linspace(-4, 4, 9)
    assert np.allclose(hermite_1d(3, xs), (xs**3 - 3 * xs) / math.sqrt(6.0), atol=1e-13)


def test_recurrence_matches_rodrigues():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    state = np.random.default_rng(5)
    points = state.uniform(-4, 4, size=20)
    for j in range(9):
        rodrigues = ((-1) ** j / sympy.sqrt(sympy.factorial(j))
                     * sympy.exp(x**2 / 2) * sympy.diff(sympy.exp(-x**2 / 2), x, j))
        fn = sympy.lambdify(x, sympy.simplify(rodrigues), "numpy")
        want = np.asarray(fn(points), dtype=float) * np.ones_like(points)
        got = hermite_1d(j, points)
        assert np.allclose(got, want, atol=1e-8), j


def test_orthonormality_to_degree_10():
    for i in range(11):
        for j in range(11):
            ip = inner_product_gh(lambda x, i=i: hermite_1d(i, x),
                                  lambda x, j=j: hermite_1d(j, x),
                                  max_degree=max(i, j))
            assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-10), (i, j)


def test_inner_product_basics():
    assert inner_product_gh(lambda x: np.ones_like(x), lambda x: np.ones_like(x),
                            max_degree=0) == pytest.approx(1.0, rel=1e-14)
    assert inner_product_gh(lambda x: x**2, lambda x: np.ones_like(x),
                            max_degree=2) == pytest.approx(1.0, rel=1e-13)


def test_parseval_mean_and_variance_match_quadrature():
    coeffs = {(0,): 1.0, (1,): 2.0, (2,): -0.5, (3,): 0.25}

    def f(x):
        return sum(c * hermite_1d(k[0], x) for k, c in coeffs.items())

    mean = inner_product_gh(f, lambda x: np.ones_like(x), max_degree=3)
    second = inner_product_gh(f, f, max_degree=3)
    assert mean == pytest.approx(coeffs[(0,)], abs=1e-10)
    var_coeff = sum(c * c for k, c in coeffs.items() if k != (0,))
    assert second - mean**2 == pytest.approx(var_coeff, abs=1e-10)
    assert sum(c * c for c in coeffs.values()) == pytest.approx(second, abs=1e-10)


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
    p = 1.0 - 2.0 * specfun.gaussian_tail(theta)
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

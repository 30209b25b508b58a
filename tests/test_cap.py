import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc as scipy_betainc

from gsalab import cap, rng, specfun
from gsalab.cap import CapQuery

from oracles import betacf_reference, cap_probability_angle


def test_closed_form_n3():
    # at n = 3 the density in z is flat, so P = (1 + r/||x||)/2
    assert cap.cap_probability(CapQuery(3, 2.0, 1.0)) == pytest.approx(0.75, abs=1e-12)


def test_closed_form_n2_arc_length():
    assert cap.cap_probability(CapQuery(2, 1.0, 1.0 / math.sqrt(2.0))) == pytest.approx(
        0.75, abs=1e-12)


def test_full_sphere_cases():
    for n in (2, 3, 17, 400):
        assert cap.cap_probability(CapQuery(n, 1.0, 1.0)) == 1.0
        assert cap.cap_probability(CapQuery(n, 0.0, 0.5)) == 1.0
        assert cap.cap_probability(CapQuery(n, 2.0, 3.0)) == 1.0


def test_hemisphere_at_zero_offset():
    for n in (2, 7, 64):
        assert cap.cap_probability(CapQuery(n, 1.5, 0.0)) == pytest.approx(0.5, abs=1e-13)


def test_query_validation():
    with pytest.raises(ValueError):
        CapQuery(1, 1.0, 0.5)
    with pytest.raises(ValueError):
        CapQuery(3, -1.0, 0.5)
    with pytest.raises(ValueError):
        CapQuery(3, 1.0, -0.5)
    with pytest.raises(ValueError):
        CapQuery(3, math.inf, 0.5)


def test_log_complement_closed_forms():
    assert cap.cap_log_complement(CapQuery(3, 2.0, 1.0)) == pytest.approx(
        math.log(0.25), abs=1e-12)
    assert cap.cap_log_complement(CapQuery(2, 1.0, 1.0 / math.sqrt(2.0))) == pytest.approx(
        math.log(0.25), abs=1e-12)


def test_log_complement_edges():
    assert cap.cap_log_complement(CapQuery(5, 1.0, 1.0)) == -math.inf
    assert cap.cap_log_complement(CapQuery(5, 1.0, 2.0)) == -math.inf
    assert cap.cap_log_complement(CapQuery(5, 0.0, 1.0)) == -math.inf
    with pytest.raises(ValueError):
        cap.cap_log_complement(CapQuery(5, 1.0, 0.0))


def test_complementarity():
    state = np.random.default_rng(7)
    for _ in range(200):
        n = int(state.integers(2, 300))
        norm = float(state.uniform(0.5, 2.5) * math.sqrt(n))
        r = float(state.uniform(0.01, 0.99) * norm)
        q = CapQuery(n, norm, r)
        complement = math.exp(cap.cap_log_complement(q))
        if complement >= 1e-12:
            assert complement + cap.cap_probability(q) == pytest.approx(1.0, abs=1e-10)


def test_routes_agree_on_random_grid():
    state = np.random.default_rng(20240809)
    for _ in range(200):
        n = int(state.integers(2, 513))
        norm = float(state.uniform(0.1, 3.0) * math.sqrt(n))
        r = float(state.uniform(0.0, 1.2) * norm)
        q = CapQuery(n, norm, r)
        beta_route = cap.cap_probability(q)
        angle_route = cap_probability_angle(n, r / norm)
        assert abs(beta_route - angle_route) <= 1e-10, (n, norm, r)


def test_beta_route_matches_scipy():
    state = np.random.default_rng(3)
    for _ in range(200):
        n = int(state.integers(2, 1025))
        u = float(state.uniform(0.0, 1.0))
        mine = cap.cap_probability_from_ratio(n, u)
        ref = 1.0 - 0.5 * float(scipy_betainc((n - 1) / 2.0, 0.5, (1 - u) * (1 + u)))
        # scipy itself drifts ~3e-13 for x near 1; the sharp precision check
        # against mpmath lives in test_log_complement_deep_tail_against_mpmath
        assert mine == pytest.approx(ref, abs=1e-12)


def test_log_complement_deep_tail_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    # complements down to ~1e-300: the log keeps nine digits
    for n, u in [(513, 0.97), (4096, 0.55), (2049, 0.9), (101, 0.9999)]:
        mine = cap.cap_log_complement_from_ratio(n, u)
        a, b = (n - 1) / 2.0, 0.5
        x = mpmath.mpf(1) - mpmath.mpf(u) ** 2
        exact = mpmath.log(mpmath.betainc(a, b, 0, x, regularized=True) / 2)
        assert mine == pytest.approx(float(exact), rel=1e-9)


def _assert_betacf_bits(a, b, x):
    got = cap._betacf(a, b, x.copy())
    want = betacf_reference(a, b, x.copy())
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (a, b, x.size)
    return got


@settings(max_examples=100, deadline=None)
@given(log_n=st.floats(math.log(4), math.log(2e5)), flip=st.booleans(),
       size=st.integers(1, 1024), near=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_betacf_is_bit_for_bit_the_allocating_loop(log_n, flip, size, near, seed):
    # the in-place loop must give every element the reference's bits, which
    # depend on the whole batch through the shared stop iteration
    n = round(math.exp(log_n))
    a, b = (n - 1) / 2.0, 0.5
    if flip:
        a, b = b, a
    thresh = (a + 1.0) / (a + b + 2.0)
    state = np.random.default_rng(seed)
    if near:  # just below the flip point, where the fraction converges slowest
        x = thresh * -np.expm1(state.uniform(-40.0, 0.0, size))
    else:
        x = state.uniform(0.0, thresh, size)
    _assert_betacf_bits(a, b, x)


@pytest.mark.parametrize("size", [128, 256, 512, 513])
def test_betacf_node_table_and_shell_grid_sizes(size):
    for n in (7, 64, 4096, 100_000):
        for a, b in (((n - 1) / 2.0, 0.5), (0.5, (n - 1) / 2.0)):
            thresh = (a + 1.0) / (a + b + 2.0)
            _assert_betacf_bits(a, b, np.linspace(0.0, thresh, size, endpoint=False))


def test_betacf_clamp_is_bit_for_bit_the_allocating_loop(monkeypatch):
    # a 1e-300 clamp never fires on the convergent side; at 0.8 it clamps 167
    # of these 300 elements at the start and 48 to 123 in each of the first
    # four odd steps
    x = np.linspace(0.0, 0.5, 300, endpoint=False)
    plain = cap._betacf(4.5, 0.5, x.copy())
    monkeypatch.setattr(cap, "_FPMIN", 0.8)
    clamped = _assert_betacf_bits(4.5, 0.5, x)
    assert not np.array_equal(clamped, plain)


def test_betacf_stall_raises_on_both_paths(monkeypatch):
    # at x = 0.4 the fraction converges at its third step, for one point or two
    monkeypatch.setattr(cap, "_BETACF_ITMAX", 2)
    for x in (np.array([0.4]), np.array([0.4, 0.4])):
        with pytest.raises(RuntimeError, match=r"stalled at a=511\.5, b=0\.5$"):
            cap._betacf(511.5, 0.5, x)


def test_monotone_in_r_and_norm():
    n = 24
    probs = [cap.cap_probability(CapQuery(n, 3.0, r)) for r in np.linspace(0.0, 3.5, 40)]
    assert all(b >= a - 1e-13 for a, b in zip(probs, probs[1:]))
    probs = [cap.cap_probability(CapQuery(n, norm, 1.0))
             for norm in np.linspace(0.5, 8.0, 40)]
    assert all(b <= a + 1e-13 for a, b in zip(probs, probs[1:]))


@given(st.integers(min_value=2, max_value=400),
       st.floats(min_value=0.01, max_value=50.0),
       st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=150)
def test_probability_in_unit_interval(n, norm, ratio):
    p = cap.cap_probability(CapQuery(n, norm, ratio * norm))
    assert 0.0 <= p <= 1.0


def test_complement_bound_value():
    # G(103, 10, 1) = tau_103 * (10/100) * e^(-1/2)
    got = cap.cap_complement_upper_G(CapQuery(103, 10.0, 1.0))
    want = math.exp(specfun.log_tau_n(103)) * 0.1 * math.exp(-0.5)
    assert got == pytest.approx(want, rel=1e-13)


def test_complement_bound_rejections():
    with pytest.raises(ValueError):
        cap.cap_complement_upper_G(CapQuery(3, 10.0, 1.0))
    with pytest.raises(ValueError):
        cap.cap_complement_upper_G(CapQuery(5, 1.0, 2.0))
    with pytest.raises(ValueError):
        cap.cap_complement_upper_G(CapQuery(5, 1.0, 0.0))


@pytest.mark.parametrize("norm, r", [(1.0, 1e-320), (1e300, 1e-10)])
def test_complement_bound_past_the_double_range_names_ln_g(norm, r):
    # math.exp of ln G used to raise a bare OverflowError ('math range error')
    with pytest.raises(ValueError, match=r"ln G = 7\d\d\.\d+ is beyond the double range"):
        cap.cap_complement_upper_G(CapQuery(4, norm, r))
    # a ratio whose ln G stays inside the range still computes
    assert math.isfinite(cap.cap_complement_upper_G(CapQuery(4, 1.0, 1e-300)))


def test_complement_bound_dominates_exact():
    for n in (5, 10, 50, 200):
        for u in (0.05, 0.1, 0.3, 0.9):
            exact_log = cap.cap_log_complement_from_ratio(n, u)
            bound_log = cap.log_complement_upper_from_ratio(n, u)
            assert exact_log <= bound_log + 1e-12, (n, u)


@given(st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=100)
def test_complement_bound_scale_invariant(scale):
    base = cap.cap_complement_upper_G(CapQuery(24, 5.0, 1.5))
    scaled = cap.cap_complement_upper_G(CapQuery(24, 5.0 * scale, 1.5 * scale))
    assert scaled == pytest.approx(base, rel=1e-12)


def test_dilation_factor_values():
    assert cap.log_F_dilation(5, 1.0, 1.0) == -math.inf
    assert cap.log_F_dilation(5, 1.0, 0.5) == -math.inf
    assert math.exp(cap.log_F_dilation(3, 1.0, 2.0)) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(ValueError):
        cap.log_F_dilation(1, 1.0, 2.0)
    with pytest.raises(ValueError):
        cap.log_F_dilation(5, 1.0, -1.0)


def test_dilation_factor_is_cap_derivative():
    # central difference of t -> P[x.v <= r(1+t)] at t = 0 equals tau_n * F
    n, r, rho = 5, 1.0, 3.0
    h = 1e-5
    up = cap.cap_probability(CapQuery(n, rho, r * (1 + h)))
    down = cap.cap_probability(CapQuery(n, rho, r * (1 - h)))
    derivative = (up - down) / (2 * h)
    want = math.exp(specfun.log_tau_n(n)) * math.exp(cap.log_F_dilation(n, r, rho))
    assert derivative == pytest.approx(want, abs=1e-6)


def test_cap_measure_agrees_with_sphere_sampling():
    # empirical frequency over uniform directions within four standard errors
    for (n, norm, r), seed in [((8, 3.0, 1.0), 11), ((32, 6.0, 1.5), 12)]:
        p = cap.cap_probability(CapQuery(n, norm, r))
        samples = 1_000_000
        hits = 0
        for block in rng.gaussian_chunks(n, samples, seed):
            directions = block / np.linalg.norm(block, axis=1, keepdims=True)
            hits += int(np.sum(norm * directions[:, 0] <= r))
        freq = hits / samples
        stderr = math.sqrt(p * (1 - p) / samples)
        assert abs(freq - p) <= 4 * stderr, (n, norm, r, freq, p)


def test_dilation_vs_complement_bound_shrinking_gap():
    # inf over the shell of F/G approaches sqrt(2 pi) e^(-1/4) from below,
    # with the defect eps_n shrinking as n grows
    target = math.sqrt(2.0 * math.pi) * math.exp(-0.25)
    eps = []
    for n in (256, 1024, 4096):
        r = n**0.25
        t = n**0.25
        grid = np.linspace(math.sqrt(n) - t, math.sqrt(n) + t, 2001)
        log_ratio = (cap.log_F_dilation(n, r, grid)
                     - cap.log_complement_upper_from_ratio(n, r / grid))
        eps.append(1.0 - math.exp(float(log_ratio.min())) / target)
    assert all(0.0 < e < 1.0 for e in eps)
    assert eps[0] > eps[1] > eps[2]


def test_log_betainc_reg_domain_edge():
    # np.isclose(x, 0)'s default reach: within 1e-8 below 0 reads as 0
    assert cap.log_betainc_reg(1.5, 0.5, -5e-9, 1.0 + 5e-9) == -math.inf
    with pytest.raises(ValueError, match=r"x must lie in \[0, 1\]"):
        cap.log_betainc_reg(1.5, 0.5, -2e-8, 1.0 + 2e-8)
    x = np.array([0.5, 1.0 + 2e-12])
    with pytest.raises(ValueError):
        cap.log_betainc_reg(1.5, 0.5, x, 1.0 - x)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(4, 100_000), direct=st.floats(0.0, 1.0), flipped=st.floats(0.0, 1.0),
       edges=st.lists(st.sampled_from([-5e-9, 0.0, 1.0, 1.0 + 1e-12]), max_size=3),
       order=st.randoms(use_true_random=False))
def test_log_betainc_reg_mixed_branches_are_one_point_calls(n, direct, flipped, edges, order):
    # one x on each side of the flip point, plus edge values: every branch
    # holds at most one x, so each continued fraction is a one-point one
    a, b = (n - 1) / 2.0, 0.5
    thresh = (a + 1.0) / (a + b + 2.0)
    xs = [thresh * direct * (1.0 - 1e-12), thresh + (1.0 - thresh) * flipped * (1.0 - 1e-12)]
    xs += edges
    order.shuffle(xs)
    got = cap.log_betainc_reg(a, b, np.array(xs), 1.0 - np.array(xs))
    assert got.tolist() == [cap.log_betainc_reg(a, b, x, 1.0 - x) for x in xs]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(4, 100_000), side=st.sampled_from(["direct", "flipped"]),
       fractions=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          min_size=1, max_size=6))
def test_log_betainc_reg_one_branch_array_is_the_masked_evaluation(n, side, fractions):
    # a one-branch array runs its formula on the whole array; planting x = 1
    # forces the masks, which cut out the very same array
    a, b = (n - 1) / 2.0, 0.5
    thresh = (a + 1.0) / (a + b + 2.0)
    low, high = (0.0, thresh) if side == "direct" else (thresh, 1.0)
    x = np.array([low + (high - low) * f for f in fractions])
    x = x[(x > low if side == "direct" else x >= low) & (x < high)]
    if x.size:
        planted = np.append(x, 1.0)
        masked = cap.log_betainc_reg(a, b, planted, 1.0 - planted)
        assert cap.log_betainc_reg(a, b, x, 1.0 - x).tolist() == masked[:-1].tolist()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(4, 100_000), inside=st.floats(0.0, 1.0, exclude_max=True),
       outside=st.lists(st.floats(1.0, 4.0), max_size=4), at=st.integers(0, 4))
def test_cap_complement_mixed_branches_are_one_point_calls(n, inside, outside, at):
    u = outside[:at] + [inside] + outside[at:]
    got = cap.cap_log_complement_from_ratio(n, np.array(u))
    assert got.tolist() == [cap.cap_log_complement_from_ratio(n, v) for v in u]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(4, 100_000),
       us=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=6))
def test_cap_complement_one_branch_array_is_the_masked_evaluation(n, us):
    u = np.array(us)
    masked = cap.cap_log_complement_from_ratio(n, np.append(u, 2.0))
    assert cap.cap_log_complement_from_ratio(n, u).tolist() == masked[:-1].tolist()


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 100_000), r=st.floats(0.1, 20.0),
       ratios=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=8))
def test_log_F_dilation_array_is_its_one_point_calls(n, r, ratios):
    # rho <= r (F = 0) and rho > r, mixed or one alone: the same bits
    rho = [r * q for q in ratios]
    got = cap.log_F_dilation(n, r, np.array(rho))
    assert got.tolist() == [cap.log_F_dilation(n, r, p) for p in rho]

import math
import tracemalloc

import numpy as np
import pytest

from gsalab import cap, polytope, rng
from gsalab.polytope import Ball, HalfspacePolytope, NazParams


def slab_1d(theta=1.0):
    return HalfspacePolytope(np.array([[1.0], [-1.0]]), np.array([theta, theta]))


def test_params_validation():
    with pytest.raises(ValueError):
        NazParams(n=1, offset=1.0, s=4)
    with pytest.raises(ValueError):
        NazParams(n=4, offset=0.0, s=4)
    with pytest.raises(ValueError):
        NazParams(n=4, offset=1.0, s=0)
    with pytest.raises(ValueError):
        NazParams(n=4, offset=1.0, s=4, variant="spherical")


def test_sample_naz_determinism():
    params = NazParams(n=16, offset=2.0, s=32)
    first = polytope.sample_naz(params, seed=7)
    second = polytope.sample_naz(params, seed=7)
    assert np.array_equal(first.normals, second.normals)
    assert np.array_equal(first.offsets, second.offsets)
    other = polytope.sample_naz(params, seed=8)
    assert not np.array_equal(first.normals, other.normals)


def test_sample_naz_structure():
    params = NazParams(n=16, offset=2.0, s=32)
    K = polytope.sample_naz(params, seed=3)
    assert np.allclose(np.linalg.norm(K.normals, axis=1), 1.0, atol=1e-12)
    assert np.all(K.offsets == 2.0)
    single = polytope.sample_naz(NazParams(n=2, offset=1.0, s=1), seed=0)
    assert single.inradius() == 1.0


def test_membership_probability_factorizes():
    # over the randomness of the body, P[x in K] = cap probability^s
    n, r, s = 8, 1.0, 6
    x = np.zeros((1, n))
    x[0, 0] = 1.7
    params = NazParams(n=n, offset=r, s=s)
    draws = 4000
    hits = sum(polytope.sample_naz(params, seed=10_000 + d).contains_points(x)[0]
               for d in range(draws))
    freq = hits / draws
    p = cap.cap_probability(cap.CapQuery(n, 1.7, r)) ** s
    stderr = math.sqrt(p * (1 - p) / draws)
    assert abs(freq - p) <= 4 * stderr


def test_volume_matches_survival_average():
    # same Gaussian points scored two ways: indicator of a fresh draw per
    # cluster versus the cap-probability power at each point
    n, r, s = 3, 1.0, 4
    clusters, per_cluster = 1000, 100
    cluster_means = np.empty(clusters)
    survival_all = []
    for c in range(clusters):
        K = polytope.sample_naz(NazParams(n=n, offset=r, s=s), seed=40_000 + c)
        points = rng.stream(77, 1, c).standard_normal((per_cluster, n))
        cluster_means[c] = K.contains_points(points).mean()
        norms = np.linalg.norm(points, axis=1)
        survival_all.append(cap.cap_probability_from_ratio(n, r / norms) ** s)
    survival_all = np.concatenate(survival_all)
    lhs = cluster_means.mean()
    lhs_se = cluster_means.std(ddof=1) / math.sqrt(clusters)
    rhs = survival_all.mean()
    rhs_se = survival_all.std(ddof=1) / math.sqrt(survival_all.size)
    assert abs(lhs - rhs) <= 4 * math.hypot(lhs_se, rhs_se)


def test_sample_naz_prime_structure():
    params = NazParams(n=4, offset=3.0, s=1, variant=polytope.GAUSSIAN)
    K = polytope.sample_naz(params, seed=5)
    assert K.num_facets == 1
    assert np.allclose(np.linalg.norm(K.normals, axis=1), 1.0, atol=1e-12)
    # offset = w/||g||, so the raw norm is recoverable
    raw_norm = 3.0 / K.offsets[0]
    assert raw_norm > 0.0
    assert K.inradius() == pytest.approx(K.offsets[0])
    again = polytope.sample_naz(params, seed=5)
    assert np.array_equal(K.normals, again.normals)


def test_sample_naz_prime_goodness():
    # all raw norms below 2 sqrt(n) in at least 99% of draws
    n, s, w = 64, 100, 64.0**0.75
    params = NazParams(n=n, offset=w, s=s, variant=polytope.GAUSSIAN)
    good = 0
    draws = 1000
    for d in range(draws):
        K = polytope.sample_naz(params, seed=90_000 + d)
        raw_norms = w / K.offsets
        good += bool(np.all(raw_norms <= 2.0 * math.sqrt(n)))
    assert good / draws >= 0.99


def test_contains_cases():
    K = polytope.sample_naz(NazParams(n=6, offset=1.5, s=10), seed=2)
    points = np.stack([np.zeros(6), 2.5 * K.normals[0]])
    assert K.contains_points(points).tolist() == [True, False]
    for wrong in (np.zeros((1, 5)), np.zeros(6)):
        with pytest.raises(ValueError):
            K.contains_points(wrong)


def test_contains_closed_boundary():
    box = HalfspacePolytope(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    points = np.array([[1.0, 0.0], [1.0, 1.0], [1.0 + 1e-9, 0.0]])
    assert box.contains_points(points).tolist() == [True, True, False]


def test_inradius_naz_and_inscribed_ball():
    state = np.random.default_rng(12)
    for k in range(20):
        K = polytope.sample_naz(NazParams(n=5, offset=1.25, s=12), seed=500 + k)
        assert K.inradius() == 1.25
        directions = state.standard_normal((1000, 5))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        inside = K.contains_points((K.inradius() - 1e-9) * directions)
        assert inside.all()


def test_inradius_naz_prime():
    params = NazParams(n=6, offset=2.0, s=9, variant=polytope.GAUSSIAN)
    K = polytope.sample_naz(params, seed=31)
    assert K.inradius() == pytest.approx(K.offsets.min())


def test_polytope_validation():
    with pytest.raises(ValueError):
        HalfspacePolytope(np.array([[2.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        HalfspacePolytope(np.array([[1.0, 0.0]]), np.array([-1.0]))
    with pytest.raises(ValueError):
        HalfspacePolytope(np.eye(2), np.array([1.0]))


def test_ball_basics():
    ball = Ball(n=4, radius=1.5)
    assert ball.inradius() == 1.5
    points = np.zeros((4, 4))
    points[1:, 0] = 1.5, 1.5 + 1e-9, 2.0
    assert ball.contains_points(points).tolist() == [True, True, False, False]
    with pytest.raises(ValueError):
        Ball(n=0, radius=1.0)
    with pytest.raises(ValueError):
        Ball(n=2, radius=0.0)


def test_ball_radius_whose_square_is_not_a_finite_double_is_rejected():
    # contains_points compares against radius**2, which overflowed with an
    # OverflowError past sqrt(max double), about 1.34e154
    for radius in (1e200, np.float64(1e200), math.inf):
        with pytest.raises(ValueError, match="radius .* is too large"):
            Ball(n=4, radius=radius)
    big = Ball(n=2, radius=1e154)
    assert big.contains_points(np.array([[0.0, 0.0], [1e153, 1e153]])).tolist() == [True, True]


def _untiled(points, normals, offsets):
    return np.all(points @ normals.T <= offsets, axis=1)


def test_membership_tiles_are_exactly_the_untiled_mask(monkeypatch):
    # signed unit-axis normals make every product exact, so any tiling must
    # give the untiled mask bit for bit, ties, NaN and infinities included
    normals = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]])
    offsets = np.array([1.0, 1.0, 2.0, 0.5, 3.0])
    grid = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, np.nan, np.inf, -np.inf])
    points = np.stack(np.meshgrid(grid, grid, grid[:8], indexing="ij"), -1).reshape(-1, 3)
    points = np.vstack([points, [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [-1.0, -0.5, 3.0]]])
    cases = [(points, normals, offsets),
             (points, normals[2:3], offsets[2:3]),  # one facet
             (points[:0], normals, offsets)]  # zero rows
    K = HalfspacePolytope(normals, offsets)
    # the untiled mask itself is what every tiling must give; the last rows
    # are interior points and ties, so a skipped or ragged last tile cannot
    # pass on leftover memory
    with np.errstate(invalid="ignore"):  # inf * 0 in the products is NaN
        whole = _untiled(points, normals, offsets)
        assert whole[-3:].all()
        for tile in (1, 5, 12, 37, 1 << 18):  # one row per tile up to one tile in all
            monkeypatch.setattr(polytope, "_TILE", tile)
            for pts, nrm, off in cases:
                expected = _untiled(pts, nrm, off)
                got = polytope._satisfies_all(pts, nrm, off)
                assert got.dtype == bool and got.shape == expected.shape
                assert np.array_equal(got, expected), (tile, nrm.shape)
            assert np.array_equal(K.contains_points(points), whole)


def test_membership_peak_memory_is_one_tile():
    gen = np.random.default_rng(11)
    normals = gen.standard_normal((5000, 16))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    K = HalfspacePolytope(normals, np.full(5000, 2.0))
    points = gen.standard_normal((4096, 16))
    tracemalloc.start()
    try:
        inside = K.contains_points(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inside.shape == (4096,)
    # one tile of 2^18 float64 products and their bool copy, plus the result,
    # is about 2.4 MB; the whole 4096 x 5000 product and its copy used to
    # peak at about 184 MB
    assert peak < 8e6

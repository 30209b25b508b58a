import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert K.variant == polytope.UNIT_SPHERE
    single = polytope.sample_naz(NazParams(n=2, offset=1.0, s=1), seed=0)
    assert single.inradius() == 1.0


def test_membership_probability_factorizes():
    # over the randomness of the body, P[x in K] = cap probability^s
    n, r, s = 8, 1.0, 6
    x = np.zeros(n)
    x[0] = 1.7
    params = NazParams(n=n, offset=r, s=s)
    draws = 4000
    hits = sum(polytope.sample_naz(params, seed=10_000 + d).contains(x)
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
    assert K.contains(np.zeros(6))
    assert not K.contains(2.5 * K.normals[0])
    with pytest.raises(ValueError):
        K.contains(np.zeros(5))


def test_contains_closed_boundary():
    box = HalfspacePolytope(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    assert box.contains(np.array([1.0, 0.0]))
    assert box.contains(np.array([1.0, 1.0]))
    assert not box.contains(np.array([1.0 + 1e-9, 0.0]))


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


def test_dilate_identity_and_offsets():
    K = polytope.sample_naz(NazParams(n=4, offset=1.5, s=6), seed=9)
    same = K.dilate(1.0)
    assert np.array_equal(same.offsets, K.offsets)
    grown = K.dilate(1.25)
    assert np.allclose(grown.offsets, 1.5 * 1.25)
    assert np.array_equal(grown.normals, K.normals)
    with pytest.raises(ValueError):
        K.dilate(0.0)


def test_dilate_monotone():
    K = polytope.sample_naz(NazParams(n=4, offset=1.0, s=8), seed=13)
    points = rng.stream(2, 9).standard_normal((1000, 4))
    inside = K.contains_points(points)
    bigger = K.dilate(2.0).contains_points(points)
    assert np.all(bigger[inside])


@given(st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_dilate_composes_exactly(a, b):
    K = polytope.sample_naz(NazParams(n=3, offset=1.0, s=4), seed=1)
    assert np.array_equal(K.dilate(a).dilate(b).offsets, K.dilate(a * b).offsets)


def test_polytope_validation():
    with pytest.raises(ValueError):
        HalfspacePolytope(np.array([[2.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        HalfspacePolytope(np.array([[1.0, 0.0]]), np.array([-1.0]))
    with pytest.raises(ValueError):
        HalfspacePolytope(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 2.0]),
                          variant=polytope.UNIT_SPHERE)


def test_json_roundtrip_schema():
    K = polytope.sample_naz(NazParams(n=3, offset=1.0, s=5), seed=21)
    doc = json.loads(K.to_json())
    assert set(doc) == {"n", "variant", "seed", "normals", "offsets"}
    assert doc["n"] == 3 and doc["seed"] == 21
    back = HalfspacePolytope.from_json(K.to_json())
    assert np.array_equal(back.normals, K.normals)
    assert np.array_equal(back.offsets, K.offsets)
    assert back.variant == K.variant and back.seed == K.seed


def test_ball_basics():
    ball = Ball(n=4, radius=1.5)
    assert ball.contains(np.array([1.5, 0.0, 0.0, 0.0]))
    assert not ball.contains(np.array([1.5 + 1e-9, 0.0, 0.0, 0.0]))
    assert ball.inradius() == 1.5
    points = np.array([[0.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
    assert ball.contains_points(points).tolist() == [True, False]
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

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsalab import cap, cli, estimators, polytope, rng, specfun
from gsalab.estimators import (Estimate, estimate_gsa_facets, estimate_hermite_coefficients,
                               estimate_influence_spectral, estimate_volume,
                               influence_from_hermite_estimates)
from gsalab.polytope import Ball, HalfspacePolytope, NazParams

from oracles import ball_influence_quadrature, facet_pass_reference


def slab_1d(theta):
    return HalfspacePolytope(np.array([[1.0], [-1.0]]), np.array([theta, theta]))


def combined_gate(a, b, sigmas=4.0):
    return abs(a.value - b) <= sigmas * max(a.stderr, 1e-15)


def test_estimate_validation():
    with pytest.raises(ValueError):
        Estimate(value=1.0, stderr=-0.1, samples=10, seed=0)
    with pytest.raises(ValueError):
        Estimate(value=1.0, stderr=0.1, samples=0, seed=0)
    with pytest.raises(ValueError):
        estimate_volume(Ball(n=2, radius=1.0), 1, seed=0)


def test_estimate_row_schema():
    est = Estimate(value=0.5, stderr=0.01, samples=100, seed=3)
    row = cli._row("volume", **vars(est))
    assert row == {"name": "volume", "value": 0.5, "stderr": 0.01,
                   "samples": 100, "seed": 3}


def test_volume_full_space():
    huge = HalfspacePolytope(np.array([[1.0, 0.0]]), np.array([1e9]))
    est = estimate_volume(huge, 5000, seed=1)
    assert est.value == 1.0
    assert est.stderr == 0.0


def test_volume_slab_95():
    est = estimate_volume(slab_1d(1.959964), 100_000, seed=2)
    assert abs(est.value - 0.95) <= 3 * est.stderr


def test_volume_matches_radial_survival_integral():
    # Fubini: E_K Vol(K) = E_rho[P(rho)^s], evaluated by quadrature
    n, r, s = 16, 2.0, 32
    from gsalab.quadrature import composite_nodes

    x, w = composite_nodes(1e-9, math.sqrt(n) + 12.0, 4096)
    chi = np.exp(specfun.chi_log_density(n, x))
    survival = cap.cap_probability_from_ratio(n, r / x) ** s
    expected = float(np.dot(w, chi * survival))

    draws = 60
    values = np.empty(draws)
    for d in range(draws):
        K = polytope.sample_naz(NazParams(n=n, offset=r, s=s), seed=300 + d)
        values[d] = estimate_volume(K, 20_000, seed=800 + d).value
    stderr = values.std(ddof=1) / math.sqrt(draws)
    assert abs(values.mean() - expected) <= 4 * stderr


def test_influence_spectral_full_space():
    huge = HalfspacePolytope(np.array([[1.0] + [0.0] * 7]), np.array([1e9]))
    est = estimate_influence_spectral(huge, 50_000, seed=3)
    assert abs(est.value) <= 4 * est.stderr


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_influence_spectral_ball_oracle(n, R):
    est = estimate_influence_spectral(Ball(n=n, radius=R), 200_000, seed=n * 10 + int(2 * R))
    oracle = ball_influence_quadrature(n, R)
    assert combined_gate(est, oracle), (n, R, est.value, oracle)


def test_hermite_full_space_zero():
    huge = HalfspacePolytope(np.array([[1.0] + [0.0] * 3]), np.array([1e9]))
    est = estimate_hermite_coefficients(huge, 50_000, seed=4)[0]
    assert abs(est.value) <= 4 * est.stderr


def test_hermite_slab_closed_form():
    # integral of h2 phi over [-t, t] is -sqrt(2) t phi(t), by parts
    theta = 1.0
    oracle = -math.sqrt(2.0) * theta * specfun.gaussian_pdf(theta)
    est = estimate_hermite_coefficients(slab_1d(theta), 200_000, seed=5)[0]
    assert combined_gate(est, oracle)


def test_hermite_ball_symmetry():
    coeffs = estimate_hermite_coefficients(Ball(n=5, radius=1.3), 100_000, seed=6)
    for i in range(5):
        for j in range(i + 1, 5):
            gap = abs(coeffs[i].value - coeffs[j].value)
            assert gap <= 4 * math.hypot(coeffs[i].stderr, coeffs[j].stderr)


def test_influence_from_hermite_matches_spectral_exactly():
    K = polytope.sample_naz(NazParams(n=16, offset=2.0, s=32), seed=17)
    spectral = estimate_influence_spectral(K, 30_000, seed=18)
    coeffs = estimate_hermite_coefficients(K, 30_000, seed=18)
    combined = influence_from_hermite_estimates(coeffs)
    assert combined.value == pytest.approx(spectral.value, abs=1e-12)


def test_influence_from_hermite_validation():
    with pytest.raises(ValueError):
        influence_from_hermite_estimates([])
    a = Estimate(value=0.0, stderr=0.1, samples=100, seed=1)
    b = Estimate(value=0.0, stderr=0.1, samples=100, seed=2)
    with pytest.raises(ValueError, match="one \\(samples, seed\\) stream"):
        influence_from_hermite_estimates([a, b])


def test_influence_all_zero_coefficients():
    zeros = [Estimate(value=0.0, stderr=0.0, samples=10, seed=1) for _ in range(4)]
    assert influence_from_hermite_estimates(zeros).value == 0.0


def test_influence_cauchy_schwarz():
    K = polytope.sample_naz(NazParams(n=8, offset=1.5, s=12), seed=19)
    coeffs = estimate_hermite_coefficients(K, 40_000, seed=20)
    combined = influence_from_hermite_estimates(coeffs)
    bound = math.sqrt(2 * 8 * sum(c.value**2 for c in coeffs))
    assert abs(combined.value) <= bound + 4 * combined.stderr


def test_gsa_single_halfspace_exact():
    for b in (0.0001, 1.0, 2.0):
        single = HalfspacePolytope(np.array([[1.0, 0.0, 0.0]]), np.array([b]))
        est = estimate_gsa_facets(single, 100, seed=7)
        assert est.value == pytest.approx(specfun.gaussian_pdf(b), rel=1e-14)
        assert est.stderr == 0.0
    origin_like = HalfspacePolytope(np.array([[1.0]]), np.array([1e-12]))
    assert estimate_gsa_facets(origin_like, 10, seed=0).value == pytest.approx(
        0.3989422804014327, rel=1e-9)


def test_gsa_slab_two_boundary_points():
    theta = 1.0
    est = estimate_gsa_facets(slab_1d(theta), 100, seed=8)
    assert est.value == pytest.approx(2.0 * specfun.gaussian_pdf(theta), rel=1e-14)


def test_gsa_vs_influence_identity_per_draw():
    # every boundary point of the sampled body has x.normal = r, so the
    # influence equals r times the surface area draw by draw
    n, r, s = 16, 2.0, 32
    K = polytope.sample_naz(NazParams(n=n, offset=r, s=s), seed=23)
    surface = estimate_gsa_facets(K, 8000, seed=24)
    influence = estimate_influence_spectral(K, 60_000, seed=25)
    gap = abs(r * surface.value - influence.value)
    assert gap <= 4 * math.hypot(r * surface.stderr, influence.stderr)


def test_naz_prime_influence_dominates_inradius_times_gsa():
    params = NazParams(n=8, offset=8.0**0.75, s=12, variant=polytope.GAUSSIAN)
    K = polytope.sample_naz(params, seed=26)
    surface = estimate_gsa_facets(K, 8000, seed=27)
    influence = estimate_influence_spectral(K, 60_000, seed=28)
    lower = K.inradius() * surface.value
    slack = 4 * math.hypot(K.inradius() * surface.stderr, influence.stderr)
    assert influence.value >= lower - slack


def test_influence_upper_bound_sqrt_2n():
    for n, seed in ((4, 31), (16, 32)):
        K = polytope.sample_naz(NazParams(n=n, offset=1.0, s=8), seed=seed)
        est = estimate_influence_spectral(K, 20_000, seed=seed + 100)
        assert est.value <= math.sqrt(2.0 * n) + 4 * est.stderr


def test_point_stream_prefix_stability():
    for path in [(), (rng.DOMAIN_POINTS,), (rng.DOMAIN_BOUNDARY, 5)]:
        # the first k samples are bitwise independent of the total sample count
        short = np.concatenate(list(rng.gaussian_chunks(3, 6000, 9, *path)))
        long = np.concatenate(list(rng.gaussian_chunks(3, 12_000, 9, *path)))
        assert np.array_equal(short, long[:6000])
        # each block, the partial last one included, is the leading rows of a
        # full CHUNK x n draw from the key (seed, *path, block index)
        key = path or (rng.DOMAIN_POINTS,)
        blocks = list(rng.gaussian_chunks(3, 6000, 9, *path))
        assert [b.shape for b in blocks] == [(rng.CHUNK, 3), (6000 - rng.CHUNK, 3)]
        for c, block in enumerate(blocks):
            full = rng.stream(9, *key, c).standard_normal((rng.CHUNK, 3))
            assert np.array_equal(block, full[:block.shape[0]])


def test_gsa_facets_frozen_regression():
    # exact values from the full-block draw; 5000 samples per facet span two
    # chunks, so this pins the facet stream keys and the partial last block
    K = polytope.sample_naz(NazParams(n=5, offset=1.2, s=7), seed=17)
    est = estimate_gsa_facets(K, 5000, seed=23)
    assert est.value == 0.6776704946804167
    assert est.stderr == 0.0035339648200616923
    assert (est.samples, est.seed) == (5000, 23)


def test_gsa_facets_frozen_regression_across_row_tiles():
    # captured before membership ran in row tiles; the 300 stored facets now
    # make each 1500-row block span four tiles of 436 rows
    K = polytope.sample_naz(NazParams(n=8, offset=1.4, s=300), seed=31)
    assert polytope._TILE // (K.num_facets - 1) < 1500
    est = estimate_gsa_facets(K, 1500, seed=37)
    assert est.value == 0.22868374918099457
    assert est.stderr == 0.004764405946124518


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 6), s=st.integers(1, 300), spf=st.integers(2, 1200),
       offset=st.floats(0.2, 3.0), gaussian=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=3, s=300, spf=1200, offset=1.0, gaussian=False, seed=5)  # 436-row tiles
@example(n=2, s=1, spf=2, offset=0.5, gaussian=True, seed=0)
def test_gsa_facets_is_bit_for_bit_the_copying_loop(n, s, spf, offset, gaussian, seed):
    # testing against all s facets with facet i lifted to +inf must count
    # exactly the hits of the loop that copied the other s - 1 facets, also
    # where a block splits into row tiles of a different height
    variant = polytope.GAUSSIAN if gaussian else polytope.UNIT_SPHERE
    K = polytope.sample_naz(NazParams(n=n, offset=offset, s=s, variant=variant), seed)
    assert estimate_gsa_facets(K, spf, seed) == facet_pass_reference(K, spf, seed)


def test_gsa_facets_tests_the_polytope_as_stored(monkeypatch):
    K = polytope.sample_naz(NazParams(n=5, offset=1.2, s=7), seed=17)
    seen = []
    real = estimators._satisfies_all

    def spy(points, normals, offsets):
        seen.append(normals is K.normals)
        return real(points, normals, offsets)

    monkeypatch.setattr(estimators, "_satisfies_all", spy)
    estimate_gsa_facets(K, 5000, seed=23)
    assert len(seen) == 2 * K.num_facets and all(seen)


GSA_BODIES = {
    "one facet": (NazParams(n=4, offset=1.0, s=1), 700),
    "two blocks per facet": (NazParams(n=5, offset=1.2, s=7), rng.CHUNK + 904),
    "blocks over two tiles": (NazParams(n=8, offset=1.4, s=100), 2000),
}


def scheduled_claim(schedule, caller):
    """A stand-in for estimators._claim that hands the facets out by schedule.

    "caller only" and "helper only" keep the other worker from claiming any
    facet; "alternating" makes the calling thread and the helper take turns,
    caller first.  Returns the claim and its record of (on caller, facet).
    """
    real_claim = estimators._claim
    turn = threading.Condition()
    claims = []

    def claim(facets, lock):
        on_caller = threading.get_ident() == caller
        with turn:
            if schedule == "alternating":
                assert turn.wait_for(lambda: len(claims) % 2 != on_caller, timeout=60)
            elif on_caller != (schedule == "caller only"):
                return None
            i = real_claim(facets, lock)
            claims.append((on_caller, i))
            turn.notify_all()
            return i

    return claim, claims


@pytest.mark.parametrize("schedule", ["caller only", "helper only", "alternating"])
@pytest.mark.parametrize("body", GSA_BODIES)
def test_gsa_facets_bits_do_not_depend_on_the_schedule(monkeypatch, body, schedule):
    params, spf = GSA_BODIES[body]
    K = polytope.sample_naz(params, seed=19)
    if body == "blocks over two tiles":
        rows = polytope._TILE // K.num_facets
        assert rows < spf <= 2 * rows
    claim, claims = scheduled_claim(schedule, threading.get_ident())
    monkeypatch.setattr(estimators, "_claim", claim)
    assert estimate_gsa_facets(K, spf, seed=29) == facet_pass_reference(K, spf, seed=29)
    on_caller = [i % 2 == 0 if schedule == "alternating" else schedule == "caller only"
                 for i in range(K.num_facets)]
    assert [claimed for claimed in claims if claimed[1] is not None] == list(
        zip(on_caller, range(K.num_facets)))


@pytest.mark.parametrize("where", ["draw", "membership"])
def test_gsa_facets_failures_surface_and_leave_no_thread(monkeypatch, where):
    # the failing worker claims no further facet and the other finishes at
    # most the one it holds, whichever of the two fails
    K = polytope.sample_naz(NazParams(n=5, offset=1.2, s=40), seed=17)
    caller = threading.get_ident()
    real_claim = estimators._claim
    real_stream = rng.stream
    real_membership = estimators._satisfies_all
    for failing in ("caller", "helper"):
        events = []

        def fail_here():
            if (threading.get_ident() == caller) == (failing == "caller"):
                events.append(("failed", threading.get_ident()))
                raise RuntimeError(f"{where} failed")

        def claim(facets, lock):
            i = real_claim(facets, lock)
            if i is not None:
                events.append(("claimed", threading.get_ident()))
            return i

        def stream(seed, *path):
            if path[0] == rng.DOMAIN_BOUNDARY and where == "draw":
                fail_here()
            return real_stream(seed, *path)

        def membership(points, normals, offsets):
            if where == "membership":
                fail_here()
            return real_membership(points, normals, offsets)

        monkeypatch.setattr(estimators, "_claim", claim)
        monkeypatch.setattr(rng, "stream", stream)
        monkeypatch.setattr(estimators, "_satisfies_all", membership)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{where} failed"):
            estimate_gsa_facets(K, 5000, seed=23)
        assert threading.active_count() == threads
        failed = next(k for k, (event, _) in enumerate(events) if event == "failed")
        later = [worker for event, worker in events[failed:] if event == "claimed"]
        assert all(later.count(worker) <= 1 for worker in later), (failing, events)


def test_gsa_facets_start_at_most_one_thread_beyond_the_caller(monkeypatch):
    K = polytope.sample_naz(NazParams(n=5, offset=1.2, s=40), seed=17)
    threads = threading.active_count()
    seen = []
    real = estimators._satisfies_all

    def membership(points, normals, offsets):
        seen.append(threading.active_count())
        return real(points, normals, offsets)

    monkeypatch.setattr(estimators, "_satisfies_all", membership)
    estimate_gsa_facets(K, 5000, seed=23)
    assert max(seen) <= threads + 1
    assert threading.active_count() == threads


def test_gsa_facets_keep_their_bits_under_concurrent_callers():
    # more callers than cores, each with its own helper worker, trading the
    # interpreter every 10 us
    K = polytope.sample_naz(NazParams(n=5, offset=1.2, s=7), seed=17)
    expected = [facet_pass_reference(K, 100, seed) for seed in range(4)]
    got = [None] * len(expected)

    def call(seed):
        got[seed] = estimate_gsa_facets(K, 100, seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(seed,)) for seed in range(len(got))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == expected


def test_gsa_facets_hold_one_block_in_flight():
    # n = 64 and 2 * CHUNK samples per facet draw only full 4096 x 64 blocks
    # (2 MiB each).  Each of the two workers holds at most its block, the
    # block's projection np.outer(g @ v, v) and one membership tile of float64
    # products with its bool comparison: about 10.7 MB for both.  This code
    # peaks at about 8.7 MB; a worker drawing a whole facet's two blocks
    # before testing them read 12.9 MB.
    K = polytope.sample_naz(NazParams(n=64, offset=2.8, s=100), seed=5)
    block = rng.CHUNK * K.n * 8
    tile = polytope._TILE // K.num_facets * K.num_facets * 9
    assert polytope._TILE // K.num_facets < rng.CHUNK
    tracemalloc.start()
    try:
        estimate_gsa_facets(K, 2 * rng.CHUNK, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (2 * block + tile)


def test_influence_and_volume_frozen_regression_across_row_tiles():
    # captured before membership ran in row tiles: 200 facets split the
    # 4096-row chunk into tiles of 655 rows and the 1904-row tail into three
    K = polytope.sample_naz(NazParams(n=16, offset=2.0, s=200), seed=41)
    assert polytope._TILE // K.num_facets < 1904
    influence = estimate_influence_spectral(K, 6000, seed=43)
    assert (influence.value, influence.stderr) == (1.090706594782663, 0.0339433489948323)
    volume = estimate_volume(K, 6000, seed=43)
    assert (volume.value, volume.stderr) == (0.16716666666666666, 0.004817419429393378)


def test_estimators_draw_only_the_normals_they_use(monkeypatch):
    K = polytope.sample_naz(NazParams(n=5, offset=1.2, s=7), seed=17)
    drawn = []
    real_stream = rng.stream

    class Recording:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, size):
            out = self.gen.standard_normal(size)
            drawn.append(out.size)
            return out

    monkeypatch.setattr(rng, "stream", lambda *key: Recording(real_stream(*key)))
    estimate_gsa_facets(K, 5000, seed=23)
    assert sum(drawn) == K.num_facets * 5000 * K.n
    drawn.clear()
    estimate_volume(K, 6000, seed=23)
    assert sum(drawn) == 6000 * K.n


def test_estimators_deterministic():
    K = polytope.sample_naz(NazParams(n=6, offset=1.0, s=6), seed=41)
    a = estimate_influence_spectral(K, 10_000, seed=42)
    b = estimate_influence_spectral(K, 10_000, seed=42)
    assert a == b

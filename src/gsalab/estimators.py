"""Monte Carlo estimators for Gaussian volume, convex influence, and surface area.

All estimators draw the same chunked Gaussian point stream for a given seed,
so estimators that are pointwise identities of each other (the moment form
n - ||x||^2 versus the summed degree-2 coefficients) agree to summation
order, not just in distribution.  Standard errors are always reported;
downstream tests gate at four standard errors.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import rng
from .hermite import SQRT2, h2
from .polytope import HalfspacePolytope, _satisfies_all
from .specfun import gaussian_pdf

@dataclass(frozen=True)
class Estimate:
    """Monte Carlo result: value, standard error, sample count, seed."""

    value: float
    stderr: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not (math.isfinite(self.value) and math.isfinite(self.stderr) and self.stderr >= 0):
            raise ValueError(f"invalid estimate: value={self.value}, stderr={self.stderr}")


def _mean_estimate(total: float, total_sq: float, count: int, seed: int) -> Estimate:
    mean = total / count
    if count > 1:
        var = max(0.0, (total_sq - count * mean * mean) / (count - 1))
    else:
        var = 0.0
    return Estimate(value=mean, stderr=math.sqrt(var / count), samples=count, seed=seed)


def _mc_over_body(body, samples: int, seed: int, weight) -> Estimate:
    """Mean of 1_body(x) * weight(x) over i.i.d. standard Gaussian points.

    weight maps a (k, n) block to k per-sample values; membership zeroes the
    rest.  Chunk streams are keyed by (seed, DOMAIN_POINTS, chunk), so
    partial sums are stable prefixes of longer runs.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2 for a standard error")
    total = 0.0
    total_sq = 0.0
    for block in rng.gaussian_chunks(body.n, samples, seed):
        vals = weight(block) * body.contains_points(block)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    return _mean_estimate(total, total_sq, samples, seed)


def estimate_volume(body, samples: int, seed: int) -> Estimate:
    """Gaussian measure P[x in body] by plain indicator averaging."""
    return _mc_over_body(body, samples, seed, lambda block: 1.0)


def estimate_influence_spectral(body, samples: int, seed: int) -> Estimate:
    """Total convex influence as the moment integral of (n - ||x||^2) over the body.

    This is the dilation derivative d/dt Vol((1+t) body) at t = 0 written as
    a Gaussian expectation, so a single indicator-weighted mean estimates it.
    """
    n = body.n

    def weight(block):
        return n - np.einsum("ij,ij->i", block, block)

    return _mc_over_body(body, samples, seed, weight)


def estimate_hermite_coefficients(body, samples: int, seed: int) -> list[Estimate]:
    """The n degree-2 diagonal coefficients E[1_body(x) h2(x_i)], i 0-based.

    Each is one pass over the same shared point stream.
    """
    return [_mc_over_body(body, samples, seed, lambda block, i=i: h2(block[:, i]))
            for i in range(body.n)]


def influence_from_hermite_estimates(coeffs) -> Estimate:
    """Combine degree-2 coefficients into influence: -sqrt(2) * sum of values.

    The inputs must come from one point stream (same sample count and seed);
    the combined value is then exactly the moment estimator on that stream.
    The reported stderr propagates the per-axis errors without cross terms,
    which would be exact only for independent streams; the moment
    estimator's own stderr is the sharp one.
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("need at least one coefficient estimate")
    if len({(c.samples, c.seed) for c in coeffs}) != 1:
        raise ValueError("coefficients must share one (samples, seed) stream")
    value = -SQRT2 * sum(c.value for c in coeffs)
    stderr = SQRT2 * math.sqrt(sum(c.stderr**2 for c in coeffs))
    return Estimate(value=value, stderr=stderr, samples=coeffs[0].samples, seed=coeffs[0].seed)


def _claim(facets, lock):
    """Next index of a facet iterator shared by threads, or None once spent."""
    with lock:
        return next(facets, None)


def estimate_gsa_facets(K: HalfspacePolytope, samples_per_facet: int, seed: int) -> Estimate:
    """Gaussian surface area of a halfspace intersection, facet by facet.

    The boundary piece on facet i lives in the hyperplane x.v_i = b_i, where
    the Gaussian factorizes into phi(b_i) along v_i times a standard Gaussian
    within the hyperplane.  So GSA = sum_i phi(b_i) * P_i with P_i the chance
    that an in-hyperplane Gaussian point satisfies every other facet.  Points
    are built as y = g - (g.v_i) v_i + b_i v_i from ambient Gaussians g,
    avoiding any explicit basis of the hyperplane.  Fully redundant facets
    never meet the boundary and contribute zero automatically.

    Facet i draws its g from the chunked stream at path (DOMAIN_BOUNDARY, i),
    so block c is keyed (seed, DOMAIN_BOUNDARY, i, c) and each facet's hit
    count is a stable prefix of any longer run with the same seed.

    Every block is tested against all s facets as stored, facet i's offset
    lifted to +inf in its worker's copy of the offsets, so its own
    in-hyperplane points pass it whatever their rounding.

    Two symmetric workers, this thread and one helper, each claim the next
    facet from one shared iterator and draw, project and test all its
    blocks.  Streams, keys and blocks per facet are those of a serial pass
    and the integer hit counts are summed in facet order, so the estimate
    keeps its bits whichever worker ran which facet.  After a failure in
    either worker the other claims no new facet, and the first error is
    raised once both have stopped.

    Memory: each worker holds one block (at most rng.CHUNK rows), projects
    it in place and tests it in row tiles of at most polytope._TILE
    products: beyond a copy of the s offsets, O(rng.CHUNK * n + _TILE) per
    worker, whatever the numbers of points and facets.
    """
    if samples_per_facet < 2:
        raise ValueError("samples_per_facet must be >= 2")
    normals = K.normals
    offsets = K.offsets
    hits = [0] * K.num_facets
    errors = []
    facets = (i for i in range(K.num_facets) if not errors)
    lock = threading.Lock()

    def work():
        lifted = offsets.copy()
        try:
            while (i := _claim(facets, lock)) is not None:
                v = normals[i]
                lifted[i] = np.inf
                for g in rng.gaussian_chunks(K.n, samples_per_facet, seed, rng.DOMAIN_BOUNDARY, i):
                    g -= np.outer(g @ v, v)
                    g += offsets[i] * v
                    hits[i] += int(_satisfies_all(g, normals, lifted).sum())
                lifted[i] = offsets[i]
        except BaseException as exc:
            errors.append(exc)

    helper = threading.Thread(target=work)
    helper.start()
    work()
    helper.join()
    if errors:
        raise errors[0]
    value = 0.0
    variance = 0.0
    for i in range(K.num_facets):
        p_hat = hits[i] / samples_per_facet
        density = gaussian_pdf(offsets[i])
        value += density * p_hat
        sample_var = p_hat * (1.0 - p_hat) * samples_per_facet / (samples_per_facet - 1)
        variance += density**2 * sample_var / samples_per_facet
    return Estimate(value=value, stderr=math.sqrt(variance),
                    samples=samples_per_facet, seed=seed)

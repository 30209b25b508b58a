"""Random convex bodies: intersections of halfspaces tangent to a sphere.

One sampler draws both variants.  The primary one draws s uniform unit
normals and puts every facet at common distance r from the origin; the
variant draws raw Gaussian normals with a common raw offset w and stores them
normalized, so both produce the same representation: unit normals plus
per-facet offsets.  A polytope keeps neither its seed nor its variant:
sample_naz is deterministic in (params, seed), and every report records both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng

UNIT_SPHERE = "unit-sphere-normals"
GAUSSIAN = "gaussian-normals"

_UNIT_TOL = 1e-12
# Point-facet products held at once by a membership test (1 MiB of float64);
# a test's transient memory is O(_TILE) whatever its sizes.  The two workers
# of estimate_gsa_facets each hold one tile, 2 MiB together.
_TILE = 1 << 17


def _satisfies_all(points: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Row mask of np.all(points @ normals.T <= offsets, axis=1), in row tiles.

    Each tile takes at most _TILE products (at least one row), and the tiles
    write into one preallocated bool array.  A product may differ in its last
    bit from the untiled one, since BLAS blocks each tile on its own; so a
    hit can only flip for a point within rounding distance of a facet.
    """
    mask = np.empty(points.shape[0], dtype=bool)
    rows = max(1, _TILE // max(1, normals.shape[0]))
    for start in range(0, points.shape[0], rows):
        tile = slice(start, start + rows)
        np.all(points[tile] @ normals.T <= offsets, axis=1, out=mask[tile])
    return mask


@dataclass(frozen=True)
class NazParams:
    """Configuration of the random-polytope distribution.

    offset is the facet distance r for the unit-sphere variant and the raw
    halfspace offset w for the Gaussian variant.
    """

    n: int
    offset: float
    s: int
    variant: str = UNIT_SPHERE

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")
        if not (math.isfinite(self.offset) and self.offset > 0.0):
            raise ValueError(f"offset must be positive, got {self.offset}")
        if self.s < 1:
            raise ValueError(f"facet count must be >= 1, got {self.s}")
        if self.variant not in (UNIT_SPHERE, GAUSSIAN):
            raise ValueError(f"unknown variant: {self.variant}")


@dataclass(frozen=True, eq=False)
class HalfspacePolytope:
    """Intersection of halfspaces {x : x.normal_i <= offset_i}.

    Normals are stored unit length; offsets are all strictly positive, so
    the body always contains the origin.  Instances are immutable and safe
    to share across threads.
    """

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        normals = np.asarray(self.normals, dtype=float)
        offsets = np.asarray(self.offsets, dtype=float)
        if normals.ndim != 2 or offsets.ndim != 1 or normals.shape[0] != offsets.shape[0]:
            raise ValueError("normals must be (s, n) and offsets (s,)")
        if normals.shape[0] < 1 or normals.shape[1] < 1:
            raise ValueError("need at least one facet in at least one dimension")
        if np.any(offsets <= 0.0):
            raise ValueError("all offsets must be positive (origin inside)")
        lengths = np.linalg.norm(normals, axis=1)
        if np.any(np.abs(lengths - 1.0) > _UNIT_TOL):
            raise ValueError("normals must be unit length")
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)
        self.normals.setflags(write=False)
        self.offsets.setflags(write=False)

    @property
    def n(self) -> int:
        return self.normals.shape[1]

    @property
    def num_facets(self) -> int:
        return self.normals.shape[0]

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (m, n) array of finite points.

        Runs in row tiles of at most _TILE point-facet products, so beyond
        the (m,) result its memory is O(_TILE), independent of the number of
        points and facets.  Points are not checked for finiteness: an
        infinite coordinate can meet a zero normal component, and the NaN
        product reads as outside.  The check would cost about an eighth of
        a call (118 us against 964 us for 4096 x 64 points and 64 facets on
        a 2-core Xeon), and this hot path only sees Gaussian draws.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.n:
            raise ValueError(f"points must be (m, {self.n})")
        return _satisfies_all(points, self.normals, self.offsets)

    def inradius(self) -> float:
        """Radius of the largest origin-centered inscribed ball.

        With unit normals this is exactly the smallest facet offset.
        """
        return float(self.offsets.min())


@dataclass(frozen=True)
class Ball:
    """Origin-centered Euclidean ball; a convex body for the estimators."""

    n: int
    radius: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if not self.radius > 0.0:
            raise ValueError(f"radius must be > 0, got {self.radius}")
        try:
            square = float(self.radius)**2
        except OverflowError:
            square = math.inf
        if not math.isfinite(square):
            raise ValueError(
                f"radius {self.radius} is too large: its square is not a finite double")

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (m, n) array of points.

        As for a polytope, points are not checked for finiteness; here a NaN
        or infinite coordinate reads as outside."""
        points = np.asarray(points, dtype=float)
        return np.einsum("ij,ij->i", points, points) <= self.radius**2

    def inradius(self) -> float:
        return self.radius


def _facet_normal(params: NazParams, seed: int, i: int) -> tuple[np.ndarray, float]:
    """Raw normal draw for facet i from its own counter-based stream, and its norm."""
    gen = rng.stream(seed, rng.DOMAIN_FACET, i)
    g = gen.standard_normal(params.n)
    norm = np.linalg.norm(g)
    while norm == 0.0:  # probability-zero guard; continue the same stream
        g = gen.standard_normal(params.n)
        norm = np.linalg.norm(g)
    return g, float(norm)


def sample_naz(params: NazParams, seed: int) -> HalfspacePolytope:
    """Draw from the distribution params.variant names.

    unit-sphere-normals: s uniform unit normals, offsets all r.
    gaussian-normals: {x : x.g_i <= w} stored normalized, so facet i has unit
    normal g_i/||g_i|| and offset w/||g_i||; the raw norm is w/offset_i.  A
    w/||g_i|| past the largest double raises ValueError.
    Deterministic given (params, seed); facet i depends only on (seed, i), so
    draws are reproducible under any parallel split.
    """
    normals = np.empty((params.s, params.n))
    offsets = np.empty(params.s)
    for i in range(params.s):
        g, norm = _facet_normal(params, seed, i)
        normals[i] = g / norm
        offsets[i] = params.offset if params.variant == UNIT_SPHERE else params.offset / norm
        if math.isinf(offsets[i]):
            raise ValueError(f"offset {params.offset!r} / ||g_{i}|| = {norm!r} overflows a double")
    return HalfspacePolytope(normals, offsets)

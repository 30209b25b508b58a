"""Counter-based random streams for reproducible, order-independent sampling.

Every stochastic routine in the package draws from a Philox stream keyed by
(seed, domain, indices...).  Streams with distinct keys are statistically
independent, so work can be split over facets or sample chunks without any
shared-state hand-off, and a fixed seed reproduces every draw bit for bit.

Chunked Gaussian point streams all go through `gaussian_chunks`, keyed by a
path tuple: block c of the stream at path p is drawn from the key
(seed, *p, c).  The shared volume/influence point stream uses the path
(DOMAIN_POINTS,); the in-hyperplane stream of facet i uses
(DOMAIN_BOUNDARY, i).
"""

from __future__ import annotations

import numpy as np

# Samples are generated in fixed-size blocks keyed by block index.  The block
# size must never change: partial sums over the first k blocks are part of the
# reproducibility contract.
CHUNK = 4096

# Domain tags keep unrelated call sites on disjoint streams even when the
# caller reuses one seed.
DOMAIN_FACET = 0x66
DOMAIN_POINTS = 0x70
DOMAIN_BOUNDARY = 0x67


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given (seed, path) key.

    Philox is counter-based, so construction is cheap and the mapping from
    key to stream is stateless.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    key = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(key))


def gaussian_chunks(n: int, samples: int, seed: int, *path: int):
    """Yield standard-Gaussian blocks of shape (k, n), k <= CHUNK.

    Block c comes from the stream keyed (seed, *path, c); path defaults to
    (DOMAIN_POINTS,).  Each block draws only the k rows it yields.  A
    Generator fills standard_normal output row-major from its one keyed
    counter stream, so those k rows are bit for bit the first k rows of a
    full CHUNK x n draw from the same key.  Hence the first `samples` points
    are identical for any larger sample count with the same seed and path.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    path = path or (DOMAIN_POINTS,)
    for chunk_index, start in enumerate(range(0, samples, CHUNK)):
        take = min(CHUNK, samples - start)
        yield stream(seed, *path, chunk_index).standard_normal((take, n))

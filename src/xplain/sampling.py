"""Uniform sampling inside polytope regions by box rejection.

A region is anything with box rows (A, C) and tree rows (T, V). Draws are
uniform over the tightest axis-aligned box implied by the unit rows of A
intersected with the ambient space, then rejected against the full row
systems. Each chunk of draws is tested as one stack by `analyzer.inside`,
which answers every row as it would answer that point alone.
"""

import numpy as np

from .analyzer import EPS_MEM, inside, stacked_rows

__all__ = ["SamplingFailure", "region_box", "sample_region", "stacked_rows"]

# give up when fewer than this fraction of draws land inside
MIN_ACCEPT_RATE = 0.01


class SamplingFailure(RuntimeError):
    """The region is too thin to sample by rejection."""


def region_box(subspace, space):
    """Per-dimension [lo, hi] from the region's unit box rows and the space."""
    lo = space.lows.copy()
    hi = space.highs.copy()
    rows, rhs = stacked_rows(subspace, space.n)
    for a, c in zip(rows, rhs):
        nz = np.nonzero(a)[0]
        if len(nz) != 1:
            continue
        d = nz[0]
        if a[d] > 0:
            hi[d] = min(hi[d], c / a[d])
        else:
            lo[d] = max(lo[d], c / a[d])
    if np.any(lo > hi + EPS_MEM):
        raise SamplingFailure("region box is empty")
    return lo, np.maximum(lo, hi)


def sample_region(subspace, space, count, rng):
    """Draw `count` uniform points inside the region, or raise SamplingFailure."""
    if count <= 0:
        raise ValueError("count must be positive")
    lo, hi = region_box(subspace, space)
    accepted = []
    draws = 0
    hard_cap = 1000 * count
    chunk = max(count, 64)
    while len(accepted) < count:
        X = lo + rng.random((chunk, space.n)) * (hi - lo)
        accepted.extend(X[inside(X, subspace)])
        draws += chunk
        if draws >= 10 * count and len(accepted) < MIN_ACCEPT_RATE * draws:
            raise SamplingFailure(
                f"acceptance {len(accepted)}/{draws} below {MIN_ACCEPT_RATE:.0%}")
        if draws >= hard_cap and len(accepted) < count:
            raise SamplingFailure(f"no {count} points within {hard_cap} draws")
    return np.array(accepted[:count])

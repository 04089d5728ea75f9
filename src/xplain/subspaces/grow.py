"""Directional growth of a rough adversarial box around a seed point.

Starting from a small cube on the seed, each axis direction is probed with
a shell of uniform samples; directions whose shells stay dense in bad
samples keep extending by one shell thickness, the others freeze. The
result is the box part of a candidate subspace plus every labeled sample
seen on the way, which later feeds the regression tree.
"""

from dataclasses import dataclass

import numpy as np

from ..analyzer import evaluate_gaps
from ..rng import substream

__all__ = ["RoughBox", "SubspaceParams", "grow_rough_subspace"]


@dataclass(frozen=True)
class SubspaceParams:
    """Knobs for box growth and the refinement tree.

    w0 and delta are fractions of each dimension's range: w0 is the seed
    cube's half-width, delta the shell thickness (and the seed-ball radius
    used when a candidate is discarded). A shell sample is bad when its
    gap reaches gamma times the seed's gap; a shell extends its direction
    when at least rho_min of its samples are bad.
    """

    w0: float = 0.02
    delta: float = 0.05
    rho_min: float = 0.5
    gamma: float = 0.5
    n_shell: int = 185
    max_depth: int = 4
    min_leaf: int = 30

    def __post_init__(self):
        if not 0.0 < self.w0 <= 0.5:
            raise ValueError("w0 must lie in (0, 0.5]")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if not 0.0 <= self.rho_min <= 1.0:
            raise ValueError("rho_min must lie in [0, 1]")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.n_shell < 1:
            raise ValueError("n_shell must be positive")
        if self.max_depth < 1 or self.min_leaf < 1:
            raise ValueError("tree limits must be positive")


@dataclass(frozen=True)
class RoughBox:
    """Axis-aligned box grown around a seed."""

    lo: tuple
    hi: tuple

    @property
    def A(self):
        n = len(self.lo)
        return np.vstack([np.eye(n), -np.eye(n)])

    @property
    def C(self):
        return np.concatenate([np.asarray(self.hi), -np.asarray(self.lo)])


def grow_rough_subspace(seed, space, gap_fn, params=None, seed_rng=0):
    """Grow the box around `seed` (an AdversarialPoint). -> (RoughBox, samples)

    Samples are (x tuple, gap) pairs: the seed itself plus every shell
    draw, including the ones in shells that ended up frozen out. Each
    shell's draws go to gap_fn as one stack.
    """
    params = params if params is not None else SubspaceParams()
    x0 = np.asarray(seed.x, dtype=float)
    threshold = params.gamma * seed.gap
    ranges = space.ranges
    lo = space.clip(x0 - params.w0 * ranges)
    hi = space.clip(x0 + params.w0 * ranges)
    width = params.delta * ranges

    n = space.n
    # direction 2*dim grows the upper side, 2*dim + 1 the lower side
    frozen = np.zeros(2 * n, dtype=bool)
    samples = [(tuple(x0.tolist()), float(seed.gap))]

    round_idx = 0
    while not frozen.all():
        for dim in range(n):
            for sign in (1, -1):
                k = 2 * dim + (0 if sign > 0 else 1)
                if frozen[k]:
                    continue
                if sign > 0:
                    shell_lo = hi[dim]
                    shell_hi = min(hi[dim] + width[dim], space.highs[dim])
                else:
                    shell_hi = lo[dim]
                    shell_lo = max(lo[dim] - width[dim], space.lows[dim])
                if shell_hi - shell_lo <= 1e-15:
                    frozen[k] = True
                    continue
                rng = substream(seed_rng, "grow", round_idx, dim, sign)
                pts = lo + rng.random((params.n_shell, n)) * (hi - lo)
                pts[:, dim] = shell_lo + rng.random(params.n_shell) * (
                    shell_hi - shell_lo)
                gaps = evaluate_gaps(gap_fn, pts)
                samples.extend(zip(map(tuple, pts.tolist()), gaps.tolist()))
                density = float(np.mean(gaps >= threshold - 1e-12))
                if density >= params.rho_min:
                    if sign > 0:
                        hi[dim] = shell_hi
                        if hi[dim] >= space.highs[dim] - 1e-15:
                            frozen[k] = True
                    else:
                        lo[dim] = shell_lo
                        if lo[dim] <= space.lows[dim] + 1e-15:
                            frozen[k] = True
                else:
                    frozen[k] = True
        round_idx += 1

    box = RoughBox(lo=tuple(float(v) for v in lo),
                   hi=tuple(float(v) for v in hi))
    return box, samples

"""Lower bounds on the minimum number of bins for one-dimensional packing.

- `l2_bound`: Martello and Toth's L2 (Knapsack Problems, 1990, ch. 8),
  which includes the volume bound.
- `gilmore_gomory_bound`: the LP bound of the pattern formulation
  (Gilmore and Gomory, 1961), by row generation on its dual with the
  in-house simplex and exact knapsack pricing.

A set of balls fits one bin when `load + size <= cap + FIT_TOL` holds as
they are added, the test of every exact packer here. Both bounds hold for
that test, so float sums such as 0.8 + 0.05 + 0.05 + 0.05 + 0.05, which
land just above 1.0, cannot push a bound past the optimum.
"""

import math

import numpy as np

from ..solver import MAXIMIZE
from ..solver.simplex import solve_lp_arrays

FIT_TOL = 1e-9     # a bin holds up to cap + FIT_TOL
_CEIL_TOL = 1e-6   # ceil(x - _CEIL_TOL): float error must not round a bound up
GG_ROUND_LIMIT = 200


def _ceil(x):
    return math.ceil(x - _CEIL_TOL)


def l2_bound(sizes, cap):
    """Martello and Toth's L2 bound for 1-D `sizes` in bins of size `cap`.

    For each threshold k (0 and every size up to half a bin), balls larger
    than cap - k each need a bin that no ball of size >= k can share, balls
    between half a bin and cap - k each need a bin of their own, and the
    balls from k to half a bin that do not fit the free room of the latter
    need bins of their own. L2 is the best count over k.
    """
    c = cap + FIT_TOL
    half = c / 2
    best = 0
    for k in {0.0, *(s for s in sizes if s <= half)}:
        alone = sum(1 for s in sizes if s > c - k)
        large = [s for s in sizes if half < s <= c - k]
        small = sum(s for s in sizes if k <= s <= half)
        spill = small - (len(large) * c - sum(large))
        best = max(best, alone + len(large) + max(0, _ceil(spill / c)))
    return best


def _best_pattern(values, sizes, cap):
    """(value, balls) of the most valuable set of balls that fits one bin.

    Exact 0/1 knapsack: a depth-first search over the balls of positive
    value in decreasing value per size, pruned by the fractional bound.
    """
    c = cap + FIT_TOL
    items = sorted((i for i, v in enumerate(values) if v > 0 and sizes[i] <= c),
                   key=lambda i: (-values[i] / sizes[i] if sizes[i] > 0 else -math.inf, i))
    best = [0.0, ()]
    chosen = []

    def fractional(k, room, value):
        for i in items[k:]:
            if sizes[i] > room:
                return value + values[i] * room / sizes[i]
            room -= sizes[i]
            value += values[i]
        return value

    def search(k, load, value):
        if value > best[0]:
            best[:] = [value, tuple(chosen)]
        if k == len(items) or fractional(k, c - load, value) <= best[0]:
            return
        i = items[k]
        if load + sizes[i] <= c:
            chosen.append(i)
            search(k + 1, load + sizes[i], value + values[i])
            chosen.pop()
        search(k + 1, load, value)

    search(0, 0.0, 0.0)
    return best[0], tuple(sorted(best[1]))


def gilmore_gomory_bound(sizes, cap, patterns=(), target=None):
    """A lower bound from the LP relaxation of the pattern formulation.

    Row generation on the dual: max sum(y) s.t. sum(y[p]) <= 1 for every
    pattern p (a set of balls that fits one bin), y >= 0. The rows start
    from `patterns` (index tuples, such as the bins of known packings) plus
    a singleton for every ball they leave out. Each round prices the LP's
    y exactly by `_best_pattern`: with v its best pattern value,
    y / max(1, v) is feasible for every pattern, so
    ceil(sum(y) / max(1, v)) is a valid bound whatever the LP's rounding
    error. Returns the best such bound, once no round can raise it or it
    reaches `target`; after GG_ROUND_LIMIT rounds it returns what it has.
    """
    n = len(sizes)
    rows = {tuple(sorted(p)) for p in patterns}
    covered = {i for p in rows for i in p}
    rows |= {(i,) for i in range(n) if i not in covered}
    order = sorted(rows)
    bound = 0
    for _ in range(GG_ROUND_LIMIT):
        A = np.zeros((len(order), n))
        for r, p in enumerate(order):
            A[r, list(p)] = 1.0
        _, total, y = solve_lp_arrays(A, ["<="] * len(order), np.ones(len(order)),
                                      np.ones(n), MAXIMIZE)
        y = np.maximum(y, 0.0)
        value, pattern = _best_pattern(y.tolist(), sizes, cap)
        bound = max(bound, _ceil(float(y.sum()) / max(1.0, value)))
        # the restricted LP's optimum only falls as rows are added
        ceiling = _ceil(total)
        if bound >= ceiling or (target is not None and bound >= target):
            break
        if pattern in rows:
            break
        rows.add(pattern)
        order.append(pattern)
    return bound

"""Search for inputs on which a heuristic falls farthest behind its benchmark.

Two strategies share one contract. Small spaces (three dimensions or fewer,
lattice fits the budget) are walked exhaustively on a regular grid; larger
ones get uniform exploration followed by coordinate pattern search from the
best starts, with the poll step halving from 25% of each range down to 0.1%.
Either way the search never returns a point inside an exclusion region, and
for a fixed seed it evaluates exactly the same points in the same order on
every run.

Points travel as N x n stacks, one row per point. The search hands the gap
function a whole stack at a time (see `evaluate_gaps`): the grid, the
accepted exploration draws, and each pattern-search poll round. The region
test `inside` and `ExclusionSet.covers` answer one bool per row, and a
one-row stack gets the answer its point gets alone, so screening a stack
turns away exactly the points that screening them one by one would.
"""

from dataclasses import dataclass

import numpy as np

from .rng import substream
from .solver.work import open_counts

EPS_MEM = 1e-9          # slack allowed when testing polytope membership
STEP_START = 0.25       # first poll step, fraction of each dimension's range
STEP_STOP = 0.001       # pattern search stops below this fraction
GRID_MIN_SIDE = 5       # coarser lattices are not worth exhausting
UNIFORM_SHARE = 0.5     # budget fraction spent on uniform exploration
TOP_STARTS = 4          # pattern-search starts taken from exploration

__all__ = [
    "EPS_MEM",
    "AdversarialPoint",
    "ExclusionSet",
    "InputSpace",
    "NotFound",
    "evaluate_gaps",
    "find_adversarial",
    "inside",
    "membership",
    "stacked_rows",
]


@dataclass(frozen=True)
class InputSpace:
    """Axis-aligned box of admissible inputs, one label per dimension."""

    bounds: tuple
    labels: tuple = None

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if not bounds:
            raise ValueError("input space needs at least one dimension")
        for lo, hi in bounds:
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError("bounds must be finite")
            if lo > hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")
        labels = self.labels
        if labels is None:
            labels = tuple(f"x{i}" for i in range(len(bounds)))
        else:
            labels = tuple(str(l) for l in labels)
            if len(labels) != len(bounds):
                raise ValueError("one label per dimension required")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self):
        return len(self.bounds)

    @property
    def lows(self):
        return np.array([b[0] for b in self.bounds])

    @property
    def highs(self):
        return np.array([b[1] for b in self.bounds])

    @property
    def ranges(self):
        return self.highs - self.lows

    def clip(self, x):
        return np.clip(np.asarray(x, dtype=float), self.lows, self.highs)

    def contains(self, x, tol=EPS_MEM):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lows - tol) and np.all(x <= self.highs + tol))


@dataclass(frozen=True)
class AdversarialPoint:
    """A concrete input and the performance gap measured there."""

    x: tuple
    gap: float
    strategy: str
    evaluations: int


@dataclass(frozen=True)
class NotFound:
    """Search outcome when no point reached min_gap within the budget."""

    evaluations: int
    best_gap: float = None
    best_x: tuple = None


def stacked_rows(region, n):
    """All rows of the region, box rows then tree rows, as one (rows, rhs) pair."""
    parts_a, parts_c = [], []
    for rows, rhs in ((region.A, region.C), (region.T, region.V)):
        rows = np.asarray(rows, dtype=float)
        if rows.size == 0:
            continue
        parts_a.append(rows.reshape(-1, n))
        parts_c.append(np.asarray(rhs, dtype=float).ravel())
    if not parts_a:
        return np.zeros((0, n)), np.zeros(0)
    return np.vstack(parts_a), np.concatenate(parts_c)


def inside(X, region, tol=EPS_MEM):
    """Per row x of the N x n stack X: does x satisfy A·x ≤ C and T·x ≤ V?

    Each row's products are one matrix-vector product, so a row gets the
    answer it would get alone.
    """
    X = np.asarray(X, dtype=float)
    rows, rhs = stacked_rows(region, X.shape[1])
    return ~((rows @ X[:, :, None])[:, :, 0] > rhs + tol).any(axis=1)


def membership(x, region, tol=EPS_MEM):
    """True iff the point x lies in the region (`inside` on one row)."""
    return bool(inside(np.asarray(x, dtype=float)[None], region, tol)[0])


class ExclusionSet:
    """Regions the search must stay out of: it never accepts a point inside one."""

    def __init__(self, subspaces=()):
        self._subspaces = list(subspaces)

    def add(self, subspace):
        self._subspaces.append(subspace)

    def covers(self, X):
        """Per row of the N x n stack X: does it lie in some region?

        An open `solver.counting()` block counts the rows screened and
        the rows covered.
        """
        X = np.asarray(X, dtype=float)
        hit = np.zeros(len(X), dtype=bool)
        for s in self._subspaces:
            hit |= inside(X, s)
        work = open_counts()
        if work is not None:
            work.exclusion_checks += len(X)
            work.exclusion_rejects += int(hit.sum())
        return hit

    def rejects(self, x):
        """True iff the point x lies in some region (`covers` on one row)."""
        return bool(self.covers(np.asarray(x, dtype=float)[None])[0])


def evaluate_gaps(gap_fn, X):
    """gap_fn at each point of X, in order, as a float array.

    A gap function with a true `batched` attribute (those of
    `Scenario.gap_fn`) gets all of X as one N x n stack; any other is
    called on one point at a time. An empty X calls nothing.
    """
    X = np.asarray(X, dtype=float)
    if not len(X):
        return np.zeros(0)
    if getattr(gap_fn, "batched", False):
        return np.asarray(gap_fn(X), dtype=float).reshape(len(X))
    return np.array([float(gap_fn(x)) for x in X])


def _grid_side(n, budget):
    side = 1
    while (side + 1) ** n <= budget:
        side += 1
    return side


class _Best:
    """Deterministic argmax over evaluated stacks.

    Of the gaps above the current one, the first of the largest wins, as
    offering the rows one at a time with a strict > would; so the result
    does not depend on how the rows are split into stacks.
    """

    def __init__(self, gap=None, x=None):
        self.gap, self.x = gap, x

    def offer(self, X, gaps):
        if not len(gaps):
            return
        if self.gap is None:
            self.gap, self.x = float(gaps[0]), np.array(X[0])
        above = np.where(gaps > self.gap, gaps, -np.inf)
        i = int(np.argmax(above))
        if above[i] > self.gap:
            self.gap, self.x = float(gaps[i]), np.array(X[i])


def _first_free(excl, X, k):
    """The first k rows of X that excl does not cover.

    Screens no row past the k-th free one, as a screen one row at a time
    that stops there would, so the exclusion counts are the same.
    """
    free, start = [], 0
    while len(free) < k and start < len(X):
        stop = start + k - len(free)
        free.extend(start + np.flatnonzero(~excl.covers(X[start:stop])))
        start = stop
    return X[free]


def _pattern_search(space, gap_fn, excl, start_x, start_gap, best, budget_left):
    """Greedy coordinate polling with halving steps. Returns evals used.

    A poll round's candidates do not depend on its own gaps, so each round
    is one stack: the 2n moves (dimension-major, + before −), clipped,
    less those that stay put or that the exclusions cover, cut where the
    budget runs out.
    """
    dims = np.arange(space.n)
    x = np.array(start_x)
    gx = start_gap
    step = STEP_START * space.ranges
    frac = STEP_START
    used = 0
    while frac >= STEP_STOP and used < budget_left:
        cands = np.repeat(x[None], 2 * space.n, axis=0)
        cands[2 * dims, dims] += step
        cands[2 * dims + 1, dims] -= step
        cands = space.clip(cands)
        cands = _first_free(excl, cands[~(cands == x).all(axis=1)],
                            budget_left - used)
        gaps = evaluate_gaps(gap_fn, cands)
        best.offer(cands, gaps)
        move = _Best(gx, x)
        move.offer(cands, gaps)
        used += len(cands)
        if move.x is not x:
            x, gx = move.x, move.gap
        else:
            step = step / 2.0
            frac /= 2.0
    return used


def find_adversarial(space, gap_fn, exclusions=None, budget=2000,
                     min_gap=0.0, seed=0):
    """Best effort search for a point with gap ≥ min_gap outside all exclusions.

    Returns an AdversarialPoint on success, else NotFound once the
    evaluation budget is spent. The budget counts evaluated points;
    candidates rejected by the exclusion set consume none but are capped
    separately so a fully excluded space still terminates.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    excl = exclusions if exclusions is not None else ExclusionSet()
    best = _Best()

    side = _grid_side(space.n, budget)
    if space.n <= 3 and side >= GRID_MIN_SIDE:
        axes = [np.linspace(lo, hi, side) for lo, hi in space.bounds]
        # np.ndindex order: the last dimension varies fastest
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        grid = grid.reshape(-1, space.n)
        points = grid[~excl.covers(grid)]
        best.offer(points, evaluate_gaps(gap_fn, points))
        evals = len(points)
        strategy = "grid"
    else:
        rng = substream(seed, "analyzer", "uniform")
        lows, ranges = space.lows, space.ranges
        explore = max(1, int(budget * UNIFORM_SHARE))
        # draw in chunks no larger than the accepted draws still wanted, so
        # the stream is read exactly as far as one draw at a time would
        chunks, accepted, draws = [], 0, 0  # rejected draws do not count
        while accepted < explore and draws < 10 * budget:
            k = min(explore - accepted, 10 * budget - draws)
            X = lows + rng.random((k, space.n)) * ranges
            draws += k
            chunks.append(X[~excl.covers(X)])
            accepted += len(chunks[-1])
        points = np.concatenate(chunks)
        gaps = evaluate_gaps(gap_fn, points)
        best.offer(points, gaps)
        evals = len(points)
        # (gap, order, x) of the exploration points, best first
        starts = sorted(zip(gaps.tolist(), range(evals), points),
                        key=lambda t: (-t[0], t[1]))
        for g, _, x in starts[:TOP_STARTS]:
            if evals >= budget:
                break
            evals += _pattern_search(space, gap_fn, excl, x, g, best,
                                     budget - evals)
        strategy = "pattern-search"

    if best.gap is not None and best.gap >= min_gap:
        return AdversarialPoint(x=tuple(float(v) for v in best.x),
                                gap=best.gap, strategy=strategy,
                                evaluations=evals)
    best_x = None if best.x is None else tuple(float(v) for v in best.x)
    return NotFound(evaluations=evals, best_gap=best.gap, best_x=best_x)

"""Search for inputs on which a heuristic falls farthest behind its benchmark.

Two strategies share one contract. Small spaces (three dimensions or fewer,
lattice fits the budget) are walked exhaustively on a regular grid; larger
ones get uniform exploration followed by coordinate pattern search from the
best starts, with the poll step halving from 25% of each range down to 0.1%.
Either way the search never returns a point inside an exclusion region, and
for a fixed seed it evaluates exactly the same points in the same order on
every run. It hands the gap function a whole stack of points at a time
(see `evaluate_gaps`): the grid, the accepted exploration draws, and each
pattern-search poll round.
"""

from dataclasses import dataclass

import numpy as np

from .rng import substream

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
    "membership",
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


def membership(x, subspace, tol=EPS_MEM):
    """True iff x satisfies every box row A·x ≤ C and tree row T·x ≤ V."""
    x = np.asarray(x, dtype=float)
    for rows, rhs in ((subspace.A, subspace.C), (subspace.T, subspace.V)):
        rows = np.asarray(rows, dtype=float)
        if rows.size == 0:
            continue
        rows = rows.reshape(-1, len(x))
        if np.any(rows @ x > np.asarray(rhs, dtype=float) + tol):
            return False
    return True


class ExclusionSet:
    """Regions the search must stay out of, with revisit bookkeeping.

    Every rejected candidate increments the counter of each region that
    contains it, saturating at the cap; regions at the cap are treated as
    permanently excluded. Rejection itself is unconditional: the search
    never accepts a point inside any member, capped or not.
    """

    def __init__(self, subspaces=(), revisit_cap=3):
        if int(revisit_cap) < 0:
            raise ValueError("revisit cap must be nonnegative")
        self.revisit_cap = int(revisit_cap)
        self._subspaces = list(subspaces)
        self._revisits = [0] * len(self._subspaces)

    def __len__(self):
        return len(self._subspaces)

    @property
    def subspaces(self):
        return tuple(self._subspaces)

    @property
    def revisits(self):
        return tuple(self._revisits)

    def add(self, subspace):
        self._subspaces.append(subspace)
        self._revisits.append(0)

    def contains(self, x):
        return any(membership(x, s) for s in self._subspaces)

    def rejects(self, x):
        """Like contains, but counts the attempted revisit per region."""
        hit = False
        for i, s in enumerate(self._subspaces):
            if membership(x, s):
                hit = True
                self._revisits[i] = min(self.revisit_cap, self._revisits[i] + 1)
        return hit


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
    """Deterministic argmax over evaluated candidates.

    Ties in gap keep the earliest candidate, so the reduction is the same
    no matter how evaluation might be scheduled.
    """

    def __init__(self):
        self.gap = None
        self.x = None
        self.index = -1
        self.count = 0

    def offer(self, x, g):
        idx = self.count
        self.count += 1
        if self.gap is None or g > self.gap:
            self.gap, self.x, self.index = g, np.array(x), idx


def _poll_directions(n):
    # dimension-major, positive step first: fixed deterministic order
    for d in range(n):
        yield d, 1.0
        yield d, -1.0


def _pattern_search(space, gap_fn, excl, start_x, start_gap, best, budget_left):
    """Greedy coordinate polling with halving steps. Returns evals used.

    A poll round's candidates do not depend on its own gaps, so each round
    is one stack, cut where the budget runs out.
    """
    x = np.array(start_x)
    gx = start_gap
    step = STEP_START * space.ranges
    frac = STEP_START
    used = 0
    while frac >= STEP_STOP and used < budget_left:
        cands = []
        for d, sign in _poll_directions(space.n):
            if used + len(cands) >= budget_left:
                break
            cand = x.copy()
            cand[d] += sign * step[d]
            cand = space.clip(cand)
            if np.array_equal(cand, x) or excl.rejects(cand):
                continue
            cands.append(cand)
        move = None
        move_gap = gx
        for cand, g in zip(cands, evaluate_gaps(gap_fn, cands).tolist()):
            best.offer(cand, g)
            if g > move_gap:
                move, move_gap = cand, g
        used += len(cands)
        if move is not None:
            x, gx = move, move_gap
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
        grid = (np.array([axes[d][i] for d, i in enumerate(idx)])
                for idx in np.ndindex(*([side] * space.n)))
        points = [x for x in grid if not excl.rejects(x)]
        for x, g in zip(points, evaluate_gaps(gap_fn, points).tolist()):
            best.offer(x, g)
        evals = len(points)
        strategy = "grid"
    else:
        rng = substream(seed, "analyzer", "uniform")
        lows, ranges = space.lows, space.ranges
        explore = max(1, int(budget * UNIFORM_SHARE))
        draws = 0
        points = []  # accepted exploration draws; rejections do not count
        while len(points) < explore and draws < 10 * budget:
            x = lows + rng.random(space.n) * ranges
            draws += 1
            if not excl.rejects(x):
                points.append(x)
        gaps = evaluate_gaps(gap_fn, points).tolist()
        for x, g in zip(points, gaps):
            best.offer(x, g)
        evals = len(points)
        # (gap, order, x) of the exploration points, best first
        starts = sorted(zip(gaps, range(evals), points), key=lambda t: (-t[0], t[1]))
        for g, _, x in starts[:TOP_STARTS]:
            if evals >= budget:
                break
            evals += _pattern_search(space, gap_fn, excl, x, g, best,
                                     budget - evals)
        strategy = "pattern-search"

    if best.gap is not None and best.gap >= min_gap:
        return AdversarialPoint(x=tuple(float(v) for v in best.x),
                                gap=float(best.gap), strategy=strategy,
                                evaluations=evals)
    best_x = None if best.x is None else tuple(float(v) for v in best.x)
    return NotFound(evaluations=evals, best_gap=best.gap, best_x=best_x)

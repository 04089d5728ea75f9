"""The discovery loop: seed, grow, refine, test significance, exclude, repeat.

Each iteration asks the analyzer for an adversarial seed outside every
region found so far, grows a rough box around it, fits a regression tree
on the growth samples, and keeps the box plus the seed leaf's path
predicates if points inside show a significantly larger gap than their
immediate neighbors outside. Kept regions join the exclusion set; rejected
candidates only blank out a small ball around their seed so a later, better
shaped region may cover the same ground.
"""

from dataclasses import dataclass, replace

import numpy as np

from .._validation import check_scalar
from ..analyzer import (
    EPS_MEM,
    ExclusionSet,
    NotFound,
    find_adversarial,
    inside,
    membership,
)
from ..rng import fold
from ..stats import SamplingFailure, check_significance
from .grow import SubspaceParams, grow_rough_subspace
from .tree import extract_path_predicates, fit_regression_tree

__all__ = [
    "Limits",
    "SearchParams",
    "StatsParams",
    "Subspace",
    "generate_subspaces",
]


def _rows(value, n):
    arr = np.asarray(value, dtype=float)
    if arr.size == 0:
        return ()
    return tuple(tuple(float(v) for v in row) for row in arr.reshape(-1, n))


@dataclass(frozen=True)
class Subspace:
    """Convex polytope of adversarial inputs in the printed row form.

    A stacks the identity over its negation, so C reads as the upper
    bounds followed by the negated lower bounds; T and V hold the
    regression-tree path rows.
    """

    A: tuple
    C: tuple
    T: tuple
    V: tuple
    labels: tuple = None
    seed: object = None
    stats: dict = None
    report: object = None

    def __post_init__(self):
        C = tuple(float(v) for v in np.asarray(self.C, dtype=float).ravel())
        if not C:
            raise ValueError("a subspace needs box rows")
        if not all(np.isfinite(C)):
            raise ValueError("box bounds must be finite")
        n = len(C) // 2
        object.__setattr__(self, "A", _rows(self.A, n))
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "T", _rows(self.T, n))
        object.__setattr__(
            self, "V",
            tuple(float(v) for v in np.asarray(self.V, dtype=float).ravel()))
        if len(self.A) != len(self.C) or len(self.T) != len(self.V):
            raise ValueError("row and bound counts disagree")
        if self.labels is not None:
            object.__setattr__(self, "labels",
                               tuple(str(l) for l in self.labels))
        if self.seed is not None and not membership(self.seed.x, self):
            raise ValueError("seed point violates the subspace rows")

    @classmethod
    def box(cls, lo, hi, labels=None, seed=None):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        n = len(lo)
        A = np.vstack([np.eye(n), -np.eye(n)])
        return cls(A=A, C=np.concatenate([hi, -lo]), T=(), V=(),
                   labels=labels, seed=seed)

    @property
    def dimension(self):
        return len(self.C) // 2

    def contains(self, x, tol=EPS_MEM):
        return membership(x, self, tol)


@dataclass(frozen=True)
class SearchParams:
    """Analyzer settings used for each seed search."""

    budget: int = 2000
    min_gap: float = 0.0


def _positive_int(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class StatsParams:
    """Significance-check settings; n_pairs=None means the DKW default."""

    n_pairs: int = None
    alpha: float = 0.05
    margin: float = 0.025

    def __post_init__(self):
        if self.n_pairs is not None and not _positive_int(self.n_pairs):
            raise ValueError("n_pairs must be null or a positive integer")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        check_scalar(self.margin, "margin", low=0.0, inclusive_low=False)


@dataclass(frozen=True)
class Limits:
    max_subspaces: int = 8
    max_iterations: int = 50

    def __post_init__(self):
        if not _positive_int(self.max_subspaces):
            raise ValueError("max_subspaces must be a positive integer")
        if not _positive_int(self.max_iterations):
            raise ValueError("max_iterations must be a positive integer")


def _sample_stats(samples, subspace, bad_threshold):
    X = np.array([x for x, _ in samples])
    gaps = np.array([g for _, g in samples])[inside(X, subspace)]
    if not len(gaps):
        return {"count": 0, "bad_fraction": 0.0, "mean_gap": 0.0}
    return {
        "count": int(len(gaps)),
        "bad_fraction": float(np.mean(gaps >= bad_threshold - 1e-12)),
        "mean_gap": float(gaps.mean()),
    }


def generate_subspaces(space, gap_fn, search=None, growth=None, stats=None,
                       limits=None, seed=0, collect=None):
    """Enumerate significant adversarial subspaces. -> list of Subspace

    Stops when the analyzer finds nothing left above min_gap, or when
    limits.max_subspaces regions were kept. `collect`, if given, is
    called with (iteration, seed point, samples, candidate, report) for
    every candidate, kept or not.
    """
    search = search if search is not None else SearchParams()
    growth = growth if growth is not None else SubspaceParams()
    stats = stats if stats is not None else StatsParams()
    limits = limits if limits is not None else Limits()

    excl = ExclusionSet()
    kept = []
    for iteration in range(limits.max_iterations):
        if len(kept) >= limits.max_subspaces:
            break
        found = find_adversarial(space, gap_fn, excl, budget=search.budget,
                                 min_gap=search.min_gap,
                                 seed=fold(seed, "seed-search", iteration))
        if isinstance(found, NotFound):
            break
        box, samples = grow_rough_subspace(
            found, space, gap_fn, growth,
            seed_rng=fold(seed, "grow", iteration))
        tree = fit_regression_tree(samples, max_depth=growth.max_depth,
                                   min_leaf=growth.min_leaf)
        T, V = extract_path_predicates(tree, found.x)
        candidate = Subspace(
            A=box.A, C=box.C, T=T, V=V, labels=space.labels, seed=found,
            stats=_sample_stats(samples, Subspace(A=box.A, C=box.C, T=T, V=V),
                                growth.gamma * found.gap))
        try:
            report = check_significance(
                candidate, gap_fn, space, n_pairs=stats.n_pairs,
                margin=stats.margin, alpha=stats.alpha,
                seed=fold(seed, "significance", iteration))
        except SamplingFailure:
            report = None
        candidate = replace(candidate, report=report)
        if collect is not None:
            collect(iteration, found, samples, candidate, report)
        if report is not None and report.keep:
            kept.append(candidate)
            excl.add(candidate)
        else:
            # blank out only the seed's neighborhood; the area may still
            # yield a better shaped candidate later
            x0 = np.asarray(found.x)
            radius = growth.delta * space.ranges
            excl.add(Subspace.box(space.clip(x0 - radius),
                                  space.clip(x0 + radius),
                                  labels=space.labels, seed=found))
    return kept

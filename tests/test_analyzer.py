"""Adversarial-input search: membership, exclusions, both strategies."""

from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from xplain.analyzer import (
    EPS_MEM,
    AdversarialPoint,
    ExclusionSet,
    InputSpace,
    NotFound,
    find_adversarial,
    inside,
    membership,
    stacked_rows,
)
from xplain.heuristics import Scenario, VbpInstance, builtin
from xplain.solver import counting
from xplain.subspaces import Subspace


def box_region(lo, hi):
    """Polytope with only box rows: A = [I; -I], C = [hi; -lo]."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = len(lo)
    A = np.vstack([np.eye(n), -np.eye(n)])
    C = np.concatenate([hi, -lo])
    return SimpleNamespace(A=A, C=C, T=(), V=())


# the first-fit slab of printed bounds and tree rows: B0 tiny, B1..B3 near
# one half, total at least 1.5, B1 at most one half
D0 = SimpleNamespace(
    A=np.vstack([np.eye(4), -np.eye(4)]),
    C=np.array([0.01, 0.51, 0.51, 0.51, 0.0, -0.49, -0.49, -0.49]),
    T=np.array([[-1.0, -1.0, -1.0, -1.0], [0.0, 1.0, 0.0, 0.0]]),
    V=np.array([-1.5, 0.5]),
)


def plateau(x):
    x = np.asarray(x, dtype=float)
    return 1.0 if abs(x[0] - 0.5) <= 0.1 and abs(x[1] - 0.25) <= 0.1 else 0.0


def test_input_space_validates():
    with pytest.raises(ValueError):
        InputSpace(())
    with pytest.raises(ValueError):
        InputSpace(((1.0, 0.0),))
    with pytest.raises(ValueError):
        InputSpace(((0.0, 1.0),), labels=("a", "b"))
    sp = InputSpace(((0.0, 1.0), (2.0, 5.0)))
    assert sp.n == 2
    assert sp.labels == ("x0", "x1")
    assert np.allclose(sp.ranges, [1.0, 3.0])


def test_input_space_clip_and_contains():
    sp = InputSpace(((0.0, 1.0), (0.0, 2.0)))
    assert np.allclose(sp.clip([-1.0, 3.0]), [0.0, 2.0])
    assert sp.contains([0.5, 1.0])
    assert not sp.contains([1.5, 1.0])


def test_membership_inside_printed_region():
    assert membership((0.005, 0.50, 0.50, 0.50), D0)


def test_membership_violating_first_bound():
    assert not membership((0.2, 0.5, 0.5, 0.5), D0)


def test_membership_tree_rows_bind():
    # bounds fine, but the total falls below 1.5
    assert not membership((0.0, 0.49, 0.49, 0.49), D0)


def test_membership_tolerates_tiny_slack():
    assert membership((0.01 + 1e-12, 0.50, 0.50, 0.50), D0)


def test_membership_random_boxes_agree_with_interval_test():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        lo = rng.uniform(-1.0, 0.5, n)
        hi = lo + rng.uniform(0.0, 1.0, n)
        region = box_region(lo, hi)
        x = rng.uniform(-1.5, 2.0, n)
        assert membership(x, region) == bool(
            np.all(x >= lo - 1e-9) and np.all(x <= hi + 1e-9))


def test_empty_exclusion_set_never_contains():
    excl = ExclusionSet()
    assert not excl.rejects([0.5])


def test_exclusion_set_rejects_every_covered_point():
    excl = ExclusionSet([box_region([0.0], [1.0])])
    for _ in range(5):
        assert excl.rejects([0.5])
    assert not excl.rejects([2.0])


def test_grid_and_pattern_search_agree_on_plateau():
    sp = InputSpace(((0.0, 1.0), (0.0, 1.0)))
    by_grid = find_adversarial(sp, plateau, budget=450, min_gap=0.5, seed=1)
    assert by_grid.strategy == "grid"
    # same space and budget, but force the sampling path
    wide = InputSpace(((0.0, 1.0),) * 4)
    lifted = lambda x: plateau(x[:2])
    by_search = find_adversarial(wide, lifted, budget=450, min_gap=0.5, seed=1)
    assert by_search.strategy == "pattern-search"
    assert by_grid.gap == by_search.gap == 1.0


def test_found_point_recomputes_to_stored_gap():
    sp = InputSpace(((0.0, 1.0), (0.0, 1.0)))
    pt = find_adversarial(sp, plateau, budget=450, min_gap=0.5, seed=1)
    assert isinstance(pt, AdversarialPoint)
    assert plateau(pt.x) == pt.gap
    assert sp.contains(pt.x)


def test_first_fit_four_ball_space_has_gap_of_one_bin():
    sc = builtin("ff4")
    sp = InputSpace(sc.bounds, sc.labels())
    pt = find_adversarial(sp, sc.gap_fn(), budget=300, min_gap=1.0, seed=3)
    assert isinstance(pt, AdversarialPoint)
    assert pt.gap >= 1.0
    assert sp.contains(pt.x)


def test_single_ball_single_bin_has_no_gap():
    inst = VbpInstance(((0.5,),), None, 1.0)
    sp = InputSpace(((0.0, 1.0),))
    gap_fn = Scenario("one-ball", "vbp", inst, sp.bounds).gap_fn()
    res = find_adversarial(sp, gap_fn, budget=60, min_gap=1.0, seed=0)
    assert isinstance(res, NotFound)
    assert res.best_gap == 0.0


def test_never_returns_a_point_inside_an_exclusion():
    sp = InputSpace(((0.0, 1.0), (0.0, 1.0)))
    # exclude the entire plateau, nothing with gap 1 remains
    excl = ExclusionSet([box_region([0.4, 0.15], [0.6, 0.35])])
    res = find_adversarial(sp, plateau, exclusions=excl, budget=450,
                           min_gap=0.5, seed=1)
    assert isinstance(res, NotFound)
    found = find_adversarial(sp, plateau, exclusions=excl, budget=450,
                             min_gap=0.0, seed=1)
    assert isinstance(found, AdversarialPoint)
    assert not excl.rejects(found.x)


def test_exclusion_of_half_the_plateau_still_finds_the_rest():
    sp = InputSpace(((0.0, 1.0), (0.0, 1.0)))
    excl = ExclusionSet([box_region([0.4, 0.15], [0.5, 0.35])])
    pt = find_adversarial(sp, plateau, exclusions=excl, budget=450,
                          min_gap=0.5, seed=1)
    assert isinstance(pt, AdversarialPoint)
    assert pt.x[0] > 0.5
    assert not excl.rejects(pt.x)


class Recorder:
    """plateau on the first two inputs, keeping every point it is asked about.

    A batched recorder takes stacks, as `Scenario.gap_fn` does; `calls`
    holds the number of points each call brought.
    """

    def __init__(self, batched=False, fn=None):
        self.seen, self.calls = [], []
        self.fn = fn if fn is not None else (lambda x: plateau(x[:2]))
        self.batched = batched

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        rows = x if self.batched else x[None]
        assert rows.ndim == 2
        self.calls.append(len(rows))
        self.seen.extend(tuple(r) for r in rows)
        gaps = [float(self.fn(r)) for r in rows]
        return np.array(gaps) if self.batched else gaps[0]


def trace_of(space, budget, seed, exclusions=None, batched=False):
    rec = Recorder(batched)
    find_adversarial(space, rec, exclusions=exclusions, budget=budget,
                     min_gap=2.0, seed=seed)
    return rec.seen


def test_evaluation_trace_is_identical_across_runs():
    grid_space = InputSpace(((0.0, 1.0), (0.0, 1.0)))
    assert trace_of(grid_space, 200, 5) == trace_of(grid_space, 200, 5)
    search_space = InputSpace(((0.0, 1.0),) * 4)
    assert trace_of(search_space, 240, 5) == trace_of(search_space, 240, 5)
    assert trace_of(search_space, 240, 5) != trace_of(search_space, 240, 6)
    # a gap function that takes stacks sees the same points in the same order
    for space, budget in ((grid_space, 200), (search_space, 240)):
        assert trace_of(space, budget, 5, batched=True) == trace_of(space, budget, 5)


def test_batched_search_sees_the_draws_exclusions_let_through_in_order():
    space = InputSpace(((0.0, 1.0),) * 4)
    excl = ExclusionSet([box_region([0.0] * 4, [0.5, 1.0, 1.0, 1.0]), D0])
    traces = [trace_of(space, 240, 9, excl, batched) for batched in (False, True)]
    assert traces[0] == traces[1] and len(traces[0]) == 240
    assert all(not excl.rejects(x) for x in traces[0])
    assert traces[0] != trace_of(space, 240, 9)  # the exclusions turned draws away


def test_batched_search_cuts_the_last_poll_round_at_the_budget():
    # 241 = 120 draws plus 121 polls: rounds of eight poll candidates on
    # four inputs, so the budget ends inside a round
    space = InputSpace(((0.0, 1.0),) * 4)
    one, many = Recorder(), Recorder(batched=True)
    for rec in (one, many):
        found = find_adversarial(space, rec, budget=241, min_gap=2.0, seed=5)
        assert found.evaluations == 241
    assert many.seen == one.seen and len(one.seen) == 241
    assert many.calls[0] == 120 and set(many.calls[1:-1]) == {8}
    assert 0 < many.calls[-1] < 8


def test_batched_grow_sees_each_shell_in_order():
    from xplain.subspaces import SubspaceParams, grow_rough_subspace

    space = InputSpace(((0.0, 1.0),) * 2)
    seed = AdversarialPoint(x=(0.5, 0.25), gap=1.0, strategy="grid", evaluations=1)
    params = SubspaceParams(n_shell=30)
    one, many = Recorder(), Recorder(batched=True)
    grown = [grow_rough_subspace(seed, space, rec, params, seed_rng=4) for rec in (one, many)]
    assert grown[0] == grown[1]
    assert many.seen == one.seen and set(many.calls) == {30} and len(many.calls) > 4


def test_batched_significance_sees_each_point_then_its_partner():
    from xplain.sampling import sample_region, stacked_rows
    from xplain.rng import substream
    from xplain.stats import _outside_partner, check_significance, wilcoxon_signed_rank

    # the whole square cut by x0 - 10 x1 <= 0.95: the reflection across
    # that row is clipped back inside for most points, which then have no
    # partner and keep difference 0
    space = InputSpace(((0.0, 1.0),) * 2)
    region = box_region([0.0, 0.0], [1.0, 1.0])
    region.T, region.V = np.array([[1.0, -10.0]]), np.array([0.95])
    gap = lambda x: float(x[0] ** 2 + 0.3 * x[1])
    one, many = Recorder(fn=gap), Recorder(batched=True, fn=gap)
    reports = [check_significance(region, rec, space, n_pairs=60, seed=2)
               for rec in (one, many)]
    assert reports[0] == reports[1] and many.seen == one.seen and many.calls == [len(one.seen)]

    inside = sample_region(region, space, 60, substream(2, "significance"))
    rows, rhs = stacked_rows(region, 2)
    partners = [_outside_partner(x, rows, rhs, space, 0.025) for x in inside]
    paired = [k for k, y in enumerate(partners) if y is not None]
    assert 0 < len(paired) < 60
    assert one.seen == [tuple(z) for k in paired for z in (inside[k], partners[k])]
    diffs = [gap(x) - gap(y) if y is not None else 0.0 for x, y in zip(inside, partners)]
    w, p, _ = wilcoxon_signed_rank(diffs, "greater")
    assert (reports[0].W, reports[0].p) == (w, p)


def test_budget_must_be_positive():
    sp = InputSpace(((0.0, 1.0),))
    with pytest.raises(ValueError):
        find_adversarial(sp, plateau, budget=0)


def test_not_found_reports_best_seen():
    sp = InputSpace(((0.0, 1.0), (0.0, 1.0)))
    res = find_adversarial(sp, plateau, budget=450, min_gap=2.0, seed=1)
    assert isinstance(res, NotFound)
    assert res.best_gap == 1.0
    assert res.evaluations <= 450


# The stacked region test and search against the per-point references in
# tests/oracles.py.

def random_region(rng, n, tree=True):
    """A box inside [0, 1]^n, cut by the sum row and one random row if `tree`."""
    lo = rng.uniform(0.0, 0.4, n)
    hi = lo + rng.uniform(0.2, 0.6, n)
    region = box_region(lo, hi)
    if tree:
        region.T = np.vstack([np.ones(n), rng.normal(size=n)])
        mid = (lo + hi) / 2
        region.V = region.T @ mid + rng.uniform(0.0, 0.2, 2)
    return region


def facet_points(rng, region, n, tol=EPS_MEM):
    """Points on each facet of the region and at ±tol/2 and ±2·tol from it."""
    rows, rhs = stacked_rows(region, n)
    out = []
    for a, c in zip(rows, rhs):
        y = rng.uniform(0.0, 1.0, n)
        on = y + (c - a @ y) * a / (a @ a)
        out += [on + s * a / (a @ a) for s in (0.0, tol / 2, -tol / 2, 2 * tol, -2 * tol)]
    return np.array(out)


def test_stacked_region_test_matches_the_per_point_oracle():
    rng = np.random.default_rng(11)
    answers = []
    for n in (1, 2, 4, 7):
        for tree in (True, False):
            for _ in range(4):
                region = random_region(rng, n, tree)
                X = np.vstack([rng.uniform(-0.1, 1.1, (40, n)),
                               facet_points(rng, region, n)])
                want = [oracles.membership(x, region) for x in X]
                assert inside(X, region).tolist() == want
                # a one-row stack answers as the point alone
                assert [bool(inside(x[None], region)[0]) for x in X] == want
                assert [membership(x, region) for x in X] == want
                answers += want
    assert 0 < sum(answers) < len(answers)
    # a region with no rows holds every point, an empty stack gets no answer
    bare = SimpleNamespace(A=(), C=(), T=(), V=())
    X = rng.uniform(-1.0, 2.0, (5, 3))
    assert inside(X, bare).tolist() == [True] * 5 == [oracles.membership(x, bare) for x in X]
    assert inside(np.zeros((0, 3)), random_region(rng, 3)).shape == (0,)
    # the printed row form: tuples of row tuples
    sub = Subspace(A=D0.A, C=D0.C, T=D0.T, V=D0.V)
    X = np.vstack([rng.uniform(0.0, 0.6, (30, 4)), facet_points(rng, D0, 4)])
    assert inside(X, sub).tolist() == [oracles.membership(x, D0) for x in X]
    assert [sub.contains(x) for x in X] == inside(X, sub).tolist()


def test_exclusion_covers_matches_any_oracle_membership():
    rng = np.random.default_rng(12)
    for count in (0, 1, 3):
        regions = [random_region(rng, 3, tree=k % 2 == 0) for k in range(count)]
        excl = ExclusionSet(regions)
        X = np.vstack([rng.uniform(0.0, 1.0, (60, 3))]
                      + [facet_points(rng, r, 3) for r in regions])
        want = [any(oracles.membership(x, r) for r in regions) for x in X]
        assert excl.covers(X).tolist() == want
        assert [excl.rejects(x) for x in X] == want
        assert all(excl.rejects(x) is bool(excl.covers(x[None])[0]) for x in X)
        if count:
            assert any(want) and not all(want)


def terraces(x):
    """Plateaus rising along the first input, so ties occur and polls climb."""
    return float(np.floor(5 * x[0]) + np.floor(2 * x[1 % len(x)])
                 - np.floor(3 * abs(x[-1] - 0.5)))


class StackLog:
    """terraces on every row, keeping a copy of each stack it is handed."""

    def __init__(self, batched):
        self.batched = batched
        self.stacks = []

    def __call__(self, X):
        X = np.array(X, dtype=float)
        self.stacks.append(X)
        if self.batched:
            return np.array([terraces(r) for r in X])
        return terraces(X)


def same_stacks(a, b):
    return len(a) == len(b) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def slab_regions(n):
    """A slab at the top of the first input, which polls clip onto and
    draws almost never reach; a box over part of the second input; and a
    corner cut by the sum row."""
    corner = box_region([0.0] * n, [0.5] * n)
    corner.T, corner.V = np.ones((1, n)), np.array([0.4])
    return [box_region([0.999] + [0.0] * (n - 1), [1.0] * n),
            box_region([0.0] * n, [1.0, 0.3] + [1.0] * (n - 2)),
            corner]


@pytest.mark.parametrize("n, budget, excluded, strategy", [
    (2, 200, False, "grid"),
    (3, 300, False, "grid"),
    (2, 200, True, "grid"),
    (4, 400, False, "pattern-search"),
    (8, 600, False, "pattern-search"),
    (4, 400, True, "pattern-search"),
    (8, 600, True, "pattern-search"),
    (4, 241, False, "pattern-search"),   # 120 draws, then rounds of 8 polls
])
def test_stacked_search_hands_over_the_oracles_stacks(n, budget, excluded, strategy):
    space = InputSpace(((0.0, 1.0),) * n)
    regions = slab_regions(n) if excluded else []
    for batched in (False, True):
        new, old = StackLog(batched), StackLog(batched)
        oracle_excl = oracles.ExclusionOracle(regions)
        with counting() as work:
            got = find_adversarial(space, new, ExclusionSet(regions), budget=budget,
                                   min_gap=1.0, seed=3)
        want = oracles.find_adversarial(space, old, oracle_excl, budget=budget,
                                        min_gap=1.0, seed=3)
        assert got == want and got.strategy == strategy
        assert same_stacks(new.stacks, old.stacks)
        assert (work.exclusion_checks, work.exclusion_rejects) == (
            oracle_excl.checks, len(oracle_excl.rejected))
        if excluded:
            # draws (first input below 1) and poll or grid points clipped
            # onto the top face were both turned away
            firsts = [x[0] for x in oracle_excl.rejected]
            assert min(firsts) < 0.999 and max(firsts) == 1.0
        if batched and budget == 241:
            assert got.evaluations == 241 and 0 < len(new.stacks[-1]) < 2 * n


def test_stacked_search_on_a_covered_box_draws_its_cap_and_evaluates_nothing():
    space = InputSpace(((0.0, 1.0),) * 4)
    everything = [box_region([0.0] * 4, [1.0] * 4)]
    log, oracle_excl = StackLog(True), oracles.ExclusionOracle(everything)
    with counting() as work:
        got = find_adversarial(space, log, ExclusionSet(everything), budget=50, seed=2)
    want = oracles.find_adversarial(space, StackLog(True), oracle_excl, budget=50, seed=2)
    assert got == want == NotFound(evaluations=0)
    assert log.stacks == []
    assert work.exclusion_checks == work.exclusion_rejects == oracle_excl.checks == 500

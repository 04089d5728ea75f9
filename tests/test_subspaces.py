"""Box growth, tree refinement, and the subspace discovery loop."""

import json

import numpy as np
import pytest

from xplain.analyzer import AdversarialPoint, InputSpace, membership
from xplain.heuristics import builtin
from xplain.subspaces import (
    DegenerateData,
    GapRegressionTree,
    Limits,
    SearchParams,
    StatsParams,
    Subspace,
    SubspaceParams,
    extract_path_predicates,
    fit_regression_tree,
    generate_subspaces,
    grow_rough_subspace,
    load_subspaces,
    raw_plus_sum,
    save_subspaces,
    subspace_from_dict,
    subspace_to_dict,
)

LINE = InputSpace(((0.0, 1.0),))


def step_gap(lo, hi):
    return lambda x: 1.0 if lo <= float(np.asarray(x).ravel()[0]) <= hi else 0.0


def interval_of(sub):
    """Effective [lo, hi] of a one-dimensional subspace."""
    lo, hi = -np.inf, np.inf
    for rows, rhs in ((sub.A, sub.C), (sub.T, sub.V)):
        for row, c in zip(rows, rhs):
            a = row[0]
            if a > 0:
                hi = min(hi, c / a)
            elif a < 0:
                lo = max(lo, c / a)
    return lo, hi


def manual_seed(x, gap):
    return AdversarialPoint(tuple(x), gap, "manual", 1)


# ---------------------------------------------------------------- growth

def test_grow_step_interval():
    box, samples = grow_rough_subspace(manual_seed((0.5,), 1.0), LINE,
                                       step_gap(0.4, 0.6), seed_rng=0)
    assert 0.35 <= box.lo[0] <= 0.45
    assert 0.55 <= box.hi[0] <= 0.65
    assert len(samples) > 500
    assert samples[0] == ((0.5,), 1.0)


def test_grow_constant_gap_fills_the_space():
    box, _ = grow_rough_subspace(manual_seed((0.5,), 2.0), LINE,
                                 lambda x: 2.0, seed_rng=0)
    assert box.lo[0] == 0.0
    assert box.hi[0] == 1.0
    assert box.grid.frozen.all()


def test_grow_first_fit_box_matches_printed_shape():
    sc = builtin("ff4")
    space = InputSpace(sc.bounds, sc.labels())
    gap_fn = sc.gap_fn()
    seed_x = (0.01, 0.49, 0.51, 0.51)
    assert gap_fn(seed_x) == 1.0
    params = SubspaceParams(n_shell=60)
    box, _ = grow_rough_subspace(manual_seed(seed_x, 1.0), space, gap_fn,
                                 params, seed_rng=0)
    # B0 stays the small opener ball: pinned at zero below, frozen before
    # the co-placement breakpoint above
    assert box.lo[0] == 0.0
    assert box.hi[0] <= 0.55
    # B1..B3 keep lower bounds within 0.05 of the printed 0.49 row values
    for d in (1, 2, 3):
        assert box.lo[d] >= 0.44
        assert box.hi[d] <= 0.60


def test_grow_is_deterministic_per_seed():
    gap_fn = step_gap(0.4, 0.6)
    one = grow_rough_subspace(manual_seed((0.5,), 1.0), LINE, gap_fn, seed_rng=7)
    two = grow_rough_subspace(manual_seed((0.5,), 1.0), LINE, gap_fn, seed_rng=7)
    assert one[0] == two[0]
    assert one[1] == two[1]


def test_grow_lower_density_threshold_weakly_enlarges_the_box():
    gap_fn = step_gap(0.4, 0.64)
    seed = manual_seed((0.5,), 1.0)
    tight, _ = grow_rough_subspace(seed, LINE, gap_fn,
                                   SubspaceParams(rho_min=0.5), seed_rng=3)
    loose, _ = grow_rough_subspace(seed, LINE, gap_fn,
                                   SubspaceParams(rho_min=0.3), seed_rng=3)
    assert loose.lo[0] <= tight.lo[0]
    assert loose.hi[0] >= tight.hi[0]
    assert loose.hi[0] > tight.hi[0]  # the 40%-dense shell separates them


def test_subspace_params_validation():
    with pytest.raises(ValueError):
        SubspaceParams(w0=0.0)
    with pytest.raises(ValueError):
        SubspaceParams(rho_min=1.5)
    with pytest.raises(ValueError):
        SubspaceParams(n_shell=0)


# ----------------------------------------------------------------- tree

def fig6b_samples(rng, count=2000):
    X = rng.random((count, 4))
    y = np.where((X.sum(axis=1) >= 1.5) & (X[:, 1] <= 0.5), 25.0, 1.0)
    return X, y


def test_tree_recovers_sum_and_coordinate_thresholds():
    X, y = fig6b_samples(np.random.default_rng(0))
    tree = fit_regression_tree(zip(map(tuple, X), y))
    T, V = extract_path_predicates(tree, (0.1, 0.4, 0.8, 0.8))
    rows = {tuple(t): v for t, v in zip(map(tuple, T), V)}
    sums = [v for t, v in rows.items() if t == (-1.0, -1.0, -1.0, -1.0)]
    coords = [v for t, v in rows.items() if t == (0.0, 1.0, 0.0, 0.0)]
    assert sums and abs(sums[0] - (-1.5)) <= 0.05
    assert coords and abs(coords[0] - 0.5) <= 0.05


def test_tree_constant_target_is_single_leaf():
    tree = fit_regression_tree([((0.1, 0.2), 3.0), ((0.5, 0.6), 3.0)])
    assert len(tree.tree_) == 1 and tree.tree_[0].is_leaf
    T, V = extract_path_predicates(tree, (0.1, 0.2))
    assert T.shape == (0, 2)
    assert V.shape == (0,)


def test_tree_one_dimensional_step_threshold():
    rng = np.random.default_rng(1)
    X = rng.random((2000, 1))
    y = (X[:, 0] >= 0.3).astype(float)
    tree = fit_regression_tree(zip(map(tuple, X), y))
    root = tree.tree_[0]
    assert abs(root.threshold - 0.3) <= 0.02


def test_tree_zero_samples_raise():
    with pytest.raises(DegenerateData):
        fit_regression_tree([])
    with pytest.raises(DegenerateData):
        GapRegressionTree().fit(np.zeros((0, 2)), [])


def leaf_of(tree, row):
    """The index in tree.tree_ of the leaf that `row` falls in."""
    i = 0
    while not tree.tree_[i].is_leaf:
        node = tree.tree_[i]
        i = node.left if row[node.feature] <= node.threshold else node.right
    return i


def test_tree_estimator_interface():
    tree = GapRegressionTree(max_depth=2, min_leaf=5)
    rng = np.random.default_rng(2)
    X = rng.random((300, 2))
    y = (X[:, 0] > 0.5).astype(float) * 2.0
    assert tree.fit(X, y) is tree
    leaves = np.array([leaf_of(tree, row) for row in X])
    for leaf in np.unique(leaves):
        members = y[leaves == leaf]
        assert len(members) >= 5
        node = tree.tree_[leaf]
        assert node.is_leaf
        assert node.count == len(members)
        assert node.value == pytest.approx(members.mean())


def test_tree_depth_one_gives_single_row():
    rng = np.random.default_rng(3)
    X = rng.random((400, 1))
    y = (X[:, 0] >= 0.5).astype(float)
    tree = fit_regression_tree(zip(map(tuple, X), y), features=lambda Z: Z,
                               max_depth=1, min_leaf=30)
    T, V = extract_path_predicates(tree, (0.2,))
    assert T.shape == (1, 1)
    assert T[0][0] == 1.0   # seed sits on the <= side
    assert abs(V[0] - 0.5) <= 0.05


def test_tree_tie_breaks_toward_lowest_feature():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = GapRegressionTree(max_depth=1, min_leaf=1).fit(X, y)
    assert tree.tree_[0].feature == 0


def test_raw_plus_sum_layout():
    phi = raw_plus_sum(np.array([[1.0, 2.0, 3.0]]))
    assert np.allclose(phi, [[1.0, 2.0, 3.0, 6.0]])


# ------------------------------------------------------------ discovery

def test_discovery_on_single_step():
    subs = generate_subspaces(LINE, step_gap(0.4, 0.6),
                              search=SearchParams(budget=300, min_gap=0.5),
                              seed=0)
    assert len(subs) == 1
    sub = subs[0]
    lo, hi = interval_of(sub)
    assert 0.35 <= lo <= 0.45
    assert 0.55 <= hi <= 0.65
    assert sub.report.keep and sub.report.p < 0.05
    assert sub.contains(sub.seed.x)
    assert sub.stats["count"] > 0
    assert sub.stats["bad_fraction"] > 0.8


def test_discovery_constant_zero_gap_finds_nothing():
    subs = generate_subspaces(LINE, lambda x: 0.0,
                              search=SearchParams(budget=100, min_gap=0.5),
                              seed=0)
    assert subs == []


def test_discovery_two_steps_yields_two_disjoint_subspaces():
    def two_step(x):
        v = float(np.asarray(x).ravel()[0])
        return 1.0 if 0.1 <= v <= 0.2 or 0.7 <= v <= 0.8 else 0.0

    subs = generate_subspaces(LINE, two_step,
                              search=SearchParams(budget=300, min_gap=0.5),
                              limits=Limits(max_subspaces=5), seed=0)
    assert len(subs) == 2
    ivals = sorted(interval_of(s) for s in subs)
    assert ivals[0][1] < ivals[1][0]           # disjoint
    assert 0.05 <= ivals[0][0] <= 0.15 and 0.15 <= ivals[0][1] <= 0.25
    assert 0.65 <= ivals[1][0] <= 0.75 and 0.75 <= ivals[1][1] <= 0.85


def test_discovery_later_seeds_lie_outside_earlier_subspaces():
    def two_step(x):
        v = float(np.asarray(x).ravel()[0])
        return 1.0 if 0.1 <= v <= 0.2 or 0.7 <= v <= 0.8 else 0.0

    subs = generate_subspaces(LINE, two_step,
                              search=SearchParams(budget=300, min_gap=0.5),
                              seed=0)
    for i, later in enumerate(subs):
        for earlier in subs[:i]:
            assert not membership(later.seed.x, earlier)


def test_discovery_reports_candidates_to_collector():
    seen = []
    generate_subspaces(LINE, step_gap(0.4, 0.6),
                       search=SearchParams(budget=300, min_gap=0.5),
                       seed=0,
                       collect=lambda it, pt, samples, cand, rep:
                           seen.append((it, pt.gap, len(samples), rep.keep)))
    assert seen and seen[0][0] == 0
    assert all(gap >= 0.5 for _, gap, _, _ in seen)


def test_subspace_rejects_seed_outside_rows():
    with pytest.raises(ValueError):
        Subspace.box([0.0], [0.5], seed=manual_seed((0.9,), 1.0))


def test_subspace_box_constructor_round_trip():
    sub = Subspace.box([0.1, 0.2], [0.4, 0.9], labels=("a", "b"))
    assert sub.dimension == 2
    assert sub.contains((0.2, 0.5))
    assert not sub.contains((0.5, 0.5))


# ------------------------------------------------------------------- io

def test_subspace_json_round_trip(tmp_path):
    subs = generate_subspaces(LINE, step_gap(0.4, 0.6),
                              search=SearchParams(budget=300, min_gap=0.5),
                              seed=0)
    path = tmp_path / "subspaces.json"
    save_subspaces(path, subs)
    loaded = load_subspaces(path)
    assert len(loaded) == len(subs)
    for a, b in zip(subs, loaded):
        assert a.A == b.A and a.C == b.C and a.T == b.T and a.V == b.V
        assert a.labels == b.labels
        assert a.seed == b.seed
        assert a.stats == b.stats
        assert a.report == b.report
    # round-tripping the dict form is lossless too
    doc = subspace_to_dict(subs[0])
    again = subspace_to_dict(subspace_from_dict(doc))
    assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_saved_file_is_stable_bytes(tmp_path):
    subs = generate_subspaces(LINE, step_gap(0.4, 0.6),
                              search=SearchParams(budget=300, min_gap=0.5),
                              seed=0)
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    save_subspaces(p1, subs)
    save_subspaces(p2, subs)
    assert p1.read_bytes() == p2.read_bytes()

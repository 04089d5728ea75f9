"""Regression-tree refinement of rough boxes and path-predicate extraction.

The tree is a plain CART regressor over the raw inputs plus their sum, the
one aggregate feature the box stage cannot express. The predicates on the
root-to-leaf path of the seed become extra polytope rows tightening the
box.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateData",
    "GapRegressionTree",
    "extract_path_predicates",
    "fit_regression_tree",
    "raw_plus_sum",
]


class DegenerateData(ValueError):
    """No samples to fit on."""


def raw_plus_sum(X):
    """The tree's feature map: every raw input plus their sum."""
    X = np.asarray(X, dtype=float)
    return np.hstack([X, X.sum(axis=1, keepdims=True)])


@dataclass(frozen=True)
class _Node:
    feature: int        # -1 on leaves
    threshold: float
    left: int
    right: int
    value: float
    count: int

    @property
    def is_leaf(self):
        return self.feature < 0


def _best_split_on_feature(xf, y, min_leaf):
    """Least-SSE split position for one feature, or None.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values; ties keep the lowest threshold.
    """
    order = np.argsort(xf, kind="stable")
    xs = xf[order]
    ys = y[order]
    m = len(xs)
    cut = np.nonzero(xs[1:] > xs[:-1])[0] + 1      # split before position k
    cut = cut[(cut >= min_leaf) & (m - cut >= min_leaf)]
    if len(cut) == 0:
        return None
    csum = np.cumsum(ys)
    csq = np.cumsum(ys * ys)
    left_sum, left_sq = csum[cut - 1], csq[cut - 1]
    right_sum, right_sq = csum[-1] - left_sum, csq[-1] - left_sq
    sse = (left_sq - left_sum ** 2 / cut) + (
        right_sq - right_sum ** 2 / (m - cut))
    best = int(np.argmin(sse))                     # first minimum wins
    k = int(cut[best])
    return float(sse[best]), float((xs[k - 1] + xs[k]) / 2.0)


class GapRegressionTree:
    """CART regressor with variance-reduction splits.

    Construct with hyperparameters, then fit on (X, y). Stops at
    max_depth, at leaves smaller than min_leaf, or when a node's targets
    are constant; split ties break toward the lowest feature index, then
    the lowest threshold.
    """

    def __init__(self, max_depth=4, min_leaf=30):
        self.max_depth = max_depth
        self.min_leaf = min_leaf

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError("X must be a 2-d sample matrix")
        if len(X) != len(y):
            raise ValueError("X and y disagree on sample count")
        if len(y) == 0:
            raise DegenerateData("cannot fit a tree on zero samples")
        if self.max_depth < 1 or self.min_leaf < 1:
            raise ValueError("max_depth and min_leaf must be positive")
        nodes = []

        def build(idx, depth):
            node_id = len(nodes)
            nodes.append(None)  # reserve position
            value = float(y[idx].mean())
            count = len(idx)
            split = None
            if depth < self.max_depth and count >= 2 * self.min_leaf \
                    and np.ptp(y[idx]) > 0.0:
                for f in range(X.shape[1]):
                    found = _best_split_on_feature(X[idx, f], y[idx],
                                                   self.min_leaf)
                    if found is None:
                        continue
                    sse, threshold = found
                    if split is None or sse < split[0] - 1e-12:
                        split = (sse, f, threshold)
            if split is None:
                nodes[node_id] = _Node(-1, 0.0, -1, -1, value, count)
                return node_id
            _, f, threshold = split
            mask = X[idx, f] <= threshold
            left = build(idx[mask], depth + 1)
            right = build(idx[~mask], depth + 1)
            nodes[node_id] = _Node(f, threshold, left, right, value, count)
            return node_id

        build(np.arange(len(y)), 0)
        self.tree_ = tuple(nodes)
        self.n_features_ = X.shape[1]
        return self


def fit_regression_tree(samples, max_depth=4, min_leaf=30):
    """Fit a GapRegressionTree on (x, gap) pairs over raw_plus_sum."""
    samples = list(samples)
    if not samples:
        raise DegenerateData("cannot fit a tree on zero samples")
    X = np.array([list(x) for x, _ in samples], dtype=float)
    y = np.array([g for _, g in samples], dtype=float)
    return GapRegressionTree(max_depth=max_depth, min_leaf=min_leaf).fit(
        raw_plus_sum(X), y)


def _feature_row(feature, n_raw):
    if feature < n_raw:
        row = np.zeros(n_raw)
        row[feature] = 1.0
        return row
    if feature == n_raw:
        return np.ones(n_raw)
    raise ValueError(f"feature {feature} does not map back to inputs")


def extract_path_predicates(tree, x):
    """Rows (T, V) with t·x ≤ v for the root-to-leaf path containing x.

    x is in raw input coordinates; the sign flips on every ">" branch so
    the conjunction stays a system of ≤ rows.
    """
    x = np.asarray(x, dtype=float)
    n_raw = len(x)
    if tree.n_features_ not in (n_raw, n_raw + 1):
        raise ValueError("tree features do not match the input dimension")
    phi = raw_plus_sum(x.reshape(1, -1))[0][:tree.n_features_]
    rows, rhs = [], []
    node = tree.tree_[0]
    while not node.is_leaf:
        row = _feature_row(node.feature, n_raw)
        if phi[node.feature] <= node.threshold:
            rows.append(row)
            rhs.append(node.threshold)
            node = tree.tree_[node.left]
        else:
            rows.append(-row)
            rhs.append(-node.threshold)
            node = tree.tree_[node.right]
    if not rows:
        return np.zeros((0, n_raw)), np.zeros(0)
    return np.array(rows), np.array(rhs)

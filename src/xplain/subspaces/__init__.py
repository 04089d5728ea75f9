"""Adversarial subspaces: box growth, tree refinement, discovery loop."""

from .generate import (
    Limits,
    SearchParams,
    StatsParams,
    Subspace,
    generate_subspaces,
)
from .grow import RoughBox, SubspaceParams, grow_rough_subspace
from .io import (
    load_subspaces,
    save_subspaces,
    subspace_from_dict,
    subspace_to_dict,
)
from .tree import (
    DegenerateData,
    GapRegressionTree,
    extract_path_predicates,
    fit_regression_tree,
    raw_plus_sum,
)

__all__ = [
    "DegenerateData",
    "GapRegressionTree",
    "Limits",
    "RoughBox",
    "SearchParams",
    "StatsParams",
    "Subspace",
    "SubspaceParams",
    "extract_path_predicates",
    "fit_regression_tree",
    "generate_subspaces",
    "grow_rough_subspace",
    "load_subspaces",
    "raw_plus_sum",
    "save_subspaces",
    "subspace_from_dict",
    "subspace_to_dict",
]

"""xplain: find, generalize, and explain adversarial inputs of allocation heuristics.

The toolkit models heuristics and their optimal benchmarks as flow networks,
compiles those networks to constraint programs, searches for inputs where the
heuristic underperforms, grows the findings into statistically significant
adversarial subspaces, and reports edge-level heatmaps plus instance-agnostic
trends. Each name below is imported on first use.
"""

from . import _lazy

__version__ = "0.1.0"

__all__ = ["__version__", *_lazy.export(globals(), {
    ".analyzer": ("ExclusionSet", "InputSpace", "NotFound", "find_adversarial",
                  "membership"),
    ".sampling": ("SamplingFailure", "region_box", "sample_region"),
    ".stats": ("AllZero", "SignificanceReport", "check_significance",
               "dkw_samples", "kendall_trend", "wilcoxon_signed_rank"),
    ".subspaces": ("GapRegressionTree", "Limits", "SearchParams", "StatsParams",
                   "Subspace", "SubspaceParams", "extract_path_predicates",
                   "fit_regression_tree", "generate_subspaces", "load_subspaces",
                   "save_subspaces", "subspace_from_dict", "subspace_to_dict"),
    ".explain": ("EdgeScore", "Heatmap", "emit_dot", "emit_json", "score_edges"),
    ".generalize": ("FEATURES", "InstanceFamily", "Predicate", "TooFewInstances",
                    "TrendFinding", "evaluate_predicate", "generate_instances",
                    "register_feature", "trend_to_json"),
    ".rng": ("fold", "substream"),
}, submodules=("flow",))]

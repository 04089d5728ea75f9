"""Built-in problem families, their heuristics, benchmarks, and network views.

Every name but `gap` is imported on first use. `gap` is also the name of
its submodule, so it is bound here at once: a later `import
xplain.heuristics.gap` then finds the submodule loaded and leaves the
function in place.
"""

from .. import _lazy
from .gap import EPS_DEN, gap

__all__ = ["EPS_DEN", "gap", *_lazy.export(globals(), {
    ".networks": ("ball_node", "demand_node", "link_edge_id", "project_allocation",
                  "project_edges", "te_network", "vbp_network"),
    ".scenario": ("BUILTIN", "Scenario", "builtin", "load_scenario",
                  "scenario_from_dict"),
    ".te": ("Demand", "Link", "TeAllocation", "TeInstance", "all_simple_paths",
            "k_shortest_paths", "optimal_te", "run_dp"),
    ".vbp": ("Unplaceable", "VbpAllocation", "VbpInstance", "min_bins",
             "optimal_vbp", "run_ff", "sized_instance"),
})]

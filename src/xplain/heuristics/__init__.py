"""Built-in problem families, their heuristics, benchmarks, and network views."""

from .gap import EPS_DEN, dp_gap_fn, ff_gap_fn, gap
from .networks import (
    TE_MODELS,
    VBP_MODELS,
    ball_node,
    demand_node,
    link_edge_id,
    project_allocation,
    te_network,
    to_flow_network,
    vbp_network,
)
from .scenario import (
    BUILTIN,
    Scenario,
    builtin,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .te import (
    Demand,
    Link,
    TeAllocation,
    TeInstance,
    all_simple_paths,
    k_shortest_paths,
    make_instance,
    optimal_te,
    run_dp,
)
from .vbp import (
    Unplaceable,
    VbpAllocation,
    VbpInstance,
    min_bins,
    optimal_vbp,
    run_ff,
    sized_instance,
)

__all__ = [
    "EPS_DEN", "dp_gap_fn", "ff_gap_fn", "gap",
    "TE_MODELS", "VBP_MODELS", "ball_node", "demand_node", "link_edge_id",
    "project_allocation", "te_network", "to_flow_network", "vbp_network",
    "BUILTIN", "Scenario", "builtin", "load_scenario", "save_scenario",
    "scenario_from_dict", "scenario_to_dict",
    "Demand", "Link", "TeAllocation", "TeInstance", "all_simple_paths",
    "k_shortest_paths", "make_instance", "optimal_te", "run_dp",
    "Unplaceable", "VbpAllocation", "VbpInstance", "min_bins", "optimal_vbp",
    "run_ff", "sized_instance",
]

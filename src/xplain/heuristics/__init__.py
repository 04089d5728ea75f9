"""Built-in problem families, their heuristics, benchmarks, and network views."""

from .gap import EPS_DEN, gap
from .networks import (
    ball_node,
    demand_node,
    link_edge_id,
    project_allocation,
    project_edges,
    te_network,
    vbp_network,
)
from .scenario import (
    BUILTIN,
    Scenario,
    builtin,
    load_scenario,
    scenario_from_dict,
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
    "EPS_DEN", "gap",
    "ball_node", "demand_node", "link_edge_id",
    "project_allocation", "project_edges", "te_network", "vbp_network",
    "BUILTIN", "Scenario", "builtin", "load_scenario", "scenario_from_dict",
    "Demand", "Link", "TeAllocation", "TeInstance", "all_simple_paths",
    "k_shortest_paths", "make_instance", "optimal_te", "run_dp",
    "Unplaceable", "VbpAllocation", "VbpInstance", "min_bins", "optimal_vbp",
    "run_ff", "sized_instance",
]

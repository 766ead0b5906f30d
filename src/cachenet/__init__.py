"""cachenet: cache-network modeling, joint routing/caching optimization,
and packet-level simulation."""

from .network import (
    CostFunctions,
    CostModel,
    Demand,
    Scenario,
    Topology,
    linear_cache_costs,
    linear_link_costs,
    poly3_link_costs,
    queueing_link_costs,
    zero_costs,
)
from .flow import FlowState, Strategy, solve_traffic, validate_strategy
from .marginals import (
    MarginalState,
    check_kkt,
    check_modified_condition,
    compute_marginals,
)
from .fixedroute import FixedRoutingInstance, eval_gain, gcfw, grad_gain
from .blocking import BlockedSets, dynamic_blocked_sets, static_blocked_sets
from .gp import (
    GPConfig,
    GPTrajectory,
    gp_step,
    message_counts,
    run_gp,
    shortest_path_strategy,
)
from .rounding import BarMap, build_bar_map, sample_decision
from .sim import SimSchedule, run_simulation
from .policies import make_policy
from .scenarios import (
    ScenarioSpec,
    TABLE_PRESETS,
    generate_scenario,
    load_scenario,
    load_topology_file,
    save_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "BarMap",
    "BlockedSets",
    "CostFunctions",
    "CostModel",
    "Demand",
    "FixedRoutingInstance",
    "FlowState",
    "GPConfig",
    "GPTrajectory",
    "MarginalState",
    "Scenario",
    "ScenarioSpec",
    "SimSchedule",
    "Strategy",
    "TABLE_PRESETS",
    "Topology",
    "build_bar_map",
    "check_kkt",
    "check_modified_condition",
    "compute_marginals",
    "dynamic_blocked_sets",
    "eval_gain",
    "gcfw",
    "generate_scenario",
    "gp_step",
    "grad_gain",
    "linear_cache_costs",
    "linear_link_costs",
    "load_scenario",
    "load_topology_file",
    "make_policy",
    "message_counts",
    "poly3_link_costs",
    "queueing_link_costs",
    "run_gp",
    "run_simulation",
    "sample_decision",
    "save_scenario",
    "shortest_path_strategy",
    "solve_traffic",
    "static_blocked_sets",
    "validate_strategy",
    "zero_costs",
]

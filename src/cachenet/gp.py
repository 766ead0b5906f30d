"""Distributed gradient-projection optimizer for the general dynamic-routing
case.

Each update transfers routing/caching fraction away from directions whose
marginal cost exceeds the minimum delta_i(k) (and away from blocked
directions entirely), and redistributes the removed mass equally across the
minimum-marginal directions.  The removed mass S is accounted positively and
the caching direction receives mass iff it attains the minimum (e_i0 = 0);
this is the conservation-preserving reading of the update rule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .blocking import dynamic_blocked_sets, static_blocked_sets
from .errors import CacheNetError, ConfigurationError
from .flow import T_ZERO, Strategy, solve_traffic
from .marginals import (
    PHI_ACTIVE,
    compute_marginals,
    server_mask,
    vectorized_residuals,
)


@dataclass
class GPConfig:
    alpha: float = 0.01
    max_periods: int = 2000
    tol: float = 1e-4
    schedule: str = "synchronous"     # synchronous | round-robin | random
    blocked_mode: str = "static"      # static | dynamic
    seed: int = 0                     # for the random asynchronous schedule
    divergence_factor: float = 1e3
    check_loops: bool = True

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigurationError("stepsize alpha must be positive")
        if self.tol <= 0:
            raise ConfigurationError("convergence tolerance must be positive")
        if self.schedule not in ("synchronous", "round-robin", "random"):
            raise ConfigurationError(f"unknown schedule {self.schedule!r}")
        if self.blocked_mode not in ("static", "dynamic"):
            raise ConfigurationError(f"unknown blocked mode {self.blocked_mode!r}")


@dataclass
class ItemUpdate:
    """Per-(node, item) update bookkeeping (excesses and applied deltas)."""

    item: int
    e_route: dict            # edge -> excess marginal e_ij
    e_cache: float           # excess of the caching direction
    receivers: int           # N_i(k)
    moved: float             # S_i(k), total removed (positive) mass
    delta_phi: dict          # edge -> applied change
    delta_y: float


@dataclass
class UpdateReport:
    node: int
    items: list = field(default_factory=list)
    post_cost: float = float("nan")

    def conservation_error(self):
        worst = 0.0
        for it in self.items:
            worst = max(worst, abs(sum(it.delta_phi.values()) + it.delta_y))
        return worst


def gp_update_node(node, topology, demand, strategy, flow, marg, blocked, alpha,
                   items=None, cost=None):
    """Compute node's strategy update from the current marginals.

    Items with t > 0 transfer fractions toward minimum-marginal directions;
    items with t = 0 zero their caching fraction and park all routing mass
    on the delta-minimal unblocked neighbor.  ``items`` restricts the update
    to a subset of the catalog (pairs already at their per-pair fixed point
    can be skipped).  When a cost model is passed, the post-update total
    cost is evaluated into the report.
    """
    report = UpdateReport(node=node)
    i = node
    item_range = range(demand.num_items) if items is None else items
    for k in item_range:
        if i in demand.servers[k]:
            continue
        out = topology.out_edges[i]
        unblocked = [e for e in out if not blocked.mask[k, e]]
        if not unblocked:
            continue
        ti = flow.t[k, i]
        y = strategy.y[k, i]

        if ti <= T_ZERO:
            # no traffic: condition forces y = 0; park mass on the best hop
            best = min(unblocked, key=lambda e: (marg.delta_link[k, e],
                                                 topology.dst[e]))
            dphi = {}
            moved = 0.0
            for e in out:
                cur = strategy.phi[k, e]
                if e != best and cur > 0.0:
                    dphi[e] = -cur
                    moved += cur
            if y > 0.0:
                moved += y
            if moved > 0.0:
                dphi[best] = dphi.get(best, 0.0) + moved
                report.items.append(ItemUpdate(
                    item=k, e_route={}, e_cache=0.0, receivers=1,
                    moved=moved, delta_phi=dphi, delta_y=-y,
                ))
            continue

        delta_vals = {e: marg.delta_link[k, e] for e in unblocked}
        d_cache = marg.delta_cache[k, i]
        d_min = min(min(delta_vals.values()), d_cache)
        e_route = {e: dv - d_min for e, dv in delta_vals.items()}
        e_cache = d_cache - d_min

        receivers = [e for e, ex in e_route.items() if ex == 0.0]
        n = len(receivers) + (1 if e_cache == 0.0 else 0)
        if n == 0:
            raise CacheNetError(
                f"no minimum-marginal direction at node {i}, item {k}"
            )
        moved = 0.0
        dphi = {}
        for e in out:
            cur = strategy.phi[k, e]
            if blocked.mask[k, e]:
                if cur > 0.0:
                    dphi[e] = -cur
                    moved += cur
            elif e_route.get(e, 0.0) > 0.0 and cur > 0.0:
                step = min(cur, alpha * e_route[e])
                dphi[e] = -step
                moved += step
        dy = 0.0
        if e_cache > 0.0 and y > 0.0:
            # t > 0 here, so e_cache is finite
            dy = -min(y, alpha * e_cache)
            moved += -dy

        if moved > 0.0:
            share = moved / n
            for e in receivers:
                dphi[e] = dphi.get(e, 0.0) + share
            if e_cache == 0.0:
                dy += share
        if dphi or dy:
            report.items.append(ItemUpdate(
                item=k, e_route=e_route, e_cache=e_cache, receivers=n,
                moved=moved, delta_phi=dphi, delta_y=dy,
            ))
    if cost is not None:
        trial = strategy.copy()
        apply_update(trial, report)
        report.post_cost = solve_traffic(topology, demand, trial, cost).total_cost
    return report


def apply_update(strategy, report):
    for it in report.items:
        for e, d in it.delta_phi.items():
            strategy.phi[it.item, e] = min(1.0, max(0.0, strategy.phi[it.item, e] + d))
        strategy.y[it.item, report.node] = min(
            1.0, max(0.0, strategy.y[it.item, report.node] + it.delta_y)
        )


@dataclass
class PeriodRecord:
    period: int
    total_cost: float
    link_cost: float
    cache_cost: float
    residual: float
    messages: int
    loop_free: bool = True


@dataclass
class GPTrajectory:
    records: list
    strategy: Strategy
    converged: bool
    blocked: object

    @property
    def final_cost(self):
        return self.records[-1].total_cost


def message_counts(trajectory):
    """Per-period broadcast message counts of a recorded run."""
    return [r.messages for r in trajectory.records]


def shortest_path_strategy(topology, demand, cost):
    """Single-next-hop shortest-path routing with y = 0 (the default start).

    Uses zero-flow marginals as link weights; next hop of i is the neighbor
    minimizing dist_j + D'_ji(0) (response-direction pricing), ties to the
    lowest id.
    """
    from .blocking import server_distances

    weights = cost.link_deriv(np.zeros(topology.num_links))
    dist = server_distances(topology, demand, weights)
    strat = Strategy(topology, demand.num_items)
    for k in range(demand.num_items):
        for i in range(topology.num_nodes):
            if i in demand.servers[k]:
                continue
            best, best_val = None, np.inf
            for e in topology.out_edges[i]:
                j = topology.dst[e]
                val = dist[k, j] + weights[topology.rev[e]]
                if val < best_val - 1e-15 or (
                    abs(val - best_val) <= 1e-15 and (best is None or j < topology.dst[best])
                ):
                    best, best_val = e, val
            strat.phi[k, best] = 1.0
    return strat


def sp_next_hops(topology, demand, cost):
    """Next-hop table of the shortest-path strategy (for fixed-routing use)."""
    strat = shortest_path_strategy(topology, demand, cost)
    nh = {}
    for k in range(demand.num_items):
        for i in range(topology.num_nodes):
            if i in demand.servers[k]:
                continue
            for e in topology.out_edges[i]:
                if strat.phi[k, e] > 0:
                    nh[(i, k)] = int(topology.dst[e])
    return nh


def count_async_messages(topology, demand, strategy, blocked, node):
    """Broadcast messages needed for a single-node update.

    The updater needs dT/dr of every unblocked neighbor; each needed node
    in turn needs its positive-phi downstream neighbors to evaluate its own
    recursion.  One message per (needed value, requiring node) pair, i.e.
    per directed edge that actually delivers a value upstream.
    """
    total = 0
    for k in range(demand.num_items):
        candidates = {
            int(topology.dst[e])
            for e in topology.out_edges[node]
            if not blocked.mask[k, e]
        }
        needed = set()
        frontier = list(candidates)
        while frontier:
            u = frontier.pop()
            if u in needed:
                continue
            needed.add(u)
            for e in topology.out_edges[u]:
                if strategy.phi[k, e] > PHI_ACTIVE:
                    frontier.append(int(topology.dst[e]))
        for u in needed:
            requirers = set()
            if u in candidates:
                requirers.add(node)
            for w in needed:
                e = topology.edge_index.get((w, u))
                if e is not None and strategy.phi[k, e] > PHI_ACTIVE:
                    requirers.add(w)
            total += len(requirers)
    return total


def run_gp(topology, demand, cost, config=None, initial_strategy=None):
    """Iterate gradient-projection periods until the restricted modified
    condition holds or the period budget runs out.

    Per period: (re)compute blocked sets, solve traffic by a forward sweep
    and the marginals by a reverse sweep over each item's positive-phi DAG,
    apply node updates per the schedule, and record cost / residual /
    broadcast-message counts.  A routing loop (an item without such a DAG)
    raises.
    """
    config = config or GPConfig()
    zero_b = cost.cache.deriv_is_zero()
    if zero_b.any():
        warnings.warn(
            "cache cost has identically-zero marginal at some nodes; the "
            "t=0 => y=0 implication of the modified condition is void there",
            stacklevel=2,
        )
    strategy = (
        initial_strategy.copy()
        if initial_strategy is not None
        else shortest_path_strategy(topology, demand, cost)
    )
    static = (
        static_blocked_sets(topology, demand, cost=cost)
        if config.blocked_mode == "static"
        else None
    )
    rng = np.random.default_rng(config.seed)
    V = topology.num_nodes
    sync_messages = demand.num_items * topology.num_links

    records = []
    initial_cost = None
    converged = False
    blocked = None
    servers = server_mask(topology, demand)
    for period in range(config.max_periods):
        blocked = static if static is not None else dynamic_blocked_sets(
            topology, demand, strategy
        )
        flow = solve_traffic(topology, demand, strategy, cost)
        marg = compute_marginals(topology, demand, strategy, flow, cost, blocked)
        pair_resid, _ = vectorized_residuals(
            topology, demand, strategy, flow, marg, blocked, servers
        )
        worst = float(pair_resid.max()) if pair_resid.size else 0.0
        # the marginal computation already leveled each item's positive-phi
        # subgraph; reuse its acyclic flags for the loop-freeness check
        loop_free = bool(marg.acyclic.all()) if config.check_loops else True
        if initial_cost is None:
            initial_cost = flow.total_cost

        if config.schedule == "synchronous":
            messages = sync_messages
        elif config.schedule == "round-robin":
            node = period % V
            messages = count_async_messages(
                topology, demand, strategy, blocked, node
            )
        else:
            node = int(rng.integers(V))
            messages = count_async_messages(
                topology, demand, strategy, blocked, node
            )

        records.append(PeriodRecord(
            period=period,
            total_cost=flow.total_cost,
            link_cost=flow.link_cost,
            cache_cost=flow.cache_cost,
            residual=worst,
            messages=messages,
            loop_free=loop_free,
        ))
        if not loop_free:
            raise CacheNetError(f"routing loop appeared at period {period}")
        if flow.total_cost > config.divergence_factor * max(initial_cost, 1e-12):
            raise CacheNetError(
                f"total cost diverged at period {period}: stepsize too large"
            )
        if worst <= config.tol:
            converged = True
            break

        if config.schedule == "synchronous":
            reports = [
                gp_update_node(
                    i, topology, demand, strategy, flow, marg, blocked,
                    config.alpha,
                    items=np.nonzero(pair_resid[:, i] > 0.0)[0],
                )
                for i in range(V)
            ]
            for rep in reports:
                apply_update(strategy, rep)
        else:
            rep = gp_update_node(node, topology, demand, strategy, flow, marg,
                                 blocked, config.alpha)
            apply_update(strategy, rep)
    return GPTrajectory(
        records=records, strategy=strategy, converged=converged, blocked=blocked
    )

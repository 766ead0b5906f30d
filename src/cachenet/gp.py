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
from dataclasses import dataclass

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


# a period whose cost exceeds this multiple of the first period's cost
# stops the run as diverged (stepsize too large)
DIVERGENCE_FACTOR = 1e3


@dataclass
class GPConfig:
    alpha: float = 0.01
    max_periods: int = 2000
    tol: float = 1e-4
    schedule: str = "synchronous"     # synchronous | round-robin | random
    blocked_mode: str = "static"      # static | dynamic
    seed: int = 0                     # for the random asynchronous schedule

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigurationError("stepsize alpha must be positive")
        if self.max_periods < 1:
            raise ConfigurationError("max_periods must be at least 1")
        if self.tol <= 0:
            raise ConfigurationError("convergence tolerance must be positive")
        if self.schedule not in ("synchronous", "round-robin", "random"):
            raise ConfigurationError(f"unknown schedule {self.schedule!r}")
        if self.blocked_mode not in ("static", "dynamic"):
            raise ConfigurationError(f"unknown blocked mode {self.blocked_mode!r}")


def gp_step(topology, demand, strategy, flow, marg, blocked, alpha, pairs):
    """Update the (item, node) pairs selected by the bool (C, V) mask
    ``pairs`` in place, all from the current marginals.

    A pair with t > 0 moves min(phi, alpha * e) off each unblocked direction
    whose excess e = delta - delta_i(k) is positive (likewise y off the
    cache), drops all blocked mass, and shares the removed mass equally
    among the directions with e == 0, the cache included iff it attains
    the minimum.  A pair with t = 0 zeroes y and parks all mass on the
    unblocked hop of least delta, ties to the lowest neighbor id.  Servers
    and pairs without an unblocked out-link are left alone.  Each node sums
    its removed mass over its out-links in link order, then the cache.
    """
    src, dst = topology.src, topology.dst
    phi, y = strategy.phi, strategy.y
    C, V = y.shape
    unblocked = ~blocked.mask
    pair_of = (np.arange(C)[:, None] * V + src).ravel()   # flat (k, src(e))
    # The step's (C, E) float arrays are three views of one block, filled
    # in place.  As separate temporaries they made glibc grow and trim the
    # heap on every step and fault its pages back in, here and in the code
    # run next; freeing one block of this size raises glibc's trim
    # threshold above that churn.
    work, at_src, as_float = np.empty((3,) + phi.shape)

    def gather(node_vals):
        """(C, E) copy of (C, V) values at each link's source node
        (mode="clip" lets take write straight into the buffer)."""
        return np.take(node_vals, src, axis=1, out=at_src, mode="clip")

    def per_node(edge_vals, ufunc=np.add, start=0.0):
        """(C, V) fold of (C, E) values over each node's out-links, in
        link order."""
        if edge_vals.dtype != float:
            np.copyto(as_float, edge_vals)
            edge_vals = as_float
        out = np.full(C * V, start, dtype=float)
        ufunc.at(out, pair_of, edge_vals.ravel())
        return out.reshape(C, V)

    pairs = pairs & ~server_mask(topology, demand) & (per_node(unblocked) > 0)
    idle = pairs & (flow.t <= T_ZERO)
    busy = pairs & ~idle
    idle_e, busy_e = idle[:, src], busy[:, src]

    with np.errstate(invalid="ignore"):   # inf - inf where delta_min is inf
        excess = np.subtract(marg.delta_link, gather(marg.delta_min), out=work)
        e_cache = marg.delta_cache - marg.delta_min
    receivers = busy_e & unblocked & (excess == 0.0)
    cache_receives = busy & (e_cache == 0.0)
    n = per_node(receivers) + cache_receives
    stuck = busy & (n == 0)          # only where delta_min is inf or NaN
    if stuck.any():
        i, k = np.argwhere(stuck.T)[0]
        raise CacheNetError(f"no minimum-marginal direction at node {i}, item {k}")
    y_step = np.where((e_cache > 0.0) & (y > 0.0), np.minimum(y, alpha * e_cache), 0.0)

    # Mass each link gives up: min(phi, alpha * e) where e > 0 and all
    # blocked mass at a busy pair, all mass off the best hop at an idle pair.
    shed = busy_e & unblocked & (excess > 0.0) & (phi > 0.0)
    removed = np.minimum(phi, np.multiply(excess, alpha, out=work), out=work)
    removed[~shed] = 0.0
    np.copyto(removed, phi, where=busy_e & blocked.mask)
    if idle.any():
        # best unblocked hop: least delta, then lowest neighbor id
        np.copyto(as_float, marg.delta_link)
        as_float[blocked.mask] = np.inf
        least = per_node(as_float, np.minimum, np.inf)
        cand = unblocked & (marg.delta_link == gather(least))
        np.copyto(as_float, dst)
        as_float[~cand] = V
        best = cand & (dst == gather(per_node(as_float, np.minimum, V)))
        np.copyto(removed, phi, where=idle_e & ~best)
    else:
        best = np.zeros_like(unblocked)
    y_removed = np.where(idle, y, np.where(busy, y_step, 0.0))
    moved = per_node(removed) + y_removed
    share = np.where(idle, moved, moved / np.maximum(n, 1))

    gains = np.where(idle_e, best, receivers) & (moved > 0.0)[:, src]
    changed = gains | (removed > 0.0)
    new_phi = np.negative(removed, out=work)
    np.copyto(new_phi, gather(share), where=gains)
    new_phi += phi
    np.minimum(1.0, np.maximum(0.0, new_phi, out=new_phi), out=new_phi)
    np.copyto(phi, new_phi, where=changed)
    y_gains = cache_receives & (moved > 0.0)
    d_y = np.where(y_gains, share, -y_removed)
    np.copyto(y, np.minimum(1.0, np.maximum(0.0, y + d_y)),
              where=y_gains | (y_removed > 0.0))


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
    apply one ``gp_step`` to the pairs the schedule selects (every pair
    with a positive residual, or all items at one node), and record cost /
    residual /
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
        pair_resid, _, _ = vectorized_residuals(
            topology, demand, strategy, flow, marg, blocked, servers
        )
        worst = float(pair_resid.max()) if pair_resid.size else 0.0
        # the marginal computation already leveled each item's positive-phi
        # subgraph; reuse its acyclic flags for the loop-freeness check
        loop_free = bool(marg.acyclic.all())
        if initial_cost is None:
            initial_cost = flow.total_cost

        if config.schedule == "synchronous":
            messages = sync_messages
            pairs = pair_resid > 0.0
        else:
            node = (period % V if config.schedule == "round-robin"
                    else int(rng.integers(V)))
            messages = count_async_messages(
                topology, demand, strategy, blocked, node
            )
            pairs = np.zeros_like(pair_resid, dtype=bool)
            pairs[:, node] = True

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
        if flow.total_cost > DIVERGENCE_FACTOR * max(initial_cost, 1e-12):
            raise CacheNetError(
                f"total cost diverged at period {period}: stepsize too large"
            )
        if worst <= config.tol:
            converged = True
            break

        gp_step(topology, demand, strategy, flow, marg, blocked, config.alpha,
                pairs)
    return GPTrajectory(
        records=records, strategy=strategy, converged=converged, blocked=blocked
    )

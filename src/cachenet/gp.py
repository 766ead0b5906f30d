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

from .blocking import dynamic_blocked_sets, sp_next_links, static_blocked_sets
from .errors import (
    CacheNetError,
    ConfigurationError,
    DivergentCirculationError,
    require_count,
    require_finite_positive,
)
from .flow import T_ZERO, FlowState, Strategy, require_strategy, solve_traffic
from .marginals import PHI_ACTIVE, compute_marginals, vectorized_residuals


# a period whose cost exceeds this multiple of the first period's cost
# stops the run as diverged (stepsize too large)
DIVERGENCE_FACTOR = 1e3


def require_blocked_mode(mode):
    """Raise ConfigurationError unless ``mode`` names a blocked-set rule."""
    if mode not in ("static", "dynamic"):
        raise ConfigurationError(f"unknown blocked mode {mode!r}")


@dataclass
class GPConfig:
    alpha: float = 0.01
    max_periods: int = 2000
    tol: float = 1e-4
    schedule: str = "synchronous"     # synchronous | round-robin | random
    blocked_mode: str = "static"      # static | dynamic
    seed: int = 0                     # for the random asynchronous schedule

    def __post_init__(self):
        require_finite_positive(self.alpha, "stepsize alpha")
        require_count(self.max_periods, "max_periods must be an integer")
        require_finite_positive(self.tol, "convergence tolerance")
        if self.schedule not in ("synchronous", "round-robin", "random"):
            raise ConfigurationError(f"unknown schedule {self.schedule!r}")
        require_blocked_mode(self.blocked_mode)
        require_count(self.seed, "random schedule seed", least=0)


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
    The step walks the direction table of ``marg``, computed at this
    strategy with the same ``blocked``.
    """
    y = strategy.y
    C, V = y.shape
    tab = marg.directions(blocked)
    src = tab.src

    pairs = pairs & ~demand.server_mask & (tab.n_out > 0)
    idle = pairs & (flow.t <= T_ZERO)
    busy = pairs & ~idle
    with np.errstate(invalid="ignore"):   # inf - inf where delta_min is inf
        e_cache = marg.delta_cache - marg.delta_min
    ties = tab.excess == 0.0
    cache_receives = busy & (e_cache == 0.0)
    n = np.bincount(np.compress(ties, src), minlength=C * V).reshape(C, V) + cache_receives
    stuck = pairs & (n == 0)         # only where delta_min is inf or NaN
    if stuck.any():
        i, k = np.argwhere(stuck.T)[0]
        raise CacheNetError(f"no minimum-marginal direction at node {i}, item {k}")
    y_step = np.where((e_cache > 0.0) & (y > 0.0), np.minimum(y, alpha * e_cache), 0.0)

    # Mass given up: min(phi, alpha * e) where e > 0 at a busy pair, all of
    # it off every hop but the best at an idle pair (its first tie at
    # delta_min, as the cache is +inf at t = 0: the lowest neighbor id, as
    # links sort by (src, dst)), and all blocked mass of a selected pair.
    busy_p, idle_p = busy.reshape(-1)[src], idle.reshape(-1)[src]
    cand = np.flatnonzero(ties & idle_p)
    best = cand[np.diff(src[cand], prepend=-1) != 0]
    gains = busy_p & ties
    gains[best], idle_p[best] = True, False
    shed = np.flatnonzero((busy_p & (tab.excess > 0.0) | idle_p) & (tab.phi > 0.0))
    removed = np.where(busy_p[shed], np.minimum(tab.phi[shed], tab.excess[shed] * alpha),
                       tab.phi[shed])
    sel = pairs.reshape(-1)[tab.held_src]
    held, held_phi = tab.held[sel], strategy.phi.reshape(-1)[tab.held[sel]]
    drop = np.concatenate([tab.pair[shed], held])
    order = np.argsort(drop, kind="stable")   # each node sums in link order
    y_removed = np.where(idle, y, np.where(busy, y_step, 0.0))
    moved = np.bincount(np.concatenate([src[shed], tab.held_src[sel]])[order],
                        np.concatenate([removed, held_phi])[order],
                        minlength=C * V).reshape(C, V) + y_removed
    share = np.where(idle, moved, moved / np.maximum(n, 1))

    gains = np.flatnonzero(gains & (moved.reshape(-1) > 0.0)[src])
    new_phi = np.concatenate([tab.phi[gains] + share.reshape(-1)[src[gains]],
                              tab.phi[shed] - removed, held_phi - held_phi])
    np.put(strategy.phi, np.concatenate([tab.pair[gains], drop]),
           np.minimum(1.0, np.maximum(0.0, new_phi)))
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

    Each non-server node forwards over its lowest-id neighbour j that is
    tight (dist_j + D'_ji(0) == dist_i, response-direction pricing at the
    zero-flow marginals) and unblocked in the static sets
    (``blocking.sp_next_links``), so the start is loop-free and lies inside
    the static unblocked sets.
    """
    best = sp_next_links(topology, demand, cost)
    strat = Strategy(topology, demand.num_items)
    k, i = np.nonzero(best >= 0)
    strat.phi[k, best[k, i]] = 1.0
    return strat


def sp_next_hops(topology, demand, cost):
    """Next-hop table {(node, item): neighbor} of the shortest-path strategy
    (for fixed-routing use; the same tight, unblocked, lowest-id next hops
    from ``blocking.sp_next_links``), ordered by item, then node."""
    best = sp_next_links(topology, demand, cost)
    k, i = np.nonzero(best >= 0)
    return dict(zip(zip(i.tolist(), k.tolist()),
                    topology.dst[best[k, i]].tolist()))


def count_async_messages(topology, demand, strategy, blocked, node):
    """Broadcast messages needed for a single-node update.

    The updater needs dT/dr of every unblocked neighbor; each needed node
    in turn needs its positive-phi downstream neighbors to evaluate its own
    recursion.  One message per (needed value, requiring node) pair, i.e.
    per directed edge that actually delivers a value upstream.

    All items at once: the needed set grows from the unblocked neighbors
    along the active links until a sweep adds nothing (at most V sweeps).
    Each active link between needed nodes then delivers one message, and
    each unblocked neighbor one to the updater, unless that link already
    counted it.
    """
    src, dst = topology.src, topology.dst
    out = np.asarray(topology.out_edges[node], dtype=np.intp)
    active = strategy.phi > PHI_ACTIVE
    candidates = np.zeros(demand.server_mask.shape, dtype=bool)
    k, e = np.nonzero(~blocked.mask[:, out])
    candidates[k, dst[out[e]]] = True
    needed = candidates
    while True:
        k, e = np.nonzero(active & needed[:, src])
        grown = needed.copy()
        grown[k, dst[e]] = True
        if np.array_equal(grown, needed):
            break
        needed = grown
    delivers = active & needed[:, src] & needed[:, dst]
    counted = delivers[:, out] & candidates[:, dst[out]]
    return int(delivers.sum() + candidates.sum() - counted.sum())


def gp_period(topology, demand, cost, strategy, static, last=(None, None, None),
              measured=None):
    """One GP period up to its step: (flows, blocked sets, marginals).

    Flows: the traffic solve's (the ``last`` period's layout kept if the
    routed mask is unchanged), or ``measured`` (F, t).  Sets: ``static``, or
    dynamic ones from the strategy and this period's arrivals t, reusing
    ``last``'s.  A divergent solve raises the LoopError dynamic sets find.
    """
    if measured is not None:   # no layout, no per-item flows f
        flow = FlowState(t=measured[1], f=None, F=measured[0], Y=strategy.y.sum(axis=0),
                         link_cost=np.nan, cache_cost=np.nan, total_cost=np.nan)
    else:
        try:
            flow = solve_traffic(topology, demand, strategy, cost, static, previous=last[0])
        except DivergentCirculationError:
            if static is None:   # name the loop, as the sets would have
                dynamic_blocked_sets(topology, demand, strategy)
            raise
    blocked = static if static is not None else dynamic_blocked_sets(
        topology, demand, strategy, flow.t, previous=last[1])
    return flow, blocked, compute_marginals(topology, demand, strategy, flow, cost, blocked)


def run_gp(topology, demand, cost, config=None, initial_strategy=None):
    """Iterate gradient-projection periods until the restricted modified
    condition holds or the period budget runs out.

    Static blocked sets are fixed for the run and read off the instance's
    zero-flow order, which is built once per instance and shared with
    ``shortest_path_strategy`` and every later call on the instance, as is
    the layout of their unblocked DAG.  Per period: one ``gp_period``, the
    residuals, one ``gp_step`` of the pairs the schedule selects (every pair
    with a positive residual, or all items at one node), and a record of
    cost / residual / broadcast-message counts.  A routing loop (an item whose positive-phi subgraph is not a
    DAG) raises, as a LoopError in dynamic mode.  An ``initial_strategy``
    that is not a strategy of this instance raises StructuralError.
    """
    config = config or GPConfig()
    zero_b = cost.cache.deriv_is_zero()
    if zero_b.any():
        warnings.warn(
            "cache cost has identically-zero marginal at some nodes; the "
            "t=0 => y=0 implication of the modified condition is void there",
            stacklevel=2,
        )
    if initial_strategy is not None:
        require_strategy(topology, demand, initial_strategy, "initial strategy")
        strategy = initial_strategy.copy()
    else:
        strategy = shortest_path_strategy(topology, demand, cost)
    static = (
        static_blocked_sets(topology, demand, cost=cost)
        if config.blocked_mode == "static"
        else None
    )
    rng = (np.random.default_rng(config.seed) if config.schedule == "random"
           else None)
    V = topology.num_nodes
    sync_messages = demand.num_items * topology.num_links

    records = []
    initial_cost = None
    converged = False
    last = (None, None, None)
    for period in range(config.max_periods):
        flow, blocked, marg = last = gp_period(topology, demand, cost, strategy, static, last)
        pair_resid, _, _ = vectorized_residuals(
            topology, demand, strategy, flow, marg, blocked
        )
        worst = float(pair_resid.max()) if pair_resid.size else 0.0
        # the marginals already know which items' positive-phi subgraph
        # is a DAG; reuse their acyclic flags for the loop-freeness check
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

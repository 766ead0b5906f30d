"""Simulation policies: the online GP, GCFW+SP, and the baselines
(shortest-path routing with LRU/LFU eviction, Uniform / MinCost cache
deployment, and CostGreedy placement), plus flow-level baseline analogues
used by the experiment driver.
"""

from __future__ import annotations

import numpy as np

from .blocking import dynamic_blocked_sets, static_blocked_sets
from .errors import require_finite_positive
from .fixedroute import FixedRoutingInstance, gcfw, require_iteration_count
from .flow import require_strategy, solve_traffic
from .gp import gp_period, gp_step, require_blocked_mode, shortest_path_strategy, sp_next_hops
from .rounding import build_bar_map, sample_decision, slot_uniforms


class SimPolicy:
    """Hook interface the simulator drives."""

    name = "base"

    def setup(self, scenario, sim):
        self.scenario = scenario
        self.sim = sim

    def on_slot(self, period, slot):
        pass

    def on_update(self, period, measured_F, measured_arrivals):
        return 0

    def slot_hits(self):
        """The (C, V) cache-hit mask of the current slot, or None.

        A policy that returns a mask has hits that change only in
        ``on_slot`` and ``on_update``, routing that changes only in
        ``on_update`` and is given by ``routing_array``, and no work in
        ``on_hit`` or ``on_response_pass``.  The simulator then walks each
        slot's requests together (the array walk) and calls no per-hop hook.
        None, the default, selects the request-atomic walk, which calls
        ``is_hit``, ``routing_weights`` and the other per-hop hooks.
        """
        return None

    def is_hit(self, node, item):
        raise NotImplementedError

    def on_hit(self, node, item):
        pass

    def on_response_pass(self, node, item):
        pass

    def routing_weights(self, node, item):
        raise NotImplementedError

    def routing_array(self):
        """(C, E) routing weights for the array walk: the tokens of (item
        k, node i) are split over the out-links e of i in proportion to
        [k, e], as ``routing_weights`` splits them."""
        raise NotImplementedError

    def failsafe_neighbors(self, node, item):
        return list(self.scenario.topology.neighbors[node])

    def cache_occupancy(self):
        raise NotImplementedError

    def theoretical_total(self, scenario):
        return float("nan")


class RelaxedStrategyPolicy(SimPolicy):
    """Common machinery for policies carrying a relaxed (phi, y) strategy:
    DRR re-rounding per slot and conditional-routing token weights."""

    blocked = None   # online GP's sets: static ones lend their kept layout

    def setup(self, scenario, sim):
        super().setup(scenario, sim)
        self.strategy = self.initial_strategy(scenario)
        C, V = scenario.demand.num_items, scenario.topology.num_nodes
        self.x = np.zeros((C, V), dtype=np.int8)
        self._theory = None

    def initial_strategy(self, scenario):
        raise NotImplementedError

    def on_slot(self, period, slot):
        # the bars are laid out from the y in force (one column per node)
        u = slot_uniforms(self.sim.seed, period, slot,
                          self.scenario.topology.num_nodes)
        self.x[:] = sample_decision(build_bar_map(self.strategy.y), u)

    def slot_hits(self):
        return self.x.view(bool)

    def is_hit(self, node, item):
        return bool(self.x[item, node])

    def routing_weights(self, node, item):
        top = self.scenario.topology
        out = []
        for e in top.out_edges[node]:
            p = self.strategy.phi[item, e]
            if p > 0:
                out.append((int(top.dst[e]), float(p)))
        return out

    def routing_array(self):
        return self.strategy.phi

    def cache_occupancy(self):
        return self.x.sum(axis=0).astype(float)

    def theoretical_total(self, scenario):
        if self._theory is None:
            fs = solve_traffic(scenario.topology, scenario.demand,
                               self.strategy, scenario.cost, self.blocked)
            self._theory = fs.total_cost
        return self._theory


class FrozenStrategyPolicy(RelaxedStrategyPolicy):
    """Realize a fixed relaxed strategy (no updates); one that is not a
    strategy of the scenario raises StructuralError at set-up."""

    name = "frozen"

    def __init__(self, strategy):
        self._frozen = strategy

    def initial_strategy(self, scenario):
        require_strategy(scenario.topology, scenario.demand, self._frozen,
                         "frozen strategy")
        return self._frozen.copy()


class GPOnlinePolicy(RelaxedStrategyPolicy):
    """Online gradient projection driven by measured flows and arrivals.

    Each update is one ``gp.gp_period`` on the measured link flows F and
    arrival rates t, the period ``run_gp`` runs on solved flows, then a
    ``gp_step`` of every pair.  Dynamic blocked sets are built there from
    the measured arrivals, before the marginals: a pair with no arrivals in
    the measurement window counts as t = 0, and when it caches (y > 0)
    with no unblocked out-link the sets' stranded-cache mending gives it
    one.  The sets of the start strategy serve the failsafe until the first
    update.  An ``initial`` strategy that is not a strategy of the scenario
    raises StructuralError at set-up.
    """

    name = "gp"

    def __init__(self, alpha=0.01, blocked_mode="static", initial=None):
        require_finite_positive(alpha, "stepsize alpha")
        require_blocked_mode(blocked_mode)
        self.alpha = alpha
        self.blocked_mode = blocked_mode
        self._initial = initial

    def initial_strategy(self, scenario):
        top, dem = scenario.topology, scenario.demand
        if self._initial is not None:
            require_strategy(top, dem, self._initial, "initial strategy")
            s = self._initial.copy()
        else:
            s = shortest_path_strategy(top, dem, scenario.cost)
        self.blocked = (
            static_blocked_sets(top, dem, cost=scenario.cost)
            if self.blocked_mode == "static"
            else dynamic_blocked_sets(top, dem, s)
        )
        return s

    def failsafe_neighbors(self, node, item):
        top = self.scenario.topology
        return sorted(
            int(top.dst[e])
            for e in top.out_edges[node]
            if not self.blocked.mask[item, e]
        )

    def on_update(self, period, measured_F, measured_arrivals):
        top, dem = self.scenario.topology, self.scenario.demand
        static = self.blocked if self.blocked_mode == "static" else None
        flow, self.blocked, marg = gp_period(
            top, dem, self.scenario.cost, self.strategy, static,
            (None, self.blocked, None), (measured_F, measured_arrivals))
        gp_step(top, dem, self.strategy, flow, marg, self.blocked, self.alpha,
                np.ones_like(self.strategy.y, dtype=bool))
        self._theory = None
        return dem.num_items * top.num_links


class GcfwSpPolicy(RelaxedStrategyPolicy):
    """Offline GCFW caching over shortest-path routes, realized with DRR."""

    name = "gcfw-sp"

    def __init__(self, N=100):
        require_iteration_count(N)
        self.N = N

    def initial_strategy(self, scenario):
        nh = sp_next_hops(scenario.topology, scenario.demand, scenario.cost)
        inst = FixedRoutingInstance(
            scenario.topology, scenario.demand, scenario.cost, nh
        )
        res = gcfw(inst, self.N)
        self.gcfw_result = res
        return inst.induced_strategy(res.y)


class EvictionCache:
    """Per-node LRU/LFU cache bookkeeping within a capacity."""

    def __init__(self, kind):
        if kind not in ("lru", "lfu"):
            raise ValueError(f"unknown eviction kind {kind!r}")
        self.kind = kind
        self.entries = {}  # item -> [last_used, freq]
        self.clock = 0

    def touch(self, item):
        self.clock += 1
        ent = self.entries.get(item)
        if ent is not None:
            ent[0] = self.clock
            ent[1] += 1

    def insert(self, item, capacity):
        self.clock += 1
        if capacity <= 0:
            return
        if item in self.entries:
            self.touch(item)
            return
        while len(self.entries) >= capacity:
            self._evict()
        self.entries[item] = [self.clock, 1]

    def _evict(self):
        if self.kind == "lru":
            victim = min(self.entries, key=lambda k: (self.entries[k][0], k))
        else:
            victim = min(self.entries, key=lambda k: (self.entries[k][1],
                                                      self.entries[k][0], k))
        del self.entries[victim]

    def __contains__(self, item):
        return item in self.entries

    def __len__(self):
        return len(self.entries)


class SpRoutingMixin:
    """Single next-hop shortest-path routing for the baseline policies."""

    def _setup_routing(self, scenario):
        self.next_hop = sp_next_hops(scenario.topology, scenario.demand,
                                     scenario.cost)

    def routing_weights(self, node, item):
        j = self.next_hop.get((node, item))
        return [] if j is None else [(j, 1.0)]


class EvictionPolicy(SpRoutingMixin, SimPolicy):
    """SP routing with capacity caches managed by LRU/LFU eviction;
    responses insert the item at every node they pass."""

    def __init__(self, kind="lru", capacity=0):
        self.kind = kind
        self.base_capacity = capacity

    @property
    def name(self):
        return f"sp-{self.kind}"

    def setup(self, scenario, sim):
        super().setup(scenario, sim)
        self._setup_routing(scenario)
        V = scenario.topology.num_nodes
        self.capacity = np.full(V, int(self.base_capacity))
        self.caches = [EvictionCache(self.kind) for _ in range(V)]

    def is_hit(self, node, item):
        return item in self.caches[node]

    def on_hit(self, node, item):
        self.caches[node].touch(item)

    def on_response_pass(self, node, item):
        self.caches[node].insert(item, int(self.capacity[node]))

    def cache_occupancy(self):
        return np.array([len(c) for c in self.caches], dtype=float)


class UniformDeploymentPolicy(EvictionPolicy):
    """Adds one unit of cache capacity at every node each period."""

    def __init__(self, kind="lru"):
        super().__init__(kind=kind, capacity=0)

    @property
    def name(self):
        return f"uniform-{self.kind}"

    def on_update(self, period, measured_F, measured_arrivals):
        self.capacity += 1
        return 0


class MinCostDeploymentPolicy(EvictionPolicy):
    """Adds one unit of capacity at the node with the highest accumulated
    cache miss cost each period (ties to the lowest node id)."""

    def __init__(self, kind="lru"):
        super().__init__(kind=kind, capacity=0)
        self._last_miss = None

    @property
    def name(self):
        return f"mincost-{self.kind}"

    def on_update(self, period, measured_F, measured_arrivals):
        cur = self.sim.miss_cost.copy()
        if self._last_miss is None:
            delta = cur
        else:
            delta = cur - self._last_miss
        self._last_miss = cur
        self.capacity[int(np.argmax(delta))] += 1
        return 0


def _costgreedy_pick(miss, cached, servers):
    """(item, node) index of the largest positive miss cost, or None.

    ``miss``, ``cached`` and ``servers`` are (C, V); cached pairs and
    servers are never picked, and a tie goes to the first pair in
    node-major order.
    """
    vals = np.where(~cached & ~servers & (miss > 0), miss, 0.0)
    i, k = divmod(int(np.argmax(vals.T)), vals.shape[0])   # first maximum
    return (k, i) if vals[k, i] > 0 else None


class CostGreedyPolicy(SpRoutingMixin, SimPolicy):
    """Greedily pins y_i(k) = 1 for the (node, item) pair with the largest
    single-item miss cost each period."""

    name = "costgreedy"

    def setup(self, scenario, sim):
        super().setup(scenario, sim)
        self._setup_routing(scenario)
        self.cached = np.zeros(scenario.demand.server_mask.shape, dtype=bool)
        self._last_miss = None
        top = scenario.topology
        self._sp_weights = np.zeros((scenario.demand.num_items, top.num_links))
        for (node, item), j in self.next_hop.items():
            self._sp_weights[item, top.edge_index[(node, j)]] = 1.0

    def slot_hits(self):
        return self.cached

    def is_hit(self, node, item):
        return bool(self.cached[item, node])

    def routing_array(self):
        return self._sp_weights

    def on_update(self, period, measured_F, measured_arrivals):
        cur = self.sim.miss_cost_item.copy()
        delta = cur if self._last_miss is None else cur - self._last_miss
        self._last_miss = cur
        pick = _costgreedy_pick(delta, self.cached, self.scenario.demand.server_mask)
        if pick is not None:
            self.cached[pick] = True
        return 0

    def cache_occupancy(self):
        return self.cached.sum(axis=0).astype(float)


def make_policy(name, **kw):
    name = name.lower()
    if name == "gp":
        return GPOnlinePolicy(
            alpha=kw.get("alpha", 0.01),
            blocked_mode=kw.get("blocked_mode", "static"),
        )
    if name == "gcfw":
        return GcfwSpPolicy(N=kw.get("N", 100))
    if name in ("sp-lru", "sp-lfu"):
        return EvictionPolicy(kind=name[3:], capacity=kw.get("capacity", 1))
    if name == "uniform":
        return UniformDeploymentPolicy(kind=kw.get("eviction", "lru"))
    if name == "mincost":
        return MinCostDeploymentPolicy(kind=kw.get("eviction", "lru"))
    if name == "costgreedy":
        return CostGreedyPolicy()
    raise ValueError(f"unknown policy {name!r}")


# ---------------------------------------------------------------------------
# Flow-level baseline analogues (deterministic, used by experiments)
# ---------------------------------------------------------------------------


def flow_costgreedy(scenario, max_steps=None):
    """Flow-level CostGreedy: add the largest-miss-cost pair each step and
    report the best total cost seen along the trajectory.

    Miss costs are exact expectations: each request stream accumulates, at
    every node it passes uncached, the response-path cost from its serving
    point back to that node.  That is the fixed-routing saved cost over the
    shortest-path next hops at zero-flow prices, zero at cached nodes and
    servers.  At most ``max_steps`` pairs are added (None: up to every
    (node, item) pair; 0 reports the cost without caches).
    """
    top, dem, cost = scenario.topology, scenario.demand, scenario.cost
    inst = FixedRoutingInstance(top, dem, cost, sp_next_hops(top, dem, cost))
    prices = cost.link_deriv(np.zeros(top.num_links))[top.rev]
    cached = np.zeros(dem.server_mask.shape, dtype=bool)
    if max_steps is None:
        max_steps = top.num_nodes * dem.num_items

    def evaluate():
        y = cached.astype(float)
        t, F, Y = inst.flows(y)
        total = float(cost.link_cost(F).sum()) + float(cost.cache_cost(Y).sum())
        return total, inst.saved_cost(y, t, prices) * (1.0 - y)

    best_cost, miss = evaluate()
    best_cached = cached.copy()
    costs = [best_cost]
    for _ in range(max_steps):
        pick = _costgreedy_pick(miss, cached, dem.server_mask)
        if pick is None:
            break
        cached[pick] = True
        total, miss = evaluate()
        costs.append(total)
        if total < best_cost:
            best_cost, best_cached = total, cached.copy()
    best_sets = [set(np.nonzero(col)[0].tolist()) for col in best_cached.T]
    return best_cost, best_sets, costs

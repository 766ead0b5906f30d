"""Simulation policies: the online GP, GCFW+SP, and the baselines
(shortest-path routing with LRU/LFU eviction, Uniform / MinCost cache
deployment, and CostGreedy placement), plus flow-level baseline analogues
used by the experiment driver.
"""

from __future__ import annotations

import numpy as np

from .blocking import dynamic_blocked_sets, static_blocked_sets
from .fixedroute import FixedRoutingInstance, gcfw
from .flow import FlowState, solve_traffic
from .gp import gp_step, shortest_path_strategy, sp_next_hops
from .marginals import compute_marginals
from .rounding import build_bar_map, sample_decision, slot_uniform


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

    def is_hit(self, node, item):
        raise NotImplementedError

    def on_hit(self, node, item):
        pass

    def on_miss(self, node, item):
        pass

    def on_response_pass(self, node, item):
        pass

    def routing_weights(self, node, item):
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

    def setup(self, scenario, sim):
        super().setup(scenario, sim)
        self.strategy = self.initial_strategy(scenario)
        self._rebuild_bar_maps()
        C, V = scenario.demand.num_items, scenario.topology.num_nodes
        self.x = np.zeros((C, V), dtype=np.int8)
        self._theory = None

    def initial_strategy(self, scenario):
        raise NotImplementedError

    def _rebuild_bar_maps(self):
        V = self.scenario.topology.num_nodes
        self.bar_maps = [build_bar_map(self.strategy.y[:, i]) for i in range(V)]
        self._theory = None

    def on_slot(self, period, slot):
        for i in range(self.scenario.topology.num_nodes):
            u = slot_uniform(self.sim.seed, i, period, slot)
            self.x[:, i] = sample_decision(self.bar_maps[i], u)

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

    def cache_occupancy(self):
        return self.x.sum(axis=0).astype(float)

    def theoretical_total(self, scenario):
        if self._theory is None:
            fs = solve_traffic(
                scenario.topology, scenario.demand, self.strategy, scenario.cost
            )
            self._theory = fs.total_cost
        return self._theory


class FrozenStrategyPolicy(RelaxedStrategyPolicy):
    """Realize a fixed relaxed strategy (no updates)."""

    name = "frozen"

    def __init__(self, strategy):
        self._frozen = strategy

    def initial_strategy(self, scenario):
        return self._frozen.copy()


class GPOnlinePolicy(RelaxedStrategyPolicy):
    """Online gradient projection driven by measured flows and arrivals."""

    name = "gp"

    def __init__(self, alpha=0.01, blocked_mode="static", initial=None):
        self.alpha = alpha
        self.blocked_mode = blocked_mode
        self._initial = initial

    def initial_strategy(self, scenario):
        s = (
            self._initial.copy()
            if self._initial is not None
            else shortest_path_strategy(
                scenario.topology, scenario.demand, scenario.cost
            )
        )
        self.blocked = (
            static_blocked_sets(scenario.topology, scenario.demand,
                                cost=scenario.cost)
            if self.blocked_mode == "static"
            else dynamic_blocked_sets(scenario.topology, scenario.demand, s)
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
        scen = self.scenario
        top, dem, cost = scen.topology, scen.demand, scen.cost
        Y = self.strategy.y.sum(axis=0)
        flow = FlowState(
            t=measured_arrivals,
            f=np.zeros_like(self.strategy.phi),
            F=measured_F,
            Y=Y,
            link_cost=float("nan"),
            cache_cost=float("nan"),
            total_cost=float("nan"),
        )
        marg = compute_marginals(top, dem, self.strategy, flow, cost, self.blocked)
        every_pair = np.ones_like(self.strategy.y, dtype=bool)
        gp_step(top, dem, self.strategy, flow, marg, self.blocked, self.alpha,
                every_pair)
        if self.blocked_mode == "dynamic":
            self.blocked = dynamic_blocked_sets(top, dem, self.strategy)
        self._rebuild_bar_maps()
        return dem.num_items * top.num_links


class GcfwSpPolicy(RelaxedStrategyPolicy):
    """Offline GCFW caching over shortest-path routes, realized with DRR."""

    name = "gcfw-sp"

    def __init__(self, N=100):
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

    def failsafe_neighbors(self, node, item):
        return sorted(self.scenario.topology.neighbors[node])


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


class CostGreedyPolicy(SpRoutingMixin, SimPolicy):
    """Greedily pins y_i(k) = 1 for the (node, item) pair with the largest
    single-item miss cost each period."""

    name = "costgreedy"

    def setup(self, scenario, sim):
        super().setup(scenario, sim)
        self._setup_routing(scenario)
        V = scenario.topology.num_nodes
        self.cache_sets = [set() for _ in range(V)]
        self._last_miss = None

    def is_hit(self, node, item):
        return item in self.cache_sets[node]

    def on_update(self, period, measured_F, measured_arrivals):
        cur = self.sim.miss_cost_item.copy()
        delta = cur if self._last_miss is None else cur - self._last_miss
        self._last_miss = cur
        best, best_val = None, 0.0
        C, V = delta.shape
        for i in range(V):
            for k in range(C):
                if k in self.cache_sets[i]:
                    continue
                if i in self.scenario.demand.servers[k]:
                    continue
                if delta[k, i] > best_val:
                    best, best_val = (i, k), delta[k, i]
        if best is not None:
            self.cache_sets[best[0]].add(best[1])
        return 0

    def cache_occupancy(self):
        return np.array([len(s) for s in self.cache_sets], dtype=float)


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
    servers.
    """
    top, dem, cost = scenario.topology, scenario.demand, scenario.cost
    inst = FixedRoutingInstance(top, dem, cost, sp_next_hops(top, dem, cost))
    prices = cost.link_deriv(np.zeros(top.num_links))[top.rev]
    cache_sets = [set() for _ in range(top.num_nodes)]
    max_steps = max_steps or top.num_nodes * dem.num_items

    def evaluate():
        y = np.zeros((dem.num_items, top.num_nodes))
        for i, items in enumerate(cache_sets):
            y[list(items), i] = 1.0
        t, F, Y = inst.flows(y)
        total = float(cost.link_cost(F).sum()) + float(cost.cache_cost(Y).sum())
        return total, inst.saved_cost(y, t, prices) * (1.0 - y)

    best_cost, miss = evaluate()
    best_sets = [set(s) for s in cache_sets]
    costs = [best_cost]
    for _ in range(max_steps):
        cand, cand_val = None, 0.0
        C, V = miss.shape
        for i in range(V):
            for k in range(C):
                if k in cache_sets[i] or i in dem.servers[k]:
                    continue
                if miss[k, i] > cand_val:
                    cand, cand_val = (i, k), miss[k, i]
        if cand is None:
            break
        cache_sets[cand[0]].add(cand[1])
        total, miss = evaluate()
        costs.append(total)
        if total < best_cost:
            best_cost, best_sets = total, [set(s) for s in cache_sets]
    return best_cost, best_sets, costs


def track_costs(run):
    """Align the measured window totals with the policy's theoretical T."""
    return [(r.measured_total, r.theoretical_total) for r in run.records]

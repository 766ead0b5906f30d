"""Shared fixture builders and independent oracles used across the tests."""

import heapq
import math

import numpy as np

from cachenet.blocking import BlockedSets
from cachenet.errors import CacheNetError, DisconnectedDemandError, LoopError
from cachenet.fixedroute import GcfwResult, eval_gain
from cachenet.flow import T_ZERO, Strategy, solve_traffic
from cachenet.marginals import PHI_ACTIVE, compute_marginals
from cachenet.network import (
    CostModel,
    Demand,
    Scenario,
    Topology,
    linear_cache_costs,
    linear_link_costs,
    poly3_link_costs,
    zero_costs,
)
from cachenet.rounding import build_bar_map, sample_decision
from cachenet.scenarios import build_topology, zipf_weights
from cachenet.sim import SimulationRun, Simulator, apportion_tokens


def line_topology(n):
    """Path 0 - 1 - ... - n-1 with symmetric links."""
    links = []
    for i in range(n - 1):
        links += [(i, i + 1), (i + 1, i)]
    return Topology(n, links)


def symmetric_costs(topology, d_by_pair, b_by_node, kind="linear"):
    """Link costs from {frozenset pair: d}; cache costs from per-node b."""
    d = np.array([d_by_pair[frozenset(e)] for e in topology.links])
    link = linear_link_costs(d) if kind == "linear" else poly3_link_costs(d)
    b = np.asarray(b_by_node, dtype=float)
    cache = zero_costs(topology.num_nodes) if (b == 0).all() else linear_cache_costs(b)
    return CostModel(link=link, cache=cache)


def appendix_loop_fixture():
    """Three-node fixture (requester i=0, cache-capable j=1, server s=2).

    Linear marginals d_ij = d_ji = 1 and d_js = d_sj = 5 reconstructed from
    the worked totals 3.0 (loop allowed) and 3.5 (loop-free):
        loop:       F_ij = 1, F_ji = 2  ->  d*(1 + 2) = 3      => d = 1
        loop-free:  F_ji = 1, F_sj = .5 ->  1 + 0.5*d_sj = 3.5 => d_sj = 5
    Node j's caching is free but capped at y_j <= 0.5.
    """
    top = line_topology(3)
    dem = Demand(1, [{2}], np.array([[1.0, 0.0, 0.0]]))
    cost = symmetric_costs(
        top,
        {frozenset((0, 1)): 1.0, frozenset((1, 2)): 5.0},
        [0.0, 0.0, 0.0],
    )
    loop = Strategy.from_dicts(
        top, 1, phi={(0, 1, 0): 1.0, (1, 0, 0): 0.5}, y={(1, 0): 0.5}
    )
    loop_free = Strategy.from_dicts(
        top, 1, phi={(0, 1, 0): 1.0, (1, 2, 0): 0.5}, y={(1, 0): 0.5}
    )
    caps = {(0, 0): 0.0, (1, 0): 0.5}
    return top, dem, cost, loop, loop_free, caps


def random_loopfree_instance(rng, max_nodes=6, max_items=3, interior=True,
                             poly=True):
    """Random small instance with loop-free interior-of-simplex strategy.

    Routing fractions follow a random DAG ordered by node id (i may forward
    only to larger ids or cache), so phi is loop-free by construction; the
    highest node is the designated server for every item.
    """
    n = int(rng.integers(3, max_nodes + 1))
    C = int(rng.integers(1, max_items + 1))
    links = []
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or rng.random() < 0.5:
                links += [(i, j), (j, i)]
    top = Topology(n, links)
    servers = [{n - 1} for _ in range(C)]
    rates = rng.uniform(0.2, 2.0, size=(C, n))
    rates[:, n - 1] = 0.0
    dem = Demand(C, servers, rates)
    d = rng.uniform(0.2, 1.0, size=top.num_links)
    d = (d + d[top.rev]) / 2.0
    link = poly3_link_costs(d) if poly else linear_link_costs(d)
    cost = CostModel(link=link, cache=linear_cache_costs(rng.uniform(0.5, 2.0, n)))

    strat = Strategy(top, C)
    for k in range(C):
        for i in range(n - 1):
            downhill = [e for e in top.out_edges[i] if top.dst[e] > i]
            w = rng.uniform(0.2, 1.0, size=len(downhill) + 1)
            w = w / w.sum()
            if interior:
                y_frac = 0.15 + 0.5 * w[-1]
                strat.y[k, i] = y_frac
                w = w[:-1] / w[:-1].sum() * (1.0 - y_frac)
            else:
                strat.y[k, i] = w[-1]
                w = w[:-1]
            for e, we in zip(downhill, w):
                strat.phi[k, e] = we
    return top, dem, cost, strat


def perturb_pair_cost(topology, demand, strategy, cost, k, e_plus, e_minus, h):
    """T under a conservation-preserving shift of phi mass (oracle helper)."""
    s = strategy.copy()
    s.phi[k, e_plus] += h
    s.phi[k, e_minus] -= h
    return solve_traffic(topology, demand, s, cost).total_cost


def fd_phi_pair(topology, demand, strategy, cost, k, e_plus, e_minus, h=1e-6):
    """Central finite difference of T for a shift between two directions."""
    up = perturb_pair_cost(topology, demand, strategy, cost, k, e_plus, e_minus, h)
    dn = perturb_pair_cost(topology, demand, strategy, cost, k, e_plus, e_minus, -h)
    return (up - dn) / (2 * h)


def is_blocked(blocked, topology, i, j, k):
    """Whether ``blocked`` bars node i from forwarding item k to j (always,
    for a j that is not a neighbour)."""
    e = topology.edge_index.get((i, j))
    return True if e is None else bool(blocked.mask[k, e])


def track_costs(run):
    """Align a simulation run's measured window totals with the policy's
    theoretical T."""
    return [(r.measured_total, r.theoretical_total) for r in run.records]


def save_topology_file(path, topology, d, b=None):
    """Write ``topology`` in the format ``scenarios.load_topology_file``
    reads: per-link d, and per-node cache prices b if given."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"nodes {topology.num_nodes}\n")
        for e, (i, j) in enumerate(topology.links):
            fh.write(f"edge {i} {j} {d[e]:.9g}\n")
        if b is not None:
            for i, bi in enumerate(b):
                fh.write(f"cache {i} {bi:.9g}\n")


def decision_flow_state(scenario, strategy, x):
    """Flows when caches hold the binary decisions x but conditional routing
    is preserved: phi_eff = rho * (1 - x)."""
    C, V = x.shape
    top = scenario.topology
    y = strategy.y
    denom = 1.0 - y[:, top.src]
    phi_eff = np.where(
        denom > 1e-12,
        strategy.phi * (1.0 - x[:, top.src]) / np.maximum(denom, 1e-12),
        0.0,
    )
    eff = Strategy(top, C, phi=phi_eff, y=x.astype(float))
    return solve_traffic(top, scenario.demand, eff, scenario.cost)


def mc_measured_cost_model(scenario, strategy, t_monitor, n_samples, seed):
    """Monte-Carlo model of the per-window measured total cost.

    Resamples the two randomizations a window sees: per-node DRR cache
    decisions and Poisson counting of per-link responses over the window.
    Token forwarding is treated as Poisson splitting (slightly conservative:
    token pools have sub-Poisson variance).  Returns (mean, std) of the
    window cost.
    """
    rng = np.random.default_rng(seed)
    top, cost = scenario.topology, scenario.cost
    V = top.num_nodes
    bar_map = build_bar_map(strategy.y)
    samples = np.empty(n_samples)
    for s in range(n_samples):
        x = sample_decision(bar_map, rng.random(V))
        fs = decision_flow_state(scenario, strategy, x)
        counts = rng.poisson(np.maximum(fs.F, 0.0) * t_monitor)
        F_hat = counts / t_monitor
        link = float(cost.link_cost(F_hat).sum())
        cache = float(cost.cache_cost(x.sum(axis=0).astype(float)).sum())
        samples[s] = link + cache
    return float(samples.mean()), float(samples.std(ddof=1))


# ---------------------------------------------------------------------------
# Loop references for the array forms in cachenet.blocking / gp / marginals
# ---------------------------------------------------------------------------


def reference_dag_levels(topology, active):
    """Compacting form of ``flow.dag_levels``: every round recounts the
    ready pairs' heads over all (item, node) slots with a ``bincount`` and
    compacts all four per-pair arrays to the pairs still waiting."""
    C, E = active.shape
    V = topology.num_nodes
    k, e = np.nonzero(active)
    src = k * V + topology.src[e]
    dst = k * V + topology.dst[e]
    indeg = np.bincount(dst, minlength=C * V)
    groups = []
    ready = indeg[src] == 0
    while ready.any():
        groups.append((k[ready], e[ready], src[ready], dst[ready]))
        indeg -= np.bincount(dst[ready], minlength=C * V)
        rest = ~ready
        k, e, src, dst = k[rest], e[rest], src[rest], dst[rest]
        ready = indeg[src] == 0
    acyclic = np.ones(C, dtype=bool)
    acyclic[k] = False  # links left over lie on or behind a cycle
    levels = []
    for gk, ge, gs, gd in groups:
        keep = acyclic[gk]
        levels.append((ge[keep], gk[keep] * E + ge[keep], gs[keep], gd[keep]))
    return levels, acyclic


def reference_sweep_forward(levels, w, r):
    """The push form of ``flow.sweep_forward``: by source level, each pair
    adds its term at its head, so a node sums its in-links in the order of
    their sources' levels, which depends on the layering; ``w`` weights the
    source grouping (``levels.pair``)."""
    t = np.array(r, dtype=float).ravel()
    for lv in levels.slices:
        np.add.at(t, levels.dst[lv], w[lv] * t[levels.src[lv]])
    return t.reshape(np.shape(r))


def topological_order(topology, active_out, ahead=()):
    """Deterministic topological order of the positive-edge subgraph.

    active_out[i] yields the active out-neighbors of i.  Nodes touching at
    least one active edge are Kahn-sorted (among ready nodes, those in
    ``ahead`` first, then lowest id first); nodes with no active incidence
    are appended in id order.  Returns None if the subgraph has a cycle.
    """
    n = topology.num_nodes
    indeg = [0] * n
    incident = [False] * n
    for i in range(n):
        for j in active_out(i):
            indeg[j] += 1
            incident[i] = incident[j] = True
    ready = [(i not in ahead, i) for i in range(n)
             if incident[i] and indeg[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(i)
        for j in active_out(i):
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, (j not in ahead, j))
    if len(order) != sum(incident):
        return None  # cycle among incident nodes
    order.extend(i for i in range(n) if not incident[i])
    return order


def reference_dynamic_blocked_sets(topology, demand, strategy, t=None):
    """Loop form of ``blocking.dynamic_blocked_sets``: one heap-based Kahn
    sort per item, and given ``t`` a second one for an item with stranded
    nodes, taking them and their positive-phi ancestors first (found by a
    search up the active links)."""
    C, V = demand.num_items, topology.num_nodes
    phi = strategy.phi
    mask = np.ones((C, topology.num_links), dtype=bool)
    for k in range(C):

        def active_out(i, k=k):
            return [
                topology.dst[e]
                for e in topology.out_edges[i]
                if phi[k, e] > PHI_ACTIVE
            ]

        def blocked_by(order):
            pos = np.empty(V, dtype=np.intp)
            pos[order] = np.arange(V)
            return pos[topology.dst] < pos[topology.src]

        order = topological_order(topology, active_out)
        if order is None:
            raise LoopError(f"loop in routing strategy for item {k}")
        mask[k] = blocked_by(order)
        if t is None:
            continue
        stranded = [
            i for i in range(V)
            if i not in demand.servers[k] and t[k, i] <= T_ZERO
            and strategy.y[k, i] > 0
            and all(mask[k, e] for e in topology.out_edges[i])
        ]
        if not stranded:
            continue
        ahead, stack = set(), list(stranded)
        while stack:
            j = stack.pop()
            if j not in ahead:
                ahead.add(j)
                stack += [i for i in range(V) if j in active_out(i)]
        mask[k] = blocked_by(topological_order(topology, active_out, ahead))
    return BlockedSets(mode="dynamic", mask=mask)


def reference_count_async_messages(topology, demand, strategy, blocked, node):
    """Loop form of ``gp.count_async_messages``: a per-item set search from
    the updater's unblocked neighbors along the positive-phi links."""
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


def _reference_pair_update(i, k, topology, strategy, flow, marg, blocked, alpha):
    """(delta_phi dict, delta_y) of one (node, item) update, or None."""
    out = topology.out_edges[i]
    unblocked = [e for e in out if not blocked.mask[k, e]]
    if not unblocked:
        return None
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
            return dphi, -y
        return None

    delta_vals = {e: marg.delta_link[k, e] for e in unblocked}
    d_cache = marg.delta_cache[k, i]
    d_min = min(min(delta_vals.values()), d_cache)
    e_route = {e: dv - d_min for e, dv in delta_vals.items()}
    e_cache = d_cache - d_min

    receivers = [e for e, ex in e_route.items() if ex == 0.0]
    n = len(receivers) + (1 if e_cache == 0.0 else 0)
    if n == 0:
        raise CacheNetError(f"no minimum-marginal direction at node {i}, item {k}")
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
        dy = -min(y, alpha * e_cache)
        moved += -dy
    if moved > 0.0:
        share = moved / n
        for e in receivers:
            dphi[e] = dphi.get(e, 0.0) + share
        if e_cache == 0.0:
            dy += share
    return (dphi, dy) if dphi or dy else None


def reference_gp_step(topology, demand, strategy, flow, marg, blocked, alpha,
                      pairs):
    """Loop form of ``gp.gp_step``: every selected non-server pair's update
    is computed from the current point, then all are applied (clipped)."""
    updates = []
    for i in range(topology.num_nodes):
        for k in np.nonzero(pairs[:, i])[0]:
            if i in demand.servers[k]:
                continue
            upd = _reference_pair_update(i, k, topology, strategy, flow, marg,
                                         blocked, alpha)
            if upd is not None:
                updates.append((i, k, *upd))
    for i, k, dphi, dy in updates:
        for e, d in dphi.items():
            strategy.phi[k, e] = min(1.0, max(0.0, strategy.phi[k, e] + d))
        strategy.y[k, i] = min(1.0, max(0.0, strategy.y[k, i] + dy))


def reference_residuals(topology, demand, strategy, flow, marg, blocked=None,
                        cache_caps=None, per_pair=False):
    """Loop form of the modified-condition residuals with a cap table;
    returns (worst, delta_used), or with ``per_pair`` the (items, nodes)
    worst of each pair's conditions in place of worst."""
    blocked_mask = blocked.mask if blocked is not None else None
    pair_worst = np.zeros((demand.num_items, topology.num_nodes))
    delta_used = np.array(marg.delta_min, copy=True)
    for k in range(demand.num_items):
        for i in range(topology.num_nodes):
            if i in demand.servers[k]:
                continue
            ti = flow.t[k, i]
            y_ = strategy.y[k, i]
            cap = None if cache_caps is None else cache_caps.get((i, k))
            capped = cap is not None and y_ >= cap - 1e-12
            edges = [
                e for e in topology.out_edges[i]
                if blocked_mask is None or not blocked_mask[k, e]
            ]
            cands = [marg.delta_link[k, e] for e in edges]
            if not capped:
                cands.append(marg.delta_cache[k, i])
            if not cands:
                continue
            delta = min(cands)
            delta_used[k, i] = delta
            scale = max(1.0, ti)

            # the condition forces y = 0 where t = 0
            if ti <= T_ZERO and y_ > 0 and not capped:
                pair_worst[k, i] = max(pair_worst[k, i], y_)
            else:
                gap = marg.cache_deriv[i] - (0.0 if delta == np.inf else ti * delta)
                if capped:
                    resid = max(0.0, gap / scale)
                elif y_ > 0:
                    resid = abs(gap) / scale
                else:
                    resid = max(0.0, -gap / scale)
                pair_worst[k, i] = max(pair_worst[k, i], resid)

            for e in edges:
                dv = marg.delta_link[k, e]
                if strategy.phi[k, e] > PHI_ACTIVE:
                    resid = abs(dv - delta)
                else:
                    resid = max(0.0, delta - dv)
                pair_worst[k, i] = max(pair_worst[k, i], resid)
            if blocked_mask is not None:
                for e in topology.out_edges[i]:
                    if blocked_mask[k, e] and strategy.phi[k, e] > PHI_ACTIVE:
                        pair_worst[k, i] = max(pair_worst[k, i], strategy.phi[k, e])
    return (pair_worst if per_pair else float(pair_worst.max(initial=0.0)),
            delta_used)


def reference_kkt(topology, demand, strategy, cost, tol=1e-6, flow=None,
                  marg=None):
    """Loop form of ``marginals.check_kkt``; returns (multipliers, worst,
    violations)."""
    if flow is None:
        flow = solve_traffic(topology, demand, strategy, cost)
    if marg is None:
        marg = compute_marginals(topology, demand, strategy, flow, cost)
    C, V = demand.num_items, topology.num_nodes
    lam = np.zeros((C, V))
    violations = []
    for k in range(C):
        for i in range(V):
            if i in demand.servers[k]:
                continue
            ti = flow.t[k, i]
            route_vals = [
                (ti * marg.delta_link[k, e], e) for e in topology.out_edges[i]
            ]
            lam_ik = min(
                [marg.cache_deriv[i]] + [v for v, _ in route_vals]
            )
            lam[k, i] = lam_ik
            y_ = strategy.y[k, i]
            if y_ > 0:
                resid = abs(marg.cache_deriv[i] - lam_ik)
            else:
                resid = max(0.0, lam_ik - marg.cache_deriv[i])
            if resid > tol:
                violations.append((("cache", i, k), float(resid)))
            for v, e in route_vals:
                if strategy.phi[k, e] > PHI_ACTIVE:
                    resid = abs(v - lam_ik)
                else:
                    resid = max(0.0, lam_ik - v)
                if resid > tol:
                    violations.append((("route", topology.links[e], k), float(resid)))
    worst = max((m for _, m in violations), default=0.0)
    return lam, worst, violations


def reference_server_distances(topology, demand, weights):
    """Loop form of ``blocking.server_distances``: one multi-source heap
    Dijkstra per item."""
    C, V = demand.num_items, topology.num_nodes
    dist = np.full((C, V), np.inf)
    for k in range(C):
        heap = [(0.0, s) for s in sorted(demand.servers[k])]
        heapq.heapify(heap)
        dk = dist[k]
        for _, s in heap:
            dk[s] = 0.0
        while heap:
            d, i = heapq.heappop(heap)
            if d > dk[i]:
                continue
            for e in topology.out_edges[i]:
                j = topology.dst[e]
                w = weights[e]
                if d + w < dk[j]:
                    dk[j] = d + w
                    heapq.heappush(heap, (d + w, j))
        if not np.isfinite(dk).all():
            missing = [i for i in range(V) if not np.isfinite(dk[i])]
            raise DisconnectedDemandError(
                f"nodes {missing} cannot reach a server of item {k}"
            )
    return dist


def reference_zero_flow_keys(topology, demand, cost):
    """Per item, the (distance, hops, id) key of every node at the zero-flow
    marginals: a BFS from the servers over the shortest-distance links for
    the hop counts.  Returns (weights, dist, keys)."""
    weights = cost.link_deriv(np.zeros(topology.num_links))
    dist = reference_server_distances(topology, demand, weights)
    V = topology.num_nodes
    keys = []
    for k in range(demand.num_items):
        # j's response may come over (i, j) on a shortest path iff
        # dist_i + w(i, j) == dist_j
        hops = [None] * V
        queue = sorted(demand.servers[k])
        for s in queue:
            hops[s] = 0
        for i in queue:     # grows while it is walked: a BFS
            for e in topology.out_edges[i]:
                j = topology.dst[e]
                if hops[j] is None and dist[k, i] + weights[e] == dist[k, j]:
                    hops[j] = hops[i] + 1
                    queue.append(j)
        keys.append([(dist[k, i], hops[i], i) for i in range(V)])
    return weights, dist, keys


def reference_static_blocked_sets(topology, demand, cost):
    """Loop form of ``blocking.static_blocked_sets``: a (distance, hops, id)
    comparison per link with the keys of ``reference_zero_flow_keys``, and
    a reachability search backwards from the servers."""
    _, _, keys = reference_zero_flow_keys(topology, demand, cost)
    C, V = demand.num_items, topology.num_nodes
    src, dst = topology.src, topology.dst
    mask = np.ones((C, topology.num_links), dtype=bool)
    for k in range(C):
        key = keys[k]
        for e in range(topology.num_links):
            mask[k, e] = not key[dst[e]] < key[src[e]]
    for k in range(C):
        reached = [False] * V
        stack = list(demand.servers[k])
        for s in stack:
            reached[s] = True
        # walk unblocked links backwards: i reaches a server via (i, j) if j does
        in_by_dst = [[] for _ in range(V)]
        for e in range(topology.num_links):
            if not mask[k, e]:
                in_by_dst[dst[e]].append(src[e])
        while stack:
            j = stack.pop()
            for i in in_by_dst[j]:
                if not reached[i]:
                    reached[i] = True
                    stack.append(i)
        if not all(reached):
            missing = [i for i in range(V) if not reached[i]]
            raise DisconnectedDemandError(
                f"nodes {missing} have no unblocked path to a server of item {k}"
            )
    return BlockedSets(mode="static", mask=mask)


def reference_shortest_path_strategy(topology, demand, cost):
    """Loop form of ``gp.shortest_path_strategy``: a scan of each non-server
    (item, node)'s out-links."""
    weights = cost.link_deriv(np.zeros(topology.num_links))
    dist = reference_server_distances(topology, demand, weights)
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
                    abs(val - best_val) <= 1e-15
                    and (best is None or j < topology.dst[best])
                ):
                    best, best_val = e, val
            strat.phi[k, best] = 1.0
    return strat


def reference_tight_shortest_path_strategy(topology, demand, cost):
    """Loop form of the rule of ``blocking.sp_next_links``: each non-server
    node i forwards to its lowest-id neighbour j with dist_j + w_ji ==
    dist_i and key_j < key_i, keys from ``reference_zero_flow_keys``.  On
    the presets it gives the same strategy as the per-pair scan of
    ``reference_shortest_path_strategy``; it differs where zero-weight links
    tie distances."""
    weights, dist, keys = reference_zero_flow_keys(topology, demand, cost)
    strat = Strategy(topology, demand.num_items)
    for k in range(demand.num_items):
        for i in range(topology.num_nodes):
            if i in demand.servers[k]:
                continue
            for e in topology.out_edges[i]:     # in neighbour id order
                j = topology.dst[e]
                if (dist[k, j] + weights[topology.rev[e]] == dist[k, i]
                        and keys[k][j] < keys[k][i]):
                    strat.phi[k, e] = 1.0
                    break
    return strat


def reference_sp_next_hops(topology, demand, cost,
                           reference=reference_shortest_path_strategy):
    """Loop form of ``gp.sp_next_hops``: rescans a reference strategy."""
    strat = reference(topology, demand, cost)
    nh = {}
    for k in range(demand.num_items):
        for i in range(topology.num_nodes):
            if i in demand.servers[k]:
                continue
            for e in topology.out_edges[i]:
                if strat.phi[k, e] > 0:
                    nh[(i, k)] = int(topology.dst[e])
    return nh


def reference_validate_strategy(topology, demand, strategy, tol=1e-9):
    """Loop form of ``flow.validate_strategy``; returns (passed, worst,
    violations)."""
    phi, y = strategy.phi, strategy.y
    violations = []
    for arr, name in ((phi, "phi"), (y, "y")):
        low = np.minimum(arr, 0.0)
        high = np.maximum(arr - 1.0, 0.0)
        for k, idx in zip(*np.nonzero((low < -tol) | (high > tol))):
            mag = max(-low[k, idx], high[k, idx])
            violations.append(("box", (name, int(idx), int(k)), float(mag)))
    out_sum = np.zeros_like(y)
    for e in range(topology.num_links):
        out_sum[:, topology.src[e]] += phi[:, e]
    total = out_sum + y
    for k in range(demand.num_items):
        for i in range(topology.num_nodes):
            if i in demand.servers[k]:
                # servers are forced to y = 0 and no forwarding
                if y[k, i] > tol:
                    violations.append(("server_cache", (i, k), float(y[k, i])))
                if out_sum[k, i] > tol:
                    violations.append(("server_forward", (i, k), float(out_sum[k, i])))
            else:
                err = abs(total[k, i] - 1.0)
                if err > tol:
                    violations.append(("conservation", (i, k), float(err)))
    worst = max((m for _, _, m in violations), default=0.0)
    return worst <= tol, worst, violations


def reference_costgreedy_pick(miss, cached, servers):
    """Loop form of ``policies._costgreedy_pick``: node-major scan for the
    first strict maximum above 0."""
    best, best_val = None, 0.0
    C, V = miss.shape
    for i in range(V):
        for k in range(C):
            if cached[k, i] or servers[k, i]:
                continue
            if miss[k, i] > best_val:
                best, best_val = (k, i), miss[k, i]
    return best


def reference_saved_cost(instance, y, t, prices):
    """``FixedRoutingInstance.saved_cost`` with its own reverse sweep, which
    adds each level's terms with ``np.add.at`` where the instance's sweep
    scatters them."""
    y = np.asarray(y, dtype=float)
    levels = instance._levels
    src, dst = levels.src, levels.dst
    w = 1.0 - y.ravel()[src]
    p = prices[levels.link]
    g = np.zeros(t.size)
    for lv in reversed(levels.slices):
        np.add.at(g, src[lv], w[lv] * (p[lv] + g[dst[lv]]))
    out = np.zeros(t.shape)
    out.ravel()[src] = t.ravel()[src] * (p + g[dst])
    return out


def batch_gains(instance, ys):
    """``fixedroute.eval_gain(instance, y).G`` of every y in ``ys``
    (B, num_items, num_nodes) in one pass: the instance's flows and costs
    operation for operation, each array with the batch on a leading axis."""
    top, levels, cost = instance.topology, instance._levels, instance.cost
    src, dst = levels.in_src, levels.in_dst
    B, C, V = ys.shape
    w = 1.0 - ys.reshape(B, C * V)[:, src]
    t = np.tile(instance.demand.rates.ravel(), (B, 1))
    for lv in levels.in_slices:
        np.add.at(t, (slice(None), dst[lv]), w[:, lv] * t[:, src[lv]])
    # one bincount whose bins are (batch, response link): each bin sums its
    # terms in pair order, as ``flows`` does
    E = top.num_links
    resp = np.arange(B)[:, None] * E + instance._resp
    F = np.bincount(resp.ravel(), (t[:, src] * w).ravel(),
                    minlength=B * E).reshape(B, E)
    Y = np.clip(ys, 0.0, None).sum(axis=1)
    A = instance.baseline_cost() - cost.link_cost(F).sum(axis=1)
    return A - cost.cache_cost(Y).sum(axis=1)


def reference_gcfw(instance, N):
    """The loop form of ``fixedroute.gcfw``: every gain and every gradient
    computes the flows of its iterate anew (two forward sweeps per
    iteration), and the gradient's reverse sweep is ``reference_saved_cost``.
    """
    C, V = instance.demand.num_items, instance.topology.num_nodes
    cost, rev = instance.cost, instance.topology.rev
    eps2 = float(N) ** (-2.0 / 3.0)
    y = np.zeros((C, V))
    best_y, best = y.copy(), eval_gain(instance, y)
    history = [best.G]
    best_iter = 0
    for n in range(N):
        t, F, Y = instance.flows(y)
        gA = reference_saved_cost(instance, y, t, cost.link_deriv(F)[rev])
        gB = np.broadcast_to(cost.cache_deriv(Y), gA.shape)
        s = ((gA - 2.0 * gB) > 0).astype(float)
        s[instance.demand.server_mask] = 0.0
        y = (1.0 - eps2) * y + eps2 * s
        g = eval_gain(instance, y)
        history.append(g.G)
        if g.G > best.G:
            best, best_y, best_iter = g, y.copy(), n + 1
    return GcfwResult(y=best_y, gain=best, history=history, best_iter=best_iter)


GEN, REQ, RESP = 0, 1, 2


class ReferenceSimulator(Simulator):
    """The event-queue form of ``Simulator.run``: every request arrival,
    request hop and response hop is its own heap event, ``hop_latency``
    apart, and each (node, item) stream draws its own exponential gaps.
    Window and slot boundaries are processed when the first event past them
    is popped.  It shares the boundary code and token pools with the
    request-atomic walk it is tested against."""

    def run(self):
        sched = self.schedule
        scen = self.scenario
        top, dem = scen.topology, scen.demand
        heap = []
        seq = 0
        for k in range(dem.num_items):
            for i in range(top.num_nodes):
                r = dem.rates[k, i]
                if r > 0:
                    t0 = self.rng.exponential(1.0 / r)
                    heapq.heappush(heap, (t0, seq, GEN, i, k, None))
                    seq += 1

        horizon = sched.periods * sched.slots_per_period * sched.t_slot
        # the run ends with its last whole window
        n_windows = math.floor(horizon / sched.t_monitor + 1e-9)
        self.policy.setup(scen, self)
        self.policy.on_slot(0, 0)

        while heap:
            time, _, kind, a, b, c = heap[0]
            if time >= horizon:
                break
            while time >= min(self.window_end, self.slot_end):
                if self.window_end <= self.slot_end:
                    self._flush_window()
                    if self.window_idx >= n_windows:
                        break
                else:
                    self.slot_idx += 1
                    self._slot_boundary(self.slot_idx)
                    self.slot_end = (self.slot_idx + 1) * sched.t_slot
            if self.window_idx >= n_windows:
                break
            heapq.heappop(heap)

            if kind == GEN:
                i, k = a, b
                self.requests_issued += 1
                nxt = time + self.rng.exponential(1.0 / dem.rates[k, i])
                heapq.heappush(heap, (nxt, seq, GEN, i, k, None))
                seq += 1
                self._handle_request(heap, seq, time, k, [i])
                seq += 1
            elif kind == REQ:
                self._handle_request(heap, seq, time, a, b)
                seq += 1
            else:
                k, path = a, b
                pos, cum = c
                self._count_response_hop(k, path, pos, cum, heap, seq, time)
                seq += 1

        in_flight = sum(1 for ev in heap if ev[2] != GEN)
        while self.window_idx < n_windows:
            self._flush_window()
        return SimulationRun(
            records=self.records,
            policy=self.policy,
            requests_issued=self.requests_issued,
            responses_delivered=self.responses_delivered,
            in_flight=in_flight,
            unroutable_total=self.unroutable_total,
            miss_cost=self.miss_cost,
            miss_cost_item=self.miss_cost_item,
        )

    def _handle_request(self, heap, seq, time, k, path):
        dem = self.scenario.demand
        node = path[-1]
        if self.measure_active:
            self.period_arrivals[k, node] += 1
        if self.policy.is_hit(node, k) or node in dem.servers[k]:
            self.policy.on_hit(node, k)
            self._start_response(heap, seq, time, k, path)
            return
        hop = self.token_forward(node, k)
        if hop is None:
            self.window_unroutable += 1
            self.unroutable_total += 1
            hop = self._failsafe_hop(node, k)
            if hop is None:
                return
        path.append(hop)
        heapq.heappush(
            heap, (time + self.schedule.hop_latency, seq, REQ, k, path, None)
        )

    def _start_response(self, heap, seq, time, k, path):
        if len(path) == 1:
            self.responses_delivered += 1
            return
        pos = len(path) - 1
        heapq.heappush(
            heap,
            (time + self.schedule.hop_latency, seq, RESP, k, path, (pos - 1, 0.0)),
        )

    def _count_response_hop(self, k, path, pos, cum, heap, seq, time):
        top = self.scenario.topology
        e = top.edge_index[(path[pos + 1], path[pos])]
        self.window_counts[e] += 1
        if self.measure_active:
            self.period_counts[e] += 1
        cum += self.d_weights[e]
        node = path[pos]
        self.miss_cost[node] += cum
        self.miss_cost_item[k, node] += cum
        self.policy.on_response_pass(node, k)
        if pos == 0:
            self.responses_delivered += 1
            return
        heapq.heappush(
            heap,
            (time + self.schedule.hop_latency, seq, RESP, k, path, (pos - 1, cum)),
        )


def reference_run_simulation(scenario, policy, schedule, seed,
                             keep_flow_samples=False):
    """``run_simulation`` on the event-queue reference simulator."""
    sim = ReferenceSimulator(scenario, policy, schedule, seed,
                             keep_flow_samples=keep_flow_samples)
    return sim.run()


class ParentTokenPool:
    """The flagged token pool the list-backed pools replace: a refill with
    two or more next hops is shuffled on its first draw."""

    __slots__ = ("tokens", "shuffled")

    def __init__(self):
        self.tokens = []
        self.shuffled = True

    def draw(self, rng):
        toks = self.tokens
        if not toks:
            return None
        if not self.shuffled:
            rng.shuffle(toks)
            self.shuffled = True
        return toks.pop()

    def refill(self, counts):
        toks = []
        for j in sorted(counts):
            toks.extend([j] * counts[j])
        self.tokens = toks
        self.shuffled = len(counts) < 2


class ParentWalkSimulator(Simulator):
    """The request-atomic walk before its per-hop tables:
    ``ParentTokenPool``s keyed by (node, item) tuples and each response link
    looked up as ``edge_index[(nxt, node)]``.  Same rng calls, so it must
    reproduce ``Simulator``'s request-atomic walk bit for bit."""

    def token_forward(self, node, item):
        pool = self.pools.get((node, item))
        if pool is None:
            pool = ParentTokenPool()
            self.pools[(node, item)] = pool
        hop = pool.draw(self.rng)
        if hop is not None:
            return hop
        counts = apportion_tokens(self.policy.routing_weights(node, item))
        if not counts:
            return None
        pool.refill(counts)
        return pool.draw(self.rng)

    def _walker(self):
        top, dem = self.scenario.topology, self.scenario.demand
        V = top.num_nodes
        policy = self.policy
        is_hit, on_hit = policy.is_hit, policy.on_hit
        on_response_pass = policy.on_response_pass
        token_forward = self.token_forward
        servers = dem.servers
        edge_index = top.edge_index
        d = self.d_weights.tolist()
        lat, stop = self.schedule.hop_latency, self.stop
        n_visits, n_responses = self.n_visits, self.n_responses
        visits, links, paid, lost = self.visits, self.links, self.paid, self.lost

        def walk(t0, k, node, safe):
            path = [node]
            hops = []
            h = 0
            while True:
                if h > safe and t0 + h * lat >= stop:
                    self.in_flight += 1
                    n_visits.append(h)
                    n_responses.append(0)
                    return
                visits.append(k * V + node)
                if is_hit(node, k) or node in servers[k]:
                    on_hit(node, k)
                    break
                nxt = token_forward(node, k)
                if nxt is None:
                    self.unroutable_total += 1
                    lost.append(t0 + h * lat)
                    nxt = self._failsafe_hop(node, k)
                    if nxt is None:
                        n_visits.append(h + 1)
                        n_responses.append(0)
                        return
                hops.append(edge_index[(nxt, node)])
                path.append(nxt)
                node = nxt
                h += 1
            n = 0
            while n < h and t0 + (h + n + 1) * lat < stop:
                n += 1
            cum = 0.0
            for pos in range(h - 1, h - 1 - n, -1):
                e = hops[pos]
                node = path[pos]
                cum += d[e]
                links.append(e)
                paid.append(cum)
                on_response_pass(node, k)
            n_visits.append(h + 1)
            n_responses.append(n)
            if n < h:
                self.in_flight += 1
            else:
                self.responses_delivered += 1

        return walk


def reference_bar_intervals(y):
    """Interval loop form of ``rounding.build_bar_map`` for one node: per
    item, its (line, start, end) half-open spans."""
    intervals = []
    offset = 0.0
    for k in range(len(y)):
        spans = []
        length = float(y[k])
        if length > 0:
            start = offset
            end = offset + length
            line = int(np.floor(start + 1e-12))
            s_local = start - line
            e_local = end - line
            if e_local <= 1.0 + 1e-12:
                spans.append((line, s_local, min(e_local, 1.0)))
            else:
                spans.append((line, s_local, 1.0))
                spans.append((line + 1, 0.0, e_local - 1.0))
        offset += length
        intervals.append(tuple(spans))
    return tuple(intervals)


def reference_bar_decision(y, u):
    """Loop form of ``rounding.sample_decision`` for one node: x[k] = 1 iff
    one of item k's spans holds u (position 1 wraps to 0)."""
    if u == 1.0:
        u = 0.0
    x = np.zeros(len(y), dtype=np.int8)
    for k, spans in enumerate(reference_bar_intervals(y)):
        x[k] = any(start <= u < end for _, start, end in spans)
    return x


def reference_generate_scenario(spec, seed):
    """``scenarios.generate_scenario`` with one ``rng.choice(C, p=weights)``
    call per drawn request, as it was first written."""
    rng = np.random.default_rng(seed)
    top, file_d, file_b = build_topology(spec, rng)
    n, C, R = top.num_nodes, int(spec.catalog), int(spec.requests)
    servers = [{int(rng.integers(n))} for _ in range(C)]
    weights = zipf_weights(C, spec.zipf)
    rates = np.zeros((C, n))
    chosen = set()
    while len(chosen) < R:
        i = int(rng.integers(n))
        k = int(rng.choice(C, p=weights))
        if (i, k) in chosen or i in servers[k]:
            continue
        chosen.add((i, k))
        rates[k, i] = rng.uniform(*spec.rate_range)
    dem = Demand(C, servers, rates)
    if file_d is not None:
        d = file_d
    else:
        lo, hi = spec.link_cost_range
        pair_d = {}
        d = np.empty(top.num_links)
        for e, (i, j) in enumerate(top.links):
            key = frozenset((i, j))
            if key not in pair_d:
                pair_d[key] = float(rng.uniform(lo, hi))
            d[e] = pair_d[key]
    link = poly3_link_costs(d) if spec.link_cost_kind == "poly3" else linear_link_costs(d)
    b = file_b if file_b is not None else rng.uniform(*spec.cache_price_range, size=n)
    cost = CostModel(link=link, cache=linear_cache_costs(b))
    return Scenario(
        topology=top, demand=dem, cost=cost, name=spec.name or spec.topology,
        meta={"seed": int(seed), "link_d": d, "cache_b": np.asarray(b, float)},
    )

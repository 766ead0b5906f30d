"""Shared fixture builders and independent oracles used across the tests."""

import numpy as np

from cachenet.errors import CacheNetError
from cachenet.flow import T_ZERO, Strategy, solve_traffic
from cachenet.marginals import PHI_ACTIVE
from cachenet.network import (
    CostModel,
    Demand,
    Topology,
    linear_cache_costs,
    linear_link_costs,
    poly3_link_costs,
    zero_costs,
)


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


# ---------------------------------------------------------------------------
# Per-pair loop references for the array forms in cachenet.gp / marginals
# ---------------------------------------------------------------------------


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
                        cache_caps=None):
    """Loop form of the modified-condition residuals with a cap table;
    returns (worst, delta_used)."""
    blocked_mask = blocked.mask if blocked is not None else None
    worst = 0.0
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
                worst = max(worst, y_)
            else:
                gap = marg.cache_deriv[i] - (0.0 if delta == np.inf else ti * delta)
                if capped:
                    resid = max(0.0, gap / scale)
                elif y_ > 0:
                    resid = abs(gap) / scale
                else:
                    resid = max(0.0, -gap / scale)
                worst = max(worst, resid)

            for e in edges:
                dv = marg.delta_link[k, e]
                if strategy.phi[k, e] > PHI_ACTIVE:
                    resid = abs(dv - delta)
                else:
                    resid = max(0.0, delta - dv)
                worst = max(worst, resid)
            if blocked_mask is not None:
                for e in topology.out_edges[i]:
                    if blocked_mask[k, e] and strategy.phi[k, e] > PHI_ACTIVE:
                        worst = max(worst, strategy.phi[k, e])
    return worst, delta_used

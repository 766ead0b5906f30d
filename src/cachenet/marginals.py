"""Marginal costs and optimality-condition residuals.

dT/dr_i(k) is the marginal total cost for node i to handle a unit rate
increment of item-k requests; it satisfies the upstream recursion

    dT/dr_i(k) = sum_j phi_ij(k) * (D'_ji(F_ji) + dT/dr_j(k))

and is zero at designated servers and fully-caching nodes.  From it derive
the per-direction marginals: delta_ij(k) for forwarding to neighbor j,
delta_i0(k) = B'_i(Y_i)/t_i(k) for absorbing via the local cache (infinite
when t_i(k) = 0), and their minimum delta_i(k).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flow import T_ZERO, dag_levels, solve_dense, solve_traffic, sweep_reverse

PHI_ACTIVE = 1e-12  # routing fractions above this count as active directions


@dataclass
class MarginalState:
    """dT/dr plus the per-direction marginals delta.

    dTdr[k, i]       : dT/dr_i(k)
    delta_link[k, e] : delta_ij(k) for link e = (i, j)
    delta_cache[k,i] : delta_i0(k), +inf where t_i(k) = 0
    delta_min[k, i]  : delta_i(k), min over the cache direction and the
                       (unblocked) neighbors
    acyclic[k]       : whether item k's positive-phi subgraph was acyclic
                       (reverse sweep) or needed the dense solve
    """

    dTdr: np.ndarray
    delta_link: np.ndarray
    delta_cache: np.ndarray
    delta_min: np.ndarray
    link_deriv: np.ndarray
    cache_deriv: np.ndarray
    acyclic: np.ndarray = None


def compute_marginals(topology, demand, strategy, flow, cost, blocked=None):
    """Compute dT/dr and the delta marginals for every (node, item).

    The recursion runs over the links with phi > PHI_ACTIVE.  Items whose
    active subgraph is acyclic are evaluated by one reverse sweep over its
    levels (the broadcast order used by the online algorithm: each node
    sums phi * (D' + dT/dr) over its out-links in link order); items with a
    cycle fall back to the transposed dense solve.  When ``blocked`` is
    given, delta_min minimizes only over unblocked neighbors.
    """
    V, C = topology.num_nodes, demand.num_items
    phi = strategy.phi
    Dp = cost.link_deriv(flow.F)          # D'_ij(F_ij) per link
    Bp = cost.cache_deriv(flow.Y)         # B'_i(Y_i) per node
    # cost of forwarding over edge e=(i,j): response returns on rev(e)
    resp_deriv = Dp[topology.rev]

    levels, acyclic = dag_levels(topology, phi > PHI_ACTIVE)
    dTdr = sweep_reverse(levels, phi, resp_deriv, V)
    cyclic = ~acyclic
    if cyclic.any():
        phi_c = phi[cyclic]
        c = np.zeros((V, len(phi_c)))
        np.add.at(c, topology.src, (phi_c * resp_deriv).T)
        dTdr[cyclic] = solve_dense(topology, phi_c, c.T, transpose=True)

    delta_link = resp_deriv[None, :] + dTdr[:, topology.dst]
    with np.errstate(divide="ignore"):
        delta_cache = np.where(flow.t > T_ZERO, Bp[None, :] / np.maximum(flow.t, T_ZERO), np.inf)

    blocked_mask = blocked.mask if blocked is not None else None
    dl = delta_link if blocked_mask is None else np.where(blocked_mask, np.inf, delta_link)
    delta_min = np.full((C, V), np.inf)
    np.minimum.at(delta_min.T, topology.src, dl.T)
    delta_min = np.minimum(delta_min, delta_cache)

    return MarginalState(
        dTdr=dTdr,
        delta_link=delta_link,
        delta_cache=delta_cache,
        delta_min=delta_min,
        link_deriv=Dp,
        cache_deriv=Bp,
        acyclic=acyclic,
    )


# ---------------------------------------------------------------------------
# Optimality-condition residuals
# ---------------------------------------------------------------------------


@dataclass
class ConditionReport:
    """Residuals of the KKT or of the modified optimality condition."""

    kind: str                       # "kkt" | "modified"
    multipliers: np.ndarray         # lambda_ik (kkt) or delta_i(k) (modified)
    worst: float
    violations: list = field(default_factory=list)  # (location, magnitude)
    tol: float = 0.0
    passed: bool = False


def check_kkt(topology, demand, strategy, cost, tol=1e-6, flow=None, marg=None):
    """Residuals of the KKT necessary condition.

    Active directions (phi > 0 or y > 0) must attain the multiplier
    lambda_ik = min(B'_i, min_j t_i (D'_ji + dT/dr_j)); inactive directions
    must be >= lambda_ik - tol.
    """
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
    return ConditionReport(
        kind="kkt", multipliers=lam, worst=worst,
        violations=violations, tol=tol, passed=worst <= tol,
    )


def server_mask(topology, demand):
    mask = np.zeros((demand.num_items, topology.num_nodes), dtype=bool)
    for k in range(demand.num_items):
        for s in demand.servers[k]:
            mask[k, s] = True
    return mask


def vectorized_residuals(topology, demand, strategy, flow, marg, blocked=None,
                         servers=None, cache_caps=None):
    """All modified-condition residual arrays at once.

    Returns (pair_resid, parts, delta) where pair_resid[k, i] is the worst
    residual attributable to node i's item-k conditions, parts is a dict of
    the raw per-edge / per-pair arrays used to itemize violations, and delta
    the minimum each pair's conditions are measured against.
    ``cache_caps`` maps (i, k) to an upper bound on y_i(k) (evaluation
    fixtures): a pair at its cap excludes the cache from its minimum (delta
    is the least unblocked link marginal, and a capped pair without an
    unblocked link has no condition) and only requires B' <= t * delta.
    """
    C, V = demand.num_items, topology.num_nodes
    src = topology.src
    phi, y, t = strategy.phi, strategy.y, flow.t
    if servers is None:
        servers = server_mask(topology, demand)
    blocked_mask = blocked.mask if blocked is not None else None
    unblocked = (
        np.ones_like(phi, dtype=bool) if blocked_mask is None else ~blocked_mask
    )
    conds = ~servers                      # pairs that carry conditions
    delta = marg.delta_min
    capped = np.zeros((C, V), dtype=bool)
    if cache_caps:
        cap = np.full((C, V), np.inf)
        for (i, k), c in cache_caps.items():
            cap[k, i] = c
        capped = y >= cap - 1e-12
        link_min = np.full((V, C), np.inf)
        np.minimum.at(link_min, src, np.where(unblocked, marg.delta_link, np.inf).T)
        n_links = np.zeros((V, C), dtype=int)
        np.add.at(n_links, src, unblocked.T)
        conds &= ~capped | (n_links.T > 0)
        capped &= conds
        delta = np.where(capped, link_min.T, delta)
    cond_e = conds[:, src]
    active = phi > PHI_ACTIVE

    with np.errstate(invalid="ignore"):   # inf - inf on all-inf links
        gap = marg.delta_link - delta[:, src]
    r_act = np.where(active & unblocked & cond_e, np.abs(gap), 0.0)
    r_inact = np.where(
        (~active) & unblocked & cond_e, np.maximum(0.0, -gap), 0.0
    )
    r_block = (
        np.where(active & (~unblocked) & cond_e, phi, 0.0)
        if blocked_mask is not None
        else np.zeros_like(phi)
    )

    scale = np.maximum(1.0, t)
    t_zero = t <= T_ZERO
    prod = t * np.where(np.isfinite(delta), delta, 0.0)
    cgap = marg.cache_deriv[None, :] - prod
    free = conds & ~capped
    c_act = np.where((y > 0) & ~t_zero & free, np.abs(cgap) / scale, 0.0)
    c_inact = np.where(
        (y <= 0) & ~t_zero & free, np.maximum(0.0, -cgap) / scale, 0.0
    )
    c_t0 = np.where((y > 0) & t_zero & free, y, 0.0)
    c_cap = np.where(capped, np.maximum(0.0, cgap) / scale, 0.0)

    pair = np.maximum(np.maximum(c_act, c_inact), np.maximum(c_t0, c_cap))
    edge_worst = np.maximum(np.maximum(r_act, r_inact), r_block)
    np.maximum.at(pair.T, src, edge_worst.T)
    parts = {
        "r_act": r_act, "r_inact": r_inact, "r_block": r_block,
        "c_act": c_act, "c_inact": c_inact, "c_t0": c_t0, "c_cap": c_cap,
    }
    return pair, parts, delta


def modified_condition_residuals(topology, demand, strategy, flow, marg,
                                 blocked=None, cache_caps=None, record_above=0.0):
    """Per-(i,k) residuals of the modified condition; returns
    (worst, violations, delta_used).

    Caching residuals are scaled by max(1, t_i(k)) so tolerances are
    rate-independent; ``cache_caps`` is as in ``vectorized_residuals``.
    Residuals at or below ``record_above`` contribute to the worst value but
    are not itemized.
    """
    pair, parts, delta = vectorized_residuals(
        topology, demand, strategy, flow, marg, blocked, cache_caps=cache_caps
    )
    worst = float(pair.max()) if pair.size else 0.0
    violations = []
    if worst > record_above:
        links = topology.links
        for name, arr in parts.items():
            for idx in np.argwhere(arr > record_above):
                if name.startswith("r"):
                    k, e = idx
                    loc = ("route" if name != "r_block" else "blocked_mass",
                           links[e], int(k))
                else:
                    k, i = idx
                    loc = ("cache_t0" if name == "c_t0" else "cache", int(i), int(k))
                violations.append((loc, float(arr[tuple(idx)])))
    return worst, violations, np.array(delta, copy=True)


def check_modified_condition(topology, demand, strategy, cost, blocked=None,
                             tol=1e-6, cache_caps=None, flow=None, marg=None):
    """Residuals of the modified condition (the strengthened KKT form).

    Active caching requires |B'_i - t_i delta_i| <= tol * max(1, t_i); active
    routing requires |delta_ij - delta_i| <= tol; inactive directions must
    not beat the minimum by more than tol.  With ``blocked`` given the
    neighbor set is restricted to unblocked next hops.
    """
    if flow is None:
        flow = solve_traffic(topology, demand, strategy, cost)
    if marg is None:
        marg = compute_marginals(topology, demand, strategy, flow, cost, blocked)
    worst, violations, delta_used = modified_condition_residuals(
        topology, demand, strategy, flow, marg, blocked, cache_caps,
        record_above=tol,
    )
    return ConditionReport(
        kind="modified", multipliers=delta_used, worst=worst,
        violations=violations, tol=tol, passed=worst <= tol,
    )

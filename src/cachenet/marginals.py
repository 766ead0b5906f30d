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

from .flow import (
    T_ZERO,
    dag_levels,
    fold_out_links,
    solve_dense,
    solve_traffic,
    sweep_reverse,
)

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

    The recursion runs over the links with phi > PHI_ACTIVE: one reverse
    sweep for the items whose active subgraph is acyclic (the broadcast
    order of the online algorithm: each node sums phi * (D' + dT/dr) over
    its out-links in link order), the transposed dense solve for the rest.
    The sweep walks the layout ``solve_traffic`` left on ``flow`` as it is,
    the pairs at phi <= PHI_ACTIVE weighted 0, which gives the values of a
    sweep over the active pairs alone; the active subgraph is leveled anew
    when ``flow`` has no layout, has a cyclic item, or misses an active
    pair.  When ``blocked`` is given, delta_min minimizes only over
    unblocked neighbors.
    """
    V, C = topology.num_nodes, demand.num_items
    phi = strategy.phi
    Dp = cost.link_deriv(flow.F)          # D'_ij(F_ij) per link
    Bp = cost.cache_deriv(flow.Y)         # B'_i(Y_i) per node
    # cost of forwarding over edge e=(i,j): response returns on rev(e)
    resp_deriv = Dp[topology.rev]

    active = phi > PHI_ACTIVE
    if (flow.routed is None or not flow.acyclic.all()
            or (active & ~flow.routed).any()):
        levels, acyclic = dag_levels(topology, active)
    else:
        levels, acyclic = flow.levels, flow.acyclic
    w = phi.ravel()[levels.pair]
    w = np.where(w > PHI_ACTIVE, w, 0.0)
    dTdr = sweep_reverse(levels, w, resp_deriv[levels.link])
    cyclic = ~acyclic
    if cyclic.any():
        phi_c = phi[cyclic]
        c = fold_out_links(topology.src, phi_c * resp_deriv, np.add,
                           np.zeros((len(phi_c), V)))
        dTdr[cyclic] = solve_dense(topology, phi_c, c, transpose=True)

    delta_link = resp_deriv[None, :] + dTdr[:, topology.dst]
    with np.errstate(divide="ignore"):
        delta_cache = np.where(flow.t > T_ZERO, Bp[None, :] / np.maximum(flow.t, T_ZERO), np.inf)

    blocked_mask = blocked.mask if blocked is not None else None
    dl = delta_link if blocked_mask is None else np.where(blocked_mask, np.inf, delta_link)
    delta_min = fold_out_links(topology.src, dl, np.minimum, np.full((C, V), np.inf))
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
    must be >= lambda_ik - tol.  Violations are listed by item, then node,
    the cache before the links in link order.
    """
    if flow is None:
        flow = solve_traffic(topology, demand, strategy, cost)
    if marg is None:
        marg = compute_marginals(topology, demand, strategy, flow, cost)
    C, V = demand.num_items, topology.num_nodes
    src, Bp = topology.src, marg.cache_deriv
    servers = demand.server_mask
    route = flow.t[:, src] * marg.delta_link
    lam = fold_out_links(src, route, np.minimum, np.tile(Bp, (C, 1)))
    lam[servers] = 0.0
    cache_r = np.where(strategy.y > 0, np.abs(Bp - lam), np.maximum(0.0, lam - Bp))
    lam_e = lam[:, src]
    route_r = np.where(strategy.phi > PHI_ACTIVE, np.abs(route - lam_e),
                       np.maximum(0.0, lam_e - route))
    cache_r[servers] = route_r[servers[:, src]] = 0.0

    kc, ic = np.nonzero(cache_r > tol)
    kr, er = np.nonzero(route_r > tol)
    locs = [("cache", int(i), int(k)) for k, i in zip(kc, ic)]
    locs += [("route", topology.links[e], int(k)) for k, e in zip(kr, er)]
    mags = np.concatenate([cache_r[kc, ic], route_r[kr, er]])
    # sort by (item, node, cache first, link)
    order = np.lexsort((np.concatenate([np.full(len(kc), -1), er]),
                        np.concatenate([ic, src[er]]),
                        np.concatenate([kc, kr])))
    violations = [(locs[n], float(mags[n])) for n in order]
    worst = max((m for _, m in violations), default=0.0)
    return ConditionReport(
        kind="kkt", multipliers=lam, worst=worst,
        violations=violations, tol=tol, passed=worst <= tol,
    )


def vectorized_residuals(topology, demand, strategy, flow, marg, blocked=None,
                         cache_caps=None):
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
    blocked_mask = blocked.mask if blocked is not None else None
    unblocked = (
        np.ones_like(phi, dtype=bool) if blocked_mask is None else ~blocked_mask
    )
    conds = ~demand.server_mask           # pairs that carry conditions
    delta = marg.delta_min
    capped = np.zeros((C, V), dtype=bool)
    if cache_caps:
        cap = np.full((C, V), np.inf)
        for (i, k), c in cache_caps.items():
            cap[k, i] = c
        capped = y >= cap - 1e-12
        link_min = fold_out_links(src, np.where(unblocked, marg.delta_link, np.inf),
                                  np.minimum, np.full((C, V), np.inf))
        n_links = fold_out_links(src, unblocked.astype(int), np.add,
                                 np.zeros((C, V), dtype=int))
        conds &= ~capped | (n_links > 0)
        capped &= conds
        delta = np.where(capped, link_min, delta)
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
    pair = fold_out_links(src, edge_worst, np.maximum, pair)
    parts = {
        "r_act": r_act, "r_inact": r_inact, "r_block": r_block,
        "c_act": c_act, "c_inact": c_inact, "c_t0": c_t0, "c_cap": c_cap,
    }
    return pair, parts, delta


def check_modified_condition(topology, demand, strategy, cost, blocked=None,
                             tol=1e-6, cache_caps=None, flow=None, marg=None):
    """Residuals of the modified condition (the strengthened KKT form).

    Active caching requires |B'_i - t_i delta_i| <= tol * max(1, t_i); active
    routing requires |delta_ij - delta_i| <= tol; inactive directions must
    not beat the minimum by more than tol.  With ``blocked`` given the
    neighbor set is restricted to unblocked next hops.  Caching residuals
    are scaled by max(1, t_i(k)) so tolerances are rate-independent;
    ``cache_caps`` is as in ``vectorized_residuals``.  Residuals at or
    below ``tol`` count toward the worst value but are not itemized.
    """
    if flow is None:
        flow = solve_traffic(topology, demand, strategy, cost)
    if marg is None:
        marg = compute_marginals(topology, demand, strategy, flow, cost, blocked)
    pair, parts, delta = vectorized_residuals(
        topology, demand, strategy, flow, marg, blocked, cache_caps=cache_caps
    )
    worst = float(pair.max()) if pair.size else 0.0
    violations = []
    if worst > tol:
        links = topology.links
        for name, arr in parts.items():
            for idx in np.argwhere(arr > tol):
                if name.startswith("r"):
                    k, e = idx
                    loc = ("route" if name != "r_block" else "blocked_mass",
                           links[e], int(k))
                else:
                    k, i = idx
                    loc = ("cache_t0" if name == "c_t0" else "cache", int(i), int(k))
                violations.append((loc, float(arr[tuple(idx)])))
    return ConditionReport(
        kind="modified", multipliers=np.array(delta, copy=True), worst=worst,
        violations=violations, tol=tol, passed=worst <= tol,
    )

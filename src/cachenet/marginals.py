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

import functools
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .flow import (
    T_ZERO,
    dag_layout,
    fold_out_links,
    pair_index,
    solve_dense,
    solve_traffic,
    sweep_reverse,
)

PHI_ACTIVE = 1e-12  # routing fractions above this count as active directions


# The direction table of one period: the ``PairIndex`` of the unblocked
# pairs, each pair's ``delta`` = delta_ij(k), ``phi`` and ``excess`` (delta
# minus delta_min at its source), the least unblocked delta ``link_min``
# (items, nodes; +inf without one), and the blocked pairs holding phi > 0
# (flat (item, link) indices ``held``, flat sources ``held_src``).
Directions = namedtuple("Directions", "pair link src head n_out delta phi "
                                     "excess link_min held held_src")


@dataclass
class MarginalState:
    """dT/dr plus the per-direction marginals delta.

    dTdr[k, i]       : dT/dr_i(k)
    delta_link[k, e] : delta_ij(k) for link e = (i, j), computed when read
    delta_cache[k,i] : delta_i0(k), +inf where t_i(k) = 0
    delta_min[k, i]  : delta_i(k), min over the cache direction and the
                       (unblocked) neighbors
    acyclic[k]       : whether item k's positive-phi subgraph was acyclic
                       (reverse sweep) or needed the dense solve
    table            : the ``Directions`` of ``blocked``, which
                       ``vectorized_residuals`` and ``gp_step`` read
    """

    dTdr: np.ndarray
    delta_cache: np.ndarray
    delta_min: np.ndarray
    link_deriv: np.ndarray
    cache_deriv: np.ndarray
    acyclic: np.ndarray = None
    topology: object = field(default=None, repr=False)
    blocked: object = field(default=None, repr=False)
    table: Directions = field(default=None, repr=False)

    @functools.cached_property
    def delta_link(self):
        top = self.topology
        return self.link_deriv[top.rev][None, :] + self.dTdr[:, top.dst]

    def directions(self, blocked):
        """The direction table, which holds for the ``blocked`` sets these
        marginals were computed with and no others."""
        if blocked is not self.blocked:
            raise ValueError("marginals were computed with other blocked sets")
        return self.table


def compute_marginals(topology, demand, strategy, flow, cost, blocked=None):
    """Compute dT/dr and the delta marginals for every (node, item).

    The recursion runs over the links with phi > PHI_ACTIVE: one reverse
    sweep for the items whose active subgraph is acyclic (the broadcast
    order of the online algorithm: each node sums phi * (D' + dT/dr) over
    its out-links in link order), the transposed dense solve for the rest.
    The sweep walks the layout ``solve_traffic`` left on ``flow`` as it is,
    the pairs at phi <= PHI_ACTIVE weighted 0, which gives the values of a
    sweep over the active pairs alone; the active subgraph is laid out anew
    (``flow.dag_layout``: static ``blocked`` sets lend their instance's
    layout) when ``flow`` has no layout, has a cyclic item, or misses an
    active pair.  The direction table of ``blocked`` (None: nothing
    blocked) is built here, once, and delta_min minimizes only over its
    pairs.
    """
    V = topology.num_nodes
    phi = strategy.phi
    Dp = cost.link_deriv(flow.F)          # D'_ij(F_ij) per link
    Bp = cost.cache_deriv(flow.Y)         # B'_i(Y_i) per node
    # cost of forwarding over edge e=(i,j): response returns on rev(e)
    resp_deriv = Dp[topology.rev]

    active = phi > PHI_ACTIVE
    if (flow.routed is None or not flow.acyclic.all()
            or (active & ~flow.routed).any()):
        levels, acyclic = dag_layout(topology, active, blocked)
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

    with np.errstate(divide="ignore"):
        delta_cache = np.where(flow.t > T_ZERO, Bp[None, :] / np.maximum(flow.t, T_ZERO), np.inf)
    # the direction table; its index part comes from the blocked sets
    mask = np.zeros(phi.shape, dtype=bool) if blocked is None else blocked.mask
    index = pair_index(topology, ~mask) if blocked is None else blocked.pair_index(topology)
    delta = resp_deriv[index.link] + dTdr.ravel()[index.head]
    link_min = np.full(dTdr.shape, np.inf)
    np.minimum.at(link_min.reshape(-1), index.src, delta)
    delta_min = np.minimum(link_min, delta_cache)
    with np.errstate(invalid="ignore"):   # inf - inf where delta_min is inf
        excess = delta - delta_min.ravel()[index.src]
    k, e = np.divmod(np.flatnonzero((phi > 0.0) & mask), topology.num_links)
    table = Directions(*index, delta, phi.ravel()[index.pair], excess, link_min,
                       k * topology.num_links + e, k * V + topology.src[e])
    return MarginalState(dTdr, delta_cache, delta_min, Dp, Bp, acyclic,
                         topology, blocked, table)


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
    the raw arrays used to itemize violations (route parts per entry of the
    direction table, ``r_block`` per ``held`` pair, cache parts per (item,
    node; ``c_cap`` only with ``cache_caps``), and delta the minimum each
    pair's conditions are measured against.
    ``cache_caps`` maps (i, k) to an upper bound on y_i(k) (evaluation
    fixtures): a pair at its cap excludes the cache from its minimum (delta
    is the least unblocked link marginal, and a capped pair without an
    unblocked link has no condition) and only requires B' <= t * delta.
    """
    C, V = demand.num_items, topology.num_nodes
    phi, y, t = strategy.phi, strategy.y, flow.t
    tab = marg.directions(blocked)
    conds = ~demand.server_mask           # pairs that carry conditions
    delta = marg.delta_min
    capped = None
    gap = tab.excess
    if cache_caps:
        cap = np.full((C, V), np.inf)
        for (i, k), c in cache_caps.items():
            cap[k, i] = c
        capped = y >= cap - 1e-12
        conds &= ~capped | (tab.n_out > 0)
        capped &= conds
        delta = np.where(capped, tab.link_min, delta)
        with np.errstate(invalid="ignore"):   # inf - inf on all-inf links
            gap = tab.delta - delta.ravel()[tab.src]
    cond_p = conds.ravel()[tab.src]
    active = tab.phi > PHI_ACTIVE

    # gap is >= 0 or NaN: a pair's minimum is delta_min or, capped, link_min,
    # and no unblocked delta of its directions undercuts either, so an
    # inactive direction never beats the minimum; a NaN gap goes into r_act
    r_act = np.where((active | (gap != gap)) & cond_p, np.abs(gap), 0.0)
    held_phi = phi.ravel()[tab.held]
    r_block = np.where((held_phi > PHI_ACTIVE) & conds.ravel()[tab.held_src],
                       held_phi, 0.0)

    scale = np.maximum(1.0, t)
    t_zero = t <= T_ZERO
    prod = t * np.where(np.isfinite(delta), delta, 0.0)
    cgap = marg.cache_deriv[None, :] - prod
    free = conds if capped is None else conds & ~capped
    c_act = np.where((y > 0) & ~t_zero & free, np.abs(cgap) / scale, 0.0)
    c_inact = np.where(
        (y <= 0) & ~t_zero & free, np.maximum(0.0, -cgap) / scale, 0.0
    )
    c_t0 = np.where((y > 0) & t_zero & free, y, 0.0)

    pair = np.maximum(np.maximum(c_act, c_inact), c_t0)
    parts = {"r_act": r_act, "r_block": r_block, "c_act": c_act,
             "c_inact": c_inact, "c_t0": c_t0}
    if capped is not None:
        parts["c_cap"] = np.where(capped, np.maximum(0.0, cgap) / scale, 0.0)
        np.maximum(pair, parts["c_cap"], out=pair)
    np.maximum.at(pair.reshape(-1), tab.src, r_act)
    np.maximum.at(pair.reshape(-1), tab.held_src, r_block)
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
        tab = marg.directions(blocked)
        E, V = topology.num_links, topology.num_nodes
        for name, arr in parts.items():
            for n in np.flatnonzero(arr > tol):
                if name.startswith("r"):
                    p = (tab.held if name == "r_block" else tab.pair)[n]
                    k, e = divmod(int(p), E)
                    loc = ("route" if name != "r_block" else "blocked_mass",
                           topology.links[e], k)
                else:
                    k, i = divmod(int(n), V)
                    loc = ("cache_t0" if name == "c_t0" else "cache", i, k)
                violations.append((loc, float(arr.flat[n])))
    return ConditionReport(
        kind="modified", multipliers=np.array(delta, copy=True), worst=worst,
        violations=violations, tol=tol, passed=worst <= tol,
    )

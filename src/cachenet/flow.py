"""Routing/caching strategies and exact flow computation.

A strategy is the pair (phi, y): phi[k, e] is the fraction of item-k requests
arriving at src(e) that are forwarded over link e, y[k, i] the continuous
caching fraction at node i.  Flow conservation requires y + sum(phi) = 1 per
item at every non-server node, and both identically 0 at designated servers.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentCirculationError, StructuralError

T_ZERO = 1e-12  # arrival rates below this count as "no traffic"


class Strategy:
    """Per-item routing fractions phi (num_items x num_links) and caching
    fractions y (num_items x num_nodes)."""

    def __init__(self, topology, num_items, phi=None, y=None):
        E, V = topology.num_links, topology.num_nodes
        self.topology = topology
        self.num_items = num_items
        self.phi = np.zeros((num_items, E)) if phi is None else np.asarray(phi, float)
        self.y = np.zeros((num_items, V)) if y is None else np.asarray(y, float)
        if self.phi.shape != (num_items, E) or self.y.shape != (num_items, V):
            raise StructuralError("strategy arrays do not match topology/catalog")

    def copy(self):
        return Strategy(self.topology, self.num_items, self.phi.copy(), self.y.copy())

    def set_phi(self, i, j, k, value):
        self.phi[k, self.topology.edge_index[(i, j)]] = value

    @classmethod
    def from_dicts(cls, topology, num_items, phi=None, y=None):
        """Build from {(i,j,k): value} and {(i,k): value} mappings (tests)."""
        s = cls(topology, num_items)
        for (i, j, k), v in (phi or {}).items():
            s.set_phi(i, j, k, v)
        for (i, k), v in (y or {}).items():
            s.y[k, i] = v
        return s


@dataclass
class ValidationReport:
    """Outcome of validate_strategy: all violated constraints with magnitudes
    (``worst`` is 0.0 when none exceeds the tolerance)."""

    passed: bool
    worst: float
    violations: list = field(default_factory=list)  # (kind, location, magnitude)


def validate_strategy(topology, demand, strategy, tol=1e-9):
    """Check box and flow-conservation constraints of a strategy.

    Reports every violated simplex/conservation constraint with its max
    absolute violation; passes iff everything is within ``tol``.  The
    worst violation is found first, and the constraints are itemized only
    when it exceeds ``tol``.
    """
    if strategy.num_items != demand.num_items:
        raise StructuralError("strategy and demand disagree on catalog size")
    top = strategy.topology
    if top is not topology and not (
            top.num_nodes == topology.num_nodes
            and np.array_equal(top.src, topology.src)
            and np.array_equal(top.dst, topology.dst)):
        raise StructuralError("strategy built for a different topology")
    phi, y = strategy.phi, strategy.y
    C, V = y.shape

    # conservation: sum of phi out of node i plus y, per item; servers are
    # forced to y = 0 and no forwarding
    out_sum = np.bincount((np.arange(C)[:, None] * V + topology.src).ravel(),
                          phi.ravel(), minlength=C * V).reshape(C, V)
    servers = demand.server_mask
    off = np.abs(out_sum + y - 1.0)
    worst = np.max([-phi.min(initial=0.0), phi.max(initial=1.0) - 1.0,   # NaN if any
                    -y.min(initial=0.0), y.max(initial=1.0) - 1.0,
                    np.where(servers, np.maximum(y, out_sum), off).max(initial=0.0)])
    if worst <= tol:
        return ValidationReport(passed=True, worst=0.0)

    violations = []
    for arr, name in ((phi, "phi"), (y, "y")):
        low = np.minimum(arr, 0.0)
        high = np.maximum(arr - 1.0, 0.0)
        for k, idx in zip(*np.nonzero((low < -tol) | (high > tol) | np.isnan(arr))):
            mag = max(-low[k, idx], high[k, idx])
            violations.append(("box", (name, int(idx), int(k)), float(mag)))
    # listed by item, node, then kind
    mags = np.stack([y, out_sum, off], axis=-1)
    kind = np.where(servers[:, :, None], [True, True, False], [False, False, True])
    bad = kind & (mags > tol)
    kinds = ("server_cache", "server_forward", "conservation")
    for k, i, kind in zip(*np.nonzero(bad)):
        violations.append((kinds[kind], (int(i), int(k)), float(mags[k, i, kind])))

    worst = max((m for _, _, m in violations), default=0.0)
    return ValidationReport(passed=worst <= tol, worst=worst, violations=violations)


def require_strategy(topology, demand, strategy, what):
    """Raise StructuralError, naming ``what`` and its first violation, unless
    ``strategy`` is a strategy of this instance (``validate_strategy``)."""
    report = validate_strategy(topology, demand, strategy)
    if not report.passed:
        kind, where, mag = report.violations[0]
        raise StructuralError(
            f"{what} is not a strategy of this instance: {kind} violated "
            f"by {mag:.3g} at {where}")


@dataclass
class FlowState:
    """Exact flows and costs induced by a strategy.

    t[k, i]  : total request arrival rate of item k at node i
    f[k, e]  : response flow of item k on link e  (f_ji(k) = t_i(k) phi_ij(k))
    F[e]     : total flow on link e
    Y[i]     : cache occupancy sum_k y[k, i]

    ``solve_traffic`` also keeps the DAG layout its forward sweep ran on:
    ``levels`` (a ``Levels``) and ``acyclic`` as returned by ``dag_layout``
    for the (item, link) mask ``routed`` (phi != 0), a layout of that DAG
    or of one holding it.  ``compute_marginals`` sweeps that layout in
    reverse as it is, the pairs at phi <= PHI_ACTIVE weighted 0; a
    FlowState of measured flows (``gp.gp_period``) leaves them and f None,
    and the marginals lay the DAG out anew.
    """

    t: np.ndarray
    f: np.ndarray
    F: np.ndarray
    Y: np.ndarray
    link_cost: float
    cache_cost: float
    total_cost: float
    levels: "Levels" = None
    acyclic: np.ndarray = None
    routed: np.ndarray = None


# The layout of a routing DAG, its (item, link) pairs in two groupings.  By
# source level, for the reverse sweep: per pair its link, flat (item, link)
# index and the flat indices of its ends into a ``shape`` (items, nodes)
# array, one slice per level, and whether each (item, node) is the source
# of at most one pair.  By head level, for the forward sweep: the ``in_``
# arrays and slices, in flat (item, link) order inside a level.
Levels = namedtuple("Levels", "link pair src dst slices one_out shape "
                              "in_pair in_src in_dst in_slices")


def dag_levels(topology, active):
    """Level-ordered (item, link) pairs of every item's active subgraph.

    ``active`` is a (num_items, num_links) bool mask.  Kahn's algorithm runs
    on all items at once: level L holds the active links leaving the nodes
    whose active in-links all lie in levels < L, so a node's out-links share
    one level and keep ascending link order inside it.  The head grouping
    puts a pair at its head's level (one past the last for a head without
    active out-links), a stable sort from flat order.  Items whose active
    subgraph has a cycle get ``acyclic[k] = False`` and contribute no pairs
    (a level may be left empty).  Each round touches only the pairs not yet
    placed, and takes the ready ones off their heads' in-degrees, so the
    build costs the number of pairs times the levels they wait, not the
    nodes of every item.  Returns (``Levels``, acyclic).
    """
    C, E = active.shape
    V = topology.num_nodes
    pair = np.flatnonzero(active)
    k = np.repeat(np.arange(C), np.count_nonzero(active, axis=1))
    e = pair - k * E
    src = k * V + topology.src[e]
    dst = k * V + topology.dst[e]
    indeg = np.bincount(dst, minlength=C * V)
    groups = []
    rest = np.arange(pair.size)
    ready = indeg[src] == 0
    while ready.any():
        # np.compress, not a bool index: with about half the mask true it
        # costs a quarter as much
        placed = np.compress(ready, rest)
        groups.append(placed)
        np.subtract.at(indeg, dst[placed], 1)
        rest = np.compress(~ready, rest)
        ready = indeg[src[rest]] == 0
    acyclic = np.ones(C, dtype=bool)
    if rest.size:
        acyclic[k[rest]] = False  # links left over lie on or behind a cycle
        groups = [placed[acyclic[k[placed]]] for placed in groups]
    sizes = [placed.size for placed in groups]
    ends = np.cumsum(sizes).tolist()
    slices = [slice(end - size, end) for size, end in zip(sizes, ends)]
    order = np.concatenate([*groups, rest[:0]])
    src_out = src[order]
    # a small unsigned type makes the stable sort a radix sort; level 0
    # is left to the pairs of cyclic items, which are cut off
    level = np.full(C * V, len(groups), dtype=np.min_scalar_type(V))
    level[src_out] = np.repeat(np.arange(len(groups)), sizes)
    head = level[dst]
    if rest.size:
        head[~acyclic[k]] = 0
    into = np.argsort(head, kind="stable")
    ends = np.searchsorted(head[into], np.arange(len(groups) + 1), side="right")
    into = into[ends[0]:]
    ends = (ends - ends[0]).tolist()
    # each node's out-links are adjacent: the rounds keep flat order
    one_out = not (src_out[1:] == src_out[:-1]).any()
    return Levels(e[order], pair[order], src_out, dst[order], slices, one_out,
                  (C, V), pair[into], src[into], dst[into],
                  [slice(a, b) for a, b in zip(ends, ends[1:])]), acyclic


def dag_layout(topology, active, blocked=None):
    """(``Levels``, acyclic) for the (items, links) mask ``active``: static
    ``blocked`` sets' layout of their unblocked DAG (``BlockedSets.layout``)
    if ``active`` lies inside it, its extra pairs to be weighted 0, else a
    ``dag_levels`` build."""
    kept = None if blocked is None else blocked.layout(topology)
    if kept is None or (active & ~kept[1]).any():
        return dag_levels(topology, active)
    return kept[0], np.ones(active.shape[0], dtype=bool)


# The unblocked (item, link) pairs in flat (item, link) order, so each
# (item, node)'s out-links are contiguous and in link order (links sort by
# (src, dst)): per pair its flat (item, link) index, link and the flat
# (item, node) indices of its source and head; and the unblocked out-degree
# n_out (items, nodes).
PairIndex = namedtuple("PairIndex", "pair link src head n_out")


def pair_index(topology, unblocked):
    """``PairIndex`` of the (items, links) bool mask ``unblocked``."""
    C, E = unblocked.shape
    V = topology.num_nodes
    pair = np.flatnonzero(unblocked)
    base = np.repeat(np.arange(C), np.count_nonzero(unblocked, axis=1))
    link = pair - base * E
    base *= V
    src = base + topology.src[link]
    n_out = np.bincount(src, minlength=C * V).reshape(C, V)
    return PairIndex(pair, link, src, base + topology.dst[link], n_out)


def fold_out_links(src, link_vals, ufunc, start):
    """(C, V) fold of (C, E) link values at each link's source node ``src``,
    in link order, starting from the (C, V) array ``start`` (which is
    overwritten when contiguous).  One ``ufunc.at`` over a flat (item, node)
    index, several times faster than a 2-D one over the transposed arrays."""
    C, V = start.shape
    flat = start.reshape(-1)
    ufunc.at(flat, (np.arange(C)[:, None] * V + src).ravel(), link_vals.ravel())
    return flat.reshape(C, V)


def sweep_forward(levels, w, r):
    """Requests flow downstream: t = r + Phi^T t, one head level at a time,
    where ``w`` weights each pair of the head grouping (``levels.in_pair``).

    Pull form: each node adds all its in-link terms at once, in link order,
    so t depends only on the DAG, not on its layering.  Rows of items
    without pairs in ``levels`` come back equal to r.
    """
    t = np.array(r, dtype=float).ravel()
    for lv in levels.in_slices:
        np.add.at(t, levels.in_dst[lv], w[lv] * t[levels.in_src[lv]])
    return t.reshape(np.shape(r))


def sweep_reverse(levels, w, c):
    """Marginals flow upstream: g_i = sum_j w_ij (c_ij + g_j), one level at
    a time in reverse order, where ``w`` weights and ``c`` prices each pair
    of ``levels`` in layout order.

    Every node sums its terms in ascending link order starting from 0, and
    rows of items without pairs in ``levels`` come back 0.  With one pair
    per node (``levels.one_out``) a level's terms are written, not added to
    0: the same bits for all terms but -0.0, which w, c >= 0 never give.
    """
    g = np.zeros(levels.shape[0] * levels.shape[1])
    for lv in reversed(levels.slices):
        term = w[lv] * (c[lv] + g[levels.dst[lv]])
        if levels.one_out:
            g[levels.src[lv]] = term
        else:
            np.add.at(g, levels.src[lv], term)
    return g.reshape(levels.shape)


def solve_dense(topology, phi, rhs, transpose=False):
    """Dense per-item solve of (I - Phi^T) x = rhs, or of (I - Phi) x = rhs
    with ``transpose``.

    The fallback of the sweeps for items whose routing has a cycle, and the
    reference they are tested against.  A cycle whose routing-fraction
    product reaches one makes the circulation divergent and raises
    DivergentCirculationError.
    """
    C, V = rhs.shape
    M = np.broadcast_to(np.eye(V), (C, V, V)).copy()
    if transpose:
        M[:, topology.src, topology.dst] -= phi
    else:
        M[:, topology.dst, topology.src] -= phi  # Phi^T[dst, src] = phi[src -> dst]
    try:
        x = np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        raise DivergentCirculationError(
            "flow system is singular (routing cycle with unit fraction product)"
        ) from None
    residual = np.abs(np.einsum("kij,kj->ki", M, x) - rhs).max()
    scale = max(1.0, np.abs(rhs).max(), np.abs(x).max())
    if not np.isfinite(x).all() or residual > 1e-7 * scale:
        conds = [float(np.linalg.cond(M[k])) for k in range(C)]
        raise DivergentCirculationError(
            f"flow system near-singular (worst condition number {max(conds):.3g})"
        )
    return x


def solve_traffic(topology, demand, strategy, cost, blocked=None, previous=None):
    """Solve t = r + Phi^T t per item and populate flows and costs.

    The routing DAG (the links with phi != 0) gets one layout for the whole
    period (``dag_layout``; under static ``blocked`` sets, the instance's
    layout of their unblocked DAG): items whose routing is acyclic are
    solved by one forward sweep over it, and it goes out on the FlowState
    for the reverse sweep of ``compute_marginals``; given the last period's
    FlowState as ``previous``, its layout is kept when its routed mask
    equals this one.  Items with a routing cycle fall back to the dense
    solve, so loopy strategies are supported as long as the system is
    nonsingular.  A cycle whose routing-fraction product reaches one makes
    the circulation divergent and raises DivergentCirculationError.
    """
    phi = strategy.phi
    r = demand.rates
    routed = phi != 0
    if previous is not None and np.array_equal(previous.routed, routed):
        levels, acyclic, routed = previous.levels, previous.acyclic, previous.routed
    else:
        levels, acyclic = dag_layout(topology, routed, blocked)
    t = sweep_forward(levels, phi.ravel()[levels.in_pair], r)
    cyclic = ~acyclic
    if cyclic.any():
        t[cyclic] = solve_dense(topology, phi[cyclic], r[cyclic])
    t = np.where(np.abs(t) < T_ZERO, 0.0, t)
    if (t < 0).any():
        raise DivergentCirculationError("traffic solve produced negative rates")

    # f on link e=(i,j) carries responses i->j generated by requests j->i;
    # built link-major, so each link sums its items contiguously.  Indexing
    # the transposes gathers their rows in place, where np.take copies a
    # non-contiguous input whole first (several times the cost on phi.T).
    fT = t.T[topology.dst]
    fT *= phi.T[topology.rev]
    F = fT.sum(axis=1)
    f = fT.T
    Y = strategy.y.sum(axis=0)
    link_cost = float(cost.link_cost(F).sum())
    cache_cost = float(cost.cache_cost(Y).sum())
    return FlowState(
        t=t, f=f, F=F, Y=Y,
        link_cost=link_cost, cache_cost=cache_cost,
        total_cost=link_cost + cache_cost,
        levels=levels, acyclic=acyclic, routed=routed,
    )

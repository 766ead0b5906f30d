"""Fixed-routing specialization: path flows, caching gain, and the
gradient-combining Frank-Wolfe optimizer.

With a single pre-defined next hop j_i(k) per (node, item), the routing is a
forest of paths into the designated servers and the total cost depends only
on the caching vector y.  The caching gain G(y) = A(y) - B(y) splits into a
monotone DR-submodular routing saving A and a convex cache cost B.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import IllRoutedError, StructuralError, require_count
from .flow import Strategy, dag_levels, sweep_forward, sweep_reverse


class FixedRoutingInstance:
    """Validated next-hop table and the level layout of its next-hop forest.

    next_hop maps (node, item) -> neighbor over a link.  No designated server
    may have a next hop, the next hops may form no cycle (whether or not a
    request enters it), and every non-server node that requests reach needs
    a next hop, so every request path ends at a designated server.  Flows and
    gradients are the ``flow`` sweeps over the forest's layout, built once
    here, with phi = 1 - y on the next hops; the link flows F are one
    ``np.bincount``.  Caching arrays y must be (num_items, num_nodes).
    """

    def __init__(self, topology, demand, cost, next_hop):
        self.topology = topology
        self.demand = demand
        self.cost = cost
        self.next_hop = dict(next_hop)
        top, dem = topology, demand
        C, V = dem.num_items, top.num_nodes
        n = len(self.next_hop)
        i, k = np.fromiter(itertools.chain.from_iterable(self.next_hop),
                           dtype=np.intp, count=2 * n).reshape(n, 2).T
        j = np.fromiter(self.next_hop.values(), dtype=np.intp, count=n)
        # links sort by (src, dst): look each (i, j) up by its key i * V + j
        # among theirs, which end with V * V, the key of no link
        node = (i >= 0) & (i < V)
        keys, key = np.append(top.src * V + top.dst, V * V), i * V + j
        e = np.minimum(np.searchsorted(keys, key), top.num_links)
        link = node & (j >= 0) & (j < V) & (keys[e] == key)
        server = node & dem.server_mask[k, np.where(node, i, 0)]
        bad = np.flatnonzero(server | ~link)
        if bad.size:  # the first offender in dict order
            (i, k), j = next(itertools.islice(self.next_hop.items(), bad[0], None))
            if server[bad[0]]:
                raise IllRoutedError(
                    f"next hop defined for designated server {i} of item {k}"
                )
            raise IllRoutedError(f"next hop ({i} -> {j}) is not a link")
        hop = np.zeros((C, top.num_links), dtype=bool)
        forwards = np.zeros((C, V), dtype=bool)
        hop[k, e] = forwards[k, i] = True
        self._levels, acyclic = dag_levels(top, hop)
        if not acyclic.all():
            raise IllRoutedError(
                f"next-hop cycle for item {int(np.argmin(acyclic))}"
            )
        # per pair of the head grouping, the link its responses return on:
        # those to requests over (i, j) travel (j, i)
        self._resp = top.rev[self._levels.in_pair % top.num_links]
        self._servers = dem.server_mask
        reached = sweep_forward(self._levels, np.ones(self._levels.in_pair.size),
                                dem.rates) > 0
        stranded = reached & ~forwards & ~self._servers
        if stranded.any():
            k, i = np.argwhere(stranded)[0]
            raise IllRoutedError(f"no next hop at node {i} for item {k}")
        self._baseline = None

    # -- flow computation -------------------------------------------------

    def flows(self, y):
        """Per-link flows F, arrival rates t and occupancy Y under caching y.

        t is the forward sweep t = r + Phi^T t over the next-hop forest, the
        product form: the rate surviving past node p^l on a path is
        r_v * prod_{l' <= l} (1 - y(p^l')).  Request pair (k, i -> j) adds
        t_i(k) (1 - y_i(k)) to F on link (j, i), in head-level order.
        """
        levels = self._levels
        y = self._caching(y)
        w = 1.0 - y.ravel()[levels.in_src]
        t = sweep_forward(levels, w, self.demand.rates)
        F = np.bincount(self._resp, t.ravel()[levels.in_src] * w,
                        minlength=self.topology.num_links)
        Y = np.clip(y, 0.0, None).sum(axis=0)
        return t, F, Y

    def _caching(self, y):
        """y as floats; StructuralError unless shaped (num_items, num_nodes)."""
        y = np.asarray(y, dtype=float)
        if y.shape != self._servers.shape:
            raise StructuralError(f"caching array of shape {y.shape}, not "
                                  f"(num_items, num_nodes) {self._servers.shape}")
        return y

    def saved_cost(self, y, t, prices):
        """t_i(k) * (p_ji + g_j(k)) at the next hop j of each (node, item),
        0 where there is none: the routing cost that caching a unit at i
        saves.

        ``prices`` p is indexed by request link and prices its response
        link; g is ``flow.sweep_reverse`` over the next-hop forest,
        g_i = (1 - y_i) (p_ij + g_j), so the factor (1 - y) of every node
        past i discounts the path cost.
        """
        levels = self._levels
        src = levels.src
        y = self._caching(y)
        p = prices[levels.link]
        g = sweep_reverse(levels, 1.0 - y.ravel()[src], p).ravel()
        out = np.zeros(t.shape)
        out.ravel()[src] = t.ravel()[src] * (p + g[levels.dst])
        return out

    def baseline_cost(self):
        """T(0): total routing cost with no cache deployed."""
        if self._baseline is None:
            _, F, _ = self.flows(np.zeros((self.demand.num_items,
                                           self.topology.num_nodes)))
            self._baseline = float(self.cost.link_cost(F).sum())
        return self._baseline

    def induced_strategy(self, y):
        """The (phi, y) strategy this instance pins: phi = 1 - y on the next
        hop, zero elsewhere."""
        levels = self._levels
        y = self._caching(y).copy()
        y[self._servers] = 0.0
        phi = np.zeros((self.demand.num_items, self.topology.num_links))
        phi.ravel()[levels.pair] = 1.0 - y.ravel()[levels.src]
        return Strategy(self.topology, self.demand.num_items, phi, y)


@dataclass
class GainDecomposition:
    """Routing saving A, cache cost B, gain G = A - B, and the baseline T(0)."""

    A: float
    B: float
    G: float
    baseline: float


def eval_gain(instance, y, flows=None):
    """Caching gain of y: A = T(0) - sum D(F(y)), B = sum B_i(Y_i).

    ``flows`` is ``instance.flows(y)`` when the caller has it already;
    without it the flows of y are computed here.
    """
    t0 = instance.baseline_cost()
    _, F, Y = instance.flows(y) if flows is None else flows
    link = float(instance.cost.link_cost(F).sum())
    cache = float(instance.cost.cache_cost(Y).sum())
    A = t0 - link
    return GainDecomposition(A=A, B=cache, G=A - cache, baseline=t0)


def grad_gain(instance, y, flows=None):
    """Gradients (dA/dy, dB/dy), each shaped (num_items, num_nodes).

    dA/dy_z(k) = t_z(k) * sum over links (i,j) on z's path of
    D'_ji(F_ji) * prod_{l'=2..l(i)} (1 - y(p^l')): the instance's saved cost
    at the prices D'(F), i.e. t_z(k) * (D'_jz + g_j) on the next hop j with g
    from one reverse sweep over the next-hop forest.  ``flows`` is
    ``instance.flows(y)`` when the caller has it already, as for
    ``eval_gain``.
    """
    top = instance.topology
    t, F, Y = instance.flows(y) if flows is None else flows
    gradA = instance.saved_cost(y, t, instance.cost.link_deriv(F)[top.rev])
    Bp = instance.cost.cache_deriv(Y)
    gradB = np.broadcast_to(Bp, gradA.shape).copy()
    return gradA, gradB


def require_iteration_count(N):
    """Raise ConfigurationError unless ``N`` is an integer of at least 2
    (bool and float rejected): GCFW's step eps = N^(-1/3) needs N > 1."""
    require_count(N, "gcfw needs an integer N", 2)


@dataclass
class GcfwResult:
    y: np.ndarray
    gain: GainDecomposition
    history: list = field(default_factory=list)  # per-iterate G values
    best_iter: int = 0


def gcfw(instance, N):
    """Gradient-combining Frank-Wolfe over the box [0,1]^(C x V).

    eps = N^(-1/3); each step maximizes <y, grad A - 2 grad B> over the box
    by coordinate thresholding (strict inequality: exact-zero scores select
    nothing) and blends y <- (1 - eps^2) y + eps^2 s.  Returns the iterate
    with the best gain among y^(0..N).  Each iterate's flows are computed
    once and serve both its gain and the gradient taken from it: N + 1
    forward sweeps, with N ``grad_gain`` and N + 1 ``eval_gain`` calls.
    """
    require_iteration_count(N)
    top, dem = instance.topology, instance.demand
    zero_b = instance.cost.cache.deriv_is_zero()
    if zero_b.any():
        warnings.warn(
            "cache cost has identically-zero marginal at some nodes; the "
            "t=0 => y=0 implication of the modified condition is void there",
            stacklevel=2,
        )
    eps2 = float(N) ** (-2.0 / 3.0)
    C, V = dem.num_items, top.num_nodes
    y = np.zeros((C, V))
    flows = instance.flows(y)
    best_y, best = y.copy(), eval_gain(instance, y, flows)
    history = [best.G]
    best_iter = 0
    for n in range(N):
        gA, gB = grad_gain(instance, y, flows)
        s = ((gA - 2.0 * gB) > 0).astype(float)
        s[instance._servers] = 0.0
        y = (1.0 - eps2) * y + eps2 * s
        flows = instance.flows(y)
        g = eval_gain(instance, y, flows)
        history.append(g.G)
        if g.G > best.G:
            best, best_y, best_iter = g, y.copy(), n + 1
    return GcfwResult(y=best_y, gain=best, history=history, best_iter=best_iter)

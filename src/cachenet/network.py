"""Network, demand and cost-function representation.

A cache network is a symmetric directed graph with convex, increasing link
transmission costs and per-node convex cache deployment costs.  Demand is a
catalog of unit-size items, each permanently stored at one or more designated
servers, plus exogenous per-(node, item) request rates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityExceededError, StructuralError


def _frozen(a):
    a = np.asarray(a)
    a.flags.writeable = False
    return a


class Topology:
    """Directed graph over dense node ids 0..n-1 with symmetric link existence.

    Parameters
    ----------
    num_nodes : int
    links : iterable of (i, j)
        Directed links.  The reverse (j, i) of every link must be present
        (it is required by the model: responses travel the reverse link).
    """

    def __init__(self, num_nodes, links):
        if num_nodes <= 0:
            raise StructuralError("topology needs at least one node")
        self.num_nodes = int(num_nodes)
        links = sorted(set((int(i), int(j)) for i, j in links))
        link_set = set(links)
        for i, j in links:
            if i == j:
                raise StructuralError(f"self-link ({i},{i}) not allowed")
            if not (0 <= i < num_nodes and 0 <= j < num_nodes):
                raise StructuralError(f"link ({i},{j}) references unknown node")
            if (j, i) not in link_set:
                raise StructuralError(f"link ({i},{j}) has no reverse ({j},{i})")
        self.links = tuple(links)
        self.num_links = len(links)
        self.edge_index = {e: idx for idx, e in enumerate(links)}
        self.src = _frozen(np.array([i for i, _ in links], dtype=np.intp))
        self.dst = _frozen(np.array([j for _, j in links], dtype=np.intp))
        # rev[e] is the index of the reverse link of e
        self.rev = _frozen(
            np.array([self.edge_index[(j, i)] for i, j in links], dtype=np.intp)
        )
        nbrs = [[] for _ in range(num_nodes)]
        outs = [[] for _ in range(num_nodes)]
        for idx, (i, j) in enumerate(links):
            nbrs[i].append(j)
            outs[i].append(idx)
        self.neighbors = tuple(tuple(n) for n in nbrs)
        self.out_edges = tuple(tuple(o) for o in outs)

    def __repr__(self):
        return f"Topology(|V|={self.num_nodes}, |E|={self.num_links})"


class Demand:
    """Catalog, designated servers and exogenous request rates.

    ``servers[k]`` is the nonempty set of designated servers of item k; rates
    is a (num_items, num_nodes) array of nonnegative request rates in request
    packets per second.  Items have unit size.  ``server_mask[k, i]`` is
    True iff i is a designated server of item k.
    """

    def __init__(self, num_items, servers, rates, topology=None):
        self.num_items = int(num_items)
        if len(servers) != num_items:
            raise StructuralError("one server set required per item")
        self.servers = tuple(frozenset(int(s) for s in srv) for srv in servers)
        for k, srv in enumerate(self.servers):
            if not srv:
                raise StructuralError(f"item {k} has no designated server")
        rates = np.asarray(rates, dtype=float)
        if rates.shape != (num_items, self._num_nodes(rates, topology)):
            raise StructuralError(
                f"rates must have shape (num_items, num_nodes), got {rates.shape}"
            )
        if (rates < 0).any():
            raise StructuralError("request rates must be nonnegative")
        self.rates = _frozen(rates)
        self.num_nodes = V = rates.shape[1]
        item = np.repeat(np.arange(num_items), [len(s) for s in self.servers])
        node = np.fromiter(itertools.chain.from_iterable(self.servers), dtype=int,
                           count=len(item))
        outside = (node < 0) | (node >= V)
        if outside.any():
            n = int(np.argmax(outside))
            raise StructuralError(
                f"item {item[n]} has server {node[n]} outside nodes 0..{V - 1}"
            )
        mask = np.zeros((num_items, V), dtype=bool)
        mask[item, node] = True
        self.server_mask = _frozen(mask)

    @staticmethod
    def _num_nodes(rates, topology):
        return topology.num_nodes if topology is not None else rates.shape[1]

    def __repr__(self):
        return f"Demand(|C|={self.num_items}, pairs={int((self.rates > 0).sum())})"


# ---------------------------------------------------------------------------
# Cost functions.
#
# Families are closed (polynomial / linear / queueing / zero) so scenarios
# stay serializable.  One family per model instance, with per-link (or
# per-node) parameters.
# ---------------------------------------------------------------------------


class CostFunctions:
    """Vectorized cost family over a set of links or nodes.

    kind = "poly":     cost = sum_m coeffs[:, m-1] * x**m   (coeffs >= 0)
    kind = "queueing": cost = x / (mu - x), error when x >= mu
    kind = "zero":     cost identically 0 (evaluation fixtures only)
    """

    def __init__(self, kind, params):
        self.kind = kind
        if kind == "poly":
            coeffs = np.asarray(params, dtype=float)
            if coeffs.ndim != 2:
                raise StructuralError("poly coefficients must be 2-D (units x degree)")
            if (coeffs < 0).any():
                raise StructuralError("polynomial cost coefficients must be >= 0")
            self.params = _frozen(coeffs)
            self.size = coeffs.shape[0]
        elif kind == "queueing":
            mu = np.asarray(params, dtype=float)
            if (mu <= 0).any():
                raise StructuralError("queueing service rates must be positive")
            self.params = _frozen(mu)
            self.size = mu.shape[0]
        elif kind == "zero":
            self.params = None
            self.size = int(params)
        else:
            raise StructuralError(f"unknown cost family {kind!r}")

    def cost(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "poly":
            out = np.zeros_like(x)
            xp = np.ones_like(x)
            for m in range(self.params.shape[1]):
                xp = xp * x
                out += self.params[:, m] * xp
            return out
        if self.kind == "queueing":
            self._check_capacity(x)
            return x / (self.params - x)
        return np.zeros_like(x)

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "poly":
            out = np.zeros_like(x)
            xp = np.ones_like(x)
            for m in range(self.params.shape[1]):
                out += (m + 1) * self.params[:, m] * xp
                xp = xp * x
            return out
        if self.kind == "queueing":
            self._check_capacity(x)
            return self.params / (self.params - x) ** 2
        return np.zeros_like(x)

    def _check_capacity(self, x):
        if (x >= self.params).any():
            worst = int(np.argmax(x - self.params))
            raise CapacityExceededError(
                f"flow {x[worst]:.6g} >= service rate {self.params[worst]:.6g} "
                f"at index {worst}"
            )

    def deriv_is_zero(self):
        """True where the marginal cost is identically zero."""
        if self.kind == "zero":
            return np.ones(self.size, dtype=bool)
        if self.kind == "poly":
            return ~(self.params > 0).any(axis=1)
        return np.zeros(self.size, dtype=bool)


@dataclass
class CostModel:
    """Per-link routing costs D_ij and per-node cache deployment costs B_i."""

    link: CostFunctions
    cache: CostFunctions

    def link_cost(self, F):
        return self.link.cost(F)

    def link_deriv(self, F):
        return self.link.deriv(F)

    def cache_cost(self, Y):
        return self.cache.cost(Y)

    def cache_deriv(self, Y):
        return self.cache.deriv(Y)


def linear_link_costs(d):
    """D_ij(F) = d_ij * F."""
    d = np.asarray(d, dtype=float)
    return CostFunctions("poly", d.reshape(-1, 1))


def poly3_link_costs(d):
    """Third-order queueing-delay expansion D(F) = dF + d^2 F^2 + d^3 F^3."""
    d = np.asarray(d, dtype=float)
    return CostFunctions("poly", np.stack([d, d**2, d**3], axis=1))


def queueing_link_costs(mu):
    """M/M/1 delay D(F) = F / (mu - F)."""
    return CostFunctions("queueing", mu)


def linear_cache_costs(b):
    """B_i(Y) = b_i * Y."""
    b = np.asarray(b, dtype=float)
    return CostFunctions("poly", b.reshape(-1, 1))


def zero_costs(size):
    """Identically-zero costs; admitted for evaluation fixtures only."""
    return CostFunctions("zero", size)


@dataclass
class Scenario:
    """A complete problem instance: topology + demand + cost model."""

    topology: Topology
    demand: Demand
    cost: CostModel
    name: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.demand.num_nodes != self.topology.num_nodes:
            raise StructuralError("demand and topology disagree on node count")
        if self.cost.link.size != self.topology.num_links:
            raise StructuralError("link cost model size != number of links")
        if self.cost.cache.size != self.topology.num_nodes:
            raise StructuralError("cache cost model size != number of nodes")

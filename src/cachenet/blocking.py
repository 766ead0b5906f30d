"""Loop prevention via blocked next-hop sets.

Static sets come from per-item shortest distances to the nearest designated
server (a fixed DAG per item), found by one Bellman-Ford relaxation over all
items at once and kept per instance, whose node order also gives the
shortest-path next hops;
dynamic sets come from a topological total order of the current
positive-phi DAG, rebuilt in a period whose positive-phi links changed.
"""

from __future__ import annotations

import functools
import weakref
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import DisconnectedDemandError, LoopError
from .flow import T_ZERO, dag_levels, fold_out_links, pair_index
from .marginals import PHI_ACTIVE


@dataclass
class BlockedSets:
    """Per-(item, link) blocked mask; True = src may not forward over link.

    Non-neighbors are always blocked implicitly (they have no link entry).
    """

    mode: str                 # "static" | "dynamic"
    mask: np.ndarray          # bool, (num_items, num_links)
    _index: object = field(default=None, repr=False, compare=False)
    # static sets: the instance's ``Order``, shared by every call on it
    _kept: object = field(default=None, repr=False, compare=False)
    # dynamic sets: what they were built from (a ``Built``), for the next
    # period's call
    _built: object = field(default=None, repr=False, compare=False)

    def pair_index(self, topology):
        """The ``flow.PairIndex`` of the unblocked pairs.  The first call
        makes the mask read-only, so the index cannot go stale, and builds
        it, or takes the instance's if the mask still equals its own."""
        if self._index is None:
            self.mask.flags.writeable = False
            if self._kept is not None and np.array_equal(self._kept.before, ~self.mask):
                self._index = self._kept.index
            else:
                self._kept = None
                self._index = pair_index(topology, ~self.mask)
        return self._index

    def layout(self, topology):
        """(``flow.Levels``, unblocked mask) of the instance's static sets,
        the layout built on first use; None for any other sets."""
        self.pair_index(topology)
        return None if self._kept is None else (self._kept.layout, self._kept.before)


def server_distances(topology, demand, weights):
    """Per-item shortest distance to the nearest designated server.

    ``weights[e]`` prices forwarding over link e; responses travel the
    reverse link, so callers pass the reverse-direction marginal when the
    response cost is what matters.  Bellman-Ford on all items at once: each
    round sets dist_j = min(dist_j, min over links (i, j) of dist_i +
    w(i, j)), until a round changes nothing (at most V rounds).  With
    nonnegative weights this and a Dijkstra search both end at each node's
    least path sum, added up from the server outward, so they agree bit for
    bit.
    """
    C, V = demand.num_items, topology.num_nodes
    src, dst = topology.src, topology.dst
    dist = np.where(demand.server_mask, 0.0, np.inf)
    for _ in range(V):
        # j routing via i receives its response over link (i, j)
        new = fold_out_links(dst, dist[:, src] + weights, np.minimum, dist.copy())
        if np.array_equal(new, dist):
            break
        dist = new
    unreached = np.isinf(dist)
    if unreached.any():
        k = int(np.argmax(unreached.any(axis=1)))
        raise DisconnectedDemandError(
            f"nodes {np.nonzero(unreached[k])[0].tolist()} cannot reach a "
            f"server of item {k}"
        )
    return dist


def _server_hops(topology, server_mask, tight):
    """Fewest hops to a server among each node's shortest-distance paths.

    ``tight`` (items, links) marks the links on a shortest path (see
    ``_zero_flow_order``); the hop counts grow from 0 at the (items, nodes)
    ``server_mask`` back along them, one round per hop, all items at once.
    """
    src, dst = topology.src, topology.dst
    hops = np.where(server_mask, 0.0, np.inf)
    for _ in range(topology.num_nodes):
        via = np.where(tight, hops[:, dst] + 1.0, np.inf)
        new = fold_out_links(src, via, np.minimum, hops.copy())
        if np.array_equal(new, hops):
            break
        hops = new
    return hops


class Order:
    """One instance's zero-flow order (``_zero_flow_order``), and the
    ``flow.Levels`` of its unblocked DAG ``before``, built on first use."""

    def __init__(self, topology, link_costs, before, tight, index):
        self.topology, self.link_costs = topology, link_costs
        self.before, self.tight, self.index = before, tight, index

    @functools.cached_property
    def layout(self):
        return dag_levels(self.topology, self.before)[0]


# per live demand, the ``Order`` of its topology and link costs; the demand
# is held weakly, so a dropped instance takes its entry with it
_ORDERS = weakref.WeakKeyDictionary()


def _zero_flow_order(topology, demand, link_costs):
    """The ``Order`` of the (items, links) masks ``before`` and ``tight`` of
    link (i, j), and the ``flow.PairIndex`` of ``before`` (the unblocked
    pairs of the static sets).

    Nodes are ordered per item by (distance to a server, fewest hops among
    shortest-distance paths, id), with the zero-flow marginals D'(0) of
    ``link_costs`` as link weights; ``before`` iff j precedes i.  ``tight``
    iff dist_j + D'_ji(0) == dist_i, exactly the sum the distances were
    found with.  Hop counts only decide between linked nodes of equal
    distance, not both servers, so they are counted only for items with
    such a link.

    All of it depends only on the topology, the demand and the link costs,
    whose arrays are all read-only, so it is kept (read-only) per live
    demand with the identity of the other two: the static sets, the
    shortest-path start and its next hops share one Bellman-Ford per
    instance, also when calls alternate between instances.
    """
    kept = _ORDERS.get(demand)
    if kept is not None and kept.topology is topology and kept.link_costs is link_costs:
        return kept
    weights = link_costs.deriv(np.zeros(topology.num_links))
    dist = server_distances(topology, demand, weights)
    src, dst = topology.src, topology.dst
    servers = demand.server_mask
    d_src, d_dst = dist[:, src], dist[:, dst]
    tight = d_dst + weights[topology.rev] == d_src
    tied = ((d_src == d_dst) & ~(servers[:, src] & servers[:, dst])).any(axis=1)
    hops = np.zeros_like(dist)
    if tied.any():
        hops[tied] = _server_hops(topology, servers[tied], tight[tied])
    h_src, h_dst = hops[:, src], hops[:, dst]
    before = (d_dst < d_src) | ((d_dst == d_src) & (
        (h_dst < h_src) | ((h_dst == h_src) & (dst < src))))
    index = pair_index(topology, before)
    for arr in (before, tight, *index):
        arr.flags.writeable = False
    _ORDERS[demand] = Order(topology, link_costs, before, tight, index)
    return _ORDERS[demand]


def static_blocked_sets(topology, demand, cost):
    """Distance-DAG blocked sets, fixed for the whole run.

    Link (i, j) is unblocked for item k iff j comes before i in the order
    of (distance to a server of k, fewest hops among shortest-distance
    paths, id) at zero flow.  An unblocked link thus always leads to a
    strictly smaller key, so the unblocked graph per item is acyclic.  Every
    non-server node with a path to a server keeps an unblocked out-link,
    even across zero-weight links: its next hop on a fewest-hop shortest
    path is no farther and one hop nearer.  Raises DisconnectedDemandError
    if some node cannot reach a server at all (or, as a guard, is left
    without an unblocked out-link), on every call.  The order is built once
    per instance and kept with the index of its unblocked pairs, which the
    marginals and the guard read, and the layout of their DAG, which the
    sweeps read; each call returns a fresh mask that the caller may write
    into.
    """
    order = _zero_flow_order(topology, demand, cost.link)
    dead = (order.index.n_out == 0) & ~demand.server_mask
    if dead.any():
        k = int(np.argmax(dead.any(axis=1)))
        raise DisconnectedDemandError(
            f"nodes {np.nonzero(dead[k])[0].tolist()} have no unblocked path "
            f"to a server of item {k}"
        )
    return BlockedSets(mode="static", mask=~order.before, _kept=order)


def sp_next_links(topology, demand, cost):
    """(items, nodes) shortest-path next link, -1 at the servers.

    The next link of i is its lowest-id out-link (i, j) that is tight and
    unblocked in the static sets.  The next hop on a fewest-hop shortest
    path is one, so every connected non-server node has it; each hop lowers
    the (distance, hops, id) key, so the next links form no cycle.
    """
    order = _zero_flow_order(topology, demand, cost.link)
    E = topology.num_links
    cand = np.where(order.tight & order.before, np.arange(E), E)
    best = fold_out_links(topology.src, cand, np.minimum,
                          np.full(demand.server_mask.shape, E))
    best[demand.server_mask] = -1
    return best


def _kahn_positions(topology, active, ahead=None):
    """(items, nodes) position of each node in its item's total order.

    Per item, the nodes with an active link are Kahn-sorted on the active
    links: each step places, in every item at once, the lowest-id ready
    node of the (items, nodes) bool mask ``ahead`` if there is one, else
    the lowest-id ready node (a node is ready when its active in-links all
    come from placed nodes).  The nodes without an active link follow in
    id order.  Raises LoopError, naming the lowest such item, if some
    active subgraph has a cycle.
    """
    C, V = active.shape[0], topology.num_nodes
    W = V + 1   # node V of each item is virtual: always ready, never placed
    src, dst = topology.src, topology.dst
    k, e = np.nonzero(active)
    incident = np.zeros((C, V), dtype=bool)
    incident[k, src[e]] = incident[k, dst[e]] = True
    # key[k, i] is twice the count of active in-links of i from unplaced
    # nodes, plus 2 once i is placed or if it takes no part, plus 1 unless
    # i is ahead; a node is ready iff its key is 0 or 1, and the virtual
    # node's key is 1, so argmin takes the first ready node of ``ahead``,
    # else the first ready node, else the virtual node
    key = np.bincount(k * W + dst[e], minlength=C * W).reshape(C, W) * 2
    key[:, :V] += 2 * ~incident + (1 if ahead is None else ~ahead)
    key[:, V] = 1
    # row k*W + i is what placing node i of item k takes off key: its
    # active out-links, and -2 on i itself
    adj = np.zeros((C, W, W), dtype=np.int8)
    adj[:, np.arange(V), np.arange(V)] = -2
    adj = adj.reshape(C * W, W)
    adj[k * W + src[e], dst[e]] = 2
    first = np.arange(C) * W
    pos = np.full(C * W, -1)
    n_incident = incident.sum(axis=1)
    for step in range(int(n_incident.max(initial=0))):
        placed = first + np.argmin(key, axis=1)
        pos[placed] = step
        key -= adj[placed]
    pos = pos.reshape(C, W)[:, :V]
    cyclic = (incident & (pos < 0)).any(axis=1)
    if cyclic.any():
        raise LoopError(f"loop in routing strategy for item {int(np.argmax(cyclic))}")
    return np.where(incident, pos,
                    np.cumsum(~incident, axis=1) - 1 + n_incident[:, None])


def _ancestors(topology, active, nodes):
    """``nodes`` (items, nodes) together with every node that reaches one of
    them over active links of its item."""
    k, e = np.nonzero(active)
    src, dst = topology.src[e], topology.dst[e]
    while True:
        up = nodes[k, dst] & ~nodes[k, src]
        if not up.any():
            return nodes
        nodes = nodes.copy()
        nodes[k[up], src[up]] = True


# What dynamic sets were built from: the active mask (phi > PHI_ACTIVE),
# the mask of its plain order and that mask's ``flow.PairIndex`` (whose
# n_out is the unblocked out-degree), and the (items, nodes) mask of the
# stranded pairs the order was mended for.
Built = namedtuple("Built", "active first index stranded")


def dynamic_blocked_sets(topology, demand, strategy, t=None, previous=None):
    """Topological-order blocked sets from the current positive-phi DAG.

    Per item, nodes carrying positive phi are Kahn-sorted (lowest id first
    among ready nodes) and nodes with no positive-phi incidence are appended
    in id order; j is blocked for i iff j precedes i in that total order.
    Raises LoopError, naming the lowest such item, if some positive-phi
    subgraph has a cycle.

    Given the (items, nodes) arrival rates ``t``, the order is mended for
    stranded pairs: a non-server pair with t <= T_ZERO and y > 0 that the
    order leaves without an unblocked out-link, so that the step can never
    move its cache.  Such an item is sorted again with its stranded nodes
    and their positive-phi ancestors taken first among ready nodes.  That
    is still a topological order of the active links, and each stranded
    node with an active link now precedes every neighbour that is not one
    of those nodes (one without keeps its place after them).

    Given the sets of the last period as ``previous``, the order is reused
    when the active mask is unchanged, and ``previous`` itself is returned
    when the stranded pairs are unchanged too.  The mask is read-only.
    """
    active = strategy.phi > PHI_ACTIVE
    built = getattr(previous, "_built", None)
    if built is not None and np.array_equal(built.active, active):
        first, index = built.first, built.index
    else:
        built = None
        pos = _kahn_positions(topology, active)
        first = pos[:, topology.dst] < pos[:, topology.src]
        first.flags.writeable = False
        index = pair_index(topology, ~first)
        for arr in index:
            arr.flags.writeable = False
    stranded = np.zeros(index.n_out.shape, dtype=bool)
    if t is not None:
        stranded = ((index.n_out == 0) & ~demand.server_mask & (t <= T_ZERO)
                    & (strategy.y > 0))
    if built is not None and np.array_equal(built.stranded, stranded):
        return previous
    mask, items = first, stranded.any(axis=1)
    if items.any():
        ahead = _ancestors(topology, active[items], stranded[items])
        pos = _kahn_positions(topology, active[items], ahead)
        mask = first.copy()
        mask[items] = pos[:, topology.dst] < pos[:, topology.src]
        mask.flags.writeable = False
    return BlockedSets(mode="dynamic", mask=mask,
                       _index=index if mask is first else None,
                       _built=Built(active, first, index, stranded))

"""Loop prevention via blocked next-hop sets.

Static sets come from per-item shortest distances to the nearest designated
server (a fixed DAG per item); dynamic sets come from a topological total
order of the current positive-phi DAG, recomputed every period.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedDemandError, LoopError
from .marginals import PHI_ACTIVE


@dataclass
class BlockedSets:
    """Per-(item, link) blocked mask; True = src may not forward over link.

    Non-neighbors are always blocked implicitly (they have no link entry).
    """

    mode: str                 # "static" | "dynamic"
    mask: np.ndarray          # bool, (num_items, num_links)

    def is_blocked(self, topology, i, j, k):
        e = topology.edge_index.get((i, j))
        return True if e is None else bool(self.mask[k, e])


def server_distances(topology, demand, weights):
    """Per-item shortest distance to the nearest designated server.

    ``weights[e]`` prices forwarding over link e; responses travel the
    reverse link, so callers pass the reverse-direction marginal when the
    response cost is what matters.  Multi-source Dijkstra per item.
    """
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
            # j routing via i receives its response over link (i, j):
            # dist_j = dist_i + w(i, j)
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


def static_blocked_sets(topology, demand, cost=None, weights=None):
    """Distance-DAG blocked sets, fixed for the whole run.

    Link (i, j) is unblocked for item k iff j is strictly closer to a server
    of k, with equal distances tie-broken by admitting (i, j) iff id(j) <
    id(i).  The unblocked graph per item is acyclic and, with positive
    weights, every node keeps a monotone path to a server.
    """
    if weights is None:
        if cost is None:
            raise ValueError("need a cost model or explicit link weights")
        weights = cost.link_deriv(np.zeros(topology.num_links))
    dist = server_distances(topology, demand, weights)
    C = demand.num_items
    mask = np.ones((C, topology.num_links), dtype=bool)
    src, dst = topology.src, topology.dst
    for k in range(C):
        closer = dist[k, dst] < dist[k, src]
        tie = (dist[k, dst] == dist[k, src]) & (dst < src)
        mask[k] = ~(closer | tie)
    blocked = BlockedSets(mode="static", mask=mask)
    _check_reachability(topology, demand, blocked)
    return blocked


def _check_reachability(topology, demand, blocked):
    """Every node must reach a designated server inside the unblocked graph."""
    C, V = demand.num_items, topology.num_nodes
    for k in range(C):
        reached = [False] * V
        stack = list(demand.servers[k])
        for s in stack:
            reached[s] = True
        # walk unblocked links backwards: i reaches server via (i, j) if j does
        in_by_dst = [[] for _ in range(V)]
        for e in range(topology.num_links):
            if not blocked.mask[k, e]:
                in_by_dst[topology.dst[e]].append(topology.src[e])
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


def dynamic_blocked_sets(topology, demand, strategy):
    """Topological-order blocked sets from the current positive-phi DAG.

    Per item, nodes carrying positive phi are Kahn-sorted (lowest id first
    among ready nodes) and nodes with no positive-phi incidence are appended
    in id order; j is blocked for i iff j precedes i in that total order.
    The sort runs on all items at once: each step places, in every item, the
    lowest-id node whose active in-links all come from placed nodes.
    Raises LoopError, naming the lowest such item, if some positive-phi
    subgraph has a cycle.
    """
    C, V = demand.num_items, topology.num_nodes
    W = V + 1   # node V of each item is virtual: always ready, never placed
    src, dst = topology.src, topology.dst
    k, e = np.nonzero(strategy.phi > PHI_ACTIVE)
    incident = np.zeros((C, V), dtype=bool)
    incident[k, src[e]] = incident[k, dst[e]] = True
    # blockers[k, i]: active in-links of i from unplaced nodes, plus 1 once
    # i is placed or if i has no active link; a node is ready iff it is 0
    blockers = np.bincount(k * W + dst[e], minlength=C * W).reshape(C, W)
    blockers[:, :V] += ~incident
    # row k*W + i is what placing node i of item k takes off blockers: its
    # active out-links, and -1 on i itself
    adj = np.zeros((C, W, W), dtype=np.int8)
    adj[:, np.arange(V), np.arange(V)] = -1
    adj = adj.reshape(C * W, W)
    adj[k * W + src[e], dst[e]] = 1
    first = np.arange(C) * W
    pos = np.full(C * W, -1)
    n_incident = incident.sum(axis=1)
    for step in range(int(n_incident.max(initial=0))):
        # argmin takes the first 0: the lowest-id ready node, or the
        # virtual node when the item is done or stuck on a cycle
        placed = first + np.argmin(blockers, axis=1)
        pos[placed] = step
        blockers -= adj[placed]
    pos = pos.reshape(C, W)[:, :V]
    cyclic = (incident & (pos < 0)).any(axis=1)
    if cyclic.any():
        raise LoopError(f"loop in routing strategy for item {int(np.argmax(cyclic))}")
    # nodes without an active link follow in id order
    pos = np.where(incident, pos, np.cumsum(~incident, axis=1) - 1 + n_incident[:, None])
    # unblocked iff the destination comes later in the total order
    mask = pos[:, dst] < pos[:, src]
    return BlockedSets(mode="dynamic", mask=mask)

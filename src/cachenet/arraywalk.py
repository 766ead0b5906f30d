"""The simulator's array walk, for policies whose hits and routing stay
fixed within a slot.

A slot's arrivals are walked together: every live request advances one hop
per numpy step, with a hit test against the slot's (C, V) hit mask (caches
or servers), a token draw from ``TokenPools`` and the next node.  One
backward pass over the stored steps then gives the response hops and their
path costs.  Hops are stamped as in the request-atomic walk (hop h of a
request born at t0 at t0 + h * hop_latency); the walk only records them, and
the simulator's ledger (``Simulator.count``) counts each in the window and
slot its stamp falls in.  ``sim.Simulator`` picks this walk when the
policy's ``slot_hits`` returns a mask.
"""

from __future__ import annotations

import numpy as np


def apportion_table(weights, n_tokens):
    """``sim.apportion_tokens`` of many pools at once.

    ``weights[..., j]`` is the weight of a pool's j-th next hop, its next
    hops in ascending id order; a weight that is not positive routes
    nothing.  Returns the integer token counts in the same shape.  Each
    pool's counts equal ``apportion_tokens`` of its positive (next hop,
    weight) pairs, computed with the same floating-point operations in the
    same order, so they sum to n_tokens, or to 0 for a pool with no
    positive weight.
    """
    w = np.where(weights > 0, weights, 0.0)
    total = np.cumsum(w, axis=-1)[..., -1]   # summed in next-hop order
    routed = total > 0
    shares = n_tokens * w / np.where(routed, total, 1.0)[..., None]
    counts = np.floor(shares)
    left = n_tokens - counts.sum(axis=-1)
    # the largest remainders get one token more; a stable sort keeps ties
    # in next-hop order, and a zero weight sorts last and gets none
    key = np.where(w > 0, counts - shares, np.inf)
    rank = np.argsort(np.argsort(key, axis=-1, kind="stable"), axis=-1)
    counts += (rank < left[..., None]) & (w > 0)
    return counts.astype(np.int64)


class TokenPools:
    """Every (item, node) token pool of the array walk, as arrays.

    A token is an out-link column of its node: the node's out-links in
    ascending next-hop order, as ``topology.out_edges`` lists them.  Pool
    ``item * V + node`` is a cursor into a sequence of refills: ``cur[pool]``
    is the refill in use, and its first ``used[pool]`` tokens are taken.  A
    refill is the ``apportion_table`` split of n_tokens tokens over the
    routing weights in force when it is made, listed in next-hop order and
    permuted by ``rng`` when it has two or more next hops.  ``rebuild``
    puts new weights in force; the tokens left in a pool stay there.
    """

    def __init__(self, topology, num_items, n_tokens, rng):
        V = topology.num_nodes
        deg = np.array([len(out) for out in topology.out_edges])
        D = max(int(deg.max()), 1)
        self.real = np.arange(D) < deg[:, None]            # (V, D)
        self.links = np.zeros((V, D), dtype=np.intp)
        for i, out in enumerate(topology.out_edges):
            self.links[i, :len(out)] = out
        # per node and out column, and a last column D for "no token": the
        # next node (-1 for none) and the link the response takes back
        nxt = np.full((V, D + 1), -1, dtype=np.int32)
        nxt[:, :D] = np.where(self.real, topology.dst[self.links], -1)
        back = np.zeros((V, D + 1), dtype=np.int32)
        back[:, :D] = topology.rev[self.links]
        self.width = D
        self.next_node = nxt.ravel()
        self.back_link = back.ravel()
        self.n_tokens = n_tokens
        self.cur = np.zeros((num_items * V, n_tokens), dtype=np.min_scalar_type(D))
        self.used = np.full(num_items * V, n_tokens)   # every pool starts empty
        self.rng = rng
        self._columns = np.arange(D, dtype=self.cur.dtype)
        # pool ids in the smallest unsigned type, so that a stable argsort
        # of them is a radix sort
        self.pool_dtype = np.min_scalar_type(num_items * V)

    def rebuild(self, weights):
        """Put the (C, E) routing weights in force for the next refills."""
        counts = apportion_table(np.where(self.real, weights[:, self.links], 0.0),
                                 self.n_tokens)
        C, V, D = counts.shape
        self.counts = counts.reshape(C * V, D).astype(np.min_scalar_type(self.n_tokens))
        self.n_next = np.count_nonzero(self.counts, axis=1)

    def _refills(self, pools):
        """One fresh refill for each entry of ``pools``: (R, n_tokens) columns."""
        rows = np.repeat(np.tile(self._columns, pools.size),
                         self.counts[pools].ravel()).reshape(pools.size, -1)
        multi = self.n_next[pools] > 1
        if multi.any():
            rows[multi] = self.rng.permuted(rows[multi], axis=1)
        return rows

    def draw(self, pool):
        """One token per request for requests at flat pools ``pool`` (in
        request order): the requests at one pool take consecutive tokens in
        request order, refilling as often as they need.  A request whose
        pool is empty and has no routing gets column ``width``."""
        N = self.n_tokens
        m = pool.size
        order = np.argsort(pool.astype(self.pool_dtype), kind="stable")
        sp = pool[order]
        edge = np.empty(m + 1, dtype=bool)
        edge[0] = edge[m] = True
        np.not_equal(sp[1:], sp[:-1], out=edge[1:m])
        edge = np.flatnonzero(edge)     # where each pool's requests start, and m
        first = edge[:-1]
        cnt = edge[1:] - first
        ups = sp[first]
        used = self.used[ups]
        # each request's position in its pool's tokens, counted from the
        # start of the refill in use
        pos = np.arange(m) + np.repeat(used - first, cnt)
        tok = self.cur.ravel()[sp * N + np.minimum(pos, N - 1)]
        used += cnt
        over = used > N                 # pools that run past the refill in use
        if over.any():
            later = np.flatnonzero(pos >= N)
            owner = np.searchsorted(first, later, side="right") - 1
            refill, offset = np.divmod(pos[later] - N, N)
            routed = self.n_next[ups] > 0
            new = np.where(routed, (used - 1) // N, 0)   # fresh refills
            if new.any():
                rows = self._refills(np.repeat(ups, new))
                start = np.cumsum(new) - new
                ok = routed[owner]
                tok[later[ok]] = rows[start[owner[ok]] + refill[ok], offset[ok]]
                has = new > 0
                self.cur[ups[has]] = rows[(start + new - 1)[has]]
            tok[later[~routed[owner]]] = self.width
            used[over] = np.where(routed[over], (used[over] - 1) % N + 1, N)
        self.used[ups] = used
        out = np.empty_like(tok)
        out[order] = tok
        return out


def walk_slot(sim, t0, item, node):
    """Walk one slot's arrivals (t0 in time order) on ``sim``'s token pools
    (``sim.tokens``), and give their hops to ``sim.count``.

    The policy's hooks are not called per hop.  An unroutable hop goes to
    ``policy.failsafe_neighbors``, one call per such hop.  With a trace,
    each step's lines are written as it is walked.
    """
    n = t0.size
    if not n:
        return
    policy, tokens, trace = sim.policy, sim.tokens, sim.trace
    top, dem = sim.scenario.topology, sim.scenario.demand
    V = top.num_nodes
    W = tokens.width + 1
    next_node, back_link = tokens.next_node, tokens.back_link
    lat, stop = sim.schedule.hop_latency, sim.stop
    at_server = dem.server_mask.ravel()
    hit = np.logical_or(policy.slot_hits(), dem.server_mask).ravel()
    req = np.arange(n, dtype=np.int32)
    base = (item * V).astype(np.int32)   # flat (item, node 0)
    node = node.astype(np.int32)
    t_live = t0
    depth = np.full(n, -1, dtype=np.int32)   # forward hops, once a holder is hit
    steps = []        # per step: (requests, back links, flat (item, node))
    visit_t, visit_at, lost_t = [], [], []
    h = 0
    while req.size:
        stamp = t_live + h * lat    # in time order, as t_live is
        if stamp[-1] >= stop:       # the rest ends in flight
            cut = int(stamp.searchsorted(stop))
            sim.in_flight += req.size - cut
            req, t_live, base, node, stamp = (
                req[:cut], t_live[:cut], base[:cut], node[:cut], stamp[:cut])
            if not cut:
                break
        at = base + node
        visit_t.append(stamp)
        visit_at.append(at)
        found = hit[at]
        if found.any():
            depth[req[found]] = h
            if trace is not None:
                _trace_hits(trace, stamp[found], node[found], base[found] // V,
                            at_server[at[found]])
            keep = np.flatnonzero(~found)
            if not keep.size:
                break
            req, t_live, base, node, at = (
                req[keep], t_live[keep], base[keep], node[keep], at[keep])
        col = node * W + tokens.draw(at)
        nxt = next_node[col]
        link = back_link[col]
        lost = np.flatnonzero(nxt < 0)
        if lost.size:
            for j in lost.tolist():
                i, k = int(node[j]), int(base[j]) // V
                sim.unroutable_total += 1
                lost_t.append(float(t_live[j] + h * lat))
                alt = sim._failsafe_hop(i, k)
                if alt is not None:
                    nxt[j], link[j] = alt, top.edge_index[(alt, i)]
            keep = np.flatnonzero(nxt >= 0)   # no neighbour at all: dropped
            req, t_live, base, node, at, nxt, link = (
                a[keep] for a in (req, t_live, base, node, at, nxt, link))
        if trace is not None:
            trace.writelines(
                f"{s:.6f} fwd node={i} item={k} to={j}\n"
                for s, i, k, j in zip((t_live + h * lat).tolist(), node.tolist(),
                                      (base // V).tolist(), nxt.tolist()))
        steps.append((req, link, at))
        node = nxt
        h += 1

    # responses: hop 2H - h of a request with H forward hops crosses
    # back over its step-h link, and its path cost adds that link's d
    done = depth >= 0
    late = t0[done] + (2 * depth[done]) * lat >= stop
    n_late = int(np.count_nonzero(late))
    sim.in_flight += n_late
    sim.responses_delivered += late.size - n_late
    d = sim.d_weights
    cum = np.zeros(n)
    hops = []
    for h in range(len(steps) - 1, -1, -1):
        req, link, at = steps[h]
        back = np.flatnonzero(done[req])
        req, link, at = req[back], link[back], at[back]
        cum[req] += d[link]
        hops.append((t0[req] + (2 * depth[req] - h) * lat, link, at, cum[req]))
    sim.count(hops, (np.concatenate(visit_t), np.concatenate(visit_at)),
              np.array(lost_t))


def _trace_hits(trace, stamp, node, item, at_server):
    trace.writelines(
        f"{s:.6f} {'server' if srv else 'hit'} node={i} item={k}\n"
        for s, i, k, srv in zip(stamp.tolist(), node.tolist(), item.tolist(),
                                at_server.tolist()))

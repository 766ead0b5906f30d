"""Packet-level simulator with request-atomic and hop-synchronous walks.

Requests arrive per (node, item) as Poisson processes.  Each slot draws its
arrivals at once: the count from Poisson(Lambda * t_slot), where Lambda is
the total request rate, each arrival's (node, item) pair from one
categorical draw over the pairs with a positive rate, and its time as a
sorted uniform.  A request is forwarded hop by hop with token-based
randomized forwarding until a cache hit or a designated server, and its
response retraces the path in reverse.  Per-link response counts over
monitor windows give the measured flows and costs.  Strategies are
re-rounded into cache decisions at every slot start and updated by the
active policy at every update slot (the last slot of a period).

There are two walks, and the policy's ``slot_hits`` hook picks one for the
run:

- **The array walk** (``arraywalk.ArrayWalk``), for policies whose cache
  hits and routing stay fixed within a slot (``slot_hits`` returns the
  slot's (C, V) hit mask: the relaxed-strategy policies and CostGreedy).
  A slot's requests are walked together after its arrivals are drawn:
  every live request advances one hop per numpy step, with a hit test
  against the mask (caches or servers), a token draw from the array token
  pools and the next node.  One backward pass over the stored steps then
  gives the response hops and their path costs.
- **The request-atomic walk** (``slot_hits`` returns None; the eviction
  policies, whose state changes per request).  Each arrival is walked in
  one call, and every per-hop hook of the policy is called.

Only arrivals and the slot and window boundaries drive the loop; there is no
event queue.  The fixed hop latency only stamps hops: hop h of a request
that arrived at t0 (its response hops continue the count) is stamped
t0 + h * hop_latency, and that stamp alone decides which monitor window the
hop is counted in and whether it falls in a measured slot.  A hop stamped
past the current window or slot is held until the loop reaches it.  A
request whose next stamp reaches the end of the run stops there and counts
as in flight.  A walk sees the caches and routing of the moment its request
arrived.  All costs are computed from counted flows, never from simulated
latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arraywalk import ArrayWalk, TokenPools
from .errors import require_count, require_finite_positive

N_TOKEN = 50
FOLD_EVERY = 512   # arrivals walked between two folds of the per-hop lists

# kinds of the hops a walk stamps past the current segment
_VISIT, _RESPONSE, _UNROUTABLE = 0, 1, 2


@dataclass
class SimSchedule:
    t_slot: float = 10.0
    slots_per_period: int = 20
    periods: int = 100
    t_monitor: float = None   # defaults to t_slot
    hop_latency: float = 0.01

    def __post_init__(self):
        require_count(self.periods, "periods must be an integer")
        require_count(self.slots_per_period, "slots_per_period must be an integer")
        if self.t_monitor is None:
            self.t_monitor = self.t_slot
        for name in ("t_slot", "t_monitor", "hop_latency"):
            require_finite_positive(getattr(self, name), name)


def apportion_tokens(weights, n_tokens=N_TOKEN):
    """Largest-remainder apportionment of n_tokens across next hops.

    weights: list of (neighbor, weight) with nonnegative weights summing to
    anything positive.  Ties in remainders break toward the lowest id.
    Returns a dict neighbor -> token count summing exactly to n_tokens.
    """
    total = sum(w for _, w in weights)
    if total <= 0:
        return {}
    shares = [(j, n_tokens * w / total) for j, w in weights]
    counts = {j: int(math.floor(s)) for j, s in shares}
    left = n_tokens - sum(counts.values())
    remainders = sorted(
        ((s - math.floor(s), j) for j, s in shares),
        key=lambda t: (-t[0], t[1]),
    )
    for _, j in remainders[:left]:
        counts[j] += 1
    return {j: c for j, c in counts.items() if c > 0}


@dataclass
class WindowRecord:
    period: int
    slot: int
    time: float
    measured_link_cost: float
    measured_cache_cost: float
    measured_total: float
    theoretical_total: float
    total_cache_size: float
    unroutable: int
    messages: int
    measured_F: np.ndarray = None


@dataclass
class SimulationRun:
    records: list
    policy: object
    requests_issued: int
    responses_delivered: int
    in_flight: int
    unroutable_total: int
    miss_cost: np.ndarray        # per node, cumulative
    miss_cost_item: np.ndarray   # per (item, node), cumulative

    def steady_state_mean(self, skip_fraction=0.5, fieldname="measured_total"):
        vals = [getattr(r, fieldname) for r in self.records]
        start = int(len(vals) * skip_fraction)
        return float(np.mean(vals[start:]))


class Simulator:
    """One run of one scenario under one policy.

    The run is cut into segments by the window and slot boundaries.  The
    request-atomic walk appends the hops stamped inside the current segment
    to plain lists (the response link, the (item, node) of a visit, the
    miss cost paid at a node) and folds them into the count arrays with
    ``np.bincount`` every ``FOLD_EVERY`` arrivals and when the segment ends,
    before the boundary's policy hooks run.  The array walk
    (``arraywalk.ArrayWalk``) counts a slot's hops stamped inside the
    segment the slot starts in as soon as the slot is walked, and holds the
    later ones, with the window and slot of each stamp, until the loop
    reaches them.
    """

    def __init__(self, scenario, policy, schedule, seed, trace=None,
                 keep_flow_samples=False):
        self.scenario = scenario
        self.policy = policy
        self.schedule = schedule
        self.rng = np.random.default_rng(seed)
        self.seed = seed
        self.trace = trace
        self.keep_flow_samples = keep_flow_samples

        top = scenario.topology
        C, V = scenario.demand.num_items, top.num_nodes
        self.num_nodes = V
        self.d_weights = scenario.cost.link_deriv(np.zeros(top.num_links))
        self.pools = {}   # item * V + node -> its unused next-hop tokens
        self.tokens = None   # the array walk's TokenPools
        self.window_counts = np.zeros(top.num_links)
        self.period_counts = np.zeros(top.num_links)
        self.period_arrivals = np.zeros((C, V))
        self.measure_active = True
        self.window_unroutable = 0
        self.miss_cost = np.zeros(V)
        self.miss_cost_item = np.zeros((C, V))
        self.requests_issued = 0
        self.responses_delivered = 0
        self.in_flight = 0
        self.unroutable_total = 0
        self.records = []
        self._pending_messages = 0

        sched = schedule
        horizon = sched.periods * sched.slots_per_period * sched.t_slot
        self.n_windows = int(round(horizon / sched.t_monitor))
        # nothing is stamped at or past the horizon or the last window's end
        self.stop = min(horizon, self.n_windows * sched.t_monitor)
        self.window_idx, self.window_end = 0, sched.t_monitor
        self.slot_idx, self.slot_end = 0, sched.t_slot
        self.seg_end = min(self.window_end, self.slot_end)
        # the current segment's hops, and the hops stamped past it
        self.seg_links = []      # response link of each response hop
        self.seg_miss_at = []    # flat (item, node) it arrives at
        self.seg_miss = []       # and the path cost paid to get there
        self.seg_visits = []     # flat (item, node) of each request visit
        self.pending = []        # (stamp, kind, a, b, c), stamped later

    # -- forwarding ------------------------------------------------------

    def token_forward(self, node, item):
        """Draw a next hop for (node, item), refilling its pool on demand.

        A refill lists the tokens in next-hop order and shuffles them once
        (when there are two or more next hops); draws pop from the end, so
        a refill's tokens come out in one random order.
        """
        key = item * self.num_nodes + node
        toks = self.pools.get(key)
        if toks:
            return toks.pop()
        counts = apportion_tokens(self.policy.routing_weights(node, item))
        if not counts:
            return None
        toks = []
        for j in sorted(counts):
            toks.extend([j] * counts[j])
        if len(counts) > 1:
            self.rng.shuffle(toks)
        self.pools[key] = toks
        return toks.pop()

    def _failsafe_hop(self, node, item):
        options = self.policy.failsafe_neighbors(node, item)
        return options[0] if options else None

    # -- the run -----------------------------------------------------------

    def run(self):
        self.policy.setup(self.scenario, self)
        self.policy.on_slot(0, 0)
        if self.policy.slot_hits() is None:
            self._run_request_walk()
        else:
            self._run_array_walk()
        return SimulationRun(
            records=self.records,
            policy=self.policy,
            requests_issued=self.requests_issued,
            responses_delivered=self.responses_delivered,
            in_flight=self.in_flight,
            unroutable_total=self.unroutable_total,
            miss_cost=self.miss_cost,
            miss_cost_item=self.miss_cost_item,
        )

    def _arrivals(self):
        """Each slot's arrivals, drawn when the loop reaches the slot:
        (slot end, times in order, items, nodes), none at or past the end
        of the run."""
        sched = self.schedule
        rates = self.scenario.demand.rates.ravel()
        pairs = np.flatnonzero(rates > 0)   # flat (item, node)
        cum = np.cumsum(rates[pairs])
        total = float(cum[-1]) if pairs.size else 0.0
        V = self.num_nodes
        rng = self.rng
        n_slots = sched.periods * sched.slots_per_period
        for slot in range(n_slots if total > 0 else 0):
            start = slot * sched.t_slot
            if start >= self.stop:
                break
            n = int(rng.poisson(total * sched.t_slot))
            times = start + np.sort(rng.random(n)) * sched.t_slot
            picks = pairs[np.searchsorted(cum, rng.random(n) * total,
                                          side="right")]
            n = int(np.searchsorted(times, self.stop))   # none issued past the end
            self.requests_issued += n
            item, node = np.divmod(picks[:n], V)
            yield (slot + 1) * sched.t_slot, times[:n], item, node

    def _run_request_walk(self):
        walk = self._walker()
        for _, times, item, node in self._arrivals():
            # a chunk of arrivals at a time, folding after each, keeps the
            # per-hop lists short
            for lo in range(0, times.size, FOLD_EVERY):
                hi = lo + FOLD_EVERY
                seg_end = self.seg_end
                for t0, k, i in zip(times[lo:hi].tolist(), item[lo:hi].tolist(),
                                    node[lo:hi].tolist()):
                    if t0 >= seg_end:
                        self._advance(t0)
                        seg_end = self.seg_end
                    walk(t0, k, i, seg_end)
                self._fold()
        self._advance(self.stop)
        self._fold()
        self.pools.clear()   # the token pools live for one run
        while self.window_idx < self.n_windows:
            self._flush_window(self.window_idx,
                               (self.window_idx + 1) * self.schedule.t_monitor)
            self.window_idx += 1

    def _walker(self):
        """walk(t0, k, node, seg_end): the request for item k born at node
        at time t0, and its response, in one call.

        Every node the request visits gets ``policy.is_hit``, and a miss
        gets one ``token_forward`` (the failsafe neighbour when the tokens
        give none).  Every node the response passes gets
        ``policy.on_response_pass``.  Hops stamped before ``seg_end`` go to
        the segment lists, later ones to ``pending``.
        """
        top, dem = self.scenario.topology, self.scenario.demand
        V = top.num_nodes
        policy = self.policy
        is_hit, on_hit = policy.is_hit, policy.on_hit
        on_response_pass = policy.on_response_pass
        token_forward = self.token_forward
        servers = dem.servers
        link_to = [{} for _ in range(V)]   # link_to[node][nxt]: link nxt -> node
        for (a, b), e in top.edge_index.items():
            link_to[b][a] = e
        d = self.d_weights.tolist()
        lat = self.schedule.hop_latency
        trace = self.trace
        links, miss_at, miss = self.seg_links, self.seg_miss_at, self.seg_miss
        visits = self.seg_visits
        defer = self._defer

        def walk(t0, k, node, seg_end):
            srv = servers[k]
            kV = k * V
            path = [node]
            hops = []            # the response link of each request hop
            h = 0
            stamp = t0
            while True:
                if stamp < seg_end:
                    visits.append(kV + node)
                elif not defer(stamp, _VISIT, kV + node):
                    return
                if is_hit(node, k) or node in srv:
                    on_hit(node, k)
                    if trace is not None:
                        kind = "server" if node in srv else "hit"
                        trace.write(f"{stamp:.6f} {kind} node={node} item={k}\n")
                    break
                nxt = token_forward(node, k)
                if nxt is None:
                    self.unroutable_total += 1
                    if stamp < seg_end:
                        self.window_unroutable += 1
                    else:
                        defer(stamp, _UNROUTABLE)
                    nxt = self._failsafe_hop(node, k)
                    if nxt is None:
                        return   # reported; dropped only if truly no neighbor
                if trace is not None:
                    trace.write(f"{stamp:.6f} fwd node={node} item={k} to={nxt}\n")
                hops.append(link_to[node][nxt])
                path.append(nxt)
                node = nxt
                h += 1
                stamp = t0 + h * lat
            cum = 0.0
            for pos in range(len(hops) - 1, -1, -1):
                h += 1
                stamp = t0 + h * lat
                e = hops[pos]
                node = path[pos]
                cum += d[e]
                if stamp < seg_end:
                    links.append(e)
                    miss_at.append(kV + node)
                    miss.append(cum)
                elif not defer(stamp, _RESPONSE, e, kV + node, cum):
                    return
                on_response_pass(node, k)
            self.responses_delivered += 1

        return walk

    def _defer(self, stamp, kind, a=None, b=None, c=None):
        """Keep a hop stamped past the current segment for the segment its
        stamp falls in; past the end of the run the request is in flight
        and the walk stops (returns False)."""
        if stamp >= self.stop:
            self.in_flight += 1
            return False
        self.pending.append((stamp, kind, a, b, c))
        return True

    # -- the array walk ------------------------------------------------------

    def _run_array_walk(self):
        top, dem = self.scenario.topology, self.scenario.demand
        self.tokens = TokenPools(top, dem.num_items, N_TOKEN, self.rng)
        self.tokens.rebuild(self.policy.routing_array())
        walk = ArrayWalk(self)
        for end, times, item, node in self._arrivals():
            walk.walk(end, times, item, node)
            walk.advance(min(end, self.stop))
        walk.advance(self.stop)
        walk.finish()
        self.tokens = None   # the token pools live for one run

    # -- boundaries --------------------------------------------------------

    def _advance(self, until):
        """Process, in time order, every window and slot boundary at or
        before ``until`` (a window first when both fall together)."""
        sched = self.schedule
        while until >= self.seg_end and self.window_idx < self.n_windows:
            self._fold()
            if self.window_end <= self.slot_end:
                self._flush_window(self.window_idx, self.window_end)
                self.window_idx += 1
                self.window_end = (self.window_idx + 1) * sched.t_monitor
            else:
                self.slot_idx += 1
                self._slot_boundary(self.slot_idx)
                self.slot_end = (self.slot_idx + 1) * sched.t_slot
            self.seg_end = min(self.window_end, self.slot_end)
            if self.pending:
                self._release_pending()

    def _release_pending(self):
        """Move the buffered hops stamped inside the new segment into it."""
        later = []
        for entry in self.pending:
            stamp, kind, a, b, c = entry
            if stamp >= self.seg_end:
                later.append(entry)
            elif kind == _VISIT:
                self.seg_visits.append(a)
            elif kind == _RESPONSE:
                self.seg_links.append(a)
                self.seg_miss_at.append(b)
                self.seg_miss.append(c)
            else:
                self.window_unroutable += 1
        self.pending = later

    def _fold(self):
        """Add the current segment's hops to the count arrays and empty its
        lists: window link counts always, the period's link counts and
        arrivals only while measurement is active, miss costs always."""
        C, V = self.miss_cost_item.shape
        if self.seg_links:
            counts = np.bincount(self.seg_links,
                                 minlength=self.window_counts.size)
            self.window_counts += counts
            if self.measure_active:
                self.period_counts += counts
            at = np.array(self.seg_miss_at)
            self.miss_cost_item += np.bincount(
                at, weights=self.seg_miss, minlength=C * V).reshape(C, V)
            self.miss_cost += np.bincount(at % V, weights=self.seg_miss,
                                          minlength=V)
        if self.seg_visits and self.measure_active:
            self.period_arrivals += np.bincount(
                self.seg_visits, minlength=C * V).reshape(C, V)
        for seg in (self.seg_links, self.seg_miss_at, self.seg_miss,
                    self.seg_visits):
            seg.clear()

    def _slot_boundary(self, slot_idx):
        L = self.schedule.slots_per_period
        period, slot = divmod(slot_idx, L)
        if period >= self.schedule.periods:
            return
        if slot == 0 and period > 0:
            # period boundary: apply the policy update with the measured
            # averages of the previous period's first (L-1) slots (the whole
            # single slot when L = 1)
            meas_slots = max(1, L - 1)
            elapsed = meas_slots * self.schedule.t_slot
            msgs = self.policy.on_update(
                period - 1,
                self.period_counts / elapsed,
                self.period_arrivals / elapsed,
            )
            self._pending_messages += int(msgs or 0)
            self.period_counts[:] = 0.0
            self.period_arrivals[:] = 0.0
            self.measure_active = True
            if self.tokens is not None:
                self.tokens.rebuild(self.policy.routing_array())
        if slot == L - 1 and L > 1:
            # entering the update slot: freeze this period's measurement
            self.measure_active = False
        self.policy.on_slot(period, slot)

    def _flush_window(self, window_idx, window_end):
        sched = self.schedule
        scen = self.scenario
        slot_idx = int((window_end - 1e-9) // sched.t_slot)
        period, slot = divmod(slot_idx, sched.slots_per_period)
        F_hat = self.window_counts / sched.t_monitor
        link_cost = float(scen.cost.link_cost(F_hat).sum())
        X = self.policy.cache_occupancy()
        cache_cost = float(scen.cost.cache_cost(X).sum())
        theo = self.policy.theoretical_total(scen)
        self.records.append(WindowRecord(
            period=period,
            slot=slot,
            time=window_end,
            measured_link_cost=link_cost,
            measured_cache_cost=cache_cost,
            measured_total=link_cost + cache_cost,
            theoretical_total=theo,
            total_cache_size=float(X.sum()),
            unroutable=self.window_unroutable,
            messages=self._pending_messages,
            measured_F=F_hat.copy() if self.keep_flow_samples else None,
        ))
        self.window_counts[:] = 0.0
        self.window_unroutable = 0
        self._pending_messages = 0


def run_simulation(scenario, policy, schedule, seed, trace=None,
                   keep_flow_samples=False):
    """Run one packet-level simulation; returns a SimulationRun.

    The policy's reference to the simulator (set by ``SimPolicy.setup``) is
    dropped when the run ends, so the simulator is freed by reference
    counting instead of waiting for a cyclic collection.
    """
    sim = Simulator(scenario, policy, schedule, seed, trace, keep_flow_samples)
    try:
        return sim.run()
    finally:
        policy.sim = None

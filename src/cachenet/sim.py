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
run.  Both only record hops; one ledger counts them (``Simulator.count``):

- **The array walk** (``arraywalk.walk_slot``), for policies whose cache
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
hop is counted in and whether it falls in a measured slot.  The ledger
counts a hop stamped in the current window and slot at once and holds a
later one until the loop reaches its window and slot.  The run ends with
its last whole monitor window; a request whose next stamp reaches the end
stops there and counts as in flight.  A walk sees the caches and routing of
the moment its request arrived.  All costs are computed from counted flows,
never from simulated latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arraywalk import TokenPools, walk_slot
from .errors import ConfigurationError, require_count, require_finite_positive

N_TOKEN = 50


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
        if self.n_windows == 0:
            raise ConfigurationError(
                f"t_monitor={self.t_monitor} is longer than the run "
                f"({self.periods * self.slots_per_period * self.t_slot})")

    @property
    def n_windows(self):
        """The whole monitor windows in the run, which ends with the last."""
        horizon = self.periods * self.slots_per_period * self.t_slot
        return math.floor(horizon / self.t_monitor + 1e-9)


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

    The walks only record hops; one ledger counts them.  The run is cut into
    segments by the window and slot boundaries.  ``count`` takes a walk's
    records, each hop with its stamp: it counts at once the response hops
    stamped in the current segment and the visits stamped in the current
    slot, and holds every other hop with the window and slot of its stamp.
    ``advance`` processes the boundaries in time order, each with the held
    hops stamped in its window or slot, before the boundary's policy hooks
    run.  The array walk hands over each slot once it is walked.  The
    request-atomic walk hands over before an arrival at or past the current
    segment's end and after each slot.
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
        n_slots = sched.periods * sched.slots_per_period
        self.n_windows = sched.n_windows
        # nothing is stamped at or past the horizon or the last window's end
        self.stop = min(n_slots * sched.t_slot, self.n_windows * sched.t_monitor)
        self.window_idx, self.window_end = 0, sched.t_monitor
        self.slot_idx, self.slot_end = 0, sched.t_slot
        self.seg_end = min(self.window_end, self.slot_end)
        window_ends = (np.arange(self.n_windows) + 1) * sched.t_monitor
        slot_ends = (np.arange(n_slots) + 1) * sched.t_slot
        # the segments' ends, and the window and slot each segment lies in;
        # these are the products the boundaries are compared with, so a
        # boundary stamp is held for the segment it is counted in
        self.bounds = np.sort(np.concatenate((window_ends, slot_ends)))
        start = np.concatenate(([0.0], self.bounds[:-1]))
        self.seg_window = np.searchsorted(window_ends, start, "right").astype(np.int32)
        self.seg_slot = np.searchsorted(slot_ends, start, "right").astype(np.int32)
        none = np.zeros(0, dtype=np.int32)
        # held hops: response hops (window, slot, link, flat (item, node),
        # path cost), visits (slot, flat (item, node)), unroutable (window)
        self.held_hops = (none, none, none, none, np.zeros(0))
        self.held_visits = (none, none)
        self.held_unroutable = none

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

    # -- the request-atomic walk -------------------------------------------

    def _run_request_walk(self):
        # the walk's records since the last hand-off: per request its
        # numbers of visits and of response hops; per visit its flat
        # (item, node); per response hop its link and the path cost paid
        # where it arrives; per unroutable hop its stamp
        self.n_visits, self.n_responses = [], []
        self.visits, self.links, self.paid, self.lost = [], [], [], []
        walk = self._walker()
        lat, stop = self.schedule.hop_latency, self.stop
        for end, times, item, node in self._arrivals():
            # per request, a hop up to which every stamp is before the end
            # of the run (stamps do not decrease with h, so checking this
            # hop's covers the earlier ones), or -1; capped to stay an int
            safe = np.minimum((stop - times) / lat, 1e15).astype(np.int64) - 1
            safe[times + safe * lat >= stop] = -1
            first, seg_end = 0, self.seg_end
            for t0, k, i, s in zip(times.tolist(), item.tolist(), node.tolist(),
                                   safe.tolist()):
                if t0 >= seg_end:
                    first = self._hand_off(times, first)
                    self.advance(t0)
                    seg_end = self.seg_end
                walk(t0, k, i, s)
            self._hand_off(times, first)
            self.advance(min(end, stop))
        self.pools.clear()   # the token pools live for one run
        self.finish()

    def _walker(self):
        """walk(t0, k, node, safe): the request for item k born at node at
        time t0, and its response, in one call; hops up to ``safe`` are
        stamped before the end of the run.

        Every node the request visits gets ``policy.is_hit``, and a miss
        gets one ``token_forward`` (the failsafe neighbour when the tokens
        give none).  Every node the response passes gets
        ``policy.on_response_pass``.  The walk records its hops for
        ``_hand_off`` and stops at the first hop stamped at or past the end
        of the run.
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
        lat, stop = self.schedule.hop_latency, self.stop
        trace = self.trace
        n_visits, n_responses = self.n_visits, self.n_responses
        visits, links, paid, lost = self.visits, self.links, self.paid, self.lost

        def walk(t0, k, node, safe):
            srv = servers[k]
            kV = k * V
            path = [node]
            hops = []            # the response link of each request hop
            h = 0
            while True:
                if h > safe and t0 + h * lat >= stop:
                    self.in_flight += 1
                    n_visits.append(h)
                    n_responses.append(0)
                    return
                visits.append(kV + node)
                if is_hit(node, k) or node in srv:
                    on_hit(node, k)
                    if trace is not None:
                        kind = "server" if node in srv else "hit"
                        trace.write(f"{t0 + h * lat:.6f} {kind} node={node} item={k}\n")
                    break
                nxt = token_forward(node, k)
                if nxt is None:
                    self.unroutable_total += 1
                    lost.append(t0 + h * lat)
                    nxt = self._failsafe_hop(node, k)
                    if nxt is None:   # reported; dropped only if truly no neighbor
                        n_visits.append(h + 1)
                        n_responses.append(0)
                        return
                if trace is not None:
                    trace.write(f"{t0 + h * lat:.6f} fwd node={node} item={k} to={nxt}\n")
                hops.append(link_to[node][nxt])
                path.append(nxt)
                node = nxt
                h += 1
            # response hop j is hop h + j; the ones stamped before the end
            n = h
            if 2 * h > safe:
                n = 0
                while n < h and t0 + (h + n + 1) * lat < stop:
                    n += 1
            cum = 0.0
            for pos in range(h - 1, h - 1 - n, -1):
                e = hops[pos]
                cum += d[e]
                links.append(e)
                paid.append(cum)
                on_response_pass(path[pos], k)
            n_visits.append(h + 1)
            n_responses.append(n)
            if n < h:
                self.in_flight += 1
            else:
                self.responses_delivered += 1

        return walk

    def _hand_off(self, times, first):
        """Give the ledger the records of the requests walked since the last
        hand-off, ``times[first:]`` in walk order, each hop stamped as the
        walk stamps it; returns the index of the next request."""
        if not self.n_visits:
            return first
        n_visits = np.array(self.n_visits, dtype=np.intp)
        n_resp = np.array(self.n_responses, dtype=np.intp)
        t0 = times[first:first + n_visits.size]
        visits = np.array(self.visits, dtype=np.intp)
        lat = self.schedule.hop_latency

        def hop(n, h0):
            # hops h0 to h0 + n - 1 of each request
            return np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - h0, n)

        # response hop m, hop n_visits + m, arrives where visit
        # n_visits - 2 - m was made
        h = hop(n_resp, n_visits)
        at = visits[np.repeat(np.cumsum(n_visits) + n_visits - 2, n_resp) - h]
        self.count([(np.repeat(t0, n_resp) + h * lat, np.array(self.links, dtype=np.intp),
                     at, np.array(self.paid))],
                   (np.repeat(t0, n_visits) + hop(n_visits, 0) * lat, visits),
                   np.array(self.lost))
        for records in (self.n_visits, self.n_responses, self.visits, self.links,
                        self.paid, self.lost):
            records.clear()
        return first + n_visits.size

    # -- the array walk ------------------------------------------------------

    def _run_array_walk(self):
        top, dem = self.scenario.topology, self.scenario.demand
        self.tokens = TokenPools(top, dem.num_items, N_TOKEN, self.rng)
        self.tokens.rebuild(self.policy.routing_array())
        for end, times, item, node in self._arrivals():
            walk_slot(self, times, item, node)
            self.advance(min(end, self.stop))
        self.finish()
        self.tokens = None   # the token pools live for one run

    # -- the ledger ----------------------------------------------------------

    def count(self, hops, visits, unroutable):
        """Count a walk's records now or hold them for later segments.

        ``hops``: chunks of response hops (stamps, links, flat (item, node)
        arrived at, path costs), each chunk's miss costs summed apart;
        ``visits``: (stamps, flat (item, node)); ``unroutable``: stamps.  A
        response hop stamped in the current segment counts now in the
        window, and in the period's measurement while it is on; a visit
        stamped in the current slot counts now in the measurement.  The
        other hops, unroutable ones included, are held with the window and
        slot of their stamp; response hops stamped at or past the end of
        the run are dropped.
        """
        cost = np.zeros(self.miss_cost_item.size)
        counts = np.zeros(self.window_counts.size)
        held = []
        for stamp, link, at, paid in hops:
            past = stamp >= self.seg_end
            if past.any():
                out = past & (stamp < self.stop)
                held.append((stamp[out], link[out], at[out], paid[out]))
                now = ~past
                link, at, paid = link[now], at[now], paid[now]
            cost += np.bincount(at, weights=paid, minlength=cost.size)
            counts += np.bincount(link, minlength=counts.size)
        cost = cost.reshape(self.miss_cost_item.shape)
        self.miss_cost_item += cost
        self.miss_cost += cost.sum(axis=0)
        self.window_counts += counts
        if self.measure_active:
            self.period_counts += counts
        if held:
            stamp, *rest = (np.concatenate(parts) for parts in zip(*held))
            seg = np.searchsorted(self.bounds, stamp, "right")
            new = [self.seg_window[seg], self.seg_slot[seg], *rest]
            self.held_hops = tuple(np.concatenate(pair)
                                   for pair in zip(self.held_hops, new))

        stamp, at = visits
        later = stamp >= self.slot_end
        if self.measure_active:
            self.period_arrivals += np.bincount(
                at[~later], minlength=self.period_arrivals.size
            ).reshape(self.period_arrivals.shape)
        if later.any():
            slot, held_at = self.held_visits
            seg = np.searchsorted(self.bounds, stamp[later], "right")
            self.held_visits = (np.concatenate((slot, self.seg_slot[seg])),
                                np.concatenate((held_at, at[later])))
        if unroutable.size:
            seg = np.searchsorted(self.bounds, unroutable, "right")
            self.held_unroutable = np.concatenate((self.held_unroutable,
                                                   self.seg_window[seg]))

    def advance(self, until):
        """Process, in time order, every window and slot boundary at or
        before ``until`` (a window first when both fall together), each
        with the held hops stamped in its window or slot; then drop the
        held hops counted in both."""
        t_slot = self.schedule.t_slot
        while until >= self.seg_end and self.window_idx < self.n_windows:
            if self.window_end <= self.slot_end:
                self._flush_window()
            else:
                self._fold_slot()
                self.slot_idx += 1
                self._slot_boundary(self.slot_idx)
                self.slot_end = (self.slot_idx + 1) * t_slot
            self.seg_end = min(self.window_end, self.slot_end)
        win, slot = self.held_hops[:2]
        keep = (win >= self.window_idx) | (slot >= self.slot_idx)
        if not keep.all():
            self.held_hops = tuple(a[keep] for a in self.held_hops)
        slot, at = self.held_visits
        keep = slot >= self.slot_idx
        self.held_visits = (slot[keep], at[keep])
        self.held_unroutable = self.held_unroutable[
            self.held_unroutable >= self.window_idx]

    def finish(self):
        """Process the boundaries up to the end of the run, fold the last
        slot's held hops and flush the windows left."""
        self.advance(self.stop)
        self._fold_slot()
        while self.window_idx < self.n_windows:
            self._flush_window()

    def _fold_slot(self):
        """Fold the held hops stamped in the current slot: miss costs
        always, link counts and visits into the period's measurement when
        it is on."""
        s = self.slot_idx
        _, slot, link, at, paid = self.held_hops
        here = slot == s
        if here.any():
            cost = np.bincount(at[here], weights=paid[here],
                               minlength=self.miss_cost_item.size
                               ).reshape(self.miss_cost_item.shape)
            self.miss_cost_item += cost
            self.miss_cost += cost.sum(axis=0)
            if self.measure_active:
                self.period_counts += np.bincount(link[here],
                                                  minlength=self.period_counts.size)
        if self.measure_active:
            slot, at = self.held_visits
            self.period_arrivals += np.bincount(
                at[slot == s], minlength=self.period_arrivals.size
            ).reshape(self.period_arrivals.shape)

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

    def _flush_window(self):
        """Close the current window with its held hops, record it and start
        the next."""
        sched = self.schedule
        scen = self.scenario
        w, window_end = self.window_idx, self.window_end
        win, link = self.held_hops[0], self.held_hops[2]
        self.window_counts += np.bincount(link[win == w],
                                          minlength=self.window_counts.size)
        self.window_unroutable += int(np.count_nonzero(self.held_unroutable == w))
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
        self.window_idx += 1
        self.window_end = (self.window_idx + 1) * sched.t_monitor


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

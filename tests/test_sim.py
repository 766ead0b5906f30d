"""Packet-level simulator: forwarding, measurement, policies."""

import dataclasses
import gc
import hashlib
import json
import pathlib
import weakref

import numpy as np
import pytest

from cachenet.blocking import dynamic_blocked_sets
from cachenet.errors import ConfigurationError, StructuralError
from cachenet.flow import Strategy, solve_traffic
from cachenet.gp import GPConfig, run_gp, shortest_path_strategy
from cachenet.network import Demand
from cachenet.policies import (
    GcfwSpPolicy,
    GPOnlinePolicy,
    _costgreedy_pick,
    EvictionCache,
    EvictionPolicy,
    FrozenStrategyPolicy,
    MinCostDeploymentPolicy,
    SimPolicy,
    UniformDeploymentPolicy,
    flow_costgreedy,
    make_policy,
)
from cachenet.arraywalk import TokenPools, apportion_table
from cachenet.sim import (
    N_TOKEN,
    SimSchedule,
    Simulator,
    apportion_tokens,
    run_simulation,
)
from cachenet.scenarios import TABLE_PRESETS, ScenarioSpec, generate_scenario

from helpers import (
    ParentWalkSimulator,
    decision_flow_state,
    line_topology,
    mc_measured_cost_model,
    reference_costgreedy_pick,
    reference_run_simulation,
    symmetric_costs,
    track_costs,
)
from cachenet.network import Scenario


def line_scenario(rate=2.0, d=0.1, b=1.0, n=3):
    top = line_topology(n)
    rates = np.zeros((1, n))
    rates[0, 0] = rate
    dem = Demand(1, [{n - 1}], rates)
    cost = symmetric_costs(
        top, {frozenset((i, i + 1)): d for i in range(n - 1)}, [b] * n
    )
    return Scenario(topology=top, demand=dem, cost=cost, name="line")


class TestTokens:
    def test_even_split(self):
        counts = apportion_tokens([(1, 0.5), (2, 0.5)])
        assert counts == {1: 25, 2: 25}

    def test_single_direction(self):
        assert apportion_tokens([(4, 1.0)]) == {4: 50}

    def test_largest_remainder(self):
        counts = apportion_tokens([(0, 1 / 3), (1, 1 / 3), (2, 1 / 3)])
        assert sum(counts.values()) == 50
        assert sorted(counts.values()) == [16, 17, 17]
        # remainders tie at 2/3; lowest ids win the extra tokens
        assert counts[0] == 17 and counts[1] == 17 and counts[2] == 16

    def test_pool_consumed_exactly_once_per_refill(self):
        class EvenSplit(SimPolicy):
            refills = 0

            def routing_weights(self, node, item):
                self.refills += 1
                return [(1, 0.5), (2, 0.5)]

        pol = EvenSplit()
        sim = Simulator(line_scenario(), pol, SimSchedule(), seed=0)
        drawn = [sim.token_forward(0, 0) for _ in range(50)]
        assert drawn.count(1) == 25 and drawn.count(2) == 25
        assert pol.refills == 1 and sim.pools[0] == []
        # the 51st draw finds the pool empty and refills it
        assert sim.token_forward(0, 0) in (1, 2)
        assert pol.refills == 2 and len(sim.pools[0]) == 49


def star_topology(n_leaves):
    """Node 0 linked both ways to nodes 1..n_leaves."""
    from cachenet.network import Topology

    return Topology(n_leaves + 1, [(a, b) for j in range(1, n_leaves + 1)
                                   for a, b in ((0, j), (j, 0))])


class TestTokenPools:
    """The array walk's token pools against ``apportion_tokens``."""

    @pytest.mark.parametrize("kind", ["uniform", "thirds", "tenths", "sparse",
                                      "single", "many"])
    def test_table_matches_apportion_tokens(self, kind):
        rng = np.random.default_rng(["uniform", "thirds", "tenths", "sparse",
                                     "single", "many"].index(kind))
        D = 60 if kind == "many" else 7
        shape = (400, D)
        if kind == "uniform":
            w = rng.random(shape)
        elif kind == "thirds":   # equal remainders everywhere
            w = rng.integers(0, 4, shape) / 3.0
        elif kind == "tenths":
            w = rng.choice([0.0, 0.1, 0.2, 0.3, 0.7, 1 / 3, 1e-300], size=shape)
        elif kind == "sparse":   # rows that sum to one, with zeros
            w = rng.dirichlet(np.ones(D), size=shape[0]) * (rng.random(shape) < 0.5)
        elif kind == "single":
            w = np.zeros(shape)
            w[np.arange(shape[0]), rng.integers(0, D, shape[0])] = rng.random(shape[0])
        else:   # more next hops than tokens, many of them tied
            w = rng.choice([0.0, 0.01, 0.02, 1 / 60], size=shape)
        w[0] = 0.0   # a pool with no routing
        counts = apportion_table(w, N_TOKEN)
        for row, got in zip(w, counts):
            want = apportion_tokens([(j, float(x)) for j, x in enumerate(row)
                                     if x > 0])
            assert {j: int(c) for j, c in enumerate(got) if c} == want
            assert got.sum() == (N_TOKEN if want else 0)

    def test_pools_are_cursors_into_their_refills(self):
        # node 0 of a 4-leaf star splits item 0 over leaves 1-3 and sends
        # item 1 to leaf 4; requests at the two pools come interleaved, in
        # uneven steps
        top = star_topology(4)
        w = np.zeros((2, top.num_links))
        for j, x in ((1, 0.5), (2, 0.3), (3, 0.2)):
            w[0, top.edge_index[(0, j)]] = x
        w[1, top.edge_index[(0, 4)]] = 1.0
        pools = TokenPools(top, 2, N_TOKEN, np.random.default_rng(5))
        pools.rebuild(w)
        V = top.num_nodes
        rng = np.random.default_rng(6)
        drawn = {0: [], V: []}
        for size in (1, 7, 49, 3, 120, 20, 50):
            pool = rng.choice([0, V], size=size)
            tok = pools.draw(pool)
            for p in drawn:
                drawn[p].extend(tok[pool == p].tolist())
        split = [np.array(drawn[0][lo:lo + N_TOKEN])
                 for lo in range(0, len(drawn[0]) - N_TOKEN + 1, N_TOKEN)]
        assert len(split) >= 2
        for refill in split:   # each refill is the apportioned split
            assert np.bincount(refill, minlength=4).tolist() == [25, 15, 10, 0]
        assert any((np.diff(r) < 0).any() for r in split)   # and permuted
        assert set(drawn[V]) == {3}
        # a pool with no routing and no tokens left gives "no token"
        assert pools.draw(np.array([1, 0]))[0] == pools.width

    def test_rebuild_keeps_the_tokens_left(self):
        top = star_topology(2)
        w = np.zeros((1, top.num_links))
        w[0, top.edge_index[(0, 1)]] = 1.0
        pools = TokenPools(top, 1, N_TOKEN, np.random.default_rng(1))
        pools.rebuild(w)
        first = pools.draw(np.zeros(10, dtype=np.intp))
        w[0] = 0.0
        w[0, top.edge_index[(0, 2)]] = 1.0
        pools.rebuild(w)
        rest = pools.draw(np.zeros(2 * N_TOKEN, dtype=np.intp))
        assert set(first.tolist()) == {0}
        assert rest[:N_TOKEN - 10].tolist() == [0] * (N_TOKEN - 10)
        assert set(rest[N_TOKEN - 10:].tolist()) == {1}


class TestSchedule:
    @pytest.mark.parametrize("field", ["periods", "slots_per_period"])
    @pytest.mark.parametrize("bad", [2.0, 1.5, True, 0, -1, "2"])
    def test_non_integer_or_non_positive_count_rejected(self, field, bad):
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            SimSchedule(**{field: bad})
        assert getattr(SimSchedule(**{field: np.int64(2)}), field) == 2

    @pytest.mark.parametrize("field", ["t_slot", "t_monitor", "hop_latency"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_finite_or_non_positive_interval_rejected(self, field, bad):
        # NaN passes a `<= 0` check and inf puts every request in flight
        with pytest.raises(ConfigurationError, match="finite and positive"):
            SimSchedule(**{field: bad})


    def test_window_longer_than_the_run_rejected(self):
        # a 10-long run with a window of 25 would simulate nothing
        with pytest.raises(ConfigurationError, match="longer than the run"):
            SimSchedule(t_slot=5.0, slots_per_period=2, periods=1, t_monitor=25.0)

    @pytest.mark.parametrize("t_monitor, ends", [
        (4.0, [4.0, 8.0]),            # the last 2 time units are not simulated
        (6.0, [6.0]),                 # no window reaches past the run
        (2.5, [2.5, 5.0, 7.5, 10.0]),
        (10.0 / 3, [10.0 / 3, 20.0 / 3, 10.0]),   # 3 windows, up to rounding
    ])
    @pytest.mark.parametrize("walk", ["array", "request", "reference"])
    def test_run_ends_with_its_last_whole_window(self, t_monitor, ends, walk):
        import io

        scen = line_scenario(rate=5.0)
        sched = SimSchedule(t_slot=5.0, slots_per_period=2, periods=1,
                            t_monitor=t_monitor, hop_latency=0.05)
        pol = FrozenStrategyPolicy(Strategy.from_dicts(
            scen.topology, 1, phi={(0, 1, 0): 1.0, (1, 2, 0): 1.0}))
        if walk == "reference":
            run = reference_run_simulation(scen, pol, sched, seed=2)
        else:
            trace = io.StringIO()
            if walk == "request":
                request_walk(pol)
            run = run_simulation(scen, pol, sched, seed=2, trace=trace)
            stamps = [float(line.split()[0])
                      for line in trace.getvalue().splitlines()]
            assert ends[-1] - 0.5 < max(stamps) < ends[-1]
        np.testing.assert_allclose([r.time for r in run.records], ends,
                                   rtol=1e-12)
        assert all(r.period == 0 for r in run.records)
        assert all(r.measured_link_cost > 0 for r in run.records)


class TestEventLoop:
    def test_zero_rates_zero_flows(self):
        scen = line_scenario(rate=0.0)
        scen.demand = Demand(1, [{2}], np.zeros((1, 3)))
        pol = make_policy("sp-lru", capacity=0)
        run = run_simulation(scen, pol, SimSchedule(t_slot=1.0, slots_per_period=2,
                                                    periods=3), seed=1)
        assert all(r.measured_link_cost == 0.0 for r in run.records)
        assert run.requests_issued == 0

    def test_single_path_poisson_flow(self):
        # rate-2 stream over two links; measured F within 3 sigma Poisson
        scen = line_scenario(rate=2.0)
        pol = make_policy("sp-lru", capacity=0)
        sched = SimSchedule(t_slot=10.0, slots_per_period=2, periods=20)
        run = run_simulation(scen, pol, sched, seed=3, keep_flow_samples=True)
        top = scen.topology
        F_avg = np.mean([r.measured_F for r in run.records], axis=0)
        horizon = sched.periods * sched.slots_per_period * sched.t_slot
        sigma = np.sqrt(2.0 / horizon)
        for e in (top.edge_index[(1, 0)], top.edge_index[(2, 1)]):
            assert abs(F_avg[e] - 2.0) <= 3 * sigma + 1e-9

    def test_packet_conservation(self):
        scen = line_scenario(rate=3.0)
        pol = make_policy("sp-lru", capacity=0)
        run = run_simulation(
            scen, pol, SimSchedule(t_slot=5.0, slots_per_period=2, periods=4),
            seed=7,
        )
        assert run.requests_issued == run.responses_delivered + run.in_flight

    def test_miss_cost_two_hops(self):
        # served 2 hops away over d = (0.1, 0.1): 0.2 per request at the
        # requester, 0.1 at the relay
        scen = line_scenario(rate=1.0, d=0.1)
        pol = make_policy("sp-lru", capacity=0)
        run = run_simulation(
            scen, pol, SimSchedule(t_slot=10.0, slots_per_period=2, periods=5),
            seed=5,
        )
        n = run.responses_delivered
        assert n > 0
        assert run.miss_cost[0] == pytest.approx(0.2 * n)
        assert run.miss_cost[1] == pytest.approx(0.1 * n)

    def test_requests_at_server_terminate_immediately(self):
        scen = line_scenario(rate=1.0)
        rates = np.zeros((1, 3))
        rates[0, 2] = 4.0  # requester co-located with the server
        scen.demand = Demand(1, [{2}], rates)
        pol = make_policy("sp-lru", capacity=0)
        run = run_simulation(
            scen, pol, SimSchedule(t_slot=5.0, slots_per_period=2, periods=4),
            seed=9,
        )
        assert run.responses_delivered == run.requests_issued
        assert all(r.measured_link_cost == 0.0 for r in run.records)


class TestDrrInSim:
    def test_occupancy_within_one_of_relaxed(self):
        # |X_i - Y_i| < 1 per node at every slot snapshot
        scen = line_scenario(rate=2.0, b=0.1)
        scen.demand = Demand(
            3, [{2}] * 3,
            np.array([[2.0, 0, 0], [1.0, 0, 0], [0.5, 0, 0.0]]),
        )
        strat = Strategy.from_dicts(
            scen.topology, 3,
            phi={(0, 1, 0): 0.6, (1, 2, 0): 0.7, (0, 1, 1): 0.5,
                 (1, 2, 1): 0.9, (0, 1, 2): 0.2, (1, 2, 2): 0.4},
            y={(0, 0): 0.4, (1, 0): 0.3, (0, 1): 0.5, (1, 1): 0.1,
               (0, 2): 0.8, (1, 2): 0.6},
        )
        pol = FrozenStrategyPolicy(strat)

        class StubSim:
            seed = 11

        pol.setup(scen, StubSim())
        Y = strat.y.sum(axis=0)
        for period in range(10):
            for slot in range(3):
                pol.on_slot(period, slot)
                X = pol.cache_occupancy()
                assert (np.abs(X - Y) < 1.0).all()

    def test_binary_strategy_flows_match_exactly_in_expectation(self):
        scen = line_scenario(rate=4.0)
        strat = Strategy.from_dicts(
            scen.topology, 1, phi={(0, 1, 0): 1.0}, y={(1, 0): 1.0}
        )
        pol = FrozenStrategyPolicy(strat)
        sched = SimSchedule(t_slot=10.0, slots_per_period=2, periods=20)
        run = run_simulation(scen, pol, sched, seed=13, keep_flow_samples=True)
        top = scen.topology
        fs = solve_traffic(top, scen.demand, strat, scen.cost)
        F_avg = np.mean([r.measured_F for r in run.records], axis=0)
        horizon = sched.periods * sched.slots_per_period * sched.t_slot
        e10 = top.edge_index[(1, 0)]
        e21 = top.edge_index[(2, 1)]
        assert abs(F_avg[e10] - fs.F[e10]) <= 4 * np.sqrt(4.0 / horizon)
        assert F_avg[e21] == 0.0

    def test_fractional_strategy_tracks_relaxed_flows(self):
        rate = 5.0
        scen = line_scenario(rate=rate, b=0.01)
        strat = Strategy.from_dicts(
            scen.topology, 1,
            phi={(0, 1, 0): 0.5, (1, 2, 0): 0.8},
            y={(0, 0): 0.5, (1, 0): 0.2},
        )
        pol = FrozenStrategyPolicy(strat)
        sched = SimSchedule(t_slot=5.0, slots_per_period=4, periods=250)
        run = run_simulation(scen, pol, sched, seed=17, keep_flow_samples=True)
        fs = solve_traffic(scen.topology, scen.demand, strat, scen.cost)
        F_avg = np.mean([r.measured_F for r in run.records], axis=0)
        n_slots = sched.periods * sched.slots_per_period
        horizon = n_slots * sched.t_slot
        for e in range(scen.topology.num_links):
            # per-slot flow is at most `rate` and Bernoulli-modulated by the
            # DRR decisions, so its std is bounded by rate/2; add the
            # Poisson counting term
            sigma = 0.5 * rate / np.sqrt(n_slots) + np.sqrt(
                max(fs.F[e], 0.1) / horizon
            )
            assert abs(F_avg[e] - fs.F[e]) <= 4 * sigma

    def test_decision_flow_state_consistency(self):
        # effective conservation: x + (1-x) * sum(rho) = 1
        scen = line_scenario(rate=5.0)
        strat = Strategy.from_dicts(
            scen.topology, 1,
            phi={(0, 1, 0): 0.5, (1, 2, 0): 0.8},
            y={(0, 0): 0.5, (1, 0): 0.2},
        )
        x = np.array([[1, 0, 0]], dtype=np.int8)
        fs = decision_flow_state(scen, strat, x)
        assert fs.t[0, 0] == pytest.approx(5.0)
        # node 0 caches everything this slot: no flow anywhere
        assert fs.F.max() == 0.0
        x2 = np.array([[0, 1, 0]], dtype=np.int8)
        fs2 = decision_flow_state(scen, strat, x2)
        e10 = scen.topology.edge_index[(1, 0)]
        assert fs2.F[e10] == pytest.approx(5.0)  # rho(0->1) = 1


class TestBaselines:
    def test_uniform_capacity_growth(self):
        scen = line_scenario(rate=1.0, n=4)
        pol = UniformDeploymentPolicy(kind="lru")
        run_simulation(
            scen, pol, SimSchedule(t_slot=2.0, slots_per_period=2, periods=4),
            seed=19,
        )
        assert list(pol.capacity) == [3, 3, 3, 3]

    def test_single_slot_periods_still_update(self):
        # with L = 1 the only slot is the update slot and measurement
        # covers it entirely
        scen = line_scenario(rate=1.0, n=4)
        pol = UniformDeploymentPolicy(kind="lru")
        run_simulation(
            scen, pol, SimSchedule(t_slot=4.0, slots_per_period=1, periods=4),
            seed=19,
        )
        assert list(pol.capacity) == [3, 3, 3, 3]

    def test_mincost_deploys_at_argmax(self):
        pol = MinCostDeploymentPolicy(kind="lru")

        class FakeSim:
            miss_cost = np.array([10.0, 4.0, 7.0])

        pol.scenario = None
        pol.sim = FakeSim()
        pol.capacity = np.zeros(3, dtype=int)
        pol.on_update(0, None, None)
        assert list(pol.capacity) == [1, 0, 0]

    def test_lru_eviction_order(self):
        c = EvictionCache("lru")
        c.insert(1, 2)
        c.insert(2, 2)
        c.touch(1)
        c.insert(3, 2)  # evicts 2 (least recently used)
        assert 1 in c and 3 in c and 2 not in c

    def test_lfu_eviction_order(self):
        c = EvictionCache("lfu")
        c.insert(1, 2)
        c.touch(1)
        c.touch(1)
        c.insert(2, 2)
        c.insert(3, 2)  # evicts 2 (lowest frequency)
        assert 1 in c and 3 in c and 2 not in c

    def test_lru_occupancy_never_exceeds_capacity(self):
        scen = line_scenario(rate=4.0, n=4)
        scen.demand = Demand(
            2, [{3}, {3}], np.array([[2.0, 0, 0, 0], [2.0, 0, 0, 0.0]])
        )
        pol = EvictionPolicy(kind="lru", capacity=1)
        run = run_simulation(
            scen, pol, SimSchedule(t_slot=2.0, slots_per_period=2, periods=5),
            seed=23,
        )
        assert all(r.total_cache_size <= 4 for r in run.records)

    def test_flow_costgreedy_improves_then_reports_min(self):
        spec = ScenarioSpec("grid", (3, 3), catalog=4, requests=8,
                            link_cost_range=(0.2, 0.2),
                            cache_price_range=(1.0, 1.0))
        scen = generate_scenario(spec, seed=5)
        no_cache = shortest_path_strategy(scen.topology, scen.demand, scen.cost)
        t0 = solve_traffic(scen.topology, scen.demand, no_cache, scen.cost).total_cost
        best, sets, costs = flow_costgreedy(scen)
        assert best <= t0
        assert best == min(costs)

    def test_flow_costgreedy_zero_steps_keeps_start(self):
        spec = ScenarioSpec("grid", (3, 3), catalog=4, requests=8)
        scen = generate_scenario(spec, seed=5)
        best, sets, costs = flow_costgreedy(scen, max_steps=0)
        assert costs == [best]
        assert not any(sets)

    def test_costgreedy_pick_matches_loop(self):
        # few distinct values, so ties are common; cached pairs and servers
        # may hold the largest value
        rng = np.random.default_rng(12)
        picked = 0
        for _ in range(200):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 6)))
            miss = rng.choice([-1.0, 0.0, 0.5, 2.0, 3.0, np.nan], size=shape)
            cached = rng.random(shape) < 0.3
            servers = rng.random(shape) < 0.2
            got = _costgreedy_pick(miss, cached, servers)
            assert got == reference_costgreedy_pick(miss, cached, servers)
            picked += got is not None
        assert 50 < picked < 200

    def test_costgreedy_policy_pins_one_pair_per_period(self):
        spec = ScenarioSpec("grid", (2, 2), catalog=2, requests=3)
        scen = generate_scenario(spec, seed=5)
        pol = make_policy("costgreedy")
        run = run_simulation(
            scen, pol, SimSchedule(t_slot=2.0, slots_per_period=2, periods=4),
            seed=5,
        )
        sizes = [r.total_cache_size for r in run.records]
        assert all(0 <= b - a <= 1 for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] >= 1
        assert not (pol.cached & scen.demand.server_mask).any()

    def test_track_costs_pairs(self):
        scen = line_scenario(rate=1.0)
        strat = Strategy.from_dicts(
            scen.topology, 1, phi={(0, 1, 0): 1.0, (1, 2, 0): 1.0}
        )
        pol = FrozenStrategyPolicy(strat)
        run = run_simulation(
            scen, pol, SimSchedule(t_slot=5.0, slots_per_period=2, periods=2),
            seed=29,
        )
        pairs = track_costs(run)
        assert len(pairs) == len(run.records)
        assert all(np.isfinite(p[1]) for p in pairs)

    def test_high_rate_ratio_near_one(self):
        # rate high enough that Poisson noise is well under 1% per window:
        # measured/theoretical within [0.98, 1.02]; and with y = 0 the
        # measured cache cost is exactly zero every window
        from cachenet.network import CostModel, linear_cache_costs, linear_link_costs

        top = line_topology(3)
        rates = np.zeros((1, 3))
        rates[0, 0] = 1000.0
        dem = Demand(1, [{2}], rates)
        d = np.full(top.num_links, 0.01)
        cost = CostModel(link=linear_link_costs(d), cache=linear_cache_costs([1.0] * 3))
        scen = Scenario(topology=top, demand=dem, cost=cost, name="hot")
        strat = Strategy.from_dicts(top, 1, phi={(0, 1, 0): 1.0, (1, 2, 0): 1.0})
        pol = FrozenStrategyPolicy(strat)
        run = run_simulation(
            scen, pol, SimSchedule(t_slot=10.0, slots_per_period=2, periods=5),
            seed=31,
        )
        pairs = track_costs(run)
        ratio = np.mean([m for m, _ in pairs]) / pairs[0][1]
        assert 0.98 <= ratio <= 1.02
        assert all(r.measured_cache_cost == 0.0 for r in run.records)


class TestGpInSim:
    def test_online_dynamic_sets_mend_stranded_caches(self):
        # Online dynamic sets are built from the measured arrivals before
        # the marginals, as run_gp builds them from the solved ones, so a
        # cache left without requests (t = 0 in the model) and without an
        # unblocked out-link gets one.  Built after the step from the
        # strategy alone, this run ended with 14 stranded pairs at model
        # cost 2358.8; static sets end with none at 1237.3.
        scen = generate_scenario(TABLE_PRESETS["full-tree"], 1)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        pol = make_policy("gp", alpha=0.05, blocked_mode="dynamic")
        run_simulation(scen, pol, SimSchedule(t_slot=10.0, slots_per_period=2,
                                              periods=150), seed=1)
        s = pol.strategy
        model = solve_traffic(top, dem, s, cost)
        plain = dynamic_blocked_sets(top, dem, s)
        n_out = np.zeros_like(s.y, dtype=int)
        np.add.at(n_out, (slice(None), top.src), ~plain.mask)
        stranded = (~dem.server_mask & (model.t <= 0.0) & (s.y > 0.0)
                    & (n_out == 0))
        # measured: 1 stranded pair, model cost 1812.58
        assert stranded.sum() <= 1
        assert model.total_cost <= 1850.0

    def test_gp_online_reduces_cost_on_fork(self):
        # two routes with very different costs: online GP should shift
        # traffic off the expensive one using only measured quantities
        from cachenet.network import CostModel, Topology, linear_cache_costs
        from cachenet.network import poly3_link_costs

        links = []
        for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            links += [(a, b), (b, a)]
        top = Topology(4, links)
        dem = Demand(1, [{3}], np.array([[4.0, 0.0, 0.0, 0.0]]))
        d = np.array(
            [{frozenset((0, 1)): 0.1, frozenset((0, 2)): 0.1,
              frozenset((1, 3)): 0.1, frozenset((2, 3)): 0.1}[frozenset(e)]
             for e in top.links]
        )
        cost = CostModel(link=poly3_link_costs(d),
                         cache=linear_cache_costs([50.0] * 4))
        scen = Scenario(topology=top, demand=dem, cost=cost, name="fork")
        pol = make_policy("gp", alpha=0.05)
        sched = SimSchedule(t_slot=5.0, slots_per_period=5, periods=40)
        run = run_simulation(scen, pol, sched, seed=31)
        theo = [r.theoretical_total for r in run.records]
        # the relaxed cost after adaptation improves on the SP start
        assert theo[-1] < theo[0] - 1e-6
        # and traffic ends up split across both forks
        e01 = top.edge_index[(0, 1)]
        e02 = top.edge_index[(0, 2)]
        assert pol.strategy.phi[0, e01] > 0.2
        assert pol.strategy.phi[0, e02] > 0.2

    def test_static_updates_sweep_the_kept_layout(self, monkeypatch):
        # under static sets each update's marginals sweep the instance's
        # layout, built once, and move the strategy as fresh levels would
        import cachenet.blocking
        import cachenet.flow

        calls = []
        dag_levels = cachenet.flow.dag_levels

        def counted(topology, active):
            calls.append(int(active.sum()))
            return dag_levels(topology, active)

        monkeypatch.setattr(cachenet.flow, "dag_levels", counted)
        monkeypatch.setattr(cachenet.blocking, "dag_levels", counted)
        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=3)
        top, dem = scen.topology, scen.demand
        start = shortest_path_strategy(top, dem, scen.cost)
        measured = solve_traffic(top, dem, start, scen.cost)
        strategies = []
        for _ in range(2):
            pol = make_policy("gp", alpha=0.05)
            pol.setup(scen, None)
            calls.clear()
            for period in range(5):
                pol.on_update(period, measured.F, measured.t)
            strategies.append(pol.strategy)
            if len(strategies) == 1:   # the layout, on the first update
                assert calls == [int((~pol.blocked.mask).sum())]
            monkeypatch.setattr(cachenet.blocking.BlockedSets, "layout",
                                lambda self, topology: None)
        assert len(calls) == 5     # with no kept layout, one build per update
        assert strategies[0].phi.tobytes() == strategies[1].phi.tobytes()
        assert strategies[0].y.tobytes() == strategies[1].y.tobytes()
        assert not np.array_equal(strategies[0].phi, start.phi)

    def test_static_run_levels_its_dag_once(self, monkeypatch):
        # the theoretical cost of every period sweeps the static sets'
        # kept layout too: one ``dag_levels`` call per run, and the same
        # total as a solve that lays the routing DAG out anew
        import cachenet.blocking
        import cachenet.flow

        calls = []
        dag_levels = cachenet.flow.dag_levels

        def counted(topology, active):
            calls.append(int(active.sum()))
            return dag_levels(topology, active)

        monkeypatch.setattr(cachenet.flow, "dag_levels", counted)
        monkeypatch.setattr(cachenet.blocking, "dag_levels", counted)
        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=4)
        pol = make_policy("gp", alpha=0.01)
        sched = SimSchedule(t_slot=1.0, slots_per_period=2, periods=6)
        run = run_simulation(scen, pol, sched, seed=5)
        assert calls == [int((~pol.blocked.mask).sum())]
        fresh = solve_traffic(scen.topology, scen.demand, pol.strategy,
                              scen.cost)
        assert run.records[-1].theoretical_total == fresh.total_cost

    @pytest.mark.parametrize("mode", ["statc", "Static", "", None])
    def test_unknown_blocked_mode_rejected(self, mode):
        # a mode that is neither static nor dynamic would start from
        # dynamic sets and never recompute them
        with pytest.raises(ConfigurationError, match="unknown blocked mode"):
            GPOnlinePolicy(blocked_mode=mode)
        for good in ("static", "dynamic"):
            assert GPOnlinePolicy(blocked_mode=good).blocked_mode == good

    @pytest.mark.parametrize("make", [
        lambda s: GPOnlinePolicy(initial=s),
        lambda s: FrozenStrategyPolicy(s),
    ])
    def test_start_not_of_the_scenario_rejected(self, make):
        grid = generate_scenario(TABLE_PRESETS["grid-25"], 1)
        fog = generate_scenario(TABLE_PRESETS["fog"], 1)
        sched = SimSchedule(t_slot=1.0, slots_per_period=2, periods=2)
        start = shortest_path_strategy(fog.topology, fog.demand, fog.cost)
        with pytest.raises(StructuralError, match="catalog size"):
            run_simulation(grid, make(start), sched, seed=1)
        start = shortest_path_strategy(grid.topology, grid.demand, grid.cost)
        start.phi *= 0.5
        with pytest.raises(StructuralError, match="conservation violated by 0.5"):
            run_simulation(grid, make(start), sched, seed=1)

    @pytest.mark.parametrize("N", [1, 0, -3, True, 2.0, 100.0, "100"])
    def test_bad_gcfw_iteration_count_rejected(self, N):
        with pytest.raises(ConfigurationError, match="integer N >= 2"):
            GcfwSpPolicy(N=N)
        with pytest.raises(ConfigurationError, match="integer N >= 2"):
            make_policy("gcfw", N=N)

    def test_mc_model_brackets_simulated_cost(self):
        scen = line_scenario(rate=5.0, b=0.05)
        strat = Strategy.from_dicts(
            scen.topology, 1,
            phi={(0, 1, 0): 0.5, (1, 2, 0): 0.8},
            y={(0, 0): 0.5, (1, 0): 0.2},
        )
        pol = FrozenStrategyPolicy(strat)
        sched = SimSchedule(t_slot=5.0, slots_per_period=4, periods=60)
        run = run_simulation(scen, pol, sched, seed=37)
        measured = run.steady_state_mean(skip_fraction=0.2)
        mean, std = mc_measured_cost_model(scen, strat, sched.t_monitor,
                                           n_samples=3000, seed=99)
        n_windows = len(run.records)
        band = 3 * std * (1 / np.sqrt(0.8 * n_windows) + 1 / np.sqrt(3000))
        assert abs(measured - mean) <= band + 1e-9


def request_walk(policy):
    """``policy``, made to select the request-atomic walk for its runs."""
    policy.slot_hits = lambda: None
    return policy


class CountingPolicy(FrozenStrategyPolicy):
    """A frozen strategy that counts the response hops it is told about; a
    per-hop hook, so it selects the request-atomic walk."""

    def __init__(self, strategy):
        super().__init__(strategy)
        self.response_passes = 0

    def slot_hits(self):
        return None

    def on_response_pass(self, node, item):
        self.response_passes += 1


class LoopingPolicy(FrozenStrategyPolicy):
    """No routing tokens anywhere, and failsafe neighbours 0 <-> 1: every
    request that leaves node 0 bounces between nodes 0 and 1."""

    def initial_strategy(self, scenario):
        # an all-zero phi conserves nothing, which FrozenStrategyPolicy's
        # own set-up rejects
        return self._frozen.copy()

    def routing_weights(self, node, item):
        return []

    def routing_array(self):
        return np.zeros_like(self.strategy.phi)

    def failsafe_neighbors(self, node, item):
        return [1 - node] if node < 2 else []


def _window_costs(runner, scen, new_policy, sched, seeds):
    return np.concatenate([
        [r.measured_total for r in
         runner(scen, new_policy(), sched, seed).records]
        for seed in seeds
    ])


class TestRequestWalk:
    """The simulator's walks against the event-queue reference
    (``helpers.reference_run_simulation``), and their exact identities."""

    @staticmethod
    def _assert_same_mean(scen, new_policy, sched, seeds):
        """``new_policy()`` makes a fresh policy for each run."""
        new = _window_costs(run_simulation, scen, new_policy, sched, seeds)
        ref = _window_costs(reference_run_simulation, scen, new_policy, sched,
                            seeds)
        sigma = np.sqrt(new.var(ddof=1) / new.size + ref.var(ddof=1) / ref.size)
        assert abs(new.mean() - ref.mean()) <= 3 * sigma

    def test_line_mean_window_cost_matches_reference(self):
        scen = line_scenario(rate=5.0, b=0.05)
        strat = Strategy.from_dicts(
            scen.topology, 1,
            phi={(0, 1, 0): 0.5, (1, 2, 0): 0.8},
            y={(0, 0): 0.5, (1, 0): 0.2},
        )
        sched = SimSchedule(t_slot=5.0, slots_per_period=4, periods=30)
        self._assert_same_mean(scen, lambda: FrozenStrategyPolicy(strat),
                               sched, seeds=(1, 2, 3))

    def test_grid25_mean_window_cost_matches_reference(self):
        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=1)
        traj = run_gp(scen.topology, scen.demand, scen.cost,
                      GPConfig(alpha=0.05, max_periods=100))
        assert (traj.strategy.y % 1.0 > 0).any()   # fractional caches
        sched = SimSchedule(t_slot=10.0, slots_per_period=2, periods=4,
                            t_monitor=2.5)
        self._assert_same_mean(scen, lambda: FrozenStrategyPolicy(traj.strategy),
                               sched, seeds=(1, 2, 3))

    def test_window_counts_equal_response_hops(self):
        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=2)
        strat = shortest_path_strategy(scen.topology, scen.demand, scen.cost)
        pol = CountingPolicy(strat)
        sched = SimSchedule(t_slot=2.0, slots_per_period=2, periods=3,
                            t_monitor=0.5, hop_latency=0.05)
        run = run_simulation(scen, pol, sched, seed=4, keep_flow_samples=True)
        counted = sum(r.measured_F.sum() * sched.t_monitor for r in run.records)
        assert round(counted) == pol.response_passes > 0
        assert run.requests_issued == run.responses_delivered + run.in_flight
        assert run.in_flight > 0

    def test_online_gp_conserves_requests(self):
        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=1)
        pol = make_policy("gp", alpha=0.01)
        sched = SimSchedule(t_slot=10.0, slots_per_period=2, periods=3)
        run = run_simulation(scen, pol, sched, seed=1)
        assert run.requests_issued == run.responses_delivered + run.in_flight
        assert run.unroutable_total == 0

    def test_failsafe_loop_ends_in_flight_at_horizon(self):
        scen = line_scenario(rate=2.0)
        pol = LoopingPolicy(Strategy.from_dicts(scen.topology, 1))
        sched = SimSchedule(t_slot=1.0, slots_per_period=2, periods=2,
                            hop_latency=0.05)
        run = run_simulation(scen, pol, sched, seed=3)
        assert run.requests_issued > 0
        assert run.in_flight == run.requests_issued
        assert run.responses_delivered == 0
        # every hop is unroutable, and each lands in the window of its stamp
        assert sum(r.unroutable for r in run.records) == run.unroutable_total
        assert run.unroutable_total >= run.requests_issued
        assert all(r.measured_link_cost == 0.0 for r in run.records)

    def test_hop_past_window_end_counts_in_later_window(self):
        # hops 0.3 apart on a 3-node line: the request reaches the server at
        # t0 + 0.6 and its response hops are stamped t0 + 0.9 and t0 + 1.2,
        # so with 1-second windows most of them land in a later window than
        # the request; the trace gives every server stamp
        import io

        scen = line_scenario(rate=2.0)
        pol = make_policy("sp-lru", capacity=0)
        sched = SimSchedule(t_slot=1.0, slots_per_period=2, periods=5,
                            hop_latency=0.3)
        trace = io.StringIO()
        run = run_simulation(scen, pol, sched, seed=6, trace=trace,
                             keep_flow_samples=True)
        top = scen.topology
        served = [float(line.split()[0]) for line in
                  trace.getvalue().splitlines() if " server " in line]
        horizon = sched.periods * sched.slots_per_period * sched.t_slot
        expect = np.zeros((len(run.records), top.num_links))
        straddled = 0
        for s in served:
            t0 = s - 0.6
            for h, link in ((3, (2, 1)), (4, (1, 0))):
                stamp = t0 + h * sched.hop_latency
                if stamp < horizon:
                    expect[int(stamp // sched.t_monitor), top.edge_index[link]] += 1
                    straddled += int(stamp // 1.0) > int(t0 // 1.0)
        got = np.array([r.measured_F * sched.t_monitor for r in run.records])
        assert straddled > 0
        np.testing.assert_allclose(got, expect)


def _sp_strategy(scen, cached):
    """The shortest-path strategy; with ``cached``, also y = 1 at about one
    in seven non-server (item, node) pairs, which then route nothing."""
    top = scen.topology
    strat = shortest_path_strategy(top, scen.demand, scen.cost)
    if cached:
        pick = ((np.random.default_rng(0).random(strat.y.shape) < 0.15)
                & ~scen.demand.server_mask)
        strat.y[pick] = 1.0
        strat.phi[pick[:, top.src]] = 0.0
    return strat


@pytest.fixture(scope="module")
def gp_strategies(preset_scenarios):
    """A fractional GP strategy per preset, to freeze."""
    return {name: run_gp(scen.topology, scen.demand, scen.cost,
                         GPConfig(alpha=0.05, max_periods=60)).strategy
            for name, scen in preset_scenarios.items()}


class TestArrayWalk:
    """The array walk against the request-atomic walk and the event-queue
    reference."""

    SCHEDULES = {
        # hops 0.13 apart straddle 0.7-long windows and 1-long slots; 12
        # whole windows end the run at 8.4
        "straddle": SimSchedule(t_slot=1.0, slots_per_period=3, periods=3,
                                t_monitor=0.7, hop_latency=0.13),
        # 22 windows of 0.4 end the run at 8.8, inside its last slot
        "short": SimSchedule(t_slot=1.0, slots_per_period=3, periods=3,
                             t_monitor=0.4, hop_latency=0.05),
    }

    @pytest.mark.parametrize("sched", ["straddle", "short"])
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("scen_name", ["grid-25", "fog", "full-tree"])
    def test_integral_strategy_matches_request_walk(self, preset_scenarios,
                                                    scen_name, cached, sched):
        # with 0/1 routing and integral caches no refill is permuted and no
        # rounding is random, so both walks see the same arrivals and take
        # the same paths: every output agrees bit for bit, the miss costs
        # up to their order of summation, and the traces line for line
        import io

        scen = preset_scenarios[scen_name]
        strat = _sp_strategy(scen, cached)
        sched = self.SCHEDULES[sched]
        runs, traces = [], []
        for pol in (FrozenStrategyPolicy(strat),
                    request_walk(FrozenStrategyPolicy(strat))):
            traces.append(io.StringIO())
            runs.append(run_simulation(scen, pol, sched, seed=5,
                                       trace=traces[-1], keep_flow_samples=True))
        array, scalar = runs
        assert array.requests_issued > 1000 and array.in_flight > 0
        assert sum(r.total_cache_size for r in array.records) > 0 or not cached
        _assert_runs_identical(array, scalar, miss_rtol=1e-12)
        lines = [sorted(t.getvalue().splitlines()) for t in traces]
        assert lines[0] == lines[1] and len(lines[0]) > array.requests_issued

    def test_failsafe_loop_matches_request_walk(self):
        # every hop is unroutable and bounces between nodes 0 and 1 until
        # the run ends; no token is drawn, so both walks agree exactly
        scen = line_scenario(rate=2.0)
        sched = SimSchedule(t_slot=1.0, slots_per_period=2, periods=2,
                            hop_latency=0.05)
        strat = Strategy.from_dicts(scen.topology, 1)
        array = run_simulation(scen, LoopingPolicy(strat), sched, seed=3)
        scalar = run_simulation(scen, request_walk(LoopingPolicy(strat)), sched,
                                seed=3)
        assert array.in_flight == array.requests_issued > 0
        assert array.unroutable_total >= array.requests_issued
        _assert_runs_identical(array, scalar)

    def test_trace_does_not_change_the_run(self):
        import io
        import re

        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=1)
        sched = SimSchedule(t_slot=2.0, slots_per_period=2, periods=3,
                            hop_latency=0.05)
        trace = io.StringIO()
        traced, plain = (
            run_simulation(scen, make_policy("gp", alpha=0.05), sched, seed=3,
                           trace=out, keep_flow_samples=True)
            for out in (trace, None))
        _assert_runs_identical(traced, plain)
        lines = trace.getvalue().splitlines()
        form = re.compile(r"\d+\.\d{6} (fwd node=\d+ item=\d+ to=\d+"
                          r"|(hit|server) node=\d+ item=\d+)")
        assert all(form.fullmatch(line) for line in lines)
        kinds = [line.split()[1] for line in lines]
        ends = kinds.count("hit") + kinds.count("server")
        assert kinds.count("hit") > 0
        assert traced.responses_delivered <= ends <= traced.requests_issued

    @pytest.mark.parametrize("scen_name", ["grid-25", "fog", "full-tree"])
    @pytest.mark.parametrize("policy", ["gp", "frozen", "gcfw", "costgreedy"])
    def test_mean_window_cost_matches_reference(self, preset_scenarios,
                                                gp_strategies, policy,
                                                scen_name):
        scen = preset_scenarios[scen_name]
        if policy == "frozen":
            strategy = gp_strategies[scen_name]
            assert (strategy.y % 1.0 > 0).any()   # fractional caches
            make = lambda: FrozenStrategyPolicy(strategy)
        else:
            make = lambda: make_policy(policy, alpha=0.05, N=10)
        sched = SimSchedule(t_slot=2.0, slots_per_period=2, periods=3,
                            t_monitor=0.25)
        TestRequestWalk._assert_same_mean(scen, make, sched, seeds=(1, 2))


# a run whose 0.5-long windows divide it, with hops 0.13 apart that straddle
# windows and slots
PIN_SCHEDULE = SimSchedule(t_slot=1.0, slots_per_period=3, periods=4,
                           t_monitor=0.5, hop_latency=0.13)
PIN_FILE = pathlib.Path(__file__).parent / "data" / "request_walk_pins.json"


def request_walk_pin(policy, seed):
    """The outputs of one eviction-policy run on grid-25 seed 1 that
    ``PIN_FILE`` pins, as JSON values.  The file holds this function's
    values from the request-atomic walk that kept per-segment hop lists and
    a pending queue, keyed ``"<policy>/<seed>"``."""
    scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=1)
    pol = make_policy(policy)
    measured = []   # each update's measured link rates and arrival rates
    on_update = pol.on_update

    def recorded(period, measured_F, measured_arrivals):
        measured.append(hashlib.sha256(
            measured_F.tobytes() + measured_arrivals.tobytes()).hexdigest())
        return on_update(period, measured_F, measured_arrivals)

    pol.on_update = recorded
    run = run_simulation(scen, pol, PIN_SCHEDULE, seed, keep_flow_samples=True)
    counts = np.rint(np.array([r.measured_F for r in run.records])
                     * PIN_SCHEDULE.t_monitor).astype(np.int64)
    miss = run.miss_cost_item.ravel()
    nonzero = np.flatnonzero(miss)
    return {
        "counters": [run.requests_issued, run.responses_delivered,
                     run.in_flight, run.unroutable_total],
        "window_hops": counts.sum(axis=1).tolist(),
        "link_counts_sha256": hashlib.sha256(counts.tobytes()).hexdigest(),
        "measured_sha256": measured,
        "unroutable": [r.unroutable for r in run.records],
        "cache_size": [r.total_cache_size for r in run.records],
        "cache_cost": [r.measured_cache_cost for r in run.records],
        "caches": [[i, k, *entry] for i, c in enumerate(run.policy.caches)
                   for k, entry in sorted(c.entries.items())],
        "miss_cost": run.miss_cost.tolist(),
        "miss_index": nonzero.tolist(),
        "miss_value": miss[nonzero].tolist(),
    }


class TestRequestWalkPins:
    """Eviction-policy outputs of the request-atomic walk against values
    pinned in ``PIN_FILE``: everything counted exactly, the miss costs up
    to their order of summation."""

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("policy", ["sp-lru", "sp-lfu", "mincost"])
    def test_outputs_match_pins(self, policy, seed):
        want = json.loads(PIN_FILE.read_text())[f"{policy}/{seed}"]
        got = request_walk_pin(policy, seed)
        assert got["counters"][0] > 3000 and got["counters"][2] > 0
        for key in ("miss_cost", "miss_value"):
            np.testing.assert_allclose(got.pop(key), want.pop(key),
                                       rtol=1e-12, atol=0)
        assert got == want


class TestSimulatorLifetime:
    def test_simulator_freed_by_reference_counting(self):
        # the policy keeps a reference to its simulator only during the run,
        # so the finished simulator needs no cyclic collection
        refs = []

        class Probe(GPOnlinePolicy):
            def setup(self, scenario, sim):
                super().setup(scenario, sim)
                refs.append(weakref.ref(sim))

        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=1)
        pol = Probe(alpha=0.01)
        sched = SimSchedule(t_slot=2.0, slots_per_period=2, periods=2)
        enabled = gc.isenabled()
        gc.disable()
        try:
            run = run_simulation(scen, pol, sched, seed=1)
            assert refs and refs[0]() is None
        finally:
            if enabled:
                gc.enable()
        assert run.policy is pol and pol.sim is None
        assert run.requests_issued > 0


def _policy_state(pol):
    """The decision state a policy ends a run with."""
    state = {}
    for name in ("x", "cached", "capacity"):
        if hasattr(pol, name):
            state[name] = getattr(pol, name)
    if hasattr(pol, "strategy"):
        state["phi"], state["y"] = pol.strategy.phi, pol.strategy.y
    if hasattr(pol, "caches"):
        state["caches"] = [dict(c.entries) for c in pol.caches]
    return state


def _assert_runs_identical(new, ref, miss_rtol=0.0):
    """Every output equal bit for bit; the miss costs, sums of the same
    terms, within ``miss_rtol`` of each other when it is positive."""
    assert len(new.records) == len(ref.records) > 0
    for a, b in zip(new.records, ref.records):
        for f in dataclasses.fields(a):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb), f.name
            else:
                assert va == vb or (va != va and vb != vb), f.name
    for name in ("requests_issued", "responses_delivered", "in_flight",
                 "unroutable_total"):
        assert getattr(new, name) == getattr(ref, name), name
    for name in ("miss_cost", "miss_cost_item"):
        got, want = getattr(new, name), getattr(ref, name)
        if miss_rtol:
            np.testing.assert_allclose(got, want, rtol=miss_rtol, atol=0)
        else:
            assert np.array_equal(got, want), name
    got, want = _policy_state(new.policy), _policy_state(ref.policy)
    assert got.keys() == want.keys()
    for key in got:
        if key == "caches":
            assert got[key] == want[key]
        else:
            assert np.array_equal(got[key], want[key]), key


@pytest.fixture(scope="module")
def preset_scenarios():
    return {name: generate_scenario(TABLE_PRESETS[name], seed=2)
            for name in ("grid-25", "fog", "full-tree")}


# the policies whose runs take the array walk
ARRAY_WALK = ("gp", "gcfw", "costgreedy")


class TestParentWalk:
    """The request-atomic walk with its per-hop tables (flat-keyed token
    lists, per-node response links) against the walk without them
    (``helpers.ParentWalkSimulator``): the same rng calls in the same order,
    so every output matches bit for bit.

    Both simulators inherit ``Simulator.run``, so the policies that take the
    array walk are made to select the request-atomic walk here; otherwise
    both runs would take the array walk and the case would test nothing.
    """

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("scen_name", ["grid-25", "fog", "full-tree"])
    @pytest.mark.parametrize("policy", ["gp", "gcfw", "sp-lru", "sp-lfu",
                                        "uniform", "mincost", "costgreedy"])
    def test_outputs_match_parent_walk(self, preset_scenarios, policy,
                                       scen_name, seed):
        scen = preset_scenarios[scen_name]
        sched = SimSchedule(t_slot=1.0, slots_per_period=3, periods=3,
                            t_monitor=0.5, hop_latency=0.05)
        runs = []
        for cls in (Simulator, ParentWalkSimulator):
            pol = make_policy(policy, N=10)
            if policy in ARRAY_WALK:
                request_walk(pol)
            runs.append(cls(scen, pol, sched, seed, keep_flow_samples=True).run())
            assert pol.slot_hits() is None
        assert runs[0].requests_issued > 100
        _assert_runs_identical(*runs)


class TestHookCalls:
    """The hooks a tracer counts: ``policy.is_hit`` once per request visit
    and ``Simulator.token_forward`` once per forwarded hop."""

    def test_one_is_hit_per_visit_and_one_draw_per_hop(self):
        import io

        class CountingHits(CountingPolicy):
            lookups = 0
            measured_rate = 0.0   # arrivals per time unit, summed over periods

            def is_hit(self, node, item):
                self.lookups += 1
                return super().is_hit(node, item)

            def on_update(self, period, measured_F, measured_arrivals):
                self.measured_rate += measured_arrivals.sum()
                return 0

        class CountingDraws(Simulator):
            draws = 0

            def token_forward(self, node, item):
                self.draws += 1
                return super().token_forward(node, item)

        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=2)
        traj = run_gp(scen.topology, scen.demand, scen.cost,
                      GPConfig(alpha=0.05, max_periods=50))
        pol = CountingHits(traj.strategy)
        # one slot per period: every visit is measured
        sched = SimSchedule(t_slot=1.0, slots_per_period=1, periods=4,
                            hop_latency=0.05)
        trace = io.StringIO()
        sim = CountingDraws(scen, pol, sched, seed=4, trace=trace)
        run = sim.run()
        # the last period's arrivals are never handed to on_update
        visits = round(pol.measured_rate * sched.t_slot
                       + sim.period_arrivals.sum())
        kinds = [line.split()[1] for line in trace.getvalue().splitlines()]
        assert run.unroutable_total == 0 and run.in_flight > 0
        assert pol.lookups == visits
        assert sim.draws == kinds.count("fwd") > 0
        assert pol.lookups == sim.draws + kinds.count("hit") + kinds.count("server")
        assert kinds.count("hit") > 0
        assert sim.draws >= pol.response_passes > 0

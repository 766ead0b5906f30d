"""Packet-level simulator: forwarding, measurement, policies."""

import numpy as np
import pytest

from cachenet.flow import Strategy, solve_traffic
from cachenet.gp import shortest_path_strategy
from cachenet.network import Demand
from cachenet.policies import (
    EvictionCache,
    EvictionPolicy,
    FrozenStrategyPolicy,
    MinCostDeploymentPolicy,
    UniformDeploymentPolicy,
    flow_costgreedy,
    make_policy,
    track_costs,
)
from cachenet.sim import (
    SimSchedule,
    TokenPool,
    apportion_tokens,
    decision_flow_state,
    mc_measured_cost_model,
    run_simulation,
)
from cachenet.scenarios import ScenarioSpec, generate_scenario

from helpers import line_topology, symmetric_costs
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
        pool = TokenPool()
        pool.refill({1: 25, 2: 25})
        rng = np.random.default_rng(0)
        drawn = [pool.draw(rng) for _ in range(50)]
        assert drawn.count(1) == 25 and drawn.count(2) == 25
        assert pool.draw(rng) is None


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

"""Gradient-projection update rule, scheduling, and convergence behavior."""

import itertools

import numpy as np
import pytest

from cachenet.blocking import dynamic_blocked_sets, static_blocked_sets
from cachenet.flow import Strategy, solve_traffic, validate_strategy
from cachenet.errors import ConfigurationError
from cachenet.gp import (
    GPConfig,
    count_async_messages,
    gp_step,
    run_gp,
    shortest_path_strategy,
)
from cachenet.marginals import check_modified_condition, compute_marginals
from cachenet.network import (
    CostModel,
    Demand,
    Topology,
    linear_cache_costs,
    linear_link_costs,
)

from helpers import line_topology, symmetric_costs


def fork_fixture(b=10.0):
    """Node 0 forwards to neighbors 1 and 2, both adjacent to server 3."""
    links = []
    for a, bb in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        links += [(a, bb), (bb, a)]
    top = Topology(4, links)
    dem = Demand(1, [{3}], np.array([[1.0, 0.0, 0.0, 0.0]]))
    cost = CostModel(
        link=linear_link_costs(
            [{frozenset((0, 1)): 1.0, frozenset((0, 2)): 2.0,
              frozenset((1, 3)): 0.0001, frozenset((2, 3)): 0.0001}[frozenset(e)]
             for e in top.links]
        ),
        cache=linear_cache_costs([b] * 4),
    )
    return top, dem, cost


def node_pairs(demand, topology, node):
    """``gp_step`` mask selecting every item at one node."""
    pairs = np.zeros((demand.num_items, topology.num_nodes), dtype=bool)
    pairs[:, node] = True
    return pairs


def step_delta(topology, demand, strategy, flow, marg, blocked, alpha, node):
    """Apply ``gp_step`` at one node to a copy; returns (copy, dphi, dy)."""
    after = strategy.copy()
    gp_step(topology, demand, after, flow, marg, blocked, alpha,
            node_pairs(demand, topology, node))
    return after, after.phi - strategy.phi, after.y - strategy.y


def conservation_error(topology, node, dphi, dy):
    """Worst per-item |sum of the node's out-link changes + its y change|."""
    out = list(topology.out_edges[node])
    return float(np.abs(dphi[:, out].sum(axis=1) + dy[:, node]).max())


class TestUpdateRule:
    def test_fixed_point_no_change(self):
        # all unblocked directions tie and nothing blocked carries mass
        top = line_topology(2)
        dem = Demand(1, [{1}], np.array([[1.0, 0.0]]))
        cost = symmetric_costs(top, {frozenset((0, 1)): 1.0}, [100.0, 100.0])
        s = Strategy.from_dicts(top, 1, phi={(0, 1, 0): 1.0})
        blocked = static_blocked_sets(top, dem, cost=cost)
        fs = solve_traffic(top, dem, s, cost)
        m = compute_marginals(top, dem, s, fs, cost, blocked)
        after, _, _ = step_delta(top, dem, s, fs, m, blocked, 0.01, node=0)
        assert np.array_equal(after.phi, s.phi)
        assert np.array_equal(after.y, s.y)

    def test_two_neighbor_transfer_matches_hand_calc(self):
        # phi = (0.5, 0.5), delta = (1, 2), alpha = 0.01, t = 1:
        # the worse direction loses alpha * e = 0.01, the best gains it
        top, dem, cost = fork_fixture(b=1000.0)
        s = Strategy.from_dicts(
            top, 1, phi={(0, 1, 0): 0.5, (0, 2, 0): 0.5,
                         (1, 3, 0): 1.0, (2, 3, 0): 1.0}
        )
        blocked = static_blocked_sets(top, dem, cost=cost)
        fs = solve_traffic(top, dem, s, cost)
        m = compute_marginals(top, dem, s, fs, cost, blocked)
        e01 = top.edge_index[(0, 1)]
        e02 = top.edge_index[(0, 2)]
        d1, d2 = m.delta_link[0, e01], m.delta_link[0, e02]
        assert d1 == pytest.approx(1.0001)
        assert d2 == pytest.approx(2.0001)
        _, dphi, dy = step_delta(top, dem, s, fs, m, blocked, 0.01, node=0)
        expected = 0.01 * (d2 - d1)
        assert dphi[0, e02] == pytest.approx(-expected)
        assert dphi[0, e01] == pytest.approx(expected)
        assert dy[0, 0] == 0.0
        assert conservation_error(top, 0, dphi, dy) < 1e-15

    def test_blocked_mass_fully_removed(self):
        top, dem, cost = fork_fixture(b=1000.0)
        s = Strategy.from_dicts(
            top, 1, phi={(0, 1, 0): 0.7, (0, 2, 0): 0.3,
                         (1, 3, 0): 1.0, (2, 3, 0): 1.0}
        )
        # block (0, 2) by hand
        blocked = static_blocked_sets(top, dem, cost=cost)
        blocked.mask[0, top.edge_index[(0, 2)]] = True
        fs = solve_traffic(top, dem, s, cost)
        m = compute_marginals(top, dem, s, fs, cost, blocked)
        _, dphi, _ = step_delta(top, dem, s, fs, m, blocked, 0.01, node=0)
        e02 = top.edge_index[(0, 2)]
        e01 = top.edge_index[(0, 1)]
        assert dphi[0, e02] == pytest.approx(-0.3)
        assert dphi[0, e01] >= 0.3 - 1e-12  # plus alpha-driven transfers

    def test_zero_traffic_parks_mass_and_zeroes_y(self):
        top, dem, cost = fork_fixture(b=10.0)
        dem0 = Demand(1, [{3}], np.zeros((1, 4)))
        s = Strategy.from_dicts(
            top, 1, phi={(0, 2, 0): 0.6, (1, 3, 0): 1.0, (2, 3, 0): 1.0},
            y={(0, 0): 0.4},
        )
        blocked = static_blocked_sets(top, dem0, cost=cost)
        fs = solve_traffic(top, dem0, s, cost)
        m = compute_marginals(top, dem0, s, fs, cost, blocked)
        gp_step(top, dem0, s, fs, m, blocked, 0.01, node_pairs(dem0, top, 0))
        assert s.y[0, 0] == 0.0
        # all mass parked on the cheaper unblocked direction (0, 1)
        assert s.phi[0, top.edge_index[(0, 1)]] == pytest.approx(1.0)
        assert s.phi[0, top.edge_index[(0, 2)]] == 0.0
        assert validate_strategy(top, dem0, s).passed

    def test_conservation_after_random_updates(self):
        rng = np.random.default_rng(12)
        from helpers import random_loopfree_instance

        for _ in range(5):
            top, dem, cost, s = random_loopfree_instance(rng)
            blocked = dynamic_blocked_sets(top, dem, s)
            fs = solve_traffic(top, dem, s, cost)
            m = compute_marginals(top, dem, s, fs, cost, blocked)
            for i in range(top.num_nodes):
                s, dphi, dy = step_delta(top, dem, s, fs, m, blocked, 0.05, i)
                assert conservation_error(top, i, dphi, dy) < 1e-12
            assert validate_strategy(top, dem, s).passed


class TestRunGp:
    def test_no_periods_rejected(self):
        with pytest.raises(ConfigurationError):
            GPConfig(max_periods=0)

    def test_immediate_termination_at_fixed_point(self):
        top = line_topology(2)
        dem = Demand(1, [{1}], np.array([[1.0, 0.0]]))
        cost = symmetric_costs(top, {frozenset((0, 1)): 1.0}, [100.0, 100.0])
        traj = run_gp(top, dem, cost, GPConfig(max_periods=50, tol=1e-9))
        assert traj.converged
        assert len(traj.records) == 1

    def test_descent_and_loopfree_both_modes(self):
        rng = np.random.default_rng(3)
        from helpers import random_loopfree_instance

        top, dem, cost, _ = random_loopfree_instance(rng, max_nodes=6, max_items=2)
        for mode in ("static", "dynamic"):
            traj = run_gp(
                top, dem, cost,
                GPConfig(alpha=0.01, max_periods=400, tol=1e-6,
                         blocked_mode=mode),
            )
            costs = [r.total_cost for r in traj.records]
            assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))
            assert all(r.loop_free for r in traj.records)

    def test_terminal_point_satisfies_restricted_condition(self):
        rng = np.random.default_rng(4)
        from helpers import random_loopfree_instance

        top, dem, cost, _ = random_loopfree_instance(rng, max_nodes=5, max_items=2)
        traj = run_gp(
            top, dem, cost,
            GPConfig(alpha=0.02, max_periods=4000, tol=1e-5),
        )
        assert traj.converged
        rep = check_modified_condition(
            top, dem, traj.strategy, cost, blocked=traj.blocked, tol=1e-5
        )
        assert rep.passed

    def test_fixed_point_stability(self):
        # applying updates at a converged point changes nothing
        rng = np.random.default_rng(5)
        from helpers import random_loopfree_instance

        top, dem, cost, _ = random_loopfree_instance(rng, max_nodes=5, max_items=1)
        traj = run_gp(top, dem, cost, GPConfig(alpha=0.02, max_periods=4000, tol=1e-9))
        assert traj.converged
        s = traj.strategy
        fs = solve_traffic(top, dem, s, cost)
        m = compute_marginals(top, dem, s, fs, cost, traj.blocked)
        after = s.copy()
        gp_step(top, dem, after, fs, m, traj.blocked, 0.02,
                np.ones_like(s.y, dtype=bool))
        assert np.abs(after.phi - s.phi).max() < 1e-8
        assert np.abs(after.y - s.y).max() < 1e-8

    def test_three_node_matches_brute_force(self):
        # exhaustive (phi, y) grid at step 0.02 on a line instance
        top = line_topology(3)
        dem = Demand(1, [{2}], np.array([[1.0, 0.5, 0.0]]))
        cost = CostModel(
            link=symmetric_costs(
                top, {frozenset((0, 1)): 0.5, frozenset((1, 2)): 0.7},
                [0.0] * 3, kind="poly3",
            ).link,
            cache=linear_cache_costs([0.6, 0.6, 0.6]),
        )
        grid = np.round(np.arange(0.0, 1.0001, 0.02), 10)
        best_t = np.inf
        for y0, y1 in itertools.product(grid, repeat=2):
            s = Strategy.from_dicts(
                top, 1,
                phi={(0, 1, 0): 1.0 - y0, (1, 2, 0): 1.0 - y1},
                y={(0, 0): y0, (1, 0): y1},
            )
            t = solve_traffic(top, dem, s, cost).total_cost
            best_t = min(best_t, t)
        traj = run_gp(top, dem, cost, GPConfig(alpha=0.02, max_periods=5000, tol=1e-7))
        assert traj.final_cost <= best_t * 1.02

    def test_round_robin_schedule_converges(self):
        top, dem, cost = fork_fixture(b=0.6)
        traj = run_gp(
            top, dem, cost,
            GPConfig(alpha=0.05, max_periods=4000, tol=1e-6,
                     schedule="round-robin"),
        )
        assert traj.converged
        costs = [r.total_cost for r in traj.records]
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_random_schedule_converges(self):
        top, dem, cost = fork_fixture(b=0.6)
        traj = run_gp(
            top, dem, cost,
            GPConfig(alpha=0.05, max_periods=6000, tol=1e-6,
                     schedule="random", seed=5),
        )
        assert traj.converged

    def test_update_report_post_cost(self):
        top, dem, cost = fork_fixture(b=1000.0)
        s = Strategy.from_dicts(
            top, 1, phi={(0, 1, 0): 0.5, (0, 2, 0): 0.5,
                         (1, 3, 0): 1.0, (2, 3, 0): 1.0}
        )
        blocked = static_blocked_sets(top, dem, cost=cost)
        fs = solve_traffic(top, dem, s, cost)
        m = compute_marginals(top, dem, s, fs, cost, blocked)
        after, _, _ = step_delta(top, dem, s, fs, m, blocked, 0.01, node=0)
        # the transfer moves mass to the cheaper fork: cost must drop
        assert solve_traffic(top, dem, after, cost).total_cost < fs.total_cost


class TestMessages:
    def test_synchronous_count(self):
        # |C| * |E| per update slot: 2 items, 6 directed links -> 12
        top = Topology(3, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
        dem = Demand(2, [{2}, {2}], np.array([[1.0, 0, 0], [1.0, 0, 0]]))
        cost = symmetric_costs(
            top, {frozenset(e): 1.0 for e in [(0, 1), (0, 2), (1, 2)]}, [1.0] * 3
        )
        traj = run_gp(top, dem, cost, GPConfig(max_periods=1, tol=1e-12))
        assert traj.records[0].messages == 2 * 6

    def test_single_pair_count(self):
        top = line_topology(2)
        dem = Demand(1, [{1}], np.array([[1.0, 0.0]]))
        cost = symmetric_costs(top, {frozenset((0, 1)): 1.0}, [1.0, 1.0])
        traj = run_gp(top, dem, cost, GPConfig(max_periods=1, tol=1e-12))
        assert traj.records[0].messages == 1 * 2

    def test_async_counts_only_upstream_closure(self):
        # line 0 -> 1 -> 2 -> 3(server), updater 1 with static blocking:
        # candidates of 1: {2}; closure: 2 -> 3; messages: 2->1, 3->2 = 2
        top = line_topology(4)
        dem = Demand(1, [{3}], np.array([[1.0, 0.0, 0.0, 0.0]]))
        cost = symmetric_costs(
            top, {frozenset((i, i + 1)): 1.0 for i in range(3)}, [1.0] * 4
        )
        s = shortest_path_strategy(top, dem, cost)
        blocked = static_blocked_sets(top, dem, cost=cost)
        n = count_async_messages(top, dem, s, blocked, node=1)
        assert n == 2
        # updater 0 additionally needs 1's value: 1->0, 2->1, 3->2 = 3
        assert count_async_messages(top, dem, s, blocked, node=0) == 3

"""Cross-module structural properties of the cost model."""

import itertools

import numpy as np
import pytest

from cachenet.blocking import dynamic_blocked_sets, static_blocked_sets
from cachenet.flow import T_ZERO, Strategy, dag_levels, solve_dense, solve_traffic
from cachenet.gp import GPConfig, gp_step, message_counts, run_gp
from cachenet.marginals import compute_marginals
from cachenet.network import Demand, Topology
from cachenet.scenarios import TABLE_PRESETS, generate_scenario

from helpers import (
    appendix_loop_fixture,
    line_topology,
    random_loopfree_instance,
    reference_gp_step,
    symmetric_costs,
)


class TestUniformCacheScaling:
    """Scaling all y by a common factor with conditional routing fixed never
    decreases the total cost at a point satisfying the modified condition."""

    def _scaled(self, strategy, c):
        # rho is undefined at y = 1 (nothing is forwarded); those entries
        # stay pinned, everything else scales with conditional routing fixed
        s = strategy.copy()
        old_y = strategy.y
        pinned = old_y >= 1.0 - 1e-12
        new_y = np.where(pinned, old_y, np.clip(c * old_y, 0.0, 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(pinned, 1.0, (1.0 - new_y) / (1.0 - old_y))
        s.phi = strategy.phi * ratio[:, strategy.topology.src]
        s.y = new_y
        return s

    def test_scaling_never_improves(self):
        rng = np.random.default_rng(77)
        tested = 0
        for trial in range(6):
            top, dem, cost, _ = random_loopfree_instance(rng, 5, 2)
            traj = run_gp(top, dem, cost,
                          GPConfig(alpha=0.02, max_periods=4000, tol=1e-7))
            if not traj.converged:
                continue
            base = solve_traffic(top, dem, traj.strategy, cost).total_cost
            for c in (0.0, 0.3, 0.6, 0.9, 1.1, 1.4):
                scaled = self._scaled(traj.strategy, c)
                t = solve_traffic(top, dem, scaled, cost).total_cost
                assert t >= base - 1e-7, (trial, c, t, base)
            tested += 1
        assert tested >= 4


class TestLoopSuboptimality:
    """With binary caching, the loop-free rerouting construction strictly
    beats every strictly positive loop flow."""

    def _loop_fixture(self):
        # i=0 and j=1 exchange flow; p=2 and q=3 are their designated exits
        links = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 3), (3, 1)]
        top = Topology(4, links)
        dem = Demand(1, [{2, 3}], np.array([[1.0, 0.7, 0.0, 0.0]]))
        cost = symmetric_costs(
            top,
            {frozenset((0, 1)): 1.0, frozenset((0, 2)): 2.0,
             frozenset((1, 3)): 2.0},
            [0.0] * 4,
        )
        return top, dem, cost

    def _reroute(self, top, dem, strategy, cost):
        """The exit-flow-preserving loop-free construction (orientation
        chosen by which exit flow exceeds its exogenous rate)."""
        fs = solve_traffic(top, dem, strategy, cost)
        r0, r1 = dem.rates[0, 0], dem.rates[0, 1]
        f_0p = fs.F[top.edge_index[(2, 0)]]  # responses p->0 serve 0->p
        f_1q = fs.F[top.edge_index[(3, 1)]]
        s = Strategy(top, 1)
        if f_1q >= r1:
            s.set_phi(0, 2, 0, f_0p / r0)
            s.set_phi(0, 1, 0, 1.0 - f_0p / r0)
            s.set_phi(1, 3, 0, 1.0)
        else:
            s.set_phi(1, 3, 0, f_1q / r1)
            s.set_phi(1, 0, 0, 1.0 - f_1q / r1)
            s.set_phi(0, 2, 0, 1.0)
        return s

    def test_rerouting_strictly_better_on_grid(self):
        top, dem, cost = self._loop_fixture()
        grid = np.round(np.arange(0.05, 0.96, 0.05), 10)
        for pij, pji in itertools.product(grid, grid):
            loopy = Strategy.from_dicts(
                top, 1,
                phi={(0, 1, 0): pij, (0, 2, 0): 1.0 - pij,
                     (1, 0, 0): pji, (1, 3, 0): 1.0 - pji},
            )
            t_loop = solve_traffic(top, dem, loopy, cost).total_cost
            rerouted = self._reroute(top, dem, loopy, cost)
            t_free = solve_traffic(top, dem, rerouted, cost).total_cost
            assert t_free < t_loop - 1e-12, (pij, pji, t_free, t_loop)

    def test_rerouting_preserves_exit_flows(self):
        top, dem, cost = self._loop_fixture()
        loopy = Strategy.from_dicts(
            top, 1,
            phi={(0, 1, 0): 0.6, (0, 2, 0): 0.4, (1, 0, 0): 0.5, (1, 3, 0): 0.5},
        )
        fs = solve_traffic(top, dem, loopy, cost)
        rerouted = self._reroute(top, dem, loopy, cost)
        fs2 = solve_traffic(top, dem, rerouted, cost)
        for exit_edge in ((2, 0), (3, 1)):
            e = top.edge_index[exit_edge]
            assert fs2.F[e] == pytest.approx(fs.F[e], abs=1e-12)
        # internal loop flow strictly decreases
        assert fs2.F[top.edge_index[(0, 1)]] < fs.F[top.edge_index[(0, 1)]]
        assert fs2.F[top.edge_index[(1, 0)]] < fs.F[top.edge_index[(1, 0)]]


class TestMessageCounts:
    def test_counts_exposed_per_period(self):
        top = line_topology(3)
        dem = Demand(1, [{2}], np.array([[1.0, 0.0, 0.0]]))
        cost = symmetric_costs(
            top, {frozenset((0, 1)): 1.0, frozenset((1, 2)): 1.0}, [1.0] * 3
        )
        traj = run_gp(top, dem, cost, GPConfig(max_periods=4, tol=1e-15))
        counts = message_counts(traj)
        assert counts == [4] * len(traj.records)  # |C| * |E| = 1 * 4


class TestSweepMatchesDense:
    """The level sweeps solve the same triangular systems as the dense
    solve, which stays the reference and the fallback for cyclic items."""

    @staticmethod
    def _close(got, ref, tol=1e-12):
        scale = max(1.0, float(np.abs(ref).max()))
        assert np.abs(got - ref).max() <= tol * scale

    def _check(self, top, dem, cost, strat):
        phi = strat.phi
        fs = solve_traffic(top, dem, strat, cost)
        t_ref = solve_dense(top, phi, dem.rates)
        self._close(fs.t, t_ref)
        self._close(fs.F, (t_ref[:, top.dst] * phi[:, top.rev]).sum(axis=0))

        marg = compute_marginals(top, dem, strat, fs, cost)
        assert marg.acyclic.all()
        resp = marg.link_deriv[top.rev]
        c = np.zeros((top.num_nodes, dem.num_items))
        np.add.at(c, top.src, (phi * resp).T)
        self._close(marg.dTdr, solve_dense(top, phi, c.T, transpose=True))

    def test_random_loopfree_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            self._check(*random_loopfree_instance(rng, max_nodes=8))

    def test_mid_run_gp_strategies_on_grid25(self):
        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=1)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        for mode in ("static", "dynamic"):
            for periods in (1, 15, 40):
                traj = run_gp(top, dem, cost, GPConfig(
                    alpha=0.05, max_periods=periods, tol=1e-12,
                    blocked_mode=mode,
                ))
                self._check(top, dem, cost, traj.strategy)

    def test_loop_fixture_takes_dense_path(self):
        top, dem, cost, loop, _, _ = appendix_loop_fixture()
        _, acyclic = dag_levels(top, loop.phi != 0)
        assert acyclic.tolist() == [False]
        fs = solve_traffic(top, dem, loop, cost)
        assert np.array_equal(fs.t, solve_dense(top, loop.phi, dem.rates))
        marg = compute_marginals(top, dem, loop, fs, cost)
        assert marg.acyclic.tolist() == [False]


class TestGpStepMatchesLoop:
    """The array-form step equals the per-pair loop reference bit for bit,
    on every schedule's mask shape and on zero-traffic pairs."""

    def _check(self, top, dem, cost, strat, blocked, pairs, alpha):
        fs = solve_traffic(top, dem, strat, cost)
        marg = compute_marginals(top, dem, strat, fs, cost, blocked)
        got, ref = strat.copy(), strat.copy()
        gp_step(top, dem, got, fs, marg, blocked, alpha, pairs)
        reference_gp_step(top, dem, ref, fs, marg, blocked, alpha, pairs)
        assert np.array_equal(got.phi, ref.phi)
        assert np.array_equal(got.y, ref.y)
        return int(((fs.t <= T_ZERO) & pairs).sum())

    def test_idle_tie_goes_to_lowest_neighbor(self):
        # idle node 0 sees three equal hops 1, 2, 3 to server 4
        links = []
        for a, b in [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]:
            links += [(a, b), (b, a)]
        top = Topology(5, links)
        dem = Demand(1, [{4}], np.array([[0.0, 1.0, 1.0, 1.0, 0.0]]))
        cost = symmetric_costs(top, {frozenset(e): 1.0 for e in links},
                               [1.0] * 5)
        strat = Strategy.from_dicts(
            top, 1,
            phi={(0, 2, 0): 0.4, (0, 3, 0): 0.4,
                 (1, 4, 0): 1.0, (2, 4, 0): 1.0, (3, 4, 0): 1.0},
            y={(0, 0): 0.2},
        )
        blocked = static_blocked_sets(top, dem, cost=cost)
        pairs = np.ones(strat.y.shape, dtype=bool)
        assert self._check(top, dem, cost, strat, blocked, pairs, 0.1) > 0
        fs = solve_traffic(top, dem, strat, cost)
        marg = compute_marginals(top, dem, strat, fs, cost, blocked)
        gp_step(top, dem, strat, fs, marg, blocked, 0.1, pairs)
        assert strat.phi[0, top.edge_index[(0, 1)]] == 1.0
        assert strat.y[0, 0] == 0.0

    def test_random_instances_with_idle_pairs(self):
        rng = np.random.default_rng(808)
        idle = 0
        for _ in range(60):
            top, dem, cost, strat = random_loopfree_instance(rng, max_nodes=8)
            rates = dem.rates.copy()
            rates[:, rng.random(top.num_nodes) < 0.5] = 0.0
            dem = Demand(dem.num_items, dem.servers, rates)
            shape = strat.y.shape
            column = np.zeros(shape, dtype=bool)
            column[:, rng.integers(top.num_nodes)] = True
            for blocked in (static_blocked_sets(top, dem, cost=cost),
                            dynamic_blocked_sets(top, dem, strat)):
                for pairs in (np.ones(shape, dtype=bool), column,
                              rng.random(shape) < 0.5):
                    alpha = float(rng.choice([0.01, 0.1, 2.0]))
                    idle += self._check(top, dem, cost, strat, blocked, pairs,
                                        alpha)
        assert idle > 0

    def test_mid_run_gp_states_on_grid25(self):
        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=1)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        rng = np.random.default_rng(9)
        for mode in ("static", "dynamic"):
            for periods in (1, 15, 40):
                traj = run_gp(top, dem, cost, GPConfig(
                    alpha=0.05, max_periods=periods, tol=1e-12,
                    blocked_mode=mode,
                ))
                strat = traj.strategy
                blocked = (static_blocked_sets(top, dem, cost=cost)
                           if mode == "static"
                           else dynamic_blocked_sets(top, dem, strat))
                for pairs in (np.ones(strat.y.shape, dtype=bool),
                              rng.random(strat.y.shape) < 0.5):
                    self._check(top, dem, cost, strat, blocked, pairs, 0.05)

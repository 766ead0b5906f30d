"""Marginal-cost computation and optimality-condition checks."""

import itertools

import numpy as np
import pytest

from cachenet.flow import Strategy, solve_traffic
from cachenet.marginals import (
    check_kkt,
    check_modified_condition,
    compute_marginals,
)
from cachenet.network import CostModel, Demand, linear_cache_costs

from helpers import (
    appendix_loop_fixture,
    fd_phi_pair,
    line_topology,
    random_loopfree_instance,
    reference_kkt,
    reference_residuals,
    symmetric_costs,
)


def chain_fixture():
    """0 -> 1 -> 2 (server), unit rates and unit linear marginals."""
    top = line_topology(3)
    dem = Demand(1, [{2}], np.array([[1.0, 0.0, 0.0]]))
    cost = symmetric_costs(
        top, {frozenset((0, 1)): 1.0, frozenset((1, 2)): 1.0}, [0.0] * 3
    )
    s = Strategy.from_dicts(top, 1, phi={(0, 1, 0): 1.0, (1, 2, 0): 1.0})
    return top, dem, cost, s


class TestComputeMarginals:
    def test_server_marginal_zero(self):
        top, dem, cost, s = chain_fixture()
        fs = solve_traffic(top, dem, s, cost)
        m = compute_marginals(top, dem, s, fs, cost)
        assert m.dTdr[0, 2] == 0.0

    def test_chain_recursion_by_hand(self):
        # dT/dr_1 = 1 (one unit-marginal hop), dT/dr_0 = 2 (two hops)
        top, dem, cost, s = chain_fixture()
        fs = solve_traffic(top, dem, s, cost)
        m = compute_marginals(top, dem, s, fs, cost)
        assert m.dTdr[0, 1] == pytest.approx(1.0)
        assert m.dTdr[0, 0] == pytest.approx(2.0)

    def test_full_cache_marginal_zero(self):
        # y_i(k) = 1 terminates everything locally: dT/dr_i(k) = 0
        top = line_topology(3)
        dem = Demand(1, [{2}], np.array([[1.0, 0.0, 0.0]]))
        cost = symmetric_costs(
            top, {frozenset((0, 1)): 1.0, frozenset((1, 2)): 1.0}, [1.0] * 3
        )
        s = Strategy.from_dicts(top, 1, phi={(0, 1, 0): 1.0}, y={(1, 0): 1.0})
        fs = solve_traffic(top, dem, s, cost)
        m = compute_marginals(top, dem, s, fs, cost)
        assert m.dTdr[0, 1] == 0.0
        assert m.dTdr[0, 0] == pytest.approx(1.0)  # one hop, then absorbed

    def test_zero_traffic_cache_marginal_is_inf(self):
        top, dem, cost, s = chain_fixture()
        cost = symmetric_costs(
            top, {frozenset((0, 1)): 1.0, frozenset((1, 2)): 1.0}, [1.0, 1.0, 1.0]
        )
        dem0 = Demand(1, [{2}], np.array([[0.0, 1.0, 0.0]]))  # node 0 idle
        fs = solve_traffic(top, dem0, s, cost)
        m = compute_marginals(top, dem0, s, fs, cost)
        assert np.isinf(m.delta_cache[0, 0])
        assert np.isfinite(m.delta_cache[0, 1])

    def test_loop_marginals_match_dense_solve(self):
        # the Appendix-J loop needs the dense path; check against the
        # hand-solved 2x2 system dT/dr_0 = 3, dT/dr_1 = 2
        top, dem, cost, loop, _, _ = appendix_loop_fixture()
        fs = solve_traffic(top, dem, loop, cost)
        m = compute_marginals(top, dem, loop, fs, cost)
        assert m.dTdr[0, 0] == pytest.approx(3.0)
        assert m.dTdr[0, 1] == pytest.approx(2.0)

    def test_eq7_decomposition(self):
        # delta_ij(k) * t_i(k) equals dT/dphi_ij(k) exactly as computed
        rng = np.random.default_rng(3)
        top, dem, cost, s = random_loopfree_instance(rng)
        fs = solve_traffic(top, dem, s, cost)
        m = compute_marginals(top, dem, s, fs, cost)
        for k in range(dem.num_items):
            for e, (i, j) in enumerate(top.links):
                dT_dphi = fs.t[k, i] * (
                    m.link_deriv[top.rev[e]] + m.dTdr[k, j]
                )
                assert dT_dphi == pytest.approx(fs.t[k, i] * m.delta_link[k, e])

    def test_marginals_match_finite_differences(self):
        # conservation-preserving mass shift between two out-directions
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 8:
            top, dem, cost, s = random_loopfree_instance(rng)
            fs = solve_traffic(top, dem, s, cost)
            m = compute_marginals(top, dem, s, fs, cost)
            for k in range(dem.num_items):
                for i in range(top.num_nodes - 1):
                    ee = [e for e in top.out_edges[i] if s.phi[k, e] > 0.05]
                    if len(ee) < 2:
                        continue
                    e1, e2 = ee[0], ee[1]
                    analytic = fs.t[k, i] * (m.delta_link[k, e1] - m.delta_link[k, e2])
                    fd = fd_phi_pair(top, dem, s, cost, k, e1, e2, h=1e-6)
                    assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-8)
                    checked += 1

    def test_cache_partial_is_cache_deriv(self):
        # dT/dy_i(k) = B'_i(Y_i): perturb y alone and difference total_cost
        rng = np.random.default_rng(5)
        top, dem, cost, s = random_loopfree_instance(rng)
        fs = solve_traffic(top, dem, s, cost)
        m = compute_marginals(top, dem, s, fs, cost)
        h = 1e-6
        for i in range(top.num_nodes - 1):
            up, dn = s.copy(), s.copy()
            up.y[0, i] += h
            dn.y[0, i] -= h
            fd = (
                solve_traffic(top, dem, up, cost).total_cost
                - solve_traffic(top, dem, dn, cost).total_cost
            ) / (2 * h)
            assert fd == pytest.approx(m.cache_deriv[i], rel=1e-6, abs=1e-8)


class TestCheckKkt:
    def test_single_route_choice_passes(self):
        # 2-node network, one direction available: always the minimum
        top = line_topology(2)
        dem = Demand(1, [{1}], np.array([[1.0, 0.0]]))
        cost = symmetric_costs(top, {frozenset((0, 1)): 1.0}, [5.0, 5.0])
        s = Strategy.from_dicts(top, 1, phi={(0, 1, 0): 1.0})
        rep = check_kkt(top, dem, s, cost, tol=1e-9)
        assert rep.passed

    def test_zero_traffic_pair_passes(self):
        top, dem, cost, s = chain_fixture()
        cost = symmetric_costs(
            top, {frozenset((0, 1)): 1.0, frozenset((1, 2)): 1.0}, [1.0] * 3
        )
        dem0 = Demand(1, [{2}], np.array([[0.0, 1.0, 0.0]]))
        rep = check_kkt(top, dem0, s, cost, tol=1e-9)
        # node 0 carries no traffic: lambda = 0 and its rows pass trivially
        assert not [v for v in rep.violations if v[0][1] == 0]

    def _brute_force_line(self, top, dem, cost, grid):
        best, best_t = None, np.inf
        for y0, y1, p10 in itertools.product(grid, repeat=3):
            if y0 > 1 or y1 + p10 > 1:
                continue
            s = Strategy.from_dicts(
                top, 1,
                phi={(0, 1, 0): 1.0 - y0, (1, 0, 0): p10,
                     (1, 2, 0): 1.0 - y1 - p10},
                y={(0, 0): y0, (1, 0): y1},
            )
            try:
                t = solve_traffic(top, dem, s, cost).total_cost
            except Exception:
                continue
            if t < best_t:
                best, best_t = s, t
        return best, best_t

    def test_perturbed_optimum_fails(self):
        top = line_topology(3)
        dem = Demand(1, [{2}], np.array([[1.0, 0.5, 0.0]]))
        cost = CostModel(
            link=symmetric_costs(
                top, {frozenset((0, 1)): 0.5, frozenset((1, 2)): 0.7},
                [0.0] * 3, kind="poly3",
            ).link,
            cache=linear_cache_costs([0.4, 0.4, 0.4]),
        )
        grid = np.round(np.arange(0.0, 1.0001, 0.05), 10)
        best, best_t = self._brute_force_line(top, dem, cost, grid)
        assert best is not None
        # perturb well beyond the grid resolution, staying feasible: shift
        # mass at node 1 into the wasteful back-edge (1,0)
        pert = best.copy()
        e12, e10 = top.edge_index[(1, 2)], top.edge_index[(1, 0)]
        if pert.phi[0, e12] >= 0.25:
            pert.phi[0, e12] -= 0.2
        else:
            pert.y[0, 1] -= 0.2
        pert.phi[0, e10] += 0.2
        rep = check_kkt(top, dem, pert, cost, tol=1e-3)
        assert not rep.passed
        assert rep.worst > 1e-3


    def test_array_form_matches_loop_reference(self):
        # bit-equal multipliers, the same worst value and the same
        # violations, on random instances (some pairs without traffic) and
        # on both appendix strategies (the loop one takes the dense path)
        rng = np.random.default_rng(57)
        cases = []
        for _ in range(40):
            top, dem, cost, s = random_loopfree_instance(rng, max_nodes=7)
            rates = dem.rates.copy()
            rates[:, rng.random(top.num_nodes) < 0.3] = 0.0
            cases.append((top, Demand(dem.num_items, dem.servers, rates), cost, s))
        top, dem, cost, loop, loop_free, _ = appendix_loop_fixture()
        cases += [(top, dem, cost, loop), (top, dem, cost, loop_free)]
        violated = 0
        for top, dem, cost, s in cases:
            for tol in (0.0, 1e-6, 0.1):
                rep = check_kkt(top, dem, s, cost, tol=tol)
                lam, worst, violations = reference_kkt(top, dem, s, cost, tol=tol)
                assert np.array_equal(rep.multipliers, lam)
                assert rep.worst == worst
                assert rep.violations == violations
                assert rep.passed == (worst <= tol)
                violated += len(violations)
        assert violated > 0


class TestModifiedCondition:
    def test_appendix_loop_configuration_passes(self):
        top, dem, cost, loop, _, caps = appendix_loop_fixture()
        rep = check_modified_condition(
            top, dem, loop, cost, tol=1e-9, cache_caps=caps
        )
        assert rep.passed, rep.violations

    def test_unequal_split_fails(self):
        # splitting flow across two neighbors with unequal delta must fail
        top = line_topology(3)
        # nodes 0,1,2 in a triangle so node 1 has two routes
        from cachenet.network import Topology

        top = Topology(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
        dem = Demand(1, [{2}], np.array([[1.0, 0.0, 0.0]]))
        cost = symmetric_costs(
            top,
            {frozenset((0, 1)): 1.0, frozenset((1, 2)): 1.0, frozenset((0, 2)): 5.0},
            [10.0] * 3,
        )
        s = Strategy.from_dicts(
            top, 1, phi={(0, 1, 0): 0.5, (0, 2, 0): 0.5, (1, 2, 0): 1.0}
        )
        rep = check_modified_condition(top, dem, s, cost, tol=1e-6)
        assert not rep.passed
        assert any(v[0][0] == "route" for v in rep.violations)

    def test_loop_free_configuration_fails(self):
        # the loop-free variant is suboptimal (3.5 vs 3.0): its relay node
        # splits between the server route (marginal 5) and the blocked-off
        # cheaper loop route (marginal 4.5), violating the tie requirement
        top, dem, cost, _, loop_free, caps = appendix_loop_fixture()
        rep = check_modified_condition(
            top, dem, loop_free, cost, tol=1e-6, cache_caps=caps
        )
        assert not rep.passed
        assert rep.worst == pytest.approx(0.5)

    def test_t_zero_forces_y_zero(self):
        top, dem, cost, s = chain_fixture()
        cost = symmetric_costs(
            top, {frozenset((0, 1)): 1.0, frozenset((1, 2)): 1.0}, [1.0] * 3
        )
        dem0 = Demand(1, [{2}], np.array([[0.0, 1.0, 0.0]]))
        bad = Strategy.from_dicts(
            top, 1, phi={(0, 1, 0): 0.6, (1, 2, 0): 1.0}, y={(0, 0): 0.4}
        )
        rep = check_modified_condition(top, dem0, bad, cost, tol=1e-6)
        assert any(v[0][0] == "cache_t0" for v in rep.violations)

    def test_vectorized_and_reference_residuals_agree(self):
        # the array path (cache caps as a mask) and the per-pair reference
        # loop must report the same worst value and multipliers exactly,
        # with no cap table, random cap tables and random blocked masks
        rng = np.random.default_rng(31)
        from cachenet.blocking import BlockedSets, dynamic_blocked_sets

        def agree(top, dem, s, cost, blocked, caps):
            fs = solve_traffic(top, dem, s, cost)
            m = compute_marginals(top, dem, s, fs, cost, blocked)
            rep = check_modified_condition(
                top, dem, s, cost, blocked=blocked, tol=1e-9, cache_caps=caps,
                flow=fs, marg=m,
            )
            worst, delta = reference_residuals(top, dem, s, fs, m, blocked, caps)
            assert rep.worst == worst
            assert np.array_equal(rep.multipliers, delta)
            assert rep.passed == (worst <= 1e-9)

        for _ in range(40):
            top, dem, cost, s = random_loopfree_instance(rng)
            s.y[0, 0] = min(1.0, s.y[0, 0] + 0.2)  # break optimality a bit
            caps = {}
            for i in range(top.num_nodes):
                for k in range(dem.num_items):
                    draw = rng.random()
                    if draw < 0.3:
                        caps[(i, k)] = s.y[k, i]           # at the cap
                    elif draw < 0.45:
                        caps[(i, k)] = s.y[k, i] + 0.1     # below the cap
            random_mask = BlockedSets("static", rng.random(s.phi.shape) < 0.5)
            for blocked in (None, dynamic_blocked_sets(top, dem, s), random_mask):
                for table in (None, caps):
                    agree(top, dem, s, cost, blocked, table)

        top, dem, cost, loop, loop_free, caps = appendix_loop_fixture()
        for strat in (loop, loop_free):
            agree(top, dem, strat, cost, None, caps)

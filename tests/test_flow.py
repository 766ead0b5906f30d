"""Strategy validation and exact traffic/cost computation."""

import numpy as np
import pytest

from cachenet.errors import (
    CapacityExceededError,
    DivergentCirculationError,
    StructuralError,
)
from cachenet.flow import Strategy, solve_traffic, validate_strategy
from cachenet.network import (
    CostModel,
    Demand,
    Topology,
    queueing_link_costs,
    zero_costs,
)

from helpers import (
    appendix_loop_fixture,
    line_topology,
    random_loopfree_instance,
    reference_validate_strategy,
    symmetric_costs,
)


def unit_chain(n=3, rate=1.0):
    top = line_topology(n)
    dem = Demand(1, [{n - 1}], np.array([[rate] + [0.0] * (n - 1)]))
    cost = symmetric_costs(
        top, {frozenset((i, i + 1)): 1.0 for i in range(n - 1)}, [0.0] * n
    )
    return top, dem, cost


class TestTopology:
    def test_missing_reverse_link_rejected(self):
        with pytest.raises(StructuralError):
            Topology(2, [(0, 1)])

    def test_self_link_rejected(self):
        with pytest.raises(StructuralError):
            Topology(2, [(0, 0), (0, 1), (1, 0)])

    def test_rev_index(self):
        top = line_topology(3)
        for e, (i, j) in enumerate(top.links):
            assert top.links[top.rev[e]] == (j, i)


class TestDemand:
    @pytest.mark.parametrize("server", [-1, 3])
    def test_server_outside_nodes_rejected(self, server):
        with pytest.raises(StructuralError, match="outside nodes 0..2"):
            Demand(2, [{0}, {1, server}], np.ones((2, 3)))

    def test_server_mask(self):
        dem = Demand(2, [{2}, {0, 1}], np.ones((2, 3)))
        assert dem.server_mask.tolist() == [[False, False, True],
                                            [True, True, False]]
        assert not dem.server_mask.flags.writeable


class TestValidateStrategy:
    def test_exact_conservation_passes(self):
        top, dem, _ = unit_chain()
        s = Strategy.from_dicts(
            top, 1, phi={(0, 1, 0): 0.7, (1, 2, 0): 1.0}, y={(0, 0): 0.3}
        )
        rep = validate_strategy(top, dem, s)
        assert rep.passed and rep.worst == 0.0

    def test_server_cache_flagged(self):
        top, dem, _ = unit_chain()
        s = Strategy.from_dicts(
            top, 1, phi={(0, 1, 0): 1.0, (1, 2, 0): 1.0}, y={(2, 0): 0.3}
        )
        rep = validate_strategy(top, dem, s)
        assert not rep.passed
        assert ("server_cache", (2, 0), pytest.approx(0.3)) in rep.violations

    def test_box_violation_magnitude(self):
        top, dem, _ = unit_chain()
        s = Strategy.from_dicts(
            top, 1, phi={(0, 1, 0): 1.2, (1, 2, 0): 1.0}
        )
        rep = validate_strategy(top, dem, s)
        kinds = {v[0]: v[2] for v in rep.violations}
        assert kinds["box"] == pytest.approx(0.2)

    def test_conservation_violation_reported(self):
        top, dem, _ = unit_chain()
        s = Strategy.from_dicts(top, 1, phi={(0, 1, 0): 0.5, (1, 2, 0): 1.0})
        rep = validate_strategy(top, dem, s)
        assert ("conservation", (0, 0), pytest.approx(0.5)) in rep.violations


    def test_nan_fraction_fails(self):
        # NaN compares false with every bound, and used to pass
        top, dem, _ = unit_chain()
        s = Strategy.from_dicts(top, 1, phi={(0, 1, 0): 1.0, (1, 2, 0): 1.0})
        s.phi[0, top.edge_index[(1, 2)]] = np.nan
        rep = validate_strategy(top, dem, s)
        assert not rep.passed
        assert rep.violations[0][:2] == ("box", ("phi", top.edge_index[(1, 2)], 0))

    def test_array_form_matches_loop_reference(self):
        # random and perturbed strategies, server rows included: the same
        # report, violations in the same order
        rng = np.random.default_rng(31)
        kinds = set()
        for _ in range(40):
            top, dem, _, strat = random_loopfree_instance(rng, max_nodes=8,
                                                          max_items=4)
            servers = [{top.num_nodes - 1} | set(
                rng.choice(top.num_nodes, size=rng.integers(0, 2)).tolist())
                for _ in range(dem.num_items)]
            dem = Demand(dem.num_items, servers, dem.rates)
            noisy = strat.copy()
            for arr in (noisy.phi, noisy.y):
                hit = rng.random(arr.shape) < 0.3
                arr[hit] += rng.normal(0.0, 0.05, int(hit.sum()))
            wild = Strategy(top, dem.num_items,
                            rng.uniform(-0.2, 1.2, strat.phi.shape),
                            rng.uniform(-0.2, 1.2, strat.y.shape))
            for s in (strat, noisy, wild):
                for tol in (1e-9, 0.03):
                    rep = validate_strategy(top, dem, s, tol=tol)
                    ref = reference_validate_strategy(top, dem, s, tol=tol)
                    assert (rep.passed, rep.worst, rep.violations) == ref
                    kinds.update(v[0] for v in rep.violations)
        assert kinds == {"box", "server_cache", "server_forward",
                         "conservation"}


class TestSolveTraffic:
    def test_request_terminates_at_server(self):
        # single requester co-located with the server: no flow, no cost
        top = line_topology(2)
        dem = Demand(1, [{0}], np.array([[1.0, 0.0]]))
        cost = symmetric_costs(top, {frozenset((0, 1)): 1.0}, [0.0, 0.0])
        s = Strategy.from_dicts(top, 1, phi={(1, 0, 0): 1.0})
        fs = solve_traffic(top, dem, s, cost)
        assert fs.t[0, 0] == 1.0
        assert fs.F.max() == 0.0
        assert fs.total_cost == 0.0

    def test_unit_flow_relay(self):
        top, dem, cost = unit_chain()
        s = Strategy.from_dicts(top, 1, phi={(0, 1, 0): 1.0, (1, 2, 0): 1.0})
        fs = solve_traffic(top, dem, s, cost)
        assert np.allclose(fs.t[0], [1.0, 1.0, 1.0])
        e10 = top.edge_index[(1, 0)]
        e21 = top.edge_index[(2, 1)]
        assert fs.F[e10] == pytest.approx(1.0)
        assert fs.F[e21] == pytest.approx(1.0)

    def test_two_node_loop_closed_form(self):
        # t_i = (r_i + phi_ji r_j) / (1 - phi_ij phi_ji) with r=(1,0),
        # phi_ij=1, phi_ji=0.5  ->  t_i = t_j = 2, F_ji = 2, F_ij = 1
        top = line_topology(3)
        dem = Demand(1, [{2}], np.array([[1.0, 0.0, 0.0]]))
        cost = symmetric_costs(
            top, {frozenset((0, 1)): 1.0, frozenset((1, 2)): 1.0}, [0.0] * 3
        )
        s = Strategy.from_dicts(
            top, 1, phi={(0, 1, 0): 1.0, (1, 0, 0): 0.5}, y={(1, 0): 0.5}
        )
        fs = solve_traffic(top, dem, s, cost)
        assert fs.t[0, 0] == pytest.approx(2.0)
        assert fs.t[0, 1] == pytest.approx(2.0)
        assert fs.F[top.edge_index[(1, 0)]] == pytest.approx(2.0)
        assert fs.F[top.edge_index[(0, 1)]] == pytest.approx(1.0)

    def test_unit_product_cycle_is_divergent(self):
        top = line_topology(3)
        dem = Demand(1, [{2}], np.array([[1.0, 0.0, 0.0]]))
        cost = symmetric_costs(
            top, {frozenset((0, 1)): 1.0, frozenset((1, 2)): 1.0}, [0.0] * 3
        )
        s = Strategy.from_dicts(top, 1, phi={(0, 1, 0): 1.0, (1, 0, 0): 1.0})
        with pytest.raises(DivergentCirculationError):
            solve_traffic(top, dem, s, cost)

    def test_flow_conservation_identity(self):
        # responses leaving i serve i's endogenous request arrivals:
        # sum_j f_ij(k) + r_i(k) = t_i(k) after the solve
        rng = np.random.default_rng(7)
        from helpers import random_loopfree_instance

        for _ in range(10):
            top, dem, cost, s = random_loopfree_instance(rng)
            fs = solve_traffic(top, dem, s, cost)
            for k in range(dem.num_items):
                resp_out = np.zeros(top.num_nodes)
                for e, (i, j) in enumerate(top.links):
                    resp_out[i] += fs.f[k, e]  # responses i->j serve requests j->i
                assert np.allclose(resp_out + dem.rates[k], fs.t[k], atol=1e-9)

    def test_queueing_capacity_error_propagates(self):
        top = line_topology(2)
        dem = Demand(1, [{1}], np.array([[2.0, 0.0]]))
        cost = CostModel(
            link=queueing_link_costs(np.array([1.5, 1.5])),
            cache=zero_costs(2),
        )
        s = Strategy.from_dicts(top, 1, phi={(0, 1, 0): 1.0})
        with pytest.raises(CapacityExceededError):
            solve_traffic(top, dem, s, cost)


    @pytest.mark.parametrize("preset", ["grid-25", "grid-100", "fog"])
    def test_response_flows_match_column_gather(self, preset):
        # the link-major product sums each link over its items in the order
        # the (items, links) column gather did, so F is the same bit for bit
        from cachenet.gp import GPConfig, run_gp
        from cachenet.scenarios import TABLE_PRESETS, generate_scenario

        scen = generate_scenario(TABLE_PRESETS[preset], 1)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        s = run_gp(top, dem, cost, GPConfig(alpha=0.05, max_periods=20)).strategy
        fs = solve_traffic(top, dem, s, cost)
        f = fs.t[:, top.dst] * s.phi[:, top.rev]
        assert fs.f.tobytes() == f.tobytes()
        assert fs.F.tobytes() == f.sum(axis=0).tobytes()

    def test_previous_levels_kept_iff_routed_mask_unchanged(self):
        rng = np.random.default_rng(11)
        top, dem, cost, s = random_loopfree_instance(rng, max_nodes=8)
        first = solve_traffic(top, dem, s, cost)
        s.phi *= 0.5   # the same links routed
        kept = solve_traffic(top, dem, s, cost, previous=first)
        assert kept.levels is first.levels and kept.routed is first.routed
        fresh = solve_traffic(top, dem, s, cost)
        assert kept.t.tobytes() == fresh.t.tobytes()
        assert kept.total_cost == fresh.total_cost
        e = int(np.flatnonzero(s.phi[0])[0])
        s.phi[0, e] = 0.0
        rebuilt = solve_traffic(top, dem, s, cost, previous=kept)
        assert rebuilt.levels is not kept.levels
        assert not rebuilt.routed[0, e]


class TestTotalCost:
    def test_zero_everything(self):
        top, dem, cost = unit_chain()
        s = Strategy.from_dicts(top, 1, phi={(0, 1, 0): 1.0, (1, 2, 0): 1.0})
        dem0 = Demand(1, [{2}], np.zeros((1, 3)))
        fs = solve_traffic(top, dem0, s, cost)
        assert fs.total_cost == 0.0

    def test_appendix_loop_totals(self):
        top, dem, cost, loop, loop_free, _ = appendix_loop_fixture()
        fs_loop = solve_traffic(top, dem, loop, cost)
        fs_free = solve_traffic(top, dem, loop_free, cost)
        assert fs_loop.total_cost == pytest.approx(3.0, abs=1e-9)
        assert fs_free.total_cost == pytest.approx(3.5, abs=1e-9)

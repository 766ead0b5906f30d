"""Fixed-routing paths, caching gain, gradients, and GCFW."""

import numpy as np
import pytest

from cachenet import fixedroute
from cachenet.errors import ConfigurationError, IllRoutedError, StructuralError
from cachenet.fixedroute import FixedRoutingInstance, eval_gain, gcfw, grad_gain
from cachenet.flow import solve_traffic
from cachenet.gp import sp_next_hops
from cachenet.network import (
    CostModel,
    Demand,
    Topology,
    linear_cache_costs,
    linear_link_costs,
)
from cachenet.scenarios import TABLE_PRESETS, generate_scenario

from helpers import line_topology, symmetric_costs


def diamond_a():
    """Appendix-C network (a): single path 0 -> 1 -> 2 -> 3(server),
    unit demand at 0, unit link marginals, zero cache cost."""
    top = line_topology(4)
    dem = Demand(1, [{3}], np.array([[1.0, 0.0, 0.0, 0.0]]))
    cost = symmetric_costs(
        top, {frozenset((i, i + 1)): 1.0 for i in range(3)}, [0.0] * 4
    )
    nh = {(0, 0): 1, (1, 0): 2, (2, 0): 3}
    return FixedRoutingInstance(top, dem, cost, nh)


def diamond_b():
    """Appendix-C network (b): same plus a direct 0 - 3 link of marginal 2."""
    links = []
    for i in range(3):
        links += [(i, i + 1), (i + 1, i)]
    links += [(0, 3), (3, 0)]
    top = Topology(4, links)
    dem = Demand(1, [{3}], np.array([[1.0, 0.0, 0.0, 0.0]]))
    cost = symmetric_costs(
        top,
        {frozenset((0, 1)): 1.0, frozenset((1, 2)): 1.0,
         frozenset((2, 3)): 1.0, frozenset((0, 3)): 2.0},
        [0.0] * 4,
    )
    via_chain = FixedRoutingInstance(top, dem, cost, {(0, 0): 1, (1, 0): 2, (2, 0): 3})
    direct = FixedRoutingInstance(top, dem, cost, {(0, 0): 3, (1, 0): 2, (2, 0): 3})
    return via_chain, direct


def y_of(instance, **coords):
    y = np.zeros((instance.demand.num_items, instance.topology.num_nodes))
    for name, val in coords.items():
        y[0, int(name[1:])] = val
    return y


def min_cost_gain(instances, y):
    """Routing-caching gain with minimum-cost route choice (Appendix C's
    T_min): evaluate every candidate routing and keep the cheapest."""
    t0 = min(inst.baseline_cost() for inst in instances)
    best = min(inst.baseline_cost() - eval_gain(inst, y).A for inst in instances)
    return t0 - best


class TestInstance:
    def test_chain_path_materialized(self):
        # the unit request at 0 arrives at 1, 2 and 3 and crosses only the
        # response links of the chain 0 -> 1 -> 2 -> 3
        inst = diamond_a()
        t, F, _ = inst.flows(y_of(inst))
        assert t.tolist() == [[1.0, 1.0, 1.0, 1.0]]
        top = inst.topology
        on_path = [top.edge_index[(j, i)] for i, j in ((0, 1), (1, 2), (2, 3))]
        expect = np.zeros(top.num_links)
        expect[on_path] = 1.0
        assert F.tolist() == expect.tolist()

    def test_two_cycle_rejected(self):
        top = line_topology(3)
        dem = Demand(1, [{2}], np.array([[1.0, 0.0, 0.0]]))
        cost = symmetric_costs(
            top, {frozenset((0, 1)): 1.0, frozenset((1, 2)): 1.0}, [0.0] * 3
        )
        with pytest.raises(IllRoutedError):
            FixedRoutingInstance(top, dem, cost, {(0, 0): 1, (1, 0): 0})

    def test_cycle_without_demand_rejected(self):
        # no request enters the 0 <-> 1 cycle; it is still not a forest
        top = line_topology(4)
        dem = Demand(1, [{3}], np.array([[0.0, 0.0, 1.0, 0.0]]))
        cost = symmetric_costs(
            top, {frozenset((i, i + 1)): 1.0 for i in range(3)}, [0.0] * 4
        )
        with pytest.raises(IllRoutedError):
            FixedRoutingInstance(top, dem, cost, {(0, 0): 1, (1, 0): 0, (2, 0): 3})

    def test_server_next_hop_rejected(self):
        inst_args = diamond_a()
        top, dem, cost = inst_args.topology, inst_args.demand, inst_args.cost
        with pytest.raises(IllRoutedError):
            FixedRoutingInstance(
                top, dem, cost, {(0, 0): 1, (1, 0): 2, (2, 0): 3, (3, 0): 2}
            )

    @pytest.mark.parametrize("next_hop, message", [
        ({(0, 0): 1, (1, 0): 3, (3, 0): 2}, "next hop (1 -> 3) is not a link"),
        ({(0, 0): 1, (3, 0): 2, (1, 0): 3},
         "next hop defined for designated server 3 of item 0"),
        ({(0, 0): 1, (1, 0): 2, (2, 0): 7}, "next hop (2 -> 7) is not a link"),
        ({(-1, 0): 0, (3, 0): 2}, "next hop (-1 -> 0) is not a link"),
        ({(0, 0): 1, (1, 0): -1}, "next hop (1 -> -1) is not a link"),
    ])
    def test_first_offender_in_dict_order_is_named(self, next_hop, message):
        inst = diamond_a()
        with pytest.raises(IllRoutedError) as err:
            FixedRoutingInstance(inst.topology, inst.demand, inst.cost, next_hop)
        assert str(err.value) == message

    def test_missing_next_hop_rejected(self):
        inst = diamond_a()
        with pytest.raises(IllRoutedError):
            FixedRoutingInstance(
                inst.topology, inst.demand, inst.cost, {(0, 0): 1, (1, 0): 2}
            )


class TestEvalGain:
    def test_zero_y_zero_gain(self):
        inst = diamond_a()
        g = eval_gain(inst, y_of(inst))
        assert g.G == 0.0
        assert g.baseline == pytest.approx(3.0)

    def test_appendix_c_a_gain(self):
        inst = diamond_a()
        g = eval_gain(inst, y_of(inst, n1=0.5))
        assert g.G == pytest.approx(1.0, abs=1e-12)

    def test_appendix_c_a_return(self):
        # adding y_k = 1 on top of y_j = 0.5 returns 0.5 (vs 1.0 from scratch)
        inst = diamond_a()
        base = eval_gain(inst, y_of(inst, n1=0.5)).G
        both = eval_gain(inst, y_of(inst, n1=0.5, n2=1.0)).G
        alone = eval_gain(inst, y_of(inst, n2=1.0)).G
        assert both - base == pytest.approx(0.5, abs=1e-12)
        assert alone == pytest.approx(1.0, abs=1e-12)

    def test_appendix_c_b_non_submodular_jump(self):
        instances = diamond_b()
        y0 = y_of(instances[0])
        yj = y_of(instances[0], n1=0.5)
        yk = y_of(instances[0], n2=1.0)
        yjk = y_of(instances[0], n1=0.5, n2=1.0)
        assert min_cost_gain(instances, yj) == pytest.approx(0.0, abs=1e-12)
        ret_from_zero = min_cost_gain(instances, yk) - min_cost_gain(instances, y0)
        ret_given_yj = min_cost_gain(instances, yjk) - min_cost_gain(instances, yj)
        assert ret_from_zero == pytest.approx(0.0, abs=1e-12)
        assert ret_given_yj == pytest.approx(0.5, abs=1e-12)

    def test_gain_matches_total_cost(self):
        # G(y) = T(0) - T(phi(y), y) with phi induced from the next hops
        inst = diamond_a()
        rng = np.random.default_rng(2)
        for _ in range(5):
            y = rng.uniform(0, 1, size=(1, 4))
            y[0, 3] = 0.0
            g = eval_gain(inst, y)
            strat = inst.induced_strategy(y)
            fs = solve_traffic(inst.topology, inst.demand, strat, inst.cost)
            assert g.G == pytest.approx(g.baseline - fs.total_cost, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(TABLE_PRESETS))
    def test_gain_matches_total_cost_on_presets(self, name):
        # the two flow engines on the shortest-path next hops: t and Y of
        # the fixed-routing sweep equal ``solve_traffic`` on the induced
        # strategy bit for bit; F, summed in another order, to 1e-12
        scen = generate_scenario(TABLE_PRESETS[name], seed=1)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        inst = FixedRoutingInstance(top, dem, cost,
                                    sp_next_hops(top, dem, cost))
        rng = np.random.default_rng(11)
        for _ in range(3):
            y = rng.uniform(0.0, 1.0, dem.server_mask.shape)
            y[rng.uniform(size=y.shape) < 0.2] = 0.0
            y[rng.uniform(size=y.shape) < 0.1] = 1.0
            y[dem.server_mask] = 0.0
            t, F, Y = inst.flows(y)
            fs = solve_traffic(top, dem, inst.induced_strategy(y), cost)
            assert t.tobytes() == fs.t.tobytes()
            assert Y.tobytes() == fs.Y.tobytes()
            np.testing.assert_allclose(F, fs.F, rtol=1e-12, atol=0.0)
            g = eval_gain(inst, y)
            assert g.G == pytest.approx(g.baseline - fs.total_cost, rel=1e-12)


class TestCachingShape:
    """Every caching array the fixed-routing code reads must be shaped
    (num_items, num_nodes); grid-25 has 30 items and 25 nodes."""

    @pytest.fixture(scope="class")
    def inst(self):
        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=1)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        return FixedRoutingInstance(top, dem, cost,
                                    sp_next_hops(top, dem, cost))

    @pytest.mark.parametrize("shape", [(25, 30), (29, 25), (30, 24),
                                       (1, 30, 25), (750,), ()])
    def test_mis_shaped_y_rejected(self, inst, shape):
        y = np.zeros(shape)
        t, _, _ = inst.flows(np.zeros((30, 25)))
        prices = np.ones(inst.topology.num_links)
        calls = [inst.flows, inst.induced_strategy,
                 lambda y: inst.saved_cost(y, t, prices),
                 lambda y: eval_gain(inst, y), lambda y: grad_gain(inst, y)]
        for call in calls:
            with pytest.raises(StructuralError, match="caching array"):
                call(y)


class TestGradGain:
    def test_chain_gradient_by_hand(self):
        # v -> j -> s with unit marginals, y = 0: dA/dy_v = 1 + 1 = 2
        top = line_topology(3)
        dem = Demand(1, [{2}], np.array([[1.0, 0.0, 0.0]]))
        cost = symmetric_costs(
            top, {frozenset((0, 1)): 1.0, frozenset((1, 2)): 1.0}, [0.0] * 3
        )
        inst = FixedRoutingInstance(top, dem, cost, {(0, 0): 1, (1, 0): 2})
        gA, _ = grad_gain(inst, np.zeros((1, 3)))
        assert gA[0, 0] == pytest.approx(2.0)
        assert gA[0, 1] == pytest.approx(1.0)

    def test_linear_cache_gradient(self):
        inst = diamond_a()
        cost = CostModel(link=inst.cost.link, cache=linear_cache_costs([2.0] * 4))
        inst2 = FixedRoutingInstance(inst.topology, inst.demand, cost, inst.next_hop)
        _, gB = grad_gain(inst2, y_of(inst2, n1=0.3))
        assert np.allclose(gB, 2.0)

    def test_downstream_factor_vanishes_at_full_cache(self):
        inst = diamond_a()
        gA_full, _ = grad_gain(inst, y_of(inst, n1=1.0))
        # with y_1 = 1 only the first response link contributes at node 0
        assert gA_full[0, 0] == pytest.approx(1.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        inst = diamond_a()
        for _ in range(5):
            y = rng.uniform(0.05, 0.9, size=(1, 4))
            y[0, 3] = 0.0
            gA, gB = grad_gain(inst, y)
            h = 1e-6
            for i in range(3):
                up, dn = y.copy(), y.copy()
                up[0, i] += h
                dn[0, i] -= h
                fdA = (eval_gain(inst, up).A - eval_gain(inst, dn).A) / (2 * h)
                assert fdA == pytest.approx(gA[0, i], rel=1e-5, abs=1e-8)


class TestGcfw:
    def test_zero_rates_yield_zero(self):
        top = line_topology(3)
        dem = Demand(1, [{2}], np.zeros((1, 3)))
        cost = symmetric_costs(
            top, {frozenset((0, 1)): 1.0, frozenset((1, 2)): 1.0}, [1.0] * 3
        )
        inst = FixedRoutingInstance(top, dem, cost, {(0, 0): 1, (1, 0): 2})
        res = gcfw(inst, 16)
        assert res.y.max() == 0.0
        assert res.gain.G == 0.0

    def test_blend_weight_for_n8(self):
        # eps = 8^(-1/3) = 0.5, so the first blend is y = 0.25 * s
        top = line_topology(3)
        dem = Demand(1, [{2}], np.array([[5.0, 0.0, 0.0]]))
        cost = CostModel(
            link=linear_link_costs([1.0] * 4),
            cache=linear_cache_costs([0.01] * 3),
        )
        inst = FixedRoutingInstance(top, dem, cost, {(0, 0): 1, (1, 0): 2})
        gA, gB = grad_gain(inst, np.zeros((1, 3)))
        assert (gA[0, 0] - 2 * gB[0, 0]) > 0
        res = gcfw(inst, 8)
        # s = 1 selected every step, so y^(n) = 1 - (1 - 0.25)^n exactly
        assert res.y[0, 0] == pytest.approx(1.0 - 0.75 ** res.best_iter, abs=1e-12)

    def test_iterates_stay_in_box_and_servers_zero(self):
        rng = np.random.default_rng(4)
        from helpers import random_loopfree_instance

        top, dem, cost, _ = random_loopfree_instance(rng)
        nh = {}
        for k in range(dem.num_items):
            for i in range(top.num_nodes - 1):
                nh[(i, k)] = min(j for j in top.neighbors[i] if j > i)
        inst = FixedRoutingInstance(top, dem, cost, nh)
        res = gcfw(inst, 20)
        assert (res.y >= 0).all() and (res.y <= 1).all()
        for k in range(dem.num_items):
            for s in dem.servers[k]:
                assert res.y[k, s] == 0.0

    def test_zero_cache_cost_warns(self):
        inst = diamond_a()
        with pytest.warns(UserWarning):
            gcfw(inst, 4)

    @pytest.mark.parametrize("N", [1, 0, -1, True, False, 2.0, 8.5, None, "8"])
    def test_bad_iteration_count_rejected(self, N):
        with pytest.raises(ConfigurationError, match="integer N >= 2"):
            gcfw(diamond_a(), N)

    def test_numpy_integer_iteration_count(self):
        inst = diamond_a()
        with pytest.warns(UserWarning):
            got = gcfw(inst, np.int64(8))
        with pytest.warns(UserWarning):
            assert got.history == gcfw(inst, 8).history


class TestSharedFlows:
    @staticmethod
    def _instance():
        rng = np.random.default_rng(9)
        from helpers import random_loopfree_instance

        top, dem, cost, _ = random_loopfree_instance(rng, max_nodes=6,
                                                     max_items=3)
        nh = {}
        for k in range(dem.num_items):
            for i in range(top.num_nodes - 1):
                nh[(i, k)] = min(j for j in top.neighbors[i] if j > i)
        return FixedRoutingInstance(top, dem, cost, nh)

    def test_flows_argument_gives_the_same_result(self):
        inst = self._instance()
        rng = np.random.default_rng(10)
        for _ in range(5):
            y = rng.uniform(0.0, 1.0, inst.demand.server_mask.shape)
            y[inst.demand.server_mask] = 0.0
            flows = inst.flows(y)
            assert eval_gain(inst, y, flows) == eval_gain(inst, y)
            for got, ref in zip(grad_gain(inst, y, flows), grad_gain(inst, y)):
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("N", [2, 7, 30])
    def test_call_counts_per_gcfw_call(self, N, monkeypatch):
        # one forward sweep per iterate; N gradients and N + 1 gains, which
        # the benchmark's per-iteration clock and trace identities count
        inst = self._instance()
        inst.baseline_cost()
        counts = {"flows": 0, "grad_gain": 0, "eval_gain": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(FixedRoutingInstance, "flows",
                            counting("flows", FixedRoutingInstance.flows))
        for name in ("grad_gain", "eval_gain"):
            monkeypatch.setattr(fixedroute, name,
                                counting(name, getattr(fixedroute, name)))
        gcfw(inst, N)
        assert counts == {"flows": N + 1, "grad_gain": N, "eval_gain": N + 1}


class TestDrSubmodularity:
    def _random_instance(self, rng):
        from helpers import random_loopfree_instance

        top, dem, cost, _ = random_loopfree_instance(
            rng, max_nodes=5, max_items=2
        )
        nh = {}
        for k in range(dem.num_items):
            for i in range(top.num_nodes - 1):
                nh[(i, k)] = min(j for j in top.neighbors[i] if j > i)
        return FixedRoutingInstance(top, dem, cost, nh)

    def test_second_differences_nonpositive(self):
        rng = np.random.default_rng(21)
        h = 1e-3
        for _ in range(6):
            inst = self._random_instance(rng)
            C, V = inst.demand.num_items, inst.topology.num_nodes
            y = rng.uniform(0.1, 0.7, size=(C, V))
            for k in range(C):
                for s in inst.demand.servers[k]:
                    y[k, s] = 0.0
            coords = [(k, i) for k in range(C) for i in range(V - 1)]
            A = lambda yy: eval_gain(inst, yy).A
            base = A(y)
            singles = {}
            for c in coords:
                yy = y.copy()
                yy[c] += h
                singles[c] = A(yy)
                assert singles[c] >= base - 1e-12  # monotone
            for a in coords:
                for b in coords:
                    yy = y.copy()
                    yy[a] += h
                    yy[b] += h
                    second = A(yy) - singles[a] - singles[b] + base
                    assert second <= 1e-7

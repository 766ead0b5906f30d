"""Static and dynamic blocked-set construction."""

import gc
import weakref

import numpy as np
import pytest

from cachenet.blocking import dynamic_blocked_sets, static_blocked_sets
from cachenet.errors import DisconnectedDemandError, LoopError
from cachenet.flow import Strategy, dag_levels
from cachenet.marginals import PHI_ACTIVE
from cachenet.gp import GPConfig, run_gp, shortest_path_strategy, sp_next_hops
from cachenet.network import Demand, Topology
from cachenet.scenarios import TABLE_PRESETS, generate_scenario

from helpers import (
    is_blocked,
    line_topology,
    reference_static_blocked_sets,
    symmetric_costs,
)


def grid2x2():
    # 0-1 / 2-3 grid, server at 0
    links = []
    for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        links += [(a, b), (b, a)]
    top = Topology(4, links)
    dem = Demand(1, [{0}], np.array([[0.0, 1.0, 1.0, 1.0]]))
    cost = symmetric_costs(
        top, {frozenset(e): 1.0 for e in [(0, 1), (0, 2), (1, 3), (2, 3)]},
        [1.0] * 4,
    )
    return top, dem, cost


class TestStaticSets:
    def test_line_blocks_uphill(self):
        top = line_topology(3)
        dem = Demand(1, [{2}], np.array([[1.0, 1.0, 0.0]]))
        cost = symmetric_costs(
            top, {frozenset((0, 1)): 1.0, frozenset((1, 2)): 1.0}, [1.0] * 3
        )
        b = static_blocked_sets(top, dem, cost=cost)
        assert is_blocked(b, top, 1, 0, 0)       # away from the server
        assert not is_blocked(b, top, 1, 2, 0)
        assert not is_blocked(b, top, 0, 1, 0)

    def test_non_neighbor_always_blocked(self):
        top = line_topology(3)
        dem = Demand(1, [{2}], np.array([[1.0, 0.0, 0.0]]))
        cost = symmetric_costs(
            top, {frozenset((0, 1)): 1.0, frozenset((1, 2)): 1.0}, [1.0] * 3
        )
        b = static_blocked_sets(top, dem, cost=cost)
        assert is_blocked(b, top, 0, 2, 0)

    def test_grid_distances_by_hand(self):
        # distances from server 0 with unit weights: (0, 1, 1, 2); the
        # diagonally opposite node 3 may use both neighbors
        top, dem, cost = grid2x2()
        b = static_blocked_sets(top, dem, cost=cost)
        assert not is_blocked(b, top, 3, 1, 0)
        assert not is_blocked(b, top, 3, 2, 0)
        assert is_blocked(b, top, 1, 3, 0)

    def test_equal_distance_tie_breaks_by_id(self):
        # triangle, server 0: nodes 1 and 2 tie at distance 1, so only the
        # lower id may receive over the 1 - 2 pair
        top = Topology(3, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
        dem = Demand(1, [{0}], np.array([[0.0, 1.0, 1.0]]))
        cost = symmetric_costs(
            top, {frozenset(e): 1.0 for e in [(0, 1), (0, 2), (1, 2)]}, [1.0] * 3
        )
        b = static_blocked_sets(top, dem, cost=cost)
        assert not is_blocked(b, top, 2, 1, 0)
        assert is_blocked(b, top, 1, 2, 0)

    def test_unblocked_graph_is_dag(self):
        top, dem, cost = grid2x2()
        b = static_blocked_sets(top, dem, cost=cost)
        _, acyclic = dag_levels(top, ~b.mask)
        assert acyclic.tolist() == [True]

    def test_disconnected_raises(self):
        links = [(0, 1), (1, 0), (2, 3), (3, 2)]
        top = Topology(4, links)
        dem = Demand(1, [{0}], np.array([[0.0, 0.0, 1.0, 0.0]]))
        cost = symmetric_costs(
            top, {frozenset((0, 1)): 1.0, frozenset((2, 3)): 1.0}, [1.0] * 4
        )
        with pytest.raises(DisconnectedDemandError):
            static_blocked_sets(top, dem, cost=cost)

    def test_zero_weight_tie_keeps_an_unblocked_link(self):
        # 1 - 2 costs nothing, so 1 and 2 tie at distance 1 from server 0;
        # 2 is one hop from the server and 1 two, so the tie admits 1 -> 2
        # (by id alone it would admit only 2 -> 1 and leave 1 a dead end)
        top = Topology(3, [(0, 2), (2, 0), (1, 2), (2, 1)])
        dem = Demand(1, [{0}], np.array([[0.0, 1.0, 0.0]]))
        cost = symmetric_costs(
            top, {frozenset((0, 2)): 1.0, frozenset((1, 2)): 0.0}, [1.0] * 3
        )
        b = static_blocked_sets(top, dem, cost=cost)
        assert not is_blocked(b, top, 1, 2, 0)
        assert is_blocked(b, top, 2, 1, 0)
        assert not is_blocked(b, top, 2, 0, 0)


class TestZeroFlowMemo:
    """The zero-flow layer (Bellman-Ford distances and node order) is built
    once per (topology, demand, link costs) and shared by every caller."""

    @staticmethod
    def _count_distances(monkeypatch):
        import cachenet.blocking

        calls = []
        server_distances = cachenet.blocking.server_distances

        def counted(*args):
            calls.append(args[1])
            return server_distances(*args)

        monkeypatch.setattr(cachenet.blocking, "server_distances", counted)
        return calls

    def test_one_bellman_ford_per_instance(self, monkeypatch):
        calls = self._count_distances(monkeypatch)
        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=5)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        strategy = shortest_path_strategy(top, dem, cost)
        sp_next_hops(top, dem, cost)
        static_blocked_sets(top, dem, cost)
        for _ in range(3):
            strategy = run_gp(top, dem, cost, GPConfig(
                alpha=0.05, max_periods=3, tol=1e-12),
                initial_strategy=strategy).strategy
        assert len(calls) == 1

    def test_written_mask_does_not_reach_the_next_call(self):
        top, dem, cost = grid2x2()
        first = static_blocked_sets(top, dem, cost)
        clean = first.mask.copy()
        first.mask[:] = ~first.mask
        again = static_blocked_sets(top, dem, cost)
        assert again.mask.flags.writeable
        assert np.array_equal(again.mask, clean)

    def test_unblocked_pairs_indexed_once_per_instance(self):
        # every call's sets share the instance's index; a mask written
        # before its first use gets its own, and is read-only after it
        top, dem, cost = grid2x2()
        first, second = (static_blocked_sets(top, dem, cost) for _ in range(2))
        assert first.pair_index(top) is second.pair_index(top)
        assert not first.mask.flags.writeable
        written = static_blocked_sets(top, dem, cost)
        e = int(np.argmin(written.mask[0]))
        written.mask[0, e] = True
        index = written.pair_index(top)
        assert index is not first.pair_index(top)
        assert e not in index.pair and index.pair.size == first.pair_index(top).pair.size - 1
        with pytest.raises(ValueError):
            written.mask[0, e] = False

    def test_set_up_builds_no_layout(self, monkeypatch):
        # the scenario, the shortest-path start and its next hops level no
        # DAG; the static sets' layout is built on first use, once
        import cachenet.blocking
        import cachenet.flow

        calls = []
        dag_levels = cachenet.flow.dag_levels

        def counted(topology, active):
            calls.append(active)
            return dag_levels(topology, active)

        monkeypatch.setattr(cachenet.flow, "dag_levels", counted)
        monkeypatch.setattr(cachenet.blocking, "dag_levels", counted)
        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=5)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        shortest_path_strategy(top, dem, cost)
        sp_next_hops(top, dem, cost)
        first, second = (static_blocked_sets(top, dem, cost) for _ in range(2))
        assert calls == []
        levels, unblocked = first.layout(top)
        assert second.layout(top)[0] is levels and len(calls) == 1
        assert np.array_equal(calls[0], unblocked) and np.array_equal(unblocked, ~first.mask)
        assert levels.pair.size == levels.in_pair.size == unblocked.sum()

    def test_written_mask_has_no_layout(self):
        top, dem, cost = grid2x2()
        written = static_blocked_sets(top, dem, cost)
        written.mask[0, int(np.argmin(written.mask[0]))] = True
        assert written.layout(top) is None
        assert static_blocked_sets(top, dem, cost).layout(top) is not None

    def test_other_servers_get_their_own_sets(self, monkeypatch):
        calls = self._count_distances(monkeypatch)
        top, dem, cost = grid2x2()
        other = Demand(1, [{3}], np.array([[1.0, 1.0, 1.0, 0.0]]))
        for demand in (dem, other, dem):
            assert np.array_equal(
                static_blocked_sets(top, demand, cost).mask,
                reference_static_blocked_sets(top, demand, cost).mask)
        assert calls == [dem, other]   # each demand keeps its own order
        assert not np.array_equal(static_blocked_sets(top, dem, cost).mask,
                                  static_blocked_sets(top, other, cost).mask)

    def test_disconnected_raises_on_every_call(self):
        top = Topology(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        dem = Demand(1, [{0}], np.array([[0.0, 0.0, 1.0, 0.0]]))
        cost = symmetric_costs(
            top, {frozenset((0, 1)): 1.0, frozenset((2, 3)): 1.0}, [1.0] * 4
        )
        for call in (static_blocked_sets, static_blocked_sets,
                     shortest_path_strategy, sp_next_hops, static_blocked_sets):
            with pytest.raises(DisconnectedDemandError):
                call(top, dem, cost)

    def test_disconnected_item_named_on_every_call(self):
        # item 0 has a server in each component, item 1 only in the other
        # one; every call names item 1
        top = Topology(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        dem = Demand(2, [{1, 3}, {3}], np.array([[1.0, 0.0, 0.0, 0.0],
                                              [1.0, 0.0, 0.0, 0.0]]))
        cost = symmetric_costs(
            top, {frozenset((0, 1)): 1.0, frozenset((2, 3)): 1.0}, [1.0] * 4
        )
        messages = []
        for _ in range(2):
            with pytest.raises(DisconnectedDemandError, match="item 1") as exc:
                static_blocked_sets(top, dem, cost)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_dead_end_guard_raises_on_every_call(self, monkeypatch):
        # with every distance 0 and no tight link, node 0 of item 1 (server
        # 3, line 0 - 1 - 2 - 3) precedes all its neighbours in the order
        # and keeps no unblocked out-link; the kept order raises again
        import cachenet.blocking

        monkeypatch.setattr(cachenet.blocking, "server_distances",
                            lambda top, dem, w: np.zeros(dem.server_mask.shape))
        top = line_topology(4)
        dem = Demand(2, [{0}, {3}], np.array([[0.0, 1.0, 1.0, 1.0],
                                              [1.0, 1.0, 1.0, 0.0]]))
        cost = symmetric_costs(
            top, {frozenset((i, i + 1)): 1.0 for i in range(3)}, [1.0] * 4)
        for _ in range(2):
            with pytest.raises(DisconnectedDemandError,
                               match=r"nodes \[0\] have no unblocked path "
                                     r"to a server of item 1"):
                static_blocked_sets(top, dem, cost)

    def test_alternating_instances_keep_their_orders(self, monkeypatch):
        # a run that builds another instance between GP calls (as the
        # benchmark's set-up does) takes no second Bellman-Ford on either
        calls = self._count_distances(monkeypatch)
        scens = [generate_scenario(TABLE_PRESETS["grid-25"], seed)
                 for seed in (5, 6)]
        strategies = [None, None]
        for _ in range(3):
            for n, scen in enumerate(scens):
                strategies[n] = run_gp(
                    scen.topology, scen.demand, scen.cost,
                    GPConfig(alpha=0.05, max_periods=2, tol=1e-12),
                    initial_strategy=strategies[n]).strategy
        assert calls == [scens[0].demand, scens[1].demand]

    def test_dropped_instance_is_not_kept_alive(self):
        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=7)
        run_gp(scen.topology, scen.demand, scen.cost, GPConfig(max_periods=2))
        demand = weakref.ref(scen.demand)
        del scen
        gc.collect()
        assert demand() is None


class TestDynamicSets:
    def test_chain_order(self):
        top = line_topology(3)
        dem = Demand(1, [{2}], np.array([[1.0, 0.0, 0.0]]))
        s = Strategy.from_dicts(top, 1, phi={(0, 1, 0): 1.0, (1, 2, 0): 1.0})
        b = dynamic_blocked_sets(top, dem, s)
        assert is_blocked(b, top, 1, 0, 0)
        assert is_blocked(b, top, 2, 1, 0)
        assert not is_blocked(b, top, 0, 1, 0)
        assert not is_blocked(b, top, 1, 2, 0)

    def test_all_zero_phi_orders_by_id(self):
        # triangle, no positive phi: order (0,1,2); 0 may forward to both,
        # 2 to neither
        top = Topology(3, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
        dem = Demand(1, [{2}], np.array([[0.0, 0.0, 0.0]]))
        s = Strategy(top, 1)
        b = dynamic_blocked_sets(top, dem, s)
        assert not is_blocked(b, top, 0, 1, 0)
        assert not is_blocked(b, top, 0, 2, 0)
        assert not is_blocked(b, top, 1, 2, 0)
        assert is_blocked(b, top, 1, 0, 0)
        assert is_blocked(b, top, 2, 0, 0)
        assert is_blocked(b, top, 2, 1, 0)

    def test_seven_node_dag_order_consistent(self):
        # a 7-node DAG for which 0,6,1,5,4,2,3 is one valid witness order;
        # any produced order must respect every edge
        dag_edges = [
            (0, 6), (6, 1), (1, 5), (5, 4), (4, 2), (2, 3),
            (0, 1), (6, 5), (1, 4), (5, 2), (4, 3),
        ]
        witness = [0, 6, 1, 5, 4, 2, 3]
        pos_w = {n: p for p, n in enumerate(witness)}
        assert all(pos_w[a] < pos_w[b] for a, b in dag_edges)

        links = []
        for a, b in dag_edges:
            links += [(a, b), (b, a)]
        top = Topology(7, sorted(set(links)))
        dem = Demand(1, [{3}], np.array([[1.0] + [0.0] * 6]))
        s = Strategy(top, 1)
        for a, b in dag_edges:
            s.set_phi(a, b, 0, 0.5)
        b = dynamic_blocked_sets(top, dem, s)
        for a, bb in dag_edges:
            assert not is_blocked(b, top, a, bb, 0)

    def test_cycle_raises(self):
        top = line_topology(3)
        dem = Demand(1, [{2}], np.array([[1.0, 0.0, 0.0]]))
        s = Strategy.from_dicts(top, 1, phi={(0, 1, 0): 0.5, (1, 0, 0): 0.5})
        with pytest.raises(LoopError):
            dynamic_blocked_sets(top, dem, s)


def stranded_fixture():
    """Server 0; links 1 - 0, 2 - 0, 2 - 1 and 3 - 2.  Node 1 sends its
    requests to the server; the idle node 3 parks phi = 1 on node 2, which
    caches all of item 0 (y = 1) but receives nothing.  The lowest-id order
    (1, 0, 3, 2) puts node 2 after all of its neighbours."""
    pairs = [(1, 0), (2, 0), (2, 1), (3, 2)]
    top = Topology(4, sorted(pairs + [(j, i) for i, j in pairs]))
    dem = Demand(1, [{0}], np.array([[0.0, 1.0, 0.0, 0.0]]))
    cost = symmetric_costs(top, {frozenset(e): 1.0 for e in pairs}, [1.0] * 4)
    s = Strategy.from_dicts(top, 1, phi={(1, 0, 0): 1.0, (3, 2, 0): 1.0},
                            y={(2, 0): 1.0})
    return top, dem, cost, s


class TestStrandedNodes:
    def test_stranded_node_goes_right_after_its_ancestors(self):
        top, dem, cost, s = stranded_fixture()
        t = np.array([[0.0, 1.0, 0.0, 0.0]])
        plain = dynamic_blocked_sets(top, dem, s)
        assert all(is_blocked(plain, top, 2, j, 0) for j in (0, 1, 3))
        # re-sorted with {2, 3} ahead: 3, 2, 1, 0
        b = dynamic_blocked_sets(top, dem, s, t)
        assert not is_blocked(b, top, 2, 0, 0)
        assert not is_blocked(b, top, 2, 1, 0)
        assert not is_blocked(b, top, 3, 2, 0)
        assert not is_blocked(b, top, 1, 0, 0)
        # a cache that receives requests, or holds nothing, is not stranded
        assert np.array_equal(dynamic_blocked_sets(top, dem, s, t + 1.0).mask,
                              plain.mask)
        s.y[0, 2] = 0.0
        assert np.array_equal(dynamic_blocked_sets(top, dem, s, t).mask,
                              plain.mask)

    def test_run_gp_leaves_the_stranded_cache(self):
        top, dem, cost, s = stranded_fixture()
        traj = run_gp(top, dem, cost, GPConfig(alpha=0.1, blocked_mode="dynamic",
                                               max_periods=50),
                      initial_strategy=s)
        assert traj.converged
        assert traj.strategy.y[0, 2] == 0.0
        assert all(r.loop_free for r in traj.records)


class TestDynamicSetsReuse:
    def test_previous_returned_iff_inputs_unchanged(self):
        top, dem, cost, s = stranded_fixture()
        t = np.array([[0.0, 1.0, 0.0, 0.0]])
        b = dynamic_blocked_sets(top, dem, s, t)
        assert not b.mask.flags.writeable
        assert dynamic_blocked_sets(top, dem, s, t, previous=b) is b
        # fractions that stay on one side of PHI_ACTIVE change nothing
        s2 = s.copy()
        s2.phi[0, top.edge_index[(1, 2)]] = PHI_ACTIVE
        s2.phi[0, top.edge_index[(1, 0)]] = 0.5
        assert dynamic_blocked_sets(top, dem, s2, t, previous=b) is b
        # the stranded pairs change: the plain order is reused, not the sets
        again = dynamic_blocked_sets(top, dem, s, None, previous=b)
        assert again is not b
        assert np.array_equal(again.mask, dynamic_blocked_sets(top, dem, s).mask)
        assert again.pair_index(top) is not b.pair_index(top)
        assert np.array_equal(
            dynamic_blocked_sets(top, dem, s, t, previous=again).mask, b.mask)
        # the active links change
        s3 = s.copy()
        s3.phi[0, top.edge_index[(3, 2)]] = 0.0
        new = dynamic_blocked_sets(top, dem, s3, t, previous=b)
        assert new is not b
        assert np.array_equal(new.mask, dynamic_blocked_sets(top, dem, s3, t).mask)

    def test_static_previous_is_not_reused(self):
        top, dem, cost, s = stranded_fixture()
        static = static_blocked_sets(top, dem, cost)
        got = dynamic_blocked_sets(top, dem, s, previous=static)
        assert np.array_equal(got.mask, dynamic_blocked_sets(top, dem, s).mask)

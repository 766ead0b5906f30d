"""Static and dynamic blocked-set construction."""

import numpy as np
import pytest

from cachenet.blocking import dynamic_blocked_sets, static_blocked_sets
from cachenet.errors import DisconnectedDemandError, LoopError
from cachenet.flow import Strategy, dag_levels
from cachenet.network import Demand, Topology

from helpers import line_topology, symmetric_costs


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
        assert b.is_blocked(top, 1, 0, 0)       # away from the server
        assert not b.is_blocked(top, 1, 2, 0)
        assert not b.is_blocked(top, 0, 1, 0)

    def test_non_neighbor_always_blocked(self):
        top = line_topology(3)
        dem = Demand(1, [{2}], np.array([[1.0, 0.0, 0.0]]))
        cost = symmetric_costs(
            top, {frozenset((0, 1)): 1.0, frozenset((1, 2)): 1.0}, [1.0] * 3
        )
        b = static_blocked_sets(top, dem, cost=cost)
        assert b.is_blocked(top, 0, 2, 0)

    def test_grid_distances_by_hand(self):
        # distances from server 0 with unit weights: (0, 1, 1, 2); the
        # diagonally opposite node 3 may use both neighbors
        top, dem, cost = grid2x2()
        b = static_blocked_sets(top, dem, cost=cost)
        assert not b.is_blocked(top, 3, 1, 0)
        assert not b.is_blocked(top, 3, 2, 0)
        assert b.is_blocked(top, 1, 3, 0)

    def test_equal_distance_tie_breaks_by_id(self):
        # triangle, server 0: nodes 1 and 2 tie at distance 1, so only the
        # lower id may receive over the 1 - 2 pair
        top = Topology(3, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
        dem = Demand(1, [{0}], np.array([[0.0, 1.0, 1.0]]))
        cost = symmetric_costs(
            top, {frozenset(e): 1.0 for e in [(0, 1), (0, 2), (1, 2)]}, [1.0] * 3
        )
        b = static_blocked_sets(top, dem, cost=cost)
        assert not b.is_blocked(top, 2, 1, 0)
        assert b.is_blocked(top, 1, 2, 0)

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
        assert not b.is_blocked(top, 1, 2, 0)
        assert b.is_blocked(top, 2, 1, 0)
        assert not b.is_blocked(top, 2, 0, 0)


class TestDynamicSets:
    def test_chain_order(self):
        top = line_topology(3)
        dem = Demand(1, [{2}], np.array([[1.0, 0.0, 0.0]]))
        s = Strategy.from_dicts(top, 1, phi={(0, 1, 0): 1.0, (1, 2, 0): 1.0})
        b = dynamic_blocked_sets(top, dem, s)
        assert b.is_blocked(top, 1, 0, 0)
        assert b.is_blocked(top, 2, 1, 0)
        assert not b.is_blocked(top, 0, 1, 0)
        assert not b.is_blocked(top, 1, 2, 0)

    def test_all_zero_phi_orders_by_id(self):
        # triangle, no positive phi: order (0,1,2); 0 may forward to both,
        # 2 to neither
        top = Topology(3, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
        dem = Demand(1, [{2}], np.array([[0.0, 0.0, 0.0]]))
        s = Strategy(top, 1)
        b = dynamic_blocked_sets(top, dem, s)
        assert not b.is_blocked(top, 0, 1, 0)
        assert not b.is_blocked(top, 0, 2, 0)
        assert not b.is_blocked(top, 1, 2, 0)
        assert b.is_blocked(top, 1, 0, 0)
        assert b.is_blocked(top, 2, 0, 0)
        assert b.is_blocked(top, 2, 1, 0)

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
            assert not b.is_blocked(top, a, bb, 0)

    def test_cycle_raises(self):
        top = line_topology(3)
        dem = Demand(1, [{2}], np.array([[1.0, 0.0, 0.0]]))
        s = Strategy.from_dicts(top, 1, phi={(0, 1, 0): 0.5, (1, 0, 0): 0.5})
        with pytest.raises(LoopError):
            dynamic_blocked_sets(top, dem, s)

"""Cross-module structural properties of the cost model."""

import dataclasses
import itertools

import numpy as np
import pytest

from cachenet.blocking import (
    BlockedSets,
    dynamic_blocked_sets,
    server_distances,
    static_blocked_sets,
)
from cachenet.errors import CacheNetError, DisconnectedDemandError, LoopError
from cachenet.fixedroute import FixedRoutingInstance, eval_gain, gcfw
from cachenet.flow import (
    T_ZERO,
    Strategy,
    dag_levels,
    fold_out_links,
    solve_dense,
    solve_traffic,
    sweep_forward,
    sweep_reverse,
)
from cachenet.gp import (
    GPConfig,
    count_async_messages,
    gp_step,
    message_counts,
    run_gp,
    shortest_path_strategy,
    sp_next_hops,
)
from cachenet.marginals import PHI_ACTIVE, compute_marginals, vectorized_residuals
from cachenet.network import (
    CostModel,
    Demand,
    Topology,
    linear_cache_costs,
    linear_link_costs,
)
from cachenet.policies import flow_costgreedy
from cachenet.scenarios import TABLE_PRESETS, ScenarioSpec, generate_scenario

from helpers import (
    appendix_loop_fixture,
    batch_gains,
    line_topology,
    random_loopfree_instance,
    reference_count_async_messages,
    reference_dag_levels,
    reference_dynamic_blocked_sets,
    reference_gcfw,
    reference_gp_step,
    reference_residuals,
    reference_saved_cost,
    reference_server_distances,
    reference_shortest_path_strategy,
    reference_sp_next_hops,
    reference_sweep_forward,
    reference_static_blocked_sets,
    reference_tight_shortest_path_strategy,
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


class TestLevelsMatchLoop:
    """Every slice of the ``dag_levels`` layout gives the compacting loop's
    level, array for array (values and dtype), with the same acyclic flags
    and ``one_out`` true iff no (item, node) is the source of two pairs; the
    head grouping sorts the same pairs by their head's level."""

    @staticmethod
    def _check(top, active):
        levels, acyclic = dag_levels(top, active)
        ref_levels, ref_acyclic = reference_dag_levels(top, active)
        assert np.array_equal(acyclic, ref_acyclic)
        assert acyclic.dtype == ref_acyclic.dtype
        assert len(levels.slices) == len(ref_levels)
        flat = (levels.link, levels.pair, levels.src, levels.dst)
        for s, ref in zip(levels.slices, ref_levels):
            for a, b in zip((arr[s] for arr in flat), ref, strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        # the slices tile the flat arrays in order
        ends = [s.stop for s in levels.slices]
        assert [s.start for s in levels.slices] == ([0] + ends)[:-1]
        assert all(arr.size == (ends[-1] if ends else 0) for arr in flat)
        srcs = [int(x) for _, _, src, _ in ref_levels for x in src]
        assert levels.one_out == (len(srcs) == len(set(srcs)))
        assert levels.shape == (active.shape[0], top.num_nodes)
        assert all(arr.dtype == np.int64 for arr in flat)
        # the head grouping: a pair goes to its head's level (that of the
        # head's out-links, one past the last for a head without), and the
        # pairs sort stably by it from flat order
        last = len(ref_levels)
        out_level = {}
        for n, (_, _, src, _) in enumerate(ref_levels):
            out_level.update(dict.fromkeys(src.tolist(), n))
        pairs = sorted(zip(levels.pair.tolist(), levels.src.tolist(),
                           levels.dst.tolist()))
        pairs.sort(key=lambda p: out_level.get(p[2], last))
        into = (levels.in_pair, levels.in_src, levels.in_dst)
        assert [tuple(p) for p in zip(*(a.tolist() for a in into))] == pairs
        assert all(a.dtype == np.int64 for a in into)
        bounds = [(lv.start, lv.stop) for lv in levels.in_slices]
        counts = [sum(out_level.get(p[2], last) == n for p in pairs)
                  for n in range(1, last + 1)]
        ends = np.cumsum(counts, dtype=int).tolist()
        assert bounds == list(zip([0] + ends, ends))
        return acyclic

    def test_random_masks(self):
        # dense random masks have cycles; rows are emptied at random, every
        # fourth mask has a single item and density 0 gives all-false ones
        rng = np.random.default_rng(1212)
        cyclic = mixed = empty_rows = 0
        for n in range(80):
            top, _, _, strat = random_loopfree_instance(rng, max_nodes=8)
            C = 1 if n % 4 == 0 else int(rng.integers(1, 6))
            density = rng.choice([0.0, 0.1, 0.3, 0.6])
            active = rng.random((C, top.num_links)) < density
            active[rng.random(C) < 0.3] = False
            acyclic = self._check(top, active)
            cyclic += int((~acyclic).sum())
            mixed += bool(acyclic.any() and not acyclic.all())
            empty_rows += int((~active.any(axis=1)).sum())
            # acyclic routing with one reversed link per chosen item
            routed = strat.phi != 0
            self._check(top, routed)
            for k in range(strat.num_items):
                on = np.flatnonzero(routed[k])
                if on.size and rng.random() < 0.5:
                    routed[k, top.rev[rng.choice(on)]] = True
            self._check(top, routed)
        self._check(top, np.zeros((3, top.num_links), dtype=bool))
        assert cyclic > 40 and mixed > 10 and empty_rows > 20

    @pytest.mark.parametrize("preset", sorted(TABLE_PRESETS))
    def test_preset_sp_starts(self, preset):
        scen = generate_scenario(TABLE_PRESETS[preset], seed=1)
        start = shortest_path_strategy(scen.topology, scen.demand, scen.cost)
        assert self._check(scen.topology, start.phi != 0).all()

    def test_mid_run_grid100_state(self):
        scen = generate_scenario(TABLE_PRESETS["grid-100"], seed=1)
        top = scen.topology
        traj = run_gp(top, scen.demand, scen.cost,
                      GPConfig(alpha=0.01, max_periods=30, tol=1e-12))
        phi = traj.strategy.phi
        assert self._check(top, phi != 0).all()
        assert self._check(top, phi > PHI_ACTIVE).all()


class TestLayoutIndependence:
    """The forward sweep (pull form) and the reverse sweep give the same
    bits over any valid layout of a DAG: its own Kahn levels or the layout
    of a DAG holding it (its extra pairs weighted 0).  The push form of the forward sweep agrees to within a
    few ulp."""

    @staticmethod
    def _random_dags(rng, top, C):
        """Per item a random rank; ``cover`` holds the downhill links,
        ``active`` a random part of them (rows may be empty)."""
        rank = np.array([rng.permutation(top.num_nodes) for _ in range(C)])
        cover = rank[:, top.dst] < rank[:, top.src]
        cover &= rng.random(cover.shape) < 0.9
        active = cover & (rng.random(cover.shape) < rng.choice([0.2, 0.5, 1.0]))
        return active, cover

    def test_random_dags(self):
        rng = np.random.default_rng(3131)
        pushed = 0
        for _ in range(150):
            top, _, _, _ = random_loopfree_instance(rng, max_nodes=9)
            C = int(rng.integers(1, 5))
            active, cover = self._random_dags(rng, top, C)
            own, acyclic = dag_levels(top, active)
            full, full_acyclic = dag_levels(top, cover)
            assert acyclic.all() and full_acyclic.all()
            layouts = (own, full)
            phi = np.where(active, rng.uniform(0.0, 1.0, active.shape), 0.0)
            phi[rng.random(phi.shape) < 0.1] = 0.0
            price = rng.uniform(0.0, 3.0, top.num_links)
            r = rng.uniform(0.0, 2.0, (C, top.num_nodes))
            r[rng.random(r.shape) < 0.3] = 0.0
            ts = [sweep_forward(lv, phi.ravel()[lv.in_pair], r) for lv in layouts]
            gs = [sweep_reverse(lv, phi.ravel()[lv.pair], price[lv.link])
                  for lv in layouts]
            assert len({t.tobytes() for t in ts}) == 1
            assert len({g.tobytes() for g in gs}) == 1
            push = reference_sweep_forward(own, phi.ravel()[own.pair], r)
            assert np.abs(push - ts[0]).max(initial=0.0) <= 4 * np.spacing(
                np.abs(ts[0]).max(initial=0.0))
            pushed += not np.array_equal(push, ts[0])
        assert pushed > 0

    @pytest.mark.parametrize("preset", sorted(TABLE_PRESETS))
    def test_static_layout_gives_the_fresh_bits(self, preset):
        # under static sets the traffic solve and the marginals run over
        # the instance's layout, and give what fresh levels give
        scen = generate_scenario(TABLE_PRESETS[preset], seed=1)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        blocked = static_blocked_sets(top, dem, cost)
        strat = run_gp(top, dem, cost, GPConfig(
            alpha=0.05, max_periods=10, tol=1e-12)).strategy
        kept = solve_traffic(top, dem, strat, cost, blocked)
        fresh = solve_traffic(top, dem, strat, cost)
        assert kept.levels is blocked.layout(top)[0]
        assert kept.t.tobytes() == fresh.t.tobytes()
        assert kept.F.tobytes() == fresh.F.tobytes()
        bare = dataclasses.replace(fresh, levels=None, acyclic=None, routed=None)
        got = [compute_marginals(top, dem, strat, flow, cost, blocked).dTdr
               for flow in (kept, fresh, bare)]
        assert len({g.tobytes() for g in got}) == 1


class TestReverseScatter:
    """On a layout with one pair per (item, node), ``sweep_reverse`` writes
    each level's terms in place; that gives the bits of the ``np.add.at``
    form, zero weights and zero prices included."""

    def test_random_single_successor_layouts(self):
        rng = np.random.default_rng(1414)
        swept = 0
        for _ in range(200):
            top, _, _, _ = random_loopfree_instance(rng, max_nodes=8)
            C = int(rng.integers(1, 5))
            # each node forwards to a random lower-ranked neighbor, if any
            active = np.zeros((C, top.num_links), dtype=bool)
            for k in range(C):
                rank = rng.permutation(top.num_nodes)
                for i in range(top.num_nodes):
                    down = [e for e in top.out_edges[i]
                            if rank[top.dst[e]] < rank[i]]
                    if down and rng.random() < 0.8:
                        active[k, rng.choice(down)] = True
            levels, acyclic = dag_levels(top, active)
            assert levels.one_out and acyclic.all()
            P = levels.pair.size
            w = rng.uniform(0.0, 1.0, P)
            w[rng.random(P) < 0.25] = 0.0
            w[rng.random(P) < 0.1] = 1.0
            c = rng.uniform(0.0, 2.0, P)
            c[rng.random(P) < 0.25] = 0.0
            got = sweep_reverse(levels, w, c)
            added = sweep_reverse(levels._replace(one_out=False), w, c)
            assert got.tobytes() == added.tobytes()
            swept += P > 0
        assert swept > 180


class TestResponseFlowsMatchTakeForm:
    """solve_traffic's response flows equal the link-major product built
    with np.take (each link summed over its items in numpy's pairwise
    order) byte for byte, with item counts on both sides of the pairwise
    blocks."""

    @staticmethod
    def _check(top, dem, cost, strat):
        flow = solve_traffic(top, dem, strat, cost)
        fT = np.take(flow.t.T, top.dst, axis=0)
        fT *= np.take(strat.phi.T, top.rev, axis=0)
        assert flow.f.tobytes() == fT.T.tobytes()
        assert flow.F.tobytes() == fT.sum(axis=1).tobytes()

    def test_random_instances(self):
        rng = np.random.default_rng(2020)
        for max_items in (3, 20, 300):
            for _ in range(15):
                self._check(*random_loopfree_instance(
                    rng, max_nodes=8, max_items=max_items))

    @pytest.mark.parametrize("preset", ["grid-100", "small-world"])
    def test_mid_run_presets(self, preset):
        scen = generate_scenario(TABLE_PRESETS[preset], seed=2)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        strat = run_gp(top, dem, cost, GPConfig(
            alpha=0.01, max_periods=12, tol=1e-12)).strategy
        self._check(top, dem, cost, strat)


class TestExcessNonNegative:
    """Each direction's excess (delta less the least delta of its source,
    the cache included) is >= 0 or NaN, which is why the residuals need no
    pass for inactive directions beating the minimum (with cache caps a
    capped pair's minimum is the least of these deltas, so the same holds;
    the capped residuals are checked against the loop form below)."""

    @staticmethod
    def _check(top, dem, cost, strat, blocked):
        flow = solve_traffic(top, dem, strat, cost)
        marg = compute_marginals(top, dem, strat, flow, cost, blocked)
        excess = marg.table.excess
        assert ((excess >= 0.0) | np.isnan(excess)).all()
        return marg

    def test_random_instances_and_sets(self):
        rng = np.random.default_rng(3030)
        for _ in range(60):
            top, dem, cost, strat = random_loopfree_instance(
                rng, max_nodes=8, interior=bool(rng.random() < 0.5))
            blocked = BlockedSets("static", rng.random(strat.phi.shape) < 0.4)
            for sets in (None, blocked, dynamic_blocked_sets(top, dem, strat)):
                self._check(top, dem, cost, strat, sets)

    def test_mid_run_small_world(self):
        scen = generate_scenario(TABLE_PRESETS["small-world"], seed=1)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        traj = run_gp(top, dem, cost, GPConfig(
            alpha=0.01, max_periods=12, tol=1e-12))
        marg = self._check(top, dem, cost, traj.strategy, traj.blocked)
        assert (marg.table.excess > 0.0).any() and (marg.table.excess == 0.0).any()


class TestLevelReuse:
    """The reverse sweep over the traffic solve's levels as built (pairs at
    phi <= PHI_ACTIVE weighted 0) gives the marginals of a fresh
    ``dag_levels(phi > PHI_ACTIVE)`` build bit for bit, also where entries
    in (0, PHI_ACTIVE] make a cycle that only the traffic solve sees."""

    FIELDS = ("dTdr", "delta_link", "delta_cache", "delta_min", "acyclic")

    @staticmethod
    def _tiny_entries(rng, strat, top):
        """Entries in (0, PHI_ACTIVE] on some routed links, and (per item,
        sometimes) one more reversing an active link: that item's only
        cycle then runs through an inactive entry.  Returns the items that
        got such a cycle."""
        phi = strat.phi
        tiny = np.array([1e-13, 5e-13, PHI_ACTIVE])
        pick = (phi > 0) & (rng.random(phi.shape) < 0.2)
        phi[pick] = rng.choice(tiny, size=int(pick.sum()))
        looped = []
        for k in range(strat.num_items):
            active = np.nonzero(phi[k] > PHI_ACTIVE)[0]
            if active.size and rng.random() < 0.5:
                phi[k, top.rev[rng.choice(active)]] = rng.choice(tiny)
                looped.append(k)
        return looped

    def _assert_fresh_equal(self, top, dem, cost, strat, flow, blocked):
        """Marginals from ``flow``'s levels equal those of a fresh build;
        returns them."""
        reused = compute_marginals(top, dem, strat, flow, cost, blocked)
        bare = dataclasses.replace(flow, levels=None, acyclic=None, routed=None)
        fresh = compute_marginals(top, dem, strat, bare, cost, blocked)
        for name in self.FIELDS:
            assert np.array_equal(getattr(reused, name), getattr(fresh, name)), name
        self._assert_eager_equal(top, reused, blocked)
        return reused

    @staticmethod
    def _assert_eager_equal(top, marg, blocked):
        """delta_link read on demand and delta_min from the direction table
        equal the full (items, links) forms bit for bit."""
        link = marg.link_deriv[top.rev][None, :] + marg.dTdr[:, top.dst]
        masked = link if blocked is None else np.where(blocked.mask, np.inf, link)
        least = fold_out_links(top.src, masked, np.minimum,
                               np.full(marg.dTdr.shape, np.inf))
        assert marg.delta_link.tobytes() == link.tobytes()
        assert marg.table.link_min.tobytes() == least.tobytes()
        assert marg.delta_min.tobytes() == np.minimum(least, marg.delta_cache).tobytes()

    @pytest.mark.parametrize("preset", sorted(TABLE_PRESETS))
    def test_on_demand_fields_equal_full_forms(self, preset):
        scen = generate_scenario(TABLE_PRESETS[preset], seed=1)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        for mode in ("static", "dynamic"):
            traj = run_gp(top, dem, cost, GPConfig(
                alpha=0.05, max_periods=8, tol=1e-12, blocked_mode=mode))
            strat = traj.strategy
            flow = solve_traffic(top, dem, strat, cost)
            for blocked in (None, traj.blocked,
                            dynamic_blocked_sets(top, dem, strat)):
                marg = compute_marginals(top, dem, strat, flow, cost, blocked)
                self._assert_eager_equal(top, marg, blocked)

    def _check(self, top, dem, cost, strat):
        flow = solve_traffic(top, dem, strat, cost)
        blocked = BlockedSets("static", strat.phi <= PHI_ACTIVE)
        return flow, self._assert_fresh_equal(top, dem, cost, strat, flow, blocked)

    def test_random_instances_with_tiny_entries(self):
        rng = np.random.default_rng(7070)
        filtered = fallbacks = 0
        for _ in range(60):
            top, dem, cost, strat = random_loopfree_instance(rng, max_nodes=8)
            looped = self._tiny_entries(rng, strat, top)
            flow, marg = self._check(top, dem, cost, strat)
            assert marg.acyclic.all()
            assert not flow.acyclic[looped].any()
            inactive = (strat.phi != 0) & (strat.phi <= PHI_ACTIVE)
            filtered += bool((inactive & flow.acyclic[:, None]).any())
            fallbacks += bool(looped)
        assert filtered > 25 and fallbacks > 40

    def test_active_cycles_stay_cyclic(self):
        # an item with a real loop above PHI_ACTIVE next to one whose loop
        # runs through an inactive entry
        rng = np.random.default_rng(7071)
        for _ in range(30):
            top, dem, cost, strat = random_loopfree_instance(rng, max_nodes=8)
            if strat.num_items < 2:
                continue
            self._tiny_entries(rng, strat, top)
            e = int(np.argmax(strat.phi[0] > PHI_ACTIVE))
            strat.phi[0, top.rev[e]] = 0.3
            _, marg = self._check(top, dem, cost, strat)
            assert not marg.acyclic[0]

    def test_mid_run_gp_states_on_grid25(self):
        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=3)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        traj = run_gp(top, dem, cost, GPConfig(
            alpha=0.05, max_periods=60, tol=1e-12, blocked_mode="dynamic"))
        self._check(top, dem, cost, traj.strategy)

    def test_flow_of_an_earlier_strategy_is_leveled_anew(self):
        # gp_step changes phi in place: links it activates are missing from
        # the levels of the flow solved before it
        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=3)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        strat = shortest_path_strategy(top, dem, cost)
        blocked = static_blocked_sets(top, dem, cost)
        flow = solve_traffic(top, dem, strat, cost)
        marg = compute_marginals(top, dem, strat, flow, cost, blocked)
        gp_step(top, dem, strat, flow, marg, blocked, 0.05,
                np.ones_like(strat.y, dtype=bool))
        assert ((strat.phi > PHI_ACTIVE) & ~flow.routed).any()
        self._assert_fresh_equal(top, dem, cost, strat, flow, blocked)


class TestAsyncMessagesMatchLoop:
    """The all-items reachability sweep counts the same single-node update
    messages as the per-item set search, for every updater."""

    def test_random_instances_both_modes(self):
        rng = np.random.default_rng(9090)
        for _ in range(40):
            top, dem, cost, strat = random_loopfree_instance(rng, max_nodes=8,
                                                             max_items=4)
            # sparse routing, and some entries at or below PHI_ACTIVE
            strat.phi[rng.random(strat.phi.shape) < 0.3] = 0.0
            strat.phi[rng.random(strat.phi.shape) < 0.1] *= 1e-13
            for blocked in (static_blocked_sets(top, dem, cost),
                            dynamic_blocked_sets(top, dem, strat)):
                for node in range(top.num_nodes):
                    got = count_async_messages(top, dem, strat, blocked, node)
                    ref = reference_count_async_messages(top, dem, strat,
                                                         blocked, node)
                    assert got == ref, (blocked.mode, node)


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


class TestDirectionTableMatchesLoop:
    """The step and the residuals read the direction table of the unblocked
    pairs; each of its special branches gives what the per-pair loops give,
    bit for bit."""

    @staticmethod
    def _agree(top, dem, cost, strat, blocked, pairs, alpha=0.05, caps=None):
        """Step and residuals against the loops; returns the table."""
        fs = solve_traffic(top, dem, strat, cost)
        marg = compute_marginals(top, dem, strat, fs, cost, blocked)
        pair, _, delta = vectorized_residuals(top, dem, strat, fs, marg,
                                              blocked, cache_caps=caps)
        ref_pair, ref_delta = reference_residuals(top, dem, strat, fs, marg,
                                                  blocked, caps, per_pair=True)
        assert np.array_equal(pair, ref_pair)   # -0.0 == 0.0
        assert np.array_equal(delta, ref_delta)
        got, ref = strat.copy(), strat.copy()
        gp_step(top, dem, got, fs, marg, blocked, alpha, pairs)
        reference_gp_step(top, dem, ref, fs, marg, blocked, alpha, pairs)
        assert got.phi.tobytes() == ref.phi.tobytes()
        assert got.y.tobytes() == ref.y.tobytes()
        return marg.table

    def test_blocked_links_holding_mass(self):
        # random masks block routed links, some holding 0 < phi <= PHI_ACTIVE,
        # and servers forward: held entries, tiny ones, and served pairs
        rng = np.random.default_rng(1616)
        held = tiny = served = 0
        for _ in range(60):
            top, dem, cost, strat = random_loopfree_instance(rng, max_nodes=8)
            routed = strat.phi > 0
            strat.phi[routed & (rng.random(routed.shape) < 0.2)] = PHI_ACTIVE / 2
            k = int(rng.integers(dem.num_items))
            server = next(iter(dem.servers[k]))
            strat.phi[k, top.out_edges[server][0]] = 0.5
            blocked = BlockedSets("static", rng.random(routed.shape) < 0.4)
            shape = strat.y.shape
            caps = {(i, c): strat.y[c, i] for i in range(top.num_nodes)
                    for c in range(dem.num_items) if rng.random() < 0.3}
            for pairs in (np.ones(shape, dtype=bool), rng.random(shape) < 0.5):
                for table in (None, caps):
                    tab = self._agree(top, dem, cost, strat, blocked, pairs,
                                      float(rng.choice([0.01, 0.5])), table)
            held += tab.held.size
            tiny += int((strat.phi.ravel()[tab.held] <= PHI_ACTIVE).sum())
            served += int(dem.server_mask.ravel()[tab.held_src].sum()
                          + dem.server_mask.ravel()[tab.src].sum())
        assert held > 50 and tiny > 5 and served > 20

    def test_idle_pairs_with_tied_hops(self):
        # a grid with equal link costs and little demand: pairs without
        # traffic see several equally cheap hops; spread their mass over
        # every unblocked hop (and y) and the step parks it on the lowest
        # neighbor id
        rng = np.random.default_rng(1617)
        spec = ScenarioSpec("grid", (5, 5), catalog=4, requests=3,
                            link_cost_range=(0.1, 0.1))
        tied = 0
        for seed in range(1, 6):
            scen = generate_scenario(spec, seed)
            top, dem, cost = scen.topology, scen.demand, scen.cost
            strat = shortest_path_strategy(top, dem, cost)
            blocked = static_blocked_sets(top, dem, cost)
            idle = ((solve_traffic(top, dem, strat, cost).t <= T_ZERO)
                    & ~dem.server_mask)
            k, i = np.nonzero(idle & (rng.random(idle.shape) < 0.7))
            strat.y[k, i] = 0.3
            out = idle[:, top.src] & ~blocked.mask
            strat.phi[out] = 0.0
            n_out = fold_out_links(top.src, out.astype(float), np.add,
                                   np.zeros(idle.shape))
            strat.phi[out] = ((1.0 - strat.y) / np.maximum(n_out, 1))[:, top.src][out]
            pairs = np.ones(idle.shape, dtype=bool)
            tab = self._agree(top, dem, cost, strat, blocked, pairs)
            ties = np.bincount(tab.src[tab.excess == 0.0], minlength=idle.size)
            tied += int((idle.ravel() & (ties >= 2)).sum())
        assert tied > 10

    def test_no_minimum_direction_raises_like_the_loop(self, monkeypatch):
        # NaN marginals of one item leave its busy pairs no direction at
        # the minimum
        import cachenet.marginals

        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=1)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        strat = shortest_path_strategy(top, dem, cost)
        blocked = static_blocked_sets(top, dem, cost)
        fs = solve_traffic(top, dem, strat, cost)
        k = int(np.argmax((fs.t > T_ZERO).sum(axis=1)))
        sweep = cachenet.marginals.sweep_reverse

        def nan_item(*args):
            g = sweep(*args)
            g[k] = np.nan
            return g

        monkeypatch.setattr(cachenet.marginals, "sweep_reverse", nan_item)
        errors = []
        with np.errstate(invalid="ignore"):   # the NaN marginals compared
            marg = compute_marginals(top, dem, strat, fs, cost, blocked)
            for step in (gp_step, reference_gp_step):
                with pytest.raises(CacheNetError,
                                   match="no minimum-marginal") as err:
                    step(top, dem, strat.copy(), fs, marg, blocked, 0.05,
                         fs.t > T_ZERO)
                errors.append(str(err.value))
        assert errors[0] == errors[1]

    def test_dynamic_sets_changing_between_periods(self):
        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=3)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        strat = shortest_path_strategy(top, dem, cost)
        masks = []
        for _ in range(30):
            blocked = dynamic_blocked_sets(top, dem, strat)
            masks.append(blocked.mask)
            fs = solve_traffic(top, dem, strat, cost)
            pairs = np.ones(strat.y.shape, dtype=bool)
            self._agree(top, dem, cost, strat, blocked, pairs)
            marg = compute_marginals(top, dem, strat, fs, cost, blocked)
            gp_step(top, dem, strat, fs, marg, blocked, 0.05, pairs)
        changed = sum(not np.array_equal(a, b) for a, b in zip(masks, masks[1:]))
        assert changed > 10


class TestDynamicSetsMatchLoop:
    """The all-items array Kahn sort gives the per-item heap loop's masks,
    and raises LoopError naming the same item."""

    @staticmethod
    def _relabel(rng, top, dem, strat):
        """The same instance under a random node relabelling, so the
        lowest-id order is not just the DAG order of the generator."""
        p = rng.permutation(top.num_nodes)
        new = Topology(top.num_nodes, [(p[i], p[j]) for i, j in top.links])
        moved = [new.edge_index[(p[i], p[j])] for i, j in top.links]
        phi = np.zeros_like(strat.phi)
        phi[:, moved] = strat.phi
        y = np.zeros_like(strat.y)
        y[:, p] = strat.y
        rates = np.zeros_like(dem.rates)
        rates[:, p] = dem.rates
        servers = [{int(p[s]) for s in ss} for ss in dem.servers]
        return (new, Demand(dem.num_items, servers, rates),
                Strategy(new, dem.num_items, phi, y))

    @staticmethod
    def _agree(top, dem, strat):
        """Compare the two; returns False when both raise LoopError."""
        try:
            ref = reference_dynamic_blocked_sets(top, dem, strat)
        except LoopError as exc:
            with pytest.raises(LoopError) as got:
                dynamic_blocked_sets(top, dem, strat)
            assert str(got.value) == str(exc)
            return False
        got = dynamic_blocked_sets(top, dem, strat)
        assert np.array_equal(got.mask, ref.mask)
        return True

    def test_relabelled_random_instances(self):
        rng = np.random.default_rng(4242)
        for _ in range(80):
            top, dem, _, strat = random_loopfree_instance(rng, max_nodes=9,
                                                          max_items=4)
            top, dem, strat = self._relabel(rng, top, dem, strat)
            assert self._agree(top, dem, strat)
            # items with no active link, nodes with no active link, and
            # fractions on either side of PHI_ACTIVE
            sparse = strat.copy()
            sparse.phi[rng.random(dem.num_items) < 0.3] = 0.0
            lone = rng.random(top.num_nodes) < 0.3
            sparse.phi[:, lone[top.src] | lone[top.dst]] = 0.0
            edge = (sparse.phi > 0) & (rng.random(sparse.phi.shape) < 0.3)
            sparse.phi[edge] = rng.choice([PHI_ACTIVE, 2 * PHI_ACTIVE],
                                          size=int(edge.sum()))
            assert self._agree(top, dem, sparse)
        zero = Strategy(top, dem.num_items)
        assert self._agree(top, dem, zero)

    def test_gp_states_on_grid25(self):
        scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=1)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        for periods in (1, 15, 40):
            traj = run_gp(top, dem, cost, GPConfig(
                alpha=0.05, max_periods=periods, tol=1e-12,
                blocked_mode="dynamic",
            ))
            assert self._agree(top, dem, traj.strategy)

    def test_injected_cycles_name_the_same_item(self):
        rng = np.random.default_rng(99)
        raised = 0
        for _ in range(60):
            top, dem, _, strat = random_loopfree_instance(rng, max_nodes=9,
                                                          max_items=4)
            top, dem, strat = self._relabel(rng, top, dem, strat)
            for k in np.nonzero(rng.random(dem.num_items) < 0.5)[0]:
                active = np.nonzero(strat.phi[k] > PHI_ACTIVE)[0]
                e = int(rng.choice(active))
                if rng.random() < 0.5:
                    strat.phi[k, top.rev[e]] = 0.3      # two-node cycle
                    continue
                # a longer cycle: an active path a -> b -> c closed by (c, a)
                a, b = int(top.src[e]), int(top.dst[e])
                for f in top.out_edges[b]:
                    back = top.edge_index.get((int(top.dst[f]), a))
                    if strat.phi[k, f] > PHI_ACTIVE and back is not None:
                        strat.phi[k, back] = 0.3
                        break
            raised += not self._agree(top, dem, strat)
        assert raised > 20


class TestStrandedResort:
    """Given arrival rates, the dynamic sets re-sort every item with a
    stranded pair (non-server, t = 0, y > 0, no unblocked out-link) with the
    stranded nodes and their positive-phi ancestors first."""

    def test_random_instances_match_loop(self):
        rng = np.random.default_rng(1919)
        mended = 0
        for _ in range(120):
            top, dem, _, strat = random_loopfree_instance(rng, max_nodes=9,
                                                          max_items=4)
            top, dem, strat = TestDynamicSetsMatchLoop._relabel(
                rng, top, dem, strat)
            strat.phi[rng.random(strat.phi.shape) < 0.5] = 0.0
            strat.y[rng.random(strat.y.shape) < 0.3] = 0.0
            t = np.where(rng.random(strat.y.shape) < 0.5, 0.0, 1.0)
            plain = dynamic_blocked_sets(top, dem, strat).mask
            got = dynamic_blocked_sets(top, dem, strat, t).mask
            ref = reference_dynamic_blocked_sets(top, dem, strat, t).mask
            assert np.array_equal(got, ref)
            # still one total order per item that every active link follows
            assert np.array_equal(got[:, top.rev], ~got)
            assert not got[strat.phi > PHI_ACTIVE].any()
            # a stranded node with a neighbour outside the nodes taken
            # first keeps an unblocked out-link
            n_out = fold_out_links(top.src, (~plain).astype(int), np.add,
                                   np.zeros(t.shape, dtype=int))
            stranded = ((n_out == 0) & ~dem.server_mask & (t <= T_ZERO)
                        & (strat.y > 0))
            active = strat.phi > PHI_ACTIVE
            ahead = stranded.copy()
            for _ in range(top.num_nodes):
                for k, e in zip(*np.nonzero(active)):
                    ahead[k, top.src[e]] |= ahead[k, top.dst[e]]
            incident = np.zeros_like(ahead)
            k, e = np.nonzero(active)
            incident[k, top.src[e]] = incident[k, top.dst[e]] = True
            for k, i in zip(*np.nonzero(stranded & incident)):
                out = list(top.out_edges[i])
                if not ahead[k, top.dst[out]].all():
                    assert not got[k, out].all()
                    mended += 1
        assert mended > 20

    @pytest.mark.parametrize("schedule", ["synchronous", "round-robin"])
    @pytest.mark.parametrize("preset, seed", [("full-tree", 1), ("fog", 1)])
    def test_runs_stay_loop_free(self, monkeypatch, schedule, preset, seed):
        import cachenet.blocking

        resorts = []
        ancestors = cachenet.blocking._ancestors

        def counted(*args):
            resorts.append(1)
            return ancestors(*args)

        monkeypatch.setattr(cachenet.blocking, "_ancestors", counted)
        scen = generate_scenario(TABLE_PRESETS[preset], seed)
        traj = run_gp(scen.topology, scen.demand, scen.cost, GPConfig(
            alpha=0.1, blocked_mode="dynamic", schedule=schedule,
            max_periods=300, tol=1e-4))
        assert all(r.loop_free for r in traj.records)
        assert traj.final_cost <= traj.records[0].total_cost
        if (preset, schedule) != ("fog", "round-robin"):
            assert resorts


class TestShortestPathsMatchLoop:
    """The all-items Bellman-Ford distances, the array next links and the
    round-wise hop counts give the heap Dijkstra's distances, a loop
    reference's SP strategy and next hops, and the BFS-ordered, BFS-checked
    static masks; the SP start is always loop-free and inside the static
    unblocked sets."""

    @staticmethod
    def _item(fn, *args):
        """The item a DisconnectedDemandError names, or None if fn returns."""
        try:
            fn(*args)
        except DisconnectedDemandError as exc:
            return int(str(exc).rsplit(" ", 1)[1])
        return None

    def _agree(self, top, dem, cost, reference=reference_shortest_path_strategy):
        """Compare everything, the SP start with ``reference``; returns
        False when both raise."""
        w = cost.link_deriv(np.zeros(top.num_links))
        item = self._item(reference_server_distances, top, dem, w)
        if item is not None:
            with pytest.raises(DisconnectedDemandError) as got:
                server_distances(top, dem, w)
            with pytest.raises(DisconnectedDemandError) as ref:
                reference_server_distances(top, dem, w)
            assert str(got.value) == str(ref.value)
            assert self._item(shortest_path_strategy, top, dem, cost) == item
            assert self._item(static_blocked_sets, top, dem, cost) == item
            return False
        assert np.array_equal(server_distances(top, dem, w),
                              reference_server_distances(top, dem, w))
        start = shortest_path_strategy(top, dem, cost)
        assert np.array_equal(start.phi, reference(top, dem, cost).phi)
        assert (list(sp_next_hops(top, dem, cost).items())
                == list(reference_sp_next_hops(top, dem, cost, reference).items()))
        _, acyclic = dag_levels(top, start.phi != 0)
        assert acyclic.all()
        item = self._item(reference_static_blocked_sets, top, dem, cost)
        assert self._item(static_blocked_sets, top, dem, cost) == item
        if item is None:
            mask = static_blocked_sets(top, dem, cost).mask
            assert np.array_equal(mask,
                                  reference_static_blocked_sets(top, dem, cost).mask)
            assert not (start.phi[mask] > 0).any()
        return True

    @staticmethod
    def _tied_instance(rng, top, num_items):
        """Weights from {0, 0.1, 0.2, 0.3} (ties and zero-weight links) and
        one or two random servers per item."""
        V = top.num_nodes
        servers = [set(rng.choice(V, size=rng.integers(1, 3), replace=False)
                       .tolist()) for _ in range(num_items)]
        dem = Demand(num_items, servers, rng.uniform(0.0, 1.0, (num_items, V)))
        d = rng.choice([0.0, 0.1, 0.2, 0.3], size=top.num_links)
        cost = CostModel(link=linear_link_costs(d),
                         cache=linear_cache_costs(np.ones(V)))
        return dem, cost

    @pytest.mark.parametrize("preset", sorted(TABLE_PRESETS))
    def test_presets(self, preset):
        for seed in (1, 2, 3):
            scen = generate_scenario(TABLE_PRESETS[preset], seed)
            assert self._agree(scen.topology, scen.demand, scen.cost)

    def test_random_tied_instances(self):
        # connected graphs with zero-weight links and distance ties: the
        # (distance, hops, id) order leaves no node without a way out, so
        # every mask is compared with the loop form; a scan by distance
        # alone would route in a cycle here, so the start is compared with
        # the loop form of the tight, unblocked, lowest-id rule
        rng = np.random.default_rng(515)
        ties = 0
        for _ in range(50):
            top, dem, _, _ = random_loopfree_instance(rng, max_nodes=9,
                                                      max_items=4)
            dem, cost = self._tied_instance(rng, top, dem.num_items)
            assert self._agree(top, dem, cost, reference_tight_shortest_path_strategy)
            assert self._item(static_blocked_sets, top, dem, cost) is None
            w = cost.link_deriv(np.zeros(top.num_links))
            dist = server_distances(top, dem, w)
            servers = dem.server_mask
            ties += bool(((dist[:, top.src] == dist[:, top.dst])
                          & ~(servers[:, top.src] & servers[:, top.dst])).any())
        assert ties > 40     # instances with a tie off the server-server links

    def test_disconnected_graphs_name_the_same_item(self):
        rng = np.random.default_rng(616)
        raised = 0
        for _ in range(30):
            # two random components side by side
            a, _, _, _ = random_loopfree_instance(rng, max_nodes=5)
            b, _, _, _ = random_loopfree_instance(rng, max_nodes=5)
            n = a.num_nodes
            top = Topology(n + b.num_nodes, list(a.links) +
                           [(i + n, j + n) for i, j in b.links])
            dem, cost = self._tied_instance(rng, top, int(rng.integers(1, 5)))
            raised += not self._agree(top, dem, cost,
                                      reference_tight_shortest_path_strategy)
        assert raised > 20


class TestGcfwMatchesReference:
    """``gcfw`` shares each iterate's flows between its gain and gradient,
    and ``saved_cost`` scatters its reverse sweep; both must give the bits
    of ``helpers.reference_gcfw`` (flows computed twice per iteration,
    reverse sweep by ``np.add.at``)."""

    @staticmethod
    def _instance(preset, seed):
        scen = generate_scenario(TABLE_PRESETS[preset], seed)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        return scen, FixedRoutingInstance(top, dem, cost,
                                          sp_next_hops(top, dem, cost))

    @pytest.mark.parametrize("preset", sorted(TABLE_PRESETS))
    def test_presets(self, preset):
        for seed in (1, 2):
            _, inst = self._instance(preset, seed)
            got, ref = gcfw(inst, 100), reference_gcfw(inst, 100)
            assert np.array_equal(got.y, ref.y)
            assert dataclasses.asdict(got.gain) == dataclasses.asdict(ref.gain)
            assert got.history == ref.history
            assert got.best_iter == ref.best_iter

    @pytest.mark.parametrize("preset", sorted(TABLE_PRESETS))
    def test_saved_cost_on_random_y(self, preset):
        rng = np.random.default_rng(77)
        _, inst = self._instance(preset, 1)
        top = inst.topology
        zero_prices = inst.cost.link_deriv(np.zeros(top.num_links))[top.rev]
        for _ in range(3):
            y = rng.uniform(0.0, 1.0, inst.demand.server_mask.shape)
            y[rng.random(y.shape) < 0.2] = 0.0
            y[rng.random(y.shape) < 0.2] = 1.0
            t, F, _ = inst.flows(y)
            for prices in (inst.cost.link_deriv(F)[top.rev], zero_prices):
                got = inst.saved_cost(y, t, prices)
                assert np.array_equal(got, reference_saved_cost(inst, y, t, prices))

    @pytest.mark.parametrize("preset", sorted(TABLE_PRESETS))
    def test_batch_gains_match_eval_gain(self, preset):
        # the batched grid of acceptance criterion 6 relies on these bits
        rng = np.random.default_rng(88)
        _, inst = self._instance(preset, 1)
        ys = rng.uniform(0.0, 1.0, (4, *inst.demand.server_mask.shape))
        ys[rng.random(ys.shape) < 0.3] = 0.0
        ys[0] = 0.0
        want = [eval_gain(inst, y).G for y in ys]
        assert batch_gains(inst, ys).tolist() == want

    @pytest.mark.parametrize("preset", sorted(TABLE_PRESETS))
    def test_costgreedy_costs(self, preset, monkeypatch):
        scen, _ = self._instance(preset, 1)
        best, sets, costs = flow_costgreedy(scen, max_steps=30)
        monkeypatch.setattr(FixedRoutingInstance, "saved_cost",
                            reference_saved_cost)
        assert flow_costgreedy(scen, max_steps=30) == (best, sets, costs)

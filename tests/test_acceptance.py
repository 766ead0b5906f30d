"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS|FAIL` line (run pytest
with -s to see them on success).  Heavy artifacts (the converged grid-25
optimizer run) are shared through session fixtures.
"""

import itertools

import numpy as np
import pytest

from cachenet.fixedroute import FixedRoutingInstance, eval_gain, gcfw, grad_gain
from cachenet.flow import Strategy, solve_traffic
from cachenet.gp import GPConfig, run_gp, sp_next_hops
from cachenet.marginals import check_modified_condition, compute_marginals
from cachenet.network import CostModel, Demand, Topology, linear_cache_costs
from cachenet.policies import FrozenStrategyPolicy, flow_costgreedy
from cachenet.rounding import build_bar_map, sample_decision
from cachenet.scenarios import ScenarioSpec, TABLE_PRESETS, generate_scenario
from cachenet.sim import SimSchedule, run_simulation
from cachenet.cli import reprice_caches, scale_rates

from helpers import (
    appendix_loop_fixture,
    batch_gains,
    fd_phi_pair,
    line_topology,
    mc_measured_cost_model,
    random_loopfree_instance,
    symmetric_costs,
)


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def grid25():
    return generate_scenario(TABLE_PRESETS["grid-25"], seed=1)


@pytest.fixture(scope="session")
def grid25_gp_static(grid25):
    traj = run_gp(
        grid25.topology, grid25.demand, grid25.cost,
        GPConfig(alpha=0.01, max_periods=20000, tol=1e-4, blocked_mode="static"),
    )
    return traj


def ascending_fixed_instance(rng, max_nodes=6, max_items=3):
    """Random fixed-routing instance: next hop always increases the node id."""
    top, dem, cost, _ = random_loopfree_instance(rng, max_nodes, max_items)
    nh = {}
    for k in range(dem.num_items):
        for i in range(top.num_nodes - 1):
            ups = [j for j in top.neighbors[i] if j > i]
            nh[(i, k)] = int(rng.choice(ups))
    return FixedRoutingInstance(top, dem, cost, nh)


class TestCriterion1:
    def test_appendix_loop_fixture(self):
        top, dem, cost, loop, loop_free, caps = appendix_loop_fixture()
        t_loop = solve_traffic(top, dem, loop, cost).total_cost
        t_free = solve_traffic(top, dem, loop_free, cost).total_cost
        cond = check_modified_condition(
            top, dem, loop, cost, tol=1e-9, cache_caps=caps
        )
        ok = (
            abs(t_loop - 3.0) <= 1e-9
            and abs(t_free - 3.5) <= 1e-9
            and cond.passed
        )
        report(1, "worked-loop-example totals + modified condition", ok,
               f"T_loop={t_loop!r} T_free={t_free!r} condition={cond.passed}")


class TestCriterion2:
    def test_gain_fixtures(self):
        # network (a): single path 0-1-2-3, unit demand/marginals
        top_a = line_topology(4)
        dem = Demand(1, [{3}], np.array([[1.0, 0.0, 0.0, 0.0]]))
        cost_a = symmetric_costs(
            top_a, {frozenset((i, i + 1)): 1.0 for i in range(3)}, [0.0] * 4
        )
        inst_a = FixedRoutingInstance(
            top_a, dem, cost_a, {(0, 0): 1, (1, 0): 2, (2, 0): 3}
        )

        def y_a(**kw):
            y = np.zeros((1, 4))
            for n, v in kw.items():
                y[0, int(n[1:])] = v
            return y

        g_a_yj = eval_gain(inst_a, y_a(n1=0.5)).G
        ret_a = eval_gain(inst_a, y_a(n1=0.5, n2=1.0)).G - g_a_yj

        # network (b): adds the direct 0-3 edge of marginal 2; gains are
        # evaluated under minimum-cost route choice
        links = list(top_a.links) + [(0, 3), (3, 0)]
        top_b = Topology(4, links)
        cost_b = symmetric_costs(
            top_b,
            {frozenset((0, 1)): 1.0, frozenset((1, 2)): 1.0,
             frozenset((2, 3)): 1.0, frozenset((0, 3)): 2.0},
            [0.0] * 4,
        )
        routes = [
            FixedRoutingInstance(top_b, dem, cost_b,
                                 {(0, 0): 1, (1, 0): 2, (2, 0): 3}),
            FixedRoutingInstance(top_b, dem, cost_b,
                                 {(0, 0): 3, (1, 0): 2, (2, 0): 3}),
        ]

        def g_b(y):
            t0 = min(r.baseline_cost() for r in routes)
            best = min(r.baseline_cost() - eval_gain(r, y).A for r in routes)
            return t0 - best

        g_b_yj = g_b(y_a(n1=0.5))
        jump_from_zero = g_b(y_a(n2=1.0)) - g_b(y_a())
        jump_given_yj = g_b(y_a(n1=0.5, n2=1.0)) - g_b_yj

        ok = (
            abs(g_a_yj - 1.0) <= 1e-9
            and abs(g_b_yj - 0.0) <= 1e-9
            and abs(ret_a - 0.5) <= 1e-9
            and abs(jump_from_zero - 0.0) <= 1e-9
            and abs(jump_given_yj - 0.5) <= 1e-9
        )
        report(2, "diamond caching-gain fixtures", ok,
               f"G_a={g_a_yj} G_b={g_b_yj} g_a=0.5->{ret_a} "
               f"g_b jump {jump_from_zero}->{jump_given_yj}")


class TestCriterion3:
    def test_bar_rounding_fixture(self):
        y = np.array([0.3, 0.5, 0.1, 0.8, 0.4, 0.3])
        m = build_bar_map(y)
        # items 2, 4, 6 in the 1-based labeling
        sel = m.evaluate(0.35)
        sel_ok = sel == {1, 3, 5}

        total = y.sum()
        sweep_ok = all(
            abs(sample_decision(m, float(u)).sum() - total) < 1.0
            for u in np.linspace(0.0, 0.9999, 10_000)
        )

        rng = np.random.default_rng(2024)
        n = 100_000
        hits = np.zeros(6)
        for u in rng.random(n):
            hits += sample_decision(m, float(u))
        means = hits / n
        se = np.sqrt(y * (1 - y) / n)
        mc_ok = (np.abs(means - y) <= 3 * se + 1e-12).all()

        ok = sel_ok and sweep_ok and mc_ok
        report(3, "bar-coloring rounding fixture", ok,
               f"P(0.35)={sorted(sel)} sweep<1={sweep_ok} "
               f"max|mean-y|={np.abs(means - y).max():.4f}")


class TestCriterion4:
    def test_gradient_correctness(self):
        rng = np.random.default_rng(404)
        worst_m = 0.0
        checked_m = 0
        instances = 0
        while instances < 50:
            top, dem, cost, s = random_loopfree_instance(rng, 6, 3)
            fs = solve_traffic(top, dem, s, cost)
            marg = compute_marginals(top, dem, s, fs, cost)
            found = 0
            for k in range(dem.num_items):
                for i in range(top.num_nodes - 1):
                    ee = [e for e in top.out_edges[i] if s.phi[k, e] > 0.05]
                    if len(ee) < 2:
                        continue
                    analytic = fs.t[k, i] * (
                        marg.delta_link[k, ee[0]] - marg.delta_link[k, ee[1]]
                    )
                    fd = fd_phi_pair(top, dem, s, cost, k, ee[0], ee[1])
                    err = abs(fd - analytic) / max(1.0, abs(analytic))
                    worst_m = max(worst_m, err)
                    found += 1
            if found:
                instances += 1
                checked_m += found

        worst_a = 0.0
        for _ in range(50):
            inst = ascending_fixed_instance(rng, 6, 3)
            C, V = inst.demand.num_items, inst.topology.num_nodes
            y = rng.uniform(0.05, 0.85, size=(C, V))
            for k in range(C):
                for srv in inst.demand.servers[k]:
                    y[k, srv] = 0.0
            gA, _ = grad_gain(inst, y)
            k = int(rng.integers(C))
            i = int(rng.integers(V - 1))
            h = 1e-6
            up, dn = y.copy(), y.copy()
            up[k, i] += h
            dn[k, i] -= h
            fd = (eval_gain(inst, up).A - eval_gain(inst, dn).A) / (2 * h)
            worst_a = max(worst_a, abs(fd - gA[k, i]) / max(1.0, abs(gA[k, i])))

        ok = worst_m <= 1e-5 and worst_a <= 1e-5 and instances == 50
        report(4, "marginals and gain gradient vs finite differences", ok,
               f"worst rel err: marginals {worst_m:.2e} "
               f"({checked_m} checks / {instances} instances), gradA {worst_a:.2e}")


class TestCriterion5:
    def test_dr_submodularity(self):
        rng = np.random.default_rng(505)
        h = 1e-3
        worst_second = -np.inf
        monotone_ok = True
        for _ in range(20):
            inst = ascending_fixed_instance(rng, 5, 2)
            C, V = inst.demand.num_items, inst.topology.num_nodes
            y = rng.uniform(0.1, 0.7, size=(C, V))
            for k in range(C):
                for srv in inst.demand.servers[k]:
                    y[k, srv] = 0.0
            coords = [(k, i) for k in range(C) for i in range(V - 1)]
            base = eval_gain(inst, y).A
            singles = {}
            for c in coords:
                yy = y.copy()
                yy[c] += h
                singles[c] = eval_gain(inst, yy).A
                if singles[c] < base - 1e-12:
                    monotone_ok = False
            for a, b in itertools.product(coords, coords):
                yy = y.copy()
                yy[a] += h
                yy[b] += h
                second = eval_gain(inst, yy).A - singles[a] - singles[b] + base
                worst_second = max(worst_second, second)
        ok = worst_second <= 1e-7 and monotone_ok
        report(5, "diminishing returns of the routing saving", ok,
               f"max second difference {worst_second:.3e}, monotone={monotone_ok}")


class TestCriterion6:
    def _brute_instances(self, rng):
        """Tiny fixed-routing instances with <= 4 free caching coordinates."""
        out = []
        for trial in range(20):
            n_free = 4 if trial < 2 else 3
            if n_free == 3:
                top = line_topology(4)  # free: nodes 0..2, single item
                dem = Demand(1, [{3}], np.array([[rng.uniform(0.5, 3.0), 0, 0, 0]]))
                d = {frozenset((i, i + 1)): rng.uniform(0.3, 1.2) for i in range(3)}
                cost = CostModel(
                    link=symmetric_costs(top, d, [0.0] * 4, kind="poly3").link,
                    cache=linear_cache_costs(rng.uniform(0.1, 1.2, 4)),
                )
                nh = {(i, 0): i + 1 for i in range(3)}
                free = [(0, i) for i in range(3)]
            else:
                top = line_topology(5)
                dem = Demand(
                    1, [{4}],
                    np.array([[rng.uniform(0.5, 3.0), rng.uniform(0, 1.5), 0, 0, 0]]),
                )
                d = {frozenset((i, i + 1)): rng.uniform(0.3, 1.2) for i in range(4)}
                cost = CostModel(
                    link=symmetric_costs(top, d, [0.0] * 5, kind="poly3").link,
                    cache=linear_cache_costs(rng.uniform(0.1, 1.2, 5)),
                )
                nh = {(i, 0): i + 1 for i in range(4)}
                free = [(0, i) for i in range(4)]
            out.append((FixedRoutingInstance(top, dem, cost, nh), free))
        return out

    def test_gcfw_quality_vs_grid_search(self):
        rng = np.random.default_rng(606)
        grid = np.round(np.arange(0.0, 1.0001, 0.05), 10)
        worst_slack = np.inf
        for inst, free in self._brute_instances(rng):
            C, V = inst.demand.num_items, inst.topology.num_nodes
            # every grid point in itertools.product order; argmax keeps the
            # first of tied maxima, as a scan for a strict improvement does
            values = np.array(list(itertools.product(grid, repeat=len(free))))
            ys = np.zeros((len(values), C, V))
            for col, (k, i) in enumerate(free):
                ys[:, k, i] = values[:, col]
            best_y = ys[np.argmax(batch_gains(inst, ys))]
            star = eval_gain(inst, best_y)
            res = gcfw(inst, 1000)
            t0 = inst.baseline_cost()
            bound = 0.5 * star.A - star.B - 0.05 * t0
            worst_slack = min(worst_slack, res.gain.G - bound)
        ok = worst_slack >= 0.0
        report(6, "GCFW half-approximation vs exhaustive search", ok,
               f"min slack over 20 instances: {worst_slack:.4f}")


class TestCriterion7:
    def test_gp_convergence_static(self, grid25, grid25_gp_static):
        from cachenet.flow import validate_strategy

        traj = grid25_gp_static
        costs = [r.total_cost for r in traj.records]
        descent = all(b <= a + 1e-9 for a, b in zip(costs[1:], costs[2:]))
        loopfree = all(r.loop_free for r in traj.records)
        residual = traj.records[-1].residual
        conserved = validate_strategy(
            grid25.topology, grid25.demand, traj.strategy
        ).passed
        ok = (descent and loopfree and traj.converged and residual <= 1e-4
              and conserved)
        report(7, "GP convergence on grid-25 (static sets)", ok,
               f"periods={len(traj.records)} residual={residual:.3g} "
               f"descent={descent} loop-free={loopfree} conserved={conserved}")

    def test_gp_descent_dynamic(self, grid25):
        traj = run_gp(
            grid25.topology, grid25.demand, grid25.cost,
            GPConfig(alpha=0.01, max_periods=3000, tol=1e-4,
                     blocked_mode="dynamic"),
        )
        costs = [r.total_cost for r in traj.records]
        descent = all(b <= a + 1e-9 for a, b in zip(costs[1:], costs[2:]))
        loopfree = all(r.loop_free for r in traj.records)
        ok = descent and loopfree
        report(7, "GP descent + loop-freeness (dynamic sets)", ok,
               f"periods={len(traj.records)} terminal={costs[-1]:.2f} "
               f"descent={descent} loop-free={loopfree}")


class TestCriterion8:
    def test_gp_beats_gcfw_sp(self):
        strict = 0
        details = []
        for seed in range(1, 6):
            scen = generate_scenario(TABLE_PRESETS["grid-25"], seed=seed)
            traj = run_gp(
                scen.topology, scen.demand, scen.cost,
                GPConfig(alpha=0.01, max_periods=4000, tol=1e-4),
            )
            nh = sp_next_hops(scen.topology, scen.demand, scen.cost)
            inst = FixedRoutingInstance(scen.topology, scen.demand, scen.cost, nh)
            res = gcfw(inst, 100)
            t_gcfw = inst.baseline_cost() - res.gain.G
            if not traj.final_cost <= t_gcfw + 1e-9:
                report(8, "GP vs GCFW+SP ordering", False,
                       f"seed {seed}: GP={traj.final_cost:.2f} > {t_gcfw:.2f}")
            if traj.final_cost < t_gcfw - 1e-6:
                strict += 1
            details.append(f"{traj.final_cost:.1f}<{t_gcfw:.1f}")
        ok = strict >= 4
        report(8, "GP vs GCFW+SP ordering", ok,
               f"strict wins {strict}/5: " + " ".join(details))


class TestCriterion9:
    def test_measured_vs_theoretical(self, grid25, grid25_gp_static):
        strat = grid25_gp_static.strategy
        theo = solve_traffic(
            grid25.topology, grid25.demand, strat, grid25.cost
        ).total_cost
        sched = SimSchedule(t_slot=10.0, slots_per_period=2, periods=100)
        run = run_simulation(grid25, FrozenStrategyPolicy(strat), sched, seed=42)
        skip = 0.1
        measured = run.steady_state_mean(skip_fraction=skip)
        n_mc = 2000
        mean, std = mc_measured_cost_model(
            grid25, strat, sched.t_monitor, n_samples=n_mc, seed=7
        )
        n_used = int((1 - skip) * len(run.records))
        band = 3 * std * (1 / np.sqrt(n_used) + 1 / np.sqrt(n_mc))
        within_theory = abs(measured - theo) <= 0.15 * theo
        within_mc = abs(measured - mean) <= band
        ok = within_theory and within_mc and len(run.records) >= 100
        report(9, "packet-level cost tracks the flow model", ok,
               f"measured={measured:.2f} theoretical={theo:.2f} "
               f"({100 * (measured / theo - 1):+.1f}%), mc={mean:.2f}+-{band:.2f}")


class TestCriterion10:
    def test_cache_price_tradeoff(self):
        spec = ScenarioSpec("grid", (5, 5), 30, 100, 1.0, (1, 5), (0.1, 0.1),
                            (10, 10), link_cost_kind="linear")
        scen = generate_scenario(spec, seed=1)
        sizes = []
        for b in (2, 5, 10, 20, 40):
            priced = reprice_caches(scen, b)
            traj = run_gp(
                priced.topology, priced.demand, priced.cost,
                GPConfig(alpha=0.01, max_periods=3000, tol=1e-4),
            )
            sizes.append(float(traj.strategy.y.sum()))
        monotone = all(b <= a + 1e-9 for a, b in zip(sizes, sizes[1:]))
        ok = monotone and sizes[-1] <= 1e-9
        report(10, "cache-size vs cache-price tradeoff", ok,
               "sizes " + " ".join(f"{s:.3f}" for s in sizes))


class TestCriterion11:
    def test_load_sweep_resilience(self):
        base = generate_scenario(TABLE_PRESETS["grid-25"], seed=2)
        results = []
        ok = True
        for f in (1.0, 1.5, 2.0):
            scen = scale_rates(base, f)
            traj = run_gp(
                scen.topology, scen.demand, scen.cost,
                GPConfig(alpha=0.01, max_periods=2500, tol=1e-4),
            )
            cg, _, _ = flow_costgreedy(scen, max_steps=400)
            ok = ok and traj.final_cost <= cg + 1e-9
            results.append(f"x{f}: {traj.final_cost:.1f}<={cg:.1f}")
        report(11, "load-sweep resilience vs CostGreedy", ok, " ".join(results))


class TestCriterion12:
    def test_message_accounting(self, grid25):
        traj = run_gp(
            grid25.topology, grid25.demand, grid25.cost,
            GPConfig(alpha=0.01, max_periods=5, tol=1e-12),
        )
        expected = grid25.demand.num_items * grid25.topology.num_links
        ok = all(r.messages == expected for r in traj.records)

        # and on a second scenario shape for good measure
        scen = generate_scenario(
            ScenarioSpec("full-tree", (2, 4), catalog=5, requests=8), seed=3
        )
        traj2 = run_gp(scen.topology, scen.demand, scen.cost,
                       GPConfig(max_periods=3, tol=1e-12))
        expected2 = scen.demand.num_items * scen.topology.num_links
        ok = ok and all(r.messages == expected2 for r in traj2.records)
        report(12, "broadcast message accounting |C|*|E|", ok,
               f"grid-25: {expected}/update slot; tree: {expected2}")

"""The benchmark's three workloads, their output checks and their metrics.

Every workload builds its inputs from ``scenarios.TABLE_PRESETS`` and the
seed it is given, calls cachenet only through its public functions (looked
up as module attributes, so the tracer's wrappers see the calls), and counts
one operation per ``run_gp`` call, ``gcfw`` call or simulated request.

A workload runs in *units* of fixed work (a GP solve, a GP run of a fixed
period budget, a GCFW call, a simulation).  It either repeats units while
the next one is expected to end within its time budget (at least one), or,
given the unit counts of an earlier pass, repeats exactly that work; the
traced run uses the second form so that its outputs can be compared with an
untraced pass bit for bit.

Timings are taken as many short samples (a few GP periods, one GCFW
iteration, one simulated period).  The shared machines this was written on
spend most of their time in a slow state and now and then run up to 1.6x
faster, for seconds to tens of seconds at a time.  The gated timings use the
90th percentile of the samples: it stays on the majority state whenever a
run sees a little of it, so it repeats from run to run better than the
median or the 10th percentile, which the record also keeps.
"""

from __future__ import annotations

import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace

import cachenet.fixedroute as fixedroute
import cachenet.flow as flow
import cachenet.gp as gp
import cachenet.policies as policies
import cachenet.scenarios as scenarios
import cachenet.sim as sim

SETUP_REPEATS = 5          # set-ups at the start of a run, at least, and
SETUP_MIN_S = 0.25         # for at least this long; one more before each unit
INSTANCE_STRIDE = 1000     # grid25-gp-dynamic instance j uses seed + j*stride
GP_SHARE = 0.6             # grid100-gp-gcfw: share of the time budget for GP


@dataclass(frozen=True)
class Budget:
    """Work per unit.  The defaults define the workloads; the self-test
    shrinks them."""

    dyn_tol: float = 1e-4
    dyn_period_cap: int = 20000
    dyn_chunk: int = 25
    g100_periods: int = 90
    g100_chunk: int = 3
    gcfw_n: int = 100
    sim_periods: int = 20


def high(samples):
    """90th percentile (nearest rank); NaN when every unit failed."""
    return sorted(samples)[(len(samples) * 9) // 10] if samples else float("nan")


def spread(samples):
    """Sample count, 10th percentile, median and 90th percentile."""
    s = sorted(samples)
    return {"n": len(s), "p10": s[len(s) // 10], "median": statistics.median(s),
            "p90": high(s)}


class Run:
    """Samples, operation counts, output checks and per-unit outputs."""

    def __init__(self):
        self.setup_s = []
        self.ops = 0
        self.failed = 0
        self.failures = []
        self.units = {}
        self.unit_start = {}
        self.gp_periods_run = 0     # over every GP call, complete or not
        self.outputs = []       # per-unit results that must repeat exactly
        self.samples = {}       # timing samples, by name
        self.values = {}        # per-unit and per-run figures, by name

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def value(self, name, value):
        self.values.setdefault(name, []).append(value)

    def timed_setup(self, build, repeats=SETUP_REPEATS, min_s=SETUP_MIN_S):
        """Build the inputs repeatedly, sampling set-up time; returns the
        last build (every build of one seed is the same)."""
        spent, n = 0.0, 0
        while n < repeats or spent < min_s:
            t0 = time.perf_counter()
            result = build()
            dt = time.perf_counter() - t0
            self.setup_s.append(dt)
            spent += dt
            n += 1
        return result

    def next_unit(self, unit, units, deadline):
        """Index of the next unit, or None when the run is done: given
        ``units``, after that many; otherwise when one more unit of the mean
        length so far would end after ``deadline`` (at least one unit)."""
        done = self.units.get(unit, 0)
        now = time.perf_counter()
        if units is not None:
            more = done < units.get(unit, 0)
        elif done == 0:
            self.unit_start[unit] = now
            more = True
        else:
            mean = (now - self.unit_start[unit]) / done
            more = now + mean <= deadline
        if not more:
            return None
        self.units[unit] = done + 1
        return done

    def check(self, ok, what, failures=1):
        """Count ``failures`` failed operations if an output check fails."""
        if not ok:
            self.failed += failures
            self.failures.append(what)

    def op(self, fn):
        """One operation; an exception counts it as failed."""
        self.ops += 1
        try:
            return fn()
        except Exception:  # the run must go on and report the failure
            self.failed += 1
            self.failures.append(traceback.format_exc(limit=4))
            return None

    def summary(self):
        """Per-unit figures (median over units) and timing sample spreads."""
        out = {name: statistics.median(v) for name, v in self.values.items()}
        out["setup_s"] = statistics.median(self.setup_s)
        out["timings"] = {name: spread(s) for name, s in self.samples.items()}
        return out


def _intervals(stamps, end):
    return [b - a for a, b in zip(stamps, stamps[1:] + [end])]


@contextmanager
def _iteration_clock(module, name, stamps):
    """Time-stamp each call of ``module.name``, the function a GCFW
    iteration calls once, so that each iteration becomes a wall-time sample.
    One ``perf_counter`` per iteration; nothing happens if the name is gone.
    """
    original = getattr(module, name, None)
    if original is None:
        yield
        return

    def clocked(*args, **kwargs):
        stamps.append(time.perf_counter())
        return original(*args, **kwargs)

    setattr(module, name, clocked)
    try:
        yield
    finally:
        setattr(module, name, original)


# -- output checks ------------------------------------------------------------


def _check_gp(run, scen, traj, tol, require_converged):
    top, dem = scen.topology, scen.demand
    recs = traj.records
    run.check(flow.validate_strategy(top, dem, traj.strategy).passed,
              "final GP strategy fails validate_strategy")
    run.check(all(r.loop_free for r in recs), "routing loop in a period")
    run.check(recs[-1].total_cost <= recs[0].total_cost,
              "final cost above the period-0 cost")
    if require_converged:
        run.check(traj.converged, "GP did not converge within its cap")
    if traj.converged:
        run.check(recs[-1].residual <= tol, "converged with residual > tol")


def _check_gcfw(run, scen, res):
    dem = scen.demand
    y = res.y
    run.check(bool(((y >= 0.0) & (y <= 1.0)).all()), "GCFW y outside [0,1]")
    run.check(not any(y[k, s] for k in range(dem.num_items)
                      for s in dem.servers[k]),
              "GCFW caches at a designated server")
    run.check(res.gain.G >= 0.0, "GCFW gain below 0")


def _check_sim(run, scen, result):
    """Every issued request is delivered or still in flight, none is
    unroutable; each request that is not counts as a failed operation."""
    lost = result.requests_issued - result.responses_delivered - result.in_flight
    run.ops += result.requests_issued - 1   # run.op counted the call
    run.check(lost == 0, f"{lost} requests neither delivered nor in flight",
              failures=abs(lost))
    run.check(result.unroutable_total == 0,
              f"{result.unroutable_total} unroutable requests",
              failures=result.unroutable_total)
    run.check(flow.validate_strategy(scen.topology, scen.demand,
                                     result.policy.strategy).passed,
              "online GP strategy fails validate_strategy")


# -- workloads ------------------------------------------------------------------


class GPRun:
    """One GP run made of consecutive ``run_gp`` calls, each starting from
    the strategy the previous call left.  The schedule is synchronous, so
    the trajectory is the one a single call would take; each call is one
    sample of wall time per period."""

    def __init__(self, scen, cfg, start):
        self.scen, self.cfg, self.strategy = scen, cfg, start
        self.records, self.wall, self.traj = [], 0.0, None

    @property
    def converged(self):
        return self.traj is not None and self.traj.converged

    def step(self, run, periods):
        """One ``run_gp`` call of ``periods`` periods; False after an
        exception (counted as a failed operation)."""
        cfg = replace(self.cfg, max_periods=periods)
        scen = self.scen
        t0 = time.perf_counter()
        traj = run.op(lambda: gp.run_gp(scen.topology, scen.demand, scen.cost,
                                        cfg, initial_strategy=self.strategy))
        dt = time.perf_counter() - t0
        if traj is None:
            return False
        self.wall += dt
        run.gp_periods_run += len(traj.records)
        self.records += traj.records
        self.strategy, self.traj = traj.strategy, traj
        run.sample("gp_period_ms", dt / len(traj.records) * 1e3)
        return True

    def trajectory(self):
        """The whole run as one GPTrajectory."""
        self.traj.records = self.records
        return self.traj

    def record(self, run):
        run.value("gp_s", self.wall)
        run.value("gp_periods", len(self.records))
        run.value("gp_final_cost", self.records[-1].total_cost)


def _gp_run(run, scen, cfg, start, periods, chunk):
    """A GP run of ``periods`` periods (fewer if it converges) in calls of
    ``chunk`` periods; returns its trajectory, or None after an exception."""
    gp_run = GPRun(scen, cfg, start)
    while len(gp_run.records) < periods and not gp_run.converged:
        if not gp_run.step(run, min(chunk, periods - len(gp_run.records))):
            return None
    gp_run.record(run)
    return gp_run.trajectory()


def grid25_gp_dynamic(seed, seconds, budget, units=None):
    """run_gp to tol with dynamic blocked sets on successive grid-25
    instances (seed, seed + stride, ...), one ``run_gp`` call of a few
    periods at a time until the time budget is spent.  A solve the budget
    cuts short is recorded as incomplete, not as failed; time to tol and
    periods to tol come from the completed solves."""
    run = Run()
    deadline = time.perf_counter() + seconds
    cfg = gp.GPConfig(alpha=0.05, blocked_mode="dynamic", schedule="synchronous",
                      tol=budget.dyn_tol)
    solve, instance = None, 0

    def close(solve, complete):
        traj = solve.trajectory()
        _check_gp(run, solve.scen, traj, cfg.tol, require_converged=complete)
        run.outputs.append(("gp" if complete else "gp-incomplete",
                            inst_seed, len(traj.records), traj.final_cost))
        if complete:
            solve.record(run)

    while run.next_unit("call", units, deadline) is not None:
        if solve is None:
            inst_seed = seed + INSTANCE_STRIDE * instance
            instance += 1

            def build():
                scen = scenarios.generate_scenario(
                    scenarios.TABLE_PRESETS["grid-25"], inst_seed)
                return scen, gp.shortest_path_strategy(
                    scen.topology, scen.demand, scen.cost)

            scen, start = run.timed_setup(build)
            solve = GPRun(scen, cfg, start)
        if not solve.step(run, budget.dyn_chunk):
            solve = None
            continue
        if solve.converged or len(solve.records) >= budget.dyn_period_cap:
            close(solve, complete=True)
            solve = None
    if solve is not None:
        close(solve, complete=False)
    period_ms = high(run.samples["gp_period_ms"])
    run.value("gp_ms_per_period", period_ms)
    # the GP period is this workload's unit of work
    run.value("throughput_per_s", 1e3 / period_ms)
    return run


def grid100_gp_gcfw(seed, seconds, budget, units=None):
    """GP runs of a fixed period budget (static blocked sets) on grid-100
    for part of the time budget, then gcfw over the shortest-path next hops
    for the rest."""
    run = Run()
    t_start = time.perf_counter()
    gp_deadline = t_start + GP_SHARE * seconds
    deadline = t_start + seconds

    def build():
        scen = scenarios.generate_scenario(
            scenarios.TABLE_PRESETS["grid-100"], seed)
        top, dem, cost = scen.topology, scen.demand, scen.cost
        start = gp.shortest_path_strategy(top, dem, cost)
        inst = fixedroute.FixedRoutingInstance(
            top, dem, cost, gp.sp_next_hops(top, dem, cost))
        return scen, start, inst

    scen, start, inst = run.timed_setup(build)
    cfg = gp.GPConfig(alpha=0.01, blocked_mode="static", schedule="synchronous",
                      tol=1e-4)
    while run.next_unit("gp", units, gp_deadline) is not None:
        traj = _gp_run(run, scen, cfg, start, budget.g100_periods,
                       budget.g100_chunk)
        if traj is None:
            continue
        _check_gp(run, scen, traj, cfg.tol, require_converged=False)
        run.outputs.append(("gp", len(traj.records), traj.final_cost))
        run.timed_setup(build, repeats=1, min_s=0.0)

    while run.next_unit("gcfw", units, deadline) is not None:
        stamps = []
        with _iteration_clock(fixedroute, "grad_gain", stamps):
            t0 = time.perf_counter()
            res = run.op(lambda: fixedroute.gcfw(inst, budget.gcfw_n))
            t1 = time.perf_counter()
        if res is None:
            continue
        _check_gcfw(run, scen, res)
        run.value("gcfw_s", t1 - t0)
        run.value("gcfw_gain", res.gain.G)
        run.outputs.append(("gcfw", res.gain.G, res.best_iter))
        if len(stamps) == budget.gcfw_n:
            for dt in _intervals(stamps, t1):
                run.sample("gcfw_iter_ms", dt * 1e3)
        else:  # iterations no longer visible: whole-call mean
            run.sample("gcfw_iter_ms", (t1 - t0) / budget.gcfw_n * 1e3)
        run.timed_setup(build, repeats=1, min_s=0.0)
    run.value("gp_ms_per_period", high(run.samples["gp_period_ms"]))
    run.value("throughput_per_s", 1e3 / high(run.samples["gcfw_iter_ms"]))
    return run


def grid25_sim_gp(seed, seconds, budget, units=None):
    """Packet-level simulation of grid-25 under the online GP policy.

    The policy's hooks time each simulated period (slot 0 to the next slot
    0, the online GP update included) and each update; requests/s is the
    mean number of requests issued per period over the 90th-percentile
    period wall time.
    """
    run = Run()
    deadline = time.perf_counter() + seconds
    schedule = sim.SimSchedule(t_slot=10.0, slots_per_period=2,
                               periods=budget.sim_periods)

    def build():
        return scenarios.generate_scenario(
            scenarios.TABLE_PRESETS["grid-25"], seed)

    scen = run.timed_setup(build)

    def simulate():
        policy = policies.make_policy("gp", alpha=0.01)
        on_slot, on_update = policy.on_slot, policy.on_update
        starts = []

        def timed_slot(period, slot):
            if slot == 0:
                starts.append(time.perf_counter())
            return on_slot(period, slot)

        def timed_update(*args, **kwargs):
            t0 = time.perf_counter()
            result = on_update(*args, **kwargs)
            run.sample("online_update_ms", (time.perf_counter() - t0) * 1e3)
            return result

        policy.on_slot, policy.on_update = timed_slot, timed_update
        result = sim.run_simulation(scen, policy, schedule, seed)
        # complete periods only: the last one ends with the run's teardown
        for dt in _intervals(starts[:-1], starts[-1]):
            run.sample("sim_period_ms", dt * 1e3)
        return result

    issued = 0
    while run.next_unit("sim", units, deadline) is not None:
        t0 = time.perf_counter()
        result = run.op(simulate)
        dt = time.perf_counter() - t0
        if result is None:
            continue
        _check_sim(run, scen, result)
        issued += result.requests_issued
        run.value("sim_req_per_s", result.requests_issued / dt)
        run.outputs.append(("sim", result.requests_issued,
                            result.responses_delivered,
                            result.records[-1].measured_total))
        run.timed_setup(build, repeats=1, min_s=0.0)
    per_period = issued / (run.units["sim"] * budget.sim_periods)
    run.value("gp_ms_per_period", high(run.samples["online_update_ms"]))
    run.value("throughput_per_s",
              per_period / high(run.samples["sim_period_ms"]) * 1e3)
    return run


WORKLOADS = {
    "grid25-gp-dynamic": grid25_gp_dynamic,
    "grid100-gp-gcfw": grid100_gp_gcfw,
    "grid25-sim-gp": grid25_sim_gp,
}


def trace_identities(name, tracer, run, budget):
    """Call-count identities that a correct trace must satisfy.

    Returns {identity: bool}; an identity over an absent layer is skipped.
    """
    calls = tracer.calls
    absent = set(tracer.absent)
    periods = run.gp_periods_run
    checks = {}

    def expect(label, layers, value):
        if absent.intersection(layers):
            return
        checks[label] = all(calls(layer) == value for layer in layers)

    if name == "grid25-gp-dynamic":
        expect("solve_traffic == compute_marginals == dynamic_blocked_sets"
               " == gp_periods",
               ("flow.solve_traffic", "marginals.compute_marginals",
                "blocking.dynamic_blocked_sets"), periods)
    elif name == "grid100-gp-gcfw":
        n_gcfw = run.units.get("gcfw", 0)
        expect("grad_gain == N per gcfw call", ("fixedroute.grad_gain",),
               budget.gcfw_n * n_gcfw)
        expect("eval_gain == N+1 per gcfw call", ("fixedroute.eval_gain",),
               (budget.gcfw_n + 1) * n_gcfw)
        expect("solve_traffic == compute_marginals == gp_periods",
               ("flow.solve_traffic", "marginals.compute_marginals"), periods)
    else:
        expect("on_update == periods - 1 per simulation",
               ("policies.GPOnlinePolicy.on_update",),
               (budget.sim_periods - 1) * run.units.get("sim", 0))
    return checks

"""Experiment orchestration CLI.

Generates or loads a scenario, runs the selected optimizer or baseline
(flow-level by default, packet-level with --simulate), and writes per-period
CSV plus a summary record.  Sweep modes rerun the experiment over scaled
request loads or cache prices and collect one summary row per point.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import sys

import numpy as np

from .errors import CacheNetError, ConfigurationError
from .fixedroute import FixedRoutingInstance, gcfw
from .gp import GPConfig, run_gp, sp_next_hops
from .network import CostModel, Demand, Scenario, linear_cache_costs
from .policies import flow_costgreedy, make_policy
from .scenarios import ScenarioSpec, generate_scenario, load_scenario
from .sim import SimSchedule, run_simulation

FMT = "%.9g"


def fnum(x):
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return "nan"
    return FMT % x


# argument types: argparse turns their ValueError into an error line, exit 2
def parse_list(text):
    values = [float(x) for x in text.split(",") if x.strip()]
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite number in {text!r}")
    return values


def parse_range(text):
    lo_hi = tuple(parse_list(text))
    if len(lo_hi) != 2 or lo_hi[0] > lo_hi[1]:
        raise ValueError(f"not LOW,HIGH with LOW <= HIGH: {text!r}")
    return lo_hi


def finite_float(text):
    (value,) = parse_list(text)
    return value


def probability(text):
    value = finite_float(text)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"not in (0, 1]: {text!r}")
    return value


def non_negative_int(text):
    value = int(text)
    if value < 0:
        raise ValueError(f"negative: {text!r}")
    return value


def positive_int(text):
    value = int(text)
    if value < 1:
        raise ValueError(f"not >= 1: {text!r}")
    return value


def parse_size(text):
    if "x" in text:
        a, b = text.split("x")
        return (int(a), int(b))
    parts = [int(x) for x in text.split(",")]
    return tuple(parts) if len(parts) > 1 else (parts[0],)


def build_parser():
    p = argparse.ArgumentParser(
        prog="cachenet",
        description="Cache-network optimization and packet-level simulation",
    )
    g = p.add_argument_group("scenario")
    g.add_argument("--topology", default="grid",
                   choices=["grid", "full-tree", "fog", "er", "small-world", "file"])
    g.add_argument("--size", default="5x5", type=parse_size,
                   help="grid WxH, tree ARITY,DEPTH, or node count")
    g.add_argument("--topology-file", default="",
                   help="path for --topology file")
    g.add_argument("--scenario-file", default="",
                   help="load a full scenario document instead of generating")
    g.add_argument("--catalog", type=positive_int, default=30)
    g.add_argument("--requests", type=non_negative_int, default=100)
    g.add_argument("--zipf", type=finite_float, default=1.0)
    g.add_argument("--rate-range", default="1,5", type=parse_range)
    g.add_argument("--link-cost-range", default="0.1,0.1", type=parse_range)
    g.add_argument("--cache-price", type=finite_float, default=None,
                   help="uniform unit cache price (overrides the range)")
    g.add_argument("--cache-price-range", default="10,10", type=parse_range)
    g.add_argument("--link-cost", default="poly3", choices=["poly3", "linear"])
    g.add_argument("--er-p", type=probability, default=0.07)

    a = p.add_argument_group("algorithm")
    a.add_argument("--algorithm", default="gp",
                   choices=["gp", "gcfw", "sp-lru", "sp-lfu", "uniform",
                            "mincost", "costgreedy"])
    a.add_argument("--blocked", default="static", choices=["static", "dynamic"])
    a.add_argument("--alpha", type=float, default=0.01)
    a.add_argument("--N", type=int, default=100, help="GCFW iteration count")
    a.add_argument("--periods", type=int, default=2000)
    a.add_argument("--tol", type=float, default=1e-4)
    a.add_argument("--capacity", type=non_negative_int, default=1,
                   help="cache capacity for sp-lru / sp-lfu")
    a.add_argument("--eviction", default="lru", choices=["lru", "lfu"],
                   help="content placement for uniform / mincost deployment")

    s = p.add_argument_group("simulation")
    s.add_argument("--simulate", action="store_true",
                   help="run the packet-level simulator instead of flow-level")
    s.add_argument("--slot-duration", type=float, default=10.0)
    s.add_argument("--slots-per-period", type=int, default=20)
    s.add_argument("--trace", default="", help="write an event trace to this file")

    r = p.add_argument_group("run")
    r.add_argument("--seed", type=non_negative_int, default=1)
    r.add_argument("--sweep-load", default="", type=parse_list,
                   help="comma list of request-rate scale factors")
    r.add_argument("--sweep-cache-price", default="", type=parse_list,
                   help="comma list of uniform unit cache prices")
    r.add_argument("--jobs", type=positive_int, default=1,
                   help="parallel workers for sweep points")
    r.add_argument("--out", default="run", help="output file prefix")
    return p


def make_scenario(args):
    if args.scenario_file:
        return load_scenario(args.scenario_file)
    if args.topology == "file":
        if not args.topology_file:
            raise ConfigurationError("--topology file needs --topology-file")
        spec = ScenarioSpec(
            "file", (), args.catalog, args.requests, args.zipf,
            args.rate_range, (0, 0), (0, 0),
            link_cost_kind=args.link_cost, path=args.topology_file,
        )
        scen = generate_scenario(spec, args.seed)
        if args.cache_price is not None:
            scen = reprice_caches(scen, args.cache_price)
        return scen
    price = (
        (args.cache_price, args.cache_price)
        if args.cache_price is not None
        else args.cache_price_range
    )
    spec = ScenarioSpec(
        topology=args.topology,
        size=args.size,
        catalog=args.catalog,
        requests=args.requests,
        zipf=args.zipf,
        rate_range=args.rate_range,
        link_cost_range=args.link_cost_range,
        cache_price_range=price,
        link_cost_kind=args.link_cost,
        er_p=args.er_p,
    )
    return generate_scenario(spec, args.seed)


def scale_rates(scenario, factor):
    dem = scenario.demand
    scaled = Demand(
        dem.num_items, dem.servers, np.asarray(dem.rates) * factor
    )
    return Scenario(
        topology=scenario.topology, demand=scaled, cost=scenario.cost,
        name=scenario.name, meta=dict(scenario.meta),
    )


def reprice_caches(scenario, price):
    b = np.full(scenario.topology.num_nodes, float(price))
    cost = CostModel(link=scenario.cost.link, cache=linear_cache_costs(b))
    meta = dict(scenario.meta)
    meta["cache_b"] = b
    return Scenario(
        topology=scenario.topology, demand=scenario.demand, cost=cost,
        name=scenario.name, meta=meta,
    )


def run_flow_level(scenario, args):
    """Flow-level run; returns (period rows, summary dict)."""
    top, dem, cost = scenario.topology, scenario.demand, scenario.cost
    alg = args.algorithm
    if alg == "gp":
        traj = run_gp(top, dem, cost, GPConfig(
            alpha=args.alpha, max_periods=args.periods, tol=args.tol,
            blocked_mode=args.blocked,
        ))
        rows = [
            (r.period, r.total_cost, r.link_cost, r.cache_cost, r.residual,
             r.messages)
            for r in traj.records
        ]
        last = traj.records[-1]
        summary = {
            "final_total": last.total_cost,
            "link_cost": last.link_cost,
            "cache_cost": last.cache_cost,
            "total_cache_size": float(traj.strategy.y.sum()),
            "iterations": len(traj.records),
            "converged": int(traj.converged),
        }
        return rows, summary
    if alg == "gcfw":
        nh = sp_next_hops(top, dem, cost)
        inst = FixedRoutingInstance(top, dem, cost, nh)
        res = gcfw(inst, args.N)
        t0 = inst.baseline_cost()
        rows = [
            (n, t0 - g, float("nan"), float("nan"), float("nan"), 0)
            for n, g in enumerate(res.history)
        ]
        summary = {
            "final_total": t0 - res.gain.G,
            "link_cost": t0 - res.gain.G - res.gain.B,
            "cache_cost": res.gain.B,
            "total_cache_size": float(res.y.sum()),
            "iterations": len(res.history),
            "converged": 1,
        }
        return rows, summary
    if alg == "costgreedy":
        best, sets, costs = flow_costgreedy(scenario, max_steps=args.periods)
        rows = [
            (n, t, float("nan"), float("nan"), float("nan"), 0)
            for n, t in enumerate(costs)
        ]
        summary = {
            "final_total": best,
            "link_cost": float("nan"),
            "cache_cost": float("nan"),
            "total_cache_size": float(sum(len(s) for s in sets)),
            "iterations": len(costs),
            "converged": 1,
        }
        return rows, summary
    raise ConfigurationError(
        f"algorithm {alg!r} has no flow-level form; run with --simulate"
    )


def run_packet_level(scenario, args):
    policy = make_policy(
        args.algorithm,
        alpha=args.alpha,
        blocked_mode=args.blocked,
        N=args.N,
        capacity=args.capacity,
        eviction=args.eviction,
    )
    sched = SimSchedule(
        t_slot=args.slot_duration,
        slots_per_period=args.slots_per_period,
        periods=args.periods,
    )
    trace = open(args.trace, "w", encoding="utf-8") if args.trace else None
    try:
        run = run_simulation(scenario, policy, sched, seed=args.seed,
                             trace=trace)
    finally:
        if trace is not None:
            trace.close()
    rows = [
        (r.period, r.slot, r.measured_link_cost, r.measured_cache_cost,
         r.measured_total, r.theoretical_total, r.total_cache_size,
         r.unroutable, r.messages)
        for r in run.records
    ]
    tail = run.records[max(0, len(run.records) // 2):]
    summary = {
        "final_total": float(np.mean([r.measured_total for r in tail])),
        "link_cost": float(np.mean([r.measured_link_cost for r in tail])),
        "cache_cost": float(np.mean([r.measured_cache_cost for r in tail])),
        "total_cache_size": float(np.mean([r.total_cache_size for r in tail])),
        "iterations": len(run.records),
        "converged": 1,
    }
    return rows, summary


FLOW_HEADER = "period,total_cost,link_cost,cache_cost,residual,messages"
SIM_HEADER = ("period,slot,measured_link_cost,measured_cache_cost,"
              "measured_total,theoretical_total,total_cache_size,"
              "unroutable_count,messages")


def write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(
                str(v) if isinstance(v, int) else fnum(v) for v in row
            ) + "\n")


def write_summary(path, entries):
    cols = ["label", "final_total", "link_cost", "cache_cost",
            "total_cache_size", "iterations", "converged"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for label, s in entries:
            fh.write(",".join(
                [str(label)]
                + [
                    str(s[c]) if isinstance(s[c], int) else fnum(s[c])
                    for c in cols[1:]
                ]
            ) + "\n")


def _run_point(scenario, args):
    if args.simulate:
        return run_packet_level(scenario, args)
    return run_flow_level(scenario, args)


def _sweep_worker(payload):
    label, scenario, args = payload
    rows, summary = _run_point(scenario, args)
    return label, rows, summary


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        scenario = make_scenario(args)
        sweeps = []
        if args.sweep_load and args.sweep_cache_price:
            raise ConfigurationError("choose one sweep mode at a time")
        if args.sweep_load:
            for f in args.sweep_load:
                sweeps.append((f, scale_rates(scenario, f)))
        elif args.sweep_cache_price:
            for price in args.sweep_cache_price:
                sweeps.append((price, reprice_caches(scenario, price)))

        header = SIM_HEADER if args.simulate else FLOW_HEADER
        if not sweeps:
            rows, summary = _run_point(scenario, args)
            write_rows(f"{args.out}.csv", header, rows)
            write_summary(f"{args.out}_summary.csv", [("run", summary)])
        else:
            payloads = [(label, scen, args) for label, scen in sweeps]
            if args.jobs > 1:
                with concurrent.futures.ProcessPoolExecutor(args.jobs) as ex:
                    results = list(ex.map(_sweep_worker, payloads))
            else:
                results = [_sweep_worker(p) for p in payloads]
            entries = []
            for label, rows, summary in results:
                write_rows(f"{args.out}_{fnum(label)}.csv", header, rows)
                entries.append((fnum(label), summary))
            write_summary(f"{args.out}_summary.csv", entries)
    except (CacheNetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

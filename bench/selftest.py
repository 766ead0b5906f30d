"""Self-test of the benchmark with tiny work budgets.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json on seeds 1-3, untraced and traced, in
this process with budgets small enough to finish in about a minute, and
checks that:

- every metric BENCHMARK.json names is emitted, with its unit, as a finite
  number, and no other metric is;
- every output check holds (``correct``, no failed operation);
- the traced run's call-count identities hold and its optimizer outputs
  equal the untraced pass's exactly;
- a GP run made of chunked ``run_gp`` calls is the single call's trajectory.

Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import math
import sys

import run_bench

TINY = dict(dyn_tol=0.05, dyn_period_cap=400, dyn_chunk=400, g100_periods=4,
            g100_chunk=3, gcfw_n=3, sim_periods=3)
SEEDS = (1, 2, 3)


def check_workloads(spec, workloads, problems):
    budget = workloads.Budget(**TINY)
    for wl in spec["workloads"]:
        name = wl["name"]
        for seed in SEEDS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                where = f"{name} seed {seed} trace {trace}"
                record, result = run_bench.run_one(name, seed, 0.01, trace,
                                                   budget)
                if not result["correct"] or result["failed"]:
                    problems.append(f"{where}: output checks failed: "
                                    f"{record['failures']}")
                want = {m["name"]: m["unit"] for m in spec[group]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    problems.append(f"{where}: metrics differ from "
                                    f"BENCHMARK.json: {sorted(set(got) ^ set(want))}"
                                    f" or units differ")
                bad = [k for k, v in result["metrics"].items()
                       if not isinstance(v["value"], (int, float))
                       or not math.isfinite(v["value"])]
                if bad:
                    problems.append(f"{where}: non-finite metrics {bad}")
                if name == "grid25-gp-dynamic" and not record["summary"].get(
                        "gp_periods"):
                    problems.append(f"{where}: no GP solve reached tol")
                if trace:
                    ids = record["identities"]
                    if not ids or not all(ids.values()):
                        problems.append(f"{where}: identities {ids}")
                    if not record["outputs_equal"]:
                        problems.append(f"{where}: traced outputs differ")
                    if record["absent_layers"] or record["observer_errors"]:
                        problems.append(f"{where}: absent layers "
                                        f"{record['absent_layers']}, observer "
                                        f"errors {record['observer_errors']}")
            print(f"ok  {name} seed {seed}", flush=True)


def check_chunking(workloads, problems):
    import cachenet.gp as gp
    import cachenet.scenarios as scenarios

    scen = scenarios.generate_scenario(scenarios.TABLE_PRESETS["grid-25"], 1)
    top, dem, cost = scen.topology, scen.demand, scen.cost
    start = gp.shortest_path_strategy(top, dem, cost)
    cfg = gp.GPConfig(alpha=0.05, blocked_mode="dynamic", tol=1e-4,
                      max_periods=30)
    whole = gp.run_gp(top, dem, cost, cfg, initial_strategy=start)
    chunked = workloads._gp_run(workloads.Run(), scen, cfg, start, 30, 7)
    same = (
        [r.total_cost for r in whole.records]
        == [r.total_cost for r in chunked.records]
        and (whole.strategy.phi == chunked.strategy.phi).all()
        and (whole.strategy.y == chunked.strategy.y).all()
    )
    if not same:
        problems.append("chunked GP run differs from one run_gp call")
    print("ok  chunked GP run == one run_gp call" if same else
          "FAIL chunked GP run", flush=True)


def main():
    run_bench._import_cachenet()
    import workloads

    spec = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())
    problems = []
    check_chunking(workloads, problems)
    check_workloads(spec, workloads, problems)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""cachenet benchmark: one workload per process, end-to-end or traced.

    python3 bench/run_bench.py --workload grid25-gp-dynamic --seed 1 \
        --seconds 25 --trace 0
    python3 bench/run_bench.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` first runs the workload untraced for half the time budget,
then repeats exactly the same work with every layer wrapped, and reports the
per-layer metrics, the tracing overhead (traced / untraced wall time) and
whether the call-count identities and the optimizer outputs held.
``--workload all`` runs each workload in its own fresh process and prints
every end-to-end metric in one table.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
full record (environment, every sample, output checks).  Both are also
written under ``.bench_results/`` together with the spans of a traced run.
The exit code is 0 only if every output check held; it is 2, with no result
printed, when the checkout lacks ``src/cachenet``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread unless the caller says otherwise: the program is measured
# single-threaded, and idle BLAS threads spinning on the other cores of a
# small shared machine would make its timings depend on its neighbours.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

# end-to-end metrics and their units, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "gp_ms_per_period": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# every figure of a run's summary, gated or not, for the --workload all table
RECORD_UNITS = {
    **END_TO_END,
    "gp_s": "s",
    "gp_periods": "count",
    "gp_final_cost": "cost",
    "gcfw_s": "s",
    "gcfw_gain": "gain",
    "sim_req_per_s": "1/s",
}


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_cachenet():
    if not (SRC / "cachenet" / "__init__.py").is_file():
        _fail(f"{SRC / 'cachenet'} not found; run from a checkout that holds "
              "the cachenet sources")
    sys.path.insert(0, str(SRC))
    import cachenet

    if Path(cachenet.__file__).resolve().parent != SRC / "cachenet":
        _fail(f"imported cachenet from {cachenet.__file__}, not from {SRC}")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed):
    """What a reader needs to tell machine drift from a program change."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")
        },
        "loadavg": os.getloadavg(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def speed_probe():
    """Median ms of a fixed pure-Python loop: recorded before and after a
    run, it shows how fast the machine was, apart from the program."""
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return sorted(times)[len(times) // 2]


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit(record, result, tag):
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{tag}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1, default=str))
    print(json.dumps(record, default=str))
    print(json.dumps(result))


def _result(correct, run, metrics):
    return {
        "correct": bool(correct),
        "attempted": max(int(run.ops), 1),
        "failed": int(run.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_one(name, seed, seconds, trace, budget=None):
    """Run one workload in this process; returns (record, result)."""
    import workloads
    from tracing import Tracer

    budget = budget or workloads.Budget()
    fn = workloads.WORKLOADS[name]
    record = {"workload": name, "seconds": seconds, "trace": trace,
              "budget": vars(budget), "environment": environment(seed),
              "speed_probe_ms_before": speed_probe()}

    if not trace:
        t0 = time.perf_counter()
        run = fn(seed, seconds, budget)
        record["wall_s"] = time.perf_counter() - t0
        summary = run.summary()
        summary["peak_rss_mb"] = _peak_rss_mb()
        correct = run.failed == 0
        metrics = {m: (summary[m], unit) for m, unit in END_TO_END.items()}
    else:
        t0 = time.perf_counter()
        plain = fn(seed, seconds / 2.0, budget)
        untraced_wall = time.perf_counter() - t0
        tracer = Tracer()
        with tracer:
            t0 = time.perf_counter()
            run = fn(seed, seconds, budget, units=dict(plain.units))
            traced_wall = time.perf_counter() - t0
        RESULTS.mkdir(exist_ok=True)
        tracer.save(RESULTS / f"{name}-seed{seed}-spans.npz")
        identities = workloads.trace_identities(name, tracer, run, budget)
        same = run.outputs == plain.outputs
        summary = run.summary()
        record.update(
            untraced_wall_s=untraced_wall, traced_wall_s=traced_wall,
            identities=identities, outputs_equal=same,
            untraced_outputs=plain.outputs,
            absent_layers=tracer.absent, observer_errors=tracer.observer_errors,
        )
        correct = (run.failed == 0 and plain.failed == 0 and same
                   and all(identities.values()))
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
        run.failures += plain.failures
        run.ops += plain.ops
        run.failed += plain.failed
    record.update(speed_probe_ms_after=speed_probe(),
                  units=run.units, summary=summary, samples=run.samples,
                  outputs=run.outputs, ops=run.ops, ops_failed=run.failed,
                  failures=run.failures)
    return record, _result(correct, run, metrics)


def run_all(seed, seconds):
    """Each workload in its own fresh process; one table of every metric."""
    rows = {}
    ok = True
    import workloads

    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            _fail(f"workload {name} exited with {proc.returncode}")
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok &= result["correct"]
        rows[name] = (record, result)
    print(f"{'workload':20s} {'metric':20s} {'value':>14s} unit")
    for name, (record, result) in rows.items():
        summary = record["summary"]
        for key, unit in RECORD_UNITS.items():
            if key in summary:
                print(f"{name:20s} {key:20s} {summary[key]:14.6g} {unit}")
        print(f"{name:20s} {'ops':20s} {result['attempted']:14d} count")
        print(f"{name:20s} {'ops_failed':20s} {result['failed']:14d} count")
    print(json.dumps({"correct": ok,
                      "workloads": {n: r for n, (_, r) in rows.items()}}))
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_cachenet()
    import workloads

    if args.workload not in (*workloads.WORKLOADS, "all"):
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    if args.workload == "all":
        return 0 if run_all(args.seed, args.seconds) else 1
    record, result = run_one(args.workload, args.seed, args.seconds, args.trace)
    _emit(record, result,
          f"{args.workload}-seed{args.seed}-trace{args.trace}")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

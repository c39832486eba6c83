"""charshift benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: prime-sweep, hidden-modulus,
field-char, cli-batch (see perfbench/README.md).  Every run starts fresh
interpreters: a few that only set up, for setup_s, and one that sets up,
runs the timed loop for S seconds and then checks the closed-form gates.
With --trace 1 an untraced and a traced interpreter each run S/2 seconds and
the per-layer metrics come from the traced one.

stdout ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
The lines before it hold the environment and the run's details.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("prime-sweep", "hidden-modulus", "field-char", "cli-batch")
SETUP_SAMPLES = 3  # set-ups timed per run, the measuring interpreter's included
STARTUP_SAMPLES = 5
TOL = 1e-9
DEADLINE_S = 170  # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

clock = time.perf_counter  # CLOCK_MONOTONIC, shared with the child processes


class BenchError(Exception):
    pass


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    return env


def worker(args, deadline, **flags):
    """Run worker.py once; its JSON plus setup_s measured from our clock."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--tiny", str(int(args.tiny))]
    for key, value in flags.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    start = clock()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {flags} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {flags} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    data["setup_s"] = data["t_ready"] - start
    return data


def declared_units(group):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[group]}


def tail(latencies):
    """(value, percentile): the highest order statistic with ten samples
    beyond it, never below the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(n - 11, n // 2)
    return ordered[idx], 100.0 * (idx + 1) / n


def failures_of(data):
    failed_gates = [g for g in data.get("gates", []) if not g[1] <= TOL]
    attempted = len(data["latencies"]) + len(data.get("gates", []))
    failed = len(data["failures"]) + len(failed_gates)
    return attempted, min(failed, attempted), failed_gates


def end_to_end(args, deadline):
    probes = [worker(args, deadline, phase="setup", seconds=args.seconds)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    data = worker(args, deadline, phase="measure", seconds=args.seconds, trace=0, gates=1)
    lat = data["latencies"]
    tail_s, tail_pct = tail(lat)
    values = {
        "solves_per_s": statistics.median(data["epoch_rates"]),
        "solve_s.p50": statistics.median(lat),
        "solve_s.tail": tail_s,
        "setup_s": statistics.median(probes + [data["setup_s"]]),
        "peak_rss_mb": data["peak_rss_mb"],
        "coherent_queries_per_solve": data["coherent_per_solve"],
        "classical_queries_per_solve": data["classical_per_solve"],
    }
    units = declared_units("end_to_end")
    metrics = {k: (v, units[k]) for k, v in values.items()}
    attempted, failed, failed_gates = failures_of(data)
    detail = {
        "samples": len(lat), "tail_percentile": tail_pct, "epochs": len(data["epoch_rates"]),
        "window_s": data["window_s"], "setup_samples_s": probes + [data["setup_s"]],
        "error_rate": failed / attempted, "max_gate_residual": max(
            [g[1] for g in data.get("gates", [])], default=0.0),
        "failed_gates": failed_gates, "failures": data["failures"][:5],
    }
    return metrics, attempted, failed, detail


def per_layer(args, deadline):
    env = src_env()
    startup = []
    for _ in range(STARTUP_SAMPLES):
        start = clock()
        subprocess.run([sys.executable, "-c", "import charshift.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        startup.append(clock() - start)
    half = args.seconds / 2
    cli = args.workload == "cli-batch"
    plain = worker(args, deadline, phase="measure", seconds=half, trace=0, gates=0,
                   counts=0, pairs=int(cli))
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    trace_file = os.path.join(ROOT, ".perfbench", f"trace-{args.workload}-{args.seed}.json")
    traced = worker(args, deadline, phase="measure", seconds=half, trace=1, gates=1,
                    counts=0, trace_file=trace_file)
    units = declared_units("per_layer")
    values = dict(traced["per_layer"])
    gates = traced.get("gates", [])
    values["algorithms.closed_form_residual"] = max([g[1] for g in gates], default=0.0)
    values["cli.startup_s"] = statistics.median(startup)
    rate = statistics.median(plain["epoch_rates"])
    w2 = statistics.median(plain["w2_rates"]) if cli else 0.0
    values["cli.solves_per_s.w2"] = w2
    values["cli.pool_speedup"] = w2 / rate
    values["trace.overhead_ratio"] = statistics.median(traced["epoch_rates"]) / rate
    metrics = {k: (v, units[k]) for k, v in values.items()}
    attempted, failed, failed_gates = failures_of(traced)
    p_attempted, p_failed, _ = failures_of(plain)
    if cli and not plain["w2_bytes_equal"]:
        p_failed += 1
    detail = {
        "samples": len(traced["latencies"]), "window_s": traced["window_s"],
        "untraced_window_s": plain["window_s"], "trace_file": os.path.relpath(trace_file, ROOT),
        "attribution": traced["attribution"], "failed_gates": failed_gates,
        "failures": (traced["failures"] + plain["failures"])[:5],
    }
    return metrics, attempted + p_attempted, failed + p_failed, detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small instances, for the benchmark's own smoke test")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "charshift", "__init__.py")):
        print(f"error: no charshift sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = clock() + DEADLINE_S
    env = environment()
    try:
        run = per_layer if args.trace else end_to_end
        metrics, attempted, failed, detail = run(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("environment " + json.dumps(env))
    print("detail " + json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

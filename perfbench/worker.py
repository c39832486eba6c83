"""One fresh interpreter: set up a workload, time it, check it, report JSON.

run.py starts this script; it is not meant to be run by hand.  The last line
of stdout is one JSON object that run.py turns into metrics.
"""

import argparse
import json
import os
import re
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

clock = time.perf_counter  # CLOCK_MONOTONIC, shared with the parent process

SOLVERS = ("solve_slsp", "solve_sjsp", "solve_sjsp_unknown_n", "solve_sqcp")
VERIFIERS = ("verify_legendre", "verify_jacobi", "verify_field")
SYMBOLS = ("legendre", "jacobi", "is_prime")


def build(args, traced):
    classes = {"prime-sweep": workloads.PrimeSweep, "hidden-modulus": workloads.HiddenModulus,
               "field-char": workloads.FieldChar}
    if args.workload == "cli-batch":
        return workloads.CliBatch(args.seed, args.tiny, ROOT, traced=traced)
    return classes[args.workload](args.seed, args.tiny)


def timed_loop(wl, args, tracer, out):
    """Whole epochs until the next one would end past --seconds."""
    cli = isinstance(wl, workloads.CliBatch)
    # The query counts need their leading operations; per-layer runs do not.
    min_ops = wl.query_ops if args.counts else 0
    latencies, failures, epoch_rates = [], [], []
    solves = coherent = classical = q_coh = q_cls = q_solves = 0
    w2_ok = True
    start = clock()
    k = 0
    while True:
        epoch_solves, epoch_busy = solves, 0.0
        for i, inst in enumerate(wl.epoch(k)):
            rng = wl.op_rng(k, i)
            if tracer is not None:
                tracer.use("measure", wl.tag(inst))
            run = tracer.root if tracer is not None and not cli else call
            t0 = clock()
            try:
                ok, n, coh, cls = run(wl.run, inst, rng)
            except Exception:
                ok, n, coh, cls = False, 0, 0, 0
                failures.append(traceback.format_exc(limit=3))
            else:
                if not ok:
                    failures.append(f"wrong answer on {wl.tag(inst)}")
            latencies.append(clock() - t0)
            epoch_busy += latencies[-1]
            if cli and n and tracer is not None:
                tracer.merge_cli(wl.last_stderr, latencies[-1])
            if cli and n and args.pairs:
                w2_ok = wl.pair(inst, clock) and w2_ok
            solves += n
            coherent += coh
            classical += cls
            if len(latencies) <= wl.query_ops:
                q_solves, q_coh, q_cls = q_solves + n, q_coh + coh, q_cls + cls
        epoch_rates.append((solves - epoch_solves) / epoch_busy)
        k += 1
        elapsed = clock() - start
        if len(latencies) >= min_ops and elapsed * (k + 1) / k > args.seconds:
            break
    out.update(window_s=clock() - start, epoch_rates=epoch_rates, latencies=latencies,
               solves=solves, coherent=coherent, classical=classical, failures=failures,
               coherent_per_solve=q_coh / max(q_solves, 1),
               classical_per_solve=q_cls / max(q_solves, 1))
    if args.pairs:
        out.update(w2_rates=[wl.TRIALS / w for w in wl.w2_wall], w2_bytes_equal=w2_ok)


def call(fn, *args):
    return fn(*args)


def run_gates(wl, out):
    out["gates"] = []
    try:
        for label, residual in wl.gates():
            out["gates"].append([label, float(residual)])
    except Exception:
        out["failures"].append(traceback.format_exc(limit=3))


def per_layer(tracer, wl, out):
    """Per-solve figures from the measured spans; absent when a span is."""
    t = tracer.totals("measure")
    solves = max(out["solves"], 1)
    have = tracer.traced
    m = {}

    def put(key, names, field, scale=1.0):
        names = [names] if isinstance(names, str) else names
        if any(n in have for n in names):
            m[key] = sum(t.get(n, (0, 0.0, 0.0))[field] for n in names) * scale

    calls, total, self_ = 0, 1, 2
    put("algorithms.solve.self_s", [f"algorithms.{s}" for s in SOLVERS], self_, 1 / solves)
    put("algorithms.prepare_character_state.s", "algorithms.prepare_character_state", total, 1 / solves)
    put("algorithms.best_convergent_denominator.s", "algorithms.best_convergent_denominator", total, 1 / solves)
    put("algorithms.attempts", "algorithms.prepare_character_state", calls, 1 / solves)
    prep = t.get("algorithms.prepare_character_state", (0,))[0]
    accepted = t.get("algorithms.prepare_character_state.accepted", (0,))[0]
    if "algorithms.prepare_character_state" in have:
        m["algorithms.accept_ratio"] = accepted / prep if prep else 0.0
    verify = [f"algorithms.{v}" for v in VERIFIERS]
    if any(v in have for v in verify):
        tried = sum(t.get(v, (0,))[0] for v in verify)
        passed = t.get("algorithms.verify.passed", (0,))[0]
        m["algorithms.verify_pass_ratio"] = passed / tried if tried else 0.0
    put("oracles.value_query.first_s", "oracles.value_query.first", total, 1 / solves)
    put("oracles.value_query.s", "oracles.value_query", total, 1 / solves)
    put("oracles.query.calls", "oracles.query", calls, 1 / solves)
    put("oracles.query.s", "oracles.query", total, 1 / solves)
    for fn in ("qft", "qft_factor", "trace_fourier_transform", "project", "apply_phase",
               "permute_basis", "measure"):
        put(f"qsim.{fn}.s", f"qsim.{fn}", self_, 1 / solves)
    put("qsim.qft.calls", "qsim.qft", calls, 1 / solves)
    if "qsim.qft" in have:
        m["qsim.qft.points"] = t.get("qsim.qft.points", (0,))[0] / solves
    for fn in SYMBOLS + ("factor_trial",):
        put(f"number_theory.{fn}.calls", f"number_theory.{fn}", calls, 1 / solves)
    put("number_theory.symbols.s", [f"number_theory.{s}" for s in SYMBOLS], self_, 1 / solves)
    put("finite_field.quadratic_character.calls", "finite_field.quadratic_character", calls, 1 / solves)
    put("finite_field.quadratic_character.s", "finite_field.quadratic_character", self_, 1 / solves)
    put("finite_field.ff_pow.calls", "finite_field.ff_pow", calls, 1 / solves)
    setup = tracer.totals("setup")
    if "finite_field.make_field" in have:
        m["finite_field.make_field.s"] = setup.get("finite_field.make_field", (0, 0.0))[1]
    if "finite_field.quadratic_character" in have:
        # Calls made by the warm-up solve of each field, over q: the oracle
        # table and the stage's character table each take q of them.
        ratios = [b.get("finite_field.quadratic_character", (0,))[0] / int(tag[2:])
                  for (ph, tag), b in tracer.buckets.items() if ph == "setup" and tag.startswith("q=")]
        m["finite_field.quadratic_character.warmup_per_q"] = (
            sum(ratios) / len(ratios) if ratios else 0.0)
    out["per_layer"] = m


def self_checks(tracer, wl, out):
    """Hand-derivable counts the trace must reproduce; returns failures."""
    bad = []
    t = tracer.totals("measure")
    total_self = sum(rec[2] for rec in t.values())
    if total_self > out["window_s"] + 1e-9:
        bad.append(f"self times sum to {total_self} s, above the {out['window_s']} s window")
    have = tracer.traced
    if {"algorithms.prepare_character_state", "oracles.value_query"} <= have:
        prep = t.get("algorithms.prepare_character_state", (0,))[0]
        accepted = t.get("algorithms.prepare_character_state.accepted", (0,))[0]
        vq = sum(t.get(n, (0,))[0] for n in ("oracles.value_query", "oracles.value_query.first"))
        # two coherent queries per accepted attempt, one per rejected one
        if vq != prep + accepted or vq != out["coherent"]:
            bad.append(f"{vq} value queries for {prep} preparations, {accepted} accepted, "
                       f"{out['coherent']} reported")
    # A fresh oracle tabulates its whole domain on its first coherent query.
    name = {"prime-sweep": "number_theory.legendre",
            "field-char": "finite_field.quadratic_character"}.get(wl.name)
    for (ph, tag), b in tracer.buckets.items():
        if name in have and ph == "measure" and "bench.op" in b:
            size, ops = int(re.findall(r"\d+", tag)[-1]), b["bench.op"][0]
            got = b.get(name, (0,))[0]
            if got < size * ops:
                bad.append(f"{got} {name} calls for {ops} fresh oracles of size {size}")
    return bad


def attribution(tracer):
    """Largest self time and call count per tag group, for the trace file.

    The three symbol functions count as one entry, as number_theory.symbols.
    """
    symbols = {f"number_theory.{s}" for s in SYMBOLS}
    groups = {}
    for (ph, tag), b in tracer.buckets.items():
        acc = groups.setdefault(f"{ph}:{tag.split(':')[0]}", {})
        for name, rec in b.items():
            if name not in tracer.traced:
                continue
            a = acc.setdefault("number_theory.symbols" if name in symbols else name, [0, 0.0])
            a[0] += rec[0]
            a[1] += rec[2]
    return {group: {"top_self": max(acc, key=lambda n: acc[n][1]),
                    "top_calls": max(acc, key=lambda n: acc[n][0])}
            for group, acc in groups.items() if acc}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--phase", choices=("setup", "measure"), required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--gates", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=0)
    ap.add_argument("--counts", type=int, default=1)
    ap.add_argument("--tiny", type=int, default=0)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    wl = build(args, bool(args.trace))
    cli = isinstance(wl, workloads.CliBatch)
    tracer = None
    if args.trace:
        # The CLI runs in child processes, each installing its own tracer.
        tracer = Tracer() if cli else Tracer().install()
    wl.setup(tracer)
    out = {"t_ready": clock()}
    if args.phase == "setup":
        print(json.dumps(out))
        return 0

    timed_loop(wl, args, tracer, out)
    usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    if args.gates:
        run_gates(wl, out)
    if tracer is not None:
        per_layer(tracer, wl, out)
        out["failures"] += self_checks(tracer, wl, out)
        out["attribution"] = attribution(tracer)
        if args.trace_file:
            with open(args.trace_file, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "window_s": out["window_s"], "attribution": out["attribution"],
                           "spans": tracer.dump()}, fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

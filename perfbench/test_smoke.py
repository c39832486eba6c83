"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit_and_no_errors(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, lines[-2]
    assert result["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in group} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        detail = json.loads(lines[-2].split(" ", 1)[1])
        with open(os.path.join(ROOT, detail["trace_file"])) as fh:
            spans = json.load(fh)
        measured = sum(s["self_s"] for s in spans["spans"] if s["phase"] == "measure")
        assert 0 < measured <= spans["window_s"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_function_drops_only_its_metrics(monkeypatch):
    monkeypatch.syspath_prepend(HERE)
    import worker  # puts src/ on sys.path

    monkeypatch.delattr(sys.modules["charshift.qsim"], "qft_factor")
    tracer = worker.Tracer().install()
    try:
        wl = worker.workloads.PrimeSweep(3, tiny=True)
        tracer.use("measure", wl.tag(wl.pool[0]))
        ok, solves, coherent, _ = tracer.root(wl.run, wl.pool[0], wl.op_rng(0, 0))
    finally:
        tracer.uninstall()
    out = {"solves": solves, "coherent": coherent, "window_s": 1e9}
    worker.per_layer(tracer, wl, out)
    assert ok
    assert "qsim.qft_factor.s" not in out["per_layer"]
    assert out["per_layer"]["qsim.qft.calls"] >= 2
    assert worker.self_checks(tracer, wl, out) == []

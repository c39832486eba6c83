import concurrent.futures
import copy
import json
import os
import subprocess
import sys

import pytest

from charshift import algorithms, cli
from charshift.algorithms import MAX_REGISTER_DIM
from helpers import prepare_character_state_eager

BASE = [sys.executable, "-m", "charshift.cli"]


def run_cli(*args, check=True):
    proc = subprocess.run(
        BASE + list(args), capture_output=True, text=True, timeout=600
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def parse_jsonl(stdout):
    lines = stdout.strip().splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    summary = json.loads(lines[-1])["summary"]
    return records, summary


def test_slsp_run():
    proc = run_cli("slsp", "--p", "7", "--shift", "3", "--trials", "100", "--seed", "1")
    records, summary = parse_jsonl(proc.stdout)
    assert len(records) == 100
    assert all(r["recovered_shift"] == 3 for r in records)
    assert all(r["correct"] for r in records)
    assert summary["success_rate"] == 1.0
    assert summary["exact_attempt_probability"] == pytest.approx(6 / 7, abs=1e-9)
    assert summary["trials"] == 100 and summary["command"] == "slsp"
    assert summary["coherent_queries_total"] >= 100


def test_sqcp_run():
    proc = run_cli("sqcp", "--p", "3", "--r", "2", "--trials", "10", "--seed", "2")
    records, summary = parse_jsonl(proc.stdout)
    assert len(records) == 10
    assert summary["success_rate"] == 1.0
    assert summary["exact_attempt_probability"] == pytest.approx(1.0, abs=1e-9)
    assert summary["params"]["modulus"] == "1,0,1"


def test_sjsp_run():
    proc = run_cli("sjsp", "--n", "15", "--shift", "7", "--trials", "20", "--seed", "3")
    records, summary = parse_jsonl(proc.stdout)
    assert all(r["recovered_shift"] == 7 for r in records)
    assert summary["success_rate"] == 1.0
    assert summary["exact_attempt_probability"] == pytest.approx(8 / 15, abs=1e-9)


def test_sjsp_unknown_run():
    proc = run_cli(
        "sjsp-unknown", "--n", "15", "--M", "16384",
        "--shift", "4", "--trials", "3", "--seed", "4",
    )
    records, summary = parse_jsonl(proc.stdout)
    assert all(r["recovered_modulus"] == 15 for r in records)
    assert all(r["recovered_shift"] == 4 for r in records)
    assert all("first_candidate" in r for r in records)
    assert summary["success_rate"] == 1.0


def test_config_errors_exit_2():
    assert run_cli("slsp", "--p", "4", "--trials", "1", check=False).returncode == 2
    assert run_cli("sjsp", "--n", "45", "--trials", "1", check=False).returncode == 2
    assert run_cli("sjsp-unknown", "--n", "15", "--M", "224", check=False).returncode == 2
    assert run_cli("slsp", "--p", "7", "--shift", "9", check=False).returncode == 2
    assert run_cli("slsp", "--p", "7", "--shift", "x", check=False).returncode == 2
    assert run_cli("sqcp", "--p", "3", "--r", "2", "--modulus", "2,0,1",
                   check=False).returncode == 2
    refused = run_cli("sqcp", "--p", "3", "--r", "2", "--shift", "5,1", check=False)
    assert refused.returncode == 2 and refused.stdout == ""


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
@pytest.mark.parametrize("command", [
    ["slsp", "--p", "13"],
    ["oracle-dump", "--variant", "legendre", "--p", "7", "--shift", "random"],
])
def test_seed_outside_64_bits_exits_2(capsys, command, seed):
    assert cli.main(command + ["--seed", seed]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--seed" in err


@pytest.mark.parametrize("command", [
    ["slsp", "--p", "7", "--trials", "3"],
    ["oracle-dump", "--variant", "legendre", "--p", "7"],
])
@pytest.mark.parametrize("out", ["missing/x", "."])
def test_unwritable_out_exits_2_before_any_trial(capsys, monkeypatch, tmp_path, command, out):
    def no_work(*args):
        raise AssertionError("a trial or oracle ran for an unwritable --out")

    monkeypatch.setattr(cli, "_run_trial", no_work)
    monkeypatch.setattr(cli.orc, "legendre_oracle", no_work)
    assert cli.main(command + ["--out", str(tmp_path / out)]) == 2
    printed, err = capsys.readouterr()
    assert printed == "" and err.startswith("error: --out")


def test_random_shift_replays_with_seed():
    a = run_cli("slsp", "--p", "13", "--trials", "5", "--seed", "17")
    b = run_cli("slsp", "--p", "13", "--trials", "5", "--seed", "17")
    assert a.stdout == b.stdout
    c = run_cli("slsp", "--p", "13", "--trials", "5", "--seed", "18")
    assert c.stdout != a.stdout  # different seed, different experiment


def test_workers_do_not_change_output():
    a = run_cli("sjsp", "--n", "15", "--trials", "8", "--seed", "5", "--workers", "1")
    b = run_cli("sjsp", "--n", "15", "--trials", "8", "--seed", "5", "--workers", "3")
    assert a.stdout == b.stdout


def test_out_file_matches_stdout(tmp_path):
    target = tmp_path / "records.jsonl"
    streamed = run_cli("slsp", "--p", "7", "--shift", "0", "--trials", "4", "--seed", "9")
    run_cli("slsp", "--p", "7", "--shift", "0", "--trials", "4", "--seed", "9",
            "--out", str(target))
    assert target.read_text() == streamed.stdout


def test_csv_format():
    proc = run_cli("slsp", "--p", "7", "--shift", "3", "--trials", "3", "--seed", "1",
                   "--format", "csv")
    lines = proc.stdout.strip().splitlines()
    header, *rows = lines
    assert header.split(",")[:2] == ["trial", "recovered_shift"]
    assert rows[-1].startswith("# summary ")
    assert len(rows) == 4  # 3 trials + summary comment
    assert rows[0].split(",")[1] == "3"


def test_gauss_outputs():
    proc = run_cli("gauss", "--zp", "7")
    assert "exact: i*sqrt(7)" in proc.stdout
    assert "delta" in proc.stdout
    proc = run_cli("gauss", "--zn", "15")
    assert "exact: i*sqrt(15)" in proc.stdout
    proc = run_cli("gauss", "--fq", "3", "2")
    assert "exact: sqrt(9)" in proc.stdout
    assert run_cli("gauss", "--zp", "8", check=False).returncode == 2


def test_verify_commands():
    proc = run_cli("verify", "lemma3", "--n", "15", "--shift", "2")
    assert "max deviation" in proc.stdout
    proc = run_cli("verify", "tft", "--p", "3", "--r", "2")
    assert "matrix deviation" in proc.stdout and "unitarity" in proc.stdout
    proc = run_cli("verify", "rfcf", "--n", "15", "--M", "1024", "--shift", "2")
    assert "l1 distance" in proc.stdout and "bound" in proc.stdout
    assert run_cli("verify", "lemma3", check=False).returncode == 2
    assert run_cli("verify", "rfcf", "--n", "15", "--M", "225", check=False).returncode == 2


def test_oracle_dump():
    proc = run_cli("oracle-dump", "--variant", "legendre", "--p", "7", "--shift", "0")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "x,f(x)"
    assert len(lines) == 8  # header + one row per domain point
    values = {int(line.split(",")[0]): int(line.split(",")[1]) for line in lines[1:]}
    assert [x for x, v in values.items() if v == 1] == [1, 2, 4]
    assert [x for x, v in values.items() if v == 0] == [0]


def test_oracle_dump_field_labels():
    proc = run_cli("oracle-dump", "--variant", "field", "--p", "3", "--r", "2",
                   "--shift", "0,0")
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 10
    assert lines[1].startswith('"0,0",')  # element serialized with r entries


def test_oracle_dump_domain_cap():
    proc = run_cli("oracle-dump", "--variant", "jacobi-unknown", "--n", "105",
                   "--M", "200000", check=False)
    assert proc.returncode == 2


def test_log_diagnostics_go_to_stderr_only():
    env = dict(os.environ, CHARSHIFT_LOG="INFO")
    logged = subprocess.run(
        BASE + ["gauss", "--zp", "7"], capture_output=True, text=True, env=env
    )
    assert logged.returncode == 0
    assert "finished in" in logged.stderr  # timing stays off the result stream
    plain = run_cli("gauss", "--zp", "7")
    assert logged.stdout == plain.stdout
    # retry diagnostics, one line per failed attempt, also stay on stderr
    args = ["sjsp", "--n", "15", "--trials", "8", "--seed", "5"]
    env = dict(os.environ, CHARSHIFT_LOG="DEBUG")
    logged = subprocess.run(BASE + args, capture_output=True, text=True, env=env)
    assert logged.returncode == 0
    assert "accepted branch: verify failed" in logged.stderr
    assert logged.stdout == run_cli(*args).stdout


def test_determinism_across_commands():
    for args in (
        ["sqcp", "--p", "5", "--r", "2", "--trials", "4", "--seed", "11"],
        ["sjsp-unknown", "--n", "15", "--M", "16384", "--trials", "2", "--seed", "12"],
        ["gauss", "--fq", "7", "2"],
        ["verify", "rfcf", "--n", "21", "--M", "2048"],
        ["oracle-dump", "--variant", "jacobi", "--n", "15", "--shift", "random",
         "--seed", "6"],
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout, args


def test_admission_limit_exits_2(capsys, monkeypatch):
    code = cli.main(["sjsp-unknown", "--n", "15", "--M", str(MAX_REGISTER_DIM + 1)])
    assert code == 2
    assert capsys.readouterr().out == ""

    # oversized fields and characteristic two are refused before make_field
    # runs its modulus search
    def no_field(*args):
        raise AssertionError("make_field called for a refused field")

    monkeypatch.setattr(cli.ff, "make_field", no_field)
    for args in (["sqcp", "--p", "3", "--r", "14"],
                 ["sqcp", "--p", "3", "--r", str(10**9)],
                 ["oracle-dump", "--variant", "field", "--p", "3", "--r", "14"],
                 ["verify", "tft", "--p", "3", "--r", "7"],
                 ["verify", "tft", "--p", "1031", "--r", "1"],
                 ["gauss", "--fq", "3", "14"],
                 ["sqcp", "--p", "2", "--r", "19"],
                 ["oracle-dump", "--variant", "field", "--p", "2", "--r", "19"]):
        assert cli.main(args) == 2, args
        assert capsys.readouterr().out == ""
    # characteristic two keeps its exit 3 from the closed form
    for r in ("3", "40"):
        assert cli.main(["gauss", "--fq", "2", r]) == 3
        assert capsys.readouterr().out == ""
    # and a degree below one is still make_field's refusal
    monkeypatch.undo()
    assert cli.main(["gauss", "--fq", "2", "0"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("args", [
    ["slsp", "--p", "18446744073709551629"],  # a prime above 2^64
    ["slsp", "--p", "318665857834031151167461"],  # a strong pseudoprime to bases 2..37
    ["sjsp", "--n", "1000000016000000063"],  # (10^9 + 7)(10^9 + 9)
    ["sjsp-unknown", "--n", "1000000016000000063", "--M", "65536"],
    ["sjsp-unknown", "--n", "15", "--M", str(1 << 64)],
    ["oracle-dump", "--variant", "jacobi", "--n", "1000000016000000063"],
    ["gauss", "--zn", "1000000016000000063"],
    ["verify", "lemma3", "--n", "1000000016000000063"],
    ["verify", "rfcf", "--n", "1000000016000000063", "--M", "65536"],
])
def test_oversized_integers_exit_2_before_factoring(capsys, monkeypatch, args):
    def no_factoring(n):
        raise AssertionError(f"factor_trial({n}) called for an oversized parameter")

    monkeypatch.setattr(cli, "factor_trial", no_factoring)
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("workers,trials,cpus,size", [
    (5000, 1, 64, None), (5000, 3, 64, 3), (5000, 8, 4, 4), (2, 8, None, None), (3, 8, 2, 2),
])
def test_pool_size_is_bounded(capsys, monkeypatch, workers, trials, cpus, size):
    sizes = []

    class RecordingPool:  # records the pool size and runs the trials in-process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert cli.main(["slsp", "--p", "13", "--trials", str(trials),
                     "--workers", str(workers)]) == 0
    assert sizes == ([] if size is None else [size])


def test_import_leaves_the_process_pool_unloaded():
    # The pool is imported only when a run asks for more than one worker.
    probe = "import sys, charshift.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# Per-trial outcomes recorded before the solvers shared one attempt loop:
# (recovered_shift, recovered_modulus, first_candidate, attempts,
#  coherent_queries, classical_queries, correct), then the summary's
# exact_attempt_probability.  A change in the order of random draws moves them.
# The sjsp classical counts are those of the CRT-built check, 3 queries for a
# correct candidate at n = 15.  A Legendre or field candidate costs its one
# zero probe.  An sjsp-unknown solve here asks 35 distinct points: the period
# filter reads f(0..19) and f(15..34), and the prefix check of the correct
# candidate reads f(0..21), the certificate width at M = 2^14, from the
# solve's answer memo.
PINNED = [
    (["slsp", "--p", "13", "--trials", "6", "--seed", "99"],
     [(12, None, None, 1, 2, 1, True)] * 6, 0.9230769230769231),
    (["sjsp", "--n", "15", "--trials", "8", "--seed", "5"],
     [(10, None, None, 1, 2, 3, True), (10, None, None, 1, 2, 3, True),
      (10, None, None, 5, 9, 10, True), (10, None, None, 1, 2, 3, True),
      (10, None, None, 5, 8, 8, True), (10, None, None, 5, 8, 8, True),
      (10, None, None, 3, 4, 3, True), (10, None, None, 4, 6, 5, True)],
     0.5333333333333338),
    (["sjsp-unknown", "--n", "15", "--M", "16384", "--trials", "2", "--seed", "55"],
     [(14, 15, 15, 1, 11, 35, True), (14, 15, 15, 2, 12, 35, True)], 0.5333333333333335),
    (["sqcp", "--p", "3", "--r", "2", "--trials", "4", "--seed", "77"],
     [([0, 0], None, None, 1, 2, 1, True)] * 4, 1.0000000000000009),
]
_PINNED_KEYS = ("recovered_shift", "recovered_modulus", "first_candidate", "attempts",
                "coherent_queries", "classical_queries", "correct")


@pytest.mark.parametrize("args,trials,exact", PINNED, ids=[case[0][0] for case in PINNED])
def test_pinned_outcomes_per_seed(capsys, args, trials, exact):
    assert cli.main(args) == 0
    records, summary = parse_jsonl(capsys.readouterr().out)
    assert [tuple(r.get(k) for k in _PINNED_KEYS) for r in records] == trials
    assert summary["exact_attempt_probability"] == pytest.approx(exact, abs=1e-9)


def test_pinned_outcomes_csv(capsys):
    args, trials, exact = PINNED[1]
    assert cli.main(args + ["--format", "csv"]) == 0
    header, *rows, summary = capsys.readouterr().out.splitlines()
    assert header == "trial,recovered_shift,attempts,coherent_queries,classical_queries,correct"
    assert rows == [f"{t},{s},{a},{c},{k},{ok}"
                    for t, (s, _, _, a, c, k, ok) in enumerate(trials)]
    summary = json.loads(summary.removeprefix("# summary "))
    assert summary["exact_attempt_probability"] == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("args", [
    ["slsp", "--p", "13", "--trials", "4", "--seed", "32"],  # trial 2 takes the zero branch
    ["sqcp", "--p", "3", "--r", "2", "--trials", "4", "--seed", "1"],  # so does trial 2 here
    ["sjsp", "--n", "1155", "--trials", "6", "--seed", "3"],
    ["sjsp-unknown", "--n", "21", "--M", "16384", "--trials", "6", "--seed", "4"],
], ids=lambda args: args[0])
def test_stdout_matches_eager_preparation(capsys, monkeypatch, args):
    assert cli.main(args) == 0
    lazy = capsys.readouterr().out

    def eager(oracle, dim, rng=None):
        # The reference reads a copy of the oracle classically, so the solve's
        # oracle is charged the coherent queries the circuit spends instead.
        prepared = prepare_character_state_eager(copy.copy(oracle), dim, rng)
        for _ in range(1 + prepared[0]):
            oracle.value_query_superposed(dim)
        return prepared

    monkeypatch.setattr(algorithms, "prepare_character_state", eager)
    assert cli.main(args) == 0
    assert capsys.readouterr().out == lazy

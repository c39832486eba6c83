"""Stored stdout and exit code of CLI commands, compared byte for byte.

Each command in CASES runs through cli.main in this process.  Its file under
tests/golden/ holds one "# exit N" line and then the exact stdout.  A change
that moves any byte re-pins the file and says so.  To rewrite every file:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib
import re
import shlex
import sys

import pytest

from charshift import cli

GOLDEN = pathlib.Path(__file__).with_name("golden")

CASES = [
    # the CI byte loop; the last two draw zero-branch trials
    "sjsp --n 6061 --trials 4 --seed 1",
    "slsp --p 16381 --trials 4 --seed 1",
    "sjsp-unknown --n 105 --M 65536 --trials 3 --seed 1",
    "sqcp --p 3 --r 5 --trials 3 --seed 1",
    "sjsp-unknown --n 15 --M 16384 --trials 4 --seed 1",
    "sqcp --p 3 --r 8 --trials 2 --seed 1",
    "sjsp-unknown --n 1001 --M 1048576 --trials 2 --seed 1",
    "sjsp-unknown --n 21 --M 1132 --trials 3 --seed 1",  # -0 imaginary parts at M = 1132
    "slsp --p 13 --trials 40 --seed 1",
    "sqcp --p 3 --r 2 --trials 4 --seed 1",
    "sjsp --n 15 --trials 8 --seed 5 --format csv",
    # inspection commands
    "gauss --zp 7",
    "gauss --zn 105",
    "gauss --fq 3 2",
    "gauss --fq 7 2",
    "verify lemma3 --n 15015 --shift 5",
    "verify tft --p 3 --r 2",
    "verify rfcf --n 255 --M 65536 --shift 17",
    "oracle-dump --variant legendre --p 7 --shift 3",
    "oracle-dump --variant jacobi --n 15 --shift random --seed 6",
    "oracle-dump --variant jacobi-unknown --n 15 --M 256 --shift 4",
    "oracle-dump --variant field --p 3 --r 2 --shift 1,2",
    # refusals: exit 2 (3 for characteristic two) and nothing on stdout
    "gauss --zp 8",
    "gauss --zp 9",
    "gauss --zp 15",
    "gauss --fq 2 3",
    "sqcp --p 3 --r 2 --shift 5,1",
    "slsp --p 13 --seed 18446744073709551616",
    "oracle-dump --variant legendre --p 7 --shift random --seed -1",
    "slsp --p 318665857834031151167461",
    "sjsp --n 1000000016000000063",
    "sqcp --p 2 --r 19",
]


def golden_path(command):
    return GOLDEN / (re.sub(r"[^0-9A-Za-z]+", "_", command).strip("_") + ".txt")


def run(command):
    """(exit code, stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(shlex.split(command))
    return code, out.getvalue()


def render(code, stdout):
    return f"# exit {code}\n{stdout}"


@pytest.mark.parametrize("command", CASES)
def test_cli_output_matches_golden(command):
    expected = golden_path(command).read_text()
    assert render(*run(command)) == expected


def test_golden_files_match_cases():
    assert sorted(GOLDEN.glob("*.txt")) == sorted(map(golden_path, CASES))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    for command in CASES:
        golden_path(command).write_text(render(*run(command)))
    print(f"wrote {len(CASES)} files to {GOLDEN}", file=sys.stderr)

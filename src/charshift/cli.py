"""Batch experiment runner and inspection tool.

Solve commands run independent trials against one hidden instance and emit
JSON Lines (one record per trial plus a final summary record) or CSV.  Equal
seeds give byte-identical output; per-trial generators are seeded with
seed XOR trial-index, and trials may run across a worker pool without
changing the output.  Timing and retry diagnostics go to stderr, controlled
by the CHARSHIFT_LOG environment variable.
"""

import argparse
import csv
import io
import json
import logging
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import algorithms as alg
from . import finite_field as ff
from . import oracles as orc
from .errors import CharshiftError, ConfigError, DomainTooLarge, UnsupportedParameters
from .number_theory import (
    GAUSS_BRUTEFORCE_MAX,
    FactoredOddSquarefree,
    factor_trial,
    gauss_sum_bruteforce,
    gauss_sum_closed_form,
    is_odd_prime,
)

log = logging.getLogger("charshift")

_DUMP_LIMIT = 10**5
_VERIFY_TOL = 1e-9


def _setup_logging():
    level_name = os.environ.get("CHARSHIFT_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charshift",
        description="Exact desk-scale experiments on shifted quadratic characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--shift", default="random",
                       help='hidden shift; an explicit value or "random" (default)')
        p.add_argument("--trials", type=int, default=1)
        p.add_argument("--seed", type=int, default=0, help="64-bit experiment seed")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("slsp", help="recover the shift of a Legendre-symbol oracle")
    p.add_argument("--p", type=int, required=True)
    add_run_flags(p)

    p = sub.add_parser("sjsp", help="recover the shift of a Jacobi-symbol oracle")
    p.add_argument("--n", type=int, required=True)
    add_run_flags(p)

    p = sub.add_parser("sjsp-unknown", help="recover shift and hidden modulus over Z_M")
    p.add_argument("--n", type=int, required=True, help="secret modulus (builds the oracle)")
    p.add_argument("--M", type=int, required=True, help="public domain size, n^2 < M")
    add_run_flags(p)

    p = sub.add_parser("sqcp", help="recover the shift of a quadratic-character oracle")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--modulus", default=None,
                   help='field polynomial, low-degree-first, e.g. "1,0,1"')
    add_run_flags(p)

    p = sub.add_parser("gauss", help="print a quadratic Gauss sum, exact and numeric")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--zp", type=int, metavar="P")
    group.add_argument("--zn", type=int, metavar="N")
    group.add_argument("--fq", type=int, nargs=2, metavar=("P", "R"))

    p = sub.add_parser("verify", help="run an exact identity check")
    p.add_argument("suite", choices=("lemma3", "tft", "rfcf"))
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--shift", type=int, default=0)

    p = sub.add_parser("oracle-dump", help="write the full x,f(x) table as CSV")
    p.add_argument("--variant", required=True,
                   choices=[v.dump_name for v in VARIANTS.values()])
    p.add_argument("--p", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--modulus", default=None)
    p.add_argument("--shift", default=None, help="defaults to zero shift")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    return parser


# ---------------------------------------------------------------------------
# solve commands


def _prime_params(args):
    _refuse_above("--p", args.p, alg.MAX_REGISTER_DIM)
    if not is_odd_prime(args.p):
        raise ConfigError(f"--p {args.p} is not an odd prime")
    return {"p": args.p}


def _modulus_params(args):
    _refuse_above("--n", args.n, alg.MAX_REGISTER_DIM)
    _checked(factor_trial, args.n)
    return {"n": args.n}


def _hidden_modulus_params(args):
    _refuse_above("--M", args.M, alg.MAX_REGISTER_DIM)
    if args.n * args.n >= args.M:
        raise ConfigError(f"need n^2 < M but {args.n}^2 >= {args.M}")
    _checked(factor_trial, args.n)
    return {"n": args.n, "M": args.M}


def _refuse_above(flag, value, limit):
    """Raise DomainTooLarge for an integer parameter above limit.

    Runs before any factorization or shift draw: trial division of a
    20-digit --n takes hours, and a shift draw fails outright above 2^64.
    """
    if value > limit:
        raise DomainTooLarge(f"{flag} {value} exceeds {limit}")


def _field_params(args):
    _refuse_oversized_field(args.p, args.r, alg.MAX_REGISTER_DIM - 1)  # q + 1 register slots
    if args.p == 2:
        raise ConfigError("character experiments need odd characteristic")
    fld = _checked(_build_field, args.p, args.r, args.modulus)
    return {"p": fld.p, "r": fld.r, "modulus": ff.format_poly(fld.modulus)}


def _refuse_oversized_field(p, r, limit):
    """Raise DomainTooLarge when GF(p^r) would have more than limit elements.

    Runs before make_field, whose modulus search alone takes seconds at 3^14.
    Every prime is at least 2, so r beyond the bit length of limit is refused
    without forming p**r.
    """
    if p >= 2 and (r > limit.bit_length() or p**r > limit):
        raise DomainTooLarge(f"field of size {p}^{r} exceeds {limit}")


def _build_field(p, r, modulus=None) -> ff.FieldSpec:
    """The field for --p, --r and an optional --modulus text."""
    return ff.make_field(p, r, ff.parse_poly(modulus) if modulus else None)


def _integer_shifts(size):
    """Shift domain Z_size: (count, index -> shift, text -> shift)."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"--shift must be an integer or 'random', got {text!r}")
        if not 0 <= value < size:
            raise ConfigError(f"--shift {value} outside [0, {size})")
        return value

    return size, int, parse


def _field_shifts(params):
    """Shift domain F_q, in the same form as _integer_shifts; an explicit shift
    is checked as field_oracle checks it."""
    fld = _build_field(**params)
    parse = lambda text: orc._field_shift(fld, ff.parse_poly(text))
    return fld.q, partial(ff.element_from_index, fld), parse


@dataclass(frozen=True)
class _Variant:
    """Everything the solve commands and oracle-dump know about one variant.

    Callables take the checked parameter dict that params() returns; it is
    JSON-ready and is what worker processes receive.
    """

    dump_name: str  # the oracle-dump --variant value
    needs: tuple  # flags oracle-dump requires for this variant
    params: Callable  # args -> parameters, raising ConfigError
    shifts: Callable  # params -> shift domain, as _integer_shifts returns it
    oracle: Callable  # (params, shift) -> ShiftOracle
    solve: Callable  # (params, oracle, rng) -> SolveReport
    correct: Callable = lambda params, shift, rep: rep.recovered_shift == shift
    fields: Callable = lambda rep: {"recovered_shift": rep.recovered_shift}


VARIANTS = {
    "slsp": _Variant(
        "legendre", ("p",), _prime_params,
        shifts=lambda params: _integer_shifts(params["p"]),
        oracle=lambda params, shift: orc.legendre_oracle(params["p"], shift=shift),
        solve=lambda params, oracle, rng: alg.solve_slsp(params["p"], oracle, rng),
    ),
    "sjsp": _Variant(
        "jacobi", ("n",), _modulus_params,
        shifts=lambda params: _integer_shifts(params["n"]),
        oracle=lambda params, shift: orc.jacobi_oracle(params["n"], shift=shift),
        solve=lambda params, oracle, rng: alg.solve_sjsp(
            factor_trial(params["n"]), oracle, rng),
    ),
    "sjsp-unknown": _Variant(
        "jacobi-unknown", ("n", "M"), _hidden_modulus_params,
        shifts=lambda params: _integer_shifts(params["n"]),
        oracle=lambda params, shift: orc.jacobi_unknown_oracle(
            params["n"], params["M"], shift=shift),
        solve=lambda params, oracle, rng: alg.solve_sjsp_unknown_n(params["M"], oracle, rng),
        correct=lambda params, shift, rep: (
            rep.recovered_shift == shift and rep.recovered_modulus == params["n"]),
        fields=lambda rep: {"recovered_shift": rep.recovered_shift,
                            "recovered_modulus": rep.recovered_modulus,
                            "first_candidate": rep.candidate_moduli[0]},
    ),
    "sqcp": _Variant(
        "field", ("p", "r"), _field_params,
        shifts=_field_shifts,
        oracle=lambda params, shift: orc.field_oracle(_build_field(**params), shift=shift),
        solve=lambda params, oracle, rng: alg.solve_sqcp(oracle.field_spec, oracle, rng),
        fields=lambda rep: {"recovered_shift": list(rep.recovered_shift)},
    ),
}


def _resolve_shift(variant, params, text, seed):
    """Turn --shift into a concrete value: None is the zero shift, and
    "random" draws from the seeded rng so whole experiments replay exactly."""
    size, from_index, parse = variant.shifts(params)
    if text is None:
        return from_index(0)
    if text == "random":
        return from_index(int(np.random.default_rng(np.uint64(seed)).integers(size)))
    return _checked(parse, text)


def _run_trial(command, params, shift, seed, trial) -> dict:
    """One independent solve; module-level so worker processes can run it."""
    variant = VARIANTS[command]
    rng = np.random.default_rng(np.uint64(seed ^ trial))
    rep = variant.solve(params, variant.oracle(params, shift), rng)
    return {
        "trial": trial,
        **variant.fields(rep),
        "attempts": rep.attempts,
        "coherent_queries": rep.coherent_queries,
        "classical_queries": rep.classical_queries,
        "correct": bool(variant.correct(params, shift, rep)),
        "exact_attempt_probability": rep.exact_success_probability,
    }


def _solve_command(command, args) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be at least 1")
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")

    variant = VARIANTS[command]
    params = variant.params(args)
    shift = _resolve_shift(variant, params, args.shift, args.seed)

    run = partial(_run_trial, command, params, shift, args.seed)
    # The pool starts all its processes at the first submit, so never more
    # than there are trials or CPUs.
    workers = min(args.workers, args.trials, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # 15-20 ms, so imported here
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run, range(args.trials)))
    else:
        records = list(map(run, range(args.trials)))

    exact = next(
        (r["exact_attempt_probability"] for r in records
         if r["exact_attempt_probability"] is not None),
        None,
    )
    summary = {
        "command": command,
        "params": params,
        "trials": args.trials,
        "success_rate": sum(r["correct"] for r in records) / args.trials,
        "mean_attempts": sum(r["attempts"] for r in records) / args.trials,
        "coherent_queries_total": sum(r["coherent_queries"] for r in records),
    }
    if exact is not None:
        summary["exact_attempt_probability"] = exact
    for r in records:
        del r["exact_attempt_probability"]

    _emit_records(records, summary, args)
    return 0


def _checked(fn, *fn_args):
    """Run a constructor, converting package errors into ConfigError."""
    try:
        return fn(*fn_args)
    except ConfigError:
        raise
    except (CharshiftError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _emit_records(records, summary, args):
    if args.format == "json":
        lines = [json.dumps(r, separators=(",", ":")) for r in records]
        lines.append(json.dumps({"summary": summary}, separators=(",", ":")))
        payload = "\n".join(lines) + "\n"
    else:
        buf = io.StringIO()
        fields = list(records[0].keys())
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
        buf.write("# summary " + json.dumps(summary, separators=(",", ":")) + "\n")
        payload = buf.getvalue()
    _write_out(payload, args.out)


def _check_writable(out_path):
    """Refuse an --out path that cannot be written, before any work is done."""
    target = out_path if os.path.exists(out_path) else os.path.dirname(os.path.abspath(out_path))
    if os.path.isdir(out_path) or not os.access(target, os.W_OK):
        raise ConfigError(f"--out {out_path} is not a writable file path")


def _write_out(payload: str, out_path):
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# inspection commands


def _gauss_command(args) -> int:
    if args.zp is not None:  # checked as a prime, never trial-divided
        domain = _checked(FactoredOddSquarefree, args.zp, (args.zp,))
    elif args.zn is not None:
        _refuse_above("--zn", args.zn, GAUSS_BRUTEFORCE_MAX)
        domain = _checked(factor_trial, args.zn)
    else:
        p, r = args.fq
        if p == 2 and r >= 1:  # the closed form's refusal, before the modulus search
            raise UnsupportedParameters("no closed form in characteristic two")
        _refuse_oversized_field(p, r, GAUSS_BRUTEFORCE_MAX)
        domain = _checked(ff.make_field, p, r)
    closed = gauss_sum_closed_form(domain)
    brute = gauss_sum_bruteforce(domain)
    delta = abs(closed.value - brute)
    _write_out(
        f"exact: {closed.exact_str}\n"
        f"numeric: {closed.value!r}\n"
        f"brute-force delta: {delta:.3e}\n",
        None,
    )
    return 0


def _verify_command(args) -> int:
    if args.suite == "lemma3":
        if args.n is None:
            raise ConfigError("verify lemma3 requires --n")
        _refuse_above("--n", args.n, alg.MAX_REGISTER_DIM)
        moduli = _checked(factor_trial, args.n)
        if not 0 <= args.shift < args.n:
            raise ConfigError(f"--shift {args.shift} outside [0, {args.n})")
        deviation = alg.verify_jacobi_qft_lemma(moduli, args.shift)
        _write_out(f"max deviation: {deviation:.3e} (tolerance {_VERIFY_TOL:g})\n", None)
        return 0 if deviation < _VERIFY_TOL else 1
    if args.suite == "tft":
        if args.p is None or args.r is None:
            raise ConfigError("verify tft requires --p and --r")
        _refuse_oversized_field(args.p, args.r, alg.TFT_MAX_Q)
        fld = _checked(_build_field, args.p, args.r)
        matrix_dev, unitary_dev = alg.tft_matrix_deviation(fld)
        _write_out(
            f"matrix deviation: {matrix_dev:.3e} (tolerance {_VERIFY_TOL:g})\n"
            f"unitarity deviation: {unitary_dev:.3e} (tolerance {_VERIFY_TOL:g})\n",
            None,
        )
        return 0 if matrix_dev < _VERIFY_TOL and unitary_dev < _VERIFY_TOL else 1
    # rfcf
    if args.n is None or args.M is None:
        raise ConfigError("verify rfcf requires --n and --M")
    _refuse_above("--n", args.n, alg.MAX_REGISTER_DIM)
    moduli = _checked(factor_trial, args.n)
    if not 0 <= args.shift < args.n:
        raise ConfigError(f"--shift {args.shift} outside [0, {args.n})")
    comparison = _checked(alg.repeated_sampling_comparison, moduli, args.shift, args.M)
    _write_out(
        f"l1 distance: {comparison.l1_distance!r}\n"
        f"bound n/sqrt(M): {comparison.bound!r}\n",
        None,
    )
    return 0 if comparison.l1_distance <= comparison.bound + 1e-12 else 1


def _dump_command(args) -> int:
    variant = next(v for v in VARIANTS.values() if v.dump_name == args.variant)
    if any(getattr(args, flag) is None for flag in variant.needs):
        flags = " and ".join(f"--{flag}" for flag in variant.needs)
        raise ConfigError(f"{args.variant} dump requires {flags}")
    params = variant.params(args)
    shift = _resolve_shift(variant, params, args.shift, args.seed)
    oracle = _checked(variant.oracle, params, shift)

    if oracle.domain_size > _DUMP_LIMIT:
        raise ConfigError(f"domain of size {oracle.domain_size} exceeds {_DUMP_LIMIT}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "f(x)"])
    for x in range(oracle.domain_size):
        if oracle.variant == orc.VARIANT_FIELD:
            label = ff.format_poly(ff.element_from_index(oracle.field_spec, x))
        else:
            label = x
        writer.writerow([label, oracle.query(x)])
    _write_out(buf.getvalue(), args.out)
    return 0


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        if not 0 <= getattr(args, "seed", 0) < 1 << 64:
            raise ConfigError(f"--seed {args.seed} outside [0, 2^64)")
        if getattr(args, "out", None):
            _check_writable(args.out)
        if args.command in VARIANTS:
            code = _solve_command(args.command, args)
        else:
            handler = {"gauss": _gauss_command, "verify": _verify_command,
                       "oracle-dump": _dump_command}[args.command]
            code = handler(args)
    except (ConfigError, DomainTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CharshiftError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 3
    log.info("%s finished in %.1f ms", args.command, (time.perf_counter() - start) * 1e3)
    return code


if __name__ == "__main__":
    sys.exit(main())

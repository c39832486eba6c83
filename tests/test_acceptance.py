"""Acceptance suite: one test per published criterion, each printing a
PASS line with its runtime against the stated budget (visible under
``pytest -s``)."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from charshift.algorithms import (
    prepare_character_state,
    repeated_sampling_comparison,
    sjsp_attempt_analysis,
    slsp_attempt_analysis,
    solve_sjsp,
    solve_sjsp_unknown_n,
    solve_slsp,
    solve_sqcp,
    sqcp_attempt_analysis,
    tft_matrix_deviation,
    verify_jacobi_qft_lemma,
)
from charshift.finite_field import (
    element_from_index,
    element_to_index,
    ff_arith,
    ff_neg,
    make_field,
    quadratic_character,
    trace_coordinates,
)
from charshift.number_theory import (
    FactoredOddSquarefree,
    euler_phi,
    factor_trial,
    gauss_sum_bruteforce,
    gauss_sum_closed_form,
    is_prime,
    jacobi,
)
from charshift.oracles import field_oracle, jacobi_oracle, jacobi_unknown_oracle, legendre_oracle
from helpers import odd_squarefree_up_to

TOL = 1e-9

ODD_PRIMES_TO_101 = [p for p in range(3, 102, 2) if is_prime(p)]
FIELD_SIZES = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3), (7, 3), (3, 6)]


class _Budget:
    def __init__(self, number, label, seconds):
        self.number, self.label, self.seconds = number, label, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"ACCEPTANCE {self.number}: PASS ({elapsed:.1f}s / budget "
                  f"{self.seconds:.0f}s) - {self.label}")
            assert elapsed < self.seconds, f"criterion {self.number} over budget"
        else:
            print(f"ACCEPTANCE {self.number}: FAIL after {elapsed:.1f}s - {self.label}")
        return False


def test_criterion_1_prime_solver_exactness():
    with _Budget(1, "prime-field solver: exact (p-1)/p mass and uniform residual", 60):
        for p in ODD_PRIMES_TO_101:
            for s in range(p):
                zero_prob, dist = slsp_attempt_analysis(p, legendre_oracle(p, shift=s))
                assert abs(zero_prob - 1 / p) < TOL
                assert abs(dist[(-s) % p] - (p - 1) / p) < TOL
                rest = np.delete(dist, (-s) % p)
                assert np.max(np.abs(rest - 1 / (p * (p - 1)))) < TOL
        # the coherent-query audit: one transform-branch attempt costs 2
        for seed in range(50):
            oracle = legendre_oracle(7, shift=3)
            rep = solve_slsp(7, oracle, np.random.default_rng(seed))
            if rep.attempts == 1 and rep.exact_distribution is not None:
                assert rep.coherent_queries == 2
                assert oracle.phase_query_count == 2
                break
        else:
            pytest.fail("no single-attempt transform-branch run found")


def test_criterion_2_composite_modulus_solver():
    with _Budget(2, "composite-modulus solver: always correct, collapse rate, "
                    "exact conditional success", 300):
        for n in (15, 21, 33, 35, 105):
            moduli = factor_trial(n)
            expected = 1.0
            for pj in moduli.factors:
                expected *= (pj - 1) / pj
            shift_rng = np.random.default_rng(n)
            shifts = {int(shift_rng.integers(n)) for _ in range(32)}
            for s in sorted(shifts)[:10]:
                oracle = jacobi_oracle(n, shift=s)
                rep = solve_sjsp(moduli, oracle, np.random.default_rng(n * 1000 + s))
                assert rep.recovered_shift == s
                zero_prob, dist, layout = sjsp_attempt_analysis(moduli, oracle)
                assert abs((1 - zero_prob) - euler_phi(moduli) / n) < TOL
                correct = layout.index(tuple((-s) % pj for pj in moduli.factors))
                assert abs(dist[correct] - expected) < TOL
            # empirical collapse acceptance over 500 preparation attempts
            oracle = jacobi_oracle(n, shift=1)
            rng = np.random.default_rng(2020 + n)
            accepted = sum(
                prepare_character_state(oracle, n, rng)[0] for _ in range(500)
            )
            rate = euler_phi(moduli) / n
            sigma = math.sqrt(500 * rate * (1 - rate))
            assert abs(accepted - 500 * rate) <= 3 * sigma, (n, accepted)


def test_criterion_3_transform_identity():
    with _Budget(3, "composite-transform identity with its global unit", 30):
        for n in (3, 5, 15, 21, 33, 35, 105):
            moduli = factor_trial(n)
            for s in range(n):
                assert verify_jacobi_qft_lemma(moduli, s) < TOL


def test_criterion_4_trace_transform():
    with _Budget(4, "trace transform: kernel match, unitarity, coordinate bijection", 30):
        for p, r in ((3, 2), (5, 2), (3, 3), (7, 2)):
            fld = make_field(p, r)
            matrix_dev, unitary_dev = tft_matrix_deviation(fld)
            assert matrix_dev < TOL and unitary_dev < TOL
        for p, r in FIELD_SIZES:
            fld = make_field(p, r)
            seen = {tuple(row) for row in trace_coordinates(fld).tolist()}
            assert len(seen) == fld.q


def test_criterion_5_field_solver():
    with _Budget(5, "field solver: one-hot conditional outcome, exact direct-branch "
                    "probability, correct shifts", 120):
        for p, r in ((3, 2), (5, 2), (3, 3), (7, 2), (11, 2), (5, 3)):
            fld = make_field(p, r)
            q = fld.q
            shift_rng = np.random.default_rng(q)
            picks = shift_rng.choice(q, size=min(10, q), replace=False)
            for raw in picks:
                s = element_from_index(fld, int(raw))
                oracle = field_oracle(fld, shift=s)
                zero_prob, dist = sqcp_attempt_analysis(fld, oracle)
                assert abs(zero_prob - 1 / (q + 1)) < TOL
                target = element_to_index(fld, ff_neg(fld, s))
                assert abs(dist[target] - 1.0) < TOL
                assert np.max(np.delete(dist, target)) < TOL
                rep = solve_sqcp(fld, oracle, np.random.default_rng(q * 100 + int(raw)))
                assert rep.recovered_shift == s


def test_criterion_6_unknown_modulus_end_to_end():
    with _Budget(6, "unknown-modulus solver: first-convergent hit rate and "
                    "always-correct recovery", 600):
        big_m = 2**14
        for n in (15, 21, 33):
            first_hits = 0
            for trial in range(200):
                shift = int(np.random.default_rng(7 * n + trial).integers(n))
                oracle = jacobi_unknown_oracle(n, big_m, shift=shift)
                rep = solve_sjsp_unknown_n(big_m, oracle, np.random.default_rng(1000 ^ trial))
                assert rep.recovered_modulus == n
                assert rep.recovered_shift == shift
                first_hits += rep.candidate_moduli[0] == n
            assert first_hits >= 150, (n, first_hits)  # 75% of 200


def test_criterion_7_gauss_sum_closed_forms():
    with _Budget(7, "closed-form Gauss sums match brute force on every domain", 30):
        for p in ODD_PRIMES_TO_101:
            spec = FactoredOddSquarefree(p, (p,))
            assert abs(gauss_sum_closed_form(spec).value - gauss_sum_bruteforce(spec)) < 1e-6
        for n in odd_squarefree_up_to(105):
            spec = factor_trial(n)
            assert abs(gauss_sum_closed_form(spec).value - gauss_sum_bruteforce(spec)) < 1e-6
        sign_cases = set()
        for p, r in FIELD_SIZES + [(3, 1), (5, 1), (7, 1)]:
            fld = make_field(p, r)
            spec = fld
            closed = gauss_sum_closed_form(spec)
            assert abs(closed.value - gauss_sum_bruteforce(spec)) < 1e-6
            if p % 4 == 1:
                sign_cases.add(("1mod4", r % 2))
            else:
                sign_cases.add(("3mod4", r % 4))
        assert len(sign_cases) == 6  # every branch of the closed-form table
        # the ring and field values coincide on prime domains
        for p in (3, 5, 7, 11, 13):
            ring = gauss_sum_closed_form(FactoredOddSquarefree(p, (p,)))
            fld = gauss_sum_closed_form(make_field(p, 1))
            assert ring == fld


def test_criterion_8_character_sum_balance():
    with _Budget(8, "character sums: zero balance for odd p, q-1 in characteristic 2", 10):
        for p, r in FIELD_SIZES:
            fld = make_field(p, r)
            total = sum(
                quadratic_character(fld, element_from_index(fld, i))
                for i in range(fld.q)
            )
            assert total == 0, (p, r)
        for n in odd_squarefree_up_to(3000):
            assert sum(jacobi(x, n) for x in range(n)) == 0, n
        # characteristic two: squaring is onto, every nonzero value is +1
        for r in (1, 2, 3):
            fld = make_field(2, r)
            squares = {
                element_to_index(fld, ff_arith(fld, e, e, "mul"))
                for e in (element_from_index(fld, i) for i in range(1, fld.q))
            }
            total = sum(1 if i in squares else -1 for i in range(1, fld.q))
            assert total == fld.q - 1, r


def test_criterion_9_sampling_distribution_distance():
    with _Budget(9, "reduced-fraction vs continued-fraction sampling distance", 60):
        exact = repeated_sampling_comparison(factor_trial(15), 2, 15 * 64)
        assert exact.l1_distance < TOL
        generic = repeated_sampling_comparison(factor_trial(15), 2, 1024)
        assert generic.bound == pytest.approx(15 / 32)
        assert generic.l1_distance <= generic.bound
        minimal = repeated_sampling_comparison(factor_trial(3), 0, 10)
        assert sum(minimal.rf_distribution.values()) == pytest.approx(1.0, abs=TOL)
        assert sum(minimal.cf_distribution.values()) == pytest.approx(1.0, abs=TOL)


def test_criterion_10_cli_determinism():
    with _Budget(10, "equal seeds give byte-identical command output", 120):
        base = [sys.executable, "-m", "charshift.cli"]
        for args in (
            ["slsp", "--p", "13", "--trials", "6", "--seed", "99"],
            ["sqcp", "--p", "3", "--r", "2", "--trials", "4", "--seed", "77"],
            ["sjsp-unknown", "--n", "15", "--M", "16384", "--trials", "2", "--seed", "55"],
        ):
            runs = [
                subprocess.run(base + args, capture_output=True, timeout=600)
                for _ in range(2)
            ]
            assert runs[0].returncode == 0 and runs[1].returncode == 0
            assert runs[0].stdout == runs[1].stdout, args
            # the records really carry results, not just matching bytes
            summary = json.loads(runs[0].stdout.decode().strip().splitlines()[-1])
            assert summary["summary"]["success_rate"] == 1.0

import logging
import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest

from charshift.algorithms import (
    MAX_REGISTER_DIM,
    _CERTIFICATE_STEPS,
    _certificate_width,
    best_convergent_denominator,
    best_convergent_fraction,
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
from charshift.errors import (
    DomainTooLarge,
    ModulusTooLargeForM,
    NoValidConvergent,
    RetriesExhausted,
)
from charshift.finite_field import (
    element_from_index,
    element_to_index,
    ff_arith,
    ff_neg,
    make_field,
    trace,
)
from charshift.number_theory import (
    _jacobi_row,
    euler_phi,
    factor_trial,
    gauss_sum_closed_form,
    jacobi,
    legendre,
)
from charshift.oracles import (
    field_oracle,
    jacobi_oracle,
    jacobi_unknown_oracle,
    legendre_oracle,
)
from charshift.qsim import StateVector, qft, trace_fourier_transform
from helpers import (
    equal_up_to_global_phase,
    jacobi_row_by_product,
    odd_squarefree_up_to,
    prepare_character_state_eager,
)


def test_solve_slsp_examples():
    rep = solve_slsp(7, legendre_oracle(7, shift=3), np.random.default_rng(0))
    assert rep.recovered_shift == 3
    rep = solve_slsp(3, legendre_oracle(3, shift=0), np.random.default_rng(1))
    assert rep.recovered_shift == 0
    assert rep.zero_branch_probability == pytest.approx(1 / 3)


def test_slsp_exact_distribution_p5():
    # mass 4/5 at the negated shift, 1/20 on each other outcome, any shift
    for s in range(5):
        zero_prob, dist = slsp_attempt_analysis(5, legendre_oracle(5, shift=s))
        assert zero_prob == pytest.approx(1 / 5, abs=1e-12)
        assert dist[(-s) % 5] == pytest.approx(4 / 5, abs=1e-12)
        rest = np.delete(dist, (-s) % 5)
        assert np.max(np.abs(rest - 1 / 20)) < 1e-12


def test_slsp_always_correct_many_seeds():
    oracle = legendre_oracle(13, shift=9)
    for seed in range(40):
        rep = solve_slsp(13, oracle, np.random.default_rng(seed))
        assert rep.recovered_shift == 9


def test_slsp_two_coherent_queries_per_attempt():
    # a non-direct single-attempt run consumes exactly two coherent queries
    for seed in range(30):
        oracle = legendre_oracle(11, shift=6)
        rep = solve_slsp(11, oracle, np.random.default_rng(seed))
        if rep.attempts == 1 and rep.exact_distribution is not None:
            assert rep.coherent_queries == 2
            assert oracle.phase_query_count == 2
            break
    else:
        pytest.fail("no single-attempt transform-branch run in 30 seeds")


def test_slsp_direct_branch_uses_one_query():
    # hunt a seed whose first attempt measures the zero value straight away
    for seed in range(500):
        oracle = legendre_oracle(3, shift=1)
        rep = solve_slsp(3, oracle, np.random.default_rng(seed))
        if rep.attempts == 1 and rep.exact_distribution is None:
            assert rep.recovered_shift == 1
            assert rep.coherent_queries == 1
            return
    pytest.fail("zero branch never sampled at p = 3")


def test_slsp_transform_checkpoint():
    # after the forward transform the y = 0 amplitude vanishes and the state
    # is a global phase times sum_{y != 0} w^(-ys) (y/p) |y> / sqrt(p-1)
    p, s = 13, 5
    _, prepared, _ = prepare_character_state(legendre_oracle(p, shift=s), p)
    state = qft(prepared)
    assert abs(state.amps[0]) < 1e-9
    expected = np.array(
        [0.0 + 0j]
        + [
            np.exp(-2j * np.pi * s * y / p) * legendre(y, p) / math.sqrt(p - 1)
            for y in range(1, p)
        ]
    )
    assert equal_up_to_global_phase(state, StateVector(expected), tol=1e-9)


def test_solve_sjsp_examples():
    m15 = factor_trial(15)
    rep = solve_sjsp(m15, jacobi_oracle(15, shift=7), np.random.default_rng(3))
    assert rep.recovered_shift == 7
    assert rep.exact_success_probability is None or rep.exact_success_probability > 0
    rep = solve_sjsp(m15, jacobi_oracle(15, shift=0), np.random.default_rng(4))
    assert rep.recovered_shift == 0
    rep = solve_sjsp(factor_trial(33), jacobi_oracle(33, shift=10), np.random.default_rng(5))
    assert rep.recovered_shift == 10
    assert rep.zero_branch_probability == pytest.approx(1 - 20 / 33)


def test_sjsp_exact_conditional_success():
    m15 = factor_trial(15)
    zero_prob, dist, layout = sjsp_attempt_analysis(m15, jacobi_oracle(15, shift=7))
    assert 1 - zero_prob == pytest.approx(8 / 15, abs=1e-12)
    correct = layout.index(tuple((-7) % pj for pj in m15.factors))
    assert dist[correct] == pytest.approx((2 / 3) * (4 / 5), abs=1e-12)


def test_sjsp_collapse_rate_statistics():
    oracle = jacobi_oracle(15, shift=2)
    rng = np.random.default_rng(12)
    accepted = sum(
        prepare_character_state(oracle, 15, rng)[0] for _ in range(400)
    )
    p = 8 / 15
    sigma = math.sqrt(400 * p * (1 - p))
    assert abs(accepted - 400 * p) < 3 * sigma


@pytest.mark.parametrize("make_oracle,dim", [
    (partial(legendre_oracle, 3, shift=1), 3),
    (partial(jacobi_oracle, 15, shift=2), 15),
    (partial(jacobi_unknown_oracle, 21, 1024, shift=4), 1024),
    (partial(legendre_oracle, 101, shift=5), 101),  # FFT uniform state not constant
    (partial(field_oracle, make_field(3, 2), shift=(1, 2)), 10),  # dummy slot at q
    (partial(jacobi_unknown_oracle, 21, 1 << 14, shift=4), 1 << 14),
    (partial(jacobi_unknown_oracle, 21, 1024, shift=4), 21),  # the sub-solve's register
    (partial(jacobi_unknown_oracle, 5, 89, shift=2), 89),  # nonzero imaginary parts
    (partial(jacobi_unknown_oracle, 21, 1132, shift=4), 1132),  # some are -0
    (partial(jacobi_unknown_oracle, 33, 2032, shift=7), 2032),  # some are -0
])
def test_lazy_zero_branch_matches_eager_preparation(make_oracle, dim):
    # seed 34 draws the 1/101 zero branch at p = 101
    assert_lazy_matches_eager(make_oracle, dim, range(64))


@pytest.mark.parametrize("make_oracle,dim", [
    (partial(jacobi_unknown_oracle, 105, 1 << 16, shift=4), 1 << 16),  # hidden-modulus
    (partial(jacobi_oracle, 15015, shift=2145), 15015),  # not a power of two
])
def test_lazy_preparation_matches_eager_at_benchmark_sizes(make_oracle, dim):
    assert_lazy_matches_eager(make_oracle, dim, range(8))


def test_lazy_field_preparation_matches_eager_with_nonzero_imaginary_parts():
    # q + 1 = 19^2 + 1 = 362 slots, where the uniform state has nonzero
    # imaginary parts; seed 416 draws the 1/362 zero branch
    make_oracle = partial(field_oracle, make_field(19, 2), shift=(3, 5))
    assert_lazy_matches_eager(make_oracle, 362, [*range(8), 416])


def assert_lazy_matches_eager(make_oracle, dim, seeds):
    def bits(prepared):
        accepted, state, zero_prob = prepared
        return accepted, state.amps.tobytes(), zero_prob

    branches = set()
    for seed in seeds:
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        oracle, ref_oracle = make_oracle(), make_oracle()
        got = prepare_character_state(oracle, dim, rng)
        assert bits(got) == bits(prepare_character_state_eager(ref_oracle, dim, ref_rng))
        # two coherent queries per accepted attempt, one per rejected one
        assert (oracle.phase_query_count, oracle.query_count) == (1 + got[0], 0)
        assert rng.random() == ref_rng.random()  # the same draws were taken
        branches.add(got[0])
    assert branches == {True, False}
    got = prepare_character_state(make_oracle(), dim)
    assert bits(got) == bits(prepare_character_state_eager(make_oracle(), dim))


def test_preparation_peak_memory_is_the_documented_bytes_per_slot():
    per_slot = int(re.search(r"peak near (\d+) bytes per slot",
                             prepare_character_state.__doc__).group(1))
    dim = 1 << 16
    oracle = jacobi_unknown_oracle(105, dim, shift=4)
    _, _, zero_prob = prepare_character_state(oracle, dim)  # caches the table and uniform state
    reject = next(s for s in range(64) if np.random.default_rng(s).random() < zero_prob)
    for rng, accepted in ((None, True), (np.random.default_rng(reject), False)):
        tracemalloc.start()
        try:
            assert prepare_character_state(oracle, dim, rng)[0] is accepted
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_slot * dim + (1 << 17)  # numpy's fixed 64 KiB cast buffer, headers


def test_solve_sqcp_examples():
    gf9 = make_field(3, 2)
    shift = (2, 1)  # X + 2
    rep = solve_sqcp(gf9, field_oracle(gf9, shift=shift), np.random.default_rng(6))
    assert rep.recovered_shift == shift
    gf25 = make_field(5, 2)
    rep = solve_sqcp(gf25, field_oracle(gf25, shift=(0, 0)), np.random.default_rng(7))
    assert rep.recovered_shift == (0, 0)


def test_sqcp_conditional_distribution_one_hot():
    gf9 = make_field(3, 2)
    shift = (2, 1)
    zero_prob, dist = sqcp_attempt_analysis(gf9, field_oracle(gf9, shift=shift))
    assert zero_prob == pytest.approx(1 / 10, abs=1e-12)
    target = element_to_index(gf9, ff_neg(gf9, shift))
    assert dist[target] == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.delete(dist, target)) < 1e-9


def test_zero_branch_success_keeps_no_transcript():
    # seed 3 measures the zero value on its first attempt and returns the
    # shift from it; no stage ran, so no exact distribution is recorded
    gf9 = make_field(3, 2)
    shift = (1, 2)
    rep = solve_sqcp(gf9, field_oracle(gf9, shift=shift), np.random.default_rng(3))
    assert rep.attempts == 1 and rep.exact_distribution is None
    assert rep.recovered_shift == shift


def test_sqcp_transform_checkpoint_matches_gauss_display():
    # right after the trace transform the state is
    # (G/q) sum_y chi(y) w^(Tr(-s y)) |y>  +  (1/sqrt(q)) |dummy>
    gf9 = make_field(3, 2)
    shift = (1, 2)
    _, prepared, _ = prepare_character_state(field_oracle(gf9, shift=shift), 10)
    state = trace_fourier_transform(prepared, gf9)
    g = gauss_sum_closed_form(gf9).value
    neg = ff_neg(gf9, shift)
    expected = np.zeros(10, dtype=complex)
    for y in range(9):
        elem = element_from_index(gf9, y)
        chi = {0: 0, 1: 1, -1: -1}[
            0 if not any(elem) else (1 if _is_square(gf9, elem) else -1)
        ]
        tr = trace(gf9, ff_arith(gf9, neg, elem, "mul"))
        expected[y] = (g / 9) * chi * np.exp(2j * np.pi * tr / 3)
    expected[9] = 1 / 3
    assert np.max(np.abs(state.amps - expected)) < 1e-9


def _is_square(spec, elem):
    for i in range(1, spec.q):
        cand = element_from_index(spec, i)
        if ff_arith(spec, cand, cand, "mul") == elem:
            return True
    return False


def test_sqcp_two_coherent_queries_per_attempt():
    gf9 = make_field(3, 2)
    for seed in range(30):
        oracle = field_oracle(gf9, shift=(1, 1))
        rep = solve_sqcp(gf9, oracle, np.random.default_rng(seed))
        if rep.attempts == 1 and rep.exact_distribution is not None:
            assert rep.coherent_queries == 2
            assert oracle.phase_query_count == 2
            break
    else:
        pytest.fail("no single-attempt transform-branch run in 30 seeds")


def test_sqcp_prime_field_agrees_with_prime_solver():
    gf7 = make_field(7, 1)
    a = solve_sqcp(gf7, field_oracle(gf7, shift=(4,)), np.random.default_rng(8))
    b = solve_slsp(7, legendre_oracle(7, shift=4), np.random.default_rng(8))
    assert a.recovered_shift == (4,)
    assert b.recovered_shift == 4
    # conditional final distribution is exact for the field route only
    _, dist = sqcp_attempt_analysis(gf7, field_oracle(gf7, shift=(4,)))
    assert dist[(7 - 4) % 7] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n,s", [(15, 2), (15, 0), (3, 1)])
def test_lemma_identity_examples(n, s):
    assert verify_jacobi_qft_lemma(factor_trial(n), s) < 1e-9


@pytest.mark.parametrize("shift", [2.5, 2.0, True, -1, 15])
def test_lemma_identity_refuses_a_shift_outside_z_n(shift):
    with pytest.raises(ValueError):
        verify_jacobi_qft_lemma(factor_trial(15), shift)


def test_lemma_identity_has_global_unit():
    # dropping the i^((n-1)^2/4) factor must break the identity for n = 3 mod 4
    n, s = 15, 2
    moduli = factor_trial(n)
    phi = euler_phi(moduli)
    vals = np.array([jacobi(x + s, n) for x in range(n)], dtype=np.float64)
    from charshift.qsim import qft

    after = qft(StateVector(vals / math.sqrt(phi)))
    ys = np.arange(n)
    bare = np.exp(-2j * np.pi * s * ys / n) * np.array(
        [jacobi(y, n) for y in range(n)]
    ) / math.sqrt(phi)
    assert np.max(np.abs(after.amps - bare)) > 0.1  # off by the unit i^49 = i
    assert np.max(np.abs(after.amps - 1j * bare)) < 1e-9


def test_tft_matrix_deviation_small():
    matrix_dev, unitary_dev = tft_matrix_deviation(make_field(3, 2))
    assert matrix_dev < 1e-12 and unitary_dev < 1e-12
    with pytest.raises(DomainTooLarge):  # q = 1031 > 2^10, refused before allocating
        tft_matrix_deviation(make_field(1031, 1))


def test_repeated_sampling_exact_multiple():
    cmp = repeated_sampling_comparison(factor_trial(15), 2, 15 * 64)
    assert cmp.l1_distance < 1e-9


def test_repeated_sampling_generic_m():
    cmp = repeated_sampling_comparison(factor_trial(15), 2, 1024)
    assert cmp.bound == pytest.approx(15 / 32)
    assert cmp.l1_distance <= cmp.bound
    assert sum(cmp.rf_distribution.values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(cmp.cf_distribution.values()) == pytest.approx(1.0, abs=1e-9)


def test_repeated_sampling_minimal_m():
    cmp = repeated_sampling_comparison(factor_trial(3), 0, 10)
    assert sum(cmp.rf_distribution.values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(cmp.cf_distribution.values()) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("shift", [1.5, 2.0, True, -1, 15])
def test_repeated_sampling_refuses_a_shift_outside_z_n(shift):
    with pytest.raises(ValueError):
        repeated_sampling_comparison(factor_trial(15), shift, 256)


def test_repeated_sampling_domain_limits():
    with pytest.raises(DomainTooLarge):
        repeated_sampling_comparison(factor_trial(15), 2, 1 << 17)
    with pytest.raises(ModulusTooLargeForM):
        repeated_sampling_comparison(factor_trial(15), 2, 225)


def test_best_convergent_examples():
    # an exactly representable fraction ends the convergent list at j/n
    big_m = 960  # 15 * 64
    for j in (1, 2, 4, 7, 11, 13):
        assert math.gcd(j, 15) == 1
        frac = best_convergent_fraction(j * 64, big_m)
        assert frac.denominator == 15 and frac.numerator == j
    assert best_convergent_denominator(0, 1024) == 1
    assert best_convergent_fraction(68, 256).denominator <= 16


def test_solve_unknown_modulus_examples():
    rep = solve_sjsp_unknown_n(
        2**14, jacobi_unknown_oracle(15, 2**14, shift=4), np.random.default_rng(9)
    )
    assert rep.recovered_modulus == 15 and rep.recovered_shift == 4
    assert rep.candidate_moduli
    rep = solve_sjsp_unknown_n(
        1024, jacobi_unknown_oracle(3, 1024, shift=0), np.random.default_rng(10)
    )
    assert rep.recovered_modulus == 3 and rep.recovered_shift == 0


@pytest.mark.parametrize("big_m", [10, 16])
def test_solve_unknown_modulus_on_the_smallest_domains(big_m):
    # Fewer than 20 + 3 points: the period filter and the prefix check both
    # stop at the domain edge.
    for shift in range(3):
        rep = solve_sjsp_unknown_n(big_m, jacobi_unknown_oracle(3, big_m, shift=shift),
                                   np.random.default_rng(shift))
        assert rep.recovered_modulus == 3 and rep.recovered_shift == shift


def test_solve_unknown_modulus_rejects_tiny_domain():
    with pytest.raises(NoValidConvergent):
        solve_sjsp_unknown_n(8, _DummyOracle(), np.random.default_rng(0))


class _DummyOracle:
    variant = "jacobi-unknown"
    domain_size = 8


def test_retries_exhausted_on_inconsistent_oracle():
    oracle = legendre_oracle(3, shift=0)
    oracle._point_fn = lambda x: 1  # no zero anywhere, so no shift verifies
    oracle._tabulate = lambda: np.ones(3, dtype=np.int8)
    with pytest.raises(RetriesExhausted):
        solve_slsp(3, oracle, np.random.default_rng(11))


@pytest.mark.parametrize("n,shift,table_shift", [(15, 4, 7), (105, 0, 52), (1155, 17, 400)])
def test_jacobi_table_of_another_shift_is_never_returned(n, shift, table_shift):
    # The coherent table hides table_shift while query() answers for shift, so
    # the peak candidate always fails the classical check.  Only the shift that
    # query() answers for could pass it; for composite n the measurement lands
    # there with small probability, and for these seeds never.
    moduli = factor_trial(n)
    oracle = jacobi_oracle(n, shift=shift)
    oracle._tabulate = partial(_jacobi_row, moduli.factors, table_shift)
    with pytest.raises(RetriesExhausted):
        solve_sjsp(moduli, oracle, np.random.default_rng(12))
    assert oracle.phase_query_count > 0


def test_solver_oracle_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_slsp(7, jacobi_oracle(15, shift=0), np.random.default_rng(0))
    with pytest.raises(ValueError):
        solve_sqcp(make_field(3, 2), legendre_oracle(7, shift=0), np.random.default_rng(0))
    # a known-modulus oracle over a multiple of n is refused before any query
    oracle = jacobi_oracle(105, shift=4)
    with pytest.raises(ValueError):
        solve_sjsp(factor_trial(15), oracle, np.random.default_rng(0))
    assert oracle.phase_query_count == 0 and oracle.query_count == 0


@pytest.mark.parametrize("analysis,instance,make_oracle", [
    (slsp_attempt_analysis, 11, partial(legendre_oracle, 7, shift=3)),
    (sjsp_attempt_analysis, factor_trial(15), partial(jacobi_oracle, 21, shift=3)),
    (sqcp_attempt_analysis, make_field(3, 2), partial(legendre_oracle, 7, shift=3)),
], ids=["slsp", "sjsp", "sqcp"])
def test_attempt_analysis_oracle_mismatch_rejected(analysis, instance, make_oracle):
    oracle = make_oracle()
    with pytest.raises(ValueError):
        analysis(instance, oracle)
    assert oracle.phase_query_count == 0 and oracle.query_count == 0


def test_field_oracle_over_another_modulus_is_refused():
    # X^2 + X + 2 and X^2 + 1 give two models of GF(9) whose element indices
    # disagree, so an oracle over one is refused, before any query, by a solve
    # or analysis over the other.
    fld, other = make_field(3, 2), make_field(3, 2, (2, 1, 1))
    for run in (partial(sqcp_attempt_analysis, fld),
                lambda oracle: solve_sqcp(fld, oracle, np.random.default_rng(0))):
        oracle = field_oracle(other, shift=(1, 1))
        with pytest.raises(ValueError):
            run(oracle)
        assert oracle.phase_query_count == 0 and oracle.query_count == 0


def test_solvers_refuse_a_missing_rng_before_any_query():
    # None, or anything else that is not a np.random.Generator
    for rng in (None, 42, np.random.RandomState(0), np.random.default_rng):
        for solve, instance, oracle in (
            (solve_slsp, 7, legendre_oracle(7, shift=3)),
            (solve_sjsp, factor_trial(15), jacobi_oracle(15, shift=2)),
            (solve_sjsp_unknown_n, 1024, jacobi_unknown_oracle(21, 1024, shift=4)),
            (solve_sqcp, make_field(3, 2), field_oracle(make_field(3, 2), shift=(1, 2))),
        ):
            with pytest.raises(ValueError):
                solve(instance, oracle, rng)
            assert oracle.phase_query_count == 0 and oracle.query_count == 0


@pytest.mark.parametrize("shift", [0, 1, 17, 52, 104])
def test_divisor_of_a_hidden_modulus_never_verifies(shift):
    # 35 divides the hidden 105.  Probes built by CRT from the factors of 35
    # accept wrong shifts of this oracle (694 of its 3675 (s, c) pairs), so a
    # sub-solve on a hidden modulus must check a prefix certificate instead.
    oracle = jacobi_unknown_oracle(105, 2**14, shift=shift)
    with pytest.raises(RetriesExhausted):
        solve_sjsp(factor_trial(35), oracle, np.random.default_rng(shift))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hidden_modulus_period_prefix_is_not_a_certificate(seed):
    # J(x + 12, 15) equals J(x + 192, 885) at every x < 15 (they first differ
    # at x = 16), so a check of one period of the guessed modulus would accept
    # shift 12.
    oracle = jacobi_unknown_oracle(885, 2**20, shift=192)
    with pytest.raises(RetriesExhausted):
        solve_sjsp(factor_trial(15), oracle, np.random.default_rng(seed))


def test_hidden_modulus_outside_the_certificate_is_refused():
    # n^2 >= M, or M beyond MAX_REGISTER_DIM where n may exceed 1023: both
    # are refused before any query.
    for moduli, oracle, error in (
        (factor_trial(35), jacobi_unknown_oracle(3, 35**2, shift=1), ModulusTooLargeForM),
        (factor_trial(15), jacobi_unknown_oracle(15, MAX_REGISTER_DIM + 1, shift=1),
         DomainTooLarge),
    ):
        with pytest.raises(error):
            solve_sjsp(moduli, oracle, np.random.default_rng(0))
        assert oracle.phase_query_count == 0 and oracle.query_count == 0


def _prefixes_distinct(ns, width):
    prefixes = set()
    total = 0
    for n in ns:
        row = jacobi_row_by_product(n).astype(np.int8)
        for prefix in row[(np.arange(n)[:, None] + np.arange(width)) % n]:
            prefixes.add(prefix.tobytes())
        total += n
    return len(prefixes) == total


def test_prefix_certificate_identifies_every_hidden_modulus_and_shift():
    # J(x + s, n) over x < width, for every odd square-free n up to a step's
    # last n (one below the next step's n) and every shift s: all distinct at
    # the step's width, not all distinct one point earlier at the step's own n.
    ns = odd_squarefree_up_to(math.isqrt(MAX_REGISTER_DIM - 1))
    assert ns[0] == _CERTIFICATE_STEPS[0][0] and ns[-1] == 1023
    lasts = [first - 1 for first, _ in _CERTIFICATE_STEPS[1:]] + [ns[-1]]
    previous = 0
    for (first, width), last in zip(_CERTIFICATE_STEPS, lasts):
        assert _prefixes_distinct([n for n in ns if n <= last], width)
        assert not _prefixes_distinct([n for n in ns if n <= first], width - 1)
        # The step starts at the smallest M that admits its n, and that domain
        # is longer than the certificate, so no prefix check runs off its end.
        if previous:
            assert _certificate_width(first**2) == previous
        assert _certificate_width(first**2 + 1) == width < first**2 + 1
        previous = width
    assert _certificate_width(MAX_REGISTER_DIM) == previous == 58


@pytest.mark.parametrize("big_m", [64, 1000, 2**14, 70000])
def test_hidden_modulus_solve_asks_each_point_once(big_m):
    # The period probes and every sub-solve's prefix check share one answer
    # memo, which lives for one solve: a second solve on the same oracle asks
    # its points again.
    rng = np.random.default_rng(big_m)
    for n in odd_squarefree_up_to(math.isqrt(big_m - 1))[::3]:
        shift = int(rng.integers(n))
        oracle = jacobi_unknown_oracle(n, big_m, shift=shift)
        asked, query = [], oracle.query
        oracle.query = lambda x: asked.append(x) or query(x)
        for _ in range(2):
            asked.clear()
            rep = solve_sjsp_unknown_n(big_m, oracle, rng)
            assert (rep.recovered_modulus, rep.recovered_shift) == (n, shift)
            assert len(set(asked)) == len(asked) == rep.classical_queries
            assert set(range(_certificate_width(big_m))) <= set(asked)


def test_admission_limit_refuses_before_any_query():
    assert MAX_REGISTER_DIM >= 1 << 16  # the largest register the benchmark solves
    big_m = MAX_REGISTER_DIM + 1
    oracle = jacobi_unknown_oracle(15, big_m, shift=0)
    with pytest.raises(DomainTooLarge):
        solve_sjsp_unknown_n(big_m, oracle, np.random.default_rng(0))
    assert oracle.phase_query_count == 0 and oracle.query_count == 0


def test_failed_attempts_logged_at_debug(caplog):
    caplog.set_level(logging.DEBUG, logger="charshift.algorithms")
    rep = solve_sjsp(factor_trial(15), jacobi_oracle(15, shift=10), np.random.default_rng(7))
    assert rep.attempts == 5
    assert [r.getMessage() for r in caplog.records] == [
        "attempt 1 on a 15-slot register, accepted branch: verify failed",
        "attempt 2 on a 15-slot register, accepted branch: verify failed",
        "attempt 3 on a 15-slot register, zero branch: not decoded",
        "attempt 4 on a 15-slot register, accepted branch: verify failed",
    ]
    caplog.clear()
    rep = solve_sjsp_unknown_n(256, jacobi_unknown_oracle(15, 256, shift=3),
                               np.random.default_rng(4))
    assert rep.candidate_moduli == [2, 15]
    assert [r.getMessage() for r in caplog.records] == [
        "attempt 1 on a 256-slot register, accepted branch: decode rejected",
    ]

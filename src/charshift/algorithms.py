"""End-to-end solvers for the four shifted-character problems.

Each solver is Las-Vegas: candidates recovered from the final measurement are
verified against classical oracle probes and wrong ones are retried, so a
returned shift is always correct and only the attempt count is random.  All
four share one attempt loop, which logs every failed attempt at DEBUG level
to the charshift.algorithms logger.  The module also provides exact,
sampling-free verifiers for the transform identity behind the
composite-modulus solver and for the relation between Fourier-sampling a
short register and its repetition on a larger one.
"""

import logging
import math
import threading
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache

import numpy as np

from . import finite_field as ff
from .errors import (
    DomainTooLarge,
    DomainViolation,
    EvenInput,
    ModulusTooLargeForM,
    NotSquareFree,
    NoValidConvergent,
    RetriesExhausted,
)
from .number_theory import (
    FactoredOddSquarefree,
    _is_integer,
    _jacobi_row,
    _legendre_table,
    convergents,
    crt_compose,
    euler_phi,
    factor_trial,
    gauss_sum_closed_form,
    jacobi,
)
from .oracles import (
    VARIANT_FIELD,
    VARIANT_JACOBI,
    VARIANT_JACOBI_UNKNOWN,
    VARIANT_LEGENDRE,
    ShiftOracle,
)
from .qsim import (
    RegisterLayout,
    StateVector,
    _check_norm,
    _trusted,
    apply_phase,
    basis_state,
    distribution,
    fourier_distribution,
    measure,
    normalized,
    permute_basis,
    qft,
    qft_factor,
    sample,
    trace_fourier_transform,
)

log = logging.getLogger(__name__)

MAX_ATTEMPTS = 64
PERIOD_PROBES = 20

# Largest register a solve or analysis may allocate; see prepare_character_state.
MAX_REGISTER_DIM = 1 << 20

# Leading points that identify a hidden modulus and shift, as (n, width) steps:
# from n on, width points tell apart J(x + c, m) for every odd square-free m
# below the next step's n and every shift c; see _verify_jacobi.
_CERTIFICATE_STEPS = ((3, 1), (5, 4), (11, 6), (17, 8), (19, 9), (29, 12), (37, 14),
                      (57, 15), (67, 22), (137, 26), (163, 34), (347, 38), (359, 46),
                      (417, 58))

# Largest field tft_matrix_deviation accepts; see its docstring.
TFT_MAX_Q = 1 << 10

# Exact distributions are only recorded up to this dimension.
_ANALYSIS_DIM_LIMIT = 4096


@dataclass
class SolveReport:
    """Bookkeeping for one solver run.

    coherent_queries and classical_queries are deltas of the oracle counters
    over the run.  zero_branch_probability is the exact chance that one
    state-preparation attempt measures a zero function value.  When the final
    register is desk-sized, exact_distribution holds the noiseless outcome
    distribution of the successful attempt's final measurement and
    exact_success_probability its value at the correct outcome.
    """

    recovered_shift: object
    recovered_modulus: int | None
    attempts: int
    coherent_queries: int
    classical_queries: int
    zero_branch_probability: float | None = None
    exact_success_probability: float | None = None
    exact_distribution: np.ndarray | None = None
    candidate_moduli: list = field(default_factory=list)


@dataclass(frozen=True)
class DistributionComparison:
    """Reduced-fraction vs continued-fraction sampling distributions."""

    rf_distribution: dict
    cf_distribution: dict
    l1_distance: float
    bound: float


# ---------------------------------------------------------------------------
# shared state preparation


def prepare_character_state(oracle: ShiftOracle, dim: int, rng=None):
    """One preparation attempt for the phase state c * sum f(x)|x>.

    Builds the uniform superposition, evaluates the oracle coherently, and
    measures whether the computed value is zero.  Returns a triple
    (accepted, state, zero_probability), state on dim slots either way:

    - accepted: the nonzero branch was measured; the sign of each branch has
      been written into the phase, the register uncomputed with a second
      coherent query, and the register discarded.  Slots beyond the oracle
      domain are dummy positions that keep amplitude with phase +1.
    - rejected: state is the collapsed zero-value branch.

    With rng=None nothing is sampled and the accepted branch is taken by
    projection, as the exact per-attempt analyses need.

    Every state here holds one result digit per slot, so the register is
    the oracle's int8 digit column beside the shared uniform amplitudes and
    their squared magnitudes, cached at 24 bytes per slot.  Every solve and
    analysis allocates its registers here.  The branch masses take 18 bytes
    per slot: the 16-byte (dim, 2) masses, a 1-byte mask and the digit
    column.  Once they are freed, the 16-byte output, 8-byte real values and
    the digit columns make the peak near 26 bytes per slot, 26 MiB at
    dim = 2^20.  The output's float64 parts are built in place, bit for bit
    as numpy's complex arithmetic gives them.  A dim above MAX_REGISTER_DIM
    raises DomainTooLarge before any allocation or query.
    """
    if dim > MAX_REGISTER_DIM:
        raise DomainTooLarge(f"register of dimension {dim} exceeds {MAX_REGISTER_DIM}")
    uniform, weights = _uniform_state(dim)
    digits = oracle.value_query_superposed(dim)
    masses = np.empty((dim, 2))  # the zero branch's, then those of digits 1 and 2
    # weights > 0, so w * True = w and w * False = +0.0 as np.where gives: the
    # sums of the full register x*3 + digit, bit for bit
    prob = zero_prob = float(np.sum(np.multiply(weights, digits == 0, out=masses.ravel()[:dim])))
    if accepted := rng is None or rng.random() >= zero_prob:
        for g in (1, 2):
            np.multiply(weights, digits == g, out=masses[:, g - 1])
        prob = float(np.sum(masses))
    del weights, masses
    # numpy divides complex a by real c as ((ar + ai*0), (ai - ar*0)) * (1/c); every
    # uniform real part is > 0, so both parts of a kept amplitude are products
    out = np.where(digits != 0 if accepted else digits == 0, uniform, 0)
    parts = out.view(np.float64)  # re, im, re, im, ...
    parts *= 1 / math.sqrt(prob)
    if not accepted:
        return False, _trusted(out), zero_prob
    # out is nonzero where digits is: no uniform amplitude is zero
    if np.any((oracle.value_query_superposed(dim, digits) != 0) & (digits != 0)):
        raise DomainViolation("the second query left the result register computed")
    values = (digits - 3 * (digits >> 1)).astype(np.float64)  # v of the digit v mod 3
    parts[0::2] *= values  # -1 is the phase of a -1 value
    parts[1::2] *= values
    # a complex division by the norm would give (im - re*0) / c, +0 and not -0
    # where re < 0; v * -0.0 is +0 there and -0, which keeps any zero, elsewhere
    parts[1::2] += np.multiply(values, -0.0, out=values)
    weights = np.square(np.abs(out, out=values), out=values)  # in values' spent buffer
    parts *= 1 / math.sqrt(_check_norm(float(np.sum(weights))))  # discarding divides the norm out
    return True, _trusted(out), zero_prob


# 24 bytes a slot: 16 of amplitude and 8 of squared magnitude.  So one
# uniform state of MAX_REGISTER_DIM slots fits, with room for the sub-solves'.
_UNIFORM_CACHE_BYTES = 32 << 20
_uniform_cache: dict = {}  # dim -> (amps, |amps|^2), the least recently used first
_uniform_lock = threading.Lock()


def _uniform_state(dim: int) -> tuple[np.ndarray, np.ndarray]:
    # The uniform amplitudes and their squared magnitudes, both frozen, so
    # shareable; np.full is not bit-equal (dim = 89)
    with _uniform_lock:
        entry = _uniform_cache.pop(dim, None)
        if entry is None:
            uniform = qft(basis_state(dim, 0)).amps
            weights = np.abs(uniform) ** 2
            weights.flags.writeable = False
            entry = uniform, weights
        _uniform_cache[dim] = entry
        while 24 * sum(_uniform_cache) > _UNIFORM_CACHE_BYTES:
            del _uniform_cache[next(iter(_uniform_cache))]
        return entry


# ---------------------------------------------------------------------------
# Fourier stages


def _unshifted_symbol(factors) -> np.ndarray:
    """prod_j (y_j/p_j) over the row-major layout of Z_p1 x ... x Z_pk, with a
    zero coordinate contributing +1: the phase a Fourier stage divides out."""
    out = np.ones(1)
    for p in factors:
        row = _legendre_table(p).astype(np.float64)
        row[0] = 1.0
        out = np.multiply.outer(out, row).ravel()
    return out


def _legendre_stage(state: StateVector, p: int) -> np.ndarray:
    """Transform, divide out the unshifted symbol, transform back; the outcome
    distribution."""
    state = qft(state)
    state = apply_phase(state, _unshifted_symbol((p,)))
    return distribution(qft(state, inverse=True))


def _sjsp_stage(state: StateVector, moduli: FactoredOddSquarefree) -> np.ndarray:
    """Split into prime registers and run the prime stage on each; the outcome
    distribution over the factored layout."""
    factors = moduli.factors
    layout = RegisterLayout(factors)
    xs = np.arange(moduli.n)
    state = permute_basis(
        state, np.ravel_multi_index(tuple(xs % pj for pj in factors), factors)
    )
    for axis in range(len(factors)):
        state = qft_factor(state, layout, axis)
    state = apply_phase(state, _unshifted_symbol(factors))
    for axis in range(len(factors)):
        state = qft_factor(state, layout, axis, inverse=True)
    return distribution(state)


def _sqcp_stage(state: StateVector, fld: ff.FieldSpec) -> np.ndarray:
    """Trace-transform, strip character phases, fold the dummy slot onto |0>;
    the outcome distribution."""
    q = fld.q
    state = trace_fourier_transform(state, fld)
    # chi(0) = 0 guarantees an empty |0> slot; the dummy amplitude lands there.
    assert abs(state.amps[0]) <= 1e-9, "slot y=0 unexpectedly occupied"
    # One phase pass puts chi(y) on 1..q-1 and the Gauss-sum unit on the dummy
    # slot q; swapping slots 0 and q then moves the dummy amplitude onto |0>.
    unit = gauss_sum_closed_form(fld).unit
    state = apply_phase(state, np.r_[unit.conjugate(), ff.character_table(fld)[1:], unit])
    state = permute_basis(state, np.r_[q, 1:q, 0])
    return distribution(trace_fourier_transform(state, fld, inverse=True))


# ---------------------------------------------------------------------------
# candidate verification against classical probes


def _verify_legendre(oracle: ShiftOracle, p: int, cand: int) -> bool:
    # The symbol vanishes at exactly one point, so f(-c) = 0 exactly when c = s.
    return oracle.query((-cand) % p) == 0


def _verify_field(oracle: ShiftOracle, fld: ff.FieldSpec, cand) -> bool:
    # chi vanishes only at 0, so f(-c) = 0 exactly when c = s.
    return oracle.query(ff.element_to_index(fld, ff.ff_neg(fld, cand))) == 0


def _certificate_width(big_m: int) -> int:
    """Leading points of a Z_M oracle that identify any admitted modulus and shift."""
    n_max = math.isqrt(big_m - 1)
    return max(width for n, width in _CERTIFICATE_STEPS if n <= n_max)


def _verify_jacobi(oracle: ShiftOracle, moduli: FactoredOddSquarefree, cand: int,
                   ask) -> bool:
    # ask answers the classical probes: oracle.query, or a solve's answer memo.
    n, factors = moduli.n, moduli.factors
    k = len(factors)
    if oracle.variant == VARIANT_JACOBI_UNKNOWN:
        # The oracle is J(x + s, n0) for a hidden n0 with n0^2 < M; n is only a
        # guess, and solve_sjsp admits only n^2 < M <= MAX_REGISTER_DIM.  So n
        # and n0 are odd, square-free and at most isqrt(M - 1), and for any
        # shifts J(x + c, n) = J(x + s, n0) at every x < _certificate_width(M)
        # only when (n, c) = (n0, s).  That width is below M for every M >= 10.
        width = _certificate_width(oracle.domain_size)
        return all(ask(x) == jacobi(x + cand, n) for x in range(width))
    # The factors p_0 < ... < p_(k-1) are checked in order, prime j with k - j
    # points x built by CRT: -c at p_j, 1 - c at every checked prime (nonzero
    # once c agrees with the shift there), and one t in [0, k - j) at every
    # later prime, a different t per point.  If c is wrong at p_j, each later
    # prime vanishes at one point at most, so some answer is nonzero; taking
    # only all-zero answers therefore accepts exactly the shift, after
    # k(k+1)/2 queries.  The argument needs p_(j+1) >= k - j; otherwise
    # (small factors, as in 255255) compare one full period.
    if any(factors[j + 1] < k - j for j in range(k - 1)):
        return all(ask(x) == jacobi(x + cand, n) for x in range(n))
    checked = []
    for j, p in enumerate(factors):
        head = checked + [-cand % p]
        for t in range(k - j):
            if ask(crt_compose(head + [t] * (k - j - 1), moduli)) != 0:
                return False
        checked.append((1 - cand) % p)
    return True


# ---------------------------------------------------------------------------
# solvers


def _check_oracle(oracle: ShiftOracle, variant: str, size: int):
    """Refuse, before any query, an oracle other than the one a solve names."""
    if oracle.variant != variant or oracle.domain_size != size:
        raise ValueError(f"oracle is not a {variant} instance over a domain of {size}")


def _check_field(fld: ff.FieldSpec, oracle: ShiftOracle):
    _check_oracle(oracle, VARIANT_FIELD, fld.q)
    if oracle.field_spec != fld:  # the same q under another modulus
        raise ValueError(f"oracle is over {oracle.field_spec}, not {fld}")


def _check_jacobi(moduli: FactoredOddSquarefree, oracle: ShiftOracle):
    n, big_m = moduli.n, oracle.domain_size
    if oracle.variant != VARIANT_JACOBI_UNKNOWN:
        _check_oracle(oracle, VARIANT_JACOBI, n)
    elif big_m > MAX_REGISTER_DIM:
        raise DomainTooLarge(f"hidden-modulus domain {big_m} exceeds {MAX_REGISTER_DIM}")
    elif n * n >= big_m:
        raise ModulusTooLargeForM(f"need n^2 < M but {n}^2 >= {big_m}")


def _las_vegas(oracle, dim, rng, stage, decode, decode_zero, verify):
    """The attempt loop shared by every solver.

    An attempt prepares the character state on a dim-slot register.  On the
    accepted branch stage(state) gives the final outcome distribution, sampled
    once, and the outcome goes through decode unless it is a dummy slot beyond
    the oracle domain.  On the zero branch the measured domain point goes through
    decode_zero, or the attempt is retried when decode_zero is None.  A
    decoder returns None to reject.  The first candidate that verify accepts
    is returned.  rng is drawn for preparation, then measurement; candidate
    checks are deterministic, though verify may run a nested solve.  Each
    failed attempt is logged at DEBUG level.  An rng that is not a
    np.random.Generator is refused before any query.
    """
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"a solve needs a np.random.Generator, not {rng!r}")
    q0, c0 = oracle.phase_query_count, oracle.query_count
    for attempt in range(1, MAX_ATTEMPTS + 1):
        accepted, state, zero_prob = prepare_character_state(oracle, dim, rng)
        exact = cand = None
        if accepted:
            probs = stage(state)
            if dim <= _ANALYSIS_DIM_LIMIT:
                exact = probs.copy()  # sample leaves the CDF in probs
            index = sample(probs, rng)
            if index >= oracle.domain_size:  # rounding noise on an emptied dummy slot
                reason = "dummy slot"
            else:
                cand, reason = decode(index), "decode rejected"
        elif decode_zero is None:
            reason = "not decoded"
        else:
            index = measure(state, rng)
            cand, reason = decode_zero(index), "decode rejected"
        if cand is not None:
            if verify(cand):
                # decoders are one-to-one, so a verified candidate's outcome
                # is the correct one
                prob = None if exact is None else float(exact[index])
                return SolveReport(
                    recovered_shift=cand,
                    recovered_modulus=None,
                    attempts=attempt,
                    coherent_queries=oracle.phase_query_count - q0,
                    classical_queries=oracle.query_count - c0,
                    zero_branch_probability=zero_prob,
                    exact_success_probability=prob,
                    exact_distribution=exact,
                )
            reason = "verify failed"
        log.debug("attempt %d on a %d-slot register, %s branch: %s", attempt, dim,
                  "accepted" if accepted else "zero", reason)
    raise RetriesExhausted(f"no verified candidate in {MAX_ATTEMPTS} attempts")


def solve_slsp(p: int, oracle: ShiftOracle, rng) -> SolveReport:
    """Recover the shift of a Legendre-symbol oracle over Z_p.

    Each attempt spends exactly two coherent queries.  A measured zero value
    (chance 1/p) reveals the shift directly; otherwise the collapsed phase
    state goes through the Fourier stage, whose final distribution puts mass
    (p-1)/p on the negated shift.
    """
    _check_oracle(oracle, VARIANT_LEGENDRE, p)

    def negate(x):
        return (-x) % p

    return _las_vegas(
        oracle, p, rng,
        stage=lambda state: _legendre_stage(state, p),
        decode=negate,
        decode_zero=negate,
        verify=lambda cand: _verify_legendre(oracle, p, cand),
    )


def solve_sjsp(moduli: FactoredOddSquarefree, oracle: ShiftOracle, rng) -> SolveReport:
    """Recover the shift of a Jacobi-symbol oracle with known square-free n.

    The zero branch of the preparation measurement carries no shift
    information for composite n, so it is simply retried; its acceptance
    probability is phi(n)/n.  After the Chinese-remainder relabeling the
    prime stage runs on every factor register and the negated per-factor
    outcomes recompose to the shift.  A candidate costs k(k+1)/2 classical
    queries for a known-modulus oracle over Z_n with k prime factors, or n
    when small factors rule out that check, and for a hidden-modulus oracle
    over Z_M the leading _certificate_width(M) points, 58 at most (see
    _verify_jacobi).  A hidden-modulus oracle is refused, before any query,
    when n^2 >= M or M > MAX_REGISTER_DIM, where that check proves nothing.
    """
    return _solve_sjsp(moduli, oracle, rng, oracle.query)


def _solve_sjsp(moduli: FactoredOddSquarefree, oracle: ShiftOracle, rng, ask) -> SolveReport:
    # solve_sjsp with the classical probes answered by ask, so that a
    # hidden-modulus solve can share one answer memo across its sub-solves.
    _check_jacobi(moduli, oracle)
    n = moduli.n
    layout = RegisterLayout(moduli.factors)

    def decode(index):
        coords = layout.coords(index)
        return crt_compose(tuple((-c) % pj for c, pj in zip(coords, moduli.factors)), moduli)

    return _las_vegas(
        oracle, n, rng,
        stage=lambda state: _sjsp_stage(state, moduli),
        decode=decode,
        decode_zero=None,
        verify=lambda cand: _verify_jacobi(oracle, moduli, cand, ask),
    )


def best_convergent_fraction(i: int, big_m: int) -> Fraction:
    """The largest-denominator convergent of i/M with denominator <= sqrt(M)."""
    limit = math.isqrt(big_m)
    best = Fraction(0, 1)
    for frac in convergents(i, big_m):
        if frac.denominator <= limit:
            best = frac
        else:
            break
    return best


def best_convergent_denominator(i: int, big_m: int) -> int:
    return best_convergent_fraction(i, big_m).denominator


def _period_holds(oracle: ShiftOracle, period: int, ask) -> bool:
    # A cheap filter that spares the sub-solve's coherent queries on wrong
    # candidates; the sub-solve's own check is what proves a modulus.  Both
    # read through the solve's answer memo ask, so the filter's leading points
    # are also the certificate's and each point is asked once.
    top = min(PERIOD_PROBES, oracle.domain_size - period)
    return all(ask(x) == ask(x + period) for x in range(top))


def solve_sjsp_unknown_n(big_m: int, oracle: ShiftOracle, rng) -> SolveReport:
    """Recover both the hidden modulus and the shift from a Z_M oracle.

    Fourier-samples the repeated phase state over Z_M, reads a modulus
    candidate off the continued-fraction expansion of outcome/M, validates it
    with periodicity probes and square-freeness, and hands the oracle to the
    known-modulus solver, whose prefix check accepts only the true modulus
    and shift.  Invalid candidates are resampled.  The period probes and every
    prefix check share one memo of oracle answers that lives for this solve,
    so no point is asked twice.
    """
    _check_oracle(oracle, VARIANT_JACOBI_UNKNOWN, big_m)
    if math.isqrt(big_m) < 3:
        raise NoValidConvergent(f"no odd modulus >= 3 fits below sqrt({big_m})")
    candidates, solved = [], []
    ask = cache(oracle.query)

    def decode(index):
        den = best_convergent_denominator(index, big_m)
        candidates.append(den)
        if den < 3 or den * den >= big_m:
            return None
        try:
            return factor_trial(den)
        except (EvenInput, NotSquareFree):
            return None

    def verify(moduli):
        if not _period_holds(oracle, moduli.n, ask):
            return False
        try:
            solved.append(_solve_sjsp(moduli, oracle, rng, ask))
        except RetriesExhausted:
            return False
        return True

    report = _las_vegas(
        oracle, big_m, rng,
        stage=fourier_distribution,
        decode=decode,
        decode_zero=None,
        verify=verify,
    )
    # The loop's candidate is the factored modulus; the shift, and the exact
    # figures, come from the known-modulus sub-solve that verified it.
    sub = solved[-1]
    return replace(
        report,
        recovered_shift=sub.recovered_shift,
        recovered_modulus=report.recovered_shift.n,
        exact_success_probability=sub.exact_success_probability,
        exact_distribution=sub.exact_distribution,
        candidate_moduli=candidates,
    )


def solve_sqcp(fld: ff.FieldSpec, oracle: ShiftOracle, rng) -> SolveReport:
    """Recover the shift of a quadratic-character oracle over F_q.

    The register has one extra dummy slot so the preparation succeeds with
    probability q/(q+1); the complementary branch reveals the shift outright.
    On the accepted branch the exact closed-form Gauss-sum unit folds the
    dummy amplitude onto |0>, making the conditional final distribution
    one-hot at the negated shift.
    """
    _check_field(fld, oracle)

    def negated_element(index):
        return ff.ff_neg(fld, ff.element_from_index(fld, index))

    return _las_vegas(
        oracle, fld.q + 1, rng,
        stage=lambda state: _sqcp_stage(state, fld),
        decode=negated_element,
        decode_zero=negated_element,
        verify=lambda cand: _verify_field(oracle, fld, cand),
    )


# ---------------------------------------------------------------------------
# exact per-attempt analysis (no sampling; consumes two coherent queries)


def slsp_attempt_analysis(p: int, oracle: ShiftOracle):
    """(zero-branch probability, conditional final outcome distribution)."""
    _check_oracle(oracle, VARIANT_LEGENDRE, p)
    _, state, zero_prob = prepare_character_state(oracle, p)
    return zero_prob, _legendre_stage(state, p)


def sjsp_attempt_analysis(moduli: FactoredOddSquarefree, oracle: ShiftOracle):
    """Same, with the distribution over the factored register layout."""
    _check_jacobi(moduli, oracle)
    _, state, zero_prob = prepare_character_state(oracle, moduli.n)
    return zero_prob, _sjsp_stage(state, moduli), RegisterLayout(moduli.factors)


def sqcp_attempt_analysis(fld: ff.FieldSpec, oracle: ShiftOracle):
    """(zero-branch probability, conditional final outcome distribution)."""
    _check_field(fld, oracle)
    _, state, zero_prob = prepare_character_state(oracle, fld.q + 1)
    return zero_prob, _sqcp_stage(state, fld)


# ---------------------------------------------------------------------------
# verifiers


def tft_matrix_deviation(fld: ff.FieldSpec) -> tuple[float, float]:
    """Compare the composed trace transform against its literal kernel.

    Returns (max entrywise deviation from q^(-1/2)[w_p^Tr(xy)], max deviation
    of U*U from the identity).  Columns are built by transforming every basis
    state, so this exercises the permutation + factor-transform composition.

    The composed and literal matrices are dense q x q complex128, 16*q^2
    bytes each, and the comparison makes temporaries of the same size: about
    16 MiB apiece at q = TFT_MAX_Q = 2^10, but 6.2 GB at q = 3^9.  The
    traces of the q^2 products x*y add about 100 MiB of integer temporaries
    at 2^10.  A larger q raises DomainTooLarge before anything is allocated.
    """
    q = fld.q
    if q > TFT_MAX_Q:
        raise DomainTooLarge(f"field of size {q} exceeds {TFT_MAX_Q}")
    composed = np.empty((q, q), dtype=np.complex128)
    for x in range(q):
        composed[:, x] = trace_fourier_transform(basis_state(q, x), fld).amps
    # The literal kernel takes Tr of every product x*y, independently of the
    # trace coordinates behind the transform.
    omega = np.exp(2j * np.pi / fld.p)
    roots = np.array([omega**k for k in range(fld.p)])
    digits = ff.digit_table(fld)
    kernel = roots[ff.trace(fld, ff._mul_digits(fld, digits[None, :], digits[:, None]))]
    kernel /= math.sqrt(q)
    matrix_dev = float(np.max(np.abs(composed - kernel)))
    unitary_dev = float(np.max(np.abs(composed.conj().T @ composed - np.eye(q))))
    return matrix_dev, unitary_dev


def _check_shift(shift, n: int):
    if not (_is_integer(shift) and 0 <= shift < n):
        raise ValueError(f"shift {shift!r} is not in Z_{n}")


def verify_jacobi_qft_lemma(moduli: FactoredOddSquarefree, shift: int) -> float:
    """Max amplitude deviation between the transformed character state and
    its closed form i^((n-1)^2/4) * sum w_n^(-sy) (y/n) |y> / sqrt(phi(n)).
    ValueError for a shift outside Z_n."""
    n = moduli.n
    _check_shift(shift, n)
    phi = euler_phi(moduli)
    vals = _jacobi_row(moduli.factors, shift).astype(np.float64)
    after = qft(StateVector(vals / math.sqrt(phi)))
    unit = gauss_sum_closed_form(moduli).unit
    ys = np.arange(n, dtype=np.int64)
    symbols = _jacobi_row(moduli.factors).astype(np.float64)
    rhs = unit * np.exp(-2j * np.pi / n * ((shift * ys) % n)) * symbols / math.sqrt(phi)
    return float(np.max(np.abs(after.amps - rhs)))


def repeated_sampling_comparison(
    moduli: FactoredOddSquarefree, shift: int, big_m: int
) -> DistributionComparison:
    """Exact L1 distance between fraction-valued sampling distributions.

    The short register's outcomes reduce to y/n in lowest terms; the
    repeated register's outcomes map through the bounded-denominator
    convergent rule.  Both distributions are computed from noiseless
    statevectors, with n/sqrt(M) reported as the reference scale.  ValueError
    for a shift outside Z_n.
    """
    n = moduli.n
    _check_shift(shift, n)
    if big_m > 1 << 16:
        raise DomainTooLarge(f"M = {big_m} exceeds the exact-computation cap 2^16")
    if n * n >= big_m:
        raise ModulusTooLargeForM(f"need n^2 < M but {n}^2 >= {big_m}")
    phi = euler_phi(moduli)

    vals = _jacobi_row(moduli.factors, shift).astype(np.float64)
    rf: dict = {}
    for y, prob in enumerate(distribution(qft(StateVector(vals / math.sqrt(phi))))):
        frac = Fraction(y, n)
        rf[frac] = rf.get(frac, 0.0) + float(prob)

    reps = _jacobi_row(moduli.factors, shift, big_m).astype(np.float64)
    cf: dict = {}
    for i, prob in enumerate(distribution(qft(normalized(reps)))):
        frac = best_convergent_fraction(i, big_m)
        cf[frac] = cf.get(frac, 0.0) + float(prob)

    l1 = sum(abs(rf.get(k, 0.0) - cf.get(k, 0.0)) for k in set(rf) | set(cf))
    return DistributionComparison(
        rf_distribution=rf,
        cf_distribution=cf,
        l1_distance=float(l1),
        bound=n / math.sqrt(big_m),
    )

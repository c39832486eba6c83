"""Property tests: the array kernels against their literal definitions."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charshift.algorithms import (
    MAX_REGISTER_DIM,
    _certificate_width,
    _uniform_state,
    _unshifted_symbol,
    _verify_field,
    _verify_jacobi,
    _verify_legendre,
    prepare_character_state,
)
from charshift.finite_field import (
    _mul_digits,
    character_table,
    digit_table,
    element_from_index,
    element_to_index,
    ff_arith,
    is_irreducible,
    make_field,
    quadratic_character,
    trace,
    trace_coordinates,
)
from charshift.number_theory import (
    _jacobi_row,
    _legendre_table,
    factor_trial,
    gauss_sum_bruteforce,
    is_prime,
    jacobi,
    legendre,
)
from charshift.oracles import (
    field_oracle,
    jacobi_oracle,
    jacobi_unknown_oracle,
    legendre_oracle,
)
from charshift.qsim import (
    RegisterLayout,
    StateVector,
    apply_phase,
    basis_state,
    measure,
    normalized,
    permute_basis,
    project,
    qft,
    qft_factor,
    trace_fourier_transform,
)
from helpers import (
    char_by_enumeration,
    char_by_euler,
    field_product_by_long_division,
    jacobi_full_period_verdict,
    jacobi_row_by_product,
    legendre_table,
)

ODD_PRIMES = [p for p in range(3, 2000) if is_prime(p)]
FIELDS = [(3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 3), (11, 2), (3, 4), (5, 3)]
ALL_FIELDS = FIELDS + [(2, 3), (2, 4)]

checked = settings(deadline=None, max_examples=60)


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    return normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def odd_squarefree(max_n, max_factors=4):
    """Odd square-free n <= max_n with one to max_factors distinct prime factors."""

    def product(primes):
        n = 1
        for p in primes:
            if n * p <= max_n:
                n *= p
        return n

    primes = st.sampled_from([p for p in ODD_PRIMES[:30] if p <= max_n])
    return st.lists(primes, min_size=1, max_size=max_factors, unique=True).map(product)


@checked
@given(
    dims=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    data=st.data(),
    inverse=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_qft_factor_matches_literal_kernel(dims, data, inverse, seed):
    axis = data.draw(st.integers(0, len(dims) - 1))
    layout = RegisterLayout(tuple(dims))
    state = random_state(layout.total, seed)
    d = dims[axis]
    ks = np.arange(d)
    sign = -1 if inverse else 1
    kernel = np.exp(sign * 2j * np.pi * np.outer(ks, ks) / d) / math.sqrt(d)
    tensor = np.moveaxis(state.amps.reshape(dims), axis, 0)
    want = np.moveaxis(np.einsum("yx,x...->y...", kernel, tensor), 0, axis).reshape(-1)
    got = qft_factor(state, layout, axis, inverse=inverse).amps
    assert np.max(np.abs(got - want)) < 1e-9


@checked
@given(
    shape=st.sampled_from(FIELDS),
    pad=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_trace_transform_roundtrip_keeps_dummy_slots(shape, pad, seed):
    fld = make_field(*shape)
    state = random_state(fld.q + pad, seed)
    out = trace_fourier_transform(state, fld)
    assert np.array_equal(out.amps[fld.q:], state.amps[fld.q:])
    back = trace_fourier_transform(out, fld, inverse=True)
    assert np.array_equal(back.amps[fld.q:], state.amps[fld.q:])
    assert np.max(np.abs(back.amps - state.amps)) < 1e-9


def assert_fresh_frozen_unit(out, *sources):
    """A kernel's output: read-only, unshared with its inputs, of unit norm."""
    assert out.amps.dtype == np.complex128 and out.amps.ndim == 1
    assert not out.amps.flags.writeable
    for source in sources:
        assert not np.shares_memory(out.amps, source)
    assert abs(float(np.sum(np.abs(out.amps) ** 2)) - 1.0) <= 1e-9


@checked
@given(dims=st.lists(st.integers(1, 7), min_size=1, max_size=3), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_register_kernels_freeze_fresh_unit_outputs(dims, data, seed):
    layout = RegisterLayout(tuple(dims))
    dim = layout.total
    state = random_state(dim, seed)
    rng = np.random.default_rng(seed)
    assert_fresh_frozen_unit(basis_state(dim, data.draw(st.integers(0, dim - 1))))
    for inverse in (False, True):
        assert_fresh_frozen_unit(qft(state, inverse=inverse), state.amps)
        axis = data.draw(st.integers(0, len(dims) - 1))
        assert_fresh_frozen_unit(qft_factor(state, layout, axis, inverse=inverse), state.amps)
    phases = np.exp(2j * np.pi * rng.random(dim))
    assert_fresh_frozen_unit(apply_phase(state, phases), state.amps, phases)
    assert_fresh_frozen_unit(permute_basis(state, rng.permutation(dim)), state.amps)
    mask = rng.random(dim) < 0.5
    _, kept = project(state, mask)
    if kept is not None:
        assert_fresh_frozen_unit(kept, state.amps)


@checked
@given(shape=st.sampled_from(FIELDS), pad=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_trace_transform_freezes_fresh_unit_outputs(shape, pad, seed):
    fld = make_field(*shape)
    state = random_state(fld.q + pad, seed)
    for inverse in (False, True):
        assert_fresh_frozen_unit(trace_fourier_transform(state, fld, inverse), state.amps)


@checked
@given(n=odd_squarefree(500), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_result_register_kernels_freeze_fresh_unit_outputs(n, data, seed):
    oracle = jacobi_oracle(n, shift=data.draw(st.integers(0, n - 1)))
    dim = data.draw(st.integers(n, n + 3))  # a unit is in range
    computed = oracle.value_query_superposed(dim)
    cleared = oracle.value_query_superposed(dim, computed)
    for digits in (computed, cleared):
        assert digits.dtype == np.int8 and digits.shape == (dim,)
        assert not digits.flags.writeable
    assert not np.shares_memory(cleared, computed)
    assert not np.shares_memory(oracle.value_query_superposed(dim), computed)
    uniform = _uniform_state(dim).amps
    for rng in (None, np.random.default_rng(seed)):
        _, prepared, _ = prepare_character_state(oracle, dim, rng)
        assert_fresh_frozen_unit(prepared, uniform)


@checked
@given(dim=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.5, 2.0).filter(lambda c: abs(c * c - 1) > 1e-6))
def test_public_constructors_copy_and_check(dim, seed, scale):
    source = np.array(random_state(dim, seed).amps)
    kept = source.copy()
    for state in (StateVector(source), normalized(source)):
        assert not state.amps.flags.writeable
        assert not np.shares_memory(state.amps, source)
    state = StateVector(source)
    source[:] = 0.5
    assert np.array_equal(state.amps, kept)
    with pytest.raises(ValueError):
        StateVector(kept * scale)


@checked
@given(p=st.sampled_from(ODD_PRIMES))
def test_legendre_table_matches_enumeration_and_symbol(p):
    table = _legendre_table(p)
    assert np.array_equal(table, legendre_table(p))
    assert table.tolist() == [legendre(y, p) for y in range(p)]


@checked
@given(n=odd_squarefree(400), data=st.data())
def test_jacobi_row_is_the_scalar_symbol_over_any_size(n, data):
    s = data.draw(st.integers(0, n - 1))
    size = data.draw(st.one_of(st.none(), st.integers(0, 3 * n + 5), st.integers(0, 5000)))
    row = _jacobi_row(factor_trial(n).factors, s, size)
    assert row.dtype == np.int8
    assert row.tolist() == [jacobi(x + s, n) for x in range(n if size is None else size)]


@checked
@given(n=odd_squarefree(20000), data=st.data(), pad=st.integers(0, 3))
def test_jacobi_oracle_table_is_the_scalar_symbol(n, data, pad):
    s = data.draw(st.integers(0, n - 1))
    values = jacobi_oracle(n, shift=s)._values(n + pad)
    assert values[:n].tolist() == [jacobi(x + s, n) for x in range(n)]
    assert (values[n:] == 1).all()  # slots beyond the domain


@checked
@given(n=odd_squarefree(1500), data=st.data(), pad=st.integers(0, 3))
def test_jacobi_unknown_oracle_table_is_the_scalar_symbol(n, data, pad):
    s = data.draw(st.integers(0, n - 1))
    big_m = n * n + 1 + data.draw(st.integers(0, 2 * n))  # multiples of n and not
    values = jacobi_unknown_oracle(n, big_m, shift=s)._values(big_m + pad)
    # jacobi reduces its argument mod n first, so one call per residue gives
    # jacobi(x + s, n) at every x in Z_M.
    symbol = np.array([jacobi(y, n) for y in range(n)])
    assert np.array_equal(values[:big_m], symbol[(np.arange(big_m) + s) % n])
    assert (values[big_m:] == 1).all()


@checked
@given(n=odd_squarefree(300000, max_factors=5), data=st.data())
def test_jacobi_crt_check_accepts_exactly_the_shift(n, data):
    moduli = factor_trial(n)
    k = len(moduli.factors)
    s = data.draw(st.integers(0, n - 1))
    p = data.draw(st.sampled_from(moduli.factors))
    cand = data.draw(st.one_of(
        st.just(s),
        st.integers(0, n - 1),
        st.integers(1, p - 1).map(lambda t: (s + t * (n // p)) % n),  # wrong at p only
    ))
    oracle = jacobi_oracle(n, shift=s)
    accepted = _verify_jacobi(oracle, moduli, cand, oracle.query)
    assert accepted == jacobi_full_period_verdict(n, s, cand) == (cand == s)
    if accepted:
        assert oracle.query_count == k * (k + 1) // 2
    else:
        assert 1 <= oracle.query_count <= k * (k + 1) // 2


def test_jacobi_check_falls_back_to_a_full_period():
    # 255255 = 3*5*7*11*13*17: the six points for p = 3 need six distinct
    # residues at p = 5, so the check compares one full period.
    n, s = 255255, 1234
    moduli = factor_trial(n)
    oracle = jacobi_oracle(n, shift=s)
    assert _verify_jacobi(oracle, moduli, s, oracle.query)
    assert oracle.query_count == n
    wrong = (s + n // 3) % n  # agrees with s at every prime but 3
    assert not _verify_jacobi(oracle, moduli, wrong, oracle.query)


@checked
@given(p=st.sampled_from(ODD_PRIMES), data=st.data())
def test_legendre_zero_probe_accepts_exactly_the_shift(p, data):
    s = data.draw(st.integers(0, p - 1))
    cand = data.draw(st.one_of(st.just(s), st.integers(0, p - 1)))
    oracle = legendre_oracle(p, shift=s)
    same_function = np.array_equal(np.roll(legendre_table(p), -s),
                                   np.roll(legendre_table(p), -cand))
    assert _verify_legendre(oracle, p, cand) == same_function == (cand == s)
    assert oracle.query_count == 1


@checked
@given(shape=st.sampled_from(FIELDS), data=st.data())
def test_field_zero_probe_accepts_exactly_the_shift(shape, data):
    fld = make_field(*shape)
    i = data.draw(st.integers(0, fld.q - 1))
    j = data.draw(st.one_of(st.just(i), st.integers(0, fld.q - 1)))
    s, cand = element_from_index(fld, i), element_from_index(fld, j)
    oracle = field_oracle(fld, shift=s)
    chi = char_by_enumeration(fld)

    def shifted(c):
        return [chi[element_to_index(fld, ff_arith(fld, element_from_index(fld, x), c, "add"))]
                for x in range(fld.q)]

    assert _verify_field(oracle, fld, cand) == (shifted(cand) == shifted(s)) == (cand == s)
    assert oracle.query_count == 1


@checked
@given(n=odd_squarefree(1023), data=st.data())
def test_hidden_modulus_prefix_check_accepts_exactly_the_modulus_and_shift(n, data):
    big_m = data.draw(st.integers(n * n + 1, MAX_REGISTER_DIM))
    s = data.draw(st.integers(0, n - 1))
    guess = data.draw(st.one_of(
        st.just(n),
        st.sampled_from(factor_trial(n).factors),  # a divisor of the hidden modulus
        odd_squarefree(math.isqrt(big_m - 1)),
    ))
    cand = data.draw(st.one_of(st.just(s % guess), st.integers(0, guess - 1)))
    oracle = jacobi_unknown_oracle(n, big_m, shift=s)
    xs = np.arange(big_m)
    whole_domain = np.array_equal(jacobi_row_by_product(n)[(xs + s) % n],
                                  jacobi_row_by_product(guess)[(xs + cand) % guess])
    accepted = _verify_jacobi(oracle, factor_trial(guess), cand, oracle.query)
    assert accepted == whole_domain == ((guess, cand) == (n, s))
    assert oracle.query_count <= _certificate_width(big_m)
    if accepted:
        assert oracle.query_count == _certificate_width(big_m)


def random_digits(dim, seed):
    return np.random.default_rng(seed).integers(0, 3, size=dim, dtype=np.int8)


@checked
@given(n=odd_squarefree(2000), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_entangled_value_query_is_an_involution(n, data, seed):
    s = data.draw(st.integers(0, n - 1))
    base = data.draw(st.integers(1, n + 3))
    oracle = jacobi_oracle(n, shift=s)
    digits = random_digits(base, seed)
    once = oracle.value_query_superposed(base, digits)
    # digit <- (value - digit) mod 3, written out index by index
    values = [jacobi(x + s, n) if x < n else 1 for x in range(base)]
    assert once.tolist() == [(v - g) % 3 for v, g in zip(values, digits.tolist())]
    twice = oracle.value_query_superposed(base, once)
    assert np.array_equal(twice, digits)
    assert oracle.phase_query_count == 2


@checked
@given(n=odd_squarefree(37), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_plain_value_query_per_base_and_shared_uniform_state(n, data, seed):
    big_m = data.draw(st.integers(n * n + 1, 1500))
    s = data.draw(st.integers(0, n - 1))
    oracle = jacobi_unknown_oracle(n, big_m, shift=s)
    # base M, base n and a base past the domain, in any order, on one oracle
    bases = data.draw(st.permutations([big_m, n, big_m + data.draw(st.integers(1, 3))]))
    for base in bases:
        once = oracle.value_query_superposed(base)
        # a cleared register takes value mod 3, written out index by index
        assert once.tolist() == [(jacobi(x + s, n) if x < big_m else 1) % 3 for x in range(base)]
        twice = oracle.value_query_superposed(base, once)
        assert not np.any(twice)
        digits = random_digits(base, seed)
        assert np.array_equal(oracle.value_query_superposed(base, digits), (once - digits) % 3)
    assert oracle.phase_query_count == 9

    base = bases[0]
    uniform = _uniform_state(base)
    assert not uniform.amps.flags.writeable
    assert uniform.amps.tobytes() == qft(basis_state(base, 0)).amps.tobytes()
    for rng in (None, np.random.default_rng(seed)):
        _, prepared, _ = prepare_character_state(oracle, base, rng)
        assert not np.shares_memory(prepared.amps, uniform.amps)
    assert _uniform_state(base) is uniform


@checked
@given(n=odd_squarefree(20000))
def test_ring_gauss_bruteforce_is_the_sequential_scalar_sum(n):
    want = sum(jacobi(x, n) * cmath.exp(2j * cmath.pi * x / n) for x in range(n))
    assert gauss_sum_bruteforce(factor_trial(n)) == want


@checked
@given(primes=st.lists(st.sampled_from(ODD_PRIMES[:8]), min_size=1, max_size=3, unique=True))
def test_unshifted_symbol_is_product_of_legendre_symbols(primes):
    factors = tuple(sorted(primes))
    layout = RegisterLayout(factors)
    want = [
        math.prod(legendre(c, p) if c else 1 for c, p in zip(layout.coords(i), factors))
        for i in range(layout.total)
    ]
    assert _unshifted_symbol(factors).tolist() == want


@checked
@given(shape=st.sampled_from(ALL_FIELDS), data=st.data())
def test_vectorised_multiply_matches_scalar(shape, data):
    fld = make_field(*shape)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, fld.q - 1), st.integers(0, fld.q - 1)),
                               min_size=1, max_size=20))
    digits = digit_table(fld)
    xs, ys = (np.array(col) for col in zip(*pairs))
    got = _mul_digits(fld, digits[xs], digits[ys]).tolist()
    for (x, y), row in zip(pairs, got):
        want = ff_arith(fld, element_from_index(fld, x), element_from_index(fld, y), "mul")
        assert tuple(row) == want
    # broadcasting: an outer product, and one row against many
    outer = _mul_digits(fld, digits[xs][:, None], digits[ys][None, :])
    assert outer.shape == (len(pairs), len(pairs), fld.r)
    assert np.diagonal(outer).T.tolist() == got
    assert _mul_digits(fld, digits[xs], digits[ys[0]]).tolist() == outer[:, 0].tolist()


@checked
@given(shape=st.sampled_from(ALL_FIELDS), data=st.data())
def test_scalar_multiply_matches_long_division(shape, data):
    fld = make_field(*shape)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, fld.q - 1), st.integers(0, fld.q - 1)),
                               min_size=1, max_size=20))
    for x, y in pairs:
        a, b = element_from_index(fld, x), element_from_index(fld, y)
        assert ff_arith(fld, a, b, "mul") == field_product_by_long_division(fld, a, b)


@checked
@given(shape=st.sampled_from(FIELDS))
def test_character_table_matches_enumeration_and_scalar(shape):
    fld = make_field(*shape)
    table = character_table(fld)
    assert table.dtype == np.int8 and not table.flags.writeable
    assert table.tolist() == char_by_enumeration(fld)
    assert table.tolist() == [
        quadratic_character(fld, element_from_index(fld, i)) for i in range(fld.q)
    ]


ODD_PRIMES_TO_20K = [p for p in range(3, 20_000) if is_prime(p)]


def random_odd_field(data, min_q=3):
    """A field of odd characteristic with min_q to 20000 elements and a random
    modulus: the first monic irreducible at or after a drawn one, in index order."""
    r = data.draw(st.integers(1, 9))
    p = data.draw(st.sampled_from([p for p in ODD_PRIMES_TO_20K if min_q <= p**r <= 20_000]))
    start = data.draw(st.integers(0, p**r - 1))
    for k in range(p**r):
        index = (start + k) % p**r
        modulus = tuple(index // p**j % p for j in range(r)) + (1,)
        if is_irreducible(p, modulus):
            return make_field(p, r, modulus)
    raise AssertionError("every degree has a monic irreducible")


@checked
@given(data=st.data())
def test_character_is_euler_criterion_table_and_legendre(data):
    fld = random_odd_field(data)
    table = character_table(fld)
    for i in data.draw(st.lists(st.integers(0, fld.q - 1), min_size=1, max_size=20)):
        x = element_from_index(fld, i)
        chi = quadratic_character(fld, x)
        assert chi == char_by_euler(fld, x) == table[i]
        if fld.r == 1:
            assert chi == legendre(x[0], fld.p)


@checked
@given(data=st.data())
def test_character_is_multiplicative_on_random_pairs(data):
    fld = random_odd_field(data, min_q=3**6 + 1)  # past the exhaustive test's fields
    index = st.integers(0, fld.q - 1)
    for i, j in data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=20)):
        a, b = element_from_index(fld, i), element_from_index(fld, j)
        chi_ab = quadratic_character(fld, ff_arith(fld, a, b, "mul"))
        assert chi_ab == quadratic_character(fld, a) * quadratic_character(fld, b)


@checked
@given(shape=st.sampled_from(ALL_FIELDS), data=st.data())
def test_trace_coordinates_row_is_trace_of_basis_multiples(shape, data):
    fld = make_field(*shape)
    idx = data.draw(st.integers(0, fld.q - 1))
    x = element_from_index(fld, idx)
    powers = [element_from_index(fld, fld.p**i) for i in range(fld.r)]  # X^i
    want = [int(trace(fld, ff_arith(fld, x, xi, "mul"))) for xi in powers]
    assert trace_coordinates(fld)[idx].tolist() == want


@checked
@given(dim=st.integers(1, 1 << 16), kind=st.sampled_from(["sparse", "dense", "fourier"]),
       seed=st.integers(0, 2**32 - 1))
def test_measure_draws_what_generator_choice_draws(dim, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "dense":
        state = random_state(dim, seed)
    else:  # a few occupied slots, or their Fourier transform
        amps = np.zeros(dim, dtype=np.complex128)
        occupied = rng.choice(dim, size=min(dim, 3), replace=False)
        amps[occupied] = rng.normal(size=occupied.size) + 1j * rng.normal(size=occupied.size)
        state = normalized(amps) if kind == "sparse" else qft(normalized(amps))
    probs = np.abs(state.amps) ** 2
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    assert measure(state, ours) == theirs.choice(dim, p=probs / float(probs.sum()))
    assert ours.random() == theirs.random()  # the same draws were taken

"""Property tests: the array kernels against their literal definitions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charshift.algorithms import _legendre_table, _unshifted_symbol
from charshift.errors import SingularTraceMatrix
from charshift.finite_field import (
    FieldSpec,
    _mul_digits,
    character_table,
    digit_table,
    element_from_index,
    ff_arith,
    make_field,
    quadratic_character,
    trace,
    trace_coordinates,
)
from charshift.number_theory import is_prime, legendre
from charshift.qsim import (
    RegisterLayout,
    basis_state,
    normalized,
    qft_factor,
    trace_fourier_transform,
)
from helpers import char_by_enumeration, legendre_table

ODD_PRIMES = [p for p in range(3, 2000) if is_prime(p)]
FIELDS = [(3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 3), (11, 2), (3, 4), (5, 3)]
ALL_FIELDS = FIELDS + [(2, 3), (2, 4)]

checked = settings(deadline=None, max_examples=60)


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    return normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


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


@checked
@given(p=st.sampled_from(ODD_PRIMES))
def test_legendre_table_matches_enumeration_and_symbol(p):
    table = _legendre_table(p)
    assert np.array_equal(table, legendre_table(p))
    assert table.tolist() == [legendre(y, p) for y in range(p)]


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


@checked
@given(shape=st.sampled_from(ALL_FIELDS), data=st.data())
def test_trace_coordinates_row_is_trace_of_basis_multiples(shape, data):
    fld = make_field(*shape)
    idx = data.draw(st.integers(0, fld.q - 1))
    x = element_from_index(fld, idx)
    powers = [element_from_index(fld, fld.p**i) for i in range(fld.r)]  # X^i
    want = [int(trace(fld, ff_arith(fld, x, xi, "mul"))) for xi in powers]
    assert trace_coordinates(fld)[idx].tolist() == want


@pytest.mark.parametrize("bad", [
    FieldSpec(3, 2, (2, 0, 1)),  # X^2 + 2 = (X - 1)(X + 1): Tr(X) leaves Z_3
    FieldSpec(2, 2, (0, 1, 1)),  # X^2 + X = X(X + 1): traces in Z_2, rows repeat
])
def test_singular_spec_is_refused_by_the_trace_tables(bad):
    with pytest.raises(SingularTraceMatrix):
        trace_coordinates(bad)
    with pytest.raises(SingularTraceMatrix):
        trace_fourier_transform(basis_state(bad.q, 0), bad)

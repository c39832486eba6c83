import math

import numpy as np
import pytest

from charshift.errors import DimensionMismatch, NonUnitPhase, NotBijective
from charshift.finite_field import make_field
from charshift.qsim import (
    RegisterLayout,
    StateVector,
    apply_phase,
    basis_state,
    distribution,
    measure,
    normalized,
    permute_basis,
    project,
    qft,
    qft_factor,
    trace_fourier_transform,
    _trusted,
)
from helpers import dft_direct, equal_up_to_global_phase


def random_state(dim, seed=0):
    rng = np.random.default_rng(seed)
    return normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def test_basis_state():
    s = basis_state(5, 0)
    assert s.dim == 5 and s.amps[0] == 1
    assert basis_state(7, 3).amps[3] == 1
    assert basis_state(1, 0).amps[0] == 1  # degenerate single-slot register
    with pytest.raises(ValueError):
        basis_state(5, 5)
    with pytest.raises(ValueError):
        basis_state(4, 1.5)
    assert basis_state(4, np.int64(2)).amps[2] == 1


def test_state_norm_enforced():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        normalized(np.zeros(4))
    assert abs(distribution(random_state(50)).sum() - 1) < 1e-9


def test_norm_checked_where_probabilities_are_read():
    # A kernel's output is trusted, not re-normed; project and measure are
    # where a wrong norm would turn into a wrong probability.
    for amps in ([1.0, 1.0], [0.5, 0.5], [np.nan, 1.0]):
        bad = _trusted(np.array(amps, dtype=np.complex128))
        with pytest.raises(ValueError):
            project(bad, np.array([True, False]))
        with pytest.raises(ValueError):
            measure(bad, np.random.default_rng(0))
    with pytest.raises(ValueError):
        StateVector(np.array([np.nan, 1.0]))


def test_qft_uniform_from_origin():
    for dim in (2, 5, 15, 16):
        out = qft(basis_state(dim, 0))
        assert np.allclose(out.amps, np.full(dim, 1 / math.sqrt(dim)), atol=1e-12)


def test_qft_dim2_by_hand():
    out = qft(basis_state(2, 1))
    assert np.allclose(out.amps, [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 12, 100, 101])
def test_qft_inverse_roundtrip(dim):
    state = random_state(dim, seed=dim)
    back = qft(qft(state), inverse=True)
    assert np.max(np.abs(back.amps - state.amps)) < 1e-9


def test_qft_unitary_exhaustive_small():
    for dim in range(1, 65):
        cols = np.stack([qft(basis_state(dim, x)).amps for x in range(dim)], axis=1)
        assert np.max(np.abs(cols.conj().T @ cols - np.eye(dim))) < 1e-9


@pytest.mark.parametrize("dim", [4095, 4096, 4097])
def test_qft_matches_literal_kernel_on_mixed_radix_sizes(dim):
    # qft against its literal kernel on sizes factored as 3^2*5*7*13, 2^12
    # and 17*241, for both signs
    x_seeded = int(np.random.default_rng(dim).integers(2, dim - 1))
    ys = np.arange(dim, dtype=np.int64)
    amps = random_state(dim, seed=dim).amps
    for inverse, sign in ((False, 1), (True, -1)):
        for x in (1, dim - 1, x_seeded):
            column = qft(basis_state(dim, x), inverse=inverse).amps
            kernel = np.exp(sign * 2j * np.pi * ((x * ys) % dim) / dim) / math.sqrt(dim)
            assert np.max(np.abs(column - kernel)) < 1e-9
        out = qft(StateVector(amps), inverse=inverse).amps
        assert np.max(np.abs(out - dft_direct(amps, sign))) < 1e-9


@pytest.mark.parametrize("inverse", ["no", 1, None, np.True_])
def test_fourier_transforms_refuse_an_inverse_that_is_not_a_bool(inverse):
    state = random_state(9)
    for transform in (
        lambda: qft(state, inverse),
        lambda: qft_factor(state, RegisterLayout((3, 3)), 1, inverse),
        lambda: trace_fourier_transform(state, make_field(3, 2), inverse),
    ):
        with pytest.raises(ValueError):
            transform()


def test_apply_phase():
    state = random_state(9, seed=3)
    assert np.allclose(apply_phase(state, np.ones(9)).amps, state.amps)
    flipped = apply_phase(state, np.full(9, -1.0))
    assert equal_up_to_global_phase(flipped, state, tol=1e-12)
    # a linear phase on the uniform state is a shifted-transform state
    uniform = qft(basis_state(5, 0))
    shifted = apply_phase(uniform, np.exp(2j * np.pi * np.arange(5) / 5))
    assert np.max(np.abs(shifted.amps - qft(basis_state(5, 1)).amps)) < 1e-12
    with pytest.raises(NonUnitPhase):
        apply_phase(state, np.full(9, 0.5))
    with pytest.raises(DimensionMismatch):
        apply_phase(state, np.ones(8))


def test_apply_phase_ignores_unoccupied_slots():
    state = basis_state(4, 2)
    out = apply_phase(state, [0.0, 0.0, 1.0, 0.0])
    assert np.allclose(out.amps, state.amps)


def test_apply_phase_refuses_a_nan_phase_at_an_occupied_index():
    with pytest.raises(NonUnitPhase):
        apply_phase(basis_state(2, 0), [math.nan, 1.0])
    assert apply_phase(basis_state(2, 0), [1.0, math.nan]).amps.tolist() == [1, 0]


def test_permute_basis_refuses_a_non_integer_map():
    with pytest.raises(NotBijective):  # once truncated to the swap [1, 0]
        permute_basis(basis_state(2, 0), [1.7, 0.2])
    with pytest.raises(NotBijective):
        permute_basis(basis_state(2, 0), [True, False])


def test_permute_basis():
    state = random_state(15, seed=1)
    xs = np.arange(15)
    assert np.allclose(permute_basis(state, xs).amps, state.amps)
    # relabeling by residues: index 7 -> (1, 2) -> 1*5 + 2 = 7 under (3, 5)
    layout = RegisterLayout((3, 5))
    crt = [layout.index((x % 3, x % 5)) for x in range(15)]
    assert crt[7] == 7
    moved = permute_basis(basis_state(15, 7), crt)
    assert moved.amps[7] == 1
    # swapping two equal registers is an involution
    sw_layout = RegisterLayout((4, 4))
    swap = [sw_layout.index(tuple(reversed(sw_layout.coords(x)))) for x in range(16)]
    state16 = random_state(16, seed=5)
    twice = permute_basis(permute_basis(state16, swap), swap)
    assert np.allclose(twice.amps, state16.amps)
    # amplitude magnitudes survive any relabeling
    perm = permute_basis(state, (xs * 7 + 3) % 15)
    assert sorted(np.abs(perm.amps)) == pytest.approx(sorted(np.abs(state.amps)))
    with pytest.raises(NotBijective):
        permute_basis(state, np.zeros(15))
    with pytest.raises(NotBijective):
        permute_basis(state, xs + 1)
    with pytest.raises(DimensionMismatch):
        permute_basis(state, xs[:14])


def test_distribution():
    assert np.allclose(distribution(basis_state(4, 1)), [0, 1, 0, 0])
    assert np.allclose(distribution(qft(basis_state(8, 0))), np.full(8, 1 / 8))


def test_measure_collapses():
    rng = np.random.default_rng(0)
    assert measure(basis_state(6, 4), rng) == 4


def test_measure_never_hits_empty_slots():
    rng = np.random.default_rng(1)
    state = normalized([1, 0, 1, 0])
    for _ in range(200):
        assert measure(state, rng) in (0, 2)


def test_measure_frequencies_uniform():
    rng = np.random.default_rng(7)
    state = qft(basis_state(4, 0))
    counts = np.zeros(4)
    draws = 10_000
    for _ in range(draws):
        counts[measure(state, rng)] += 1
    sigma = math.sqrt(draws * 0.25 * 0.75)
    assert np.all(np.abs(counts - draws * 0.25) < 3 * sigma)


def test_project():
    state = random_state(10, seed=9)
    prob, kept = project(state, np.ones(10, dtype=bool))
    assert prob == pytest.approx(1.0) and np.allclose(kept.amps, state.amps)
    at2 = np.arange(5) == 2
    prob, kept = project(basis_state(5, 2), at2)
    assert prob == 1 and kept.amps[2] == 1
    assert project(basis_state(5, 1), at2) == (0.0, None)
    prob, _ = project(qft(basis_state(8, 0)), np.arange(8) % 2 == 0)
    assert prob == pytest.approx(0.5)
    with pytest.raises(DimensionMismatch):
        project(state, at2)


def test_register_layout():
    layout = RegisterLayout((3, 5, 7))
    assert layout.total == 105
    for idx in range(105):
        assert layout.index(layout.coords(idx)) == idx
    assert layout.index((1, 2, 3)) == 1 * 35 + 2 * 7 + 3
    with pytest.raises(ValueError):
        layout.index((3, 0, 0))
    for bad in (105, -1):  # out of range, not wrapped
        with pytest.raises(ValueError):
            layout.coords(bad)
    with pytest.raises(ValueError):
        RegisterLayout(())


def test_qft_factor_matches_plain_qft():
    state = random_state(7, seed=2)
    via_factor = qft_factor(state, RegisterLayout((7,)), 0)
    assert np.max(np.abs(via_factor.amps - qft(state).amps)) < 1e-12
    # factor transforms on distinct axes commute
    layout = RegisterLayout((3, 5))
    state15 = random_state(15, seed=4)
    ab = qft_factor(qft_factor(state15, layout, 0), layout, 1)
    ba = qft_factor(qft_factor(state15, layout, 1), layout, 0)
    assert np.max(np.abs(ab.amps - ba.amps)) < 1e-12
    back = qft_factor(ab, layout, 0, inverse=True)
    back = qft_factor(back, layout, 1, inverse=True)
    assert np.max(np.abs(back.amps - state15.amps)) < 1e-9
    with pytest.raises(DimensionMismatch):
        qft_factor(state15, RegisterLayout((3, 4)), 0)


def test_tft_uniform_from_origin():
    gf9 = make_field(3, 2)
    out = trace_fourier_transform(basis_state(9, 0), gf9)
    assert np.allclose(out.amps, np.full(9, 1 / 3), atol=1e-12)


def test_tft_roundtrip_and_dummy_slots():
    gf9 = make_field(3, 2)
    state = random_state(9, seed=11)
    back = trace_fourier_transform(trace_fourier_transform(state, gf9), gf9, inverse=True)
    assert np.max(np.abs(back.amps - state.amps)) < 1e-9
    # a 10th slot rides along untouched
    padded = random_state(10, seed=12)
    out = trace_fourier_transform(padded, gf9)
    assert out.amps[9] == padded.amps[9]
    back = trace_fourier_transform(out, gf9, inverse=True)
    assert np.max(np.abs(back.amps - padded.amps)) < 1e-9
    with pytest.raises(DimensionMismatch):
        trace_fourier_transform(basis_state(8, 0), gf9)


@pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_tft_matches_literal_kernel(p, r):
    from charshift.algorithms import tft_matrix_deviation

    matrix_dev, unitary_dev = tft_matrix_deviation(make_field(p, r))
    assert matrix_dev < 1e-9
    assert unitary_dev < 1e-9


def test_equal_up_to_global_phase():
    state = random_state(6, seed=8)
    assert equal_up_to_global_phase(state, state)
    assert equal_up_to_global_phase(state, StateVector(1j * state.amps))
    assert not equal_up_to_global_phase(basis_state(2, 0), basis_state(2, 1))


def test_norm_preserved_through_pipeline():
    state = random_state(21, seed=13)
    state = qft(state)
    xs = np.arange(21)
    state = apply_phase(state, np.where(xs % 2, -1.0, 1.0))
    state = permute_basis(state, (xs * 8) % 21)
    state = qft(state, inverse=True)
    assert abs(distribution(state).sum() - 1) < 1e-9

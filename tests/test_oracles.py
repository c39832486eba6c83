import math

import numpy as np
import pytest

from charshift import oracles
from charshift.algorithms import prepare_character_state
from charshift.errors import (
    DomainViolation,
    EvenCharacteristic,
    ModulusTooLargeForM,
    NotOddPrime,
    NotSquareFree,
    ShiftOutOfRange,
)
from charshift.finite_field import element_to_index, make_field
from charshift.number_theory import jacobi, legendre
from charshift.oracles import (
    field_oracle,
    jacobi_oracle,
    jacobi_unknown_oracle,
    legendre_oracle,
)
from charshift.qsim import distribution


def test_legendre_oracle_examples():
    oracle = legendre_oracle(7, shift=3)
    assert oracle.query(0) == -1  # (3/7)
    assert oracle.query(4) == 0  # 7 divides 4 + 3
    assert sum(1 for x in range(7) if oracle.query(x) == 0) == 1


def test_unknown_modulus_above_sqrt_m_is_refused_before_factoring(monkeypatch):
    def no_factoring(n):
        raise AssertionError(f"factor_trial({n}) called for n^2 >= M")

    monkeypatch.setattr(oracles, "factor_trial", no_factoring)
    with pytest.raises(ModulusTooLargeForM):  # (10^9 + 7)(10^9 + 9): a minute of trial division
        jacobi_unknown_oracle(1000000016000000063, 65536, shift=0)


def test_jacobi_oracle_zero_shift():
    oracle = jacobi_oracle(15, shift=0)
    for x in range(15):
        assert oracle.query(x) == jacobi(x, 15)


def test_construction_errors():
    with pytest.raises(NotOddPrime):
        legendre_oracle(9, shift=0)
    with pytest.raises(ShiftOutOfRange):
        legendre_oracle(7, shift=7)
    with pytest.raises(NotSquareFree):
        jacobi_oracle(45, shift=0)
    with pytest.raises(ModulusTooLargeForM):
        jacobi_unknown_oracle(15, 224, shift=0)  # 15^2 = 225 > 224
    jacobi_unknown_oracle(15, 226, shift=0)
    with pytest.raises(EvenCharacteristic):
        field_oracle(make_field(2, 2), shift=(0, 0))
    with pytest.raises(ValueError):
        legendre_oracle(7)  # no shift and no rng
    # non-integer shifts are refused, not truncated
    for bad in (2.5, True, np.True_, np.float64(3.9), "3"):
        with pytest.raises(ShiftOutOfRange):
            legendre_oracle(7, shift=bad)
        with pytest.raises(ShiftOutOfRange):
            jacobi_oracle(15, shift=bad)
        with pytest.raises(ShiftOutOfRange):
            jacobi_unknown_oracle(15, 256, shift=bad)
    assert legendre_oracle(7, shift=np.int64(3)).query(4) == 0  # 7 divides 4 + 3
    gf9 = make_field(3, 2)
    for bad in (2.5, True, "1", np.float64(1)):
        with pytest.raises(ShiftOutOfRange):
            field_oracle(gf9, shift=(bad, 1))
    # coefficients outside [0, p), or not exactly r of them, are refused, not reduced
    for bad in ((5, 1), (-1, 1), (1,), (1, 2, 0), 5):
        with pytest.raises(ShiftOutOfRange):
            field_oracle(gf9, shift=bad)
    oracle = field_oracle(gf9, shift=(np.int64(1), 1))
    assert oracle.query(element_to_index(gf9, (2, 2))) == 0  # chi(0), at x = -(1, 1)


def test_random_shift_draw_is_seeded():
    a = legendre_oracle(13, rng=np.random.default_rng(5))
    b = legendre_oracle(13, rng=np.random.default_rng(5))
    assert [a.query(x) for x in range(13)] == [b.query(x) for x in range(13)]


def test_unknown_modulus_periodicity():
    oracle = jacobi_unknown_oracle(15, 2000, shift=2)
    for x in range(2000 - 15):
        assert oracle.query(x) == oracle.query(x + 15)
    assert oracle.query(2) == 1 and oracle.query(17) == 1


def test_unknown_modulus_periodicity_large():
    oracle = jacobi_unknown_oracle(105, 2 * 10**4, shift=11)
    for x in range(0, 2 * 10**4 - 105, 7):
        assert oracle.query(x) == oracle.query(x + 105)


def test_zero_sets():
    oracle = legendre_oracle(11, shift=4)
    zeros = [x for x in range(11) if oracle.query(x) == 0]
    assert zeros == [(-4) % 11]
    oracle = jacobi_oracle(15, shift=2)
    zeros = {x for x in range(15) if oracle.query(x) == 0}
    assert zeros == {x for x in range(15) if math.gcd(x + 2, 15) > 1}
    gf9 = make_field(3, 2)
    oracle = field_oracle(gf9, shift=(2, 1))
    zeros = [x for x in range(9) if oracle.query(x) == 0]
    assert len(zeros) == 1


def test_field_oracle_takes_indices_and_refuses_elements():
    gf9 = make_field(3, 2)
    oracle = field_oracle(gf9, shift=(0, 0))
    assert oracle.query(1) == 1  # chi(1)
    with pytest.raises(DomainViolation):
        oracle.query((1, 0))
    with pytest.raises(DomainViolation):
        oracle.query(9)


def test_query_counters():
    oracle = legendre_oracle(7, shift=0)
    assert oracle.query_count == 0
    oracle.query(1)
    oracle.query(2)
    assert oracle.query_count == 2
    digits = oracle.value_query_superposed(7)
    assert oracle.phase_query_count == 1
    oracle.value_query_superposed(7, digits)
    assert oracle.phase_query_count == 2
    assert oracle.query_count == 2  # coherent calls don't touch the classical counter


def test_secrecy_of_public_surface():
    oracle = jacobi_unknown_oracle(15, 400, shift=7)
    public = {k: v for k, v in vars(oracle).items() if not k.startswith("_")}
    assert set(public) == {"variant", "domain_size"}
    assert public["domain_size"] == 400
    # the hidden modulus and shift show only through the answers
    assert [oracle.query(x) for x in range(30)] == [jacobi(x + 7, 15) for x in range(30)]


def test_value_query_nonzero_mass():
    oracle = jacobi_oracle(15, shift=0)
    digits = oracle.value_query_superposed(15)
    assert np.count_nonzero(digits) == 8  # phi(15): mass 8/15 under the uniform state


def test_value_query_on_basis_state():
    oracle = legendre_oracle(7, shift=3)
    digits = oracle.value_query_superposed(7)
    # |x>|0> goes to |x>|value mod 3>
    assert digits.tolist() == [legendre(x + 3, 7) % 3 for x in range(7)]


def test_value_query_involution_uncomputes():
    oracle = jacobi_oracle(15, shift=4)
    digits = oracle.value_query_superposed(15)
    assert np.any(digits)
    assert not np.any(oracle.value_query_superposed(15, digits))
    with pytest.raises(DomainViolation):
        oracle.value_query_superposed(15, digits[:-1])
    assert oracle.phase_query_count == 2


def test_discard_requires_cleared_register(monkeypatch):
    # A second query that leaves the value computed cannot be discarded.
    oracle = legendre_oracle(7, shift=3)
    compute = oracle.value_query_superposed
    monkeypatch.setattr(oracle, "value_query_superposed", lambda dim, digits=None: compute(dim))
    with pytest.raises(DomainViolation):
        prepare_character_state(oracle, 7)


def test_result_sign_phase():
    accepted, state, _ = prepare_character_state(legendre_oracle(7, shift=0), 7)
    # squares mod 7 are {1, 2, 4}; the zero value's slot is emptied
    want = [0, 1, 1, -1, 1, -1, -1]
    assert accepted
    assert np.max(np.abs(state.amps - np.array(want) / math.sqrt(6))) < 1e-12


def test_value_query_dummy_slot_reads_plus_one():
    gf9 = make_field(3, 2)
    oracle = field_oracle(gf9, shift=(1, 0))
    digits = oracle.value_query_superposed(10)
    # the padding slot behaves like a +1 value: digit 1
    assert digits[9] == 1
    assert np.count_nonzero(digits == 0) == 1  # zero-branch mass 1/10


def test_query_domain_checks():
    oracle = legendre_oracle(7, shift=0)
    with pytest.raises(DomainViolation):
        oracle.query(7)
    with pytest.raises(DomainViolation):
        oracle.query(-1)
    for flag in (True, False, np.True_):
        with pytest.raises(DomainViolation):
            oracle.query(flag)
    assert oracle.query_count == 0
    with pytest.raises(DomainViolation):
        field_oracle(make_field(3, 2), shift=(0, 0)).query(True)
    oracle = jacobi_unknown_oracle(15, 400, shift=0)
    assert oracle.query(399) in (-1, 0, 1)
    with pytest.raises(DomainViolation):
        oracle.query(400)


def test_value_query_distribution_sums():
    oracle = jacobi_oracle(33, shift=5)
    _, state, zero_prob = prepare_character_state(oracle, 33)
    assert zero_prob == pytest.approx(1 - 20 / 33)  # 1 - phi(33)/33
    assert abs(distribution(state).sum() - 1) < 1e-9

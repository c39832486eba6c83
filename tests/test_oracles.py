import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charshift import finite_field as ff
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
from charshift.finite_field import character_table, digit_table, element_to_index, make_field
from charshift.number_theory import _legendre_table, is_prime, jacobi, legendre
from charshift.oracles import (
    field_oracle,
    jacobi_oracle,
    jacobi_unknown_oracle,
    legendre_oracle,
)
from charshift.qsim import distribution

ODD_PRIMES_BELOW_2_15 = [p for p in range(3, 2**15, 2) if is_prime(p)]
TABLE_FIELDS = [(3, 2), (5, 2), (7, 3), (3, 6), (11, 2), (3, 7)]


def coherent_table(oracle):
    """The hidden function over the whole domain, read by one coherent query."""
    digits = oracle.value_query_superposed(oracle.domain_size)
    return np.where(digits == 2, -1, digits)


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


@settings(deadline=None, max_examples=40)
@given(p=st.sampled_from(ODD_PRIMES_BELOW_2_15), s=st.integers(min_value=0))
def test_legendre_table_matches_the_whole_ring_table_and_the_symbol(p, s):
    s %= p
    table = coherent_table(legendre_oracle(p, shift=s))
    assert np.array_equal(table, np.roll(_legendre_table(p), -s))
    assert table.tolist() == [legendre(x + s, p) for x in range(p)]


@pytest.mark.parametrize("p, r", TABLE_FIELDS)
def test_field_table_matches_the_character_table_at_shifted_indices(p, r):
    fld = make_field(p, r)
    rng = np.random.default_rng(p * 100 + r)
    for s in [(0,) * r, (p - 1,) * r, tuple(int(c) for c in rng.integers(p, size=r))]:
        want = character_table(fld)[((digit_table(fld) + s) % p) @ p ** np.arange(r)]
        assert np.array_equal(coherent_table(field_oracle(fld, shift=s)), want)


def test_a_table_costs_one_symbol_call_per_point(monkeypatch):
    # The benchmark's self-check: each fresh oracle's first coherent query calls the
    # scalar symbol once per domain point.  The counter goes in after the oracles are
    # built, as a tracer's would, so a symbol bound at construction goes uncounted.
    fields = [make_field(3, 2), make_field(5, 3)]
    fresh = [(legendre_oracle(p, shift=3), "legendre") for p in (7, 7, 1009, 1009)]
    fresh += [(field_oracle(f, shift=(1,) * f.r), "quadratic_character") for f in fields * 2]
    calls = []
    for module, name in ((oracles, "legendre"), (ff, "quadratic_character")):
        symbol = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=symbol, _n=name: calls.append(_n) or _f(*a))
    for oracle, name in fresh:
        calls.clear()
        oracle.value_query_superposed(oracle.domain_size)
        oracle.value_query_superposed(oracle.domain_size)
        assert calls == [name] * oracle.domain_size


def test_field_tabulation_streams_its_elements(monkeypatch):
    # A (q, r) list of elements would take megabytes here.  The symbol is stubbed, so
    # the peak is the table's own and the check runs in a fraction of a second.
    fld = make_field(3, 10)
    oracle = field_oracle(fld, shift=(2,) * 10)
    monkeypatch.setattr(ff, "quadratic_character", lambda fld, x: x[0] - 1)
    tracemalloc.start()
    try:
        oracle.value_query_superposed(1)  # builds the 59049-entry table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024

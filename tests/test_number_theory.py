import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charshift.errors import (
    DomainTooLarge,
    EvenInput,
    NotOddPrime,
    NotSquareFree,
    UnsupportedParameters,
)
from charshift.finite_field import make_field
from charshift.number_theory import (
    FactoredOddSquarefree,
    convergents,
    crt_compose,
    euler_phi,
    factor_trial,
    gauss_sum_bruteforce,
    gauss_sum_closed_form,
    is_odd_prime,
    is_prime,
    jacobi,
    legendre,
)
from helpers import (
    jacobi_by_reciprocity,
    jacobi_row_by_product,
    odd_squarefree_up_to,
    prime_sieve,
    squares_mod,
)

ODD_PRIMES_TO_101 = [p for p in range(3, 102, 2) if is_prime(p)]


SIEVE = prime_sieve(1 << 18)
SIEVE_PRIMES = np.flatnonzero(SIEVE).tolist()

# psi_k (OEIS A014233): the least odd composite that is a strong pseudoprime to
# each of the first k prime bases, for k = 1..12.
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
       3825123056546413051, 318665857834031151167461)
PSI_13 = 3317044064679887385961981


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(101) and is_prime(10**9 + 7)
    assert not is_prime(1) and not is_prime(561) and not is_prime(9)  # 561 is Carmichael
    assert is_odd_prime(3) and not is_odd_prime(2) and not is_odd_prime(-3)


def test_is_prime_matches_sieve():
    got = np.array([is_prime(n) for n in range(len(SIEVE))])
    assert np.array_equal(got, SIEVE)


@pytest.mark.parametrize("n", sorted(set(PSI) | {3277, 4033, 4681, 8321}))
def test_is_prime_rejects_strong_pseudoprimes(n):
    # 2047, 3277, 4033, 4681, 8321 and psi_2 = 1373653 are strong pseudoprimes
    # to base 2; psi_12 = 399165290221 * 798330580441 passes all of 2, 3, ..., 37.
    assert not is_prime(n)


def test_is_prime_refuses_beyond_the_proven_range():
    assert is_prime(PSI_13 - 168)  # the largest prime below psi_13
    assert not is_prime(PSI_13 + 2)  # beyond it, a witness still proves compositeness
    # psi_13 is composite and passes all 13 bases, as does the probable prime
    # psi_13 + 142, so neither answer could be proven.
    for n in (PSI_13, PSI_13 + 142):
        with pytest.raises(DomainTooLarge):
            is_prime(n)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(SIEVE_PRIMES), st.sampled_from(SIEVE_PRIMES))
def test_is_prime_false_on_products_of_two_primes(p, q):
    assert not is_prime(p * q)


def test_legendre_examples():
    assert legendre(0, 7) == 0
    assert legendre(1, 13) == 1
    assert legendre(2, 7) == 1  # 3^2 = 2 mod 7
    assert squares_mod(7) == {1, 2, 4}


@pytest.mark.parametrize("p", ODD_PRIMES_TO_101)
def test_legendre_matches_square_enumeration(p):
    squares = squares_mod(p)
    for x in range(p):
        want = 0 if x == 0 else (1 if x in squares else -1)
        assert legendre(x, p) == want


@pytest.mark.parametrize("p", [2, 9, 15, 1, 561])
def test_legendre_rejects_non_odd_primes(p):
    # twice, so a repeated call on the same p is refused as well
    for _ in range(2):
        with pytest.raises(NotOddPrime):
            legendre(3, p)


def test_jacobi_examples():
    assert jacobi(2, 9) == 1  # +1 without 2 being a square mod 9
    assert jacobi(3, 15) == 0
    assert jacobi(2, 15) == 1  # (-1) * (-1) over the factors 3, 5


def test_jacobi_rejects_even_modulus():
    with pytest.raises(EvenInput):
        jacobi(3, 10)
    with pytest.raises(EvenInput):
        jacobi(3, 0)


def test_jacobi_matches_the_reference_exhaustively():
    # every residue of every odd modulus below 1500, square factors included
    for n in range(1, 1500, 2):
        assert [jacobi(x, n) for x in range(n)] == [
            jacobi_by_reciprocity(x, n) for x in range(n)], f"mismatch at n={n}"


@settings(deadline=None, max_examples=300)
@given(x=st.integers(-(2**64), 2**64), n=st.integers(0, 2**63 - 1))
def test_jacobi_matches_the_reference_up_to_2_to_the_64(x, n):
    n = 2 * n + 1
    assert jacobi(x, n) == jacobi_by_reciprocity(x, n)
    assert jacobi(np.int64(x % 2**63), np.uint64(n)) == jacobi_by_reciprocity(x % 2**63, n)


@pytest.mark.parametrize("x, n", [(2.5, 7), (3, 7.0), (True, 7), (3, True), (3.0, 7), ("3", 7)])
def test_jacobi_refuses_what_is_not_an_integer(x, n):
    with pytest.raises(ValueError):
        jacobi(x, n)


def test_jacobi_product_identity_and_balance_exhaustive():
    # Reciprocity route vs the definitional per-factor product for every x,
    # plus the zero row sum, over every odd square-free modulus up to 10^4.
    from itertools import repeat

    for n in odd_squarefree_up_to(10**4):
        want = jacobi_row_by_product(n)
        got = list(map(jacobi, range(n), repeat(n)))
        assert got == want.tolist(), f"mismatch at n={n}"
        assert int(want.sum()) == 0, f"nonzero sum at n={n}"


def test_factor_trial():
    assert factor_trial(15).factors == (3, 5)
    assert factor_trial(3).factors == (3,)
    assert factor_trial(105).factors == (3, 5, 7)
    with pytest.raises(NotSquareFree):
        factor_trial(9)
    with pytest.raises(EvenInput):
        factor_trial(10)
    with pytest.raises(ValueError):
        factor_trial(1)


def test_factored_type_invariants():
    with pytest.raises(NotSquareFree):
        FactoredOddSquarefree(9, (3, 3))
    with pytest.raises(ValueError):
        FactoredOddSquarefree(15, (5, 3))
    with pytest.raises(ValueError):
        FactoredOddSquarefree(21, (3, 5))
    with pytest.raises(EvenInput):
        FactoredOddSquarefree(16, (3, 5))


def test_euler_phi():
    m15 = factor_trial(15)
    assert euler_phi(m15) == 8
    assert euler_phi(m15) == sum(1 for x in range(15) if math.gcd(x, 15) == 1)
    assert euler_phi(factor_trial(7)) == 6
    assert euler_phi(factor_trial(105)) == 48


def test_crt_examples():
    m = factor_trial(15)
    assert crt_compose((1, 2), m) == 7
    with pytest.raises(ValueError):
        crt_compose((1,), m)


@pytest.mark.parametrize("n", [15, 105, 1155, 5005, 9177])
def test_crt_roundtrip_exhaustive(n):
    m = factor_trial(n)
    for x in range(n):
        assert crt_compose(tuple(x % p for p in m.factors), m) == x


def test_convergents_examples():
    assert convergents(0, 16) == [Fraction(0, 1)]
    assert convergents(68, 256) == [
        Fraction(0, 1), Fraction(1, 3), Fraction(1, 4), Fraction(4, 15), Fraction(17, 64),
    ]
    assert convergents(1, 7) == [Fraction(0, 1), Fraction(1, 7)]
    with pytest.raises(ValueError):
        convergents(7, 7)


def test_convergent_properties():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        m = int(rng.integers(2, 1 << 16))
        i = int(rng.integers(m))
        seq = convergents(i, m)
        assert seq[-1] == Fraction(i, m)
        for a, b in zip(seq, seq[1:]):
            det = a.numerator * b.denominator - b.numerator * a.denominator
            assert abs(det) == 1


GAUSS_RING_CASES = [
    (FactoredOddSquarefree(5, (5,)), "sqrt(5)"),
    (FactoredOddSquarefree(7, (7,)), "i*sqrt(7)"),
    (factor_trial(15), "i*sqrt(15)"),
    (factor_trial(21), "sqrt(21)"),
]

# One field per sign case of the closed-form table, plus degree-one fields
# that must agree with the ring value.
GAUSS_FIELD_CASES = [
    ((5, 2), "-sqrt(25)"),   # p = 1 mod 4, even degree
    ((5, 3), "sqrt(125)"),   # p = 1 mod 4, odd degree
    ((3, 4), "-sqrt(81)"),   # p = 3 mod 4, degree 0 mod 4
    ((7, 1), "i*sqrt(7)"),   # p = 3 mod 4, degree 1 mod 4
    ((3, 2), "sqrt(9)"),     # p = 3 mod 4, degree 2 mod 4
    ((3, 3), "-i*sqrt(27)"), # p = 3 mod 4, degree 3 mod 4
    ((11, 2), "sqrt(121)"),
    ((7, 3), "-i*sqrt(343)"),
    ((3, 6), "sqrt(729)"),
    ((5, 1), "sqrt(5)"),
]


@pytest.mark.parametrize("spec,want", GAUSS_RING_CASES)
def test_gauss_closed_form_rings(spec, want):
    assert gauss_sum_closed_form(spec).exact_str == want


@pytest.mark.parametrize("params,want", GAUSS_FIELD_CASES)
def test_gauss_closed_form_fields(params, want):
    spec = make_field(*params)
    assert gauss_sum_closed_form(spec).exact_str == want


def test_gauss_bruteforce_examples():
    assert abs(gauss_sum_bruteforce(FactoredOddSquarefree(5, (5,))) - math.sqrt(5)) < 1e-9
    assert (
        abs(gauss_sum_bruteforce(factor_trial(15)) - 1j * math.sqrt(15))
        < 1e-9
    )
    gf9 = make_field(3, 2)
    assert abs(gauss_sum_bruteforce(gf9) - 3) < 1e-9


def test_gauss_closed_matches_brute_spot_sweep():
    # The exhaustive sweep lives in the acceptance suite; keep a fast cross
    # section here including the Z_p = F_p agreement.
    for p in (3, 5, 7, 11, 13, 31):
        ring = gauss_sum_closed_form(FactoredOddSquarefree(p, (p,)))
        fld = gauss_sum_closed_form(make_field(p, 1))
        assert ring == fld
        assert abs(ring.value - gauss_sum_bruteforce(FactoredOddSquarefree(p, (p,)))) < 1e-6
    for n in (33, 35, 105):
        spec = factor_trial(n)
        assert abs(gauss_sum_closed_form(spec).value - gauss_sum_bruteforce(spec)) < 1e-6
    for p, r in ((3, 2), (5, 2), (3, 3)):
        spec = make_field(p, r)
        assert abs(gauss_sum_closed_form(spec).value - gauss_sum_bruteforce(spec)) < 1e-6


def test_gauss_exact_str_rendering():
    assert gauss_sum_closed_form(FactoredOddSquarefree(13, (13,))).exact_str == "sqrt(13)"
    assert gauss_sum_closed_form(make_field(5, 2)).exact_str == "-sqrt(25)"
    value = gauss_sum_closed_form(FactoredOddSquarefree(7, (7,))).value
    assert abs(value - 1j * math.sqrt(7)) < 1e-12


def test_gauss_error_cases():
    with pytest.raises(ValueError):  # 9 is not an odd prime
        FactoredOddSquarefree(9, (9,))
    with pytest.raises(UnsupportedParameters):
        gauss_sum_closed_form(make_field(2, 2))
    big = FactoredOddSquarefree(3 * 5 * 7 * 11 * 13 * 17 * 19, (3, 5, 7, 11, 13, 17, 19))
    with pytest.raises(DomainTooLarge):
        gauss_sum_bruteforce(big)


def test_gauss_sum_omega_convention():
    # The literal sum uses e^(2 pi i / p); the closed form must match it, not
    # the conjugate convention.
    total = sum(legendre(x, 7) * cmath.exp(2j * cmath.pi * x / 7) for x in range(7))
    assert abs(total - 1j * math.sqrt(7)) < 1e-12

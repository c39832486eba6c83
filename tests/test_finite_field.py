from itertools import product

import numpy as np
import pytest

from charshift.errors import (
    EvenCharacteristic,
    NotPrime,
    ReducibleModulus,
)
from charshift.finite_field import (
    FieldSpec,
    element_from_index,
    element_to_index,
    ff_arith,
    ff_neg,
    ff_pow,
    format_poly,
    is_irreducible,
    make_field,
    one,
    parse_poly,
    quadratic_character,
    trace,
    trace_coordinates,
)
from helpers import char_by_enumeration

ODD_FIELD_PARAMS = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3), (7, 3), (3, 6)]


@pytest.fixture(scope="module")
def gf9():
    return make_field(3, 2, (1, 0, 1))


def test_make_field_examples():
    gf3 = make_field(3, 1)
    assert gf3.modulus == (0, 1)  # the polynomial X
    assert gf3.q == 3
    gf9 = make_field(3, 2, (1, 0, 1))
    assert gf9.q == 9
    with pytest.raises(ReducibleModulus):
        make_field(3, 2, (2, 0, 1))  # X^2 + 2 = (X-1)(X+1)
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(3, 0)
    with pytest.raises(ValueError):
        make_field(3, 2, (1, 0, 2))  # not monic


def test_make_field_takes_integral_coefficients_only():
    gf9 = make_field(3, 2, (1, 0, 1))
    assert make_field(3, 2, np.array([4, 0, 1])) == make_field(3, 2, (1.0, 0, 1)) == gf9
    assert all(type(c) is int for c in make_field(3, 2, np.array([1, 0, 1])).modulus)
    with pytest.raises(ValueError):
        make_field(3, 2, (1.5, 0, 1))  # once built a spec with a 1.5 coefficient


def test_default_modulus_is_deterministic():
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(3, 2) == make_field(3, 2)
    assert make_field(2, 2).modulus == (1, 1, 1)
    # The search order fixes element indices and CLI output, so pin it.
    assert make_field(7, 3).modulus == (1, 0, 1, 1)
    assert make_field(5, 4).modulus == (1, 0, 1, 1, 1)
    assert make_field(3, 6).modulus == (1, 0, 0, 0, 1, 1, 1)
    assert make_field(11, 3).modulus == (1, 0, 4, 1)
    assert make_field(3, 7).modulus == (1, 0, 0, 0, 0, 1, 2, 1)
    assert make_field(3, 10).modulus == (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1)
    assert make_field(2, 16).modulus == (1,) + (0,) * 10 + (1, 0, 1, 0, 1, 1)


def test_is_irreducible_examples():
    assert is_irreducible(3, (0, 1))
    assert is_irreducible(3, (1, 0, 1))
    assert not is_irreducible(3, (2, 0, 1))  # divisible by X + 1
    with pytest.raises(ValueError):
        is_irreducible(3, (1,))


@pytest.mark.parametrize("p, poly", [(3, (5, 0, 1)), (3, (1, 0, 1.0)), (3, (True, 0, 1)),
                                     (3, (-1, 0, 1))])
def test_is_irreducible_refuses_coefficients_outside_z_p(p, poly):
    with pytest.raises(ValueError):
        is_irreducible(p, poly)


@pytest.mark.parametrize("p", [4, 1, 0, -3, 2.5, True])
def test_is_irreducible_refuses_a_p_that_is_not_prime(p):
    with pytest.raises(NotPrime):
        is_irreducible(p, (1, 1, 1))


def _mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def _monic(p, deg):
    return [tail + (1,) for tail in product(range(p), repeat=deg)]


@pytest.mark.parametrize("p,r", [(p, r) for p in (2, 3, 5) for r in range(1, 5)]
                         + [(7, r) for r in range(1, 4)])
def test_irreducible_verdicts_match_gauss_count_and_products(p, r):
    # Gauss's count of monic irreducibles of degree r, (1/r) sum_{d | r} mu(d) p^(r/d)
    # (Lidl-Niederreiter, Finite Fields, Thm 3.25).
    count = sum(_mobius(d) * p ** (r // d) for d in range(1, r + 1) if r % d == 0) // r
    reducible = {
        tuple(int(c) for c in np.convolve(f, g) % p)
        for d in range(1, r // 2 + 1) for f in _monic(p, d) for g in _monic(p, r - d)
    }
    verdicts = {poly: is_irreducible(p, poly) for poly in _monic(p, r)}
    assert sum(verdicts.values()) == count
    assert {poly for poly, irreducible in verdicts.items() if not irreducible} == reducible


def test_arith_gf9_examples(gf9):
    x_elem = (0, 1)
    assert ff_arith(gf9, x_elem, x_elem, "mul") == (2, 0)  # X^2 = -1 = 2
    a = (1, 2)
    assert ff_arith(gf9, a, (0, 0), "add") == a
    with pytest.raises(ValueError):
        ff_arith(gf9, a, a, "pow")


def test_trace_examples(gf9):
    assert trace(gf9, (0, 0)) == 0
    assert trace(gf9, one(gf9)) == 2  # 1 + 1^3
    assert trace(gf9, (0, 1)) == 0  # X + X^3 = X - X


@pytest.mark.parametrize("x", [(5, 0), (1.5, 0), (True, 0), (-1, 0), (1,), (1, 0, 0)])
def test_trace_refuses_an_element_outside_the_field(gf9, x):
    with pytest.raises(ValueError):
        trace(gf9, x)


@pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_trace_matches_power_sum_oracle(p, r):
    spec = make_field(p, r)
    for i in range(spec.q):
        x = element_from_index(spec, i)
        acc = (0,) * r
        for j in range(r):
            acc = ff_arith(spec, acc, ff_pow(spec, x, p**j), "add")
        assert acc[1:] == (0,) * (r - 1)
        assert trace(spec, x) == acc[0]


@pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_trace_linearity_exhaustive(p, r):
    # Tr(a x + b y) = a Tr(x) + b Tr(y) for all base-field scalars and all
    # pairs of elements; fields up to q = 81.
    spec = make_field(p, r)
    q = spec.q
    traces = [trace(spec, element_from_index(spec, i)) for i in range(q)]
    elements = [element_from_index(spec, i) for i in range(q)]
    scalar = lambda c: (c,) + (0,) * (r - 1)
    for a in range(p):
        for b in range(p):
            for xi in range(q):
                ax = ff_arith(spec, scalar(a), elements[xi], "mul")
                for yi in range(q):
                    by = ff_arith(spec, scalar(b), elements[yi], "mul")
                    lhs = trace(spec, ff_arith(spec, ax, by, "add"))
                    assert lhs == (a * traces[xi] + b * traces[yi]) % p


def test_character_examples(gf9):
    assert quadratic_character(gf9, (0, 0)) == 0
    assert quadratic_character(gf9, one(gf9)) == 1
    assert quadratic_character(gf9, (2, 0)) == 1  # X^2 = 2
    with pytest.raises(EvenCharacteristic):
        quadratic_character(make_field(2, 2), (1, 0))


@pytest.mark.parametrize("element", [(3, 0), (0, 3), (1,), (1, 0, 0), (1.0, 0), (True, 0)])
def test_character_refuses_a_malformed_element(gf9, element):
    # (3, 0) and (0, 3) once blamed the spec; (1,) and (1, 0, 0) once returned 1
    with pytest.raises(ValueError):
        quadratic_character(gf9, element)


def test_character_reports_a_shared_factor_of_a_reducible_modulus():
    # X^2 - 1 = (X - 1)(X + 1): the multiples of X - 1 and X + 1 once made the
    # character raise; now no spec over this modulus reaches the character
    with pytest.raises(ReducibleModulus):
        FieldSpec(3, 2, (2, 0, 1))
    with pytest.raises(ReducibleModulus):
        make_field(3, 2, (2, 0, 1))


@pytest.mark.parametrize("args", [
    (3, 2, (2, 0, 1)),  # X^2 - 1 = (X - 1)(X + 1): Tr(X) once left Z_3
    (2, 2, (0, 1, 1)),  # X^2 + X = X(X + 1): its trace coordinates once repeated
])
def test_field_spec_refuses_a_reducible_modulus(args):
    with pytest.raises(ReducibleModulus):
        FieldSpec(*args)


@pytest.mark.parametrize("args,error", [
    ((3, 3, (1, 0, 1)), ValueError),  # degree 2, not r = 3: its oracle once gave f(0) = 1
    ((3, 2, (1, 0, 2)), ValueError),  # not monic
    ((3, 2, (1, 3, 1)), ValueError),  # a coefficient outside [0, 3)
    ((3, 2, (1.0, 0, 1)), ValueError),
    ((3, 2, [1, 0, 1]), ValueError),  # a list, not a tuple
    ((3, 0, (1,)), ValueError),
    ((4, 1, (0, 1)), NotPrime),
])
def test_field_spec_refuses_a_malformed_spec(args, error):
    with pytest.raises(error):
        FieldSpec(*args)


@pytest.mark.parametrize("p,r", ODD_FIELD_PARAMS)
def test_character_vs_enumeration_and_balance(p, r):
    spec = make_field(p, r)
    want = char_by_enumeration(spec)
    got = [quadratic_character(spec, element_from_index(spec, i)) for i in range(spec.q)]
    assert got == want
    assert sum(got) == 0
    assert got.count(1) == (spec.q - 1) // 2
    assert got.count(-1) == (spec.q - 1) // 2


@pytest.mark.parametrize("p,r", ODD_FIELD_PARAMS)
def test_character_multiplicative_exhaustive(p, r):
    spec = make_field(p, r)
    q = spec.q
    elements = [element_from_index(spec, i) for i in range(q)]
    chi = [quadratic_character(spec, e) for e in elements]
    for i in range(q):
        for j in range(i, q):
            prod = ff_arith(spec, elements[i], elements[j], "mul")
            assert chi[element_to_index(spec, prod)] == chi[i] * chi[j]


def test_trace_coordinates_examples(gf9):
    coords = trace_coordinates(gf9)
    assert tuple(coords[element_to_index(gf9, (0, 0))]) == (0, 0)
    assert tuple(coords[element_to_index(gf9, one(gf9))]) == (2, 0)
    assert not coords.flags.writeable


@pytest.mark.parametrize("p,r", ODD_FIELD_PARAMS + [(2, 2), (2, 3)])
def test_trace_coordinates_bijective(p, r):
    spec = make_field(p, r)
    seen = {tuple(row) for row in trace_coordinates(spec).tolist()}
    assert len(seen) == spec.q


def test_even_characteristic_arithmetic():
    gf8 = make_field(2, 3)
    a, b = (1, 0, 1), (1, 1, 0)
    assert ff_arith(gf8, a, b, "add") == (0, 1, 1)
    # modulus 1 + X^2 + X^3: (1 + X^2)(1 + X) = 1 + X + X^2 + X^3 = X
    assert ff_arith(gf8, a, b, "mul") == (0, 1, 0)
    assert trace(gf8, one(gf8)) == 1  # 1 + 1 + 1 in characteristic 2


def test_element_encoding_roundtrip():
    spec = make_field(5, 3)
    for i in range(spec.q):
        assert element_to_index(spec, element_from_index(spec, i)) == i
    assert element_from_index(spec, 7) == (2, 1, 0)  # 7 = 2 + 1*5


@pytest.mark.parametrize("element", [(3, 0), (1, -1), (1,), (0, 1, 0), (1.0, 0), (1.5, 0),
                                     (True, 0)])
def test_element_to_index_refuses_a_malformed_element(gf9, element):
    # (3, 0) would read as index 3, the index of (0, 1); (1.5, 0) once read as 1.5
    with pytest.raises(ValueError):
        element_to_index(gf9, element)


def test_ff_pow_refuses_a_negative_exponent(gf9):
    assert ff_pow(gf9, (1, 1), 0) == one(gf9)
    with pytest.raises(ValueError):
        ff_pow(gf9, (1, 1), -1)


def test_negation(gf9):
    a = (1, 2)
    assert ff_arith(gf9, a, ff_neg(gf9, a), "add") == (0, 0)


def test_poly_text_roundtrip(gf9):
    assert format_poly((1, 0, 1)) == "1,0,1"
    assert parse_poly("1,0,1") == (1, 0, 1)
    for i in range(gf9.q):
        element = element_from_index(gf9, i)
        assert parse_poly(format_poly(element)) == element
    with pytest.raises(ValueError):
        parse_poly("1,x")

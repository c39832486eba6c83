"""Independent oracles shared by the test modules.

Everything here computes from first principles (definitions, enumeration,
per-factor tables) so the library paths under test are checked against a
different route, not against themselves.
"""

import math

import numpy as np

from charshift.errors import DimensionMismatch, NotSquareFree
from charshift.finite_field import element_from_index, element_to_index, ff_arith, ff_pow, one
from charshift.number_theory import factor_trial
from charshift.oracles import RESULT_DIM
from charshift.qsim import StateVector, basis_state, project, qft

_legendre_tables: dict = {}


def legendre_table(p: int) -> np.ndarray:
    # Built by enumerating squares, not via the library symbol, so the
    # product-side oracle is independent of the reciprocity code path.
    if p not in _legendre_tables:
        tab = np.full(p, -1, dtype=np.int8)
        tab[0] = 0
        tab[np.unique((np.arange(1, p, dtype=np.int64) ** 2) % p)] = 1
        _legendre_tables[p] = tab
    return _legendre_tables[p]


def jacobi_row_by_product(n: int) -> np.ndarray:
    """Definition-side Jacobi values over Z_n: the per-factor symbol product."""
    moduli = factor_trial(n)
    xs = np.arange(n)
    row = np.ones(n, dtype=np.int64)
    for p in moduli.factors:
        row *= legendre_table(p)[xs % p]
    return row


def jacobi_by_reciprocity(x: int, n: int) -> int:
    """The Jacobi symbol of x modulo odd n >= 1 by quadratic reciprocity, one
    factor 2 and one swap at a time: the reference for number_theory.jacobi."""
    x %= n
    acc = 1
    while x:
        while x % 2 == 0:
            x //= 2
            if n % 8 in (3, 5):
                acc = -acc
        x, n = n, x
        if x % 4 == 3 and n % 4 == 3:
            acc = -acc
        x %= n
    return acc if n == 1 else 0


def jacobi_full_period_verdict(n: int, shift: int, cand: int) -> bool:
    """Whether J(x + cand, n) equals J(x + shift, n) at every x in Z_n."""
    row = jacobi_row_by_product(n)
    return bool(np.array_equal(np.roll(row, -shift), np.roll(row, -cand)))


def dft_direct(amps: np.ndarray, sign: int) -> np.ndarray:
    """sum_x amps[x] exp(sign*2*pi*i*(x*y mod N)/N) / sqrt(N), summed directly.

    Rows of the kernel are built a chunk at a time, so no N x N matrix exists.
    """
    n = amps.shape[0]
    xs = np.arange(n, dtype=np.int64)
    out = np.empty(n, dtype=np.complex128)
    chunk = max(1, (1 << 20) // n)
    for start in range(0, n, chunk):
        ys = xs[start : start + chunk, None]
        out[start : start + chunk] = np.exp((sign * 2j * np.pi / n) * ((ys * xs) % n)) @ amps
    return out / np.sqrt(n)


def odd_squarefree_up_to(limit: int) -> list[int]:
    out = []
    for n in range(3, limit + 1, 2):
        try:
            factor_trial(n)
        except NotSquareFree:
            continue
        out.append(n)
    return out


def prime_sieve(limit: int) -> np.ndarray:
    """Boolean array whose entry n says whether n is prime, for n < limit
    (sieve of Eratosthenes)."""
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for d in range(2, math.isqrt(limit - 1) + 1):
        if sieve[d]:
            sieve[d * d :: d] = False
    return sieve


def squares_mod(p: int) -> set[int]:
    return {x * x % p for x in range(1, p)}


def char_by_enumeration(spec) -> list[int]:
    """The quadratic character from its definition: +1 exactly on nonzero squares."""
    squares = set()
    for i in range(1, spec.q):
        e = element_from_index(spec, i)
        squares.add(element_to_index(spec, ff_arith(spec, e, e, "mul")))
    return [0] + [1 if i in squares else -1 for i in range(1, spec.q)]


def char_by_euler(spec, x) -> int:
    """The quadratic character by Euler's criterion: x^((q-1)/2) is 1 on nonzero
    squares and -1 on non-squares, computed by square-and-multiply in the field."""
    if not any(x):
        return 0
    t = ff_pow(spec, x, (spec.q - 1) // 2)
    minus_one = (spec.p - 1,) + (0,) * (spec.r - 1)
    assert t in (one(spec), minus_one), f"x^((q-1)/2) = {t} is neither 1 nor -1"
    return 1 if t == one(spec) else -1


def field_product_by_long_division(spec, a, b) -> tuple[int, ...]:
    """a * b in spec's field from the definition: the full product of the two
    coefficient lists, then schoolbook long division by the modulus, dividing
    by its leading coefficient and reducing mod p at every step."""
    p, modulus = spec.p, spec.modulus
    deg = len(modulus) - 1
    rem = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            rem[i + j] = (rem[i + j] + x * y) % p
    inv_lead = pow(modulus[-1], -1, p)
    for top in range(len(rem) - 1, deg - 1, -1):
        quot = rem[top] * inv_lead % p  # the quotient's coefficient of X^(top - deg)
        for j, m in enumerate(modulus):
            rem[top - deg + j] = (rem[top - deg + j] - quot * m) % p
    return tuple(rem[:deg])


def equal_up_to_global_phase(a, b, tol: float = 1e-9) -> bool:
    """True when a = u*b for some unit scalar u, within tol in 2-norm."""
    if a.dim != b.dim:
        raise DimensionMismatch("states must share a dimension")
    weights = np.abs(a.amps) * np.abs(b.amps)
    k = int(np.argmax(weights))
    if weights[k] < 1e-200:
        unit = 1.0
    else:
        ratio = a.amps[k] / b.amps[k]
        unit = ratio / abs(ratio)
    return bool(np.linalg.norm(a.amps - unit * b.amps) <= tol)


def prepare_character_state_eager(oracle, dim, rng=None):
    """Reference for algorithms.prepare_character_state on the full register
    of 3*dim slots x*3 + digit.

    The function is read through oracle's classical queries, with +1 on dummy
    slots past the domain, so this spends classical queries and no coherent
    ones.  Both result branches are projected on every attempt, whichever one
    is returned; the sign flip, the uncompute and the discard are written out
    here.  Either branch is returned on dim slots.
    """
    values = np.array([oracle.query(x) if x < oracle.domain_size else 1 for x in range(dim)])
    slot, digit = np.divmod(np.arange(dim * RESULT_DIM), RESULT_DIM)
    computed = np.zeros(dim * RESULT_DIM, dtype=np.complex128)
    computed[np.arange(dim) * RESULT_DIM + values % RESULT_DIM] = qft(basis_state(dim, 0)).amps
    computed = StateVector(computed)
    zero = digit == 0
    zero_prob, zero_state = project(computed, zero)
    if rng is not None and rng.random() < zero_prob:
        return False, StateVector(zero_state.amps[zero]), zero_prob
    _, state = project(computed, ~zero)
    signed = state.amps.copy()
    signed[digit == 2] = -signed[digit == 2]  # the phase of a -1 value
    cleared = np.empty_like(signed)
    cleared[slot * RESULT_DIM + (values[slot] - digit) % RESULT_DIM] = signed
    kept = cleared[zero]
    mass = float(np.sum(np.abs(kept) ** 2))
    assert abs(mass - 1) <= 1e-9, "the uncompute left the result register computed"
    return True, StateVector(kept / np.sqrt(mass)), zero_prob

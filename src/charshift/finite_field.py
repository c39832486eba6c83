"""Arithmetic in GF(p^r) on coefficient vectors modulo an irreducible polynomial.

Elements are tuples of exactly r coefficients in {0, .., p-1}, constant term
first, always fully reduced, so tuple equality is element equality.  The
module also provides the trace and the quadratic character of one element,
and, for the whole field at once, read-only index-ordered arrays: the digit
table, the trace coordinates x -> (Tr(x), Tr(xX), .., Tr(xX^(r-1))) and the
character table, built with one vectorised multiply of digit rows.  Scalar
products and the irreducibility test reduce by the same monic fold as those arrays.

The character of x is the Jacobi symbol (x / f) in F_p[X], f the modulus, taken
along a Euclid chain of monic remainders like the integer symbol: stripping a
leading coefficient c from a in (a / b) gives legendre(c, p)^deg b, and swapping
monic a, b gives (-1)^((p-1)/2 deg a deg b), the reciprocity law of F_p[X].  Only
integers mod p are computed, so the value is exact.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _cartesian

import numpy as np

from .errors import EvenCharacteristic, NotPrime, ReducibleModulus
from .number_theory import _is_integer, is_prime

FieldElement = tuple[int, ...]


@dataclass(frozen=True)
class FieldSpec:
    """A concrete model of GF(p^r): characteristic, degree, and modulus.

    The modulus is a monic irreducible polynomial of degree r over Z_p,
    stored as a tuple of r+1 coefficients with the constant term first.
    Construction refuses anything else, so every spec is a field.
    """

    p: int
    r: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        p, r, modulus = self.p, self.r, self.modulus
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if type(r) is not int or r < 1:
            raise ValueError(f"degree {r!r} must be a positive int")
        if type(modulus) is not tuple:
            raise ValueError(f"modulus {modulus!r} is not a tuple")
        _check_coefficients(p, modulus, r + 1, "modulus")
        if not _irreducible(p, modulus):  # which refuses a modulus that is not monic
            raise ReducibleModulus(f"{modulus} factors over Z_{p}")

    @property
    def q(self) -> int:
        return self.p**self.r


def _check_coefficients(p, coeffs, count, what="element") -> None:
    """Refuse anything but count ints (not bools) in [0, p)."""
    if len(coeffs) != count or not all(type(c) is int and 0 <= c < p for c in coeffs):
        raise ValueError(f"{what} {coeffs!r} is not {count} integers in [0, {p})")


# ---------------------------------------------------------------------------
# scalar reduction, by the same monic fold as the whole-field arrays (_mul_digits)


def _poly_mod(p, poly, monic):
    """The d = len(monic) - 1 low coefficients of poly (at least d of them, constant
    term first) modulo the monic polynomial, reduced mod p: from the top down, each
    c * X^k with k >= d becomes c * X^(k-d) * (X^d - monic)."""
    d = len(monic) - 1
    rem = list(poly)
    for k in range(len(rem) - 1, d - 1, -1):
        c = rem[k] % p
        if c:
            for j in range(d):
                rem[k - d + j] -= c * monic[j]
    return tuple([c % p for c in rem[:d]])


def is_irreducible(p: int, poly) -> bool:
    """Trial division by every monic divisor of degree at most deg/2."""
    if not (_is_integer(p) and is_prime(int(p))):
        raise NotPrime(f"{p!r} is not prime")
    poly = tuple(poly)
    _check_coefficients(p, poly, len(poly), "polynomial")
    return _irreducible(p, poly)


def _irreducible(p, poly) -> bool:  # for a prime p and a tuple in [0, p), checked by callers
    deg = len(poly) - 1
    if deg < 1 or poly[-1] != 1:
        raise ValueError("polynomial must be monic of degree >= 1")
    for d in range(1, deg // 2 + 1):
        for tail in _cartesian(range(p), repeat=d):
            if not any(_poly_mod(p, poly, tail + (1,))):
                return False
    return True


def _default_modulus(p: int, r: int) -> tuple[int, ...]:
    # Smallest monic irreducible under lexicographic order of the
    # low-degree-first coefficient vector, so field construction is
    # reproducible across runs.
    for tail in _cartesian(range(p), repeat=r):
        candidate = tuple(tail) + (1,)
        if _irreducible(p, candidate):
            return candidate
    raise AssertionError("unreachable: irreducible polynomials exist for every degree")


def make_field(p: int, r: int, modulus=None) -> FieldSpec:
    """Build a field spec, choosing a deterministic modulus when none is given."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if r < 1:
        raise ValueError(f"degree {r} must be positive")
    if modulus is None:
        modulus = _default_modulus(p, r)
    else:
        # integral values (numpy ints, 1.0) become ints; 1.5 stays, for FieldSpec to refuse
        modulus = tuple(int(c) % p if int(c) == c else c for c in modulus)
    return FieldSpec(p=p, r=r, modulus=modulus)


# ---------------------------------------------------------------------------
# element construction and encoding


def one(spec: FieldSpec) -> FieldElement:
    return (1,) + (0,) * (spec.r - 1)


def element_from_index(spec: FieldSpec, index: int) -> FieldElement:
    """Decode the basis index sum(x_j * p^j); coefficient x_0 varies fastest.
    ValueError for an index that is not an integer in [0, q)."""
    if not (_is_integer(index) and 0 <= index < spec.q):
        raise ValueError(f"index {index!r} outside field of size {spec.q}")
    index = int(index)
    coeffs = []
    for _ in range(spec.r):
        index, c = divmod(index, spec.p)
        coeffs.append(c)
    return tuple(coeffs)


def element_to_index(spec: FieldSpec, x: FieldElement) -> int:
    """Inverse of element_from_index; refuses an x that is not canonical."""
    _check_coefficients(spec.p, x, spec.r)
    return sum(c * spec.p**j for j, c in enumerate(x))


# ---------------------------------------------------------------------------
# field arithmetic


def _mul(spec, a, b):
    prod = [0] * (2 * spec.r - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _poly_mod(spec.p, prod, spec.modulus)


def ff_arith(spec: FieldSpec, a: FieldElement, b: FieldElement, kind: str) -> FieldElement:
    """One field operation: kind is "add" or "mul"; elements as element_to_index takes them."""
    _check_coefficients(spec.p, a, spec.r)
    _check_coefficients(spec.p, b, spec.r)
    if kind == "add":
        return tuple((x + y) % spec.p for x, y in zip(a, b))
    if kind == "mul":
        return _mul(spec, a, b)
    raise ValueError(f"unknown operation {kind!r}")


def ff_neg(spec: FieldSpec, a: FieldElement) -> FieldElement:
    _check_coefficients(spec.p, a, spec.r)
    return tuple(-x % spec.p for x in a)


def ff_pow(spec: FieldSpec, a: FieldElement, e: int) -> FieldElement:
    """Square-and-multiply exponentiation; e >= 0."""
    if e < 0:
        raise ValueError(f"exponent {e} is negative")
    out = one(spec)
    base = a
    while e:
        if e & 1:
            out = _mul(spec, out, base)
        base = _mul(spec, base, base)
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# trace, quadratic character, and the whole-field tables (one row or entry
# per element, in index order)


@lru_cache(maxsize=None)
def _basis_traces(spec: FieldSpec) -> tuple[int, ...]:
    # Tr(X^k) for k = 0 .. 2r-2, by direct power sums in the field; a trace lies
    # in Z_p, so only the constant coefficients of the conjugates X^(k p^j) add up.
    gen = (0, 1) + (0,) * (spec.r - 2)  # the element X; r = 1 needs only X^0 = 1
    return tuple(
        sum(ff_pow(spec, gen, k * spec.p**j)[0] for j in range(spec.r)) % spec.p
        for k in range(2 * spec.r - 1)
    )


def trace(spec: FieldSpec, x):
    """Tr(x) in {0, .., p-1}, linear in the digits of x through precomputed Tr(X^j);
    an array of digit rows (digits on the last axis) gives one trace per row."""
    if not isinstance(x, np.ndarray):  # one element, checked like every other
        _check_coefficients(spec.p, x, spec.r)
    return np.asarray(x) @ np.array(_basis_traces(spec)[: spec.r]) % spec.p


def quadratic_character(spec: FieldSpec, x: FieldElement) -> int:
    """+1 on nonzero squares, -1 on non-squares, 0 at zero.  Odd p only.

    For monic a, b with deg a < deg b, the Jacobi symbol (a / b) of F_p[X] obeys:
      - (c a / b) = legendre(c, p)^deg b (a / b) for a constant c, as on a prime of
        degree d, c^((p^d - 1)/2) = legendre(c, p)^(1 + p + .. + p^(d-1)) = legendre(c, p)^d;
      - (a / b) = (-1)^((p-1)/2 deg a deg b) (b mod a / a) (Rosen, GTM 210, ch. 3).
    From (x / f) these reach (1 / b) = 1 on integers mod p alone, so the value is
    exact.
    """
    p, half = spec.p, (spec.p - 1) // 2
    if p == 2:
        raise EvenCharacteristic("quadratic character undefined for p = 2")
    _check_coefficients(p, x, spec.r)
    if not any(x):
        return 0
    a, b, sign = x, spec.modulus, 1
    while len(b) > 1:  # b monic of positive degree, a of lower degree
        d = len(a)
        while not a[d - 1]:  # a != 0, since f is irreducible and x != 0
            d -= 1
        a, lead = a[:d], a[d - 1]
        if lead != 1:
            if len(b) % 2 == 0 and pow(lead, half, p) != 1:  # legendre(lead, p)^deg b = -1
                sign = -sign
            inv = pow(lead, -1, p)
            a = [c * inv % p for c in a]
        if half * (d - 1) * (len(b) - 1) % 2:  # the reciprocity sign
            sign = -sign
        a, b = _poly_mod(p, b, a), a
    return sign


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def digit_table(spec: FieldSpec) -> np.ndarray:
    """The (q, r) int64 array whose row i is element_from_index(spec, i)."""
    return _frozen(np.arange(spec.q)[:, None] // spec.p ** np.arange(spec.r) % spec.p)


def _mul_digits(spec: FieldSpec, a, b) -> np.ndarray:
    """Field products of digit rows a and b, broadcast over the leading axes."""
    p, r = spec.p, spec.r
    # Every partial sum below stays within 2*r*(p-1)^2 in absolute value.
    dtype = np.min_scalar_type(-2 * r * p * p)
    a, b = np.broadcast_arrays(np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype))
    # Digit axis first, so that every update below runs over whole planes.
    a, b = np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)
    acc = np.zeros((2 * r - 1,) + a.shape[1:], dtype=dtype)
    for i in range(r):
        acc[i : i + r] += a[i] * b
    # X^r = -(m_0 + m_1 X + .. + m_(r-1) X^(r-1)) for the monic modulus m,
    # so each top coefficient folds down onto the r below it.
    low = np.array(spec.modulus[:r], dtype=dtype).reshape((r,) + (1,) * (a.ndim - 1))
    for k in range(2 * r - 2, r - 1, -1):
        acc[k - r : k] -= acc[k] % p * low
    return np.moveaxis(acc[:r] % p, 0, -1)


@lru_cache(maxsize=None)
def trace_coordinates(spec: FieldSpec) -> np.ndarray:
    """The (q, r) array whose row x is (Tr(x), Tr(xX), .., Tr(xX^(r-1))).

    Row x is digits(x) @ H mod p with H[i][j] = Tr(X^(i+j)).  In a field H is
    invertible, so the rows are distinct.
    """
    basis = _basis_traces(spec)
    hankel = np.array([[basis[i + j] for j in range(spec.r)] for i in range(spec.r)])
    return _frozen(digit_table(spec) @ hankel % spec.p)


@lru_cache(maxsize=None)
def character_table(spec: FieldSpec) -> np.ndarray:
    """The quadratic character of every element, int8 in index order.

    +1 on the image of squaring, 0 at zero, -1 elsewhere.  Odd p only.
    """
    if spec.p == 2:
        raise EvenCharacteristic("quadratic character undefined for p = 2")
    digits = digit_table(spec)
    table = np.full(spec.q, -1, dtype=np.int8)
    table[_mul_digits(spec, digits, digits) @ spec.p ** np.arange(spec.r)] = 1
    table[0] = 0
    return _frozen(table)


# ---------------------------------------------------------------------------
# textual form used by the CLI and config files


def format_poly(coeffs) -> str:
    """Comma-separated coefficients, low degree first, e.g. "1,0,1"."""
    return ",".join(str(c) for c in coeffs)


def parse_poly(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad polynomial {text!r}: {exc}") from None

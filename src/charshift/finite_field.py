"""Arithmetic in GF(p^r) on coefficient vectors modulo an irreducible polynomial.

Elements are tuples of exactly r coefficients in {0, .., p-1}, constant term
first, always fully reduced, so tuple equality is element equality.  The
module also provides the trace, the quadratic character, and the invertible
trace-coordinate map x -> (Tr(x), Tr(xX), .., Tr(xX^(r-1))).
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _cartesian

from .errors import EvenCharacteristic, NotPrime, ReducibleModulus, SingularTraceMatrix
from .number_theory import is_prime

FieldElement = tuple[int, ...]


@dataclass(frozen=True)
class FieldSpec:
    """A concrete model of GF(p^r): characteristic, degree, and modulus.

    The modulus is a monic irreducible polynomial of degree r over Z_p,
    stored as r+1 coefficients with the constant term first.
    """

    p: int
    r: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p**self.r


# ---------------------------------------------------------------------------
# dense polynomial helpers over Z_p (coefficient lists, constant term first)


def _trim(poly):
    d = len(poly)
    while d > 0 and poly[d - 1] == 0:
        d -= 1
    return poly[:d]


def _poly_mul(p, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_divmod(p, a, b):
    a = list(a)
    deg_b = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    quot = [0] * max(len(a) - deg_b, 0)
    for i in range(len(a) - 1, deg_b - 1, -1):
        c = a[i] * inv_lead % p
        if c:
            quot[i - deg_b] = c
            for j, bj in enumerate(b):
                a[i - deg_b + j] = (a[i - deg_b + j] - c * bj) % p
    return _trim(quot), _trim(a)


def is_irreducible(p: int, poly) -> bool:
    """Trial division by every monic divisor of degree at most deg/2."""
    poly = tuple(poly)
    deg = len(poly) - 1
    if deg < 1 or poly[-1] != 1:
        raise ValueError("polynomial must be monic of degree >= 1")
    for d in range(1, deg // 2 + 1):
        for tail in _cartesian(range(p), repeat=d):
            divisor = list(tail) + [1]
            _, rem = _poly_divmod(p, poly, divisor)
            if not rem:
                return False
    return True


def _default_modulus(p: int, r: int) -> tuple[int, ...]:
    # Smallest monic irreducible under lexicographic order of the
    # low-degree-first coefficient vector, so field construction is
    # reproducible across runs.
    for tail in _cartesian(range(p), repeat=r):
        candidate = tuple(tail) + (1,)
        if is_irreducible(p, candidate):
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
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != r + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree exactly {r}")
        if not is_irreducible(p, modulus):
            raise ReducibleModulus(f"{modulus} factors over Z_{p}")
    spec = FieldSpec(p=p, r=r, modulus=modulus)
    # Fail fast on an inconsistent spec: the trace-coordinate matrix of a
    # genuine field is always invertible.
    _trace_matrix_inverse(spec)
    return spec


# ---------------------------------------------------------------------------
# element construction and encoding


def make_element(spec: FieldSpec, coeffs) -> FieldElement:
    """Canonicalize a coefficient vector: exactly r entries, reduced mod p."""
    coeffs = tuple(coeffs)
    if len(coeffs) != spec.r:
        raise ValueError(f"element needs exactly {spec.r} coefficients")
    return tuple(c % spec.p for c in coeffs)


def zero(spec: FieldSpec) -> FieldElement:
    return (0,) * spec.r


def one(spec: FieldSpec) -> FieldElement:
    return (1,) + (0,) * (spec.r - 1)


def element_from_index(spec: FieldSpec, index: int) -> FieldElement:
    """Decode the basis index sum(x_j * p^j); coefficient x_0 varies fastest."""
    if not 0 <= index < spec.q:
        raise ValueError(f"index {index} outside field of size {spec.q}")
    coeffs = []
    for _ in range(spec.r):
        index, c = divmod(index, spec.p)
        coeffs.append(c)
    return tuple(coeffs)


def element_to_index(spec: FieldSpec, x: FieldElement) -> int:
    """Inverse of element_from_index."""
    out = 0
    for c in reversed(x):
        out = out * spec.p + c
    return out


# ---------------------------------------------------------------------------
# field arithmetic


def _mul(spec, a, b):
    prod = _poly_mul(spec.p, a, b)
    _, rem = _poly_divmod(spec.p, prod, spec.modulus) if prod else ([], [])
    return tuple(rem) + (0,) * (spec.r - len(rem))



def ff_arith(spec: FieldSpec, a: FieldElement, b: FieldElement, kind: str) -> FieldElement:
    """One field operation: kind is "add" or "mul"."""
    if kind == "add":
        return tuple((x + y) % spec.p for x, y in zip(a, b))
    if kind == "mul":
        return _mul(spec, a, b)
    raise ValueError(f"unknown operation {kind!r}")


def ff_neg(spec: FieldSpec, a: FieldElement) -> FieldElement:
    return tuple(-x % spec.p for x in a)


def ff_pow(spec: FieldSpec, a: FieldElement, e: int) -> FieldElement:
    """Square-and-multiply exponentiation; e >= 0."""
    out = one(spec)
    base = a
    while e:
        if e & 1:
            out = _mul(spec, out, base)
        base = _mul(spec, base, base)
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# trace, quadratic character, trace coordinates


@lru_cache(maxsize=None)
def _basis_traces(spec: FieldSpec) -> tuple[int, ...]:
    # Tr(X^k) for k = 0 .. 2r-2, by direct power sums in the field.
    if spec.r == 1:
        return (1,)
    gen = (0, 1) + (0,) * (spec.r - 2)  # the element X
    out = []
    for k in range(2 * spec.r - 1):
        xk = ff_pow(spec, gen, k)
        acc = zero(spec)
        for j in range(spec.r):
            acc = ff_arith(spec, acc, ff_pow(spec, xk, spec.p**j), "add")
        if any(acc[1:]):
            raise SingularTraceMatrix(f"trace of X^{k} left the base field; bad spec {spec}")
        out.append(acc[0])
    return tuple(out)


def trace(spec: FieldSpec, x: FieldElement) -> int:
    """Tr(x) in {0, .., p-1}, computed linearly from precomputed Tr(X^j)."""
    basis = _basis_traces(spec)
    return sum(c * basis[j] for j, c in enumerate(x)) % spec.p


def quadratic_character(spec: FieldSpec, x: FieldElement) -> int:
    """+1 on nonzero squares, -1 on non-squares, 0 at zero.  Odd p only."""
    if spec.p == 2:
        raise EvenCharacteristic("quadratic character undefined for p = 2")
    if not any(x):
        return 0
    t = ff_pow(spec, x, (spec.q - 1) // 2)
    if t == one(spec):
        return 1
    if t == make_element(spec, (spec.p - 1,) + (0,) * (spec.r - 1)):
        return -1
    raise AssertionError(f"x^((q-1)/2) = {t} is neither 1 nor -1; bad spec {spec}")


def _matinv_modp(p, mat):
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] % p), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [v * inv % p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [(v - c * w) % p for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def _trace_matrix_inverse(spec: FieldSpec) -> tuple[tuple[int, ...], ...]:
    basis = _basis_traces(spec)
    mat = [[basis[i + j] for j in range(spec.r)] for i in range(spec.r)]
    inv = _matinv_modp(spec.p, mat)
    if inv is None:
        raise SingularTraceMatrix(f"trace matrix singular for {spec}")
    return tuple(tuple(row) for row in inv)


def trace_coordinates(spec: FieldSpec, x: FieldElement) -> tuple[int, ...]:
    """The vector (Tr(x), Tr(xX), .., Tr(xX^(r-1)))."""
    basis = _basis_traces(spec)
    return tuple(
        sum(c * basis[i + j] for j, c in enumerate(x)) % spec.p for i in range(spec.r)
    )


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


def parse_element(spec: FieldSpec, text: str) -> FieldElement:
    """Parse an element in the same comma-separated form, exactly r entries."""
    return make_element(spec, parse_poly(text))

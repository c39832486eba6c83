"""Integer-side primitives.

Legendre and Jacobi symbols and their whole-ring tables, trial-division factorization
of odd square-free integers, Euler phi, Chinese remaindering, continued-fraction
convergents, and quadratic Gauss sums in both closed form and literal brute force.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    DomainTooLarge,
    EvenInput,
    NotOddPrime,
    NotSquareFree,
    UnsupportedParameters,
)

# Miller-Rabin with the first k primes as bases decides every n below psi_k, the
# least odd composite that is a strong pseudoprime to all k of them (OEIS A014233;
# Jaeschke, Math. Comp. 61, 1993; Sorenson and Webster, Math. Comp. 86, 2017, for
# psi_12 and psi_13).  psi_7 = psi_8 and psi_9 = psi_10 = psi_11, so those bases
# add no range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUNDS = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
_MR_PRIMORIAL = math.prod(_MR_BASES)

_UNITS = (1 + 0j, 1j, -1 + 0j, -1j)  # powers of i

# Largest domain gauss_sum_bruteforce sums over.
GAUSS_BRUTEFORCE_MAX = 10**6


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, proven for every n below
    psi_13 = 3317044064679887385961981 (about 3.3 * 10^24).

    Uses the first k prime bases for the least k with n < psi_k (OEIS A014233),
    so n < 2047 costs one modular power and n < 1373653 two.  A False is always
    proven by a witness; an n >= psi_13 that passes all 13 bases raises
    DomainTooLarge, since no proven base set of this form decides it.
    """
    if n < 2:
        return False
    if math.gcd(n, _MR_PRIMORIAL) != 1:
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for b, bound in zip(_MR_BASES, _MR_BOUNDS):
        x = pow(b, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < bound:
            return True
    raise DomainTooLarge(f"{n} passes all {len(_MR_BASES)} bases but is at least "
                         f"{_MR_BOUNDS[-1]}, beyond the proven range")


@lru_cache(maxsize=256, typed=True)  # proven once; typed keeps 7, 7.0 and True apart
def is_odd_prime(n: int) -> bool:
    """Whether n is a prime other than 2, the moduli the Legendre symbol takes."""
    return n != 2 and is_prime(n)


def _is_integer(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def legendre(x: int, p: int) -> int:
    """Quadratic residue symbol of x modulo an odd prime p, in {-1, 0, +1}: one Euler
    power, p proven prime once by is_odd_prime's cache.  A float or bool argument is
    refused with ValueError; numpy integers become ints."""
    if type(x) is not int or type(p) is not int:  # numpy integers become ints
        if not (_is_integer(x) and _is_integer(p)):
            raise ValueError(f"legendre takes integers, not {x!r} and {p!r}")
        x, p = int(x), int(p)
    if not is_odd_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    x %= p
    if x == 0:
        return 0
    return 1 if pow(x, (p - 1) // 2, p) == 1 else -1


def jacobi(x: int, n: int) -> int:
    """Jacobi symbol of x modulo odd n >= 1, via quadratic reciprocity.

    Never factors n, so a Jacobi-symbol oracle can be evaluated without
    revealing the factorization it hides.  A float or bool argument is
    refused with ValueError; numpy integers count as integers.
    """
    if type(x) is not int or type(n) is not int:  # numpy integers become ints
        if not (_is_integer(x) and _is_integer(n)):
            raise ValueError(f"jacobi takes integers, not {x!r} and {n!r}")
        x, n = int(x), int(n)
    if n < 1 or n % 2 == 0:
        raise EvenInput(f"modulus {n} must be odd and positive")
    x %= n
    acc = 1
    while x:
        if not x & 1:
            twos = (x & -x).bit_length() - 1  # every factor 2 at once
            x >>= twos
            if twos & 1 and n % 8 in (3, 5):
                acc = -acc
        if x & n & 2:  # reciprocity: both are 3 mod 4
            acc = -acc
        x, n = n % x, x
    return acc if n == 1 else 0


@lru_cache(maxsize=None)
def _legendre_table(p: int) -> np.ndarray:
    """(y/p) for every y in Z_p, by enumerating the nonzero squares; read-only."""
    table = np.full(p, -1, dtype=np.int8)
    table[0] = 0
    table[(np.arange(1, p, dtype=np.int64) ** 2) % p] = 1
    table.flags.writeable = False
    return table


def _jacobi_row(factors, shift: int = 0, size=None) -> np.ndarray:
    """jacobi(x + shift, n) for x in Z_n, n = prod(factors), from tiled Legendre
    rows; with a size, that one period repeated over x in range(size)."""
    n = math.prod(factors)
    out = np.ones(n, dtype=np.int8)
    for p in factors:
        out *= np.tile(np.roll(_legendre_table(p), -(shift % p)), n // p)
    return out if size is None else np.tile(out, -(-size // n))[:size]


@dataclass(frozen=True)
class FactoredOddSquarefree:
    """An odd square-free integer together with its sorted prime factors."""

    n: int
    factors: tuple[int, ...]

    def __post_init__(self):
        if self.n % 2 == 0:
            raise EvenInput(f"{self.n} is even")
        if len(set(self.factors)) != len(self.factors):
            raise NotSquareFree(f"repeated factor in {self.factors}")
        if tuple(sorted(self.factors)) != self.factors:
            raise ValueError("factors must be sorted ascending")
        prod = 1
        for p in self.factors:
            if not is_odd_prime(p):
                raise ValueError(f"{p} is not an odd prime")
            prod *= p
        if prod != self.n:
            raise ValueError(f"factors {self.factors} do not multiply to {self.n}")


def factor_trial(n: int) -> FactoredOddSquarefree:
    """Factor an odd integer n >= 3 by trial division; reject square factors."""
    if n % 2 == 0:
        raise EvenInput(f"{n} is even")
    if n < 3:
        raise ValueError(f"{n} is below the smallest legal modulus 3")
    factors = []
    rest, d = n, 3
    while d * d <= rest:
        if rest % d == 0:
            rest //= d
            if rest % d == 0:
                raise NotSquareFree(f"{d}^2 divides {n}")
            factors.append(d)
        else:
            d += 2
    if rest > 1:
        factors.append(rest)
    return FactoredOddSquarefree(n, tuple(factors))


def euler_phi(moduli: FactoredOddSquarefree) -> int:
    """|Z_n^*| for square-free n: the product of (p - 1) over its factors."""
    out = 1
    for p in moduli.factors:
        out *= p - 1
    return out


def crt_compose(residues, moduli: FactoredOddSquarefree) -> int:
    """The unique x in Z_n with the given residue per prime factor."""
    if len(residues) != len(moduli.factors):
        raise ValueError("one residue per factor required")
    n = moduli.n
    x = 0
    for res, p in zip(residues, moduli.factors):
        m = n // p
        x += res * m * pow(m, -1, p)
    return x % n


def convergents(i: int, m: int) -> list[Fraction]:
    """All continued-fraction convergents of i/m, ending at i/m in lowest terms."""
    if not 0 <= i < m:
        raise ValueError(f"need 0 <= {i} < {m}")
    quotients = []
    a, b = i, m
    while b:
        quotients.append(a // b)
        a, b = b, a % b
    # First quotient is 0 since i < m; the recurrence then builds h/k pairs.
    out = []
    h_prev, h = 1, quotients[0]
    k_prev, k = 0, 1
    out.append(Fraction(h, k))
    for q in quotients[1:]:
        h_prev, h = h, q * h + h_prev
        k_prev, k = k, q * k + k_prev
        out.append(Fraction(h, k))
    return out


@dataclass(frozen=True)
class GaussSum:
    """Exact value u * sqrt(radicand) with u one of 1, i, -1, -i."""

    unit: complex
    radicand: int

    @property
    def value(self) -> complex:
        return self.unit * math.sqrt(self.radicand)

    @property
    def exact_str(self) -> str:
        prefix = {1 + 0j: "", 1j: "i*", -1 + 0j: "-", -1j: "-i*"}[self.unit]
        return f"{prefix}sqrt({self.radicand})"


def gauss_sum_closed_form(domain) -> GaussSum:
    """Tabulated exact value of the quadratic Gauss sum over domain: Z_n for a
    FactoredOddSquarefree (a prime p is FactoredOddSquarefree(p, (p,)), where the
    Jacobi symbol is Legendre's), F_q for a finite_field.FieldSpec."""
    if isinstance(domain, FactoredOddSquarefree):
        n = domain.n
        return GaussSum(_UNITS[0] if n % 4 == 1 else _UNITS[1], n)
    p, r = domain.p, domain.r
    if p == 2:
        raise UnsupportedParameters("no closed form in characteristic two")
    # (-1)^(r-1) * i^(r*(p-1)^2/4), folded into a single power of i.
    exponent = (2 * (r - 1) + r * ((p - 1) ** 2 // 4)) % 4
    return GaussSum(_UNITS[exponent], p**r)


def gauss_sum_bruteforce(domain) -> complex:
    """The literal character-weighted root-of-unity sum over the domain that
    gauss_sum_closed_form takes, in double precision."""
    ring = isinstance(domain, FactoredOddSquarefree)
    size = domain.n if ring else domain.q
    if size > GAUSS_BRUTEFORCE_MAX:
        raise DomainTooLarge(f"domain of size {size} exceeds {GAUSS_BRUTEFORCE_MAX}")
    if ring:
        roots = np.array([cmath.exp(2j * cmath.pi * x / size) for x in range(size)])
        return complex(np.cumsum(_jacobi_row(domain.factors) * roots)[-1])
    from .finite_field import character_table, trace_coordinates

    roots = np.array([cmath.exp(2j * cmath.pi * k / domain.p) for k in range(domain.p)])
    terms = character_table(domain) * roots[trace_coordinates(domain)[:, 0]]
    return complex(np.cumsum(terms)[-1])

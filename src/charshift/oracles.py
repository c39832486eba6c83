"""Query-counting black boxes for the four shifted-character problem variants.

An oracle hides its shift (and, for the unknown-modulus variant, the modulus
itself) behind a counting surface: query() evaluates the scalar symbol at one
point, and value_query_superposed() updates a three-valued result register
the way a reversible circuit would, so that applying it twice uncomputes it.
The coherent counter keeps the name phase_query_count: a value query followed
by a sign flip on the result is the phase query the algorithms need.

Coherent queries read one whole-domain table from the constructor's builder: for Jacobi
per-prime Legendre rows, otherwise one symbol call per shifted point x + s, in index order.

Result register encoding: a function value v in {-1, 0, +1} is stored as the
digit v mod 3.  A coherent query acts on states sum_x a_x |x>|g(x)>, with one
digit per slot, so the register is carried as a column of int8 digits beside
the amplitudes, which never pass through the oracle.  The update is
g <- (v - g) mod 3, an involution that computes from a cleared register and
clears a computed one.
"""

import threading
from functools import partial
from itertools import product, repeat

import numpy as np

from . import finite_field as ff
from .errors import (
    DomainViolation,
    EvenCharacteristic,
    ModulusTooLargeForM,
    NotOddPrime,
    ShiftOutOfRange,
)
from .number_theory import (_is_integer, _jacobi_row, factor_trial, is_odd_prime, jacobi,
                            legendre)

RESULT_DIM = 3

VARIANT_LEGENDRE = "legendre"
VARIANT_JACOBI = "jacobi"
VARIANT_JACOBI_UNKNOWN = "jacobi-unknown"
VARIANT_FIELD = "field"


class ShiftOracle:
    """A hidden-shift function with classical and coherent query counters."""

    def __init__(self, variant, domain_size, point_fn, tabulate, field=None):
        self.variant = variant
        self.domain_size = domain_size
        self._point_fn = point_fn
        self._tabulate = tabulate
        self._field = field
        self._table = None
        self._lock = threading.Lock()
        self._query_count = 0
        self._phase_query_count = 0

    # -- counters ----------------------------------------------------------

    @property
    def query_count(self) -> int:
        return self._query_count

    @property
    def phase_query_count(self) -> int:
        return self._phase_query_count

    @property
    def field_spec(self):
        """The field model for the field variant; public problem data."""
        return self._field

    def _bump(self, counter: str):
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    # -- classical surface ---------------------------------------------------

    def query(self, x) -> int:
        """Evaluate the hidden function at one point; counts one classical query."""
        if not _is_integer(x) or not 0 <= x < self.domain_size:
            raise DomainViolation(f"{x!r} outside domain of size {self.domain_size}")
        self._bump("_query_count")
        return self._point_fn(int(x))

    # -- coherent surface ----------------------------------------------------

    def _values(self, base_dim: int) -> np.ndarray:
        # Hidden function tabulated over a register of base_dim slots; slots at
        # or beyond the domain are dummy positions and evaluate to +1.
        if self._table is None:
            self._table = self._tabulate()
        out = np.ones(base_dim, dtype=np.int8)
        upto = min(base_dim, self.domain_size)
        out[:upto] = self._table[:upto]
        return out

    def value_query_superposed(self, dim: int, digits=None) -> np.ndarray:
        """Coherently evaluate into the result register (one coherent query).

        The register holds one digit in {0, 1, 2} per slot of a dim-slot
        register: digits, or a cleared register (all 0) when digits is None.
        Returns the updated digits (value - digit) mod 3 as a fresh read-only
        int8 array; a second call on the first call's output clears them.
        """
        values = self._values(dim)
        if digits is not None:
            if np.shape(digits) != (dim,):
                raise DomainViolation(f"{np.shape(digits)} digits for a {dim}-slot register")
            values -= digits
        values += (values < 0) * np.int8(RESULT_DIM)  # mod 3 of -3..1, without a division
        values.flags.writeable = False
        self._bump("_phase_query_count")
        return values


def _draw_or_check(value, size, rng, label):
    if value is None:
        if rng is None:
            raise ValueError(f"either an explicit {label} or an rng is required")
        return int(rng.integers(size))
    if not _is_integer(value) or not 0 <= value < size:
        raise ShiftOutOfRange(f"{label} {value!r} outside [0, {size})")
    return int(value)


def _field_shift(fld: ff.FieldSpec, shift) -> ff.FieldElement:
    """shift as r integer coefficients in [0, p); anything else is refused."""
    coeffs = tuple(shift) if isinstance(shift, (tuple, list)) else ()
    if len(coeffs) != fld.r or not all(_is_integer(c) and 0 <= c < fld.p for c in coeffs):
        raise ShiftOutOfRange(f"shift {shift!r} is not {fld.r} integers in [0, {fld.p})")
    return tuple(int(c) for c in coeffs)


def legendre_oracle(p: int, shift=None, rng=None) -> ShiftOracle:
    """f(x) = legendre(x + s, p) on Z_p with hidden s."""
    if not is_odd_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    s = _draw_or_check(shift, p, rng, "shift")
    # legendre is looked up per build, so a tracer that rebinds it sees every call
    table = lambda: np.fromiter(map(legendre, range(s, s + p), repeat(p)), np.int8, p)
    return ShiftOracle(VARIANT_LEGENDRE, p, lambda x: legendre(x + s, p), table)


def jacobi_oracle(n: int, shift=None, rng=None) -> ShiftOracle:
    """f(x) = jacobi(x + s, n) on Z_n for odd square-free n with hidden s."""
    factors = factor_trial(n).factors  # rejects even and non-square-free moduli
    s = _draw_or_check(shift, n, rng, "shift")
    table = partial(_jacobi_row, factors, s)
    return ShiftOracle(VARIANT_JACOBI, n, lambda x: jacobi(x + s, n), table)


def jacobi_unknown_oracle(n: int, big_m: int, shift=None, rng=None) -> ShiftOracle:
    """f(x) = jacobi(x + s, n) repeated over Z_M, hiding both s and n.

    The wrap at the domain edge follows the period: f(x) depends only on
    x + s modulo n, for every x in Z_M.
    """
    if n * n >= big_m:  # before factor_trial, whose trial division can take minutes
        raise ModulusTooLargeForM(f"need n^2 < M but {n}^2 >= {big_m}")
    factors = factor_trial(n).factors
    s = _draw_or_check(shift, n, rng, "shift")
    table = partial(_jacobi_row, factors, s, big_m)
    return ShiftOracle(VARIANT_JACOBI_UNKNOWN, big_m, lambda x: jacobi(x + s, n), table)


def field_oracle(fld: ff.FieldSpec, shift=None, rng=None) -> ShiftOracle:
    """f(x) = chi(x + s) on F_q with hidden s, for odd characteristic."""
    if fld.p == 2:
        raise EvenCharacteristic("character oracles need odd characteristic")
    if shift is None:
        if rng is None:
            raise ValueError("either an explicit shift or an rng is required")
        s = ff.element_from_index(fld, int(rng.integers(fld.q)))
    else:
        s = _field_shift(fld, shift)

    def point(x: int) -> int:
        elem = ff.element_from_index(fld, x)
        return ff.quadratic_character(fld, ff.ff_arith(fld, elem, s, "add"))

    # x + s in index order: coordinate 0 varies fastest, so it is product's last
    rotated = [[(c + sj) % fld.p for c in range(fld.p)] for sj in reversed(s)]
    char = lambda elem: ff.quadratic_character(fld, elem[::-1])
    table = lambda: np.fromiter(map(char, product(*rotated)), np.int8, fld.q)
    return ShiftOracle(VARIANT_FIELD, fld.q, point, table, field=fld)

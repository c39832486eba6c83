"""Query-counting black boxes for the four shifted-character problem variants.

An oracle hides its shift (and, for the unknown-modulus variant, the modulus
itself) behind a counting surface: query() evaluates the scalar symbol at one
point, and value_query_superposed() entangles a three-valued result register
the way a reversible circuit would, so that applying it twice uncomputes it.
The coherent counter keeps the name phase_query_count: a value query followed
by result_sign_phase() is the phase query the algorithms need.

Coherent queries read one whole-domain table from the constructor's builder: for
Jacobi a product of per-prime Legendre rows over a period, point by point otherwise.

Result register encoding: a function value v in {-1, 0, +1} is stored as the
digit v mod 3 at the fast end of the index, i.e. composite index = x*3 + digit.
The coherent update is digit <- (v - digit) mod 3, an involution that computes
from a cleared register and clears a computed one.  Both modes are one gather
or scatter through an intp index cached per register base (see _index), in
numpy's own index type so that no query converts it.
"""

import threading
from functools import partial

import numpy as np

from . import finite_field as ff
from .errors import (
    DomainViolation,
    EvenCharacteristic,
    ModulusTooLargeForM,
    NotOddPrime,
    ShiftOutOfRange,
)
from .number_theory import _jacobi_row, factor_trial, is_odd_prime, jacobi, legendre
from .qsim import NORM_TOL, StateVector, _trusted

RESULT_DIM = 3
# _STEP[v + 1, w] = (v - w) mod 3 - w, which moves slot x*3 + w to x*3 + (v - w) mod 3.
_STEP = np.array([[2, 0, -2], [0, 1, -1], [1, -1, 0]], dtype=np.intp)

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
        self._indices = {}  # register base -> read-only uncompute index
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

    def _index(self, base: int) -> np.ndarray:
        # index[x*3 + w] = x*3 + (v(x) - w) mod 3 over base slots: the entangled
        # query gathers amps[index], the plain one scatters amps[x] to index[x*3].
        index = self._indices.get(base)
        if index is None:
            index = _STEP.take(self._values(base) + 1, axis=0).ravel()
            index += np.arange(base * RESULT_DIM, dtype=np.intp)
            index.flags.writeable = False
            self._indices[base] = index
        return index

    def value_query_superposed(self, state: StateVector, entangled: bool = False) -> StateVector:
        """Coherently evaluate into the result register (one coherent query).

        With entangled=False the input ranges over plain domain indices and a
        fresh cleared register is attached, tripling the dimension.  With
        entangled=True the input already carries the register and the update
        digit <- (value - digit) mod 3 is applied, so a second call uncomputes
        the first.
        """
        if entangled:
            if state.dim % RESULT_DIM:
                raise DomainViolation("entangled state dimension must be a multiple of 3")
            out = state.amps[self._index(state.dim // RESULT_DIM)]
        else:
            out = np.zeros(state.dim * RESULT_DIM, dtype=np.complex128)
            out[self._index(state.dim)[::RESULT_DIM]] = state.amps
        self._bump("_phase_query_count")
        return _trusted(out)


def result_sign_phase(state: StateVector) -> StateVector:
    """Flip the sign of branches whose result register holds -1.

    Register-local and oracle-free: the phase is read off the already
    computed digit, with the zero digit treated as +1.
    """
    if state.dim % RESULT_DIM:
        raise DomainViolation("state dimension must be a multiple of 3")
    out = state.amps.copy()
    np.negative(out[2::RESULT_DIM], out=out[2::RESULT_DIM])
    return _trusted(out)


def discard_result_register(state: StateVector) -> StateVector:
    """Drop a result register that has been uncomputed back to the zero digit."""
    if state.dim % RESULT_DIM:
        raise DomainViolation("state dimension must be a multiple of 3")
    col0 = state.amps[0::RESULT_DIM]
    mass = float(np.sum(np.abs(col0) ** 2))
    if not abs(mass - 1.0) <= NORM_TOL:
        raise DomainViolation(f"result register still carries mass {1 - mass!r}")
    return _trusted(col0 / np.sqrt(mass))


def _is_integer(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


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


def _per_point(point_fn, size):
    return lambda: np.fromiter((point_fn(x) for x in range(size)), dtype=np.int8, count=size)


def legendre_oracle(p: int, shift=None, rng=None) -> ShiftOracle:
    """f(x) = legendre(x + s, p) on Z_p with hidden s."""
    if not is_odd_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    s = _draw_or_check(shift, p, rng, "shift")
    point = lambda x: legendre(x + s, p)
    return ShiftOracle(VARIANT_LEGENDRE, p, point, _per_point(point, p))


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
    factors = factor_trial(n).factors
    if n * n >= big_m:
        raise ModulusTooLargeForM(f"need n^2 < M but {n}^2 >= {big_m}")
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

    return ShiftOracle(VARIANT_FIELD, fld.q, point, _per_point(point, fld.q), field=fld)

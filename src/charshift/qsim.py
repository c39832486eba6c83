"""Exact dense statevector simulation over arbitrary finite dimensions.

Registers are plain index ranges 0..N-1 for any N, not qubit tensors, because
every register in this package is Z_p-, Z_n-, Z_M-, or F_q-sized.  Each of
these is a finite abelian group, so one multi-axis DFT (numpy's pocketfft,
O(N log N) for every N) serves the transform over Z_N, the transform on one
sub-register of a composite register, and the trace transform over F_q.  The
forward transform uses the +2*pi*i sign convention.  For a real state,
fourier_distribution gives the transform's outcome probabilities from a
half-length real FFT instead.  The phase, permutation and projection kernels
take one array entry per basis index.  All operations return fresh states and
never mutate their input; sample, the one sampler of a probability array,
overwrites the array it is given.  StateVector and normalized copy and
norm-check their input, kernels freeze their fresh output, and project and
sample check norms.  The oracles' three-valued result register is no state
here: it stays a digit column beside the amplitudes (see oracles).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import finite_field as ff
from .errors import DimensionMismatch, NonUnitPhase, NotBijective

NORM_TOL = 1e-9

# Largest norm of the imaginary parts fourier_distribution drops.  A prepared
# character state has none at M = 2^k and elsewhere only the uniform state's
# rounding residue, below 2e-15 * max|re| per slot at M = 1132, 4093, 10007
# and 65537, so a norm below 1e-15.
REAL_TOL = 1e-12

_DEAD_AMP = 1e-12  # amplitudes below this are treated as unoccupied


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized complex amplitude vector of arbitrary dimension."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.ndim != 1 or amps.shape[0] < 1:
            raise ValueError("amplitudes must form a nonempty vector")
        _check_norm(float(np.sum(np.abs(amps) ** 2)))
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.shape[0]


def _check_norm(sq: float) -> float:
    if not abs(sq - 1.0) <= NORM_TOL:  # negated so that a NaN norm fails too
        raise ValueError(f"state norm^2 = {sq!r} is not 1 within {NORM_TOL}")
    return sq


def _check_state_norm(amps: np.ndarray) -> float:
    re_im = amps.view(np.float64)  # einsum, not np.vdot: BLAS threads spin on after it
    return _check_norm(float(np.einsum("i,i->", re_im, re_im)))


def _trusted(amps: np.ndarray) -> StateVector:
    # A kernel's own fresh 1-D complex128 output: frozen, neither copied nor re-normed.
    amps.flags.writeable = False
    state = object.__new__(StateVector)
    object.__setattr__(state, "amps", amps)
    return state


def basis_state(dim: int, index: int) -> StateVector:
    """Unit amplitude at one index."""
    if not isinstance(index, (int, np.integer)) or not 0 <= index < dim:
        raise ValueError(f"index {index!r} outside dimension {dim}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return _trusted(amps)


def normalized(amps) -> StateVector:
    """Scale an arbitrary nonzero vector to unit norm."""
    amps = np.asarray(amps, dtype=np.complex128)
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(amps / norm)


def _fourier(amps: np.ndarray, shape, axes, inverse: bool) -> np.ndarray:
    # The one Fourier routine: an orthonormal DFT over the given axes of amps
    # viewed as shape (axes=None: all of them).  numpy's ifft carries this
    # package's +2*pi*i forward sign, so the inverse is numpy's fft.
    if not isinstance(inverse, bool):
        raise ValueError(f"inverse must be a bool, not {inverse!r}")
    fourier = np.fft.fftn if inverse else np.fft.ifftn
    return fourier(amps.reshape(shape), axes=axes, norm="ortho").reshape(-1)


def qft(state: StateVector, inverse: bool = False) -> StateVector:
    """Fourier transform over Z_N: amps[y] <- sum_x amps[x] w^(±xy) / sqrt(N)."""
    return _trusted(_fourier(state.amps, state.dim, None, inverse))


def _per_index(state: StateVector, values, dtype) -> np.ndarray:
    values = np.asarray(values, dtype=dtype)
    if values.shape != (state.dim,):
        raise DimensionMismatch(
            f"{values.shape} values for a state of dimension {state.dim}"
        )
    return values


def apply_phase(state: StateVector, phases) -> StateVector:
    """Multiply amplitude x by phases[x].

    The phase must have unit magnitude wherever the state has support;
    indices with negligible amplitude may hold anything.
    """
    phases = _per_index(state, phases, np.complex128)
    live = np.abs(state.amps) > _DEAD_AMP
    bad = live & ~(np.abs(np.abs(phases) - 1.0) <= 1e-12)  # negated so that NaN fails too
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        raise NonUnitPhase(f"phase {phases[idx]!r} at occupied index {idx}")
    return _trusted(np.where(live, state.amps * phases, state.amps))


def permute_basis(state: StateVector, sigma) -> StateVector:
    """Relabel basis states: new_amps[sigma[x]] = amps[x]."""
    n = state.dim
    if not np.issubdtype(np.asarray(sigma).dtype, np.integer):
        raise NotBijective("image is not integer-valued")
    sigma = _per_index(state, sigma, np.int64)
    if np.any((sigma < 0) | (sigma >= n)):
        raise NotBijective("image leaves the index range")
    if np.any(np.bincount(sigma, minlength=n) != 1):
        raise NotBijective("map is not a bijection on the index set")
    out = np.empty(n, dtype=np.complex128)
    out[sigma] = state.amps
    return _trusted(out)


def distribution(state: StateVector) -> np.ndarray:
    """Exact measurement probabilities, no sampling."""
    return np.abs(state.amps) ** 2


def project(state: StateVector, mask):
    """Probability mass on the indices where mask is true, plus the collapsed state.

    Returns (prob, state), with state None when the subspace carries no mass.
    """
    mask = _per_index(state, mask, bool)
    _check_state_norm(state.amps)
    prob = float(np.sum(np.abs(state.amps[mask]) ** 2))
    if prob < 1e-15:
        return prob, None
    return prob, _trusted(np.where(mask, state.amps, 0) / math.sqrt(prob))


def fourier_distribution(state: StateVector) -> np.ndarray:
    """distribution(qft(state)) for a real state, without building the transform.

    For real amplitudes |A_(N-k)| = |A_k|, so the half-length real FFT of the
    real parts gives |A_k|^2 for k <= N/2 and the mirror gives the rest.  A
    state whose imaginary parts have norm above REAL_TOL raises ValueError;
    below it the probabilities differ from the complex transform's by at most
    about 2 * REAL_TOL.
    """
    parts = state.amps.view(np.float64)
    imag = parts[1::2]
    if not float(np.einsum("i,i->", imag, imag)) <= REAL_TOL**2:  # NaN fails too
        raise ValueError(f"imaginary parts above {REAL_TOL} in norm; the state is not real")
    n = state.dim
    transform = np.fft.rfft(parts[0::2], norm="ortho")
    # allocated after the FFT has freed its input copy, whose pages it takes:
    # allocated first, it leaves a freed top of heap that is trimmed, and
    # every call faults fresh pages in (480 faults, twice the time, at 2^16)
    probs = np.empty(n)
    half = probs[: n // 2 + 1]
    np.square(np.abs(transform, out=half), out=half)
    probs[n // 2 + 1 :] = probs[(n - 1) // 2 : 0 : -1]
    return probs


def sample(probs: np.ndarray, rng) -> int:
    """Draw an index of a 1-D float64 array of probabilities by the inverse CDF of
    Generator.choice(len(probs), p=probs): the same index from the same
    rng.random().  Works in place: probs is left holding the normalized CDF.
    ValueError for an rng that is not a np.random.Generator or a sum off 1.
    """
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"sampling needs a np.random.Generator, not {rng!r}")
    probs /= _check_norm(float(probs.sum()))
    np.cumsum(probs, out=probs)
    probs /= probs[-1]
    return int(probs.searchsorted(rng.random(), side="right"))


def measure(state: StateVector, rng) -> int:
    """Sample an index from |amps|^2: sample(distribution(state), rng)."""
    return sample(distribution(state), rng)


@dataclass(frozen=True)
class RegisterLayout:
    """Row-major composite indexing: the first sub-register varies slowest."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError(f"bad register dimensions {self.dims}")

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    def index(self, coords) -> int:
        """Flat index of one coordinate per sub-register; ValueError if any is out of range."""
        return int(np.ravel_multi_index(tuple(coords), self.dims))

    def coords(self, index: int) -> tuple[int, ...]:
        """Inverse of index; ValueError outside [0, total)."""
        return tuple(int(c) for c in np.unravel_index(index, self.dims))


def qft_factor(
    state: StateVector, layout: RegisterLayout, axis: int, inverse: bool = False
) -> StateVector:
    """Fourier transform on one sub-register of a composite state."""
    if layout.total != state.dim:
        raise DimensionMismatch(
            f"layout covers {layout.total} indices, state has {state.dim}"
        )
    return _trusted(_fourier(state.amps, layout.dims, (axis,), inverse))


def trace_fourier_transform(
    state: StateVector, fld: ff.FieldSpec, inverse: bool = False
) -> StateVector:
    """The unitary with kernel w_p^Tr(xy)/sqrt(q) on the first q indices.

    Realized as the trace-coordinate basis permutation followed by r
    independent dimension-p transforms (reversed for the inverse).  Indices
    at q and above are dummy slots and pass through untouched.
    """
    q = fld.q
    if state.dim < q:
        raise DimensionMismatch(f"state dimension {state.dim} below field size {q}")
    # x-index -> the index whose base-p digits are the trace coordinates of x
    sigma = ff.trace_coordinates(fld) @ fld.p ** np.arange(fld.r)
    dims = (fld.p,) * fld.r
    amps = np.array(state.amps, dtype=np.complex128)
    if not inverse:
        permuted = np.empty(q, dtype=np.complex128)
        permuted[sigma] = amps[:q]
        amps[:q] = _fourier(permuted, dims, None, inverse)
    else:
        amps[:q] = _fourier(amps[:q], dims, None, inverse)[sigma]
    return _trusted(amps)


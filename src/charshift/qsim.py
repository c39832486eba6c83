"""Exact dense statevector simulation over arbitrary finite dimensions.

Registers are plain index ranges 0..N-1 for any N, not qubit tensors, because
every register in this package is Z_p-, Z_n-, Z_M-, or F_q-sized.  The
forward Fourier transform uses the +2*pi*i sign convention.  All operations
return fresh states and never mutate their input.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import finite_field as ff
from .errors import DimensionMismatch, NonUnitPhase, NotBijective

NORM_TOL = 1e-9

# Above this size the O(N^2) summation gives way to Bluestein's chirp method.
_DIRECT_LIMIT = 4096

_DEAD_AMP = 1e-12  # amplitudes below this are treated as unoccupied


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized complex amplitude vector of arbitrary dimension."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.ndim != 1 or amps.shape[0] < 1:
            raise ValueError("amplitudes must form a nonempty vector")
        sq = float(np.sum(np.abs(amps) ** 2))
        if abs(sq - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 = {sq!r} is not 1 within {NORM_TOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.shape[0]


def basis_state(dim: int, index: int) -> StateVector:
    """Unit amplitude at one index."""
    if not 0 <= index < dim:
        raise ValueError(f"index {index} outside dimension {dim}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


def normalized(amps) -> StateVector:
    """Scale an arbitrary nonzero vector to unit norm."""
    amps = np.asarray(amps, dtype=np.complex128)
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(amps / norm)


def _qft_direct(amps: np.ndarray, sign: int) -> np.ndarray:
    n = amps.shape[0]
    xs = np.arange(n, dtype=np.int64)
    out = np.empty(n, dtype=np.complex128)
    chunk = max(1, (1 << 21) // n)  # bound the scratch phase matrix
    for start in range(0, n, chunk):
        ys = xs[start : start + chunk, None]
        out[start : start + chunk] = (
            np.exp((sign * 2j * np.pi / n) * ((ys * xs) % n)) @ amps
        )
    return out / math.sqrt(n)


def _qft_bluestein(amps: np.ndarray, sign: int) -> np.ndarray:
    # xy = (x^2 + y^2 - (x-y)^2) / 2 turns the transform into a convolution
    # against an even chirp, evaluated with power-of-two FFTs.
    n = amps.shape[0]
    ks = np.arange(n, dtype=np.int64)
    chirp = np.exp((sign * 1j * np.pi / n) * ((ks * ks) % (2 * n)))
    m = 1 << (2 * n - 1).bit_length()
    a = np.zeros(m, dtype=np.complex128)
    a[:n] = amps * chirp
    b = np.zeros(m, dtype=np.complex128)
    b[:n] = np.conj(chirp)
    b[m - n + 1 :] = np.conj(chirp[1:])[::-1]
    conv = np.fft.ifft(np.fft.fft(a) * np.fft.fft(b))
    return conv[:n] * chirp / math.sqrt(n)


def qft(state: StateVector, inverse: bool = False) -> StateVector:
    """Fourier transform over Z_N: amps[y] <- sum_x amps[x] w^(±xy) / sqrt(N)."""
    n = state.dim
    if n == 1:
        return StateVector(state.amps)
    sign = -1 if inverse else 1
    if n <= _DIRECT_LIMIT:
        return StateVector(_qft_direct(state.amps, sign))
    return StateVector(_qft_bluestein(state.amps, sign))


def apply_phase(state: StateVector, phase_fn) -> StateVector:
    """Multiply each amplitude by phase_fn(index).

    The phase must have unit magnitude wherever the state has support;
    indices with negligible amplitude may map to anything.
    """
    phases = np.array([complex(phase_fn(x)) for x in range(state.dim)])
    live = np.abs(state.amps) > _DEAD_AMP
    bad = live & (np.abs(np.abs(phases) - 1.0) > 1e-12)
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        raise NonUnitPhase(f"phase {phases[idx]!r} at occupied index {idx}")
    return StateVector(np.where(live, state.amps * phases, state.amps))


def permute_basis(state: StateVector, bijection) -> StateVector:
    """Relabel basis states: new_amps[sigma(x)] = amps[x]."""
    n = state.dim
    sigma = np.fromiter((bijection(x) for x in range(n)), dtype=np.int64, count=n)
    counts = np.zeros(n, dtype=np.int64)
    valid = (sigma >= 0) & (sigma < n)
    if not np.all(valid):
        raise NotBijective("image leaves the index range")
    np.add.at(counts, sigma, 1)
    if np.any(counts != 1):
        raise NotBijective("map is not a bijection on the index set")
    out = np.empty(n, dtype=np.complex128)
    out[sigma] = state.amps
    return StateVector(out)


def distribution(state: StateVector) -> np.ndarray:
    """Exact measurement probabilities, no sampling."""
    return np.abs(state.amps) ** 2


def project(state: StateVector, predicate):
    """Probability mass on the predicate-true subspace plus the collapsed state.

    Returns (prob, state), with state None when the subspace carries no mass.
    """
    mask = np.fromiter(
        (bool(predicate(x)) for x in range(state.dim)), dtype=bool, count=state.dim
    )
    prob = float(np.sum(np.abs(state.amps[mask]) ** 2))
    if prob < 1e-15:
        return prob, None
    amps = np.where(mask, state.amps, 0) / math.sqrt(prob)
    return prob, StateVector(amps)


def measure(state: StateVector, rng) -> tuple[int, StateVector]:
    """Sample an index from |amps|^2 and collapse onto it."""
    probs = distribution(state)
    probs = probs / probs.sum()
    index = int(rng.choice(state.dim, p=probs))
    return index, basis_state(state.dim, index)


@dataclass(frozen=True)
class RegisterLayout:
    """Row-major composite indexing: the first sub-register varies slowest."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError(f"bad register dimensions {self.dims}")

    @property
    def total(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    def index(self, coords) -> int:
        coords = tuple(coords)
        if len(coords) != len(self.dims):
            raise ValueError("one coordinate per sub-register required")
        out = 0
        for c, d in zip(coords, self.dims):
            if not 0 <= c < d:
                raise ValueError(f"coordinate {c} outside register of size {d}")
            out = out * d + c
        return out

    def coords(self, index: int) -> tuple[int, ...]:
        out = []
        for d in reversed(self.dims):
            index, c = divmod(index, d)
            out.append(c)
        return tuple(reversed(out))


@lru_cache(maxsize=None)
def _qft_matrix(dim: int, sign: int) -> np.ndarray:
    ks = np.arange(dim, dtype=np.int64)
    mat = np.exp((sign * 2j * np.pi / dim) * (np.outer(ks, ks) % dim)) / math.sqrt(dim)
    mat.flags.writeable = False
    return mat


def _transform_axis(block: np.ndarray, dims, axis: int, mat: np.ndarray) -> np.ndarray:
    tensor = block.reshape(dims)
    tensor = np.moveaxis(np.tensordot(mat, tensor, axes=([1], [axis])), 0, axis)
    return tensor.reshape(block.shape)


def qft_factor(
    state: StateVector, layout: RegisterLayout, axis: int, inverse: bool = False
) -> StateVector:
    """Fourier transform on one sub-register of a composite state."""
    if layout.total != state.dim:
        raise DimensionMismatch(
            f"layout covers {layout.total} indices, state has {state.dim}"
        )
    mat = _qft_matrix(layout.dims[axis], -1 if inverse else 1)
    return StateVector(_transform_axis(state.amps, layout.dims, axis, mat))


@lru_cache(maxsize=None)
def _trace_permutation(fld: ff.FieldSpec) -> tuple[int, ...]:
    # x-index -> index whose base-p digits are the trace coordinates of x.
    out = []
    for idx in range(fld.q):
        coords = ff.trace_coordinates(fld, ff.element_from_index(fld, idx))
        target = 0
        for c in reversed(coords):
            target = target * fld.p + c
        out.append(target)
    return tuple(out)


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
    sigma = _trace_permutation(fld)
    dims = (fld.p,) * fld.r
    amps = np.array(state.amps, dtype=np.complex128)
    block = amps[:q]
    if not inverse:
        permuted = np.empty(q, dtype=np.complex128)
        permuted[np.asarray(sigma)] = block
        for axis in range(fld.r):
            permuted = _transform_axis(permuted, dims, axis, _qft_matrix(fld.p, 1))
        amps[:q] = permuted
    else:
        for axis in range(fld.r):
            block = _transform_axis(block, dims, axis, _qft_matrix(fld.p, -1))
        amps[:q] = block[np.asarray(sigma)]
    return StateVector(amps)


def equal_up_to_global_phase(a: StateVector, b: StateVector, tol: float = 1e-9) -> bool:
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

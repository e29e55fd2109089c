"""Dense complex linear algebra for states and operators.

Everything here is a plain numpy computation on explicit matrices: tensor
powers, partial traces, overlaps, and Haar-random state sampling.  Values are
immutable after construction and safe to share between threads; randomness is
drawn from :class:`RandomStream` values that are split by counter, never
shared mutably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Largest total dimension a single dense object may have.  Operations that
#: would build anything bigger raise :class:`SizeCapExceeded` instead of
#: allocating.  Desk-scale work (copy counts <= 6, local dimension <= 4) stays
#: far below the cap.
DEFAULT_SIZE_CAP = 4096

_MASK64 = (1 << 64) - 1


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class SizeCapExceeded(ValueError):
    """A requested object would exceed the configured dense-size cap."""


class InvalidArity(ValueError):
    """Copy counts are out of range for the requested operation."""


def check_size_cap(dim: int, size_cap: int = DEFAULT_SIZE_CAP) -> int:
    if dim > size_cap:
        raise SizeCapExceeded(f"total dimension {dim} exceeds size cap {size_cap}")
    return dim


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array)
    out.setflags(write=False)
    return out


def _check_unit_rows(rows: np.ndarray) -> np.ndarray:
    """`rows` itself, once every row has unit norm within 1e-12 as `PureState` requires."""
    norms = np.linalg.norm(rows, axis=-1)
    off = np.abs(norms - 1.0) > 1e-12
    if np.any(off):
        raise ValueError(f"state vector norm {norms[off][0]!r} is not 1 within 1e-12")
    return rows


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size == 0:
            raise ShapeError("state vector must be nonempty")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state vector norm {norm!r} is not 1 within 1e-12")
        object.__setattr__(self, "amplitudes", _frozen(amp))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
        return cls(amp / np.linalg.norm(amp))

    @classmethod
    def basis(cls, dim: int, index: int) -> "PureState":
        amp = np.zeros(dim, dtype=complex)
        amp[index] = 1.0
        return cls(amp)

    def density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap_probability(self, other: "PureState") -> float:
        """|<self|other>|^2."""
        if self.dim != other.dim:
            raise ShapeError("states have different dimensions")
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, PSD, unit-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeError(f"density operator must be square, got shape {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise ValueError("matrix is not Hermitian within 1e-12")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"trace {tr!r} is not 1 within 1e-12")
        if np.linalg.eigvalsh(mat).min() < -1e-10:
            raise ValueError("matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "matrix", _frozen(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim, dtype=complex) / dim)


class RandomStream:
    """Reproducible random source addressed by (seed, counter).

    Identical (seed, counter) pairs replay identical draw sequences.
    Substreams with distinct counters are statistically independent by
    construction (numpy seed-sequence spawn keys), so consumers can each take
    their own counter without coordination.

    Under seed scheme v2 a consumer takes one substream per block of work and
    draws whole arrays from it: `mc-play` rounds one substream per draw chunk
    of `harness.DRAW_ROUNDS` rounds, and the scan's random channels one per
    channel, drawing only the Ginibre columns they keep
    (`cloning.random_isometry_channel`).  `harness.haar_states`,
    `harness.cloner_perturbations` and `harness.povm_perturbations` keep one
    substream per item.
    """

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & _MASK64
        self.counter = int(counter) & _MASK64
        self._gen = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.counter,))
        )

    def substream(self, counter: int) -> "RandomStream":
        return RandomStream(self.seed, counter)

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def uniform(self) -> float:
        return float(self._gen.random())

    def complex_normals(self, count: int) -> np.ndarray:
        return self._gen.standard_normal(count) + 1j * self._gen.standard_normal(count)

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, counter={self.counter})"


def haar_random_state(d: int, rng: RandomStream) -> PureState:
    """Haar-distributed pure state: a normalized vector of complex Gaussians.

    The construction is exactly unitarily invariant because the Gaussian
    vector's distribution is.
    """
    if d < 1:
        raise ShapeError("dimension must be positive")
    z = rng.complex_normals(d)
    return PureState(z / np.linalg.norm(z))


def tensor_power(state: PureState, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> PureState:
    """k-fold Kronecker power of a pure state."""
    if k < 1:
        raise InvalidArity("tensor power requires k >= 1")
    check_size_cap(state.dim**k, size_cap)
    out = state.amplitudes
    for _ in range(k - 1):
        out = np.kron(out, state.amplitudes)
    # kron of unit vectors is unit up to rounding; renormalize before validation
    return PureState(out / np.linalg.norm(out))


def partial_trace_matrix(mat: np.ndarray, factor_dims, keep) -> np.ndarray:
    """Partial trace of a square matrix over the factors not listed in `keep`.

    Kept factors stay in their original order.  Works on any matrix (not just
    density operators), which the channel code relies on.
    """
    dims = [int(x) for x in factor_dims]
    mat = np.asarray(mat)
    total = math.prod(dims)
    if mat.shape != (total, total):
        raise ShapeError(f"matrix shape {mat.shape} does not match factors {dims}")
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ShapeError("keep must name at least one factor")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ShapeError(f"keep indices {keep} out of range for {len(dims)} factors")
    traced = [i for i in range(len(dims)) if i not in keep]
    n = len(dims)
    tensor = mat.reshape(dims + dims)
    perm = keep + traced + [n + i for i in keep] + [n + i for i in traced]
    tensor = tensor.transpose(perm)
    dk = math.prod(dims[i] for i in keep)
    dt = math.prod(dims[i] for i in traced)
    tensor = tensor.reshape(dk, dt, dk, dt)
    return np.einsum("ikjk->ij", tensor)


def partial_trace(rho: DensityOperator, factor_dims, keep) -> DensityOperator:
    """Reduced state of `rho` on the kept tensor factors."""
    return DensityOperator(partial_trace_matrix(rho.matrix, factor_dims, keep))


def overlap(rho: DensityOperator, sigma: DensityOperator) -> float:
    """tr(rho sigma); real and in [0, 1] for states."""
    if rho.dim != sigma.dim:
        raise ShapeError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    val = np.einsum("ij,ji->", rho.matrix, sigma.matrix)
    return float(val.real)

"""Dense complex linear algebra for states and operators.

Everything here is a plain numpy computation on explicit matrices: tensor
powers, partial traces of matrices, overlaps, and Haar-random state sampling.
Values are immutable after construction and safe to share between threads;
randomness is drawn from :class:`RandomStream` values that are split by
counter, never shared mutably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, SeedSequence, default_rng

#: Largest total dimension a single dense object may have.  Operations that
#: would build anything bigger raise :class:`SizeCapExceeded` instead of
#: allocating.  This is the package's one cap: `check_size_cap` reads it on
#: every call, so setting ``qgames.core.DEFAULT_SIZE_CAP`` moves every check.
#: Desk-scale work (copy counts <= 6, local dimension <= 4) stays far below it.
DEFAULT_SIZE_CAP = 4096

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class SizeCapExceeded(ValueError):
    """A requested object would exceed the configured dense-size cap."""


class InvalidArity(ValueError):
    """Copy counts are out of range for the requested operation."""


def check_size_cap(dim: int) -> int:
    """`dim` itself, once it is within DEFAULT_SIZE_CAP as read at this call."""
    if dim > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(f"total dimension {dim} exceeds size cap {DEFAULT_SIZE_CAP}")
    return dim


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array)
    out.setflags(write=False)
    return out


def _check_unit_rows(rows: np.ndarray) -> np.ndarray:
    """`rows` itself, once every row norm is within 1e-12 of 1 (NaN is not).

    The one unit-norm rule: `PureState` checks its amplitudes here, so a
    state and a row of states are refused alike.
    """
    norms = np.linalg.norm(rows, axis=-1)
    off = ~(np.abs(norms - 1.0) <= 1e-12)
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
        object.__setattr__(self, "amplitudes", _frozen(_check_unit_rows(amp)))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        """The state along `amplitudes`; a zero or non-finite norm is refused before dividing."""
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = np.linalg.norm(amp)
        if not 0.0 < norm < np.inf:
            raise ValueError(f"cannot normalize a vector of norm {norm!r}")
        return cls(amp / norm)

    @classmethod
    def basis(cls, dim: int, index: int) -> "PureState":
        amp = np.zeros(dim, dtype=complex)
        amp[index] = 1.0
        return cls(amp)

    def density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, PSD, unit-trace matrix; a non-finite entry fails the Hermiticity check."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeError(f"density operator must be square, got shape {mat.shape}")
        if not np.max(np.abs(mat - mat.conj().T)) <= 1e-12:
            raise ValueError("matrix is not Hermitian within 1e-12")
        tr = np.trace(mat).real
        if not abs(tr - 1.0) <= 1e-12:
            raise ValueError(f"trace {tr!r} is not 1 within 1e-12")
        if not np.linalg.eigvalsh(mat).min() >= -1e-10:
            raise ValueError("matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "matrix", _frozen(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class RandomStream:
    """Reproducible random source addressed by a seed and a path of counters.

    `RandomStream(seed)` is the root of a seed and `RandomStream(seed, c)` its
    substream c, the same stream as `RandomStream(seed).substream(c)`.  Every
    `substream` call appends its counter to the path, so substreams of
    substreams are streams of their own: `rng.substream(i).substream(j)` is
    distinct from `rng.substream(j)` and from every other path.  Identical
    (seed, path) pairs replay identical draw sequences, and distinct paths
    are statistically independent by construction (numpy seed-sequence spawn
    keys), so consumers can each take their own counter without
    coordination.  The root and its substream 0 draw the same numbers, but
    their substreams differ.  `parent` is the path a substream extends;
    `substream` passes it, and a stream built without it is root-level.

    Under seed scheme v7 the asymmetric-bound scan's random channels,
    `harness.haar_states` and the perturbations of
    `harness.cloner_perturbations` and `harness.povm_perturbations` draw
    their items in order from one stream, `substream(0)` of the stream they
    are given.  Under seed scheme v6, which covers `mc-play` rounds only, a
    play of the k-th of `harness.GAME_KINDS` opens two streams,
    `substream(k).substream(0)` for its Haar states and
    `substream(k).substream(1)` for the referee's uniforms, and reads every
    round from them in order.
    """

    def __init__(self, seed: int, counter: int = 0, *, parent: tuple | None = None):
        self.seed = int(seed) & _MASK64
        self.counter = int(counter) & _MASK64
        if parent is None:  # the root (counter 0) or one of its substreams
            self.path = (self.counter,) if self.counter else ()
        else:
            self.path = tuple(parent) + (self.counter,)
        self._gen = default_rng(SeedSequence(self.seed, spawn_key=_spawn_key(self.path)))

    def substream(self, counter: int) -> "RandomStream":
        return RandomStream(self.seed, counter, parent=self.path)

    @property
    def generator(self) -> Generator:
        return self._gen

    def uniform(self) -> float:
        return float(self._gen.random())

    def complex_normals(self, count: int) -> np.ndarray:
        """`count` complex normals: `count` real parts drawn first, then `count` imaginary parts.

        One `standard_normal(2 * count)` draw, the same numbers as two
        consecutive `standard_normal(count)` calls.
        """
        parts = self._gen.standard_normal(2 * count)
        out = np.empty(count, dtype=complex)
        out.real, out.imag = parts[:count], parts[count:]
        return out

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, path={self.path})"


def _spawn_key(path: tuple) -> tuple:
    """Seed-sequence spawn key of a stream path.

    The root draws under key (0,) and substream c under (c,), as they always
    have.  Longer paths spell every counter as two 32-bit words, low word
    first: numpy writes a counter of 2**32 or more as several words, so
    spelling the counters as themselves would give (0, 1) the key of
    substream 2**32.  A path of two or more counters has four or more words
    and a one-counter path at most two, so no two paths share a key.
    """
    if len(path) <= 1:
        return path or (0,)
    return tuple(word for c in path for word in (c & _MASK32, c >> 32))


def haar_random_state(d: int, rng: RandomStream) -> PureState:
    """Haar-distributed pure state: a normalized vector of complex Gaussians.

    The construction is exactly unitarily invariant because the Gaussian
    vector's distribution is.
    """
    if d < 1:
        raise ShapeError("dimension must be positive")
    z = rng.complex_normals(d)
    return PureState(z / np.linalg.norm(z))


def tensor_power(state: PureState, k: int) -> PureState:
    """k-fold Kronecker power of a pure state."""
    if k < 1:
        raise InvalidArity("tensor power requires k >= 1")
    check_size_cap(state.dim**k)
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


def overlap(rho: DensityOperator, sigma: DensityOperator) -> float:
    """tr(rho sigma); real and in [0, 1] for states."""
    if rho.dim != sigma.dim:
        raise ShapeError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    val = np.einsum("ij,ji->", rho.matrix, sigma.matrix)
    return float(val.real)

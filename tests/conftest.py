import math
import tracemalloc

import numpy as np
import pytest

from qgames.cloning import Channel, _padding_kraus
from qgames.core import DensityOperator, PureState, RandomStream, haar_random_state
from qgames.estimation import Direction, _amplitudes
from qgames.zerosum import MixedStrategy


@pytest.fixture
def rng():
    return RandomStream(20240901)


def bloch_state(direction: Direction) -> PureState:
    """Qubit along the given Bloch direction, with the phase split of `estimation._amplitudes`."""
    return PureState(_amplitudes([direction])[0])


def peak_bytes(fn) -> int:
    """Peak bytes `tracemalloc` traces while `fn()` runs; an exception propagates."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def mirror_embedding_channel(d, n_in, n_out) -> Channel:
    """rho -> (I/d)^{(n_out - n_in)} tensor rho: noise first, input last."""
    return Channel(d, n_in, n_out, _padding_kraus(d, n_in, n_out, input_first=False))


def random_density(d, stream, rank=None):
    """Generic mixed state: normalized mixture of Haar pure projectors."""
    rank = d if rank is None else rank
    gen = stream.generator
    weights = gen.random(rank)
    weights /= weights.sum()
    mat = np.zeros((d, d), dtype=complex)
    for w in weights:
        psi = haar_random_state(d, stream).amplitudes
        mat += w * np.outer(psi, psi.conj())
    return DensityOperator(mat)


def total_variation(x: MixedStrategy, y: MixedStrategy) -> float:
    """Half the l1 distance between two mixed strategies' probability vectors."""
    return 0.5 * float(np.abs(x.probs - y.probs).sum())


_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def icosahedral_states() -> list[PureState]:
    """The 12 icosahedron vertices as qubit states (a well-spread Bloch set)."""
    verts = []
    for a in (-1.0, 1.0):
        for b in (-_GOLDEN, _GOLDEN):
            verts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    states = []
    for v in verts:
        x, y, z = np.array(v) / np.linalg.norm(v)
        theta = math.acos(max(-1.0, min(1.0, z)))
        psi = math.atan2(y, x) % (2.0 * math.pi)
        states.append(bloch_state(Direction(theta, psi)))
    return states

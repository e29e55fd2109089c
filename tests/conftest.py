import math

import numpy as np
import pytest

from qgames.core import DensityOperator, PureState, RandomStream, haar_random_state
from qgames.estimation import Direction, bloch_state


@pytest.fixture
def rng():
    return RandomStream(20240901)


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

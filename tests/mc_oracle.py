"""Round-by-round Monte Carlo play, the oracle for `harness.monte_carlo_play`.

Each round builds its Haar state, tensor powers and Kraus branches on its own,
on the full d^n and d^m registers, exactly as the harness did before it batched
rounds and compressed them; the batched code must return records equal to
these.
"""

import math

import numpy as np

from qgames.cloning import Channel
from qgames.core import RandomStream, haar_random_state, partial_trace_matrix, tensor_power
from qgames.estimation import Povm
from qgames.harness import MonteCarloRecord
from qgames.swap_test import draw_outcome
from qgames.symmetric import sym_isometry


def full_kraus(ch: Channel) -> np.ndarray:
    """Kraus operators on the full registers, V_out K V_in^T (V_out = I for full rows)."""
    kraus = np.asarray(ch.kraus) @ sym_isometry(ch.d, ch.n_in).T
    if kraus.shape[1] != ch.dim_out:
        kraus = sym_isometry(ch.d, ch.n_out) @ kraus
    return kraus


def _estimation_round(povm: Povm, stream: RandomStream) -> int:
    psi = haar_random_state(2, stream)
    probs = povm.outcome_probabilities(psi)
    total = probs.sum()
    draw = stream.uniform() * total
    outcome = int(np.searchsorted(np.cumsum(probs), draw))
    outcome = min(outcome, len(probs) - 1)
    return draw_outcome(psi.overlap_probability(povm.guesses[outcome]), stream)


def _cloning_round(ch: Channel, stream: RandomStream) -> int:
    psi = haar_random_state(ch.d, stream)
    vin = tensor_power(psi, ch.n_in).amplitudes
    vout = tensor_power(psi, ch.n_out).amplitudes
    fid = sum(abs(np.vdot(vout, k @ vin)) ** 2 for k in full_kraus(ch))
    return draw_outcome(fid, stream)


def _one_particle_round(ch: Channel, stream: RandomStream) -> int:
    psi = haar_random_state(ch.d, stream)
    clone = int(stream.generator.integers(1, ch.n_out + 1))
    vin = tensor_power(psi, ch.n_in).amplitudes
    dims = [ch.d] * ch.n_out
    reduced = np.zeros((ch.d, ch.d), dtype=complex)
    for k in full_kraus(ch):
        branch = np.outer(k @ vin, (k @ vin).conj())
        reduced += partial_trace_matrix(branch, dims, keep=[clone - 1])
    fid = float(np.vdot(psi.amplitudes, reduced @ psi.amplitudes).real)
    return draw_outcome(fid, stream)


_ROUNDS = {
    "estimation": _estimation_round,
    "cloning": _cloning_round,
    "one_particle": _one_particle_round,
}


def oracle_outcomes(kind: str, strategy, samples: int, seed: int) -> list[int]:
    """The +-1 outcomes of rounds 0 .. samples-1, one substream per round."""
    root = RandomStream(seed)
    play = _ROUNDS[kind]
    return [play(strategy, root.substream(i)) for i in range(samples)]


def oracle_record(kind: str, outcomes, seed: int) -> MonteCarloRecord:
    """The record `monte_carlo_play` reports for these round outcomes."""
    samples = len(outcomes)
    mean = sum(outcomes) / samples
    stderr = math.sqrt(max(0.0, 1.0 - mean * mean) / samples)
    return MonteCarloRecord(kind, samples, seed, mean, stderr, 0.5 * (1.0 + mean))

"""Round-by-round Monte Carlo play, the oracle for `harness.monte_carlo_play`.

The draws follow seed scheme v2, replayed here with this module's own code:
draw chunk c of ORACLE_DRAW_ROUNDS rounds takes the substream c of the seed
and draws, in this order, the rounds' complex normals (all real parts, then
all imaginary parts), the estimation uniforms or the one-particle clone
indices, and the referee uniforms.  Each round then builds its Haar state,
tensor powers and Kraus branches on its own, on the full d^n and d^m
registers, exactly as the harness did before it batched rounds and compressed
them; the batched code must return records equal to these.
"""

import math

import numpy as np

from qgames.cloning import Channel
from qgames.core import PureState, RandomStream, partial_trace_matrix, tensor_power
from qgames.estimation import Povm
from qgames.harness import MonteCarloRecord
from qgames.symmetric import sym_isometry

#: The draw-chunk length of seed scheme v2, written out rather than imported.
ORACLE_DRAW_ROUNDS = 256


def full_kraus(ch: Channel) -> np.ndarray:
    """Kraus operators on the full registers, V_out K V_in^T (V_out = I for full rows)."""
    kraus = np.asarray(ch.kraus) @ sym_isometry(ch.d, ch.n_in).T
    if kraus.shape[1] != ch.dim_out:
        kraus = sym_isometry(ch.d, ch.n_out) @ kraus
    return kraus


def _referee(fidelity: float, uniform: float) -> int:
    """The SWAP test passes, +1, when the uniform falls below (1 + fidelity)/2."""
    return 1 if uniform < 0.5 * (1.0 + fidelity) else -1


def _estimation_round(povm: Povm, psi: PureState, uniform: float) -> float:
    probs = povm.outcome_probabilities(psi)
    draw = uniform * probs.sum()
    outcome = int(np.searchsorted(np.cumsum(probs), draw))
    outcome = min(outcome, len(probs) - 1)
    return float(abs(np.vdot(psi.amplitudes, povm.guesses[outcome])) ** 2)


def global_round_fidelity(ch: Channel, psi: PureState) -> float:
    """<psi^{n_out}| ch(psi^{n_in}) |psi^{n_out}> from the full tensor powers."""
    vin = tensor_power(psi, ch.n_in).amplitudes
    vout = tensor_power(psi, ch.n_out).amplitudes
    return sum(abs(np.vdot(vout, k @ vin)) ** 2 for k in full_kraus(ch))


def one_particle_round_fidelity(ch: Channel, psi: PureState, clone: int) -> float:
    """<psi| rho_clone |psi>, the clone's reduced state traced out of each full branch."""
    vin = tensor_power(psi, ch.n_in).amplitudes
    dims = [ch.d] * ch.n_out
    reduced = np.zeros((ch.d, ch.d), dtype=complex)
    for k in full_kraus(ch):
        branch = np.outer(k @ vin, (k @ vin).conj())
        reduced += partial_trace_matrix(branch, dims, keep=[clone - 1])
    return float(np.vdot(psi.amplitudes, reduced @ psi.amplitudes).real)


def _chunk_outcomes(kind: str, strategy, stream: RandomStream, rounds: int) -> list[int]:
    """The first `rounds` outcomes of one draw chunk, from its own substream."""
    b = ORACLE_DRAW_ROUNDS
    d = 2 if kind == "estimation" else strategy.d
    gen = stream.generator
    real = gen.standard_normal((b, d))
    normals = real + 1j * gen.standard_normal((b, d))
    if kind == "estimation":
        middle = gen.random(b)
    elif kind == "one_particle":
        middle = gen.integers(1, strategy.n_out + 1, size=b)
    referee = gen.random(b)
    outcomes = []
    for i in range(rounds):
        psi = PureState.normalized(normals[i])
        if kind == "estimation":
            fidelity = _estimation_round(strategy, psi, float(middle[i]))
        elif kind == "cloning":
            fidelity = global_round_fidelity(strategy, psi)
        else:
            fidelity = one_particle_round_fidelity(strategy, psi, int(middle[i]))
        outcomes.append(_referee(fidelity, float(referee[i])))
    return outcomes


def oracle_outcomes(kind: str, strategy, samples: int, seed: int) -> list[int]:
    """The +-1 outcomes of rounds 0 .. samples-1, one substream per draw chunk."""
    root = RandomStream(seed)
    outcomes = []
    for c in range(-(-samples // ORACLE_DRAW_ROUNDS)):
        rounds = min(ORACLE_DRAW_ROUNDS, samples - c * ORACLE_DRAW_ROUNDS)
        outcomes += _chunk_outcomes(kind, strategy, root.substream(c), rounds)
    return outcomes


def oracle_record(kind: str, outcomes, seed: int) -> MonteCarloRecord:
    """The record `monte_carlo_play` reports for these round outcomes."""
    samples = len(outcomes)
    mean = sum(outcomes) / samples
    stderr = math.sqrt(max(0.0, 1.0 - mean * mean) / samples)
    return MonteCarloRecord(kind, samples, seed, mean, stderr, 0.5 * (1.0 + mean))

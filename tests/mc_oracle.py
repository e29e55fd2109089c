"""Round-by-round Monte Carlo play, the oracle for `harness.monte_carlo_play`.

The draws follow seed scheme v6, replayed here with this module's own code:
a play of a game whose kind has index k in ORACLE_KINDS takes two streams,
the substreams 0 and 1 of the seed's substream k.  Round after round, it
draws from the first its state's d complex normals, each as a (real,
imaginary) pair of standard normals, and from the second the referee's
uniform, one draw call per round.  Each round then builds its
Haar state, tensor powers and Kraus branches on its own, on the full d^n and
d^m registers, and scores the state the strategy hands the referee: an
estimation round averages |<psi|guess_r>|^2 over the Born-rule outcomes r, a
one-particle round averages the fidelities of the clones.  The batched code
must return records equal to these.
"""

import math

import numpy as np

from qgames.cloning import Channel
from qgames.core import PureState, RandomStream, partial_trace_matrix, tensor_power
from qgames.estimation import Povm
from qgames.harness import MonteCarloRecord
from qgames.symmetric import sym_isometry

import dense_oracle

#: The game kinds in the order of their seed scheme v6 substreams, written out
#: rather than imported.
ORACLE_KINDS = ("estimation", "cloning", "one_particle")


def full_kraus(ch: Channel) -> np.ndarray:
    """Kraus operators on the full registers, V_out K V_in^T (V_out = I for full rows)."""
    kraus = np.asarray(ch.kraus) @ sym_isometry(ch.d, ch.n_in).T
    if kraus.shape[1] != ch.dim_out:
        kraus = sym_isometry(ch.d, ch.n_out) @ kraus
    return kraus


def _referee(fidelity: float, uniform: float) -> int:
    """The SWAP test passes, +1, when the uniform falls below (1 + fidelity)/2."""
    return 1 if uniform < 0.5 * (1.0 + fidelity) else -1


def estimation_round_fidelity(povm: Povm, psi: PureState) -> float:
    """sum_r p_r |<psi|guess_r>|^2 over the dense oracle's Born probabilities p_r of psi^{n}."""
    probs = dense_oracle.outcome_probabilities(povm, psi)
    return float(sum(p * abs(np.vdot(psi.amplitudes, g)) ** 2
                     for p, g in zip(probs, povm.guesses)))


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


def _round_fidelity(kind: str, strategy, psi: PureState) -> float:
    """The fidelity of the state the strategy hands the referee in one round on psi."""
    if kind == "estimation":
        return estimation_round_fidelity(strategy, psi)
    if kind == "cloning":
        return global_round_fidelity(strategy, psi)
    return np.mean([one_particle_round_fidelity(strategy, psi, c)
                    for c in range(1, strategy.n_out + 1)])


def oracle_outcomes(kind: str, strategy, samples: int, seed: int) -> list[int]:
    """The +-1 outcomes of rounds 0 .. samples-1, each drawn on its own."""
    game = RandomStream(seed).substream(ORACLE_KINDS.index(kind))
    states, coins = game.substream(0).generator, game.substream(1).generator
    d = 2 if kind == "estimation" else strategy.d
    outcomes = []
    for _ in range(samples):
        pairs = states.standard_normal((d, 2))
        psi = PureState.normalized(pairs[:, 0] + 1j * pairs[:, 1])
        fidelity = _round_fidelity(kind, strategy, psi)
        outcomes.append(_referee(fidelity, float(coins.random())))
    return outcomes


def oracle_record(kind: str, outcomes, seed: int) -> MonteCarloRecord:
    """The record `monte_carlo_play` reports for these round outcomes."""
    samples = len(outcomes)
    mean = sum(outcomes) / samples
    stderr = math.sqrt(max(0.0, 1.0 - mean * mean) / samples)
    return MonteCarloRecord(kind, samples, seed, mean, stderr, 0.5 * (1.0 + mean))

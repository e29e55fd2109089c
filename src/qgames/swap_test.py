"""The referee: SWAP-test pass probability and the +-1-stakes payoff.

A SWAP test between registers holding rho and sigma passes with probability
(1 + tr(rho sigma)) / 2.  With a payoff of +1 on pass and -1 on fail, the
expected payoff is 2p - 1 = tr(rho sigma): the mean round payoff equals the
overlap itself, which is why the game values elsewhere in this package come
out as mean fidelities.
"""

from __future__ import annotations

import numpy as np

from .core import DensityOperator, RandomStream, ShapeError, overlap


def pass_probability(rho: DensityOperator, sigma: DensityOperator) -> float:
    """(1 + tr(rho sigma)) / 2."""
    return 0.5 * (1.0 + overlap(rho, sigma))


def expected_payoff(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Mean +-1 payoff of one SWAP-test round: tr(rho sigma)."""
    return overlap(rho, sigma)


def _passes(uniform, overlap_value):
    # the one pass rule: a uniform draw in [0, 1) below (1 + overlap) / 2
    return uniform < 0.5 * (1.0 + overlap_value)


def referee_outcomes(overlaps, uniforms) -> np.ndarray:
    """+-1 referee outcomes for registers with overlaps tr(rho sigma).

    Outcome i is +1 exactly when uniforms[i] falls below the pass probability
    (1 + overlaps[i]) / 2; the arrays broadcast elementwise.
    """
    return np.where(_passes(np.asarray(uniforms), np.asarray(overlaps)), 1, -1)


def draw_outcome(overlap_value: float, rng: RandomStream) -> int:
    """One +-1 referee outcome for registers with the given overlap tr(rho sigma).

    Takes exactly one uniform draw from `rng`: +1 with probability
    (1 + overlap_value) / 2, by the rule of `referee_outcomes`.
    """
    return 1 if _passes(rng.uniform(), overlap_value) else -1


def sample_outcome(rho: DensityOperator, sigma: DensityOperator, rng: RandomStream) -> int:
    """One +-1 referee outcome, +1 with the pass probability."""
    if rho.dim != sigma.dim:
        raise ShapeError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return draw_outcome(overlap(rho, sigma), rng)

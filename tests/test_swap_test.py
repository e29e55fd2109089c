import math

import numpy as np
import pytest

from qgames.core import DensityOperator, PureState, RandomStream, ShapeError
from qgames.swap_test import (
    draw_outcome,
    expected_payoff,
    pass_probability,
    referee_outcomes,
    sample_outcome,
)

from conftest import random_density

KET0 = PureState.basis(2, 0)
KET1 = PureState.basis(2, 1)


def circuit_pass_probability(rho, sigma):
    """Gate-level oracle: Hadamard, controlled-SWAP, Hadamard, measure ancilla.

    Simulated directly on density matrices; dimension 2 * D * D.
    """
    d = rho.shape[0]
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    cswap = np.block(
        [[np.eye(d * d), np.zeros((d * d, d * d))], [np.zeros((d * d, d * d)), swap]]
    )
    hadamard = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0), np.eye(d * d))
    u = hadamard @ cswap @ hadamard
    anc = np.zeros((2, 2))
    anc[0, 0] = 1.0
    total = np.kron(anc, np.kron(rho, sigma))
    final = u @ total @ u.conj().T
    project0 = np.kron(anc, np.eye(d * d))
    return float(np.trace(project0 @ final).real)


class TestPassProbability:
    def test_identical_pure_states(self):
        assert pass_probability(KET0.density(), KET0.density()) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert pass_probability(KET0.density(), KET1.density()) == pytest.approx(0.5)

    def test_mixed_vs_pure(self):
        assert pass_probability(
            DensityOperator.maximally_mixed(2), KET0.density()
        ) == pytest.approx(0.75)


class TestExpectedPayoff:
    def test_identical(self):
        assert expected_payoff(KET0.density(), KET0.density()) == pytest.approx(1.0)

    def test_orthogonal_gives_zero(self):
        assert expected_payoff(KET0.density(), KET1.density()) == pytest.approx(0.0)

    def test_matches_circuit_oracle_on_random_qubits(self, rng):
        for i in range(20):
            rho = random_density(2, rng.substream(2 * i))
            sigma = random_density(2, rng.substream(2 * i + 1))
            p_circuit = circuit_pass_probability(rho.matrix, sigma.matrix)
            assert abs(pass_probability(rho, sigma) - p_circuit) <= 1e-10
            assert abs(expected_payoff(rho, sigma) - (2.0 * p_circuit - 1.0)) <= 1e-10

    def test_matches_circuit_oracle_on_two_copy_registers(self, rng):
        rho = random_density(4, rng.substream(101))
        sigma = random_density(4, rng.substream(102))
        p_circuit = circuit_pass_probability(rho.matrix, sigma.matrix)
        assert abs(pass_probability(rho, sigma) - p_circuit) <= 1e-10

    def test_payoff_identities(self, rng):
        for i in range(25):
            rho = random_density(3, rng.substream(300 + 2 * i))
            sigma = random_density(3, rng.substream(301 + 2 * i))
            p = pass_probability(rho, sigma)
            assert expected_payoff(rho, sigma) == pytest.approx(2.0 * p - 1.0, abs=1e-15)
            # the expected payoff IS the overlap; that is the whole referee story
            overlap_val = float(np.einsum("ij,ji->", rho.matrix, sigma.matrix).real)
            assert abs(expected_payoff(rho, sigma) - overlap_val) <= 1e-12


class TestSampleOutcome:
    def test_identical_states_always_pass(self):
        rng = RandomStream(5)
        assert all(
            sample_outcome(KET0.density(), KET0.density(), rng) == 1 for _ in range(100)
        )

    def test_orthogonal_states_fair_coin(self):
        rng = RandomStream(6)
        count = 100_000
        rho, sigma = KET0.density(), KET1.density()
        total = sum(sample_outcome(rho, sigma, rng) for _ in range(count))
        assert abs(total / count) <= 3.0 / math.sqrt(count)

    def test_deterministic_sequence(self):
        a = [sample_outcome(KET0.density(), KET1.density(), RandomStream(9, i)) for i in range(50)]
        b = [sample_outcome(KET0.density(), KET1.density(), RandomStream(9, i)) for i in range(50)]
        assert a == b

    def test_one_uniform_draw_per_outcome(self):
        # Monte Carlo rounds rely on the referee taking exactly one draw
        a, b = RandomStream(4), RandomStream(4)
        draw_outcome(0.3, a)
        b.uniform()
        assert a.uniform() == b.uniform()

    def test_sample_outcome_is_draw_outcome_of_overlap(self, rng):
        rho, sigma = random_density(3, rng.substream(0)), random_density(3, rng.substream(1))
        for i in range(50):
            fid = expected_payoff(rho, sigma)
            assert sample_outcome(rho, sigma, RandomStream(9, i)) == draw_outcome(
                fid, RandomStream(9, i)
            )

    def test_referee_outcomes_match_draw_outcome(self):
        overlaps = np.linspace(0.0, 1.0, 40)
        uniforms = np.array([RandomStream(11, i).uniform() for i in range(40)])
        expected = [draw_outcome(f, RandomStream(11, i)) for i, f in enumerate(overlaps)]
        assert referee_outcomes(overlaps, uniforms).tolist() == expected

    def test_referee_outcome_at_the_pass_probability_fails(self):
        # +1 needs the uniform strictly below (1 + overlap) / 2
        assert referee_outcomes([0.5, 0.5], [0.7499999, 0.75]).tolist() == [1, -1]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sample_outcome(KET0.density(), DensityOperator.maximally_mixed(4), RandomStream(1))

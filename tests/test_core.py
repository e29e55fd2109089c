import math

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

import qgames.core
from qgames.core import _check_unit_rows

from qgames.core import (
    DensityOperator,
    InvalidArity,
    PureState,
    RandomStream,
    ShapeError,
    SizeCapExceeded,
    haar_random_state,
    overlap,
    partial_trace_matrix,
    tensor_power,
)
from qgames.estimation import Povm
from qgames.symmetric import dim_sym, sym_projector
from qgames.zerosum import MixedStrategy

from conftest import random_density

KET0 = PureState.basis(2, 0)
KET1 = PureState.basis(2, 1)
PLUS = PureState(np.array([1.0, 1.0]) / math.sqrt(2.0))


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            PureState(np.array([]))

    def test_amplitudes_read_only(self):
        with pytest.raises(ValueError):
            KET0.amplitudes[0] = 0.0

    def test_density_is_valid(self):
        rho = PLUS.density()
        assert rho.dim == 2
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-12


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_random_mixtures_valid(self, rng):
        # criterion: every generated density operator is Hermitian, unit
        # trace, PSD at the stated tolerances
        for i in range(100):
            rho = random_density(3, rng.substream(i))
            m = rho.matrix
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12
            assert abs(np.trace(m).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(m).min() >= -1e-10


class TestTensorPower:
    def test_identity_case(self):
        assert np.allclose(tensor_power(KET0, 1).amplitudes, KET0.amplitudes)

    def test_basis_state(self):
        out = tensor_power(KET0, 3)
        assert out.dim == 8
        assert out.amplitudes[0] == pytest.approx(1.0)
        assert np.allclose(out.amplitudes[1:], 0.0)

    def test_plus_squared_uniform(self):
        out = tensor_power(PLUS, 2)
        assert np.allclose(out.amplitudes, 0.5)

    def test_size_cap(self, monkeypatch):
        with pytest.raises(SizeCapExceeded):
            tensor_power(KET0, 13)  # 2^13 > 4096
        monkeypatch.setattr(qgames.core, "DEFAULT_SIZE_CAP", 8)
        tensor_power(KET0, 3)
        with pytest.raises(SizeCapExceeded):
            tensor_power(KET0, 4)

    def test_cap_lives_on_core_only(self):
        # a package-level copy is bound at import, so setting it moves no check
        assert not hasattr(qgames, "DEFAULT_SIZE_CAP")

    def test_k_zero_rejected(self):
        with pytest.raises(InvalidArity):
            tensor_power(KET0, 0)


class TestPartialTrace:
    def test_product_state(self, rng):
        rho = random_density(2, rng.substream(1))
        sigma = random_density(3, rng.substream(2))
        joint = DensityOperator(np.kron(rho.matrix, sigma.matrix))
        reduced = DensityOperator(partial_trace_matrix(joint.matrix, [2, 3], keep=[0]))
        assert np.allclose(reduced.matrix, rho.matrix, atol=1e-12)

    def test_bell_state_maximally_mixed(self):
        bell = PureState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
        reduced = DensityOperator(partial_trace_matrix(bell.density().matrix, [2, 2], keep=[0]))
        assert np.allclose(reduced.matrix, np.eye(2) / 2.0, atol=1e-12)

    def test_trace_preserved(self, rng):
        rho = random_density(4, rng.substream(3))
        reduced = DensityOperator(partial_trace_matrix(rho.matrix, [2, 2], keep=[1]))
        assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12

    def test_sequential_reduction_reaches_total_trace(self, rng):
        rho = random_density(8, rng.substream(4))
        step = DensityOperator(partial_trace_matrix(rho.matrix, [2, 2, 2], keep=[0, 2]))
        step = DensityOperator(partial_trace_matrix(step.matrix, [2, 2], keep=[0]))
        assert abs(np.trace(step.matrix).real - np.trace(rho.matrix).real) < 1e-12

    def test_dimension_mismatch(self, rng):
        rho = random_density(4, rng.substream(5))
        with pytest.raises(ShapeError):
            DensityOperator(partial_trace_matrix(rho.matrix, [2, 3], keep=[0]))
        with pytest.raises(ShapeError):
            DensityOperator(partial_trace_matrix(rho.matrix, [2, 2], keep=[]))


class TestOverlap:
    def test_identical_pure(self):
        assert overlap(KET0.density(), KET0.density()) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert overlap(KET0.density(), KET1.density()) == pytest.approx(0.0)

    def test_mixed_vs_pure(self):
        mixed = DensityOperator(np.eye(2) / 2)
        assert overlap(mixed, PLUS.density()) == pytest.approx(0.5)

    def test_symmetric(self, rng):
        for i in range(20):
            a = random_density(3, rng.substream(10 + 2 * i))
            b = random_density(3, rng.substream(11 + 2 * i))
            assert abs(overlap(a, b) - overlap(b, a)) <= 1e-12

    def test_mismatch(self):
        with pytest.raises(ShapeError):
            overlap(KET0.density(), DensityOperator(np.eye(3) / 3))


class TestHaarRandomState:
    def test_one_dimensional(self, rng):
        psi = haar_random_state(1, rng)
        assert abs(abs(psi.amplitudes[0]) - 1.0) < 1e-12

    def test_first_moment(self):
        # oracle: exact first moment of |<0|psi>|^2 is 1/d = 0.5
        stream = RandomStream(777)
        count = 100_000
        z = stream.generator.standard_normal((count, 2)) + 1j * stream.generator.standard_normal((count, 2))
        probs = np.abs(z[:, 0]) ** 2 / np.sum(np.abs(z) ** 2, axis=1)
        assert abs(probs.mean() - 0.5) < 0.005

    def test_deterministic_replay(self):
        a = haar_random_state(4, RandomStream(123, 5)).amplitudes
        b = haar_random_state(4, RandomStream(123, 5)).amplitudes
        assert np.array_equal(a, b)

    def test_substream_independence_of_order(self):
        root = RandomStream(9)
        first = haar_random_state(2, root.substream(3)).amplitudes
        # drawing from another substream first must not disturb substream 3
        haar_random_state(2, RandomStream(9).substream(1))
        again = haar_random_state(2, RandomStream(9).substream(3)).amplitudes
        assert np.array_equal(first, again)

    def test_root_level_substreams_keep_their_draws(self):
        # substream c of a root draws under numpy's spawn key (c,), as it
        # always has, so the documents built on root-level substreams stay put
        for c in (0, 1, 7, 2**32 + 3):
            want = default_rng(SeedSequence(9, spawn_key=(c,))).standard_normal(4)
            assert np.array_equal(RandomStream(9).substream(c).generator.standard_normal(4), want)
            assert np.array_equal(RandomStream(9, c).generator.standard_normal(4), want)
        want = default_rng(SeedSequence(9, spawn_key=(0,))).standard_normal(4)
        assert np.array_equal(RandomStream(9).generator.standard_normal(4), want)

    def test_nested_substreams_are_streams_of_their_own(self):
        # substream(i).substream(j) used to collapse onto substream(j)
        def draws(stream):
            return tuple(stream.generator.standard_normal(4))

        root = RandomStream(9)
        paths = {
            "root": root,
            "(0,)": root.substream(0),
            "(1,)": root.substream(1),
            "(2,)": root.substream(2),
            "(2**32,)": root.substream(2**32),
            "(0, 1)": root.substream(0).substream(1),
            "(1, 0)": root.substream(1).substream(0),
            "(1, 2)": root.substream(1).substream(2),
            "(2, 1)": root.substream(2).substream(1),
            "(1, 2, 0)": root.substream(1).substream(2).substream(0),
        }
        seen = {name: draws(stream) for name, stream in paths.items()}
        # the root and its substream 0 share draws, but not substreams
        assert seen.pop("root") == seen["(0,)"]
        assert len(set(seen.values())) == len(seen)
        # a stream is its path: however it is reached, it replays the same draws
        assert draws(RandomStream(9, 1).substream(2)) == seen["(1, 2)"]
        assert draws(RandomStream(9).substream(1).substream(2)) == seen["(1, 2)"]
        assert RandomStream(9).substream(1).substream(2).path == (1, 2)

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 255, 512, 769])
    def test_complex_normals_are_two_consecutive_real_draws(self, count):
        # one 2 * count draw replays the real parts and then the imaginary
        # parts of two count draws, bit for bit, and leaves the stream where
        # they leave it
        for stream, twin in [(RandomStream(5), RandomStream(5)),
                             (RandomStream(9, 3), RandomStream(9, 3)),
                             (RandomStream(9).substream(2).substream(7),
                              RandomStream(9).substream(2).substream(7))]:
            for _ in range(2):
                got = stream.complex_normals(count)
                real = twin.generator.standard_normal(count)
                want = real + 1j * twin.generator.standard_normal(count)
                assert got.dtype == complex and got.shape == (count,)
                assert np.array_equal(got.view(float), want.view(float))
            assert stream.uniform() == twin.uniform()

    def test_empirical_moments_match_symmetric_projector(self):
        # Monte Carlo oracle for the exact moment identity, d=2, k <= 3
        stream = RandomStream(2024)
        count = 100_000
        gen = stream.generator
        z = gen.standard_normal((count, 2)) + 1j * gen.standard_normal((count, 2))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        for k in (1, 2, 3):
            dim = 2**k
            mean = np.zeros((dim, dim), dtype=complex)
            for chunk in np.array_split(z, 50):
                powers = chunk
                for _ in range(k - 1):
                    powers = np.einsum("ni,nj->nij", powers, chunk).reshape(len(chunk), -1)
                mean += np.einsum("ni,nj->ij", powers, powers.conj())
            mean /= count
            gap = np.linalg.norm(mean - sym_projector(2, k) / dim_sym(2, k), 2)
            assert gap <= 5e-3, f"k={k}: operator-norm gap {gap}"


def test_partial_trace_matrix_handles_non_density_input():
    mat = np.arange(16.0).reshape(4, 4)
    out = partial_trace_matrix(mat, [2, 2], keep=[0])
    assert out.shape == (2, 2)
    assert out[0, 0] == mat[0, 0] + mat[1, 1]


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: PureState([NAN, 0.0]),
    lambda: PureState.normalized([0.0, 0.0]),
    lambda: DensityOperator(np.full((2, 2), NAN)),
    lambda: MixedStrategy([NAN, 0.5]),
    lambda: Povm(1, [[NAN, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]),
    lambda: Povm(1, [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [NAN, 0.0]]),
    lambda: _check_unit_rows(np.array([[1.0, 0.0], [NAN, 0.0]])),
], ids=["pure-state", "normalized-zero", "density", "mixed-strategy", "povm-effect",
        "povm-guess", "unit-rows"])
def test_nan_fails_every_value_check(build):
    # NaN compares false, so a check of the form `abs(x - 1) > tol` lets it through
    with pytest.raises(ValueError):
        build()

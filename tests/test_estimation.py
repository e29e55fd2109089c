import logging
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm
from scipy.optimize import nnls as scipy_nnls

import qgames.estimation

from qgames.core import (
    DensityOperator,
    PureState,
    RandomStream,
    ShapeError,
    SizeCapExceeded,
    haar_random_state,
    tensor_power,
)
from qgames.cloning import Channel, global_fidelity, haar_avg_global_fidelity
from qgames.estimation import (
    _amplitudes,
    _completeness_system,
    _lawson_hanson,
    _nnls,
    Direction,
    IncompletePovm,
    Povm,
    build_povm,
    default_directions,
    design_directions,
    fibonacci_directions,
    mean_fidelity,
    pointwise_payoff,
    universal_povm,
)
from qgames.harness import discretize_cloning_game, discretize_estimation_game, fibonacci_states
from qgames.symmetric import coherent_coordinates, dim_sym, sym_projector

import dense_oracle
from conftest import bloch_state
from dense_oracle import SymBasis

KET0 = PureState.basis(2, 0)
PLUS = PureState(np.array([1.0, 1.0]) / math.sqrt(2.0))


def rotation_matrix_oracle(two_j, theta):
    """expm(-i theta Jy) for spin j, rows/columns ordered by descending m."""
    j = two_j / 2.0
    ms = [j - k for k in range(two_j + 1)]
    jp = np.zeros((two_j + 1, two_j + 1))
    for row, m in enumerate(ms):
        if m < j:
            # <j, m+1| J+ |j, m> connects column of m to row of m+1
            jp[row - 1, row] = math.sqrt(j * (j + 1) - m * (m + 1))
    jy = (jp - jp.T) / 2j
    return expm(-1j * theta * jy)


def wigner_d_top(two_j: int, two_m: int, theta: float) -> float:
    """Highest-weight column of the spin-j rotation about the y axis.

    Indices are doubled to stay integral.  Returns
    sqrt(binom(2j, j+m)) cos(theta/2)^{j+m} sin(theta/2)^{j-m}, the (m, j)
    entry of expm(-i theta Jy) in the m-descending basis (checked against
    `rotation_matrix_oracle` below).
    """
    if two_j < 0 or (two_j + two_m) % 2 != 0 or not -two_j <= two_m <= two_j:
        raise IndexError(f"invalid doubled index two_m={two_m} for two_j={two_j}")
    kp = (two_j + two_m) // 2
    km = (two_j - two_m) // 2
    return (
        math.sqrt(math.comb(two_j, kp))
        * math.cos(0.5 * theta) ** kp
        * math.sin(0.5 * theta) ** km
    )


def measurement_vector(n_copies: int, direction: Direction) -> PureState:
    """Spin-coherent vector of a direction in the symmetric basis, by spin-j rotation.

    Component at magnetic index m (descending, m = n/2 - k) is
    e^{-i psi m} d^{n/2}_{m, n/2}(theta): an oracle for the coherent
    coordinates of bloch_state(direction)^{tensor n} that shares no code with
    `coherent_coordinates`.
    """
    if n_copies < 1:
        raise ValueError("need at least one copy")
    amps = np.empty(n_copies + 1, dtype=complex)
    for k in range(n_copies + 1):
        two_m = n_copies - 2 * k
        amps[k] = np.exp(-0.5j * direction.psi_phase * two_m) * wigner_d_top(
            n_copies, two_m, direction.theta
        )
    return PureState(amps / np.linalg.norm(amps))


class TestWignerDTop:
    def test_spin_half_is_cosine(self):
        for theta in (0.1, 0.7, 2.0, 3.0):
            assert wigner_d_top(1, 1, theta) == pytest.approx(math.cos(theta / 2.0))

    def test_identity_rotation(self):
        assert wigner_d_top(4, 4, 0.0) == pytest.approx(1.0)
        for two_m in (2, 0, -2, -4):
            assert wigner_d_top(4, two_m, 0.0) == pytest.approx(0.0)

    @pytest.mark.parametrize("two_j", [1, 2, 3, 4, 5])
    def test_matches_matrix_exponential_oracle(self, two_j):
        for theta in (0.0, 0.3, math.pi / 2.0, 2.5, math.pi):
            column = rotation_matrix_oracle(two_j, theta)[:, 0]
            for k in range(two_j + 1):
                got = wigner_d_top(two_j, two_j - 2 * k, theta)
                assert abs(got - column[k].real) <= 1e-12
                assert abs(column[k].imag) <= 1e-12

    def test_invalid_doubled_index(self):
        with pytest.raises(IndexError):
            wigner_d_top(2, 1, 0.5)  # parity mismatch
        with pytest.raises(IndexError):
            wigner_d_top(2, 4, 0.5)

    @given(st.floats(0.0, math.pi), st.integers(1, 6))
    def test_column_is_normalized(self, theta, two_j):
        total = sum(
            wigner_d_top(two_j, two_j - 2 * k, theta) ** 2 for k in range(two_j + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestMeasurementVector:
    """The spin-j oracle above against `coherent_coordinates` at d = 2."""

    def test_north_pole_single_copy(self):
        vec = measurement_vector(1, Direction(0.0, 0.0))
        assert np.allclose(vec.amplitudes, [1.0, 0.0])

    def test_north_pole_two_copies_top_state(self):
        vec = measurement_vector(2, Direction(0.0, 0.0))
        assert np.allclose(vec.amplitudes, [1.0, 0.0, 0.0])

    def test_matches_tensor_power_oracle(self, rng):
        for n in (1, 2, 3, 5):
            basis = SymBasis(2, n)
            gen = rng.substream(n).generator
            for _ in range(10):
                direction = Direction(
                    float(gen.uniform(0.0, math.pi)), float(gen.uniform(0.0, 2.0 * math.pi))
                )
                got = measurement_vector(n, direction).amplitudes
                want = basis.compress(tensor_power(bloch_state(direction), n).amplitudes)
                assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12])
    def test_coherent_coordinates_match_the_rotation(self, n, rng):
        gen = rng.substream(30 + n).generator
        dirs = [Direction(0.0, 0.0), Direction(math.pi, 0.0)] + [
            Direction(float(gen.uniform(0.0, math.pi)), float(gen.uniform(0.0, 2.0 * math.pi)))
            for _ in range(20)
        ]
        for direction in dirs:
            got = coherent_coordinates(bloch_state(direction).amplitudes, n)
            want = measurement_vector(n, direction).amplitudes
            assert np.max(np.abs(got - want)) <= 1e-12


class TestDirections:
    def test_default_antipodal_for_single_copy(self):
        dirs = default_directions(1)
        assert len(dirs) == 2
        assert dirs[0].theta == 0.0 and dirs[1].theta == math.pi

    def test_default_counts(self):
        assert len(default_directions(2)) == 9
        assert len(set((d.theta, d.psi_phase) for d in default_directions(2))) == 9

    def test_fibonacci_in_range(self):
        for d in fibonacci_directions(40):
            assert 0.0 <= d.theta <= math.pi
            assert 0.0 <= d.psi_phase < 2.0 * math.pi

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_design_weights_tile_the_moment(self, n):
        # the weighted (n+1)-fold direction moments must equal the Haar moment
        dirs, weights = design_directions(n)
        k = n + 1
        total = np.zeros((2**k, 2**k), dtype=complex)
        for direction, w in zip(dirs, weights):
            v = tensor_power(bloch_state(direction), k).amplitudes
            total += w * np.outer(v, v.conj())
        assert weights.sum() == pytest.approx(1.0, abs=1e-13)
        assert (weights >= 0).all()
        gap = np.linalg.norm(total - sym_projector(2, k) / dim_sym(2, k), 2)
        assert gap <= 1e-13


class TestBuildPovm:
    def test_antipodal_pair_is_projective(self):
        povm = build_povm(1, default_directions(1))
        assert povm.completeness_residual <= 1e-12
        effects = dense_oracle.effect_stack(povm).effects
        assert np.allclose(effects[0], [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
        assert np.allclose(effects[1], [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_default_nine_directions_two_copies(self):
        povm = build_povm(2, default_directions(2))
        assert povm.completeness_residual <= 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_default_directions_complete_up_to_five(self, n):
        povm = build_povm(n, default_directions(n))
        assert povm.completeness_residual <= 1e-8

    def test_single_direction_incomplete(self):
        with pytest.raises(IncompletePovm):
            build_povm(1, [Direction(0.0, 0.0)])

    def test_no_directions_refused_before_the_solver(self):
        with pytest.raises(IncompletePovm):
            build_povm(2, [])

    def test_effect_stack_capped_before_it_is_built(self, monkeypatch):
        # 441 effects of side 21 stack 9261 rows, over the cap of 4096
        import qgames.estimation

        def no_vectors(*args):
            raise AssertionError("built a coherent vector before the cap check")

        monkeypatch.setattr(qgames.estimation, "coherent_coordinates", no_vectors)
        with pytest.raises(SizeCapExceeded):
            build_povm(20, default_directions(20))
        with pytest.raises(SizeCapExceeded):
            universal_povm(19)  # 10 x 21 points of side 20

    def test_effect_positivity_many_cases(self, rng):
        # property sweep: every built effect is PSD, every weight nonnegative;
        # random frames need ~4(n+1)^2 points before nonnegative weights can
        # tile the identity reliably
        count = 0
        for n in (1, 2, 3):
            gen = rng.substream(40 + n).generator
            for _ in range(40):
                dirs = [
                    Direction(float(gen.uniform(0, math.pi)), float(gen.uniform(0, 2 * math.pi)))
                    for _ in range(4 * (n + 1) ** 2 + 8)
                ]
                try:
                    povm = build_povm(n, dirs)
                except IncompletePovm:
                    continue
                for effect in dense_oracle.effect_stack(povm).effects:
                    assert np.linalg.eigvalsh(effect).min() >= -1e-10
                count += 1
        assert count >= 100


def coherent_vectors(n, directions):
    return coherent_coordinates(_amplitudes(directions), n)


def completeness_system(n, directions):
    return _completeness_system(coherent_vectors(n, directions))


def assert_kkt(a, b, x):
    """x >= 0, no descent direction a^T(b - a x) above 1e-10, complementarity."""
    descent = a.T @ (b - a @ x)
    assert x.min() >= 0.0
    assert descent.max() <= 1e-10
    assert np.abs(x * descent).max() <= 1e-10


class TestNnls:
    def test_system_norm_is_the_frobenius_defect(self, rng):
        gen = rng.generator
        vectors = coherent_vectors(3, fibonacci_directions(20))
        projectors = vectors[:, :, None] * vectors[:, None, :].conj()
        weights = gen.uniform(0.0, 0.5, size=20)
        a, b = _completeness_system(vectors)
        assert a.shape == (16, 20)
        defect = np.einsum("r,rij->ij", weights, projectors) - np.eye(4)
        assert np.linalg.norm(a @ weights - b) == pytest.approx(
            np.linalg.norm(defect, "fro"), rel=1e-14)

    @pytest.mark.parametrize("n", range(1, 16))
    def test_default_directions_match_scipy(self, n):
        a, b = completeness_system(n, default_directions(n))
        x, residual = _nnls(a, b)
        ref_x, ref_residual = scipy_nnls(a, b)
        expect_pass = n not in (9, 14, 15)
        assert (residual <= 1e-8) == (ref_residual <= 1e-8) == expect_pass
        assert abs(residual - ref_residual) <= 1e-10
        assert residual == np.linalg.norm(a @ x - b)
        assert_kkt(a, b, x)

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_duplicated_directions(self, n):
        # (n+1)^2 rows, 2 (n+1)^2 columns: every column has a twin
        a, b = completeness_system(n, default_directions(n) * 2)
        x, residual = _nnls(a, b)
        assert abs(residual - scipy_nnls(a, b)[1]) <= 1e-10
        assert_kkt(a, b, x)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rank_deficient_frames(self, n, rng):
        # more directions than the (n+1)^2 real coordinates of a Hermitian
        # effect: the benchmark's frame-game sets (an antipodal pair plus the
        # default frame) and random sets
        gen = rng.substream(60 + n).generator
        frames = [[Direction(0.0, 0.0), Direction(math.pi, 0.0)] + default_directions(n)]
        frames += [[Direction(float(gen.uniform(0, math.pi)), float(gen.uniform(0, 2 * math.pi)))
                    for _ in range(count)] for count in (2 * (n + 1) ** 2, 4 * (n + 1) ** 2)]
        for dirs in frames:
            a, b = completeness_system(n, dirs)
            assert a.shape[1] > np.linalg.matrix_rank(a)
            x, residual = _nnls(a, b)
            assert abs(residual - scipy_nnls(a, b)[1]) <= 1e-10
            assert_kkt(a, b, x)

    def test_random_problems_match_scipy(self, rng):
        gen = rng.generator
        for rows, cols in [(30, 20), (20, 30), (12, 12), (40, 5)]:
            for _ in range(5):
                a = gen.standard_normal((rows, cols))
                b = gen.standard_normal(rows)
                x, residual = _nnls(a, b)
                assert abs(residual - scipy_nnls(a, b)[1]) <= 1e-10
                assert_kkt(a, b, x)

    def test_lawson_hanson_fallback(self, monkeypatch):
        # no patience: the first swap that does not lower the violation count
        # hands over to Lawson-Hanson, which n = 15's swaps soon reach
        a, b = completeness_system(15, default_directions(15))
        calls = []

        def spy(*args):
            calls.append(args)
            return _lawson_hanson(*args)

        monkeypatch.setattr(qgames.estimation, "NNLS_PATIENCE", 0)
        monkeypatch.setattr(qgames.estimation, "_lawson_hanson", spy)
        x, residual = _nnls(a, b)
        assert len(calls) == 1
        assert abs(residual - scipy_nnls(a, b)[1]) <= 1e-10
        assert_kkt(a, b, x)

    def test_lawson_hanson_from_an_empty_passive_set(self, rng):
        gen = rng.generator
        problems = [completeness_system(9, default_directions(9))]
        problems += [(gen.standard_normal((25, 15)), gen.standard_normal(25)) for _ in range(5)]
        for a, b in problems:
            x = _lawson_hanson(a, b, np.zeros(a.shape[1], dtype=bool), 1e-13)
            assert abs(np.linalg.norm(a @ x - b) - scipy_nnls(a, b)[1]) <= 1e-10
            assert_kkt(a, b, x)

    @pytest.mark.parametrize("n, residual", [(9, "7.528e-05"), (14, "3.556e-07"),
                                              (15, "5.272e-07")])
    def test_incomplete_default_frames_report_the_minimum_residual(self, n, residual):
        with pytest.raises(IncompletePovm, match=f"completeness residual {residual} "):
            build_povm(n, default_directions(n))


class TestPovmType:
    def test_rejects_incomplete(self):
        with pytest.raises(IncompletePovm):
            Povm(1, ([1.0, 0.0],), (KET0,))

    def test_is_a_channel_with_its_completeness_rule(self):
        # a Frobenius defect of 3e-9 that the old rule (Frobenius <= 1e-8)
        # admitted; the operator-norm defect 3e-9 passes COMPLETENESS_ATOL
        vectors = [[1.0, 0.0], [0.0, (1.0 + 3e-9) ** 0.5]]
        with pytest.raises(IncompletePovm, match=r"\(defect 3\.000e-09 > 1e-10\)"):
            Povm(1, vectors, [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(IncompletePovm, match="at least one Kraus operator"):
            Povm(1, np.zeros((0, 2)), [])
        povm = Povm(1, np.eye(2), np.eye(2))
        assert isinstance(povm, Channel) and repr(povm).startswith("Povm(d=2, n_in=1, n_out=1,")
        assert (povm.d, povm.n, povm.n_in, povm.n_out) == (2, 1, 1, 1)
        # the stack |g_r><v_r| as the measure-and-prepare channel stores it
        assert povm.kraus.tobytes() == (povm.guesses[:, :, None]
                                        * povm.vectors[:, None, :].conj()).tobytes()
        assert not (povm.vectors.flags.writeable or povm.guesses.flags.writeable)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_vector(self, bad):
        # refused before the completeness product, where inf would warn
        with pytest.raises(ValueError, match="non-finite"):
            Povm(1, ([bad, 0.0], [0.0, 1.0]), (KET0, PureState.basis(2, 1)))

    def test_rejects_guess_count_mismatch(self):
        povm = build_povm(1, default_directions(1))
        with pytest.raises(ShapeError):
            Povm(1, povm.vectors, (KET0,))

    def test_rejects_wrong_effect_shape(self):
        with pytest.raises(ShapeError):
            Povm(1, ([1.0, 0.0, 0.0],), (KET0,))

    def test_rejects_non_qubit_guess(self):
        povm = build_povm(1, default_directions(1))
        with pytest.raises(ShapeError):
            Povm(1, povm.vectors, (KET0, PureState.basis(3, 0)))

    def test_rejects_non_unit_guess_row(self):
        povm = build_povm(1, default_directions(1))
        with pytest.raises(ValueError, match="norm"):
            Povm(1, povm.vectors, ([1.0, 0.0], [0.0, 1.0 + 1e-9]))

    @pytest.mark.parametrize("guesses, error, message", [
        (np.eye(2)[:1], ShapeError, "^one guess per effect required$"),
        (np.zeros((2, 3)), ShapeError, "^guesses must be qubits$"),
        (np.zeros(2), ShapeError, "^guesses must be qubits$"),
        (np.zeros((2, 2, 1)), ShapeError, "^guesses must be qubits$"),
        (np.array([[1.0, 0.0], [0.0, 1.0 + 1e-9]]), ValueError, "not 1 within 1e-12"),
    ])
    def test_guess_arrays_keep_the_sequence_rules(self, guesses, error, message):
        povm = build_povm(1, default_directions(1))
        with pytest.raises(error, match=message):
            Povm(1, povm.vectors, guesses)
        with pytest.raises(error, match=message):
            Povm(1, povm.vectors, list(guesses))

    def test_guess_array_is_taken_without_a_per_row_conversion(self, monkeypatch):
        povm = universal_povm(4)
        guesses = np.array(povm.guesses)
        # per-row conversions take one guess row each; `Channel` converts the
        # whole Kraus stack in one call
        calls = []
        asarray = np.asarray
        monkeypatch.setattr(np, "asarray", lambda a, *r, **k: calls.append(np.shape(a) == (2,))
                            or asarray(a, *r, **k))
        from_array = Povm(4, povm.vectors, guesses)
        assert calls.count(True) == 0
        from_rows = Povm(4, povm.vectors, list(guesses))
        assert calls.count(True) == len(guesses)
        assert from_array.guesses.tobytes() == from_rows.guesses.tobytes()
        assert not np.shares_memory(from_array.guesses, guesses)
        assert from_array.completeness_residual == from_rows.completeness_residual

    def test_upper_indices_are_made_once_per_side(self, monkeypatch):
        calls = []
        triu = np.triu_indices
        monkeypatch.setattr(np, "triu_indices", lambda *a, **k: calls.append(a) or triu(*a, **k))
        qgames.estimation._upper_indices.cache_clear()
        vectors = coherent_coordinates(_amplitudes(default_directions(3)), 3)
        first = _completeness_system(vectors)
        second = _completeness_system(vectors)
        assert calls == [(4, 1)]
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        rows, cols = qgames.estimation._upper_indices(4)
        assert not rows.flags.writeable and not cols.flags.writeable
        assert [a.tolist() for a in (rows, cols)] == [a.tolist() for a in triu(4, 1)]

    def test_stacks_are_read_only(self):
        povm = build_povm(2, default_directions(2))
        assert povm.vectors.shape == (9, 3) and povm.vectors.dtype == complex
        assert povm.guesses.shape == (9, 2) and povm.guesses.dtype == complex
        for stack in (povm.vectors, povm.guesses):
            with pytest.raises(ValueError):
                stack[0, 0] = 0.0

    def test_states_and_amplitude_rows_build_the_same_povm(self):
        povm = build_povm(1, default_directions(1))
        from_rows = Povm(1, list(povm.vectors), [[1.0, 0.0], [0.0, 1.0]])
        from_states = Povm(1, povm.vectors, (KET0, PureState.basis(2, 1)))
        assert np.array_equal(from_rows.vectors, from_states.vectors)
        assert np.array_equal(from_rows.guesses, from_states.guesses)
        assert from_rows.completeness_residual == from_states.completeness_residual

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rank_one_split_loses_no_strategy(self, n, rng):
        # a rank-2 effect E_0 and its complement I - E_0, each split along its
        # eigenvectors with its guess kept, score as the unsplit POVM on every
        # state (dense oracle) and on the Haar average
        gen = rng.substream(900 + n).generator
        dim = n + 1
        u = np.linalg.qr(gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim)))[0]
        spectrum = np.zeros(dim)
        spectrum[:2] = gen.uniform(0.2, 0.8, size=2)
        first = (u * spectrum) @ u.conj().T
        assert np.linalg.matrix_rank(first) == 2
        guesses = [haar_random_state(2, rng.substream(910 + i)).amplitudes for i in range(2)]
        unsplit = dense_oracle.EffectStack(n, np.array([first, np.eye(dim) - first]),
                                           np.array(guesses))
        vectors, split_guesses = [], []
        for effect, guess in zip(unsplit.effects, guesses):
            values, basis = np.linalg.eigh(effect)
            for value, column in zip(values, basis.T):
                if value > 1e-12:
                    vectors.append(math.sqrt(value) * column)
                    split_guesses.append(guess)
        split = Povm(n, vectors, split_guesses)
        for i in range(20):
            psi = haar_random_state(2, rng.substream(950 + i))
            assert abs(dense_oracle.pointwise_payoff(split, psi)
                       - dense_oracle.pointwise_payoff(unsplit, psi)) <= 1e-12
        assert abs(mean_fidelity(split) - dense_oracle.mean_fidelity(unsplit)) <= 1e-12


class TestRespond:
    def test_deterministic_outcome(self):
        povm = build_povm(1, default_directions(1))
        out = DensityOperator(dense_oracle.respond(povm, KET0))
        assert np.allclose(out.matrix, KET0.density().matrix, atol=1e-12)

    def test_equatorial_input_maximally_mixed(self):
        povm = build_povm(1, default_directions(1))
        out = DensityOperator(dense_oracle.respond(povm, PLUS))
        assert np.allclose(out.matrix, np.eye(2) / 2.0, atol=1e-12)

    def test_always_a_valid_state(self, rng):
        for n in (1, 2, 3):
            povm = build_povm(n, default_directions(n))
            for i in range(35):
                psi = haar_random_state(2, rng.substream(100 * n + i))
                sigma = DensityOperator(dense_oracle.respond(povm, psi))  # validates itself
                assert abs(np.trace(sigma.matrix).real - 1.0) <= 1e-10

    def test_monte_carlo_payoff_matches_expected(self, rng):
        # oracle: play the measurement by sampling outcomes and compare the
        # empirical payoff against the deterministic responder
        from qgames.swap_test import expected_payoff

        povm = build_povm(2, default_directions(2))
        psi = haar_random_state(2, rng.substream(7))
        exact = expected_payoff(psi.density(), DensityOperator(dense_oracle.respond(povm, psi)))
        probs = povm.outcome_probabilities(psi)
        probs = probs / probs.sum()
        gen = rng.substream(8).generator
        count = 200_000
        outcomes = gen.choice(len(probs), size=count, p=probs)
        fids = np.abs(povm.guesses @ psi.amplitudes.conj()) ** 2
        sample = fids[outcomes]
        stderr = sample.std() / math.sqrt(count) + 1e-12
        assert abs(sample.mean() - exact) <= 3.0 * stderr


class TestMeanFidelity:
    def test_antipodal_value(self):
        povm = build_povm(1, default_directions(1))
        assert abs(mean_fidelity(povm) - 2.0 / 3.0) <= 1e-10

    def test_three_copies_default(self):
        povm = build_povm(3, default_directions(3))
        assert abs(mean_fidelity(povm) - 0.8) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_value_ladder(self, n):
        povm = build_povm(n, default_directions(n))
        assert abs(mean_fidelity(povm) - (n + 1) / (n + 2)) <= 1e-9

    def test_logs_dimensions(self, caplog):
        povm = universal_povm(4)
        with caplog.at_level(logging.DEBUG, logger="qgames"):
            mean_fidelity(povm)
        (record,) = [r for r in caplog.records if r.name == "qgames.estimation"]
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert f"{len(povm.vectors)} effects" in message
        assert "side 10" in message and "space: 32" in message

    def test_flipped_guesses_score_one_third(self):
        povm = build_povm(1, default_directions(1))
        flipped = Povm(1, povm.vectors, tuple(reversed(povm.guesses)))
        assert abs(mean_fidelity(flipped) - 1.0 / 3.0) <= 1e-10

    def test_flipped_guesses_monte_carlo_oracle(self):
        povm = build_povm(1, default_directions(1))
        flipped = Povm(1, povm.vectors, tuple(reversed(povm.guesses)))
        stream = RandomStream(404)
        count = 20_000
        vals = np.array(
            [
                pointwise_payoff(flipped, haar_random_state(2, stream.substream(i)))
                for i in range(count)
            ]
        )
        stderr = vals.std() / math.sqrt(count) + 1e-12
        assert abs(vals.mean() - 1.0 / 3.0) <= 3.0 * stderr

    def test_random_complete_frames_hit_the_same_value(self, rng):
        # completeness + aligned guesses pins the mean fidelity, whatever the
        # direction set; consequence of the product-state argument in the docs
        for n in (1, 2, 3):
            gen = rng.substream(70 + n).generator
            for _ in range(5):
                dirs = [
                    Direction(float(gen.uniform(0, math.pi)), float(gen.uniform(0, 2 * math.pi)))
                    for _ in range((n + 1) ** 2 + 5)
                ]
                try:
                    povm = build_povm(n, dirs)
                except IncompletePovm:
                    continue
                want = (n + 1) / (n + 2)
                assert abs(mean_fidelity(povm) - want) <= 10.0 * max(
                    povm.completeness_residual, 1e-12
                ) + 1e-10


def povms_up_to_twelve_copies():
    """`universal_povm(n)` and, where it builds, the default-frame POVM, n = 1..12."""
    for n in range(1, 13):
        yield f"universal-{n}", universal_povm(n)
        try:
            yield f"default-{n}", build_povm(n, default_directions(n))
        except IncompletePovm:
            pass


def test_povm_scores_as_its_measure_and_prepare_channel():
    # the n -> 1 channel with Kraus operators |g_r><v_r| gives the POVM's
    # Haar mean and payoff matrix bit for bit, and the cloning evaluators
    # score the POVM itself as that channel
    states = fibonacci_states(40)
    labels = []
    for label, povm in povms_up_to_twelve_copies():
        kraus = povm.kraus
        assert povm.kraus is kraus, label
        with pytest.raises(ValueError, match="read-only"):
            kraus[0, 0, 0] = 0.0
        channel = Channel(2, povm.n, 1, kraus)
        assert mean_fidelity(povm) == haar_avg_global_fidelity(channel), label
        assert haar_avg_global_fidelity(povm) == mean_fidelity(povm), label
        for row in states[::7]:
            psi = PureState(row)
            assert global_fidelity(povm, psi) == pointwise_payoff(povm, psi), label
        estimation = discretize_estimation_game(povm.n, [povm], states).payoff
        cloning = discretize_cloning_game(2, povm.n, 1, [channel], states).payoff
        assert np.array_equal(estimation, cloning), label
        labels.append(label)
    assert len(labels) == 23


class TestUniversalPovm:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_flat_pointwise_payoff(self, n, rng):
        povm = universal_povm(n)
        want = (n + 1) / (n + 2)
        vals = [
            pointwise_payoff(povm, haar_random_state(2, rng.substream(500 + i)))
            for i in range(100)
        ]
        assert np.std(vals) <= 1e-9
        assert abs(np.mean(vals) - want) <= 1e-9

    def test_frame_averaged_payoff_flat_for_any_complete_povm(self, rng):
        povm = build_povm(2, default_directions(2))
        vals = [
            dense_oracle.frame_averaged_payoff(povm, haar_random_state(2, rng.substream(600 + i)))
            for i in range(100)
        ]
        assert np.std(vals) <= 1e-9
        assert abs(np.mean(vals) - mean_fidelity(povm)) <= 1e-9

    def test_frame_averaging_requires_aligned_guesses(self):
        povm = build_povm(1, default_directions(1))
        flipped = Povm(1, povm.vectors, tuple(reversed(povm.guesses)))
        with pytest.raises(ValueError, match="aligned"):
            dense_oracle.frame_averaged_payoff(flipped, KET0)

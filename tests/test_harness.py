import dataclasses
import functools
import hashlib
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qgames.core
import qgames.harness

from qgames.cloning import (
    Channel,
    _checked_defects,
    _random_isometry_kraus,
    conjugate_output,
    global_fidelity,
    haar_avg_global_fidelity,
    haar_random_unitary,
    mixture_channel,
    optimal_cloner,
    product_embedding_channel,
    random_isometry_channel,
    single_clone_haar_fidelity,
    symmetric_noise_channel,
    value_formulas,
)
from qgames.core import (
    DensityOperator,
    InvalidArity,
    PureState,
    RandomStream,
    ShapeError,
    SizeCapExceeded,
    haar_random_state,
)
from qgames.estimation import (
    Povm,
    build_povm,
    default_directions,
    fibonacci_directions,
    pointwise_payoff,
    universal_povm,
)
from qgames.harness import (
    _asymmetry_grid_kraus,
    _checked_payoffs,
    GAME_KINDS,
    GameSpec,
    ScanRecord,
    asym_bound_scan,
    cloner_perturbations,
    discretize_cloning_game,
    discretize_estimation_game,
    fibonacci_states,
    haar_states,
    monte_carlo_play,
    perturb_best_response_check,
    povm_perturbations,
    sandwich_report,
)
from qgames.swap_test import expected_payoff
from qgames.zerosum import MatrixGame, solve

import dense_oracle
from conftest import bloch_state, icosahedral_states, mirror_embedding_channel, peak_bytes
from exact_simplex import exact_simplex
from mc_oracle import oracle_outcomes, oracle_record
from test_dense_oracle import estimation_strategies


def spy_normal_draws(monkeypatch, poison=None):
    """Record every `standard_normal` size drawn through a stream's `generator`.

    Returns a list of (stream path, size) pairs.  `poison(path, draws)` may
    edit the draws of any call before they are returned.
    """
    calls = []
    real = RandomStream.generator

    class Spy:
        def __init__(self, stream):
            self._stream = stream
            self._gen = real.fget(stream)

        def standard_normal(self, size):
            calls.append((self._stream.path, size))
            draws = self._gen.standard_normal(size)
            if poison is not None:
                poison(self._stream.path, draws)
            return draws

        def __getattr__(self, name):
            return getattr(self._gen, name)

    monkeypatch.setattr(RandomStream, "generator", property(Spy))
    return calls


def spy_stream_draws(monkeypatch):
    """Record every draw a stream makes, as (method, stream path, arguments)."""
    calls = []
    real_normals, real_generator = RandomStream.complex_normals, RandomStream.generator

    def complex_normals(self, count):
        calls.append(("complex_normals", self.path, (count,)))
        return real_normals(self, count)

    class Spy:
        def __init__(self, stream):
            self._path, self._gen = stream.path, real_generator.fget(stream)

        def __getattr__(self, name):
            def draw(*args, **kwargs):
                calls.append((name, self._path, args + tuple(kwargs.values())))
                return getattr(self._gen, name)(*args, **kwargs)
            return draw

    monkeypatch.setattr(RandomStream, "complex_normals", complex_normals)
    monkeypatch.setattr(RandomStream, "uniform", lambda self: float(self.generator.random()))
    monkeypatch.setattr(RandomStream, "generator", property(Spy))
    return calls


def refuse_draws(monkeypatch):
    """Record, without drawing, every complex-normal draw or generator a stream is asked for."""
    calls = []
    monkeypatch.setattr(RandomStream, "complex_normals",
                        lambda self, count: calls.append(count))
    monkeypatch.setattr(RandomStream, "generator",
                        property(lambda self: calls.append("generator")))
    return calls


class TestGameSpec:
    def test_estimation_requires_qubits(self):
        with pytest.raises(ValueError):
            GameSpec("estimation", d=3, n=1)

    def test_cloning_arity(self):
        with pytest.raises(ValueError):
            GameSpec("cloning", d=2, n=3, m=2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GameSpec("guessing", d=2, n=1, m=1)

    @pytest.mark.parametrize("kind", ["cloning", "one_particle"])
    @pytest.mark.parametrize("d", [0, -1])
    def test_dimension_must_be_positive(self, kind, d):
        with pytest.raises(ValueError, match="d must be >= 1"):
            GameSpec(kind, d=d, n=1, m=2)

    def test_theoretical_values(self):
        assert GameSpec("estimation", n=1).theoretical_value() == pytest.approx(2 / 3)
        assert GameSpec("cloning", d=2, n=1, m=2).theoretical_value() == pytest.approx(2 / 3)
        assert GameSpec("one_particle", d=2, n=1, m=2).theoretical_value() == pytest.approx(5 / 6)


class TestStateSets:
    def test_icosahedron_has_twelve_distinct_states(self):
        states = icosahedral_states()
        assert len(states) == 12
        overlaps = [
            abs(np.vdot(states[i].amplitudes, states[j].amplitudes)) ** 2
            for i in range(12)
            for j in range(i + 1, 12)
        ]
        assert max(overlaps) < 1.0 - 1e-6

    def test_icosahedron_is_a_two_design(self):
        # average of |<a|b>|^4 over a projective 2-design equals 1/3
        states = icosahedral_states()
        probe = PureState(np.array([0.8, 0.6j]))
        mean = np.mean([abs(np.vdot(probe.amplitudes, s.amplitudes)) ** 4 for s in states])
        assert mean == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("count", [1, 2, 16, 257, 2000])
    def test_fibonacci_states_are_stacked_bloch_states(self, count):
        rows = fibonacci_states(count)
        want = np.stack([bloch_state(u).amplitudes for u in fibonacci_directions(count)])
        assert rows.shape == (count, 2)
        assert np.array_equal(rows, want)

    def test_haar_states_draw_by_seed_scheme_v7(self):
        # row i is the i-th consecutive haar_random_state draw from
        # substream 0, across the old 256-state boundary of seed scheme v3,
        # so 300 rows are a prefix of 600
        states = haar_states(3, 600, RandomStream(41))
        stream = RandomStream(41).substream(0)
        want = np.stack([haar_random_state(3, stream).amplitudes for _ in range(600)])
        assert states.shape == (600, 3)
        assert np.array_equal(states, want)
        assert np.array_equal(haar_states(3, 300, RandomStream(41)), states[:300])
        assert haar_states(3, 0, RandomStream(41)).shape == (0, 3)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
    def test_haar_rows_keep_the_bits_of_single_states(self, d):
        # one draw for all rows, each divided by np.linalg.norm of its own
        # row: byte for byte the consecutive haar_random_state draws
        stream = RandomStream(53).substream(0)
        want = np.stack([haar_random_state(d, stream).amplitudes for _ in range(300)])
        assert haar_states(d, 300, RandomStream(53)).tobytes() == want.tobytes()
        assert haar_states(d, 0, RandomStream(53)).shape == (0, d)

    def test_haar_states_refuse_an_empty_dimension(self):
        with pytest.raises(ShapeError, match="dimension must be positive"):
            haar_states(0, 3, RandomStream(1))

    def test_state_rows_take_arrays_without_a_per_row_conversion(self, monkeypatch):
        rows = fibonacci_states(40)
        calls = []
        asarray = np.asarray
        monkeypatch.setattr(np, "asarray", lambda *a, **k: calls.append(1) or asarray(*a, **k))
        checked = qgames.harness._state_rows(rows, 2)
        assert calls == []
        states = [PureState(r) for r in rows]
        calls.clear()
        assert checked.tobytes() == qgames.harness._state_rows(states, 2).tobytes()
        assert len(calls) == len(rows)

    def test_haar_states_of_nested_substreams_differ(self):
        # substream(1).substream(0) used to be substream(0) again, so these
        # two sets were equal
        a = haar_states(3, 4, RandomStream(9).substream(1))
        b = haar_states(3, 4, RandomStream(9).substream(2))
        assert not any(np.allclose(x, y) for x in a for y in b)


class TestDiscretizedGames:
    def test_entries_match_referee_payoff(self, rng):
        # cross-module consistency: matrix entries equal expected_payoff of
        # the corresponding strategy pair
        povm = build_povm(1, default_directions(1))
        states = [haar_random_state(2, rng.substream(i)) for i in range(6)]
        game = discretize_estimation_game(1, [povm], states)
        for j, psi in enumerate(states):
            direct = expected_payoff(psi.density(), DensityOperator(dense_oracle.respond(povm, psi)))
            assert abs(game.payoff[0, j] - direct) <= 1e-12

    def test_universal_row_is_constant_two_thirds(self):
        game = discretize_estimation_game(1, [universal_povm(1)], icosahedral_states())
        assert np.max(np.abs(game.payoff - 2.0 / 3.0)) <= 1e-10

    def test_flipped_guesses_score_below_value_on_own_axes(self):
        povm = build_povm(1, default_directions(1))
        flipped = Povm(1, povm.vectors, tuple(reversed(povm.guesses)))
        states = [PureState.basis(2, 0), PureState.basis(2, 1)]
        game = discretize_estimation_game(1, [flipped], states)
        assert np.all(game.payoff < 2.0 / 3.0)

    def test_single_entry_game_solves_to_itself(self):
        game = discretize_estimation_game(
            1, [universal_povm(1)], [PureState.basis(2, 0)]
        )
        eq = solve(game)
        assert eq.value == pytest.approx(game.payoff[0, 0])

    def test_cloning_rows(self, rng):
        states = [haar_random_state(2, rng.substream(50 + i)) for i in range(8)]
        game = discretize_cloning_game(
            2, 1, 2,
            [optimal_cloner(2, 1, 2), product_embedding_channel(2, 1, 2)],
            states,
        )
        assert np.max(np.abs(game.payoff[0] - 2.0 / 3.0)) <= 1e-10
        assert np.max(np.abs(game.payoff[1] - 0.5)) <= 1e-10

    def test_rows_and_pure_states_give_one_matrix(self, rng):
        states = [haar_random_state(2, rng.substream(60 + i)) for i in range(5)]
        rows = np.stack([psi.amplitudes for psi in states])
        povms = [universal_povm(2), build_povm(2, default_directions(2))]
        assert np.array_equal(discretize_estimation_game(2, povms, rows).payoff,
                              discretize_estimation_game(2, povms, states).payoff)

    def test_rows_are_refused_by_the_pure_state_rule(self):
        # a state row and a PureState are held to one unit-norm rule, with
        # one message
        row = np.array([0.6, 0.8 + 1e-9])
        with pytest.raises(ValueError) as want:
            PureState(row)
        with pytest.raises(ValueError) as got:
            discretize_estimation_game(1, [universal_povm(1)], row[None])
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match="nan"):
            discretize_cloning_game(2, 1, 2, [optimal_cloner(2, 1, 2)],
                                    np.array([[1.0, 0.0], [np.nan, 0.0]]))

    def test_empty_inputs_rejected(self):
        with pytest.raises(ShapeError):
            discretize_estimation_game(1, [], [PureState.basis(2, 0)])

    def test_estimation_outcome_count_is_capped(self, monkeypatch):
        # 15 outcomes per state row pass a cap of 10; the discretizer used to
        # size its chunks by the outcome count without checking it
        povm = universal_povm(3)
        monkeypatch.setattr(qgames.core, "DEFAULT_SIZE_CAP", 10)
        with pytest.raises(SizeCapExceeded):
            discretize_estimation_game(3, [povm], fibonacci_states(4))
        with pytest.raises(SizeCapExceeded):
            monte_carlo_play(GameSpec("estimation", n=3, samples=10), povm)

    def test_strategy_arity_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="arity"):
            discretize_estimation_game(2, [universal_povm(1)], [PureState.basis(2, 0)])
        with pytest.raises(ShapeError, match="arity"):
            discretize_cloning_game(2, 1, 3, [optimal_cloner(2, 1, 2)], [PureState.basis(2, 0)])

    def test_state_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="dimension 3"):
            discretize_estimation_game(1, [universal_povm(1)], [PureState.basis(3, 0)])
        with pytest.raises(ShapeError, match="dimension 3"):
            discretize_cloning_game(
                2, 1, 2, [optimal_cloner(2, 1, 2)], [PureState.basis(2, 0), PureState.basis(3, 0)]
            )
        # amplitude rows are held to the same shape rule
        with pytest.raises(ShapeError, match="dimension 3"):
            discretize_estimation_game(1, [universal_povm(1)], np.eye(3, dtype=complex))
        with pytest.raises(ShapeError, match=r"shape \(2,\)"):
            discretize_cloning_game(3, 1, 2, [optimal_cloner(3, 1, 2)], np.eye(2))

    def test_cloning_matrix_memory_stays_bounded(self):
        # 2000 columns of 512-amplitude output rows take 16 MiB per array when
        # evaluated all at once; chunks of 256 columns take 2 MiB.  The
        # embedding keeps the full 2^9 output, which the optimal cloner's
        # 10 Sym_out coordinates would not exercise.
        ch = product_embedding_channel(2, 1, 9)
        states = haar_states(2, 2000, RandomStream(8600))
        peak = peak_bytes(lambda: discretize_cloning_game(2, 1, 9, [ch], states))
        assert peak <= 8 * 2**20

    # the matrices are evaluated a chunk of columns at a time; 3-column chunks
    # split the 20 states unevenly
    @pytest.mark.parametrize("chunk_rounds", [256, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_estimation_matrix_matches_pointwise_payoff(self, monkeypatch, n, chunk_rounds):
        povms = estimation_strategies(n)
        width = max(_checked_payoffs("estimation", 2, n, 1, povm)[1] for povm in povms)
        monkeypatch.setattr(qgames.harness, "CHUNK_BYTES", 16 * width * chunk_rounds)
        states = [PureState(row) for row in fibonacci_states(12)]
        states += [haar_random_state(2, RandomStream(8300 + i)) for i in range(8)]
        game = discretize_estimation_game(n, povms, states)
        want = np.array([[pointwise_payoff(povm, psi) for psi in states] for povm in povms])
        assert np.max(np.abs(game.payoff - want)) <= 1e-14

    @pytest.mark.parametrize("chunk_rounds", [256, 3])
    @pytest.mark.parametrize("d, n, m", [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 3), (3, 2, 3)])
    def test_cloning_matrix_matches_global_fidelity(self, monkeypatch, d, n, m, chunk_rounds):
        channels = [
            optimal_cloner(d, n, m),
            product_embedding_channel(d, n, m),
            random_isometry_channel(d, n, m, RandomStream(8400, d * n * m)),
            random_isometry_channel(d, n, m, RandomStream(8401, d * n * m), ancilla_dim=2),
        ]
        width = max(_checked_payoffs("cloning", d, n, m, ch)[1] for ch in channels)
        monkeypatch.setattr(qgames.harness, "CHUNK_BYTES", 16 * width * chunk_rounds)
        states = [haar_random_state(d, RandomStream(8500 + i)) for i in range(20)]
        game = discretize_cloning_game(d, n, m, channels, states)
        want = np.array([[global_fidelity(ch, psi) for psi in states] for ch in channels])
        assert np.max(np.abs(game.payoff - want)) <= 1e-14


def sandwich_players(kind):
    """(spec, player I) of the CLI's restricted games for a qubit game kind."""
    if kind == "estimation":
        return (GameSpec("estimation", n=1, seed=1),
                [universal_povm(1), build_povm(1, default_directions(1))])
    return (GameSpec("cloning", d=2, n=1, m=2, seed=1),
            [optimal_cloner(2, 1, 2), product_embedding_channel(2, 1, 2)])


def spy_sandwich(monkeypatch):
    """Record every discretized game's states and payoff, and every payoff `solve` sees."""
    built, solved = [], []
    for name in ("discretize_estimation_game", "discretize_cloning_game"):
        real = getattr(qgames.harness, name)

        def spy(*args, real=real):
            game = real(*args)
            built.append((args[-1], game.payoff))
            return game

        monkeypatch.setattr(qgames.harness, name, spy)

    def solve_spy(game, tol):
        solved.append(game.payoff)
        return solve(game, tol=tol)

    monkeypatch.setattr(qgames.harness, "solve", solve_spy)
    return built, solved


class TestSandwich:
    def test_estimation_refinement(self):
        spec, player_i = sandwich_players("estimation")
        report = sandwich_report(spec, player_i, fibonacci_states(16), (4, 8, 16))
        assert report.lower_bound_ok and report.monotone_ok and report.converged
        assert report.levels[-1].value == pytest.approx(2.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize("kind", ["estimation", "cloning"])
    def test_levels_are_column_prefixes_of_one_matrix(self, monkeypatch, kind):
        # one discretized game per report, over the first max(sizes) states;
        # each level solves a column prefix of it, which equals the game
        # scored on that many states alone
        spec, player_i = sandwich_players(kind)
        states = fibonacci_states(20)
        discretize = (qgames.harness.discretize_estimation_game if kind == "estimation"
                      else qgames.harness.discretize_cloning_game)
        args = (spec.n, player_i) if kind == "estimation" else (2, 1, 2, player_i)
        own = {s: discretize(*args, states[:s]).payoff for s in (2, 5, 11)}
        built, solved = spy_sandwich(monkeypatch)
        report = sandwich_report(spec, player_i, states, (5, 11, 2))
        ((columns, payoff),) = built
        assert np.array_equal(columns, states[:11])
        assert [lv.n_states for lv in report.levels] == [2, 5, 11]
        assert len(solved) == 3
        for size, matrix in zip((2, 5, 11), solved):
            assert np.array_equal(matrix, payoff[:, :size])
            assert np.array_equal(matrix, own[size])

    @pytest.mark.parametrize("sizes", [(), (0, 8), (-4, 8), (4, 17), (17,)])
    def test_invalid_sizes_raise_before_any_scoring(self, monkeypatch, sizes):
        # (-4, 8) used to give levels of 12 and then 8 states, and a report
        # that passed; () used to raise a bare IndexError
        spec, player_i = sandwich_players("cloning")
        built, solved = spy_sandwich(monkeypatch)
        scored = []
        monkeypatch.setattr(qgames.harness, "_checked_payoffs",
                            lambda *args: scored.append(args))
        with pytest.raises(ValueError, match="sizes"):
            sandwich_report(spec, player_i, fibonacci_states(16), sizes)
        assert built == solved == scored == []

    def test_one_particle_is_refused(self):
        spec = GameSpec("one_particle", d=2, n=1, m=2)
        with pytest.raises(ValueError, match="estimation and cloning"):
            sandwich_report(spec, [optimal_cloner(2, 1, 2)], fibonacci_states(4), (4,))

    def test_cli_games_match_exact_simplex(self):
        # the restricted games behind `qgames sandwich` for both game kinds
        for kind in ("estimation", "cloning"):
            spec, player_i = sandwich_players(kind)
            if kind == "estimation":
                game = discretize_estimation_game(1, player_i, fibonacci_states(16))
            else:
                game = discretize_cloning_game(2, 1, 2, player_i, fibonacci_states(16))
            for size in (4, 8, 16):
                prefix = MatrixGame(game.payoff[:, :size])
                eq = solve(prefix, tol=1e-9)
                assert eq.exploitability <= 1e-9
                assert abs(eq.value - exact_simplex(prefix.payoff)[2]) <= 1e-12

    def test_estimation_single_optimal_povm_against_icosahedron(self):
        spec = GameSpec("estimation", n=1, seed=1)
        report = sandwich_report(spec, [universal_povm(1)], icosahedral_states(), (12,))
        assert report.levels[0].value >= 2.0 / 3.0 - 1e-9
        assert abs(report.levels[0].value - 2.0 / 3.0) <= 1e-9

    def test_cloning_refinement(self, rng):
        spec, player_i = sandwich_players("cloning")
        states = [haar_random_state(2, rng.substream(100 + i)) for i in range(20)]
        report = sandwich_report(spec, player_i, states, (5, 10, 20))
        assert report.passed
        assert report.levels[-1].value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_values_non_increasing_under_refinement(self):
        # a non-universal row makes the coarse values genuinely larger
        spec = GameSpec("estimation", n=1, seed=1)
        player_i = [build_povm(1, default_directions(1))]
        polar = fibonacci_states(16)  # first entries cluster near the pole
        report = sandwich_report(spec, player_i, polar, (2, 4, 16))
        values = [lv.value for lv in report.levels]
        assert values[0] > values[-1]
        assert report.monotone_ok


class TestPerturbations:
    def test_base_against_itself_is_equality(self):
        ch = optimal_cloner(2, 1, 2)
        report = perturb_best_response_check(ch, [ch])
        assert report.passed
        assert report.max_value == pytest.approx(report.base_value)

    def test_cloner_perturbations_never_win(self, rng):
        ch = optimal_cloner(2, 1, 2)
        perts = cloner_perturbations(ch, 60, rng.substream(1))
        report = perturb_best_response_check(ch, perts)
        assert report.passed
        assert report.n_perturbations == 60

    def test_povm_perturbations_never_win(self, rng):
        povm = universal_povm(1)
        perts = povm_perturbations(povm, 60, rng.substream(2))
        report = perturb_best_response_check(povm, perts)
        assert report.passed

    def test_povm_perturbation_kicks_differ(self):
        # the per-guess kicks are consecutive draws from one substream; they
        # once collapsed onto the root's substreams, which gave every even
        # perturbation the same guesses
        perts = povm_perturbations(universal_povm(1), 6, RandomStream(13))
        even = [p.guesses for p in perts[::2]]
        assert not any(np.allclose(even[i], even[j])
                       for i in range(len(even)) for j in range(i + 1, len(even)))

    def test_perturbations_draw_from_one_stream(self):
        # seed scheme v7: perturbation i takes the i-th draws from substream
        # 0, across the old 256-item boundary of seed scheme v5, and 10
        # perturbations are a prefix of 258
        povm = universal_povm(1)
        perts = povm_perturbations(povm, 258, RandomStream(13))
        stream = RandomStream(13).substream(0)
        for i, pert in enumerate(perts):
            if i % 2 == 0:
                want = [haar_random_unitary(2, stream) @ g for g in povm.guesses]
            else:
                want = povm.guesses @ haar_random_unitary(2, stream).T
            assert np.array_equal(pert.guesses, want), i
        prefix = povm_perturbations(povm, 10, RandomStream(13))
        assert all(np.array_equal(a.guesses, b.guesses) for a, b in zip(prefix, perts))

    def test_full_noise_output_scores_inverse_bose_dimension(self):
        ch = optimal_cloner(2, 1, 2)
        noise = symmetric_noise_channel(2, 1, 2)
        report = perturb_best_response_check(ch, [noise])
        assert report.passed
        assert report.max_value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_empty_perturbations_rejected(self):
        with pytest.raises(ValueError):
            perturb_best_response_check(optimal_cloner(2, 1, 2), [])


class TestMonteCarlo:
    def test_estimation_play_matches_value(self):
        spec = GameSpec("estimation", n=1, samples=30_000, seed=42)
        povm = build_povm(1, default_directions(1))
        record = monte_carlo_play(spec, povm)
        assert abs(record.mean_payoff - 2.0 / 3.0) <= 3.0 * record.stderr_payoff
        assert record.pass_rate == pytest.approx((1.0 + record.mean_payoff) / 2.0)

    def test_cloning_play_matches_value(self):
        spec = GameSpec("cloning", d=2, n=1, m=2, samples=30_000, seed=43)
        record = monte_carlo_play(spec, optimal_cloner(2, 1, 2))
        assert abs(record.mean_payoff - 2.0 / 3.0) <= 3.0 * record.stderr_payoff

    def test_one_particle_play_matches_value(self):
        spec = GameSpec("one_particle", d=2, n=1, m=2, samples=30_000, seed=44)
        record = monte_carlo_play(spec, optimal_cloner(2, 1, 2))
        assert abs(record.mean_payoff - 5.0 / 6.0) <= 3.0 * record.stderr_payoff

    def test_identical_seed_identical_record(self):
        spec = GameSpec("cloning", d=2, n=1, m=2, samples=2_000, seed=7)
        a = monte_carlo_play(spec, optimal_cloner(2, 1, 2))
        b = monte_carlo_play(spec, optimal_cloner(2, 1, 2))
        assert a == b

    def test_seed_override(self):
        spec = GameSpec("cloning", d=2, n=1, m=2, samples=500, seed=7)
        a = monte_carlo_play(dataclasses.replace(spec, seed=8), optimal_cloner(2, 1, 2))
        assert a.seed == 8

    @pytest.mark.parametrize("spec, make", [
        # the two mismatches that used to play the strategy's own game
        (GameSpec("cloning", d=3, n=2, m=3, samples=2000, seed=1),
         lambda: optimal_cloner(2, 1, 2)),
        (GameSpec("estimation", n=1, samples=2000, seed=1), lambda: universal_povm(4)),
        (GameSpec("one_particle", d=2, n=1, m=3, samples=10, seed=1),
         lambda: optimal_cloner(2, 1, 2)),
    ])
    def test_strategy_must_match_spec(self, monkeypatch, spec, make):
        strategy = make()

        def no_draws(*args, **kwargs):
            raise AssertionError("drew random numbers before checking the strategy")

        monkeypatch.setattr(qgames.harness, "RandomStream", no_draws)
        with pytest.raises(ShapeError):
            monte_carlo_play(spec, strategy)

    def test_strategy_kind_must_match_spec(self):
        with pytest.raises(TypeError, match="Povm"):
            monte_carlo_play(GameSpec("estimation", n=1, samples=10), optimal_cloner(2, 1, 2))
        # a Povm is a Channel, of arity (2, n, 1): a cloning spec refuses its arity
        with pytest.raises(ShapeError, match="arity"):
            monte_carlo_play(GameSpec("cloning", d=2, n=1, m=2, samples=10), universal_povm(1))

    @pytest.mark.parametrize("kind, d, n, m, make", [
        ("estimation", 2, 4, 1, lambda: universal_povm(4)),
        ("cloning", 2, 1, 2, lambda: optimal_cloner(2, 1, 2)),
        ("one_particle", 3, 1, 3, lambda: optimal_cloner(3, 1, 3)),
    ])
    def test_round_budget_is_checked_before_any_draw(self, monkeypatch, kind, d, n, m, make):
        strategy = make()
        width = _checked_payoffs(kind, d, n, m, strategy)[1]
        calls = refuse_draws(monkeypatch)
        for samples in (10**9, qgames.harness.ROUND_BUDGET // width + 1):
            with pytest.raises(SizeCapExceeded, match="round budget"):
                monte_carlo_play(GameSpec(kind, d=d, n=n, m=m, samples=samples), strategy)
        assert calls == []
        # a play of exactly the budget is allowed
        monkeypatch.undo()
        monkeypatch.setattr(qgames.harness, "ROUND_BUDGET", 300 * width)
        spec = GameSpec(kind, d=d, n=n, m=m, samples=300, seed=2)
        assert monte_carlo_play(spec, strategy).samples == 300
        with pytest.raises(SizeCapExceeded, match="round budget"):
            monte_carlo_play(dataclasses.replace(spec, samples=301), strategy)

    def test_calibration_across_seeds(self):
        # z <= 3 should hold in at least 99% of repetitions; with these fixed
        # seeds the outcome is deterministic and was verified to hold
        spec_template = GameSpec("estimation", n=1, samples=1_500, seed=0)
        povm = build_povm(1, default_directions(1))
        bad = 0
        for seed in range(100):
            record = monte_carlo_play(dataclasses.replace(spec_template, seed=seed), povm)
            z = abs(record.mean_payoff - 2.0 / 3.0) / record.stderr_payoff
            bad += z > 3.0
        assert bad <= 1


def _mc_game(kind, d, n, m, make, label="optimal"):
    return pytest.param(kind, d, n, m, make, id=f"{kind}-{d}-{n}-{m}-{label}")


# (kind, d, n, m, strategy factory) for the oracle comparisons; the optimal
# cloner's clones are interchangeable, so the asymmetric channels are what
# checks that each one-particle round scores the mean over all the clones
MC_GAMES = [
    _mc_game("estimation", 2, 1, 1, lambda: build_povm(1, default_directions(1)), "default"),
    _mc_game("estimation", 2, 4, 1, lambda: build_povm(4, default_directions(4)), "default"),
    _mc_game("estimation", 2, 3, 1, lambda: universal_povm(3), "universal"),
    _mc_game("cloning", 2, 1, 2, lambda: optimal_cloner(2, 1, 2)),
    _mc_game("cloning", 3, 2, 3, lambda: optimal_cloner(3, 2, 3)),
    _mc_game("cloning", 2, 2, 3, lambda: optimal_cloner(2, 2, 3)),
    _mc_game("cloning", 2, 1, 3,
             lambda: random_isometry_channel(2, 1, 3, RandomStream(8), ancilla_dim=3), "random"),
    _mc_game("one_particle", 2, 1, 2, lambda: optimal_cloner(2, 1, 2)),
    _mc_game("one_particle", 3, 1, 3, lambda: optimal_cloner(3, 1, 3)),
    _mc_game("one_particle", 2, 2, 3, lambda: optimal_cloner(2, 2, 3)),
    _mc_game("one_particle", 2, 1, 3, lambda: product_embedding_channel(2, 1, 3), "product"),
    _mc_game("one_particle", 3, 1, 3,
             lambda: random_isometry_channel(3, 1, 3, RandomStream(9), ancilla_dim=2), "random"),
]
# one round, the counts around the first two draw-chunk edges of seed scheme
# v5 (256 rounds each), and 1000 rounds
MC_SAMPLE_COUNTS = (1, 255, 256, 257, 513, 1000)


class TestMonteCarloOracle:
    """The batched rounds against round-by-round play (`tests/mc_oracle.py`)."""

    @pytest.mark.parametrize("seed", [5, 21])
    @pytest.mark.parametrize("kind, d, n, m, make", MC_GAMES)
    def test_records_equal_round_by_round_play(self, kind, d, n, m, make, seed):
        strategy = make()
        outcomes = oracle_outcomes(kind, strategy, max(MC_SAMPLE_COUNTS), seed)
        for samples in MC_SAMPLE_COUNTS:
            spec = GameSpec(kind, d=d, n=n, m=m, samples=samples, seed=seed)
            assert monte_carlo_play(spec, strategy) == oracle_record(
                kind, outcomes[:samples], seed
            )

    # CHUNK_BYTES = 1000 gives chunks of 1 to 31 rounds across these games (one
    # round at the 60- and 36-entry widths of (3,2,3) and (3,1,3)); 16 bytes
    # per row entry times 1, 7, 300 or 1024 rows give chunks of that many
    # rounds, and 3001 rounds with MEMORY_ROUNDS raised to match score the
    # longest play in one chunk.  Each chunk draws its rounds with one call per
    # stream, so a chunk of one round draws one state and one uniform alone.
    @pytest.mark.parametrize("rounds, value", [
        (1, None), (7, None), (None, 1000), (300, None), (1024, None), (3001, None),
    ])
    @pytest.mark.parametrize("kind, d, n, m, make", MC_GAMES)
    def test_records_do_not_depend_on_chunk_size(self, monkeypatch, kind, d, n, m, make,
                                                 rounds, value):
        strategy = make()
        specs = [GameSpec(kind, d=d, n=n, m=m, samples=s, seed=21)
                 for s in (1, 20, 257, 1000, 3001)]
        expected = [monte_carlo_play(spec, strategy) for spec in specs]
        if rounds is not None:
            value = 16 * _checked_payoffs(kind, d, n, m, strategy)[1] * rounds
            monkeypatch.setattr(qgames.harness, "MEMORY_ROUNDS",
                                max(rounds, qgames.harness.MEMORY_ROUNDS))
        monkeypatch.setattr(qgames.harness, "CHUNK_BYTES", value)
        assert [monte_carlo_play(spec, strategy) for spec in specs] == expected

    # Chunked play peaks near 1 MiB whatever the round count.  Batched all at
    # once, 20 000 rounds take about 48 MiB (cloning) and 27 MiB (one-particle)
    # of tensor powers.  The (2, 1, 7) product embedding has 64 Kraus
    # operators and 128-dimensional full outputs, so a chunk holding every
    # Kraus branch of its 256 rounds at once would take 32 MB for that array
    # alone.  200 000 rounds of (2, 1, 2) cloning peak near 0.5 MiB, but a
    # play that kept every draw would hold 6.4 MB of complex normals and
    # 1.6 MB of uniforms.
    @pytest.mark.parametrize("kind, d, n, m, samples, make, mib", [
        ("cloning", 3, 2, 3, 20_000, optimal_cloner, 16),
        ("one_particle", 3, 1, 3, 20_000, optimal_cloner, 16),
        ("cloning", 2, 1, 7, 512, product_embedding_channel, 16),
        ("one_particle", 2, 1, 7, 512, product_embedding_channel, 16),
        ("cloning", 2, 1, 2, 200_000, optimal_cloner, 4),
    ])
    def test_memory_stays_bounded(self, kind, d, n, m, samples, make, mib):
        strategy = make(d, n, m)
        spec = GameSpec(kind, d=d, n=n, m=m, samples=samples, seed=3)
        peak = peak_bytes(lambda: monte_carlo_play(spec, strategy))
        assert peak <= mib * 2**20

    # slices of at most MEMORY_ROUNDS = 1024 rounds, drawn from the play's two
    # streams
    @pytest.mark.parametrize("samples, tail", [
        (600, "600 rounds in 1 slices of <= 1024; "
              "seed scheme v6, one state and one coin stream"),
        (3001, "3001 rounds in 3 slices of <= 1024; "
               "seed scheme v6, one state and one coin stream"),
    ])
    def test_logs_one_record_per_call(self, caplog, samples, tail):
        spec = GameSpec("cloning", d=3, n=2, m=3, samples=samples, seed=1)
        with caplog.at_level(logging.DEBUG, logger="qgames"):
            monte_carlo_play(spec, optimal_cloner(3, 2, 3))
        (record,) = [r for r in caplog.records if r.name == "qgames.harness"]
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert "cloning d=3 n=2 m=3" in message
        assert message.endswith(tail)

    @pytest.mark.parametrize("kind, make, width", [
        ("cloning", product_embedding_channel, 60),
        ("cloning", optimal_cloner, 60),
        ("one_particle", product_embedding_channel, 18),
        ("one_particle", optimal_cloner, 18),
    ])
    @pytest.mark.parametrize("rounds, slices", [(100, 6), (300, 2)])
    def test_wide_outputs_shorten_chunks(self, monkeypatch, caplog, kind, make, width,
                                         rounds, slices):
        # A round's widest array is its Choi-row product: 6 Sym_in x 10 Sym_out
        # entries per row for the whole output, 6 Sym_in x 3 clone entries
        # per row for a clone picked at random (18 rows of them, for Sym_out
        # and full outputs alike).  CHUNK_BYTES fits 100 or 300 rounds of
        # them, fewer than MEMORY_ROUNDS, so the 600 rounds are drawn and
        # scored in 6 slices of 100 or 2 of 300.
        monkeypatch.setattr(qgames.harness, "CHUNK_BYTES", 16 * width * rounds)
        spec = GameSpec(kind, d=3, n=2, m=3, samples=600, seed=1)
        with caplog.at_level(logging.DEBUG, logger="qgames.harness"):
            monte_carlo_play(spec, make(3, 2, 3))
        message = caplog.records[-1].getMessage()
        assert f"600 rounds in {slices} slices of <= {rounds};" in message

    @pytest.mark.parametrize("kind, d, n, m, make", MC_GAMES)
    def test_shorter_play_is_a_prefix(self, monkeypatch, kind, d, n, m, make):
        # seed scheme v6: round i depends on (seed, kind, i) alone, so 300 rounds
        # replay the first 300 outcomes of 600; the spy keeps the harness's own
        # per-round outcomes, which the records only sum
        strategy = make()
        chunks = []
        real = qgames.harness.referee_outcomes

        def spy(overlaps, uniforms):
            chunks.append(real(overlaps, uniforms))
            return chunks[-1]

        monkeypatch.setattr(qgames.harness, "referee_outcomes", spy)
        outcomes = []
        for samples in (300, 600):
            chunks.clear()
            monte_carlo_play(GameSpec(kind, d=d, n=n, m=m, samples=samples, seed=17), strategy)
            outcomes.append(np.concatenate(chunks))
        assert len(outcomes[0]) == 300 and len(outcomes[1]) == 600
        assert np.array_equal(outcomes[0], outcomes[1][:300])

    @pytest.mark.parametrize("rounds", [1, 7, 300, 1024])
    @pytest.mark.parametrize("kind, d, n, m, make", MC_GAMES)
    def test_outcomes_do_not_depend_on_slice_length(self, monkeypatch, kind, d, n, m, make,
                                                   rounds):
        # seed scheme v6: each slice reads its rounds from the play's two
        # streams in order, and consecutive draws compose bit for bit, so a
        # play in slices of 1, 7, 300 or 1024 rounds (CHUNK_BYTES cut to fit
        # that many rows of the strategy's width) hands the referee the same
        # uniforms and scores the same outcomes, round by round, as one in
        # slices of MEMORY_ROUNDS
        strategy = make()
        spec = GameSpec(kind, d=d, n=n, m=m, samples=2100, seed=13)
        width = _checked_payoffs(kind, d, n, m, strategy)[1]
        slices = []
        real = qgames.harness.referee_outcomes

        def spy(overlaps, uniforms):
            slices.append((uniforms, real(overlaps, uniforms)))
            return slices[-1][1]

        monkeypatch.setattr(qgames.harness, "referee_outcomes", spy)
        expected = monte_carlo_play(spec, strategy)
        whole = slices[:]
        slices.clear()
        monkeypatch.setattr(qgames.harness, "CHUNK_BYTES", 16 * width * rounds)
        assert monte_carlo_play(spec, strategy) == expected
        assert [len(u) for u, _ in slices] == [min(rounds, 2100 - start)
                                               for start in range(0, 2100, rounds)]
        for part in (0, 1):
            assert np.array_equal(np.concatenate([s[part] for s in slices]),
                                  np.concatenate([s[part] for s in whole]))

    @pytest.mark.parametrize("kind, d, n, m, make", MC_GAMES)
    def test_rounds_draw_only_states_and_referee_uniforms(self, monkeypatch, kind, d, n, m,
                                                           make):
        # seed scheme v6: each slice draws its rounds' Haar states as (real,
        # imaginary) pairs of normals from the path (k, 0), k the index of the
        # game kind, then as many referee uniforms from the path (k, 1), and
        # nothing else; the estimation outcome and the referee's choice of
        # clone are integrated out.  CHUNK_BYTES is cut to slices of 256
        # rounds, so 600 rounds take three slices.
        strategy = make()
        k = GAME_KINDS.index(kind)
        width = _checked_payoffs(kind, d, n, m, strategy)[1]
        monkeypatch.setattr(qgames.harness, "CHUNK_BYTES", 16 * width * 256)
        calls = spy_stream_draws(monkeypatch)
        monte_carlo_play(GameSpec(kind, d=d, n=n, m=m, samples=600, seed=5), strategy)
        assert calls == [call for b in (256, 256, 88)
                         for call in (("standard_normal", (k, 0), ((b, d, 2),)),
                                      ("random", (k, 1), (b,)))]

    @pytest.mark.parametrize("kind, d, n, m, make", MC_GAMES)
    def test_two_streams_per_play(self, monkeypatch, kind, d, n, m, make):
        # the state stream (k, 0) and the coin stream (k, 1), whatever the
        # round count
        strategy = make()
        k = GAME_KINDS.index(kind)
        streams = []
        real = RandomStream.__init__

        def spy(self, *args, **kwargs):
            real(self, *args, **kwargs)
            streams.append(self.path)

        monkeypatch.setattr(RandomStream, "__init__", spy)
        for samples in (1, 256, 600, 2000):
            streams.clear()
            monte_carlo_play(GameSpec(kind, d=d, n=n, m=m, samples=samples, seed=5), strategy)
            assert streams == [(k, 0), (k, 1)]


class TestAsymBoundScan:
    def test_grid_passes_through_optimal(self):
        # each grid stack scored as its own Channel, through the public API
        t = np.linspace(0.0, 1.0, 21)
        stacks = _asymmetry_grid_kraus(optimal_cloner(2, 1, 2), t)
        sums = {}
        for x, kraus in zip(t.tolist(), stacks):
            ch = Channel(2, 1, 2, kraus)
            sums[x] = sum(single_clone_haar_fidelity(ch, k) for k in (1, 2))
        assert sums[0.0] == pytest.approx(1.5, abs=1e-12)
        assert sums[1.0] == pytest.approx(1.5, abs=1e-12)
        assert sums[0.5] == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_scan_respects_bound(self):
        report = asym_bound_scan(2, 1, 2, n_random=150, grid_points=21, seed=5)
        assert report.passed
        assert report.bound == pytest.approx(5.0 / 3.0)
        assert report.max_sum_fidelity <= report.bound + 1e-9
        assert report.argmax == "optimal-cloner"
        optimal = [r for r in report.records if r.kind == "optimal"][0]
        assert abs(optimal.sum_fidelity - 5.0 / 3.0) <= 1e-10

    def test_scan_other_arities_skip_grid(self):
        report = asym_bound_scan(2, 2, 3, n_random=10, grid_points=21, seed=6)
        assert all(r.kind != "grid" for r in report.records)
        assert report.passed

    def test_lossy_stack_refused_by_the_batched_check(self):
        # the scan checks each chunk of random Kraus stacks with
        # `_checked_defects` before scoring it; one lossy channel refuses them all
        kraus = _random_isometry_kraus(2, 1, 2, RandomStream(3), 4)
        _checked_defects(kraus)
        kraus[2] *= 0.7
        with pytest.raises(ValueError, match="trace preserving"):
            _checked_defects(kraus)

    def test_one_scoring_path(self, monkeypatch):
        # the optimal cloner is the one Channel built; the random channels
        # (memory chunks of 256, 256 and 88) and the 21 grid channels (one
        # memory chunk) are checked as whole Kraus stacks
        built, checked = [], []
        real_init, real_check = Channel.__init__, qgames.harness._checked_defects

        def spy_init(self, d, n_in, n_out, kraus):
            built.append((d, n_in, n_out))
            real_init(self, d, n_in, n_out, kraus)

        def spy_check(kraus):
            checked.append(kraus.shape)
            real_check(kraus)

        monkeypatch.setattr(Channel, "__init__", spy_init)
        monkeypatch.setattr(qgames.harness, "_checked_defects", spy_check)
        report = asym_bound_scan(2, 1, 2, 600, 21, seed=9)
        assert report.passed
        assert built == [(2, 1, 2)]
        assert checked == [(256, 4, 4, 2), (256, 4, 4, 2), (88, 4, 4, 2), (21, 4, 4, 2)]

    # 12-digit values: the optimal, grid and random-0 values were taken before
    # the grid and the optimal cloner were scored as Kraus stacks; random-256
    # and random-599 (seed scheme v7) come from the per-channel route of
    # `_per_channel_records`, consecutive `random_isometry_channel` calls on
    # substream 0.  The grid is scanned for 1 -> 2 only
    @pytest.mark.parametrize("d, n, m, pins", [
        (2, 1, 2, {"optimal-cloner": "1.666666666667", "random-0": "1.078356781930",
                   "random-256": "1.086010730169", "random-599": "0.904316284926",
                   "grid-t=0.250000": "1.583333333333", "grid-t=0.750000": "1.583333333333"}),
        (3, 1, 2, {"optimal-cloner": "1.500000000000", "random-0": "0.704282238518",
                   "random-256": "0.690378963750", "random-599": "0.659939127595",
                   "grid-t=0.250000": "1.416666666667", "grid-t=0.750000": "1.416666666667"}),
        (2, 1, 3, {"optimal-cloner": "2.333333333333", "random-0": "1.464286916430",
                   "random-256": "1.431461953270", "random-599": "1.475817237232"}),
    ])
    def test_records_are_pinned(self, d, n, m, pins):
        report = asym_bound_scan(d, n, m, 600, 21, seed=5)
        got = {r.label: f"{r.sum_fidelity:.12f}" for r in report.records}
        assert {label: got[label] for label in pins} == pins

    @pytest.mark.parametrize("d, n, m, digest", [
        (2, 1, 2, "826187e3cab3fe4c0f90bdb3e5669d429f95a487dd393d20b3e2d0db1c36d8ee"),
        (3, 1, 2, "dd57d639752a4296382924bc0801871d2c756b0d896c2b95434acce20c7aa2dd"),
        (2, 1, 3, "bc6e3a1ae006add49541cd3d83a10987dba6a56a9661e536c1b7fb1b3d9a63ba"),
        (2, 2, 3, "70dc0a483a6e3d8cab9daaf6dc958086182a85a6badbb2826becba0394b49e98"),
    ])
    def test_records_rebuilt_from_the_arrays_are_pinned(self, d, n, m, digest):
        # SHA-256 of repr(report.records), every float in full, taken while
        # the scan built one ScanRecord per channel with sum(row) as its sum
        report = asym_bound_scan(d, n, m, 300, seed=5)
        records = report.records
        assert hashlib.sha256(repr(records).encode()).hexdigest() == digest
        assert all(type(r) is ScanRecord and r.sum_fidelity == sum(r.fidelities)
                   for r in records)
        best = max(records, key=lambda r: r.sum_fidelity)
        assert (report.argmax, report.max_sum_fidelity) == (best.label, best.sum_fidelity)

    def test_argmax_is_the_first_largest_sum(self):
        # ties go to the first record, as max() picks them: the grid's t = 1/2
        # point scores the optimal cloner's sum up to rounding, and record 0
        # is the optimal cloner itself
        report = asym_bound_scan(2, 1, 2, 0, grid_points=3, seed=1)
        sums = [r.sum_fidelity for r in report.records]
        assert report.argmax == report.records[sums.index(max(sums))].label

    def test_deterministic_given_seed(self):
        a = asym_bound_scan(2, 1, 2, n_random=5, grid_points=5, seed=11)
        b = asym_bound_scan(2, 1, 2, n_random=5, grid_points=5, seed=11)
        assert a == b

    @pytest.mark.parametrize("args, message", [
        ((2, 1, 2, 7, 5, 3, None),
         "d=2 n_in=1 n_out=2: 7 random channels (4 Kraus operators), 5 grid channels, "
         "Choi side 8"),
        ((2, 2, 3, 4, 21, 3, 3),
         "d=2 n_in=2 n_out=3: 4 random channels (3 Kraus operators), 0 grid channels, "
         "Choi side 24"),
    ])
    def test_logs_one_record_per_call(self, caplog, args, message):
        with caplog.at_level(logging.DEBUG, logger="qgames"):
            asym_bound_scan(*args)
        (record,) = [r for r in caplog.records if r.name == "qgames.harness"]
        assert record.levelno == logging.DEBUG
        assert message in record.getMessage()

    @settings(deadline=None, derandomize=True)
    @given(st.sampled_from([2, 3]), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_random_isometry_channels_respect_the_ceiling(self, d, a, b, seed):
        n, m = min(a, b), max(a, b)
        ch = random_isometry_channel(d, n, m, RandomStream(seed))
        assert dense_oracle.completeness_defect(ch) <= 1e-10
        fids = [single_clone_haar_fidelity(ch, k) for k in range(1, m + 1)]
        assert sum(fids) <= value_formulas(d, n, m).asym_bound + 1e-9

    @settings(deadline=None, derandomize=True)
    @given(st.sampled_from(["optimal", "product", "mirror", "noise", "mixture", "conjugated"]),
           st.sampled_from([2, 3]), st.integers(1, 3), st.integers(1, 3),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_channel_families_respect_the_closed_forms(self, kind, d, a, b, weight, seed):
        n, m = min(a, b), max(a, b)
        rng = RandomStream(seed)
        if kind == "optimal":
            ch = optimal_cloner(d, n, m)
        elif kind == "product":
            ch = product_embedding_channel(d, n, m)
        elif kind == "mirror":
            ch = mirror_embedding_channel(d, n, m)
        elif kind == "noise":
            ch = symmetric_noise_channel(d, n, m)
        elif kind == "mixture":  # a Sym_out side mixed with a full-output side
            ch = mixture_channel(optimal_cloner(d, n, m), mirror_embedding_channel(d, n, m),
                                 weight)
        else:
            ch = conjugate_output(optimal_cloner(d, n, m), haar_random_unitary(d**m, rng))
        values = value_formulas(d, n, m)
        assert dense_oracle.completeness_defect(ch) <= 1e-10
        assert haar_avg_global_fidelity(ch) <= values.global_value + 1e-12
        fids = [single_clone_haar_fidelity(ch, k) for k in range(1, m + 1)]
        assert sum(fids) <= values.asym_bound + 1e-9

    def test_oversized_ginibre_draw_fails_before_drawing(self, monkeypatch):
        # d^m * ancilla = 128 * 128: 2^28 complex normals (4.3 GB) if drawn
        calls = refuse_draws(monkeypatch)
        with pytest.raises(SizeCapExceeded):
            asym_bound_scan(2, 1, 7, n_random=1, seed=1)
        with pytest.raises(SizeCapExceeded):
            random_isometry_channel(2, 1, 7, RandomStream(1))
        with pytest.raises(SizeCapExceeded):
            random_isometry_channel(2, 1, 2, RandomStream(1), ancilla_dim=1025)
        # an 8192-side unitary (2^26 normals, 1 GB) and a 2^20-side one
        with pytest.raises(SizeCapExceeded):
            cloner_perturbations(optimal_cloner(2, 6, 13), 1, RandomStream(1))
        with pytest.raises(SizeCapExceeded):
            haar_random_unitary(2**20, RandomStream(1))
        assert calls == []

    @pytest.mark.parametrize("chunk, sizes", [
        # memory chunks of at most 256 or 100 channels; the third chunk of 100
        # crosses the old 256-channel boundary of seed scheme v3
        (None, [256, 256, 88]),
        (100, [100] * 6),
    ])
    @pytest.mark.parametrize("d, n, m, ancilla_dim", [(2, 1, 2, None), (3, 1, 2, None),
                                                      (2, 2, 3, 3), (2, 1, 3, 1)])
    def test_random_channels_draw_only_kept_columns(self, monkeypatch, d, n, m, ancilla_dim,
                                                    chunk, sizes):
        # seed scheme v7: all channels draw from one substream, one draw of
        # k * 2 * D * d^n_in normals per memory chunk of k channels,
        # D = d^m * ancilla, not the D^2 of a whole Ginibre matrix
        anc = d**m if ancilla_dim is None else ancilla_dim
        side = d**m * anc
        if chunk is not None:
            monkeypatch.setattr(qgames.harness, "CHUNK_BYTES", 16 * side * d**n * chunk)
        streams = []
        real = RandomStream.__init__

        def count_streams(self, *args, **kwargs):
            streams.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(RandomStream, "__init__", count_streams)
        calls = spy_normal_draws(monkeypatch)
        report = asym_bound_scan(d, n, m, n_random=600, grid_points=0, seed=4,
                                 ancilla_dim=ancilla_dim)
        assert report.passed
        assert len(streams) == 2  # the root, then its substream 0
        assert calls == [((0,), (k, 2, side, d**n)) for k in sizes]

    @pytest.mark.parametrize("ancilla_dim", [-1, 0])
    def test_empty_ancilla_fails_before_drawing(self, monkeypatch, ancilla_dim):
        calls = refuse_draws(monkeypatch)
        with pytest.raises(InvalidArity):
            random_isometry_channel(2, 1, 2, RandomStream(1), ancilla_dim=ancilla_dim)
        assert calls == []


# ---------------------------------------------------------------------------
# the batched scan against the per-channel route

ORACLE_SEED = 27
#: One channel past 256, where seed scheme v3 opened its second substream.
ORACLE_COUNT = 257


@functools.lru_cache(maxsize=None)
def _per_channel_records(d, n, m, ancilla_dim):
    """Oracle: the scan's first ORACLE_COUNT random records, one channel at a time.

    Channel i is the i-th consecutive `random_isometry_channel` call on
    substream 0 of the seed (seed scheme v7), checked with
    `dense_oracle.completeness_defect` and scored with one
    `single_clone_haar_fidelity` per clone: the per-channel route through the
    public API.
    """
    stream = RandomStream(ORACLE_SEED).substream(0)
    records = []
    for i in range(ORACLE_COUNT):
        ch = random_isometry_channel(d, n, m, stream, ancilla_dim)
        assert dense_oracle.completeness_defect(ch) <= 1e-8
        fids = tuple(single_clone_haar_fidelity(ch, k) for k in range(1, m + 1))
        records.append((f"random-{i}", fids, sum(fids)))
    return records


class TestBatchedScan:
    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("ancilla_dim", [None, 1, 3])
    @pytest.mark.parametrize("d, n, m", [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 3)])
    def test_matches_the_per_channel_oracle(self, monkeypatch, d, n, m, ancilla_dim, chunk):
        # chunk=None keeps CHUNK_BYTES (256 channels per chunk at these
        # arities); 7 shows the records do not depend on the chunk length,
        # and splits the 21 grid channels into memory chunks of 1 to 10
        grid = asym_bound_scan(d, n, m, 0, seed=ORACLE_SEED).records[1:]
        if chunk is not None:
            width = d**m * (d**m if ancilla_dim is None else ancilla_dim) * d**n
            monkeypatch.setattr(qgames.harness, "CHUNK_BYTES", 16 * width * chunk)
        want = _per_channel_records(d, n, m, ancilla_dim)
        n_grid = 21 if (n, m) == (1, 2) else 0
        for n_random in (1, 255, 256, 257):
            report = asym_bound_scan(d, n, m, n_random, seed=ORACLE_SEED, ancilla_dim=ancilla_dim)
            assert [r.kind for r in report.records] == (
                ["optimal"] + ["random"] * n_random + ["grid"] * n_grid)
            assert report.records[1 + n_random:] == grid
            got = report.records[1:1 + n_random]
            assert [r.label for r in got] == [label for label, _, _ in want[:n_random]]
            worst = max(
                abs(a - b)
                for r, (_, fids, total) in zip(got, want)
                for a, b in zip(r.fidelities + (r.sum_fidelity,), fids + (total,))
            )
            assert worst <= 1e-13

    def test_memory_is_bounded_by_the_chunks(self):
        # about 0.4 MiB one channel at a time; 22.6 MiB for one unchunked
        # batch of all 1000 channels
        peak = peak_bytes(lambda: asym_bound_scan(3, 1, 2, 1000, seed=1))
        assert peak <= 8 * 2**20

    def test_non_finite_channel_refuses_the_scan(self, monkeypatch):
        # channel 5 of the first chunk gets a NaN draw, which is refused before
        # the QR, so no warning escapes; the other channels of its chunk are
        # fine
        def poison(path, draws):
            if path == (0,):
                draws[5, 0, 1, 1] = np.nan

        calls = spy_normal_draws(monkeypatch, poison)
        report = None
        with pytest.raises(ValueError, match="non-finite"):
            report = asym_bound_scan(2, 1, 2, 20, seed=3)
        assert report is None
        assert calls == [((0,), (20, 2, 16, 2))]

    @pytest.mark.parametrize("n_random, grid_points", [(-5, -3), (-1, 21), (3, -1)])
    def test_negative_counts_fail_before_drawing(self, monkeypatch, n_random, grid_points):
        # (-5, -3) used to pass over the optimal cloner alone
        calls = refuse_draws(monkeypatch)
        with pytest.raises(ValueError, match="need n_random >= 0 and grid_points >= 0"):
            asym_bound_scan(2, 1, 2, n_random, grid_points=grid_points)
        assert calls == []

    @pytest.mark.parametrize("n_random, chunk, tail", [
        (1000, None, "; 4 chunks of <= 256 channels; seed scheme v7, one stream"),
        # memory chunks of 100, 100 and 57 channels, one across channel 256
        (257, 100, "; 3 chunks of <= 100 channels; seed scheme v7, one stream"),
        (0, None, "; 0 chunks of <= 256 channels; seed scheme v7, one stream"),
    ])
    def test_log_reports_the_chunks(self, monkeypatch, caplog, n_random, chunk, tail):
        if chunk is not None:  # (2, 1, 2): 4 x 2 Ginibre entries per channel
            monkeypatch.setattr(qgames.harness, "CHUNK_BYTES", 16 * 8 * chunk)
        with caplog.at_level(logging.DEBUG, logger="qgames.harness"):
            asym_bound_scan(2, 1, 2, n_random, grid_points=0, seed=2, ancilla_dim=1)
        (record,) = [r for r in caplog.records if r.name == "qgames.harness"]
        assert record.getMessage().endswith(tail)

import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qgames.harness

from qgames.cloning import (
    conjugate_output,
    global_fidelity,
    haar_avg_global_fidelity,
    haar_random_unitary,
    mirror_embedding_channel,
    mixture_channel,
    optimal_cloner,
    product_embedding_channel,
    random_isometry_channel,
    single_clone_haar_fidelity,
    symmetric_noise_channel,
    value_formulas,
)
from qgames.core import PureState, RandomStream, ShapeError, SizeCapExceeded, haar_random_state
from qgames.estimation import (
    Povm,
    build_povm,
    default_directions,
    pointwise_payoff,
    respond,
    universal_povm,
)
from qgames.harness import (
    GameSpec,
    asym_bound_scan,
    asymmetry_grid_channels,
    cloner_perturbations,
    default_state_sets,
    discretize_cloning_game,
    discretize_estimation_game,
    fibonacci_states,
    haar_states,
    icosahedral_states,
    monte_carlo_play,
    nested_state_sets,
    perturb_best_response_check,
    povm_perturbations,
    sandwich_report,
)
from qgames.swap_test import expected_payoff
from qgames.zerosum import solve

from exact_simplex import exact_simplex
from mc_oracle import oracle_outcomes, oracle_record
from test_dense_oracle import estimation_strategies


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
            states[i].overlap_probability(states[j])
            for i in range(12)
            for j in range(i + 1, 12)
        ]
        assert max(overlaps) < 1.0 - 1e-6

    def test_icosahedron_is_a_two_design(self):
        # average of |<a|b>|^4 over a projective 2-design equals 1/3
        states = icosahedral_states()
        probe = PureState(np.array([0.8, 0.6j]))
        mean = np.mean([probe.overlap_probability(s) ** 2 for s in states])
        assert mean == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_nested_sets_are_prefixes(self):
        sets = nested_state_sets(fibonacci_states(16), (4, 8, 16))
        assert [len(s) for s in sets] == [4, 8, 16]
        assert sets[0] == sets[1][:4]

    def test_haar_sets_need_stream(self):
        with pytest.raises(ValueError):
            default_state_sets(3, (4, 8))


class TestDiscretizedGames:
    def test_entries_match_referee_payoff(self, rng):
        # cross-module consistency: matrix entries equal expected_payoff of
        # the corresponding strategy pair
        povm = build_povm(1, default_directions(1))
        states = [haar_random_state(2, rng.substream(i)) for i in range(6)]
        game = discretize_estimation_game(1, [povm], states)
        for j, psi in enumerate(states):
            direct = expected_payoff(psi.density(), respond(povm, psi))
            assert abs(game.payoff[0, j] - direct) <= 1e-12

    def test_universal_row_is_constant_two_thirds(self):
        game = discretize_estimation_game(1, [universal_povm(1)], icosahedral_states())
        assert np.max(np.abs(game.payoff - 2.0 / 3.0)) <= 1e-10

    def test_flipped_guesses_score_below_value_on_own_axes(self):
        povm = build_povm(1, default_directions(1))
        flipped = Povm(1, povm.effects, tuple(reversed(povm.guesses)))
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

    def test_empty_inputs_rejected(self):
        with pytest.raises(ShapeError):
            discretize_estimation_game(1, [], [PureState.basis(2, 0)])

    def test_strategy_arity_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="copy count"):
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

    def test_cloning_matrix_memory_stays_bounded(self):
        # 2000 columns of 512-amplitude output rows take 16 MiB per array when
        # evaluated all at once; chunks of 256 columns take 2 MiB.  The
        # embedding keeps the full 2^9 output, which the optimal cloner's
        # 10 Sym_out coordinates would not exercise.
        ch = product_embedding_channel(2, 1, 9)
        states = haar_states(2, 2000, RandomStream(8600))
        tracemalloc.start()
        try:
            discretize_cloning_game(2, 1, 9, [ch], states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    # the matrices are evaluated a chunk of columns at a time; 3-column chunks
    # split the 20 states unevenly
    @pytest.mark.parametrize("chunk_rounds", [256, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_estimation_matrix_matches_pointwise_payoff(self, monkeypatch, n, chunk_rounds):
        monkeypatch.setattr(qgames.harness, "CHUNK_ROUNDS", chunk_rounds)
        povms = [povm for povm, _ in estimation_strategies(n)]
        states = fibonacci_states(12) + [haar_random_state(2, RandomStream(8300 + i))
                                         for i in range(8)]
        game = discretize_estimation_game(n, povms, states)
        want = np.array([[pointwise_payoff(povm, psi) for psi in states] for povm in povms])
        assert np.max(np.abs(game.payoff - want)) <= 1e-14

    @pytest.mark.parametrize("chunk_rounds", [256, 3])
    @pytest.mark.parametrize("d, n, m", [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 3), (3, 2, 3)])
    def test_cloning_matrix_matches_global_fidelity(self, monkeypatch, d, n, m, chunk_rounds):
        monkeypatch.setattr(qgames.harness, "CHUNK_ROUNDS", chunk_rounds)
        channels = [
            optimal_cloner(d, n, m),
            product_embedding_channel(d, n, m),
            random_isometry_channel(d, n, m, RandomStream(8400, d * n * m)),
            random_isometry_channel(d, n, m, RandomStream(8401, d * n * m), ancilla_dim=2),
        ]
        states = [haar_random_state(d, RandomStream(8500 + i)) for i in range(20)]
        game = discretize_cloning_game(d, n, m, channels, states)
        want = np.array([[global_fidelity(ch, psi) for psi in states] for ch in channels])
        assert np.max(np.abs(game.payoff - want)) <= 1e-14


class TestSandwich:
    def test_estimation_refinement(self):
        spec = GameSpec("estimation", n=1, seed=1)
        player_i = [universal_povm(1), build_povm(1, default_directions(1))]
        sets = default_state_sets(2, (4, 8, 16))
        report = sandwich_report(spec, player_i, sets, tol=1e-9)
        assert report.lower_bound_ok and report.monotone_ok and report.converged
        assert report.levels[-1].value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_cli_games_match_exact_simplex(self):
        # the restricted games behind `qgames sandwich` for both game kinds
        sizes = (4, 8, 16)
        games = [
            discretize_estimation_game(
                1, [universal_povm(1), build_povm(1, default_directions(1))], states
            )
            for states in default_state_sets(2, sizes)
        ]
        games += [
            discretize_cloning_game(
                2, 1, 2, [optimal_cloner(2, 1, 2), product_embedding_channel(2, 1, 2)], states
            )
            for states in default_state_sets(2, sizes)
        ]
        for game in games:
            eq = solve(game, tol=1e-9)
            assert eq.exploitability <= 1e-9
            assert abs(eq.value - exact_simplex(game.payoff)[2]) <= 1e-12

    def test_estimation_single_optimal_povm_against_icosahedron(self):
        spec = GameSpec("estimation", n=1, seed=1)
        report = sandwich_report(
            spec, [universal_povm(1)], [icosahedral_states()], tol=1e-9
        )
        assert report.levels[0].value >= 2.0 / 3.0 - 1e-9
        assert abs(report.levels[0].value - 2.0 / 3.0) <= 1e-9

    def test_cloning_refinement(self, rng):
        spec = GameSpec("cloning", d=2, n=1, m=2, seed=1)
        player_i = [optimal_cloner(2, 1, 2), product_embedding_channel(2, 1, 2)]
        states = [haar_random_state(2, rng.substream(100 + i)) for i in range(20)]
        report = sandwich_report(spec, player_i, nested_state_sets(states, (5, 10, 20)))
        assert report.passed
        assert report.levels[-1].value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_values_non_increasing_under_refinement(self):
        # a non-universal row makes the coarse values genuinely larger
        spec = GameSpec("estimation", n=1, seed=1)
        player_i = [build_povm(1, default_directions(1))]
        polar = fibonacci_states(16)  # first entries cluster near the pole
        report = sandwich_report(spec, player_i, nested_state_sets(polar, (2, 4, 16)), tol=1e-9)
        values = [lv.value for lv in report.levels]
        assert values[0] > values[-1]
        assert report.monotone_ok


class TestPerturbations:
    def test_base_against_itself_is_equality(self):
        ch = optimal_cloner(2, 1, 2)
        report = perturb_best_response_check(ch, [ch], tol=1e-9)
        assert report.passed
        assert report.max_value == pytest.approx(report.base_value)

    def test_cloner_perturbations_never_win(self, rng):
        ch = optimal_cloner(2, 1, 2)
        perts = cloner_perturbations(ch, 60, rng.substream(1))
        report = perturb_best_response_check(ch, perts, tol=1e-9)
        assert report.passed
        assert report.n_perturbations == 60

    def test_povm_perturbations_never_win(self, rng):
        povm = universal_povm(1)
        perts = povm_perturbations(povm, 60, rng.substream(2))
        report = perturb_best_response_check(povm, perts, tol=1e-9)
        assert report.passed

    def test_full_noise_output_scores_inverse_bose_dimension(self):
        ch = optimal_cloner(2, 1, 2)
        noise = symmetric_noise_channel(2, 1, 2)
        report = perturb_best_response_check(ch, [noise], tol=1e-9)
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
        a = monte_carlo_play(spec, optimal_cloner(2, 1, 2), seed=8)
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
        with pytest.raises(TypeError, match="Channel"):
            monte_carlo_play(GameSpec("cloning", d=2, n=1, m=2, samples=10), universal_povm(1))

    def test_calibration_across_seeds(self):
        # z <= 3 should hold in at least 99% of repetitions; with these fixed
        # seeds the outcome is deterministic and was verified to hold
        spec_template = GameSpec("estimation", n=1, samples=1_500, seed=0)
        povm = build_povm(1, default_directions(1))
        bad = 0
        for seed in range(100):
            record = monte_carlo_play(spec_template, povm, seed=seed)
            z = abs(record.mean_payoff - 2.0 / 3.0) / record.stderr_payoff
            bad += z > 3.0
        assert bad <= 1


def _mc_game(kind, d, n, m, make, label="optimal"):
    return pytest.param(kind, d, n, m, make, id=f"{kind}-{d}-{n}-{m}-{label}")


# (kind, d, n, m, strategy factory) for the oracle comparisons; the optimal
# cloner's clones are interchangeable, so the asymmetric channels are what
# checks that each one-particle round scores the clone it drew
MC_GAMES = [
    _mc_game("estimation", 2, 1, 1, lambda: build_povm(1, default_directions(1)), "default"),
    _mc_game("estimation", 2, 4, 4, lambda: build_povm(4, default_directions(4)), "default"),
    _mc_game("estimation", 2, 3, 3, lambda: universal_povm(3), "universal"),
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
# one round, chunk edges of the 256-round chunks, and several chunks
MC_SAMPLE_COUNTS = (1, 255, 256, 257, 1000)


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

    # CHUNK_BYTES = 1000 gives 15 rounds per chunk at d^m = 4, 7 at 8 and 2 at 27
    @pytest.mark.parametrize("limit, value", [("CHUNK_ROUNDS", 1), ("CHUNK_ROUNDS", 7),
                                              ("CHUNK_BYTES", 1000)])
    @pytest.mark.parametrize("kind, d, n, m, make", MC_GAMES)
    def test_records_do_not_depend_on_chunk_size(self, monkeypatch, kind, d, n, m, make,
                                                 limit, value):
        strategy = make()
        specs = [GameSpec(kind, d=d, n=n, m=m, samples=s, seed=21) for s in (1, 20, 257)]
        expected = [monte_carlo_play(spec, strategy) for spec in specs]
        monkeypatch.setattr(qgames.harness, limit, value)
        assert [monte_carlo_play(spec, strategy) for spec in specs] == expected

    # Chunked play peaks near 1 MiB whatever the round count.  Batched all at
    # once, 20 000 rounds take about 48 MiB (cloning) and 27 MiB (one-particle)
    # of tensor powers.  The (2, 1, 7) product embedding has 64 Kraus
    # operators and 128-dimensional full outputs, so a chunk holding every
    # Kraus branch of its 256 rounds at once would take 32 MB for that array
    # alone.
    @pytest.mark.parametrize("kind, d, n, m, samples, make", [
        ("cloning", 3, 2, 3, 20_000, optimal_cloner),
        ("one_particle", 3, 1, 3, 20_000, optimal_cloner),
        ("cloning", 2, 1, 7, 512, product_embedding_channel),
        ("one_particle", 2, 1, 7, 512, product_embedding_channel),
    ])
    def test_memory_stays_bounded(self, kind, d, n, m, samples, make):
        strategy = make(d, n, m)
        spec = GameSpec(kind, d=d, n=n, m=m, samples=samples, seed=3)
        tracemalloc.start()
        try:
            monte_carlo_play(spec, strategy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_logs_one_record_per_call(self, caplog):
        spec = GameSpec("cloning", d=3, n=2, m=3, samples=600, seed=1)
        with caplog.at_level(logging.DEBUG, logger="qgames"):
            monte_carlo_play(spec, optimal_cloner(3, 2, 3))
        (record,) = [r for r in caplog.records if r.name == "qgames.harness"]
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert "cloning d=3 n=2 m=3" in message
        assert "600 rounds in 3 chunks of 256" in message

    @pytest.mark.parametrize("make, width", [(product_embedding_channel, 27),
                                             (optimal_cloner, 10)])
    def test_wide_outputs_shorten_chunks(self, monkeypatch, caplog, make, width):
        # 27 full output amplitudes or 10 Sym_out coordinates per round;
        # CHUNK_BYTES fits 100 rounds of them
        monkeypatch.setattr(qgames.harness, "CHUNK_BYTES", 16 * width * 100)
        spec = GameSpec("cloning", d=3, n=2, m=3, samples=600, seed=1)
        with caplog.at_level(logging.DEBUG, logger="qgames.harness"):
            monte_carlo_play(spec, make(3, 2, 3))
        assert "600 rounds in 6 chunks of 100" in caplog.records[-1].getMessage()


class TestAsymBoundScan:
    def test_grid_passes_through_optimal(self):
        channels = asymmetry_grid_channels(2, 21)
        sums = {}
        for t, ch in channels:
            from qgames.cloning import single_clone_haar_fidelity

            sums[t] = sum(single_clone_haar_fidelity(ch, k) for k in (1, 2))
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

    def test_invalid_channel_rejected_before_scanning(self):
        from qgames.cloning import Channel
        from qgames.harness import _scan_channel

        # bypass constructor validation to fake a lossy channel
        ch = Channel.__new__(Channel)
        ch.d, ch.n_in, ch.n_out = 2, 1, 2
        ch.dim_in, ch.dim_out = 2, 4
        k = np.zeros((4, 2))
        k[0, 0] = 0.7
        ch.kraus = (k,)
        with pytest.raises(ValueError, match="trace preserving"):
            _scan_channel(ch, "random", "lossy")

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
        assert ch.completeness_defect() <= 1e-10
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
        assert ch.completeness_defect() <= 1e-10
        assert haar_avg_global_fidelity(ch) <= values.global_value + 1e-12
        fids = [single_clone_haar_fidelity(ch, k) for k in range(1, m + 1)]
        assert sum(fids) <= values.asym_bound + 1e-9

    def test_oversized_ginibre_draw_fails_before_drawing(self, monkeypatch):
        # d^m * ancilla = 128 * 128: 2^28 complex normals (4.3 GB) if drawn
        calls = []
        monkeypatch.setattr(RandomStream, "complex_normals",
                            lambda self, count: calls.append(count))
        with pytest.raises(SizeCapExceeded):
            asym_bound_scan(2, 1, 7, n_random=1, seed=1)
        with pytest.raises(SizeCapExceeded):
            random_isometry_channel(2, 1, 7, RandomStream(1))
        with pytest.raises(SizeCapExceeded):
            random_isometry_channel(2, 1, 2, RandomStream(1), ancilla_dim=1025)
        assert calls == []

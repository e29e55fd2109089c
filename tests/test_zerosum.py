import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import qgames.zerosum
from qgames.estimation import build_povm, default_directions, universal_povm
from qgames.harness import discretize_estimation_game, fibonacci_states
from qgames.zerosum import (
    CovarianceViolation,
    EquilibriumPair,
    MatrixGame,
    MixedStrategy,
    NonConvergence,
    NotAGroup,
    best_response,
    circulant_game,
    cyclic_action,
    exploitability,
    interchange_check,
    rock_paper_scissors,
    solve,
    symmetrize,
)

from conftest import total_variation
from exact_simplex import exact_simplex

PENNIES = MatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]]))


class TestSolve:
    def test_rock_paper_scissors_uniform(self):
        eq = solve(rock_paper_scissors(), tol=1e-6)
        assert abs(eq.value) <= 1e-6
        uniform = MixedStrategy.uniform(3)
        assert total_variation(eq.x, uniform) <= 1e-3
        assert total_variation(eq.y, uniform) <= 1e-3
        assert eq.exploitability <= 1e-12

    def test_matching_pennies(self):
        eq = solve(PENNIES, tol=1e-6)
        assert abs(eq.value) <= 1e-6

    def test_single_entry(self):
        eq = solve(MatrixGame(np.array([[1.0]])))
        assert eq.value == 1.0
        assert eq.exploitability == 0.0

    def test_single_row_and_column(self):
        eq = solve(MatrixGame(np.array([[3.0, 1.0, 2.0]])))
        assert eq.value == pytest.approx(1.0)
        assert eq.y.probs[1] == 1.0
        eq = solve(MatrixGame(np.array([[3.0], [1.0], [2.0]])))
        assert eq.value == pytest.approx(3.0)
        assert eq.x.probs[0] == 1.0

    def test_agrees_with_exact_simplex_on_random_games(self):
        gen = np.random.default_rng(17)
        for _ in range(40):
            a = gen.standard_normal((gen.integers(2, 7), gen.integers(2, 7)))
            eq = solve(MatrixGame(a))
            assert eq.exploitability <= 1e-10
            assert abs(eq.value - exact_simplex(a)[2]) <= 1e-12

    def test_value_antisymmetry(self):
        gen = np.random.default_rng(3)
        for _ in range(20):
            a = gen.standard_normal((4, 5))
            tol = 1e-9
            v1 = solve(MatrixGame(a), tol=tol).value
            v2 = solve(MatrixGame(-a.T), tol=tol).value
            assert abs(v1 + v2) <= 2.0 * tol

    def test_weak_duality_sandwich(self):
        gen = np.random.default_rng(8)
        for _ in range(30):
            a = gen.standard_normal((6, 6))
            eq = solve(MatrixGame(a), tol=1e-9)
            lower = np.max(np.min(a, axis=1))
            upper = np.min(np.max(a, axis=0))
            assert lower - 1e-9 <= eq.value <= upper + 1e-9

    @pytest.mark.parametrize("size", [65, 200])
    def test_large_random_games_meet_default_tol(self, size):
        a = np.random.default_rng(size).standard_normal((size, size))
        eq = solve(MatrixGame(a), tol=1e-9)
        assert eq.exploitability <= 1e-9
        lower = np.max(np.min(a, axis=1))
        upper = np.min(np.max(a, axis=0))
        assert lower - 1e-9 <= eq.value <= upper + 1e-9

    def test_unreachable_tol_raises_with_gap(self):
        game = MatrixGame(np.random.default_rng(32).standard_normal((32, 32)))
        with pytest.raises(NonConvergence) as info:
            solve(game, tol=1e-20)
        assert info.value.exploitability > 0.0

    def test_nan_tol_is_refused(self):
        # NaN passed `tol <= 0`, and no gap exceeds NaN: nothing was certified
        with pytest.raises(ValueError, match="tol must be positive"):
            solve(rock_paper_scissors(), tol=float("nan"))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            solve(PENNIES, tol=0.0)
        with pytest.raises(ValueError):
            MatrixGame(np.array([[np.inf, 1.0]]))


def highs_value(a):
    """Game value from HiGHS: max v  s.t.  A^T x >= v 1, sum(x) = 1, x >= 0."""
    m, n = a.shape
    cost = np.zeros(m + 1)
    cost[-1] = -1.0
    res = linprog(
        cost,
        A_ub=np.hstack([-a.T, np.ones((n, 1))]),
        b_ub=np.zeros(n),
        A_eq=np.hstack([np.ones((1, m)), np.zeros((1, 1))]),
        b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)],
        method="highs",
    )
    assert res.status == 0
    return res.x[-1]


def sandwich_game(n_copies, n_states):
    """The `sandwich` estimation game: universal and default POVMs against Fibonacci states."""
    povms = [universal_povm(n_copies), build_povm(n_copies, default_directions(n_copies))]
    return discretize_estimation_game(n_copies, povms, fibonacci_states(n_states))


class TestNumpySimplex:
    @pytest.mark.parametrize("shape", [(2, 40), (40, 2), (5, 40), (40, 5), (12, 12), (15, 15)])
    def test_value_matches_exact_simplex(self, shape):
        gen = np.random.default_rng(shape[0] * 100 + shape[1])
        for _ in range(3):
            a = gen.standard_normal(shape)
            eq = solve(MatrixGame(a))
            assert eq.exploitability <= 1e-13
            assert abs(eq.value - exact_simplex(a)[2]) <= 1e-12

    def test_value_matches_highs_up_to_40x40(self):
        gen = np.random.default_rng(40)
        for _ in range(60):
            m, n = gen.integers(1, 41, size=2)
            a = gen.standard_normal((m, n))
            eq = solve(MatrixGame(a))
            assert eq.exploitability <= 1e-13
            assert abs(eq.value - highs_value(a)) <= 1e-10

    def test_constant_matrix(self):
        eq = solve(MatrixGame(np.full((3, 4), 0.7)))
        assert eq.value == pytest.approx(0.7, abs=1e-15)
        assert eq.exploitability <= 1e-15

    def test_duplicated_rows_and_columns(self):
        gen = np.random.default_rng(9)
        base = gen.standard_normal((4, 5))
        a = base[[0, 1, 1, 2, 3, 3, 0]][:, [0, 0, 1, 2, 3, 4, 4, 2]]
        eq = solve(MatrixGame(a))
        assert eq.exploitability <= 1e-14
        assert abs(eq.value - solve(MatrixGame(base)).value) <= 1e-13
        assert abs(eq.value - exact_simplex(a)[2]) <= 1e-12

    def test_rock_paper_scissors_is_exact(self):
        eq = solve(rock_paper_scissors())
        assert abs(eq.value) <= 1e-15
        assert eq.exploitability <= 1e-15

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_single_row_and_single_column_shapes(self, n):
        # a pure best reply exists on either side, so the duals of the rows
        # that are not best replies are exactly 0 and so is the certificate
        row = np.random.default_rng(n).standard_normal((1, n))
        eq = solve(MatrixGame(row))
        assert eq.value == pytest.approx(row.min(), abs=1e-15)
        assert eq.exploitability <= 1e-15
        eq = solve(MatrixGame(row.T))
        assert eq.value == row.max()
        assert eq.exploitability == 0.0

    @pytest.mark.parametrize("n_copies", [1, 2, 3])
    def test_sandwich_shapes_up_to_2x256(self, n_copies):
        for n_states in (4, 16, 64, 256):
            game = sandwich_game(n_copies, n_states)
            eq = solve(game)
            assert game.shape == (2, n_states)
            assert eq.exploitability <= 1e-14
            assert abs(eq.value - highs_value(game.payoff)) <= 1e-12

    def test_bland_rule_from_the_first_pivot(self, monkeypatch):
        gen = np.random.default_rng(12)
        games = [gen.standard_normal((9, 11)) for _ in range(5)]
        games += [rock_paper_scissors().payoff, np.full((3, 3), -2.0)]
        dantzig = [solve(MatrixGame(a)).value for a in games]
        monkeypatch.setattr(qgames.zerosum, "STALLS_BEFORE_BLAND", 0)
        for a, value in zip(games, dantzig):
            eq = solve(MatrixGame(a))
            assert eq.exploitability <= 1e-13
            assert abs(eq.value - value) <= 1e-13

    def test_pivot_cap_raises(self, monkeypatch):
        # this 40 x 40 game takes 78 pivots, more than a cap of one per row
        game = MatrixGame(np.random.default_rng(0).standard_normal((40, 40)))
        assert solve(game).exploitability <= 1e-13
        monkeypatch.setattr(qgames.zerosum, "PIVOTS_PER_ROW", 1)
        with pytest.raises(NonConvergence, match="cap of 40 pivots") as info:
            solve(game)
        assert info.value.exploitability == np.inf


class TestExploitability:
    def test_uniform_rps_is_exact_equilibrium(self):
        u = MixedStrategy.uniform(3)
        assert exploitability(rock_paper_scissors(), u, u) == 0.0

    def test_pure_vs_pure_rps(self):
        # rock vs rock: best response paper earns 1, rock's worst column is -1
        x = MixedStrategy([1.0, 0.0, 0.0])
        assert exploitability(rock_paper_scissors(), x, x) == pytest.approx(2.0)

    @given(
        st.integers(0, 10_000),
        st.integers(2, 5),
        st.integers(2, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_negative(self, seed, m, n):
        gen = np.random.default_rng(seed)
        game = MatrixGame(gen.standard_normal((m, n)))
        x = MixedStrategy(gen.dirichlet(np.ones(m)))
        y = MixedStrategy(gen.dirichlet(np.ones(n)))
        assert exploitability(game, x, y) >= 0.0


class TestBestResponse:
    def test_paper_beats_rock(self):
        reply = best_response(rock_paper_scissors(), MixedStrategy([1.0, 0.0, 0.0]), "I")
        assert reply == 1

    def test_uniform_ties_break_low(self):
        assert best_response(rock_paper_scissors(), MixedStrategy.uniform(3), "I") == 0
        assert best_response(rock_paper_scissors(), MixedStrategy.uniform(3), "II") == 0

    def test_matches_brute_enumeration(self):
        gen = np.random.default_rng(23)
        for _ in range(20):
            a = gen.standard_normal((5, 5))
            game = MatrixGame(a)
            y = MixedStrategy(gen.dirichlet(np.ones(5)))
            x = MixedStrategy(gen.dirichlet(np.ones(5)))
            # brute force: score every pure strategy explicitly
            scores_i = [sum(a[i, j] * y.probs[j] for j in range(5)) for i in range(5)]
            scores_ii = [-sum(x.probs[i] * a[i, j] for i in range(5)) for j in range(5)]
            assert best_response(game, y, "I") == int(np.argmax(scores_i))
            assert best_response(game, x, "II") == int(np.argmax(scores_ii))

    def test_side_validation(self):
        with pytest.raises(ValueError):
            best_response(rock_paper_scissors(), MixedStrategy.uniform(3), "III")


class TestSymmetrize:
    def test_rps_cyclic_action_gives_uniform(self):
        perms, row_map = cyclic_action(3)
        mixed = symmetrize(rock_paper_scissors(), perms, row_map)
        assert np.allclose(mixed.probs, 1.0 / 3.0)
        row = mixed.probs @ rock_paper_scissors().payoff
        assert np.max(row) - np.min(row) <= 1e-10
        assert np.max(np.abs(row)) <= 1e-10  # flat at the RPS value 0

    def test_trivial_group_returns_best_reply(self):
        game = MatrixGame(np.array([[0.0, 1.0], [2.0, -1.0]]))
        mixed = symmetrize(game, [(0, 1)], [[0, 1]])
        reply = best_response(game, MixedStrategy.uniform(2), "I")
        assert mixed.probs[reply] == 1.0

    def test_random_circulant_constant_row(self):
        gen = np.random.default_rng(5)
        row = gen.standard_normal(4)
        game = circulant_game(row)
        perms, row_map = cyclic_action(4)
        mixed = symmetrize(game, perms, row_map)
        out = mixed.probs @ game.payoff
        assert np.max(out) - np.min(out) <= 1e-10
        assert np.allclose(out, row.mean(), atol=1e-10)

    def test_not_a_group_detected(self):
        game = circulant_game([0.0, 1.0, -1.0])
        with pytest.raises(NotAGroup):
            symmetrize(game, [(1, 2, 0)], [[0, 1, 2]])  # missing identity
        with pytest.raises(NotAGroup):
            # not closed: the square of the 3-cycle is missing
            symmetrize(game, [(0, 1, 2), (1, 2, 0)], [[0] * 3] * 2)

    def test_covariance_violation_detected(self):
        gen = np.random.default_rng(6)
        game = MatrixGame(gen.standard_normal((3, 3)))  # not circulant
        perms, row_map = cyclic_action(3)
        with pytest.raises(CovarianceViolation):
            symmetrize(game, perms, row_map)


def _pair_for(game, x_probs, y_probs):
    x = MixedStrategy(np.asarray(x_probs, dtype=float))
    y = MixedStrategy(np.asarray(y_probs, dtype=float))
    value = float(x.probs @ game.payoff @ y.probs)
    return EquilibriumPair(x, y, value, exploitability(game, x, y))


class TestInterchange:
    def test_all_zero_game_any_pairs_pass(self):
        game = MatrixGame(np.zeros((2, 2)))
        p1 = _pair_for(game, [0.3, 0.7], [0.9, 0.1])
        p2 = _pair_for(game, [1.0, 0.0], [0.5, 0.5])
        report = interchange_check(game, p1, p2, tol=1e-9)
        assert report.passed
        assert report.value_spread == 0.0

    def test_duplicated_column_two_equilibria(self):
        # matching pennies with its second column duplicated: any split of the
        # duplicate weight is an equilibrium
        game = MatrixGame(np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, 1.0]]))
        p1 = solve(game, tol=1e-9)
        shifted = p1.y.probs.copy()
        shifted[2], shifted[1] = shifted[1] + shifted[2], 0.0
        p2 = _pair_for(game, p1.x.probs, shifted)
        assert p2.exploitability <= 1e-9
        assert np.max(np.abs(p1.y.probs - p2.y.probs)) > 1e-3  # genuinely distinct
        report = interchange_check(game, p1, p2, tol=1e-9)
        assert report.passed

    def test_perturbed_pair_fails(self):
        game = rock_paper_scissors()
        good = solve(game, tol=1e-9)
        bad = _pair_for(game, [0.6, 0.2, 0.2], [0.2, 0.6, 0.2])
        report = interchange_check(game, good, bad, tol=1e-9)
        assert not report.passed
        assert not report.inputs_ok
        assert max(report.input_exploitabilities) > 0.0
        assert max(report.cross_exploitabilities) > 0.0


class TestStrategyTypes:
    def test_mixed_strategy_validation(self):
        with pytest.raises(ValueError):
            MixedStrategy(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            MixedStrategy(np.array([-0.1, 1.1]))

    def test_total_variation(self):
        a = MixedStrategy(np.array([1.0, 0.0]))
        b = MixedStrategy(np.array([0.0, 1.0]))
        assert total_variation(a, b) == 1.0

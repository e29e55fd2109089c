"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion, including the measured slack and runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from qgames.cloning import (
    optimal_cloner,
    product_embedding_channel,
    single_clone_haar_fidelity,
    haar_avg_global_fidelity,
    global_fidelity,
    value_formulas,
)
from qgames.core import DensityOperator, PureState, RandomStream, haar_random_state, tensor_power
from qgames.estimation import (
    build_povm,
    default_directions,
    mean_fidelity,
    pointwise_payoff,
    universal_povm,
)
from qgames.harness import (
    GameSpec,
    asym_bound_scan,
    cloner_perturbations,
    fibonacci_states,
    monte_carlo_play,
    perturb_best_response_check,
    povm_perturbations,
    sandwich_report,
)
from qgames.symmetric import dim_sym, sym_projector
from qgames.zerosum import (
    EquilibriumPair,
    MatrixGame,
    MixedStrategy,
    exploitability,
    interchange_check,
    rock_paper_scissors,
    solve,
)

import dense_oracle
from conftest import random_density, total_variation

CLONER_TUPLES = [(2, 1, 2), (2, 1, 3), (2, 2, 3), (3, 1, 2), (4, 1, 2)]


def report(criterion, detail, elapsed):
    print(f"PASS criterion {criterion}: {detail} [{elapsed:.2f}s]")


def test_criterion_01_cloning_game_value():
    start = time.perf_counter()
    worst = 0.0
    for d, n, m in CLONER_TUPLES:
        got = haar_avg_global_fidelity(optimal_cloner(d, n, m))
        want = dim_sym(d, n) / dim_sym(d, m)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 10.0
    report(1, f"cloning values match the dimension ratio (max dev {worst:.2e})", elapsed)


def test_criterion_02_one_particle_test_value():
    start = time.perf_counter()
    worst = 0.0
    for d, n, m in CLONER_TUPLES:
        ch = optimal_cloner(d, n, m)
        want = value_formulas(d, n, m).single_value
        for k in range(1, m + 1):
            worst = max(worst, abs(single_clone_haar_fidelity(ch, k) - want))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 10.0
    report(2, f"single-clone values match for every clone index (max dev {worst:.2e})", elapsed)


def test_criterion_03_estimation_game_value():
    start = time.perf_counter()
    worst_value = 0.0
    worst_residual = 0.0
    for n in range(1, 6):
        povm = build_povm(n, default_directions(n))
        worst_residual = max(worst_residual, povm.completeness_residual)
        worst_value = max(worst_value, abs(mean_fidelity(povm) - (n + 1) / (n + 2)))
    elapsed = time.perf_counter() - start
    assert worst_value <= 1e-9
    assert worst_residual <= 1e-8
    assert elapsed < 5.0
    report(
        3,
        f"estimation values match (n+1)/(n+2) for n=1..5 "
        f"(max dev {worst_value:.2e}, max residual {worst_residual:.2e})",
        elapsed,
    )


def test_criterion_04_asymmetric_cloning_bound():
    start = time.perf_counter()
    scan = asym_bound_scan(2, 1, 2, n_random=1000, grid_points=21, seed=314)
    optimal = [r for r in scan.records if r.kind == "optimal"][0]
    elapsed = time.perf_counter() - start
    assert scan.max_sum_fidelity <= 5.0 / 3.0 + 1e-9
    assert abs(optimal.sum_fidelity - 5.0 / 3.0) <= 1e-10
    assert elapsed < 60.0
    report(
        4,
        f"1000 random channels + asymmetry grid stay under 5/3 "
        f"(max {scan.max_sum_fidelity:.12f}, optimal attains the bound)",
        elapsed,
    )


def test_criterion_05_universality():
    start = time.perf_counter()
    stream = RandomStream(500)
    worst = 0.0
    for d, n, m in CLONER_TUPLES:
        ch = optimal_cloner(d, n, m)
        fids = [
            global_fidelity(ch, haar_random_state(d, stream.substream(1000 * n + i)))
            for i in range(100)
        ]
        worst = max(worst, float(np.std(fids)))
    for n in (1, 2, 3):
        povm = universal_povm(n)
        payoffs = [
            pointwise_payoff(povm, haar_random_state(2, stream.substream(5000 * n + i)))
            for i in range(100)
        ]
        worst = max(worst, float(np.std(payoffs)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    report(
        5,
        f"cloner fidelity and estimator payoff are state independent (max std {worst:.2e})",
        elapsed,
    )


def test_criterion_06_perturbation_equilibrium_evidence():
    start = time.perf_counter()
    stream = RandomStream(600)
    cloner = optimal_cloner(2, 1, 2)
    cloner_report = perturb_best_response_check(
        cloner, cloner_perturbations(cloner, 200, stream.substream(1))
    )
    estimator = universal_povm(1)
    estimator_report = perturb_best_response_check(
        estimator, povm_perturbations(estimator, 200, stream.substream(2))
    )
    elapsed = time.perf_counter() - start
    assert cloner_report.passed and cloner_report.n_perturbations == 200
    assert estimator_report.passed and estimator_report.n_perturbations == 200
    report(
        6,
        "200 perturbations of each optimal strategy never beat it "
        f"(cloner max {cloner_report.max_value:.6f} <= {cloner_report.base_value:.6f}, "
        f"estimator max {estimator_report.max_value:.6f} <= {estimator_report.base_value:.6f})",
        elapsed,
    )


def test_criterion_07_zero_sum_solver():
    start = time.perf_counter()
    eq = solve(rock_paper_scissors(), tol=1e-6)
    assert abs(eq.value) <= 1e-6
    uniform = MixedStrategy.uniform(3)
    assert total_variation(eq.x, uniform) <= 1e-3
    assert total_variation(eq.y, uniform) <= 1e-3
    gen = np.random.default_rng(700)
    worst_slack = 0.0
    for _ in range(100):
        a = gen.standard_normal((6, 6))
        pair = solve(MatrixGame(a), tol=1e-9)
        lower = float(np.max(np.min(a, axis=1)))
        upper = float(np.min(np.max(a, axis=0)))
        assert lower - 1e-9 <= pair.value <= upper + 1e-9
        worst_slack = max(worst_slack, pair.exploitability)
    elapsed = time.perf_counter() - start
    report(
        7,
        f"rock-paper-scissors solves to uniform at value 0; weak duality held on "
        f"100 random 6x6 games (max exploitability {worst_slack:.2e})",
        elapsed,
    )


def _pair_from(game, x_probs, y_probs):
    x = MixedStrategy(np.asarray(x_probs, dtype=float))
    y = MixedStrategy(np.asarray(y_probs, dtype=float))
    return EquilibriumPair(
        x, y, float(x.probs @ game.payoff @ y.probs), exploitability(game, x, y)
    )


def test_criterion_08_equilibrium_interchange():
    start = time.perf_counter()
    worst_cross = 0.0
    worst_spread = 0.0

    # duplicated-column pennies: solver equilibrium vs shifted duplicate weight
    dup = MatrixGame(np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, 1.0]]))
    p1 = solve(dup, tol=1e-9)
    shifted = p1.y.probs.copy()
    shifted[2], shifted[1] = shifted[1] + shifted[2], 0.0
    p2 = _pair_from(dup, p1.x.probs, shifted)
    rep = interchange_check(dup, p1, p2, tol=1e-6)
    assert rep.passed
    worst_cross = max(worst_cross, *rep.cross_exploitabilities)
    worst_spread = max(worst_spread, rep.value_spread)

    # duplicated-column cyclic game: two handmade equilibria on either duplicate
    rps_dup = MatrixGame(
        np.array([[0.0, -1.0, 1.0, 1.0], [1.0, 0.0, -1.0, -1.0], [-1.0, 1.0, 0.0, 0.0]])
    )
    uniform_x = np.full(3, 1.0 / 3.0)
    q1 = _pair_from(rps_dup, uniform_x, [1 / 3, 1 / 3, 1 / 3, 0.0])
    q2 = _pair_from(rps_dup, uniform_x, [1 / 3, 1 / 3, 0.0, 1 / 3])
    rep = interchange_check(rps_dup, q1, q2, tol=1e-6)
    assert rep.passed
    worst_cross = max(worst_cross, *rep.cross_exploitabilities)
    worst_spread = max(worst_spread, rep.value_spread)

    # degenerate game: every pair is an equilibrium
    zeros = MatrixGame(np.zeros((3, 3)))
    gen = np.random.default_rng(800)
    z1 = _pair_from(zeros, gen.dirichlet(np.ones(3)), gen.dirichlet(np.ones(3)))
    z2 = _pair_from(zeros, gen.dirichlet(np.ones(3)), gen.dirichlet(np.ones(3)))
    rep = interchange_check(zeros, z1, z2, tol=1e-6)
    assert rep.passed

    # solver pairs from dup and from its column-reversed copy, mapped back
    r1 = solve(dup, tol=1e-9)
    perm = [2, 1, 0]
    flipped = solve(MatrixGame(dup.payoff[:, perm]), tol=1e-9)
    y2 = np.empty(3)
    y2[perm] = flipped.y.probs
    r2 = _pair_from(dup, flipped.x.probs, y2)
    assert np.max(np.abs(r1.y.probs - r2.y.probs)) > 1e-3  # genuinely distinct
    rep = interchange_check(dup, r1, r2, tol=1e-5)
    assert rep.passed
    worst_cross = max(worst_cross, *rep.cross_exploitabilities)
    worst_spread = max(worst_spread, rep.value_spread)

    elapsed = time.perf_counter() - start
    assert worst_cross <= 1e-5
    assert worst_spread <= 1e-5
    report(
        8,
        f"crossed equilibrium pairs stay equilibria (max cross exploitability "
        f"{worst_cross:.2e}, max value spread {worst_spread:.2e})",
        elapsed,
    )


def test_criterion_09_minimax_discretization_sandwich():
    start = time.perf_counter()

    est_spec = GameSpec("estimation", n=1, seed=900)
    est_report = sandwich_report(
        est_spec,
        [universal_povm(1), build_povm(1, default_directions(1))],
        fibonacci_states(16),
        (4, 8, 16),
    )
    assert est_report.lower_bound_ok
    assert est_report.monotone_ok
    assert est_report.converged

    clone_spec = GameSpec("cloning", d=2, n=1, m=2, seed=901)
    clone_report = sandwich_report(
        clone_spec,
        [optimal_cloner(2, 1, 2), product_embedding_channel(2, 1, 2)],
        fibonacci_states(16),
        (4, 8, 16),
    )
    assert clone_report.lower_bound_ok
    assert clone_report.monotone_ok
    assert clone_report.converged

    elapsed = time.perf_counter() - start
    report(
        9,
        "restricted values refine monotonically onto the theoretical values "
        f"(estimation -> {est_report.levels[-1].value:.12f}, "
        f"cloning -> {clone_report.levels[-1].value:.12f})",
        elapsed,
    )


def test_criterion_10_monte_carlo_consistency():
    start = time.perf_counter()

    est_spec = GameSpec("estimation", n=1, samples=100_000, seed=123)
    povm = build_povm(1, default_directions(1))
    est_record = monte_carlo_play(est_spec, povm)
    est_z = abs(est_record.mean_payoff - 2.0 / 3.0) / est_record.stderr_payoff
    assert est_z <= 3.0

    clone_spec = GameSpec("cloning", d=2, n=1, m=2, samples=100_000, seed=123)
    clone_record = monte_carlo_play(clone_spec, optimal_cloner(2, 1, 2))
    clone_z = abs(clone_record.mean_payoff - 2.0 / 3.0) / clone_record.stderr_payoff
    assert clone_z <= 3.0

    # identical seed -> byte-identical serialized records
    small = GameSpec("cloning", d=2, n=1, m=2, samples=2_000, seed=77)
    doc_a = json.dumps(monte_carlo_play(small, optimal_cloner(2, 1, 2)).__dict__)
    doc_b = json.dumps(monte_carlo_play(small, optimal_cloner(2, 1, 2)).__dict__)
    assert doc_a.encode() == doc_b.encode()

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        10,
        f"100k-round play sits within 3 standard errors of the exact values "
        f"(z_est {est_z:.2f}, z_clone {clone_z:.2f}); identical seeds gave "
        "byte-identical records",
        elapsed,
    )


def test_criterion_11_structural_property_suites():
    start = time.perf_counter()
    stream = RandomStream(1100)
    gen = stream.generator

    # (a) symmetric projector idempotence and trace, 100 sampled (d, n) pairs
    pool = [(d, n) for d in (2, 3, 4) for n in range(1, 7) if d**n <= 1024]
    for case in range(100):
        d, n = pool[int(gen.integers(len(pool)))]
        proj = sym_projector(d, n)
        assert np.max(np.abs(proj @ proj - proj)) <= 1e-12
        assert np.max(np.abs(proj - proj.conj().T)) <= 1e-12
        assert abs(np.trace(proj).real - dim_sym(d, n)) <= 1e-9

    # (b) channel trace preservation on symmetric inputs, 100 cases
    for case in range(100):
        d, n, m = CLONER_TUPLES[case % len(CLONER_TUPLES)]
        ch = optimal_cloner(d, n, m)
        psi = haar_random_state(d, stream.substream(10_000 + case))
        out = dense_oracle.apply_matrix_via_choi(ch, tensor_power(psi, n).density().matrix)
        assert abs(np.trace(out).real - 1.0) <= 1e-10

    # (c) POVM effect positivity, 100+ cases across both builder families
    checked = 0
    for n in (1, 2, 3, 4, 5):
        for povm in (build_povm(n, default_directions(n)), universal_povm(n)):
            for effect in dense_oracle.effect_stack(povm).effects:
                assert np.linalg.eigvalsh(effect).min() >= -1e-10
                checked += 1
    assert checked >= 100

    # (d) density-operator validity for generated states, 100 cases
    ch = optimal_cloner(2, 1, 2)
    povm = build_povm(2, default_directions(2))
    for case in range(100):
        psi = haar_random_state(2, stream.substream(20_000 + case))
        if case % 2 == 0:
            # DensityOperator validates Hermitian/trace/PSD
            rho = DensityOperator(dense_oracle.apply_matrix_via_choi(ch, psi.density().matrix))
        else:
            rho = DensityOperator(dense_oracle.respond(povm, psi))
        mat = rho.matrix
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
        assert abs(np.trace(mat).real - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(mat).min() >= -1e-10

    elapsed = time.perf_counter() - start
    report(
        11,
        "structural suites held: projector idempotence/trace, channel trace "
        "preservation, effect positivity, density-operator validity (100+ cases each)",
        elapsed,
    )

"""Symmetric-subspace evaluators against the dense full-space oracle.

Also guards the evaluators against building full-space objects again: a
d^(n+m)-sized Choi matrix, projector or payoff operator.
"""

import json

import numpy as np
import pytest

import dense_oracle
import mc_oracle
import qgames.cloning
import qgames.estimation
import qgames.harness
from qgames.cloning import (
    _choi_rows,
    _completeness_defects,
    _state_fidelities,
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
)
from qgames.core import PureState, RandomStream, haar_random_state
from qgames.estimation import (
    build_povm,
    default_directions,
    mean_fidelity,
    payoff_operator,
    pointwise_payoff,
    universal_povm,
)
from qgames.cli import main
from qgames.harness import povm_perturbations
from qgames.symmetric import dim_sym, sym_isometry, sym_split
from conftest import mirror_embedding_channel, peak_bytes
from test_cloning import CLONER_CASES

TOL = 1e-12
ORACLE_CASES = CLONER_CASES + [(2, 3, 5), (3, 2, 3)]
CHANNEL_KINDS = ("optimal", "product", "mirror", "noise", "random", "conjugated", "mixture")


def make_channel(kind, d, n, m):
    stream = RandomStream(7000 + 100 * d + 10 * n + m)
    if kind == "optimal":
        return optimal_cloner(d, n, m)
    if kind == "product":
        return product_embedding_channel(d, n, m)
    if kind == "mirror":
        return mirror_embedding_channel(d, n, m)
    if kind == "noise":
        return symmetric_noise_channel(d, n, m)
    if kind == "random":
        return random_isometry_channel(d, n, m, stream, ancilla_dim=2 * d)
    if kind == "conjugated":
        return conjugate_output(optimal_cloner(d, n, m), haar_random_unitary(d**m, stream))
    return mixture_channel(optimal_cloner(d, n, m), product_embedding_channel(d, n, m), 0.3)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("d, n, m", ORACLE_CASES)
def test_channel_evaluators_match_dense_oracle(kind, d, n, m):
    ch = make_channel(kind, d, n, m)
    lift = np.kron(sym_isometry(d, n), sym_isometry(d, m) if ch.sym_out else np.eye(d**m))
    assert np.max(np.abs(ch.choi - lift.T @ dense_oracle.full_choi(ch) @ lift)) <= TOL
    got = haar_avg_global_fidelity(ch)
    assert abs(got - dense_oracle.haar_avg_global_fidelity(ch)) <= TOL
    for k in range(1, m + 1):
        got = single_clone_haar_fidelity(ch, k)
        assert abs(got - dense_oracle.single_clone_haar_fidelity(ch, k)) <= TOL


def state_payoffs(kind, ch, psi):
    """The Monte Carlo kernel's per-state payoffs of `ch` on each row of amplitudes `psi`."""
    payoffs, _ = qgames.harness._checked_payoffs(kind, ch.d, ch.n_in, ch.n_out, ch)
    return payoffs(psi)


FULL_OUTPUT_CASES = [(2, 1, 2), (2, 1, 3), (2, 2, 4), (3, 1, 2), (3, 1, 3)]


def full_output_channels(d, n, m):
    """Full-output channels, Sym_out channels mixed with them, and every ancilla size."""
    stream = RandomStream(9000 + 100 * d + 10 * n + m)
    cloner = optimal_cloner(d, n, m)
    product, mirror = product_embedding_channel(d, n, m), mirror_embedding_channel(d, n, m)
    channels = {
        "product": product,
        "mirror": mirror,
        "conjugated-cloner": conjugate_output(cloner, haar_random_unitary(d**m, stream.substream(0))),
        "conjugated-product": conjugate_output(product, haar_random_unitary(d**m, stream.substream(1))),
        "cloner-product": mixture_channel(cloner, product, 0.3),
        "noise-mirror": mixture_channel(symmetric_noise_channel(d, n, m), mirror, 0.6),
    }
    for anc in range(1, d**m + 1):
        channels[f"random-{anc}"] = random_isometry_channel(d, n, m, stream.substream(1 + anc), anc)
    return channels


@pytest.mark.parametrize("d, n, m", FULL_OUTPUT_CASES)
def test_full_output_evaluators_match_the_oracles(d, n, m):
    # exact averages against the dense Choi matrix, per-state fidelities and
    # the Monte Carlo kernels against round-by-round full tensor powers
    states = [haar_random_state(d, RandomStream(9100 + 10 * d + m, i)) for i in range(12)]
    psi = np.stack([s.amplitudes for s in states])
    for label, ch in full_output_channels(d, n, m).items():
        assert not ch.sym_out, label
        got = haar_avg_global_fidelity(ch)
        assert abs(got - dense_oracle.haar_avg_global_fidelity(ch)) <= TOL, label
        for k in range(1, m + 1):
            got = single_clone_haar_fidelity(ch, k)
            assert abs(got - dense_oracle.single_clone_haar_fidelity(ch, k)) <= TOL, label
        want = np.array([mc_oracle.global_round_fidelity(ch, s) for s in states])
        assert np.max(np.abs([global_fidelity(ch, s) for s in states] - want)) <= TOL, label
        assert np.max(np.abs(state_payoffs("cloning", ch, psi) - want)) <= TOL, label
        want = [np.mean([mc_oracle.one_particle_round_fidelity(ch, s, c) for c in range(1, m + 1)])
                for s in states]
        assert np.max(np.abs(state_payoffs("one_particle", ch, psi) - want)) <= TOL, label


@pytest.mark.parametrize("d, n, m", FULL_OUTPUT_CASES)
def test_sym_out_per_state_evaluators_match_the_oracles(d, n, m):
    # Sym_out rows take the other branch of the row builder: the whole output
    # as it is, each clone through sym_split(d, m - 1, 1)
    states = [haar_random_state(d, RandomStream(9200 + 10 * d + m, i)) for i in range(12)]
    psi = np.stack([s.amplitudes for s in states])
    channels = {"optimal": optimal_cloner(d, n, m), "noise": symmetric_noise_channel(d, n, m)}
    for label, ch in channels.items():
        assert ch.sym_out, label
        want = np.array([mc_oracle.global_round_fidelity(ch, s) for s in states])
        assert np.max(np.abs(state_payoffs("cloning", ch, psi) - want)) <= TOL, label
        clones = []
        for k in range(1, m + 1):
            clones.append([mc_oracle.one_particle_round_fidelity(ch, s, k) for s in states])
            rows = _choi_rows(d, n, m, ch.kraus, k)
            assert np.max(np.abs(_state_fidelities(n, 1, rows, psi) - clones[-1])) <= TOL, label
        want = np.mean(clones, axis=0)
        assert np.max(np.abs(state_payoffs("one_particle", ch, psi) - want)) <= TOL, label


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("d, n, m", ORACLE_CASES)
def test_completeness_defect_is_the_svd_norm(kind, d, n, m):
    ch = make_channel(kind, d, n, m)
    got = float(_completeness_defects(np.asarray(ch.kraus)))
    assert abs(got - dense_oracle.completeness_defect(ch)) <= 1e-14


def estimation_strategies(n):
    """The two aligned POVMs, then two misaligned perturbations of each."""
    aligned = [universal_povm(n), build_povm(n, default_directions(n))]
    misaligned = []
    for i, povm in enumerate(aligned):
        misaligned += povm_perturbations(povm, 2, RandomStream(8000 + 10 * n + i))
    return aligned + misaligned


@pytest.mark.parametrize("n", range(1, 9))
def test_estimation_evaluators_match_dense_oracle(n):
    lift = np.kron(sym_isometry(2, n), np.eye(2))
    psi = haar_random_state(2, RandomStream(8100 + n))
    inputs = (psi, PureState.basis(2, 0), PureState.basis(2, 1))
    for povm in estimation_strategies(n):
        for phi in inputs:
            got = povm.outcome_probabilities(phi)
            assert np.max(np.abs(got - dense_oracle.outcome_probabilities(povm, phi))) <= TOL
            assert abs(pointwise_payoff(povm, phi) - dense_oracle.pointwise_payoff(povm, phi)) <= TOL
        dense = dense_oracle.payoff_operator(povm)
        assert np.max(np.abs(lift @ payoff_operator(povm) @ lift.T - dense)) <= TOL
        assert abs(mean_fidelity(povm) - dense_oracle.mean_fidelity(povm)) <= TOL


@pytest.mark.parametrize("ancilla_dim", [None, 2, 3])
@pytest.mark.parametrize("d, n, m", [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 3)])
def test_random_isometry_matches_full_unitary_columns(d, n, m, ancilla_dim):
    # several substreams, so that some QR factor has a negative diagonal to fix
    for counter in range(4):
        stream = RandomStream(8200 + 100 * d + 10 * n + m, counter)
        ch = random_isometry_channel(d, n, m, stream, ancilla_dim)
        stream = RandomStream(8200 + 100 * d + 10 * n + m, counter)
        want = dense_oracle.random_isometry_kraus(d, n, m, stream, ancilla_dim)
        assert len(ch.kraus) == len(want)
        # the channel keeps each block's restriction to Sym_in
        iso = sym_isometry(d, n)
        assert max(np.max(np.abs(k - w @ iso)) for k, w in zip(ch.kraus, want)) <= TOL


@pytest.mark.parametrize("d, n, m", [(2, 1, 2), (2, 3, 5), (3, 2, 3), (4, 1, 2)])
def test_split_map_is_the_product_of_isometries(d, n, m):
    want = np.kron(sym_isometry(d, n), sym_isometry(d, m)).T @ sym_isometry(d, n + m)
    assert np.max(np.abs(sym_split(d, n, m) - want)) <= TOL


@pytest.fixture
def copy_limit(monkeypatch):
    """Make the evaluators fail on any symmetric object over more copies than `limit[0]`."""
    limit = [0]

    def guarded(fn):
        def wrapper(d, n, *args, **kwargs):
            if n > limit[0]:
                raise AssertionError(f"built a {fn.__name__} on {n} copies")
            return fn(d, n, *args, **kwargs)

        return wrapper

    for module in (qgames.cloning, qgames.estimation, qgames.harness):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()  # rebuild cached operators under the guard
        for name in ("sym_projector", "sym_isometry"):
            fn = getattr(qgames.symmetric, name)
            monkeypatch.setattr(module, name, guarded(fn), raising=False)
    return limit


@pytest.mark.parametrize("d, n, m", [(2, 4, 6), (3, 3, 4), (4, 2, 3)])
def test_cloning_evaluators_stay_on_registers(copy_limit, d, n, m):
    copy_limit[0] = max(n, m)
    ch = optimal_cloner(d, n, m)
    assert ch.choi.shape == (dim_sym(d, n) * dim_sym(d, m),) * 2
    haar_avg_global_fidelity(ch)
    for k in range(1, m + 1):
        single_clone_haar_fidelity(ch, k)


def test_symmetric_output_games_build_no_register_above_three_copies(copy_limit, tmp_path):
    # the optimal cloner and its rounds live on Sym_in -> Sym_out: no isometry
    # or projector of the 10-, 12- or 20-copy registers is needed
    copy_limit[0] = 3
    out = tmp_path / "doc.json"
    runs = [
        ["clone", "--d", "2", "--n", "10", "--m", "20"],
        ["mc-play", "--game", "cloning", "--d", "2", "--n", "1", "--m", "12",
         "--samples", "600", "--seed", "4"],
        ["mc-play", "--game", "one_particle", "--d", "2", "--n", "1", "--m", "12",
         "--samples", "600", "--seed", "4"],
    ]
    docs = []
    for argv in runs:
        assert main(argv + ["--out", str(out)]) == 0
        docs.append(json.loads(out.read_text()))
    assert abs(docs[0]["measured_global_fidelity"] - docs[0]["global_value"]) <= TOL
    assert max(abs(f - docs[0]["single_value"])
               for f in docs[0]["measured_single_fidelities"]) <= TOL
    for doc in docs[1:]:
        assert abs(doc["z_score"]) <= 5.0


@pytest.mark.parametrize("n", [4, 8, 11])
def test_estimation_evaluators_stay_on_registers(copy_limit, n):
    copy_limit[0] = n
    povm = universal_povm(n)
    assert payoff_operator(povm).shape == (2 * (n + 1),) * 2
    mean_fidelity(povm)
    povm.outcome_probabilities(haar_random_state(2, RandomStream(n)))


def test_largest_capped_arities_stay_small():
    # a dense Choi matrix or (n+m)-copy projector here would take 134-268 MB
    def evaluate():
        ch = optimal_cloner(2, 5, 7)
        haar_avg_global_fidelity(ch)
        single_clone_haar_fidelity(ch, 1)
        mean_fidelity(universal_povm(11))

    peak = peak_bytes(evaluate)
    assert peak <= 32 * 2**20

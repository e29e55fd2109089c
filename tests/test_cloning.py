import json
import logging
import math
from fractions import Fraction

import numpy as np
import pytest

import qgames.cli
import qgames.cloning
import qgames.core
from qgames.cli import main
from qgames.cloning import (
    COMPLETENESS_ATOL,
    Channel,
    _checked_defects,
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
    partial_trace_matrix,
    tensor_power,
)
from qgames.estimation import bloch_state, design_directions
from qgames.symmetric import dim_sym

import dense_oracle
from conftest import mirror_embedding_channel, peak_bytes
from dense_oracle import apply_matrix_via_choi

KET0 = PureState.basis(2, 0)

CLONER_CASES = [(2, 1, 2), (2, 1, 3), (2, 2, 3), (3, 1, 2), (4, 1, 2)]


class TestOptimalClonerConstruction:
    def test_equal_copies_is_identity_on_inputs(self, rng):
        ch = optimal_cloner(2, 1, 1)
        for i in range(10):
            psi = haar_random_state(2, rng.substream(i))
            out = DensityOperator(apply_matrix_via_choi(ch, psi.density().matrix))
            assert np.max(np.abs(out.matrix - psi.density().matrix)) <= 1e-12
            assert global_fidelity(ch, psi) == pytest.approx(1.0)

    def test_one_to_two_on_ket0_hand_expanded(self):
        # (2/3)(|00><00| + 1/2 |Psi+><Psi+|), expanded by hand
        expected = np.zeros((4, 4))
        expected[0, 0] = 2.0 / 3.0
        for i in (1, 2):
            for j in (1, 2):
                expected[i, j] = 1.0 / 6.0
        out = DensityOperator(apply_matrix_via_choi(optimal_cloner(2, 1, 2), KET0.density().matrix))
        assert np.max(np.abs(out.matrix - expected)) <= 1e-12

    def test_trace_preserving_on_symmetric_inputs(self, rng):
        for d, n, m in [(2, 2, 3), (2, 1, 2), (3, 1, 2)]:
            ch = optimal_cloner(d, n, m)
            for i in range(50):
                psi = haar_random_state(d, rng.substream(1000 + i))
                rho = tensor_power(psi, n).density()
                out = apply_matrix_via_choi(ch, rho.matrix)
                assert abs(np.trace(out).real - 1.0) <= 1e-10

    def test_invalid_arity(self):
        with pytest.raises(InvalidArity):
            optimal_cloner(2, 2, 1)

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            optimal_cloner(3, 10, 12)  # Choi side 66 * 91 = 6006 over the cap

    def test_lowered_cap_refuses_before_allocating(self, monkeypatch, tmp_path):
        # one cap, read on every call: lowering it moves every check, and each
        # refusal comes before the split map, the moment or a clone's rows
        ch = optimal_cloner(2, 1, 2)
        monkeypatch.setattr(qgames.core, "DEFAULT_SIZE_CAP", 3)

        def refuse(*args):
            raise AssertionError("built an operator past the cap")

        for name in ("sym_split", "_transposed_moment", "_choi_rows"):
            monkeypatch.setattr(qgames.cloning, name, refuse)
        with pytest.raises(SizeCapExceeded, match="total dimension 6 exceeds size cap 3"):
            optimal_cloner(2, 1, 2)
        with pytest.raises(SizeCapExceeded, match="total dimension 6 exceeds size cap 3"):
            haar_avg_global_fidelity(ch)
        with pytest.raises(SizeCapExceeded, match="total dimension 4 exceeds size cap 3"):
            single_clone_haar_fidelity(ch, 1)
        out = tmp_path / "doc.json"
        assert main(["clone", "--d", "2", "--n", "1", "--m", "2", "--out", str(out)]) == 1
        assert json.loads(out.read_text())["error"] == {
            "type": "SizeCapExceeded", "message": "total dimension 6 exceeds size cap 3"}

    @pytest.mark.parametrize("d, n, m", [(2, 6, 7), (2, 10, 20), (2, 30, 30), (3, 4, 6),
                                         (3, 5, 6), (4, 3, 4)])
    def test_symmetric_output_reaches_high_arity(self, d, n, m):
        # Kraus operators act Sym_in -> Sym_out, so the caps count dim_sym, not d^(n+m)
        ch = optimal_cloner(d, n, m)
        assert ch.sym_out and ch.kraus.shape == (dim_sym(d, m - n), dim_sym(d, m), dim_sym(d, n))
        values = value_formulas(d, n, m)
        assert abs(haar_avg_global_fidelity(ch) - values.global_value) <= 1e-12
        for k in range(1, m + 1):
            assert abs(single_clone_haar_fidelity(ch, k) - values.single_value) <= 1e-12


class TestChannelMechanics:
    def test_output_hermitian(self, rng):
        ch = optimal_cloner(2, 2, 3)
        for i in range(10):
            psi = haar_random_state(2, rng.substream(i))
            out = apply_matrix_via_choi(ch, tensor_power(psi, 2).density().matrix)
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12

    def test_rejects_non_trace_preserving(self):
        bad = [np.array([[0.5, 0.0], [0.0, 0.5]])]
        with pytest.raises(ValueError, match="trace preserving"):
            Channel(2, 1, 1, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, monkeypatch, bad):
        # refused before the completeness eigensolve, which would not converge
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args, **kwargs: calls.append(args))
        kraus = np.eye(2, dtype=complex)[None].copy()
        kraus[0, 1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Channel(2, 1, 1, kraus)
        assert calls == []

    @staticmethod
    def spied_eigensolves(monkeypatch):
        """Shapes of the matrices `np.linalg.eigvalsh` is called on from now on."""
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        return calls

    def test_construction_leaves_the_choi_matrix_unbuilt(self, monkeypatch, tmp_path):
        # no eigensolve is wider than the 31 x 31 completeness defect: the
        # Choi matrix (side 961) is neither built nor diagonalised
        shapes = self.spied_eigensolves(monkeypatch)
        ch = optimal_cloner(2, 30, 30)
        assert all(shape[-1] <= 31 for shape in shapes)
        assert "choi" not in vars(ch)
        built = []

        def cloner(*args):
            built.append(optimal_cloner(*args))
            return built[-1]

        monkeypatch.setattr(qgames.cli, "optimal_cloner", cloner)
        argv = ["clone", "--d", "2", "--n", "30", "--m", "30", "--out", str(tmp_path / "doc.json")]
        assert main(argv) == 0
        assert len(built) == 1 and "choi" not in vars(built[0])
        assert ch.choi.shape == (961, 961) and "choi" in vars(ch)

    def test_complete_batch_passes_without_an_eigensolve(self, monkeypatch, rng):
        kraus = np.stack([random_isometry_channel(2, 1, 2, rng.substream(i)).kraus
                          for i in range(5)])
        calls = self.spied_eigensolves(monkeypatch)
        _checked_defects(kraus)
        assert calls == []

    def test_frobenius_excess_falls_back_to_the_operator_norm(self, monkeypatch):
        # defect diag(0.8e-10, 0.8e-10): operator norm 0.8e-10 is within the
        # tolerance, the Frobenius norm 1.13e-10 is not, so the eigensolve decides
        kraus = math.sqrt(1.0 + 0.8e-10) * np.eye(2)[None]
        defect = np.linalg.norm(np.eye(2) * 0.8e-10)
        assert defect > COMPLETENESS_ATOL >= float(_completeness_defects(kraus.astype(complex)))
        calls = self.spied_eigensolves(monkeypatch)
        ch = Channel(2, 1, 1, kraus)
        assert calls == [(2, 2)]
        assert np.allclose(ch.kraus, kraus)

    def test_defect_above_the_tolerance_is_refused_by_name(self, monkeypatch):
        kraus = math.sqrt(1.0 + 1.2e-10) * np.eye(2)[None]
        calls = self.spied_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match=r"^Kraus operators not trace preserving on Sym_in "
                                             r"\(defect 1\.200e-10 > 1e-10\)$"):
            Channel(2, 1, 1, kraus)
        assert calls == [(2, 2)]
        # in a batch, the message names the worst channel's defect
        batch = np.stack([np.eye(2)[None], kraus, math.sqrt(1.0 + 3e-10) * np.eye(2)[None]])
        with pytest.raises(ValueError, match=r"\(defect 3\.000e-10 > 1e-10\)$"):
            _checked_defects(batch.astype(complex))

    def test_non_finite_batch_refused_before_any_eigensolve(self, monkeypatch):
        batch = np.stack([np.eye(2, dtype=complex)[None]] * 3)
        batch[1, 0, 1, 1] = np.nan
        calls = self.spied_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match="non-finite"):
            _checked_defects(batch)
        assert calls == []

    def test_stack_is_converted_once_into_a_private_copy(self):
        kraus = optimal_cloner(2, 1, 3).kraus.copy()
        ch = Channel(2, 1, 3, kraus)
        assert ch.kraus.flags.c_contiguous and not ch.kraus.flags.writeable
        assert not np.shares_memory(ch.kraus, kraus) and kraus.flags.writeable
        kraus[0, 0, 0] = 7.0
        assert np.array_equal(ch.kraus, optimal_cloner(2, 1, 3).kraus)
        # a transposed view is stored C-contiguous; lists of operators still work
        view = np.ascontiguousarray(kraus.transpose(0, 2, 1)).transpose(0, 2, 1)
        view[0, 0, 0] = ch.kraus[0, 0, 0]
        assert Channel(2, 1, 3, view).kraus.flags.c_contiguous
        assert np.array_equal(Channel(2, 1, 3, list(view)).kraus, ch.kraus)

    @pytest.mark.parametrize("kraus, message", [
        ([], "needs at least one Kraus operator"),
        (np.zeros((0, 3, 2)), "needs at least one Kraus operator"),
        (np.zeros((1, 5, 2)), r"shape \(5, 2\) is neither \(3, 2\) .* nor \(4, 2\)"),
        ([np.zeros((5, 2)), np.zeros((3, 2))], r"shape \(5, 2\) is neither"),
        ([np.zeros((3, 2)), np.zeros((4, 2))], r"shapes \(3, 2\) and \(4, 2\) differ"),
        (np.zeros((2, 3)), r"shape \(3,\) is neither"),
        (np.zeros((1, 1, 3, 2)), r"shape \(1, 3, 2\) is neither"),
    ])
    def test_shape_messages(self, kraus, message):
        with pytest.raises(ShapeError, match=message):
            Channel(2, 1, 2, kraus)

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ShapeError):
            Channel(2, 1, 2, [np.eye(2)])
        with pytest.raises(ShapeError):  # full-space input columns
            Channel(2, 2, 2, [np.eye(4)])
        with pytest.raises(ShapeError):  # rows neither Sym_out (3) nor full (4)
            Channel(2, 1, 2, [np.zeros((5, 2))])
        with pytest.raises(ShapeError):  # the two row counts mixed
            Channel(2, 1, 2, [np.zeros((3, 2)), np.zeros((4, 2))])

    def test_output_representation_read_from_row_count(self, rng):
        sym, full = optimal_cloner(2, 1, 3), product_embedding_channel(2, 1, 3)
        assert sym.sym_out and sym.kraus.shape[1] == 4
        assert not full.sym_out and full.kraus.shape[1] == 8
        # equal row counts (one output copy) mean one basis
        assert optimal_cloner(3, 1, 1).sym_out and product_embedding_channel(3, 1, 1).sym_out
        assert mixture_channel(sym, symmetric_noise_channel(2, 1, 3), 0.5).sym_out
        assert not mixture_channel(sym, full, 0.5).sym_out
        assert not conjugate_output(sym, haar_random_unitary(8, rng)).sym_out

    def test_choi_psd_and_cached(self):
        ch = optimal_cloner(2, 1, 2)
        assert np.linalg.eigvalsh(ch.choi).min() >= -1e-10
        with pytest.raises(ValueError):
            ch.choi[0, 0] = 1.0  # read-only cache

    @pytest.mark.parametrize("make", [
        lambda rng: random_isometry_channel(2, 1, 2, rng, ancilla_dim=3),
        lambda rng: optimal_cloner(2, 2, 3),
    ])
    def test_kraus_read_only_and_defect_sums_each_operator(self, rng, make):
        ch = make(rng)
        with pytest.raises(ValueError):
            ch.kraus[0][0, 0] = 1.0
        total = sum(k.conj().T @ k for k in ch.kraus)
        want = np.linalg.norm(total - np.eye(total.shape[0]), 2)
        assert abs(float(_completeness_defects(np.asarray(ch.kraus))) - want) <= 1e-14

    def test_construction_logs_dimensions(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="qgames"):
            optimal_cloner(2, 2, 3)
        (record,) = [r for r in caplog.records if r.name == "qgames.cloning"]
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert "2 Kraus operators of shape 4 x 3 (Sym_out output)" in message
        assert "Choi side 12" in message and "full in (x) out: 32" in message


class TestGlobalFidelity:
    def test_one_to_two_ket0(self):
        assert global_fidelity(optimal_cloner(2, 1, 2), KET0) == pytest.approx(2.0 / 3.0)

    def test_two_to_three_ket0(self):
        psi = PureState.basis(2, 0)
        assert global_fidelity(optimal_cloner(2, 2, 3), psi) == pytest.approx(0.75)

    def test_qutrit_one_to_two(self, rng):
        ch = optimal_cloner(3, 1, 2)
        psi = haar_random_state(3, rng)
        assert global_fidelity(ch, psi) == pytest.approx(0.5, abs=1e-12)

    def test_universality_low_spread(self, rng):
        # the optimal cloner's fidelity does not depend on the input state
        ch = optimal_cloner(2, 1, 2)
        fids = [
            global_fidelity(ch, haar_random_state(2, rng.substream(i)))
            for i in range(100)
        ]
        assert np.std(fids) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            global_fidelity(optimal_cloner(2, 1, 2), PureState.basis(3, 0))


class TestHaarAverages:
    @pytest.mark.parametrize("d, n, m", CLONER_CASES)
    def test_exact_global_average_matches_dimension_ratio(self, d, n, m):
        value = haar_avg_global_fidelity(optimal_cloner(d, n, m))
        assert abs(value - dim_sym(d, n) / dim_sym(d, m)) <= 1e-10

    def test_monte_carlo_oracle_agrees(self):
        ch = optimal_cloner(2, 1, 3)
        stream = RandomStream(99)
        count = 10_000
        fids = np.array(
            [global_fidelity(ch, haar_random_state(2, stream.substream(i))) for i in range(count)]
        )
        stderr = fids.std() / math.sqrt(count) + 1e-12
        assert abs(fids.mean() - haar_avg_global_fidelity(ch)) <= 3.0 * stderr + 1e-10

    def test_embedding_channel_average(self):
        # rho (x) I/2 keeps the original: global fidelity 1 * 1/2 everywhere
        ch = product_embedding_channel(2, 1, 2)
        assert haar_avg_global_fidelity(ch) == pytest.approx(0.5, abs=1e-12)

    def test_noise_channel_average_is_inverse_bose_dimension(self):
        ch = symmetric_noise_channel(2, 1, 2)
        assert haar_avg_global_fidelity(ch) == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestSingleCloneFidelity:
    @pytest.mark.parametrize("d, n, m", CLONER_CASES)
    def test_matches_one_particle_closed_form(self, d, n, m):
        ch = optimal_cloner(d, n, m)
        want = value_formulas(d, n, m).single_value
        values = [single_clone_haar_fidelity(ch, k) for k in range(1, m + 1)]
        for got in values:
            assert abs(got - want) <= 1e-10
        assert max(values) - min(values) <= 1e-10  # clone symmetry

    def test_identity_channel_perfect(self):
        assert single_clone_haar_fidelity(optimal_cloner(2, 1, 1), 1) == pytest.approx(1.0)

    def test_qutrit_value(self):
        got = single_clone_haar_fidelity(optimal_cloner(3, 1, 2), 1)
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_embedding_channel_asymmetric_clones(self):
        ch = product_embedding_channel(2, 1, 2)
        assert single_clone_haar_fidelity(ch, 1) == pytest.approx(1.0, abs=1e-12)
        assert single_clone_haar_fidelity(ch, 2) == pytest.approx(0.5, abs=1e-12)

    def test_clone_index_out_of_range(self):
        ch = optimal_cloner(2, 1, 2)
        with pytest.raises(IndexError):
            single_clone_haar_fidelity(ch, 0)
        with pytest.raises(IndexError):
            single_clone_haar_fidelity(ch, 3)

    def test_monte_carlo_oracle_agrees(self):
        ch = optimal_cloner(2, 1, 2)
        stream = RandomStream(55)
        count = 5_000
        vals = []
        for i in range(count):
            psi = haar_random_state(2, stream.substream(i))
            out = DensityOperator(apply_matrix_via_choi(ch, tensor_power(psi, 1).density().matrix))
            red = DensityOperator(partial_trace_matrix(out.matrix, [2, 2], keep=[0]))
            vals.append(float(np.vdot(psi.amplitudes, red.matrix @ psi.amplitudes).real))
        vals = np.array(vals)
        stderr = vals.std() / math.sqrt(count) + 1e-12
        assert abs(vals.mean() - 5.0 / 6.0) <= 3.0 * stderr


def qubit_channels(n, m):
    """The optimal cloner, both embeddings, a random isometry and a mixture, qubit arity (n, m)."""
    cloner = optimal_cloner(2, n, m)
    product = product_embedding_channel(2, n, m)
    return {
        "optimal": cloner,
        "product": product,
        "mirror": mirror_embedding_channel(2, n, m),
        "random": random_isometry_channel(2, n, m, RandomStream(6100 + 10 * n + m), ancilla_dim=3),
        "mixture": mixture_channel(cloner, product, 0.3),
    }


class TestEvaluatorsAgree:
    # A channel's fidelity on psi is a degree-(n + m) polynomial in the Bloch
    # vector of psi and one clone's a degree-(n + 1) one, so the weighted
    # points of design_directions(n + m - 1) integrate both exactly: the
    # per-state evaluator's design mean is the Haar evaluator's value, and
    # the two share no moment matrix.
    @pytest.mark.parametrize("n, m", [(1, 2), (1, 3), (2, 3)])
    def test_haar_value_is_the_design_mean_of_per_state_values(self, n, m):
        dirs, weights = design_directions(n + m - 1)
        psi = np.stack([bloch_state(u).amplitudes for u in dirs])
        for label, ch in qubit_channels(n, m).items():
            rows = _choi_rows(2, n, m, ch.kraus, 0)
            mean = weights @ _state_fidelities(n, m, rows, psi)
            assert abs(mean - haar_avg_global_fidelity(ch)) <= 1e-13, label
            clones = []
            for k in range(1, m + 1):
                rows = _choi_rows(2, n, m, ch.kraus, k)
                mean = weights @ _state_fidelities(n, 1, rows, psi)
                clones.append(single_clone_haar_fidelity(ch, k))
                assert abs(mean - clones[-1]) <= 1e-13, (label, k)
            # a clone picked uniformly at random
            rows = _choi_rows(2, n, m, ch.kraus, None)
            mean = weights @ _state_fidelities(n, 1, rows, psi)
            assert abs(mean - np.mean(clones)) <= 1e-13, label


class TestValueFormulas:
    def test_one_to_two_qubit(self):
        v = value_formulas(2, 1, 2)
        assert v.global_value == pytest.approx(2.0 / 3.0)
        assert v.single_value == pytest.approx(5.0 / 6.0)
        assert v.asym_bound == pytest.approx(5.0 / 3.0)

    def test_trivial_cloning(self):
        v = value_formulas(2, 1, 1)
        assert (v.global_value, v.single_value, v.asym_bound) == (1.0, 1.0, 1.0)

    def test_two_to_three(self):
        v = value_formulas(2, 2, 3)
        assert v.global_value == pytest.approx(0.75)
        assert v.single_value == pytest.approx(11.0 / 12.0)
        assert v.asym_bound == pytest.approx(11.0 / 4.0)

    def test_invalid(self):
        with pytest.raises(InvalidArity):
            value_formulas(2, 3, 2)

    def test_values_are_the_nearest_floats_of_the_rationals(self):
        # int true division and Fraction both round the exact ratio correctly
        for d in range(1, 8):
            for n in range(1, 41):
                for m in range(n, 81):
                    numer = n * (d + m) + m - n
                    want = (float(Fraction(math.comb(d + n - 1, n), math.comb(d + m - 1, m))),
                            float(Fraction(numer, (d + n) * m)), float(Fraction(numer, d + n)))
                    got = value_formulas(d, n, m)
                    got = (got.global_value, got.single_value, got.asym_bound)
                    assert got == want, (d, n, m)
                    assert all(type(v) is float for v in got)


class TestChannelFamilies:
    def test_random_isometry_channels_are_channels(self, rng):
        for i in range(25):
            ch = random_isometry_channel(2, 1, 2, rng.substream(i))
            assert dense_oracle.completeness_defect(ch) <= 1e-10
            assert haar_avg_global_fidelity(ch) <= 2.0 / 3.0 + 1e-9

    def test_random_isometry_too_narrow_refused_before_drawing(self, monkeypatch):
        # (2, 3, 1) with the default ancilla has a 4-row Ginibre side for 8 columns
        stream = RandomStream(1)
        draws = []

        def spy(count):
            draws.append(count)
            return np.zeros(count, dtype=complex)

        monkeypatch.setattr(stream, "complex_normals", spy)
        with pytest.raises(InvalidArity):
            random_isometry_channel(2, 3, 1, stream)
        assert draws == []
        ch = random_isometry_channel(2, 3, 1, RandomStream(1), ancilla_dim=8)
        assert ch.kraus.shape == (8, 2, 4)
        assert dense_oracle.completeness_defect(ch) <= 1e-10

    def test_unitary_conjugation_stays_a_channel(self, rng):
        base = optimal_cloner(2, 1, 2)
        u = haar_random_unitary(4, rng)
        ch = conjugate_output(base, u)
        assert dense_oracle.completeness_defect(ch) <= 1e-10

    def test_mixture_interpolates_fidelity(self):
        a = product_embedding_channel(2, 1, 2)
        b = optimal_cloner(2, 1, 2)
        mixed = mixture_channel(a, b, 0.25)
        want = 0.75 * 0.5 + 0.25 * (2.0 / 3.0)
        assert haar_avg_global_fidelity(mixed) == pytest.approx(want, abs=1e-12)

    def test_mirror_embedding(self):
        ch = mirror_embedding_channel(2, 1, 2)
        assert single_clone_haar_fidelity(ch, 1) == pytest.approx(0.5, abs=1e-12)
        assert single_clone_haar_fidelity(ch, 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("make, d, n, m", [
        # the embeddings' 2^13 output rows: an 8192-side identity and its
        # Kraus stacks, a 3.5 GiB peak, used to be built before any check
        (product_embedding_channel, 2, 1, 13),
        (mirror_embedding_channel, 2, 1, 13),
        # Choi side dim_sym(3, 1) * dim_sym(3, 60) = 3 * 1891 = 5673
        (symmetric_noise_channel, 3, 1, 60),
    ])
    def test_oversized_family_refused_before_building(self, make, d, n, m):
        def refuse():
            with pytest.raises(SizeCapExceeded):
                make(d, n, m)

        assert peak_bytes(refuse) <= 2**20

    def test_noise_channel_peak_is_about_twice_its_stack(self):
        # (3, 1, 20): 693 Kraus operators of 231 x 3, a 7.7 MB complex stack.
        # The stack is written once, as complex, and `Channel` copies it
        # once, after the completeness check
        stack = 693 * 231 * 3 * 16
        ch = []
        assert peak_bytes(lambda: ch.append(symmetric_noise_channel(3, 1, 20))) <= 2.2 * stack
        assert ch[0].kraus.nbytes == stack

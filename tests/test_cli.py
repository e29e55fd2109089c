import argparse
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qgames.cli
import qgames.estimation
import qgames.harness
from qgames.cli import build_parser, main, parse_args
from qgames.cloning import optimal_cloner, single_clone_haar_fidelity
from qgames.core import RandomStream

from conftest import peak_bytes
from render_oracle import render_csv, render_json

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_clone_defaults(self):
        config = parse_args(["clone", "--d", "2", "--n", "1", "--m", "2"])
        assert (config.d, config.n, config.m) == (2, 1, 2)
        assert config.format == "json"
        assert config.out is None

    def test_clone_bad_arity_exits_2(self):
        with pytest.raises(SystemExit) as info:
            parse_args(["clone", "--m", "1", "--n", "2"])
        assert info.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as info:
            parse_args(["clone", "--frobnicate", "3"])
        assert info.value.code == 2

    def test_missing_seed_rejected(self):
        with pytest.raises(SystemExit) as info:
            parse_args(["mc-play", "--game", "cloning"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "command",
        [["clone"], ["sandwich", "--game", "cloning", "--seed", "1"],
         ["asym-bound", "--seed", "1"], ["mc-play", "--game", "cloning", "--seed", "1"]],
    )
    def test_nonpositive_dimension_exits_2(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            parse_args(command + ["--d", "0"])
        assert info.value.code == 2
        assert "--d must be >= 1" in capsys.readouterr().err

    def test_estimate_csv_config(self):
        config = parse_args(["estimate", "--n", "3", "--format", "csv", "--out", "r.csv"])
        assert config.n == 3 and config.format == "csv" and config.out == "r.csv"

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            parse_args(["transmogrify"])
        assert info.value.code == 2


class TestCloneCommand:
    def test_json_document(self, capsys):
        code, out = run_cli(["clone", "--d", "2", "--n", "1", "--m", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "clone"
        assert doc["global_value"] == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert doc["single_value"] == pytest.approx(5.0 / 6.0, abs=1e-10)
        assert doc["asym_bound"] == pytest.approx(5.0 / 3.0, abs=1e-10)
        assert doc["measured_global_fidelity"] == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_csv_row(self, capsys):
        code, out = run_cli(["clone", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("command,d,n,m,global_value")

    @pytest.mark.parametrize("d, n, m", [(2, 4, 6), (3, 3, 4), (4, 2, 3)])
    def test_scores_one_clone(self, monkeypatch, capsys, d, n, m):
        # every clone of the optimal cloner has one reduced state, so the
        # command evaluates clone 1 once and repeats it; scoring each clone on
        # its own gives the same bits
        cloner = optimal_cloner(d, n, m)
        per_clone = [single_clone_haar_fidelity(cloner, k) for k in range(1, m + 1)]
        assert per_clone == [per_clone[0]] * m
        calls = []

        def spy(ch, k):
            calls.append(k)
            return single_clone_haar_fidelity(ch, k)

        monkeypatch.setattr(qgames.cli, "single_clone_haar_fidelity", spy)
        code, out = run_cli(["clone", "--d", str(d), "--n", str(n), "--m", str(m)], capsys)
        assert code == 0 and calls == [1]
        want = [float(f"{v:.12g}") for v in per_clone]
        assert json.loads(out)["measured_single_fidelities"] == want

    def test_inner_error_surfaces_as_document(self, capsys):
        # Choi side dim_sym(3, 10) * dim_sym(3, 12) = 6006 exceeds the cap
        code, out = run_cli(["clone", "--d", "3", "--n", "10", "--m", "12"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["error"]["type"] == "SizeCapExceeded"


class TestEstimateCommand:
    def test_value(self, capsys):
        code, out = run_cli(["estimate", "--n", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["mean_fidelity"] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert doc["completeness_residual"] <= 1e-8

    def test_universal_flag(self, capsys):
        code, out = run_cli(["estimate", "--n", "2", "--universal"], capsys)
        doc = json.loads(out)
        assert doc["universal"] is True
        assert doc["mean_fidelity"] == pytest.approx(0.75, abs=1e-9)

    @pytest.mark.parametrize("n", [40, 200])
    def test_oversized_payoff_operator_fails_fast(self, capsys, n):
        # n = 40 has 882 effects of side 41 (49 MB built by the time the old
        # caps ran); n = 200 has 20 402 effects of side 201 (13.2 GB).  The
        # effect stack's rows exceed the cap, which refuses before any effect.
        codes = []
        peak = peak_bytes(lambda: codes.append(main(["estimate", "--universal", "--n", str(n)])))
        code, out = codes[0], capsys.readouterr().out
        assert code == 1
        assert json.loads(out)["error"]["type"] == "SizeCapExceeded"
        assert peak <= 2**20

    def test_default_frame_fails_before_any_direction(self, capsys, monkeypatch):
        # the default frame has (n+1)^2 = 4 004 001 points at n = 2000, which
        # took 9.7 s and 725 MB to build before build_povm refused their
        # effect stack; the cap now refuses it before the first point
        made = []
        monkeypatch.setattr(qgames.estimation.Direction, "__post_init__",
                            lambda self: made.append(self))
        code, out = run_cli(["estimate", "--n", "2000"], capsys)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "SizeCapExceeded"
        assert made == []

    def test_payoff_operator_cap_counts_the_compressed_side(self, capsys):
        # 98 effects of side 13 and a 26 x 26 payoff operator
        code, out = run_cli(["estimate", "--universal", "--n", "12"], capsys)
        assert code == 0
        assert json.loads(out)["mean_fidelity"] == pytest.approx(13 / 14, abs=1e-12)


class TestSolveCommand:
    def test_rps_document(self, capsys):
        code, out = run_cli(["solve"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value"]) <= 1e-6
        assert doc["x"] == pytest.approx([1 / 3] * 3, abs=1e-3)
        assert doc["y"] == pytest.approx([1 / 3] * 3, abs=1e-3)


class TestSandwichCommand:
    def test_estimation(self, capsys):
        code, out = run_cli(["sandwich", "--game", "estimation", "--n", "1", "--seed", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["levels"]) == 3

    def test_qutrit_states_are_pinned(self, capsys, monkeypatch):
        # pinned fixed-seed results (seed scheme v3, whose first 256 items
        # seed scheme v7 keeps): the 16 Haar states are consecutive draws
        # from substream 0 of the seed, so state 0 is the draw seed scheme v2
        # made and the others moved.  Every row of this
        # game is constant, so the document itself shows the states only in
        # round-off; the pin reads |<0|psi>|^2 of the states the CLI solves on.
        columns = []
        real = qgames.harness.discretize_cloning_game

        def spy(d, n_in, n_out, channels, states):
            columns.append(states)
            return real(d, n_in, n_out, channels, states)

        monkeypatch.setattr(qgames.harness, "discretize_cloning_game", spy)
        code, out = run_cli(["sandwich", "--game", "cloning", "--d", "3", "--seed", "21"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert [lv["value"] for lv in doc["levels"]] == [0.5, 0.5, 0.5]
        assert [len(states) for states in columns] == [4, 8, 16]
        weights = [round(float(abs(psi.amplitudes[0]) ** 2), 12) for psi in columns[-1]]
        assert weights[:3] + weights[-1:] == [
            0.35808325066, 0.012773501067, 0.267452174468, 0.282812279932]

    def test_qutrit_document_is_pinned(self, capsys):
        # SHA-256 of the whole document, taken under seed scheme v5, whose
        # first 256 Haar states seed scheme v7 keeps
        code, out = run_cli(["sandwich", "--game", "cloning", "--d", "3", "--seed", "21"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "46c5a07db433423b51a8a1c5b0578839ff254e26739bd5a14d18ec619fd345c0")

    def test_cloning_csv(self, capsys):
        code, out = run_cli(
            ["sandwich", "--game", "cloning", "--n", "1", "--m", "2", "--seed", "3",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + three levels

    def test_oversized_embedding_is_a_size_cap_error(self, capsys):
        # player I's product embedding has 2^100 output rows; the cap refuses
        # it before numpy is asked for an identity of that side
        code, out = run_cli(
            ["sandwich", "--game", "cloning", "--d", "2", "--n", "1", "--m", "100",
             "--seed", "1"],
            capsys,
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "SizeCapExceeded"


class TestAsymBoundCommand:
    def test_small_scan(self, capsys):
        code, out = run_cli(
            ["asym-bound", "--samples", "20", "--grid", "5", "--seed", "9"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["max_sum_fidelity"] <= doc["bound"] + 1e-9
        assert len(doc["records"]) == 1 + 20 + 5

    def test_oversized_ginibre_draw_fails_fast(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(RandomStream, "complex_normals",
                            lambda self, count: calls.append(count))
        monkeypatch.setattr(RandomStream, "generator",
                            property(lambda self: calls.append("generator")))
        code, out = run_cli(
            ["asym-bound", "--d", "2", "--n", "1", "--m", "7", "--samples", "1", "--seed", "1"],
            capsys,
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "SizeCapExceeded"
        assert calls == []

    @pytest.mark.parametrize("grid", ["-1", "-2"])
    def test_negative_grid_exits_2(self, grid, capsys):
        # a negative grid used to scan no grid and echo itself into the document
        with pytest.raises(SystemExit) as info:
            parse_args(["asym-bound", "--grid", grid, "--seed", "1"])
        assert info.value.code == 2
        assert "--grid must be >= 0" in capsys.readouterr().err

    def test_empty_grid_is_accepted(self, capsys):
        code, out = run_cli(
            ["asym-bound", "--samples", "3", "--grid", "0", "--seed", "9"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["grid"] == 0
        assert [r["kind"] for r in doc["records"]] == ["optimal"] + ["random"] * 3

    def test_random_channels_are_pinned(self, capsys):
        # pinned fixed-seed results (seed scheme v3, whose first 256 items
        # seed scheme v7 keeps): the random channels are consecutive draws of
        # the Ginibre columns they keep from substream 0 of the seed, however
        # they are orthonormalised.  Channel 0 is the
        # draw seed scheme v2 made; v2 gave random-1 0.672871595548 and
        # random-2 0.641894096544
        code, out = run_cli(
            ["asym-bound", "--d", "3", "--n", "1", "--m", "2", "--samples", "20", "--seed", "21"],
            capsys,
        )
        assert code == 0
        records = json.loads(out)["records"]
        assert [(r["label"], r["sum_fidelity"]) for r in records[1:4]] == [
            ("random-0", 0.697734324261),
            ("random-1", 0.684799291099),
            ("random-2", 0.671778083111),
        ]


    @pytest.mark.parametrize("samples, args, digest", [
        ("1000", ["--d", "2", "--n", "1", "--m", "2"],
         "cb50bbf2502d93eaf971aeda4bb1a53c0c857ef63d1ebb839614da148559f60c"),
        ("1000", ["--d", "3", "--n", "1", "--m", "2"],
         "3f9edfae55d26d594f232cdcb023fcfaedfa4df15e878519da84433d3a32d95a"),
        ("1000", ["--d", "2", "--n", "1", "--m", "3"],
         "7ae5172e673da4cbdc9f3188b069907636a6faa983cb0f1e2de27d897ecb1f4b"),
        ("1000", ["--d", "2", "--n", "1", "--m", "2", "--format", "csv"],
         "637c772ebbd37deafa41d932f6e1e946445cd585cc939dad57693de63f3ff0fc"),
        # taken under seed scheme v3: v7 continues v3's first substream, so up
        # to 256 channels the documents stay byte for byte as they were
        ("256", ["--d", "2", "--n", "1", "--m", "2"],
         "84eeffd2042cac27f42ca7961f972ba9308c913f181c01edff87c87b1329ae83"),
        ("256", ["--d", "3", "--n", "1", "--m", "2"],
         "55dcd5d06b3c2e5b6246ea8d14d1c91372eb62a2e9d0c198ce5e3dd80dd419f5"),
        ("256", ["--d", "2", "--n", "1", "--m", "3"],
         "58cef7d3488512e3dbf3ef560d4d896cc3a9da7caf13ce93e97604ab5339358b"),
    ])
    def test_whole_documents_are_pinned(self, capsys, samples, args, digest):
        # SHA-256 of whole documents (seed scheme v7), so that a flip in the
        # 12th digit of any record fails.  Every random record of the three
        # 1000-channel JSON documents equals, at 12 digits, the per-channel
        # route of consecutive `random_isometry_channel` calls on substream 0.
        code, out = run_cli(["asym-bound", *args, "--samples", samples, "--seed", "5"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestMcPlayCommand:
    def test_cloning_document(self, capsys):
        code, out = run_cli(
            ["mc-play", "--game", "cloning", "--samples", "4000", "--seed", "12"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["z_score"]) <= 3.0
        assert doc["exact_value"] == pytest.approx(2.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("args", [
        ["--game", "one_particle", "--samples", "3000", "--seed", "0"],
        ["--game", "estimation", "--n", "2", "--samples", "500", "--seed", "3"],
        ["--game", "cloning", "--d", "3", "--n", "1", "--m", "3", "--samples", "700",
         "--seed", "4"],
        # one round scores +-1, whose sample error is 0
        ["--game", "cloning", "--samples", "1", "--seed", "1"],
    ])
    def test_z_score_divides_by_the_null_error(self, capsys, args):
        # the error of +-1 outcomes at the exact mean F, not at the observed
        # mean, which would shrink the error bar of a mean drifting to +1
        code, out = run_cli(["mc-play", *args], capsys)
        assert code == 0
        doc = json.loads(out)
        f, mean = doc["exact_value"], doc["mean_payoff"]
        null_error = math.sqrt((1.0 - f * f) / doc["samples"])
        assert doc["z_score"] == pytest.approx((mean - f) / null_error, rel=1e-9)
        assert doc["z_score"] != 0.0

    @pytest.mark.parametrize("game", ["cloning", "one_particle"])
    def test_z_score_is_zero_when_n_equals_m(self, capsys, game):
        # every round passes at F = 1, so the null error is 0
        code, out = run_cli(["mc-play", "--game", game, "--d", "3", "--n", "2", "--m", "2",
                             "--samples", "300", "--seed", "6"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["exact_value"], doc["mean_payoff"], doc["z_score"]) == (1.0, 1.0, 0.0)

    def test_byte_identical_given_seed(self, tmp_path):
        for name, args in [
            ("mc", ["mc-play", "--game", "estimation", "--n", "1", "--samples", "500",
                    "--seed", "21"]),
            ("sandwich", ["sandwich", "--game", "cloning", "--seed", "21"]),
            ("asym-bound", ["asym-bound", "--d", "3", "--samples", "20", "--seed", "21"]),
        ]:
            path_a = tmp_path / f"{name}-a.json"
            path_b = tmp_path / f"{name}-b.json"
            assert main(args + ["--out", str(path_a)]) == 0
            assert main(args + ["--out", str(path_b)]) == 0
            assert path_a.read_bytes() == path_b.read_bytes()

    @pytest.mark.parametrize(
        "game, mean_payoff",
        [("estimation", 0.628), ("cloning", 0.674), ("one_particle", 0.828)],
    )
    def test_fixed_seed_draw_sequence_is_pinned(self, capsys, game, mean_payoff):
        # pinned fixed-seed results (seed scheme v6, the universal POVM for
        # estimation): a change to the order or the number of draws per round
        # moves them, and the determinism contract forbids that.  Under v6
        # each game kind draws its states and its referee uniforms from two
        # substreams of its own substream of the seed.  Seed scheme v5 gave
        # estimation 0.646, cloning 0.66 and one_particle 0.87; v4 gave
        # estimation 0.626, cloning 0.626 and one_particle 0.832; schemes v2
        # and v3 gave estimation 0.668 and one_particle 0.84.
        code, out = run_cli(
            ["mc-play", "--game", game, "--samples", "1000", "--seed", "21"], capsys
        )
        assert code == 0
        assert json.loads(out)["mean_payoff"] == mean_payoff

    @pytest.mark.parametrize("seed, mean_payoffs", [
        (1, (0.8373, 0.6522, 0.585, 0.8363, 0.674)),
        (2, (0.8346, 0.6649, 0.5963, 0.8472, 0.6785)),
    ])
    def test_benchmark_games_are_pinned_at_20000_rounds(self, capsys, seed, mean_payoffs):
        # pinned fixed-seed results (seed scheme v6) of the five games of the
        # benchmark's mc-rounds workload, rendered to 12 digits: how the
        # rounds are scored in slices must not move an outcome.  Seed scheme
        # v5 gave (0.8323, 0.6643, 0.6119, 0.8301, 0.667) at seed 1 and
        # (0.8309, 0.6594, 0.605, 0.8316, 0.6698) at seed 2.
        games = [("estimation", 2, 4, 4), ("cloning", 2, 1, 2), ("cloning", 3, 2, 3),
                 ("one_particle", 2, 1, 2), ("one_particle", 3, 1, 3)]
        for (game, d, n, m), mean_payoff in zip(games, mean_payoffs):
            code, out = run_cli(
                ["mc-play", "--game", game, "--d", str(d), "--n", str(n), "--m", str(m),
                 "--samples", "20000", "--seed", str(seed)], capsys
            )
            assert code == 0
            assert json.loads(out)["mean_payoff"] == mean_payoff, game

    @pytest.mark.parametrize("n, m, seed, mean_payoff", [
        (1, 100, 1, -0.00633122292569),
        (1, 100, 2, 0.0716427857381),
        (2, 120, 1, -0.00233255581473),
        (2, 120, 2, 0.0789736754415),
    ])
    def test_cloning_at_a_hundred_copies_is_pinned(self, capsys, n, m, seed, mean_payoff):
        # global cloning rows pair with psi^{(x)m}, so these plays take
        # coherent coordinates at m >= 100 copies, where numpy's integer-power
        # loop hands over to cpow (seed scheme v6; v5 gave 0.0203265578141,
        # 0.0056647784072, 0.0263245584805 and 0.00899700099967)
        code, out = run_cli(
            ["mc-play", "--game", "cloning", "--d", "2", "--n", str(n), "--m", str(m),
             "--samples", "3001", "--seed", str(seed)], capsys
        )
        assert code == 0
        assert json.loads(out)["mean_payoff"] == mean_payoff

    @pytest.mark.parametrize("first, second", [
        (["estimation", "--n", "4", "--m", "4"], ["one_particle", "--n", "1", "--m", "2"]),
        (["estimation", "--n", "1", "--m", "1"], ["cloning", "--n", "1", "--m", "2"]),
    ])
    def test_game_kinds_draw_apart(self, capsys, first, second):
        # each pair scores the same value on every state ((n+1)/(n+2) and the
        # optimal cloner's), so under seed scheme v4, where every kind drew
        # from the same substreams, the two games replayed the same +-1
        # outcomes at every seed
        records = []
        for game in (first, second):
            code, out = run_cli(
                ["mc-play", "--game", *game, "--samples", "8000", "--seed", "1"], capsys
            )
            assert code == 0
            records.append(json.loads(out)["pass_rate"])
        assert records[0] != records[1]

    def test_estimation_plays_the_universal_povm_at_nine_copies(self, capsys):
        # the NNLS default frame cannot tile the identity at n = 9
        code, out = run_cli(
            ["mc-play", "--game", "estimation", "--n", "9", "--samples", "4000", "--seed", "91"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["exact_value"] == pytest.approx(10.0 / 11.0, abs=1e-12)
        assert abs(doc["z_score"]) <= 3.0

    def test_round_budget_fails_fast(self, capsys, monkeypatch):
        # a billion rounds used to run for about a quarter of an hour
        calls = []
        monkeypatch.setattr(RandomStream, "complex_normals",
                            lambda self, count: calls.append(count))
        monkeypatch.setattr(RandomStream, "generator",
                            property(lambda self: calls.append("generator")))
        code, out = run_cli(
            ["mc-play", "--game", "cloning", "--samples", "1000000000", "--seed", "1"], capsys
        )
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "SizeCapExceeded"
        assert "round budget" in error["message"]
        assert calls == []

    def test_estimation_rejects_non_qubit(self):
        with pytest.raises(SystemExit) as info:
            parse_args(["mc-play", "--game", "estimation", "--d", "3", "--seed", "1"])
        assert info.value.code == 2


class TestOutputDiscipline:
    def test_twelve_significant_digits(self, capsys):
        code, out = run_cli(["clone"], capsys)
        doc = json.loads(out)
        # 2/3 rounded to 12 significant digits
        assert doc["global_value"] == 0.666666666667

    def test_out_file_written(self, tmp_path, capsys):
        path = tmp_path / "result.json"
        code = main(["estimate", "--n", "1", "--out", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["command"] == "estimate"
        assert capsys.readouterr().out == ""


#: Strings a JSON writer must escape: quotes, backslashes, control
#: characters, non-ASCII letters, an astral-plane character and a lone surrogate.
AWKWARD_STRINGS = ["", "plain", 'say "hi"', "back\\slash", "\n\t\r\x00\x1f\x7f", "é",
                   "雪", "\U0001f600", "\ud800"]
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324,
                  1.7976931348623157e308, 2.0 / 3.0, np.float64(1.0 / 3.0), np.float64(-0.0),
                  np.float64(math.nan), np.float64(-math.inf)]
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(2**70), 2**70),
    st.floats(), st.floats().map(np.float64), st.sampled_from(SPECIAL_FLOATS),
    st.text(), st.sampled_from(AWKWARD_STRINGS),
)
KEYS = st.one_of(st.text(max_size=8), st.sampled_from(AWKWARD_STRINGS))
DOCUMENTS = st.recursive(
    SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(KEYS, kids, max_size=4)),
    max_leaves=25,
)

#: Every command, small, with the error document of a refused arity.
EVERY_COMMAND = [
    ["clone", "--d", "3", "--n", "1", "--m", "2"],
    ["estimate", "--n", "2"],
    ["estimate", "--universal", "--n", "3"],
    ["solve"],
    ["sandwich", "--game", "estimation", "--n", "1", "--seed", "3"],
    ["sandwich", "--game", "cloning", "--d", "3", "--seed", "3"],
    ["sandwich", "--game", "cloning", "--d", "2", "--n", "1", "--m", "100", "--seed", "3"],
    ["asym-bound", "--samples", "40", "--seed", "3"],
    ["asym-bound", "--d", "3", "--n", "1", "--m", "3", "--samples", "10", "--seed", "3"],
    ["mc-play", "--game", "estimation", "--samples", "300", "--seed", "3"],
    ["mc-play", "--game", "cloning", "--samples", "300", "--seed", "3"],
    ["mc-play", "--game", "one_particle", "--d", "3", "--samples", "300", "--seed", "3"],
]


class TestDocumentWriter:
    @settings(deadline=None, derandomize=True)
    @given(DOCUMENTS)
    @example({})
    @example([])
    @example({"a": [], "b": {}, "c": (), "d": [[], {}]})
    @example(SPECIAL_FLOATS)
    @example({s: s for s in AWKWARD_STRINGS})
    def test_json_text_is_the_standard_librarys(self, doc):
        assert qgames.cli._render_json(doc) == render_json(doc)

    @pytest.mark.parametrize("doc", [np.int64(3), {"a": object()}, [{1, 2}], np.bool_(True)])
    def test_unsupported_values_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            render_json(doc)
        with pytest.raises(TypeError):
            qgames.cli._render_json(doc)

    def test_keys_must_be_strings(self):
        with pytest.raises(TypeError):
            qgames.cli._render_json({1: 2})

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("args", EVERY_COMMAND, ids=lambda args: "-".join(args[:3]))
    def test_every_command_matches_the_oracle(self, monkeypatch, capsys, args, fmt):
        rendered = []
        if fmt == "json":
            real = qgames.cli._render_json

            def spy(doc):
                rendered.append((real(doc), render_json(doc)))
                return rendered[-1][0]

            monkeypatch.setattr(qgames.cli, "_render_json", spy)
        else:
            real = qgames.cli._render_csv

            def spy(rows):
                rows = list(rows)
                rendered.append((real(rows), render_csv(rows)))
                return rendered[-1][0]

            monkeypatch.setattr(qgames.cli, "_render_csv", spy)
        code, out = run_cli([*args, "--format", fmt], capsys)
        assert code in (0, 1)
        ((text, oracle),) = rendered
        assert text == oracle == out

    @pytest.mark.parametrize("args", [
        ["asym-bound", "--samples", "5", "--seed", "1"],
        ["sandwich", "--game", "estimation", "--n", "1", "--seed", "1"],
    ])
    def test_json_documents_leave_the_csv_rows_unbuilt(self, monkeypatch, capsys, args):
        returned = []
        runner = qgames.cli._RUNNERS[args[0]]

        def spy(config):
            returned.append(runner(config))
            return returned[-1]

        monkeypatch.setitem(qgames.cli._RUNNERS, args[0], spy)
        assert run_cli(args, capsys)[0] == 0
        ((_, rows, _),) = returned
        assert inspect.getgeneratorstate(rows) == inspect.GEN_CREATED
        # the same generator yields the rows --format csv writes
        assert run_cli([*args, "--format", "csv"], capsys)[1] == render_csv(rows)


def run_fresh(args):
    """Run `python <args>` in a new interpreter with src/ on the path: (exit code, stdout)."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True)
    return out.returncode, out.stdout


class TestSharedParser:
    def test_second_main_builds_no_parser(self, monkeypatch, capsys):
        assert main(["solve"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["solve"]) == 0
        assert built == []
        # the counter does see a build
        build_parser.cache_clear()
        assert main(["solve"]) == 0
        assert built

    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import qgames, qgames.cli\n"
            "print(len(built))\n"
        )
        assert run_fresh(["-c", code]) == (0, "0\n")

    def test_flag_does_not_leak_into_the_next_parse(self):
        assert parse_args(["estimate", "--universal", "--n", "2"]).universal is True
        assert parse_args(["estimate", "--n", "2"]).universal is False

    def test_values_do_not_leak_into_the_next_parse(self):
        config = parse_args(["clone", "--d", "3", "--n", "1", "--m", "2"])
        assert (config.d, config.n, config.m) == (3, 1, 2)
        config = parse_args(["clone"])
        assert (config.d, config.n, config.m) == (2, 1, 2)

    @pytest.mark.parametrize("rejected", [
        ["clone", "--m", "1", "--n", "2"],
        ["clone", "--frobnicate", "3"],
        ["mc-play", "--game", "cloning"],
    ])
    def test_rejected_parse_leaves_the_next_one_normal(self, rejected, capsys):
        with pytest.raises(SystemExit) as info:
            parse_args(rejected)
        assert info.value.code == 2
        config = parse_args(["mc-play", "--game", "one_particle", "--n", "2", "--m", "3",
                             "--seed", "5"])
        assert vars(config) == {
            "command": "mc-play", "game": "one_particle", "d": 2, "n": 2, "m": 3,
            "samples": 100000, "seed": 5, "out": None, "format": "json",
        }

    @pytest.mark.parametrize("args", [["--help"], ["clone", "--help"]])
    def test_help_is_the_same_on_every_call(self, args, capsys):
        build_parser.cache_clear()
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                parse_args(args)
            assert info.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith("usage: qgames")


#: One run of every command, and the expected estimate --n 9 failure between them.
REPEATED_RUNS = [
    ["clone", "--d", "3", "--n", "1", "--m", "2"],
    ["estimate", "--universal", "--n", "3"],
    ["solve", "--format", "csv"],
    ["sandwich", "--game", "estimation", "--n", "1", "--seed", "3"],
    ["estimate", "--n", "9"],
    ["asym-bound", "--samples", "20", "--seed", "3"],
    ["mc-play", "--game", "cloning", "--samples", "500", "--seed", "3"],
]


@pytest.fixture(scope="module")
def fresh_runs():
    return {tuple(args): run_fresh(["-m", "qgames.cli", *args]) for args in REPEATED_RUNS}


class TestRepeatedRuns:
    @pytest.mark.parametrize("order", [REPEATED_RUNS, REPEATED_RUNS[::-1]],
                             ids=["forward", "reverse"])
    def test_every_run_matches_a_fresh_process(self, order, fresh_runs, capsys):
        # two passes over every command in one process: whatever the shared
        # parser or the package caches carry over, each document must be
        # byte-identical to a new interpreter's
        assert fresh_runs[("estimate", "--n", "9")][0] == 1
        for _ in range(2):
            for args in order:
                code = main(list(args))
                assert (code, capsys.readouterr().out) == fresh_runs[tuple(args)], args

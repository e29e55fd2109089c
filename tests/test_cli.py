import json
import tracemalloc

import pytest

from qgames.cli import main, parse_args
from qgames.core import RandomStream


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
        tracemalloc.start()
        try:
            code, out = run_cli(["estimate", "--universal", "--n", str(n)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert json.loads(out)["error"]["type"] == "SizeCapExceeded"
        assert peak <= 2**20

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

    def test_cloning_csv(self, capsys):
        code, out = run_cli(
            ["sandwich", "--game", "cloning", "--n", "1", "--m", "2", "--seed", "3",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + three levels


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
        code, out = run_cli(
            ["asym-bound", "--d", "2", "--n", "1", "--m", "7", "--samples", "1", "--seed", "1"],
            capsys,
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "SizeCapExceeded"
        assert calls == []

    def test_random_channels_are_pinned(self, capsys):
        # pinned fixed-seed results: every random channel is drawn from the
        # whole Ginibre matrix of its substream, however it is orthonormalised
        code, out = run_cli(
            ["asym-bound", "--d", "3", "--n", "1", "--m", "2", "--samples", "20", "--seed", "21"],
            capsys,
        )
        assert code == 0
        records = json.loads(out)["records"]
        assert [(r["label"], r["sum_fidelity"]) for r in records[1:4]] == [
            ("random-0", 0.681790644642),
            ("random-1", 0.661895794648),
            ("random-2", 0.674109588843),
        ]


class TestMcPlayCommand:
    def test_cloning_document(self, capsys):
        code, out = run_cli(
            ["mc-play", "--game", "cloning", "--samples", "4000", "--seed", "12"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["z_score"]) <= 3.0
        assert doc["exact_value"] == pytest.approx(2.0 / 3.0, abs=1e-12)

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
        [("estimation", 0.68), ("cloning", 0.666), ("one_particle", 0.84)],
    )
    def test_fixed_seed_draw_sequence_is_pinned(self, capsys, game, mean_payoff):
        # pinned fixed-seed results: a change to the order or the number of
        # draws per round moves them, and the determinism contract forbids that
        code, out = run_cli(
            ["mc-play", "--game", game, "--samples", "1000", "--seed", "21"], capsys
        )
        assert code == 0
        assert json.loads(out)["mean_payoff"] == mean_payoff

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

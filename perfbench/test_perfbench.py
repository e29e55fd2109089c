"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import importlib
import json
import sys
import time
from pathlib import Path

import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
SEED = 5

# One small job of every kind the workloads use.
SMALL_JOBS = [
    run._cli_job("clone", "clone", ["clone", "--d", "2", "--n", "1", "--m", "3"]),
    run._cli_job("estimate", "estimate", ["estimate", "--universal", "--n", "3"]),
    run._cli_job("estimate-9", "estimate", ["estimate", "--n", "9"],
                 expect_error="IncompletePovm"),
    *[run._cli_job(f"mc-{kind}", "mc",
                   ["mc-play", "--game", kind, "--d", "2", "--n", "1", "--m", "2",
                    "--samples", "200", "--seed", str(SEED)])
      for kind in ("estimation", "cloning", "one_particle")],
    {"id": "frame-game", "part": "frame_game",
     "frame_game": {"n": 2, "rows": 4, "cols": 6, "tol": 1e-9}},
    run._cli_job("sandwich", "sandwich",
                 ["sandwich", "--game", "cloning", "--seed", str(SEED)]),
    run._cli_job("asym-bound", "asym_bound",
                 ["asym-bound", "--d", "2", "--n", "1", "--m", "2", "--samples", "20",
                  "--seed", str(SEED)]),
]


def test_traced_and_untraced_passes_write_byte_identical_documents(tmp_path):
    runner = run.PassRunner(ROOT, tmp_path, time.perf_counter())
    plain = runner.run(SMALL_JOBS)
    traced = runner.run(SMALL_JOBS, trace=True)
    assert [o["id"] for o in traced["jobs"]] == [j["id"] for j in SMALL_JOBS]
    assert all(o["doc"] for o in plain["jobs"])
    assert [o["doc"] for o in traced["jobs"]] == [o["doc"] for o in plain["jobs"]]
    assert traced["self_times"]["cli.main"][0] == sum("cli" in j for j in SMALL_JOBS)
    assert traced["self_times"]["zerosum.solve"][0] >= 1


def _bindings(qgames_modules, classes):
    snapshot = {}
    for module in qgames_modules:
        for attr, value in vars(module).items():
            snapshot[(module.__name__, attr)] = value
    for cls in classes:
        for attr, value in vars(cls).items():
            snapshot[(cls.__qualname__, attr)] = value
    return snapshot


def test_uninstall_restores_every_patched_binding(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    qgames = importlib.import_module("qgames")
    importlib.import_module("qgames.cli")
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "qgames"]
    classes = [qgames.Channel, qgames.RandomStream, qgames.Povm]
    before = _bindings(modules, classes)
    originals = {f"{layer}.{name}": getattr(sys.modules[f"qgames.{layer}"], name)
                 for layer, names in tracer.TARGETS.items()
                 for name in names if "." not in name and not name[0].isupper()}

    t = tracer.Tracer()
    t.install()
    try:
        for module in modules:
            for attr, value in vars(module).items():
                assert not any(value is fn for fn in originals.values()), \
                    f"{module.__name__}.{attr} still binds an unwrapped target"
        t.job = "clone"
        out = tmp_path / "clone.json"
        assert qgames.cli.main(["clone", "--n", "1", "--m", "2", "--out", str(out)]) == 0
    finally:
        t.uninstall()

    after = _bindings(modules, classes)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    names = {span[0] for span in t.spans}
    assert {"cli.main", "cloning.optimal_cloner", "cloning.Channel",
            "cloning.haar_avg_global_fidelity"} <= names
    assert all(span[4] == "clone" for span in t.spans)
    assert t.counts["cloning.choi_bytes"] > 0


def test_emitted_metrics_are_declared_in_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        line, report = run.measure(SMALL_JOBS, 0, trace, ROOT, tmp_path)
        emitted = {name: m["unit"] for name, m in line["metrics"].items()}
        assert emitted == declared
        passes = report["passes"]["untraced"] + report["passes"]["traced"]
        assert line["attempted"] == len(SMALL_JOBS) * passes
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)

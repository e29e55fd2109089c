"""qgames benchmark: fixed job lists run in fresh interpreters, checked, then summarised.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-arity --seed 1 --seconds 44 --trace 0

Each pass is one fresh ``python3 perfbench/worker.py`` process that imports
qgames from ``src/`` and runs the workload's whole job list serially, so the
package's caches start cold as for every ``qgames`` command.  Jobs call
``qgames.cli.main([...])`` with ``--out`` whenever the CLI can express them and
the public API otherwise.  BLAS runs one thread (`BLAS_THREADS`).  Passes
repeat until the next one would end after ``--seconds`` (at least two untraced
passes, or one untraced and one traced pass); the figures are medians over
passes.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (``import qgames`` and
``qgames.cli``; median over five set-up-only interpreters plus every pass),
``wall_s`` (the job list) and ``peak_rss_mb`` (``ru_maxrss`` of the pass
process).

``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics: ``<layer>.<function>.calls`` and ``.self_s`` from spans recorded by
tracer.py around every public entry point, work counts computed from array
sizes, and ``trace_overhead_s`` (traced minus untraced ``wall_s``).  It also
prints the figures that are zero outside their own workload, measured in the
untraced passes: ``clone_s`` and ``estimate_s`` (summed time of the CLI
``clone`` / ``estimate`` jobs), ``rounds_per_s`` (Monte Carlo rounds over the
time of the ``mc-play`` jobs), ``frame_game_s``, ``asym_bound_s`` and
``failed_frac`` (jobs that raised, exited non-zero or failed their check, over
jobs attempted; the expected ``estimate --n 9`` failure counts here but not in
``failed``).

Every job is checked outside the timed region against closed forms computed
here, and every pass's documents must be byte-identical to the first pass's, so
a traced pass that changed a result would fail.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full report (provenance, per-job times, per-layer self-time
shares, failures) goes to ``.perfbench/<workload>/report-trace<0|1>.json`` and
the spans of the last traced pass to ``.perfbench/<workload>/spans.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy
from scipy.optimize import linprog

from tracer import COUNTS, SPAN_NAMES, TARGETS, self_times

HERE = Path(__file__).resolve().parent
#: Interpreters that only import qgames, so setup_s is a median of at least seven
#: samples even when only two passes fit in a run.
SETUP_ONLY_RUNS = 5
#: A run must end within 180 s; no pass may start a child past this budget.
RUN_BUDGET_S = 170.0
#: OpenBLAS helper threads spin between calls: on a 2-vCPU machine a second
#: thread made the Monte Carlo and restricted-game passes 10-15% slower, and
#: traced passes faster than untraced ones, while doubling CPU time.
BLAS_THREADS = 1
FRAME_TOL = 1e-9
#: mc-play's |z| gate.  Every run draws fresh seeds, so the gate is sized for a
#: whole series of runs, not for one fixed seed as in the package's tests: at
#: |z| <= 3 a correct program fails one job in 370 (a 44-run series of five
#: mc-play jobs fails with odds near one half), at |z| <= 5 one in 1.7 million.
#: The false alarm that set this (seed 1480664335, one_particle (3,1,3) at
#: z = -3.22 over 8000 rounds) re-played at z = -1.29 over 300000 rounds, so the
#: game is unbiased; a biased round loop still fails once its bias exceeds
#: 5 standard errors, about 0.04 of payoff at 8000 rounds.
Z_GATE = 5.0


# ---------------------------------------------------------------------------
# workloads


def _cli_job(job_id, part, argv, **extra):
    return {"id": job_id, "part": part, "cli": argv, **extra}


def exact_arity_jobs(seed):
    """Few large dense objects: cloners and payoff operators at large arity."""
    del seed  # clone and estimate take no seed
    jobs = [
        _cli_job(f"clone-{d}-{n}-{m}", "clone",
                 ["clone", "--d", str(d), "--n", str(n), "--m", str(m)])
        for d, n, m in ((2, 4, 6), (2, 5, 6), (3, 3, 4), (4, 2, 3))
    ]
    jobs += [
        _cli_job(f"estimate-universal-{n}", "estimate",
                 ["estimate", "--universal", "--n", str(n)])
        for n in (8, 9, 10)
    ]
    jobs.append(_cli_job("estimate-8", "estimate", ["estimate", "--n", "8"]))
    # Fails at the seed commit with IncompletePovm: the 100-point default frame
    # cannot tile the identity at n = 9.  Kept and counted in failed_frac.
    jobs.append(_cli_job("estimate-9", "estimate", ["estimate", "--n", "9"],
                         expect_error="IncompletePovm"))
    return jobs


MC_ROUNDS = 8000


def mc_rounds_jobs(seed):
    """Many tiny rounds: per-call overhead in core and the harness round loop."""
    specs = [("estimation", 2, 4, 4), ("cloning", 2, 1, 2), ("cloning", 3, 2, 3),
             ("one_particle", 2, 1, 2), ("one_particle", 3, 1, 3)]
    return [
        _cli_job(f"mc-{kind}-{d}-{n}-{m}", "mc",
                 ["mc-play", "--game", kind, "--d", str(d), "--n", str(n), "--m", str(m),
                  "--samples", str(MC_ROUNDS), "--seed", str(seed)])
        for kind, d, n, m in specs
    ]


def restricted_games_jobs(seed):
    """Equilibria of restricted games plus the asymmetric-cloning channel scan."""
    jobs = [
        {"id": f"frame-game-{n}-{rows}x{cols}", "part": "frame_game",
         "frame_game": {"n": n, "rows": rows, "cols": cols, "tol": FRAME_TOL}}
        for n, rows, cols in ((1, 24, 32), (2, 24, 32), (3, 24, 40))
    ]
    jobs += [
        _cli_job("sandwich-estimation", "sandwich",
                 ["sandwich", "--game", "estimation", "--n", "1", "--seed", str(seed)]),
        _cli_job("sandwich-cloning", "sandwich",
                 ["sandwich", "--game", "cloning", "--d", "2", "--n", "1", "--m", "2",
                  "--seed", str(seed)]),
    ]
    jobs += [
        _cli_job(f"asym-bound-{d}-{n}-{m}", "asym_bound",
                 ["asym-bound", "--d", str(d), "--n", str(n), "--m", str(m),
                  "--samples", "1000", "--seed", str(seed)])
        for d, n, m in ((2, 1, 2), (3, 1, 2), (2, 1, 3))
    ]
    return jobs


WORKLOADS = {
    "exact-arity": exact_arity_jobs,
    "mc-rounds": mc_rounds_jobs,
    "restricted-games": restricted_games_jobs,
}


# ---------------------------------------------------------------------------
# metrics (names and units; BENCHMARK.json declares the same set)

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNTS:
        units[name] = "bytes" if "bytes" in name else "count"
    units.update({"clone_s": "s", "estimate_s": "s", "rounds_per_s": "1/s", "frame_game_s": "s",
                  "asym_bound_s": "s", "failed_frac": "ratio", "trace_overhead_s": "s"})
    return units


# ---------------------------------------------------------------------------
# checks: closed forms computed here, independent of the package


def _global_value(d, n, m):
    return Fraction(math.comb(d + n - 1, n), math.comb(d + m - 1, m))


def _single_value(d, n, m):
    return Fraction(n * (d + m) + m - n, (d + n) * m)


def _asym_bound(d, n, m):
    return Fraction(n * (d + m) + m - n, d + n)


def _close(rendered, exact, tol=1e-12):
    """|rendered - exact| <= tol, plus the half unit of the CLI's 12-digit rendering."""
    exact = float(exact)
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(exact))) - 11) if exact else 0.0
    return abs(rendered - exact) <= tol + half_unit


def _arg(argv, flag):
    return int(argv[argv.index(flag) + 1])


def _check_cli(job, doc):
    argv = job["cli"]
    command = argv[0]
    if command == "clone":
        d, n, m = (_arg(argv, f) for f in ("--d", "--n", "--m"))
        g, s = _global_value(d, n, m), _single_value(d, n, m)
        singles = doc["measured_single_fidelities"]
        ok = (_close(doc["global_value"], g) and _close(doc["single_value"], s)
              and _close(doc["measured_global_fidelity"], g) and len(singles) == m
              and all(_close(v, s) for v in singles))
        return None if ok else "clone fidelities differ from the closed forms by more than 1e-12"
    if command == "estimate":
        n = _arg(argv, "--n")
        ok = _close(doc["mean_fidelity"], Fraction(n + 1, n + 2))
        return None if ok else f"mean fidelity {doc['mean_fidelity']} != (n+1)/(n+2)"
    if command == "mc-play":
        game = argv[argv.index("--game") + 1]
        d, n, m = (_arg(argv, f) for f in ("--d", "--n", "--m"))
        exact = {"estimation": Fraction(n + 1, n + 2), "cloning": _global_value(d, n, m),
                 "one_particle": _single_value(d, n, m)}[game]
        if not _close(doc["exact_value"], exact) or doc["samples"] != _arg(argv, "--samples"):
            return "mc-play reports the wrong exact value or sample count"
        if not abs(doc["z_score"]) <= Z_GATE:
            return f"|z| = {abs(doc['z_score'])} > {Z_GATE}"
        return None
    if command == "sandwich":
        return None if doc["passed"] is True else "sandwich report did not pass"
    if command == "asym-bound":
        d, n, m = (_arg(argv, f) for f in ("--d", "--n", "--m"))
        if not _close(doc["bound"], _asym_bound(d, n, m)):
            return "asym-bound reports the wrong bound"
        return None if doc["passed"] is True else "asym-bound scan did not pass"
    raise ValueError(f"no check for command {command!r}")


def _lp_value(a):
    """Row player's maximin value by HiGHS: max v s.t. A^T x >= v, sum x = 1, x >= 0."""
    m, n = a.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.hstack([-a.T, np.ones((n, 1))]), b_ub=np.zeros(n),
                  A_eq=np.hstack([np.ones((1, m)), np.zeros((1, 1))]), b_eq=[1.0],
                  bounds=[(0, None)] * m + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return -res.fun


def _check_frame_game(job, doc):
    spec = job["frame_game"]
    a, x, y = (np.array(doc[k]) for k in ("payoff", "x", "y"))
    if a.shape != (spec["rows"], spec["cols"]) or (x.size, y.size) != a.shape:
        return "frame game has the wrong shape"
    if min(x.min(), y.min()) < -1e-12 or max(abs(x.sum() - 1), abs(y.sum() - 1)) > 1e-12:
        return "frame-game strategies are not distributions"
    gap = float((a @ y).max() - (x @ a).min())
    if gap > spec["tol"]:
        return f"frame-game exploitability {gap:.3e} > {spec['tol']:.0e}"
    lp = _lp_value(a)
    if abs(doc["value"] - lp) > spec["tol"]:
        return f"frame-game value {doc['value']!r} differs from HiGHS {lp!r}"
    return None


def check_job(job, outcome):
    """None if the job's outcome is right, else what is wrong with it."""
    if outcome["error"] is not None:
        return f"raised {outcome['error']}"
    if outcome["doc"] is None:
        return f"exit {outcome['exit']} without a document"
    doc = json.loads(outcome["doc"])
    expected = job.get("expect_error")
    if expected and outcome["exit"] == 1 and doc.get("error", {}).get("type") == expected:
        return None
    if outcome["exit"] != 0:
        return f"exit {outcome['exit']}: {doc.get('error')}"
    if "frame_game" in job:
        return _check_frame_game(job, doc)
    return _check_cli(job, doc)


# ---------------------------------------------------------------------------
# passes


class PassRunner:
    """Starts worker processes for one run and collects their results."""

    def __init__(self, root, tmp, started):
        self.root = Path(root)
        self.tmp = Path(tmp)
        self.started = started
        self.count = 0
        src = str(self.root / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def run(self, jobs, trace=False):
        self.count += 1
        stem = self.tmp / f"pass{self.count}"
        out_dir = stem.with_suffix(".out")
        out_dir.mkdir()
        request = {"jobs": jobs, "src": str(self.root / "src"), "out_dir": str(out_dir),
                   "spans_path": str(stem.with_suffix(".spans.json")) if trace else None}
        request_path = stem.with_suffix(".request.json")
        result_path = stem.with_suffix(".result.json")
        request_path.write_text(json.dumps(request))
        remaining = RUN_BUDGET_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise RuntimeError("run budget exhausted before the pass could start")
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(request_path),
                               str(result_path)], env=self.env, cwd=self.root,
                              timeout=remaining)
        duration = time.perf_counter() - t
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        result = json.loads(result_path.read_text())
        result["duration"] = duration
        if trace:
            spans = json.loads(Path(request["spans_path"]).read_text())
            result["self_times"] = self_times(spans)
            result["spans_path"] = request["spans_path"]
        return result


def measure(jobs, seconds, trace, root, work_dir):
    """Run passes of `jobs`, check them, return (result line, full report)."""
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        runner = PassRunner(root, tmp, started)
        plain, traced, setups = [], [], []
        if not trace:
            setups = [runner.run([]) for _ in range(SETUP_ONLY_RUNS)]
            while len(plain) < 2 or (time.perf_counter() - started
                                      + statistics.median(p["duration"] for p in plain)
                                      <= seconds):
                plain.append(runner.run(jobs))
        else:
            while not traced or (time.perf_counter() - started
                                 + statistics.median(p["duration"] for p in plain)
                                 + statistics.median(p["duration"] for p in traced)
                                 <= seconds):
                plain.append(runner.run(jobs))
                traced.append(runner.run(jobs, trace=True))
        kept_spans = None
        if traced:
            kept_spans = Path(work_dir) / "spans.json"
            os.replace(traced[-1]["spans_path"], kept_spans)  # the last traced pass's spans

    passes = plain + traced
    first = {o["id"]: o["doc"] for o in passes[0]["jobs"]}
    attempted = failed = raised = 0
    problems = []
    for index, result in enumerate(passes):
        for job, outcome in zip(jobs, result["jobs"]):
            attempted += 1
            problem = check_job(job, outcome)
            if problem is None and outcome["doc"] != first[job["id"]]:
                problem = "document differs from the first pass's"
            if problem is not None:
                failed += 1
                problems.append({"pass": index, "traced": index >= len(plain),
                                 "job": job["id"], "problem": problem})
            if problem is not None or outcome["exit"] != 0:
                raised += 1
    median = statistics.median

    def job_seconds(p, part):
        return math.fsum(o["seconds"] for j, o in zip(jobs, p["jobs"]) if j["part"] == part)

    if not trace:
        metrics = {
            "setup_s": median(p["setup_s"] for p in setups + plain),
            "wall_s": median(p["wall_s"] for p in plain),
            "peak_rss_mb": median(p["peak_rss_kb"] for p in plain) / 1024.0,
        }
        units = END_TO_END
        shares = None
    else:
        units = per_layer_units()
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = traced[0]["self_times"][name][0]
            metrics[f"{name}.self_s"] = median(t["self_times"][name][1] for t in traced)
        for name in COUNTS:
            metrics[name] = traced[0]["counts"][name]
        traced_wall = median(t["wall_s"] for t in traced)
        rounds = sum(_arg(j["cli"], "--samples") for j in jobs if j["part"] == "mc")
        metrics.update({
            part + "_s": median(job_seconds(p, part) for p in plain)
            for part in ("clone", "estimate", "frame_game", "asym_bound")
        })
        metrics.update({
            "rounds_per_s": median(rounds / job_seconds(p, "mc") if rounds else 0.0
                                   for p in plain),
            "failed_frac": raised / attempted,
            "trace_overhead_s": traced_wall - median(p["wall_s"] for p in plain),
        })
        shares = {layer: sum(metrics[f"{layer}.{n}.self_s"] for n in names) / traced_wall
                  for layer, names in TARGETS.items()}
        shares["outside_spans"] = 1.0 - sum(shares.values())

    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report = {
        "result": line,
        "passes": {"untraced": len(plain), "traced": len(traced),
                   "setup_only": len(setups)},
        "problems": problems,
        "jobs_failed_or_exited_nonzero": raised,
        "layer_self_time_shares": shares,
        "work_counts_note": "byte, cell and round counts are computed from array sizes "
                            "and arguments, not measured traffic",
        "spans_file": str(kept_spans) if kept_spans else None,
        "pass_results": [
            {key: p[key] for key in ("setup_s", "wall_s", "peak_rss_kb", "duration", "counts")}
            | {"job_seconds": {o["id"]: o["seconds"] for o in p["jobs"]},
               "traced": i >= len(plain)}
            for i, p in enumerate(passes)
        ],
    }
    return line, report


# ---------------------------------------------------------------------------
# provenance


def provenance(root):
    root = Path(root)
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps a running pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = HERE.parent
    if not (root / "src" / "qgames" / "__init__.py").is_file():
        print(f"perfbench: no qgames package under {root / 'src'}", file=sys.stderr)
        return 2
    work_dir = root / ".perfbench" / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    jobs = WORKLOADS[args.workload](args.seed)
    line, report = measure(jobs, args.seconds, bool(args.trace), root, work_dir)
    report["workload"] = args.workload
    report["seed"] = args.seed
    report["provenance"] = provenance(root)
    report_path = work_dir / f"report-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1))
    for problem in report["problems"]:
        print(f"perfbench: {problem['job']} (pass {problem['pass']}): {problem['problem']}",
              file=sys.stderr)
    print(f"perfbench: provenance {json.dumps(report['provenance'])}")
    print(f"perfbench: report in {report_path.relative_to(root)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one pass of a benchmark job list in a fresh interpreter.

Usage: python3 perfbench/worker.py REQUEST.json RESULT.json

REQUEST holds ``jobs`` (see run.py), ``out_dir`` for the CLI's ``--out`` files
and ``spans_path`` (null for an untraced pass).  The pass times ``import
qgames`` and ``import qgames.cli`` (set-up), then runs the jobs serially in
this process, so the package's caches start cold exactly as they do for one
``qgames`` command.  An empty job list measures set-up alone.  Result
documents are collected after the timed region; RESULT receives the timings,
the peak RSS, each job's outcome and document, and the work counts of a
traced pass, whose spans go to ``spans_path``.
"""

import json
import os
import resource
import sys
import time
import traceback


def frame_directions(estimation, n_copies, axis):
    """Antipodal pair along `axis` plus, for n > 1, the default frame rotated with it.

    The rotation Rz(psi) Ry(theta) takes the z axis onto `axis`, so row
    strategies built from different axes are rotated copies of one
    measurement and none dominates another.
    """
    import numpy as np

    base = [estimation.Direction(0.0, 0.0), estimation.Direction(np.pi, 0.0)]
    if n_copies > 1:
        base += estimation.default_directions(n_copies)
    ct, st = np.cos(axis.theta), np.sin(axis.theta)
    cp, sp = np.cos(axis.psi_phase), np.sin(axis.psi_phase)
    rot = np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]]) @ np.array(
        [[ct, 0.0, st], [0.0, 1.0, 0.0], [-st, 0.0, ct]])
    out = []
    for d in base:
        v = rot @ np.array([np.sin(d.theta) * np.cos(d.psi_phase),
                            np.sin(d.theta) * np.sin(d.psi_phase), np.cos(d.theta)])
        theta = float(np.arccos(np.clip(v[2], -1.0, 1.0)))
        psi = float(np.arctan2(v[1], v[0]) % (2.0 * np.pi))
        out.append(estimation.Direction(theta, psi if psi < 2.0 * np.pi else 0.0))
    return out


def frame_game(qgames, n_copies, rows, cols, tol):
    """Frame-randomisation game: fixed-frame POVMs along Fibonacci axes vs Fibonacci states."""
    estimation, harness = qgames.estimation, qgames.harness
    povms = [estimation.build_povm(n_copies, frame_directions(estimation, n_copies, axis))
             for axis in estimation.fibonacci_directions(rows)]
    game = harness.discretize_estimation_game(n_copies, povms, harness.fibonacci_states(cols))
    return game, qgames.zerosum.solve(game, tol=tol)


def main(request_path, result_path):
    with open(request_path) as fh:
        request = json.load(fh)

    t0 = time.perf_counter()
    import qgames
    import qgames.cli
    setup_s = time.perf_counter() - t0

    src = os.path.realpath(request["src"])
    if not os.path.realpath(qgames.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported qgames from {qgames.__file__}, not from {src}")

    tracer = None
    if request["spans_path"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outcomes = []
    start = time.perf_counter()
    for job in request["jobs"]:
        out_path = os.path.join(request["out_dir"], job["id"] + ".out")
        if tracer is not None:
            tracer.job = job["id"]
        code, error, payload = 0, None, None
        t = time.perf_counter()
        try:
            if "cli" in job:
                code = qgames.cli.main(job["cli"] + ["--out", out_path])
            else:
                spec = job["frame_game"]
                payload = frame_game(qgames, spec["n"], spec["rows"], spec["cols"], spec["tol"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # job boundary: record the failure, keep running the pass
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        outcomes.append((job, time.perf_counter() - t, code, error, out_path, payload))
    wall_s = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.uninstall()
        with open(request["spans_path"], "w") as fh:
            json.dump(tracer.span_document([j["id"] for j in request["jobs"]]), fh)

    jobs = []
    for job, seconds, code, error, out_path, payload in outcomes:
        if payload is not None:
            game, eq = payload
            doc = json.dumps({
                "payoff": game.payoff.tolist(), "x": eq.x.probs.tolist(),
                "y": eq.y.probs.tolist(), "value": eq.value,
                "exploitability": eq.exploitability,
            })
        elif os.path.exists(out_path):
            with open(out_path) as fh:
                doc = fh.read()
        else:
            doc = None
        jobs.append({"id": job["id"], "seconds": seconds, "exit": code,
                     "error": error, "doc": doc})
    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_kb": peak_rss_kb, "jobs": jobs,
              "counts": tracer.counts if tracer is not None else None}
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: worker.py REQUEST.json RESULT.json")
    main(sys.argv[1], sys.argv[2])

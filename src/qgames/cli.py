"""Command-line front end: run one experiment, write one result document.

Commands map onto the harness operations; every randomized command requires an
explicit --seed (there is no implicit entropy anywhere), so identical
invocations produce byte-identical output documents.  `sandwich` requires a
seed too but reads it only at d != 2, where player II's 16 states are Haar
draws; at d = 2, every estimation game included, they are the 16 Fibonacci
states whatever the seed.  Floats are rendered with 12 significant digits.
Exit codes: 0 success, 1 a checked assertion failed (e.g. a bound violation)
or an inner error was surfaced, 2 usage error.

A JSON document is written by `_json_text`, one recursive function that
writes the indent-2 text and rounds each float on the way.  Its text is that
of `json.dumps(doc, indent=2)` on the rounded document; the standard library
runs its pure-Python encoder whenever an indent is set, and the direct writer
takes about half that time.  Flat records that share one key order, held
as columns in a `_Records`, take the record path (`_flat_records_text`):
each record is one string filled into a template, with no recursion, as
long as every value is a string or a finite float.  `asym-bound` hands its
records to that path, columns read straight from the scan report's arrays,
so no dict is built per record; every other list takes the generic path.
A CSV document has one row per record, and the runners that return many
rows return them as generators, built only for --format csv.

The argument parser is built on the first `parse_args` (or `main`) call and
shared by every later call in the process, so a script or test that calls
`main` many times pays for the argparse tree once.  Nothing builds it at
import time.  Callers must not mutate the shared parser.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii

from . import harness
from .cloning import (haar_avg_global_fidelity, optimal_cloner, product_embedding_channel,
                      single_clone_haar_fidelity, value_formulas)
from .core import RandomStream
from .estimation import build_povm, default_directions, mean_fidelity, universal_povm
from .zerosum import NonConvergence, rock_paper_scissors, solve


class _Records(Sequence):
    """Flat records that share one key order, held as columns.

    Record i maps keys[j] to columns[j][i].  The JSON writer reads the
    columns; indexing or iterating builds a record's dict on demand.
    """

    def __init__(self, keys, columns):
        self.keys = tuple(keys)
        self.columns = tuple(columns)

    def __len__(self):
        return len(self.columns[0]) if self.columns else 0

    def __getitem__(self, i):
        return dict(zip(self.keys, [column[i] for column in self.columns]))

    def __iter__(self):
        return (dict(zip(self.keys, row)) for row in zip(*self.columns))


def _flat_records_text(value, indent: str):
    """JSON text of `value` as `_json_text` writes it, or None where this path does not apply.

    It applies to a `_Records` with a nonempty key order, when every key is
    a string and every value a string or a finite float.  Each column is
    rendered at once and each record is one string filled into a template,
    with no recursion.
    """
    keys = value.keys if isinstance(value, _Records) else ()
    if not keys or not all(type(k) is str for k in keys):
        return None
    cells = []
    for column in value.columns:
        types = set(map(type, column))
        if types == {str}:
            cells.append(map(encode_basestring_ascii, column))
        elif types == {float} and all(map(math.isfinite, column)):
            texts = list(map("{:.12g}".format, column))
            # a 12-digit text in fixed notation with a fraction is already the
            # repr of the float it reads as; whole numbers and exponents are not
            joined = "".join(texts)
            if joined.count(".") != len(texts) or "e" in joined:
                texts = map(float.__repr__, map(float, texts))
            cells.append(texts)
        else:
            return None
    inner, field = indent + "  ", indent + "    "
    names = [encode_basestring_ascii(k).replace("%", "%%") for k in keys]
    template = f"{{\n{field}" + f",\n{field}".join(f"{k}: %s" for k in names) + f"\n{inner}}}"
    items = f",\n{inner}".join(map(template.__mod__, zip(*cells)))
    return f"[\n{inner}{items}\n{indent}]"


def _json_text(value, indent: str = "") -> str:
    """`value` as indent-2 JSON text, floats rounded to 12 significant digits.

    The text is what `json.dumps(value, indent=2)` writes once every float
    is replaced by float(f"{x:.12g}"): ASCII only, NaN and the infinities as
    JavaScript names, tuples and `_Records` as lists.  Dict keys must be
    strings.  A `_Records` takes `_flat_records_text` where it applies.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(float(f"{value:.12g}"))
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sep.join([f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                          for k, v in value.items()])
        return f"{{\n{inner}{items}\n{indent}}}"
    if isinstance(value, (list, tuple, _Records)):
        if not value:
            return "[]"
        text = _flat_records_text(value, indent)
        if text is not None:
            return text
        items = sep.join([_json_text(v, inner) for v in value])
        return f"[\n{inner}{items}\n{indent}]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render_json(doc) -> str:
    return _json_text(doc) + "\n"


def _flatten(value):
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _render_csv(rows) -> str:
    """CSV text of an iterable of row dicts, the header read from the first."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = iter(rows)
    first = next(rows)
    header = list(first)
    writer.writerow(header)
    for row in (first, *rows):
        writer.writerow([_flatten(row[k]) for k in header])
    return buf.getvalue()


def _emit(doc, rows, config) -> None:
    text = _render_csv(rows) if config.format == "csv" else _render_json(doc)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_clone(config):
    values = value_formulas(config.d, config.n, config.m)
    cloner = optimal_cloner(config.d, config.n, config.m)
    measured_global = haar_avg_global_fidelity(cloner)
    # the optimal cloner's output is symmetric: every clone has one reduced state
    measured_single = [single_clone_haar_fidelity(cloner, 1)] * config.m
    doc = {
        "command": "clone",
        "d": config.d,
        "n": config.n,
        "m": config.m,
        "global_value": values.global_value,
        "single_value": values.single_value,
        "asym_bound": values.asym_bound,
        "measured_global_fidelity": measured_global,
        "measured_single_fidelities": measured_single,
    }
    row = {k: v for k, v in doc.items() if k != "measured_single_fidelities"}
    for k, fid in enumerate(measured_single, start=1):
        row[f"measured_single_fidelity_{k}"] = fid
    return doc, [row], 0


def _run_estimate(config):
    if config.universal:
        povm = universal_povm(config.n)
    else:
        povm = build_povm(config.n, default_directions(config.n))
    doc = {
        "command": "estimate",
        "n": config.n,
        "universal": config.universal,
        "mean_fidelity": mean_fidelity(povm),
        "expected_value": (config.n + 1) / (config.n + 2),
        "completeness_residual": povm.completeness_residual,
        "outcomes": len(povm.vectors),
    }
    return doc, [doc], 0


def _run_solve(config):
    game = rock_paper_scissors()
    eq = solve(game, tol=1e-9)
    doc = {
        "command": "solve",
        "game": "rock-paper-scissors",
        "value": eq.value,
        "exploitability": eq.exploitability,
        "x": list(eq.x.probs),
        "y": list(eq.y.probs),
    }
    row = {"command": "solve", "game": doc["game"], "value": eq.value,
           "exploitability": eq.exploitability}
    for i, p in enumerate(eq.x.probs):
        row[f"x_{i}"] = float(p)
    for j, p in enumerate(eq.y.probs):
        row[f"y_{j}"] = float(p)
    return doc, [row], 0


def _entry_rows(doc, entries, before, after):
    """One CSV row per entry: the doc's `before` fields, the entry's, then the doc's `after`."""
    return ({**{k: doc[k] for k in before}, **entry, **{k: doc[k] for k in after}}
            for entry in entries)


def _run_sandwich(config):
    if config.game == "estimation":
        player_i = [universal_povm(config.n), build_povm(config.n, default_directions(config.n))]
    else:
        player_i = [
            optimal_cloner(config.d, config.n, config.m),
            product_embedding_channel(config.d, config.n, config.m),
        ]
    best = player_i[0]
    spec = harness.GameSpec(config.game, d=best.d, n=best.n_in, m=best.n_out, seed=config.seed)
    states = (harness.fibonacci_states(16) if spec.d == 2
              else harness.haar_states(spec.d, 16, RandomStream(config.seed)))
    report = harness.sandwich_report(spec, player_i, states, (4, 8, 16))
    doc = {
        "command": "sandwich",
        "game": config.game,
        "d": spec.d,
        "n": spec.n,
        "m": spec.m,
        "seed": config.seed,
        "theoretical_value": report.theoretical_value,
        "levels": [
            {"n_states": lv.n_states, "value": lv.value, "exploitability": lv.exploitability}
            for lv in report.levels
        ],
        "lower_bound_ok": report.lower_bound_ok,
        "monotone_ok": report.monotone_ok,
        "converged": report.converged,
        "passed": report.passed,
    }
    rows = _entry_rows(doc, doc["levels"], ("command", "game", "d", "n", "m", "seed"),
                       ("theoretical_value",))
    return doc, rows, 0 if report.passed else 1


def _run_asym_bound(config):
    report = harness.asym_bound_scan(
        config.d, config.n, config.m,
        n_random=config.samples, grid_points=config.grid, seed=config.seed,
    )
    doc = {
        "command": "asym-bound",
        "d": config.d,
        "n": config.n,
        "m": config.m,
        "samples": config.samples,
        "grid": config.grid,
        "seed": config.seed,
        "bound": report.bound,
        "max_sum_fidelity": report.max_sum_fidelity,
        "argmax": report.argmax,
        "passed": report.passed,
        "records": _Records(("kind", "label", "sum_fidelity"),
                            (report.kinds, report.labels, report.sums.tolist())),
    }
    rows = _entry_rows(doc, doc["records"], ("command", "d", "n", "m", "seed"), ("bound",))
    return doc, rows, 0 if report.passed else 1


def _run_mc_play(config):
    if config.game == "estimation":
        strategy = universal_povm(config.n)
    else:
        strategy = optimal_cloner(config.d, config.n, config.m)
    spec = harness.GameSpec(config.game, d=strategy.d, n=strategy.n_in, m=strategy.n_out,
                            samples=config.samples, seed=config.seed)
    record = harness.monte_carlo_play(spec, strategy)
    exact = spec.theoretical_value()
    # z against the null error, the standard error of +-1 outcomes of mean `exact`
    null_error = math.sqrt(max(0.0, 1.0 - exact * exact) / record.samples)
    z = (record.mean_payoff - exact) / null_error if null_error else 0.0
    doc = {
        "command": "mc-play",
        "game": config.game,
        "d": spec.d,
        "n": spec.n,
        "m": spec.m,
        "samples": record.samples,
        "seed": record.seed,
        "mean_payoff": record.mean_payoff,
        "stderr_payoff": record.stderr_payoff,
        "pass_rate": record.pass_rate,
        "exact_value": exact,
        "z_score": z,
    }
    return doc, [doc], 0


_RUNNERS = {
    "clone": _run_clone,
    "estimate": _run_estimate,
    "solve": _run_solve,
    "sandwich": _run_sandwich,
    "asym-bound": _run_asym_bound,
    "mc-play": _run_mc_play,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `qgames` argument parser, built on first use and then shared.

    Every call returns the same parser object for the life of the process.
    Parsing leaves it unchanged (each parse fills a fresh Namespace), but
    callers must not mutate it: an added argument or changed default would
    reach every later `parse_args` and `main` call.
    """
    parser = argparse.ArgumentParser(
        prog="qgames",
        description="Quantum estimation/cloning game laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def add_arity(p):
        p.add_argument("--d", type=int, default=2)
        p.add_argument("--n", type=int, default=1)
        p.add_argument("--m", type=int, default=2)

    p = sub.add_parser("clone", help="closed-form and measured cloning values")
    add_arity(p)
    add_common(p)

    p = sub.add_parser("estimate", help="build an estimation POVM and its mean fidelity")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--universal", action="store_true",
                   help="use the exact-quadrature frame instead of the default directions")
    add_common(p)

    p = sub.add_parser("solve", help="solve the bundled rock-paper-scissors game")
    add_common(p)

    p = sub.add_parser("sandwich", help="restricted-game refinement report")
    p.add_argument("--game", choices=("estimation", "cloning"), required=True)
    add_arity(p)
    p.add_argument("--seed", type=int, required=True)
    add_common(p)

    p = sub.add_parser("asym-bound", help="scan channels against the fidelity-sum bound")
    add_arity(p)
    p.add_argument("--samples", type=int, default=1000, help="random channels to scan")
    p.add_argument("--grid", type=int, default=21, help="asymmetry grid points (1->2 only)")
    p.add_argument("--seed", type=int, required=True)
    add_common(p)

    p = sub.add_parser("mc-play", help="Monte Carlo protocol play: the universal POVM "
                                       "or the optimal cloner against the referee")
    p.add_argument("--game", choices=("estimation", "cloning", "one_particle"), required=True)
    add_arity(p)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, required=True)
    add_common(p)

    return parser


def parse_args(argv) -> argparse.Namespace:
    parser = build_parser()
    config = parser.parse_args(argv)
    estimation_game = getattr(config, "game", None) == "estimation"
    if config.command in ("clone", "sandwich", "asym-bound", "mc-play") and config.d < 1:
        parser.error(f"--d must be >= 1, got {config.d}")
    if config.command in ("clone", "sandwich", "asym-bound", "mc-play") and not estimation_game:
        if not 1 <= config.n <= config.m:
            parser.error(f"need 1 <= n <= m, got n={config.n} m={config.m}")
    if (estimation_game or config.command == "estimate") and config.n < 1:
        parser.error("--n must be >= 1")
    if estimation_game and config.d != 2:
        parser.error("estimation games require --d 2")
    if config.command in ("asym-bound", "mc-play") and config.samples < 1:
        parser.error("--samples must be >= 1")
    if config.command == "asym-bound" and config.grid < 0:
        parser.error(f"--grid must be >= 0, got {config.grid}")
    return config


def run(config) -> int:
    runner = _RUNNERS[config.command]
    try:
        doc, rows, code = runner(config)
    except (ValueError, NonConvergence) as exc:
        doc = {
            "command": config.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        _emit(doc, [
            {"command": config.command, "error_type": type(exc).__name__,
             "error_message": str(exc)}
        ], config)
        return 1
    _emit(doc, rows, config)
    return code


def main(argv=None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else argv)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

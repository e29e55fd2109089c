"""Span tracing of qgames' public functions, installed from outside the package.

`Tracer.install` replaces every traced function at each module attribute that
binds it (the package re-binds names with ``from .x import y``, so
``qgames.cli.optimal_cloner`` and ``qgames.harness.optimal_cloner`` are both
wrapped), and traced methods on their class.  `Tracer.uninstall` puts every
original object back.

Each wrapped call records one span ``(name, start, end, parent, job)`` in
memory; nothing is written until the caller asks for `span_document`.  Work
counts are computed from array sizes at the same boundaries, never measured.
This module imports only the standard library, so installing it adds nothing to
qgames' own import time.
"""

from __future__ import annotations

import functools
import sys
import time

#: Traced callables per layer.  "Class" traces construction (``__init__``),
#: "Class.method" a method; anything else is a module-level function.
TARGETS = {
    "core": ("tensor_power", "haar_random_state", "RandomStream",
             "RandomStream.substream", "partial_trace_matrix"),
    "symmetric": ("sym_isometry", "sym_projector"),
    "swap_test": ("pass_probability", "sample_outcome", "expected_payoff"),
    "cloning": ("Channel", "optimal_cloner", "haar_avg_global_fidelity",
                "single_clone_haar_fidelity", "random_isometry_channel", "global_fidelity"),
    "estimation": ("universal_povm", "build_povm", "mean_fidelity", "payoff_operator",
                   "Povm.outcome_probabilities", "pointwise_payoff"),
    "zerosum": ("solve", "exploitability"),
    "harness": ("monte_carlo_play", "discretize_estimation_game", "discretize_cloning_game",
                "sandwich_report", "asym_bound_scan"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in TARGETS.items() for name in names)

#: Work counts, all computed from array sizes or arguments.
COUNTS = (
    "symmetric.sym_isometry.bytes",      # nbytes of distinct isometries returned
    "symmetric.sym_projector.bytes",     # nbytes of distinct projectors returned
    "cloning.choi_bytes",                # nbytes of every Choi matrix built
    "estimation.payoff_operator.bytes",  # nbytes of every payoff operator built
    "zerosum.solve.cells",               # sum of m*n over solved games
    "harness.rounds",                    # Monte Carlo rounds requested
)


def _argument(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records spans and work counts for one pass of a job list."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.job = None
        self._stack = []
        self._restore = []
        self._distinct = {}

    # -- counters ---------------------------------------------------------

    def _count_distinct(self, key, array):
        seen = self._distinct.setdefault(key, {})
        if id(array) not in seen:
            seen[id(array)] = array  # keeps the id from being reused
            self.counts[key] += array.nbytes

    def _post_hooks(self):
        return {
            "symmetric.sym_isometry": lambda a, k, r: self._count_distinct(
                "symmetric.sym_isometry.bytes", r),
            "symmetric.sym_projector": lambda a, k, r: self._count_distinct(
                "symmetric.sym_projector.bytes", r),
            "cloning.Channel": lambda a, k, r: self._add("cloning.choi_bytes", a[0].choi.nbytes),
            "estimation.payoff_operator": lambda a, k, r: self._add(
                "estimation.payoff_operator.bytes", r.nbytes),
            "zerosum.solve": lambda a, k, r: self._add(
                "zerosum.solve.cells", _argument(a, k, 0, "game").payoff.size),
            "harness.monte_carlo_play": lambda a, k, r: self._add(
                "harness.rounds", _argument(a, k, 0, "spec").samples),
        }

    def _add(self, key, amount):
        self.counts[key] += int(amount)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, post):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if post is not None:
                post(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target at every binding in the loaded qgames modules."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "qgames" or n.startswith("qgames.")]
        hooks = self._post_hooks()
        try:
            for layer, names in TARGETS.items():
                home = sys.modules[f"qgames.{layer}"]
                for name in names:
                    span = f"{layer}.{name}"
                    post = hooks.get(span)
                    if "." in name or name[0].isupper():
                        cls_name, _, method = name.partition(".")
                        cls = getattr(home, cls_name)
                        attr = method or "__init__"
                        original = cls.__dict__[attr]
                        self._patch(cls, attr, original, self._wrap(span, original, post))
                        continue
                    original = getattr(home, name)
                    wrapper = self._wrap(span, original, post)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, attr, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        """Restore every binding `install` replaced."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def span_document(self, jobs):
        """Compact span list: names and jobs as indices into the given tables."""
        name_index = {n: i for i, n in enumerate(SPAN_NAMES)}
        job_index = {j: i for i, j in enumerate(jobs)}
        return {
            "names": list(SPAN_NAMES),
            "jobs": list(jobs),
            "spans": [[name_index[n], s, e, p, job_index[j]] for n, s, e, p, j in self.spans],
        }


def self_times(span_doc):
    """Per span name: (calls, self seconds), self = duration minus direct children."""
    spans = span_doc["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {name: [0, 0.0] for name in span_doc["names"]}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = totals[span_doc["names"][name]]
        entry[0] += 1
        entry[1] += end - start - child[i]
    return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

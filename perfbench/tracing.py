"""Span recorder for the traced benchmark run.

While an operation runs under ``Recorder.operation``, the public
functions listed in TARGETS are replaced by timing wrappers at every
binding the package calls through (the defining module, each module that
imported the name, and the package root), and restored afterwards. The
program itself is never edited: every number here is taken from outside,
at a call into a layer or from what the call returned.

A span is (id, parent id, operation id, name, start, end). A layer's
self time is the sum of its spans' durations minus the time covered by
their child spans. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import mcode.cli
import mcode.dataset
import mcode.evaluation
import mcode.lof
import mcode.model
import mcode.optim
import mcode.scoring

OPERATION_SPAN = "bench.operation"

# (span name, defining module, attribute). A span's self time is reported
# as the per-layer metric "<span name>_s"; fit_mcode's span is named after
# the mode it fits.
TARGETS = (
    ("dataset.load_csv", mcode.dataset, "load_csv"),
    ("dataset.inject", mcode.dataset, "inject_outliers"),
    ("dataset.standardize", mcode.dataset, "standardize"),
    ("optim.train", mcode.optim, "train_logistic"),
    ("optim.cv", mcode.optim, "cross_validate_lambda"),
    ("model.fit", mcode.model, "fit_mcode"),
    ("model.rho", mcode.model, "estimate_rho"),
    ("scoring.local_weights", mcode.scoring, "local_weights"),
    ("scoring.scores", mcode.scoring, "global_weights"),
    ("scoring.scores", mcode.scoring, "score_prod"),
    ("scoring.scores", mcode.scoring, "score_rw"),
    ("scoring.scores", mcode.scoring, "score_lrw"),
    ("lof.lof", mcode.lof, "lof_scores"),
    ("evaluation.atpar", mcode.evaluation, "atpar"),
    ("evaluation.tpar_curve", mcode.evaluation, "tpar_curve"),
    ("evaluation.score_methods", mcode.evaluation, "score_methods"),
    ("evaluation.run_experiment", mcode.evaluation, "run_experiment"),
    ("cli.detect", mcode.cli, "main"),
)

# Span names whose self time is reported, in report order.
LAYER_SPANS = (
    "optim.train", "optim.cv", "model.fit_full", "model.fit_independent",
    "model.rho", "scoring.knn", "scoring.local_weights", "scoring.scores",
    "lof.lof", "dataset.load_csv", "dataset.inject", "dataset.standardize",
    "evaluation.atpar", "evaluation.tpar_curve", "evaluation.score_methods",
    "evaluation.run_experiment", "cli.detect",
)


def _bindings(original):
    """Every (module, attribute) of the package that holds `original`."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "mcode" or name.startswith("mcode.")):
            continue
        for attr, value in vars(module).items():
            if value is original:
                found.append((module, attr))
    return found


class Recorder:
    """Collects spans and counters for the operations it is asked to trace."""

    def __init__(self):
        self.spans = []      # [id, parent, op, name, start, end]
        self.counts = Counter()  # (op, counter name) -> count
        self.factors = []    # (op, converged, final gradient norm)
        self.models = []     # (op, mode, lambdas)
        self._stack = []
        self._op = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, self._op, name, perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span):
        span[5] = perf_counter()
        self._stack.pop()

    def _timed(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, counter, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self._op, counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after_train(self, args, kwargs, factor):
        if isinstance(factor, mcode.optim.LogisticFactor):
            self.factors.append((self._op, bool(factor.converged),
                                 float(factor.final_gradient_norm)))

    def _after_fit(self, args, kwargs, model):
        self.models.append((self._op, model.mode, list(model.lambdas)))

    def _after_query_all(self, args, kwargs, result):
        # Computed, not measured: query_all holds an N x N float64 distance
        # matrix and an N x N int64 argsort result.
        n = args[0].n
        self.counts[self._op, "scoring.dist_bytes"] += 16 * n * n

    def _wrappers(self):
        def fit_name(args, kwargs):
            mode = args[1] if len(args) > 1 else kwargs.get(
                "mode", mcode.model.FULL_CONDITIONAL)
            return ("model.fit_full" if mode == mcode.model.FULL_CONDITIONAL
                    else "model.fit_independent")

        after = {"optim.train": self._after_train,
                 "model.fit": self._after_fit}
        for span_name, module, attr in TARGETS:
            fn = getattr(module, attr)
            name = fit_name if span_name == "model.fit" else span_name
            yield fn, self._timed(name, fn, after.get(span_name))
        nll = mcode.optim.penalized_nll
        yield nll, self._counted("optim.objective_evals", nll)

    @contextmanager
    def operation(self, op_id):
        """Trace one operation: patch on entry, restore on exit."""
        patched = []
        try:
            for original, wrapper in self._wrappers():
                for module, attr in _bindings(original):
                    patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
            index_cls = mcode.scoring.NeighborIndex
            query_all = index_cls.query_all
            patched.append((index_cls, "query_all", query_all))
            index_cls.query_all = self._timed("scoring.knn", query_all,
                                              self._after_query_all)
            self._op = op_id
            span = self._open(OPERATION_SPAN)
            try:
                yield
            finally:
                self._close(span)
        finally:
            self._op = None
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def self_times(self, ops):
        """{span name: summed self time} over the spans of the given ops."""
        ops = set(ops)
        child_time = Counter()
        for _, parent, op, _, start, end in self.spans:
            if parent is not None and op in ops:
                child_time[parent] += end - start
        totals = Counter()
        for sid, _, op, name, start, end in self.spans:
            if op in ops:
                totals[name] += (end - start) - child_time[sid]
        return totals

    def span_count(self, ops, name=None):
        ops = set(ops)
        return sum(1 for s in self.spans
                   if s[2] in ops and (name is None or s[3] == name))

    def dump(self):
        return [{"id": s[0], "parent": s[1], "op": s[2], "name": s[3],
                 "start": s[4], "end": s[5]} for s in self.spans]

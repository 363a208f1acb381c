"""Spans and counters recorded around calls into the sparsegrm layers.

The tracer measures each layer from outside: it replaces the module
attributes that callers look up (``sparsegrm._engine.theta_block``,
``sparsegrm.cv.fit`` and so on) with wrappers that record a span or bump a
counter, and puts the originals back afterwards.  Spans stay in memory until
the benchmark writes them out.  Timed runs never install the wrappers.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute, span name); wrapped calls become spans
SPANNED = [
    ("sparsegrm._engine", "theta_block", "engine.theta_block"),
    ("sparsegrm._engine", "a_block", "engine.a_block"),
    ("sparsegrm._engine", "d_block", "engine.d_block"),
    ("sparsegrm._engine", "full_objective", "engine.full_objective"),
    ("sparsegrm.cv", "select_lambda", "cv.select_lambda"),
    ("sparsegrm.cv", "fit_multistart", "cv.final_fit"),
    ("sparsegrm.simulate", "tune_and_fit", "simulate.tune_and_fit"),
    ("sparsegrm.simulate", "gen_true_params", "simulate.gen_true_params"),
    ("sparsegrm.simulate", "sample_responses", "simulate.sample_responses"),
    ("sparsegrm.cli", "load_responses", "data.load_responses"),
]
# wrapped calls that are fits: spans that also carry the fit's outcome
FITS = [
    ("sparsegrm.cv", "fit", "cv.fold_fit"),
    ("sparsegrm.optimizer", "fit", "optimizer.fit"),
]
# wrapped calls that are only counted; they are too many or too nested
# for a span each
COUNTED = [
    ("sparsegrm._engine", "adjacent_cums", "engine.adjacent_cums"),
    ("sparsegrm.cv", "category_prob", "cv.holdout_cells"),
]
ENGINE_SPANS = ("engine.theta_block", "engine.a_block", "engine.d_block",
                "engine.full_objective")
FIT_SPANS = tuple(name for _, _, name in FITS)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter store with attribute patching."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _parent(self):
        return getattr(self._local, "parent", None)

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; the caller may add entries to the yielded attrs."""
        sid = next(self._ids)
        parent = self._parent()
        self._local.parent = sid
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._local.parent = parent
            self.spans.append(Span(sid, name, start, end, parent, self.op, attrs))

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _fit(self, name, fn):
        def wrapper(data, hyper, cfg, *args, **kwargs):
            with self.span(name) as attrs:
                result = fn(data, hyper, cfg, *args, **kwargs)
                attrs.update(n_iters=result.n_iters,
                             converged=bool(result.converged),
                             cells=int(data.mask.sum()), threads=cfg.threads)
                return result
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """Counts constructions and carries the caller's span to workers."""

            def __init__(self, *args, **kwargs):
                tracer.count("optimizer.pools_created")
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._parent()

                def run():
                    tracer._local.parent = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.parent = None

                return super().submit(run)

        return TracedPool

    @contextmanager
    def installed(self):
        """Patch every wrapper in; restore the original attributes on exit."""
        saved = []

        def patch(module_name, attr, make):
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))

        try:
            for module_name, attr, name in SPANNED:
                patch(module_name, attr, lambda fn, n=name: self._spanned(n, fn))
            for module_name, attr, name in FITS:
                patch(module_name, attr, lambda fn, n=name: self._fit(n, fn))
            for module_name, attr, name in COUNTED:
                patch(module_name, attr, lambda fn, n=name: self._counted(n, fn))
            patch("sparsegrm.optimizer", "ThreadPoolExecutor", self._pool_class)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def to_records(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, **s.attrs}
                for s in self.spans]


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_seconds(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that child spans cover."""
    return span.seconds - _covered([(c.start, c.end) for c in children],
                                   span.start, span.end)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-op layer figures from the spans and counters of n_ops traced ops."""
    spans = tracer.spans
    counts = tracer.counts
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def named(*names):
        return [s for s in spans if s.name in names]

    def secs(*names):
        return sum(s.seconds for s in named(*names)) / n_ops

    def calls(*names):
        return len(named(*names)) / n_ops

    fits = named(*FIT_SPANS)
    engine = named(*ENGINE_SPANS)
    engine_s = sum(s.seconds for s in engine)
    capacity = sum(f.seconds * f.attrs["threads"] for f in fits)
    cell_iters = sum(f.attrs["cells"] * f.attrs["n_iters"] for f in fits)
    out = {}
    for name in ENGINE_SPANS:
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.s"] = (secs(name), "s")
    ls_evals = (counts["engine.adjacent_cums"] - len(named("engine.theta_block"))
                - len(named("engine.a_block")))
    out["engine.ls_evals"] = (ls_evals / n_ops, "count")
    out["engine.cells_per_s"] = (cell_iters / engine_s if engine_s else 0.0,
                                 "cells/s")
    out["optimizer.fits"] = (len(fits) / n_ops, "count")
    out["optimizer.outer_iters"] = (
        sum(f.attrs["n_iters"] for f in fits) / n_ops, "count")
    out["optimizer.converged_ratio"] = (
        sum(f.attrs["converged"] for f in fits) / len(fits) if fits else 0.0,
        "ratio")
    out["optimizer.fit.s"] = (secs(*FIT_SPANS), "s")
    out["optimizer.self_s"] = (
        sum(self_seconds(f, children.get(f.id, [])) for f in fits) / n_ops, "s")
    out["optimizer.pools_created"] = (
        counts["optimizer.pools_created"] / n_ops, "count")
    out["optimizer.block_utilization"] = (
        engine_s / capacity if capacity else 0.0, "ratio")
    out["cv.select_lambda.s"] = (secs("cv.select_lambda"), "s")
    out["cv.fold_fits"] = (calls("cv.fold_fit"), "count")
    out["cv.fold_fit.s"] = (secs("cv.fold_fit"), "s")
    out["cv.holdout_cells"] = (counts["cv.holdout_cells"] / n_ops, "count")
    out["cv.holdout.s"] = (
        sum(self_seconds(s, children.get(s.id, []))
            for s in named("cv.select_lambda")) / n_ops, "s")
    out["cv.final_fit.s"] = (secs("cv.final_fit"), "s")
    out["simulate.gen_s"] = (
        secs("simulate.gen_true_params", "simulate.sample_responses"), "s")
    out["data.load_responses.s"] = (secs("data.load_responses"), "s")
    # the benchmark writes its input file once, during set-up
    out["data.save_responses.s"] = (
        sum(s.seconds for s in named("data.save_responses")) + 0.0, "s")
    return out

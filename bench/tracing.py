"""Call tracing for the benchmark's traced run.

A Tracer replaces every public function of aucmax's layer modules (the names
in each module's ``__all__``) with a wrapper, at every aucmax module that
holds a reference to it, so calls made through ``from .models import
forward_batch`` are caught as well as calls made through the defining module.
Each call becomes one span (id, parent id, name, start, end, cell id, attr)
kept in memory; the spans are written out when the run ends. Uninstalling
puts every original function back.

This module imports only the standard library, so that importing it changes
nothing in the process under test.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import os
import sys
import time
import types
from collections import defaultdict
from typing import NamedTuple

PACKAGE = "aucmax"
# modules of PACKAGE whose public functions are traced; a span's name is
# "<module>.<function>"
TRACED_LAYERS = ("data", "models", "losses", "optimizer", "metrics", "experiments", "config")

# No workload trains on a larger mini-batch. A forward_batch call on more
# rows scores a whole dataset (per-epoch or CLI evaluation), not a batch.
BATCH_ROWS_MAX = 64


class Span(NamedTuple):
    sid: int
    parent: int      # -1 for a root span
    name: str
    t0: int          # perf_counter_ns at entry
    t1: int          # perf_counter_ns at exit
    cell: int        # cell id, -1 outside any cell
    attr: object     # per-name measurement of the call (rows, bytes, ...)


def _rows(args, kwargs, pos, key):
    return len(args[pos] if len(args) > pos else kwargs[key])


def _both_classes(args, kwargs):
    labels = args[1] if len(args) > 1 else kwargs["labels"]
    return bool((labels > 0).any() and (labels < 0).any())


# span name -> f(args, kwargs) giving the span's attr, evaluated after the call
_ATTRS = {
    "models.forward_batch": lambda a, kw: _rows(a, kw, 2, "X"),
    "metrics.auc_score": lambda a, kw: _rows(a, kw, 0, "scores"),
    "losses.minmax_grads": _both_classes,
    "data.save_csv": lambda a, kw: os.path.getsize(a[1] if len(a) > 1 else kw["path"]),
}


class Tracer:
    """Span recorder; install() patches aucmax, uninstall() restores it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cell = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    def _enter(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _wrap(self, name: str, fn):
        attr_fn = _ATTRS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._enter()
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                tracer._stack.pop()
                attr = None
                if attr_fn is not None:
                    try:
                        attr = attr_fn(args, kwargs)
                    except (IndexError, KeyError, TypeError, AttributeError, OSError):
                        pass
                tracer.spans.append(Span(sid, parent, name, t0, t1, tracer.cell, attr))

        traced.bench_traced = True
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call it makes."""
        sid, parent = self._enter()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, t0, t1, self.cell, None))

    def install(self) -> None:
        """Wrap the public functions of the traced layers wherever aucmax holds them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        names = {}
        for layer in TRACED_LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if isinstance(fn, types.FunctionType):
                    names[fn] = f"{layer}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("sid\tparent\tname\tt0_ns\tt1_ns\tcell\tattr\n")
            for s in self.spans:
                fh.write(f"{s.sid}\t{s.parent}\t{s.name}\t{s.t0}\t{s.t1}\t{s.cell}\t"
                         f"{'' if s.attr is None else s.attr}\n")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def traced_sites() -> list[str]:
    """Module attributes that still hold a tracing wrapper (empty once uninstalled)."""
    return [f"{mod.__name__}.{attr}" for mod in _package_modules()
            for attr, value in vars(mod).items() if getattr(value, "bench_traced", False)]


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> self time in ns: its duration minus the part of its interval
    that the union of its child spans covers."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered = 0
        run_start = run_end = None
        for c0, c1 in sorted(children.get(s.sid, ())):
            c0, c1 = max(c0, s.t0), min(c1, s.t1)
            if c1 <= c0:
                continue
            if run_end is None or c0 > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c0, c1
            else:
                run_end = max(run_end, c1)
        if run_end is not None:
            covered += run_end - run_start
        out[s.sid] = (s.t1 - s.t0) - covered
    return out


# per-layer metric -> span names whose self times it sums
_SELF_TIME_METRICS = {
    "data.save_csv_s": ("data.save_csv",),
    "data.load_csv_s": ("data.load_csv",),
    "data.generate_s": ("data.gen_gaussian_toy", "data.make_imbalanced", "data.inject_noise",
                        "data.inject_easy", "data.dataset_hash"),
    "experiments.prepare_data_s": ("experiments.prepare_data",),
    "models.forward_s": ("models.forward_batch",),
    "models.backward_s": ("models.backward_vjp",),
    "models.file_io_s": ("models.save_model", "models.load_model"),
    "losses.minmax_s": ("losses.minmax_grads", "losses.minmax_value"),
    "losses.bsn_s": ("losses.batch_score_normalize", "losses.bsn_vjp"),
    "losses.pointwise_s": ("losses.cross_entropy_loss_and_coeffs", "losses.focal_loss_and_coeffs"),
    "optimizer.pesg_step_s": ("optimizer.pesg_step", "optimizer.on_epoch_end"),
    "optimizer.loop_self_s": ("optimizer.pesg_train", "optimizer.sgd_train"),
    "metrics.auc_s": ("metrics.auc_score",),
    "cli.gen_data_s": ("cli.gen_data",),
    "cli.train_s": ("cli.train",),
    "cli.eval_s": ("cli.eval",),
    "config.load_s": ("config.load_config", "config.parse_config"),
}

_COUNT_METRICS = {
    "models.forward_calls": "models.forward_batch",
    "models.backward_calls": "models.backward_vjp",
    "losses.minmax_calls": "losses.minmax_grads",
    "optimizer.pesg_steps": "optimizer.pesg_step",
    "metrics.auc_calls": "metrics.auc_score",
}

LAYER_METRICS = (
    sorted(_SELF_TIME_METRICS) + sorted(_COUNT_METRICS)
    + ["data.csv_bytes", "experiments.self_s", "models.forward_rows", "metrics.auc_rows",
       "metrics.eval_share", "optimizer.sgd_steps", "optimizer.two_class_batch_ratio"]
)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def cell_layer_metrics(spans: list[Span], cell_ns: int) -> dict[str, float]:
    """Per-layer metrics of one cell's spans; cell_ns is the cell's wall time.

    ``optimizer.two_class_batch_ratio`` is returned as a (both, total) pair so
    that it can be pooled over cells.
    """
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    self_by_name = defaultdict(int)
    count = defaultdict(int)
    out = {}
    eval_ns = 0
    rows = {"models.forward_batch": 0, "metrics.auc_score": 0}
    csv_bytes = sgd_steps = both = 0
    for s in spans:
        self_by_name[s.name] += selfs[s.sid]
        count[s.name] += 1
        if s.name in rows and s.attr is not None:
            rows[s.name] += s.attr
        if s.name == "models.forward_batch" and (s.attr or 0) > BATCH_ROWS_MAX:
            eval_ns += selfs[s.sid]
        elif s.name == "models.backward_vjp" and s.parent in by_id \
                and by_id[s.parent].name == "optimizer.sgd_train":
            sgd_steps += 1
        elif s.name == "losses.minmax_grads" and s.attr:
            both += 1
        elif s.name == "data.save_csv" and s.attr is not None:
            csv_bytes += s.attr
    for metric, names in _SELF_TIME_METRICS.items():
        out[metric] = sum(self_by_name[n] for n in names) / 1e9
    for metric, name in _COUNT_METRICS.items():
        out[metric] = count[name]
    out["experiments.self_s"] = sum(
        v for n, v in self_by_name.items()
        if n.startswith("experiments.") and n != "experiments.prepare_data") / 1e9
    out["data.csv_bytes"] = csv_bytes
    out["models.forward_rows"] = rows["models.forward_batch"]
    out["metrics.auc_rows"] = rows["metrics.auc_score"]
    out["metrics.eval_share"] = (eval_ns + self_by_name["metrics.auc_score"]) / max(cell_ns, 1)
    out["optimizer.sgd_steps"] = sgd_steps
    out["optimizer.two_class_batch_ratio"] = (both, count["losses.minmax_grads"])
    return out

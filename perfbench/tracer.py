"""Span tracer that wraps curereg's calls between modules from the outside.

Every callee in curereg is looked up as a module global at call time, so
replacing a module attribute (``curereg.deflation.run_path``, say) with a
timing wrapper records each call made through that name without touching
the package source.  A wrapper records a span (layer, name, start, end,
parent) or, for calls made once per solver step, only a count.  The layer
of a span is the module of the callee.  ``uninstall`` puts every original
attribute back.

Spans are kept in memory per round and reduced to per-layer metrics by
:func:`round_metrics`.  A layer's self time is the duration of its spans
minus the part of each span that its child spans cover.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("cli", "io", "simgen", "core", "stagewise", "baselines",
          "deflation", "tuning", "metrics")


def _file_mb(args, kwargs):
    try:
        return os.path.getsize(args[0]) / 1e6
    except (IndexError, OSError, TypeError):
        return 0.0


def _path_steps(args, kwargs, out):
    return {"steps": len(out.steps) - 1}


def _lasso_levels(args, kwargs, out):
    lams = [lam for lam, _ in out[2]]
    return {"levels": len(lams), "useful": lams.index(out[1]) + 1}


def _acs_levels(args, kwargs, out):
    return {"levels": len(out)}


def _layer_zero(args, kwargs, out):
    return {"zero": int(out.is_zero)}


def _accepted(args, kwargs, out):
    return {"accepted": int(out is not None)}


# (module, attribute, layer, span name, result hook).  The size hook of an
# io span reads the file named by the first argument after the call.
SPANS = (
    ("cli", "read_matrix_csv", "io", "read", None),
    ("cli", "load_factor_model", "io", "read", None),
    ("cli", "save_factor_model", "io", "write", None),
    ("cli", "write_path_jsonl", "io", "write", None),
    ("cli", "atomic_write_text", "io", "write", None),
    ("cli", "column_normalize", "core", "normalize", None),
    ("cli", "p_orthogonal_svd", "core", "porth", None),
    ("cli", "rescale_factor_rows", "core", "rescale", None),
    ("cli", "deflate", "deflation", "deflate", None),
    ("cli", "lasso_gic_path", "baselines", "lasso_path", _lasso_levels),
    ("cli", "fit_rrr", "baselines", "rrr", None),
    ("cli", "select_rank_cv", "baselines", "rrr", None),
    ("cli", "kfold_cv_select", "tuning", "cv", None),
    ("cli", "run_path", "stagewise", "path", _path_steps),
    ("cli", "estimation_errors", "metrics", "score", None),
    ("cli", "selection_rates", "metrics", "score", None),
    ("cli", "sparsity_summary", "metrics", "score", None),
    ("deflation", "sequential_pursuit", "deflation", "sequential", None),
    ("deflation", "parallel_pursuit", "deflation", "parallel", None),
    ("deflation", "_pilot_matrix", "deflation", "pilot", None),
    ("deflation", "_fit_unit_rank", "deflation", "layer", _layer_zero),
    ("deflation", "run_path", "stagewise", "path", _path_steps),
    ("deflation", "select_on_path", "stagewise", "select", None),
    ("deflation", "acs_path", "baselines", "acs_path", _acs_levels),
    ("deflation", "lasso_gic_path", "baselines", "lasso_path", _lasso_levels),
    ("deflation", "fit_rrr", "baselines", "rrr", None),
    ("deflation", "default_lambda_grid", "baselines", "grid", None),
    ("deflation", "kfold_cv_select", "tuning", "cv", None),
    ("deflation", "p_orthogonal_svd", "core", "porth", None),
    ("deflation", "renormalize_factor", "core", "renormalize", None),
    ("deflation", "hard_threshold_layer", "core", "threshold", None),
    ("deflation", "residual", "core", "residual", None),
    ("baselines", "svd_of_ols_factor", "baselines", "ols_init", None),
)

# Calls made once per solver step or per penalty level: counted, not timed,
# so their time stays in the caller's span.
COUNTS = (
    ("stagewise", "propose_backward", "stagewise", "backward", _accepted),
    ("stagewise", "propose_forward", "stagewise", "forward", None),
    ("stagewise", "information_criterion", "stagewise", "ic", None),
    ("deflation", "information_criterion", "tuning", "ic", None),
    ("baselines", "acs_cure", "baselines", "acs_level", None),
    ("baselines", "lasso_cd", "baselines", "lasso_level", None),
)

# Calls the benchmark's own set-up code makes into the package.
SETUP_SPANS = (
    ("simgen", "gen_dataset", "simgen", "gen", None),
    ("io", "write_matrix_csv", "io", "write", None),
    ("io", "save_factor_model", "io", "write", None),
)


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "info", "pooled")

    def __init__(self, layer, name, start, parent):
        self.layer = layer
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.info = None
        self.pooled = False

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Records spans and counts; owns the module attributes it replaced."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []

    # -- recording ---------------------------------------------------------

    def current(self):
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", None)

    def open(self, layer, name):
        span = Span(layer, name, time.perf_counter(), self.current())
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._local.stack.pop()
        with self._lock:
            self.spans.append(span)

    def count(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    def reset(self):
        self.spans = []
        self.counts = Counter()

    # -- patching ----------------------------------------------------------

    def _span_wrapper(self, orig, layer, name, hook):
        tracer = self
        sized = layer == "io"

        def wrapper(*args, **kwargs):
            span = tracer.open(layer, name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.close(span)
            if sized:
                span.info = {"mb": _file_mb(args, kwargs)}
            elif hook is not None:
                span.info = hook(args, kwargs, out)
            return out

        wrapper.__wrapped__ = orig
        return wrapper

    def _count_wrapper(self, orig, layer, name, hook):
        tracer = self
        key = f"{layer}.{name}"

        if name == "lasso_level":
            def wrapper(*args, **kwargs):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    out = orig(*args, **kwargs)
                tracer.count(key)
                for w in caught:
                    if "stationarity tolerance" in str(w.message):
                        tracer.count(f"{key}.nonconverged")
                    warnings.warn_explicit(w.message, w.category, w.filename,
                                           w.lineno)
                return out
        else:
            def wrapper(*args, **kwargs):
                out = orig(*args, **kwargs)
                tracer.count(key)
                if hook is not None:
                    for k, v in hook(args, kwargs, out).items():
                        tracer.count(f"{key}.{k}", v)
                return out

        wrapper.__wrapped__ = orig
        return wrapper

    def _replace(self, module_name, attr, new):
        module = importlib.import_module(f"curereg.{module_name}")
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self, spans=SPANS, counts=COUNTS, pool=True):
        """Replace every target attribute; call :meth:`uninstall` to undo."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, layer, name, hook in spans:
            module = importlib.import_module(f"curereg.{module_name}")
            orig = getattr(module, attr)
            self._replace(module_name, attr,
                          self._span_wrapper(orig, layer, name, hook))
        for module_name, attr, layer, name, hook in counts:
            module = importlib.import_module(f"curereg.{module_name}")
            orig = getattr(module, attr)
            self._replace(module_name, attr,
                          self._count_wrapper(orig, layer, name, hook))
        if pool:
            self._replace("deflation", "ThreadPoolExecutor",
                          _traced_executor(self))

    def uninstall(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)


def _traced_executor(tracer):
    """A ThreadPoolExecutor whose tasks inherit the submitting thread's span."""

    class TracedExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()
            if parent is not None:
                parent.pooled = True

            def run():
                tracer._local.inherited = parent
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._local.inherited = None

            return super().submit(run)

    return TracedExecutor


def targets(spans=SPANS, counts=COUNTS):
    """The (module, attribute) pairs :meth:`Tracer.install` replaces."""
    pairs = [(m, a) for m, a, *_ in spans] + [(m, a) for m, a, *_ in counts]
    return pairs + [("deflation", "ThreadPoolExecutor")]


# -- reduction ----------------------------------------------------------------


def _union_length(intervals, lo, hi):
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _ancestors(span):
    node = span.parent
    while node is not None:
        yield node
        node = node.parent


def _units():
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        if layer not in ("cli", "simgen"):
            units[f"{layer}.share"] = "1"
    units.update({
        "cli.import_s": "s", "metrics.import_s": "s", "metrics.score_s": "s",
        "io.read_s": "s", "io.read_mb": "MB", "io.write_s": "s", "io.write_mb": "MB",
        "io.setup_write_s": "s", "io.setup_write_mb": "MB", "simgen.gen_s": "s",
        "core.normalize_s": "s", "core.porth_s": "s", "core.residual_s": "s",
        "core.residual_calls": "count",
        "stagewise.path_s": "s", "stagewise.paths": "count",
        "stagewise.steps": "count", "stagewise.us_per_step": "us",
        "stagewise.backward_calls": "count", "stagewise.backward_accept_ratio": "1",
        "stagewise.forward_calls": "count", "stagewise.ic_calls": "count",
        "stagewise.select_s": "s", "stagewise.retained_bytes_per_step": "B",
        "baselines.lasso_path_s": "s", "baselines.lasso_levels": "count",
        "baselines.lasso_level_ms": "ms", "baselines.lasso_useful_ratio": "1",
        "baselines.lasso_nonconverged": "count", "baselines.acs_path_s": "s",
        "baselines.acs_levels": "count", "baselines.acs_level_ms": "ms",
        "baselines.ols_init_s": "s", "baselines.rrr_s": "s",
        "deflation.deflate_s": "s", "deflation.pilot_s": "s",
        "deflation.layers": "count", "deflation.layer_max_s": "s",
        "deflation.dropped_layers": "count", "deflation.concurrency": "1",
        "tuning.cv_s": "s", "tuning.cv_paths_per_layer": "count",
        "trace.overhead_frac": "1", "trace.unattributed_frac": "1",
    })
    return units


# Unit of every per-layer metric the traced run reports, keyed by name:
# those of round_metrics and setup_metrics below, the import times and the
# retained-bytes probe of the worker, and the tracing overhead.
UNITS = _units()


def round_metrics(spans, counts, command_wall_s):
    """Per-layer metrics of one traced round.

    ``command_wall_s`` is the sum of the round's command wall times measured
    around each root span, so the time the spans leave unattributed shows.
    """
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    self_s = Counter()
    calls = Counter()
    inclusive = Counter()
    for span in spans:
        kids = children.get(id(span), ())
        covered = _union_length([(k.start, k.end) for k in kids],
                                span.start, span.end)
        self_s[span.layer] += span.seconds - covered
        calls[span.layer] += 1
        if all(a.layer != span.layer for a in _ancestors(span)):
            inclusive[span.layer] += span.seconds
    for key, value in counts.items():
        layer, _, rest = key.partition(".")
        if "." not in rest:
            calls[layer] += value

    def total(layer, name):
        return sum(s.seconds for s in spans if s.layer == layer and s.name == name)

    def info_sum(layer, name, field):
        return sum(s.info[field] for s in spans
                   if s.layer == layer and s.name == name and s.info)

    roots = sum(s.seconds for s in spans if s.parent is None and s.layer == "cli")
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.calls"] = calls[layer]
        if layer not in ("cli", "simgen"):
            m[f"{layer}.share"] = inclusive[layer] / roots if roots else 0.0

    m["metrics.score_s"] = total("metrics", "score")
    m["io.read_s"] = total("io", "read")
    m["io.read_mb"] = info_sum("io", "read", "mb")
    m["io.write_s"] = total("io", "write")
    m["io.write_mb"] = info_sum("io", "write", "mb")
    m["core.normalize_s"] = total("core", "normalize")
    m["core.porth_s"] = total("core", "porth")
    m["core.residual_s"] = total("core", "residual")
    m["core.residual_calls"] = sum(1 for s in spans
                                   if s.layer == "core" and s.name == "residual")

    path_s = total("stagewise", "path")
    steps = info_sum("stagewise", "path", "steps")
    backward = counts["stagewise.backward"]
    m["stagewise.path_s"] = path_s
    m["stagewise.paths"] = sum(1 for s in spans
                               if s.layer == "stagewise" and s.name == "path")
    m["stagewise.steps"] = steps
    m["stagewise.us_per_step"] = 1e6 * path_s / steps if steps else 0.0
    m["stagewise.backward_calls"] = backward
    m["stagewise.backward_accept_ratio"] = (
        counts["stagewise.backward.accepted"] / backward if backward else 0.0)
    m["stagewise.forward_calls"] = counts["stagewise.forward"]
    m["stagewise.ic_calls"] = counts["stagewise.ic"]
    m["stagewise.select_s"] = total("stagewise", "select")

    lasso_s = total("baselines", "lasso_path")
    lasso_levels = info_sum("baselines", "lasso_path", "levels")
    m["baselines.lasso_path_s"] = lasso_s
    m["baselines.lasso_levels"] = lasso_levels
    m["baselines.lasso_level_ms"] = 1e3 * lasso_s / lasso_levels if lasso_levels else 0.0
    m["baselines.lasso_useful_ratio"] = (
        info_sum("baselines", "lasso_path", "useful") / lasso_levels
        if lasso_levels else 0.0)
    m["baselines.lasso_nonconverged"] = counts["baselines.lasso_level.nonconverged"]
    acs_s = total("baselines", "acs_path")
    acs_levels = info_sum("baselines", "acs_path", "levels")
    m["baselines.acs_path_s"] = acs_s
    m["baselines.acs_levels"] = acs_levels
    m["baselines.acs_level_ms"] = 1e3 * acs_s / acs_levels if acs_levels else 0.0
    m["baselines.ols_init_s"] = total("baselines", "ols_init")
    m["baselines.rrr_s"] = total("baselines", "rrr")

    layer_spans = [s for s in spans if s.layer == "deflation" and s.name == "layer"]
    m["deflation.deflate_s"] = total("deflation", "deflate")
    m["deflation.pilot_s"] = total("deflation", "pilot")
    m["deflation.layers"] = len(layer_spans)
    m["deflation.layer_max_s"] = max((s.seconds for s in layer_spans), default=0.0)
    m["deflation.dropped_layers"] = info_sum("deflation", "layer", "zero")
    busy = wall = 0.0
    for phase in {id(s.parent): s.parent for s in layer_spans
                  if s.parent is not None and s.parent.pooled}.values():
        kids = [s for s in layer_spans if s.parent is phase]
        busy += sum(s.seconds for s in kids)
        wall += max(s.end for s in kids) - min(s.start for s in kids)
    m["deflation.concurrency"] = busy / wall if wall else 0.0

    m["tuning.cv_s"] = total("tuning", "cv")
    per_layer = []
    for lay in layer_spans:
        inside = [s for s in spans if lay in _ancestors(s)]
        if any(s.layer == "tuning" and s.name == "cv" for s in inside):
            per_layer.append(sum(1 for s in inside if s.name in
                                 ("path", "acs_path", "lasso_path")))
    m["tuning.cv_paths_per_layer"] = (sum(per_layer) / len(per_layer)
                                      if per_layer else 0.0)

    attributed = sum(self_s[layer] for layer in LAYERS)
    m["trace.unattributed_frac"] = ((command_wall_s - attributed) / command_wall_s
                                    if command_wall_s else 0.0)
    return m


def setup_metrics(spans):
    """Set-up metrics of one instance set: generation and CSV/JSON writes."""
    gen = sum(s.seconds for s in spans if s.layer == "simgen")
    writes = [s for s in spans if s.layer == "io"]
    return {
        "simgen.gen_s": gen,
        "simgen.self_s": gen,
        "simgen.calls": sum(1 for s in spans if s.layer == "simgen"),
        "io.setup_write_s": sum(s.seconds for s in writes),
        "io.setup_write_mb": sum(s.info["mb"] for s in writes if s.info),
    }

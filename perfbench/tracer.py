"""Spans around the calls into each spnexplain module, recorded from outside.

`Tracer.install` replaces every module attribute of the package that *is*
one of the traced public functions with a wrapper that records a span, so a
function re-exported or imported by name into several modules (for example
`eval_log_density` in `model`, `explain` and `metrics`) is traced at every
import site. `Tracer.uninstall` puts the originals back. A traced function
that no longer exists is reported as absent; its metrics read 0.

A span is `[name, start, end, parent, op, info]`: `parent` is the index of
the enclosing span (-1 at the root), `op` numbers the benchmark operation
(each root span starts a new one), and `info` holds counts taken from the
call's arguments or result. Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

import numpy as np


def _eval_info(args, kwargs, result):
    # (queries in the batch, node evaluations = batch x arena size)
    model = args[0] if args else kwargs["model"]
    queries = args[1] if len(args) > 1 else kwargs["queries"]
    batch = 1 if np.ndim(queries) == 1 else int(np.shape(queries)[0])
    return batch, batch * len(model.nodes)


def _split_info(args, kwargs, result):
    return len(result)  # number of column groups found


# (module, public function, extractor of span info or None)
TRACED = (
    ("spnexplain.datagen", "generate", None),
    ("spnexplain.data", "load_csv", None),
    ("spnexplain.data", "save_csv", None),
    ("spnexplain.learn", "learn_spn", None),
    ("spnexplain.learn", "split_columns", _split_info),
    ("spnexplain.learn", "rdc", None),
    ("spnexplain.learn", "cluster_rows", None),
    ("spnexplain.learn", "fit_leaf", None),
    ("spnexplain.model", "validate", None),
    ("spnexplain.model", "eval_log_density", _eval_info),
    ("spnexplain.model", "save_model", None),
    ("spnexplain.model", "load_model", None),
    ("spnexplain.explain", "explain", None),
    ("spnexplain.explain", "backward_elimination", None),
    ("spnexplain.explain", "forward_beam_search", None),
    ("spnexplain.explain", "elbow_select", None),
    ("spnexplain.explain", "zscore_select", None),
    ("spnexplain.explain", "subspace_score_stats", None),
    ("spnexplain.metrics", "detect", None),
)

PACKAGE = "spnexplain"


def span_name(module: str, func: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{func}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._op = 0
        self._patches: list[tuple] = []

    def _begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._op += 1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _end(self, index: int, end: float, info=None) -> None:
        span = self.spans[index]
        span[2] = end
        span[5] = info
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; recorded only while active."""
        if not self.active:
            yield
            return
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index, time.perf_counter())

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def _wrap(self, name: str, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._end(index, time.perf_counter())
                raise
            end = time.perf_counter()
            self._end(index, end, info(args, kwargs, result) if info else None)
            return result
        return traced

    def install(self) -> None:
        targets = []
        for module, func, info in TRACED:
            try:
                fn = getattr(importlib.import_module(module), func)
            except (ImportError, AttributeError):
                if f"{module}.{func}" not in self.absent:
                    self.absent.append(f"{module}.{func}")
                continue
            targets.append((fn, self._wrap(span_name(module, func), fn, info)))
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for fn, wrapper in targets:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, fn))
        self.active = True

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()
        self.active = False

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, absent=self.absent,
                                     counts=self.counts)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, model, overhead_frac: float,
                  mean_f1: float) -> dict[str, float]:
    """Per-layer metrics from the spans, the counts, the traced model and the
    mean F1 of its explanations against the planted truth."""
    spans = tracer.spans
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_s = [0.0] * len(spans)
    in_explain = [False] * len(spans)
    for i, (name, start, end, parent, _op, _info) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_s[parent] += end - start
        in_explain[i] = name == "explain.explain" or (parent >= 0 and in_explain[parent])

    def self_s(*names: str) -> float:
        return sum(s[2] - s[1] - child_s[i] for i, s in enumerate(spans) if s[0] in names)

    split_groups = [s[5] for s in spans if s[0] == "learn.split_columns" and s[5] is not None]
    evals = [(s[5], in_explain[i]) for i, s in enumerate(spans)
             if s[0] == "model.eval_log_density" and s[5] is not None]
    passes = len(evals)
    queries = sum(info[0] for info, _ in evals)
    node_evals = sum(info[1] for info, _ in evals)
    explain_node_evals = sum(info[1] for info, inside in evals if inside)
    logical = tracer.counts.get("explain.logical_queries", 0)
    kinds = [type(node).__name__ for node in model.nodes] if model is not None else []
    return {
        "learn.rdc_s": total.get("learn.rdc", 0.0),
        "learn.rdc_calls": calls.get("learn.rdc", 0),
        "learn.split_columns_s": total.get("learn.split_columns", 0.0),
        "learn.split_columns_calls": len(split_groups),
        "learn.split_frac": (sum(g > 1 for g in split_groups) / len(split_groups)
                             if split_groups else 0.0),
        "learn.cluster_rows_s": total.get("learn.cluster_rows", 0.0),
        "learn.cluster_rows_calls": calls.get("learn.cluster_rows", 0),
        "learn.fit_leaf_s": total.get("learn.fit_leaf", 0.0),
        "learn.fit_leaf_calls": calls.get("learn.fit_leaf", 0),
        "learn.validate_s": sum(s[2] - s[1] for s in spans if s[0] == "model.validate"
                                and s[3] >= 0 and spans[s[3]][0] == "learn.learn_spn"),
        "learn.self_s": self_s("learn.learn_spn"),
        "model.nodes": len(kinds),
        "model.sum_nodes": kinds.count("SumNode"),
        "model.product_nodes": kinds.count("ProductNode"),
        "model.leaf_nodes": kinds.count("GaussianLeaf") + kinds.count("CategoricalLeaf"),
        "model.categorical_leaves": kinds.count("CategoricalLeaf"),
        "model.eval_s": total.get("model.eval_log_density", 0.0),
        "model.eval_passes": passes,
        "model.eval_queries": queries,
        "model.queries_per_pass": queries / passes if passes else 0.0,
        "model.node_evals": node_evals,
        "explain.search_s": (total.get("explain.backward_elimination", 0.0)
                             + total.get("explain.forward_beam_search", 0.0)),
        "explain.search_self_s": self_s("explain.backward_elimination",
                                        "explain.forward_beam_search"),
        "explain.logical_queries": logical,
        "explain.node_evals_per_query": explain_node_evals / logical if logical else 0.0,
        "explain.mean_f1": mean_f1,
        "explain.select_s": (total.get("explain.elbow_select", 0.0)
                             + total.get("explain.zscore_select", 0.0)),
        "explain.zscore_stats_calls": calls.get("explain.subspace_score_stats", 0),
        "explain.zscore_stats_s": total.get("explain.subspace_score_stats", 0.0),
        "metrics.detect_s": total.get("metrics.detect", 0.0),
        "metrics.detect_calls": calls.get("metrics.detect", 0),
        "data.load_csv_s": total.get("data.load_csv", 0.0),
        "data.save_csv_s": total.get("data.save_csv", 0.0),
        "model.save_s": total.get("model.save_model", 0.0),
        "model.load_s": total.get("model.load_model", 0.0),
        "cli.train_s": total.get("cli.train", 0.0),
        "cli.score_s": total.get("cli.score", 0.0),
        "cli.explain_s": total.get("cli.explain", 0.0),
        "cli.eval_s": total.get("cli.eval", 0.0),
        "datagen.generate_s": total.get("datagen.generate", 0.0),
        "trace.overhead_frac": overhead_frac,
    }

"""Detection thresholds, explanation quality metrics, and benchmark runs."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .data import NUMBER, Dataset, check_rows, format_float, is_a
from .datagen import LabeledDataset
from .explain import ExplainConfig, ExplanationTrace, explain_rows
from .learn import LearnConfig, learn_spn
from .model import SpnModel, eval_log_density


def f1_dims(predicted, truth) -> tuple[float, float, float]:
    """Set-overlap precision/recall/F1 between predicted and true feature sets."""
    pred = set(predicted)
    true = set(truth)
    if not pred or not true:
        raise ValueError("f1_dims needs non-empty feature sets")
    hits = len(pred & true)
    precision = hits / len(pred)
    recall = hits / len(true)
    f1 = 0.0 if hits == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def detect(model: SpnModel, dataset: Dataset,
           contamination: float) -> tuple[list[int], np.ndarray]:
    """Flag the most outlying rows by full-joint negative log-density.

    The threshold is the score at the (1 - contamination) quantile rounded
    up to an order statistic, so it is one of the scores, +inf included;
    rows scoring at or above it are flagged (so ties, including the
    all-identical degenerate case, flag every tied row). The dataset is
    encoded under the model's schema, and its rows keep the row rule
    (`check_rows`), so no cell is marginalized and every score is a joint
    density; a column whose name, kind or categories differ from the
    model's, or a row that breaks the rule, raises ValueError.
    """
    if not (is_a(contamination, NUMBER) and 0.0 < contamination < 1.0):
        raise ValueError(f"contamination must be in (0,1), got {contamination}")
    # one quick tuple compare when the columns are the model's own objects
    if tuple(dataset.schema) != model.schema:
        for j, (ours, theirs) in enumerate(zip(model.schema, dataset.schema)):
            if ours != theirs:
                raise ValueError(f"dataset column {j} is {theirs}, not the model's {ours}")
    check_rows(dataset.values, dataset.schema)
    scores = -eval_log_density(model, dataset.values)
    threshold = np.quantile(scores, 1.0 - contamination, method="higher")
    flagged = [int(i) for i in np.flatnonzero(scores >= threshold)]
    return flagged, scores


@dataclass
class EvalReport:
    rows: list[int]
    f1: list[float]
    eval_counts: list[int]
    mean_f1: float
    train_seconds: float
    explain_seconds: float
    n_features: int
    strategy: str
    selection: str


def trace_record(row: int, trace: ExplanationTrace) -> dict:
    """One explanation as a JSON record; a non-finite log-density is null."""
    return {
        "row": row,
        "selected": list(trace.selected),
        "size": trace.selected_size,
        "per_size": [{"k": sb.size, "features": list(sb.subspace),
                      "log_density": (sb.log_density if math.isfinite(sb.log_density)
                                      else None)} for sb in trace.per_size],
        "strategy": trace.strategy,
        "selection": trace.selection,
        "evals": trace.eval_count,
    }


def format_explanations(rows: list[int], traces: list[ExplanationTrace]) -> str:
    """The strict JSON-lines of `explain` and `bench`, one record a row."""
    return "".join(json.dumps(trace_record(r, t), allow_nan=False) + "\n"
                   for r, t in zip(rows, traces))


def run_benchmark(labeled: LabeledDataset, learn_config: LearnConfig,
                  explain_config: ExplainConfig,
                  explanations_path: str | None = None,
                  summary_path: str | None = None) -> EvalReport:
    """Train once, explain every labeled outlier, and aggregate F1 scores."""
    dataset = labeled.dataset
    t0 = time.perf_counter()
    model = learn_spn(dataset, learn_config)
    train_s = time.perf_counter() - t0

    rows = list(labeled.outlier_rows)
    t0 = time.perf_counter()
    traces = explain_rows(model, dataset.values, rows, explain_config)
    explain_s = time.perf_counter() - t0
    f1s = [f1_dims(t.selected, labeled.ground_truth[r])[2]
           for r, t in zip(rows, traces)]

    # summed in order, as `eval` sums, so both report the same mean
    report = EvalReport(rows, f1s, [t.eval_count for t in traces],
                        sum(f1s) / len(f1s) if f1s else 0.0,
                        train_s, explain_s, dataset.n_features,
                        explain_config.strategy, explain_config.selection)
    if explanations_path is not None:
        with open(explanations_path, "w", encoding="utf-8") as fh:
            fh.write(format_explanations(rows, traces))
    if summary_path is not None:
        write_summary([report], summary_path)
    return report


SUMMARY_COLUMNS = ("n_features", "strategy", "selection", "mean_f1",
                   "mean_evals", "train_s", "explain_s")


def write_summary(reports: list[EvalReport], path: str) -> None:
    """Plot-ready TSV: one row per benchmark report."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(SUMMARY_COLUMNS) + "\n")
        for r in reports:
            fh.write("\t".join([
                str(r.n_features), r.strategy, r.selection,
                format_float(r.mean_f1),
                format_float(float(np.mean(r.eval_counts)) if r.eval_counts else 0.0),
                format_float(r.train_seconds),
                format_float(r.explain_seconds),
            ]) + "\n")

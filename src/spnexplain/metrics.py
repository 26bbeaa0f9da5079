"""Detection thresholds, explanation quality metrics, and benchmark runs."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset, format_float
from .datagen import LabeledDataset
from .explain import ExplainConfig, ExplanationTrace, explain
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

    The threshold is the (1 - contamination) quantile of all row scores;
    rows scoring at or above it are flagged (so ties, including the
    all-identical degenerate case, flag every tied row).
    """
    if not (0.0 < contamination < 1.0):
        raise ValueError(f"contamination must be in (0,1), got {contamination}")
    scores = -eval_log_density(model, dataset.values)
    threshold = np.quantile(scores, 1.0 - contamination)
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
    return {
        "row": row,
        "selected": list(trace.selected),
        "size": trace.selected_size,
        "per_size": [{"k": sb.size, "features": list(sb.subspace),
                      "log_density": sb.log_density} for sb in trace.per_size],
        "strategy": trace.strategy,
        "selection": trace.selection,
        "evals": trace.eval_count,
    }


def run_benchmark(labeled: LabeledDataset, learn_config: LearnConfig,
                  explain_config: ExplainConfig,
                  explanations_path: str | None = None,
                  summary_path: str | None = None) -> EvalReport:
    """Train once, explain every labeled outlier, and aggregate F1 scores."""
    dataset = labeled.dataset
    t0 = time.perf_counter()
    model = learn_spn(dataset, learn_config)
    train_s = time.perf_counter() - t0

    needs_train = explain_config.selection == "zscore"
    f1s, evals = [], []
    lines = []
    t0 = time.perf_counter()
    for row in labeled.outlier_rows:
        trace = explain(model, dataset.values[row], explain_config,
                        X_train=dataset.values if needs_train else None)
        _, _, f1 = f1_dims(trace.selected, labeled.ground_truth[row])
        f1s.append(f1)
        evals.append(trace.eval_count)
        lines.append(json.dumps(trace_record(row, trace)))
    explain_s = time.perf_counter() - t0

    report = EvalReport(list(labeled.outlier_rows), f1s, evals,
                        float(np.mean(f1s)) if f1s else 0.0,
                        train_s, explain_s, dataset.n_features,
                        explain_config.strategy, explain_config.selection)
    if explanations_path is not None:
        with open(explanations_path, "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    if summary_path is not None:
        write_summary([report], summary_path)
    return report


SUMMARY_COLUMNS = ("n_features", "strategy", "selection", "mean_f1",
                   "mean_evals", "train_s", "explain_s")


def write_summary(reports: list[EvalReport], path: str) -> None:
    """Plot-ready TSV: one row per benchmark report."""
    with open(path, "w") as fh:
        fh.write("\t".join(SUMMARY_COLUMNS) + "\n")
        for r in reports:
            fh.write("\t".join([
                str(r.n_features), r.strategy, r.selection,
                format_float(r.mean_f1),
                format_float(float(np.mean(r.eval_counts)) if r.eval_counts else 0.0),
                format_float(r.train_seconds),
                format_float(r.explain_seconds),
            ]) + "\n")

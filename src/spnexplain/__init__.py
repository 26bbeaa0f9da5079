"""Outlier scoring and subspace explanation with sum-product networks."""

from .data import Column, Dataset, load_csv, save_csv
from .datagen import GenConfig, LabeledDataset, generate, read_labels, write_labels
from .explain import (ExplainConfig, ExplanationTrace, PerSize, SizeBest,
                      backward_elimination, elbow_select, explain, explain_rows,
                      forward_beam_search, zscore_select)
from .learn import LearnConfig, learn_spn, rdc
from .metrics import EvalReport, detect, f1_dims, run_benchmark
from .model import (CategoricalLeaf, EvalCounter, GaussianLeaf, ProductNode,
                    SpnModel, SumNode, TableMarginals, load_model, log_marginal,
                    save_model, validate)

__all__ = [
    "Column", "Dataset", "load_csv", "save_csv",
    "GenConfig", "LabeledDataset", "generate", "read_labels", "write_labels",
    "ExplainConfig", "ExplanationTrace", "PerSize", "SizeBest", "backward_elimination",
    "elbow_select", "explain", "explain_rows", "forward_beam_search", "zscore_select",
    "LearnConfig", "learn_spn", "rdc",
    "EvalReport", "detect", "f1_dims", "run_benchmark",
    "CategoricalLeaf", "EvalCounter", "GaussianLeaf", "ProductNode", "SpnModel",
    "SumNode", "TableMarginals", "load_model", "log_marginal", "save_model",
    "validate",
]

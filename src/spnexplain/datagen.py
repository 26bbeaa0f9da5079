"""Synthetic datasets with outliers planted in known feature subspaces.

Features are partitioned into disjoint subspaces; inliers in each
subspace come from tight axis-aligned Gaussian clusters, leftover
features are independent uniform noise. Each outlier is rejection-
sampled inside its subspace's bounding box to have a joint density below
the 1st percentile of inlier joint densities while every univariate
coordinate stays plausible under the inlier marginals, so no single
feature explains it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import (INTEGER, NUMBER, Column, Dataset, check_fields, fold_seed, read_json,
                   require)
from .errors import DataError

JOINT_PERCENTILE = 1.0
UNIVARIATE_PERCENTILE = 5.0
MAX_REJECTION_BATCHES = 200
REJECTION_BATCH = 1024


@dataclass(frozen=True)
class GenConfig:
    n_features: int
    n_samples: int = 1000
    n_outliers: int = 30
    subspace_min: int = 2
    subspace_max: int = 5
    clusters_per_subspace: int = 2
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        check_fields(self, INTEGER, "n_features", "n_samples", "n_outliers", "subspace_min",
                     "subspace_max", "clusters_per_subspace", "seed")
        check_fields(self, NUMBER, "noise_sigma")
        if self.n_features < 2:
            raise ValueError("n_features must be >= 2")
        if not (0 < self.n_outliers < self.n_samples):
            raise ValueError("need 0 < n_outliers < n_samples")
        if self.subspace_min < 2 or self.subspace_min > self.subspace_max:
            raise ValueError("need 2 <= subspace_min <= subspace_max")
        if self.subspace_min > self.n_features:
            raise ValueError(
                f"subspace size {self.subspace_min} exceeds {self.n_features} features")
        if self.clusters_per_subspace < 1:
            raise ValueError("clusters_per_subspace must be >= 1")
        if not (0.0 < self.noise_sigma < math.inf):
            raise ValueError("noise_sigma must be positive and finite")


@dataclass
class LabeledDataset:
    dataset: Dataset
    outlier_rows: tuple[int, ...]
    ground_truth: dict[int, tuple[int, ...]]


def _draw_centers(rng: np.random.Generator, n_clusters: int, dim: int) -> np.ndarray:
    """Cluster centers with per-dimension separation so cluster membership
    is identifiable from any single coordinate."""
    gap = min(0.3, 0.6 / max(n_clusters - 1, 1))
    centers = np.empty((n_clusters, dim))
    for j in range(dim):
        for _ in range(1000):
            vals = rng.uniform(0.15, 0.85, size=n_clusters)
            order = np.sort(vals)
            if n_clusters == 1 or np.min(np.diff(order)) >= gap:
                centers[:, j] = vals
                break
        else:
            centers[:, j] = np.linspace(0.15, 0.85, n_clusters)
    return centers


def _mixture_log_joint(points: np.ndarray, centers: np.ndarray, sigma: float) -> np.ndarray:
    # points (m, d), centers (c, d): log density of the equal-weight mixture
    z = (points[:, None, :] - centers[None]) / sigma
    comp = -0.5 * (z ** 2).sum(axis=2) - points.shape[1] * (
        math.log(sigma) + 0.5 * math.log(2.0 * math.pi))
    m = comp.max(axis=1)
    return m + np.log(np.exp(comp - m[:, None]).mean(axis=1))


def _mixture_log_marginals(points: np.ndarray, centers: np.ndarray,
                           sigma: float) -> np.ndarray:
    # per-dimension log density, shape (m, d)
    z = (points[:, None, :] - centers[None]) / sigma
    comp = -0.5 * z ** 2 - math.log(sigma) - 0.5 * math.log(2.0 * math.pi)
    m = comp.max(axis=1)
    return m + np.log(np.exp(comp - m[:, None]).mean(axis=1))


def generate(config: GenConfig) -> LabeledDataset:
    """Deterministic labeled dataset with planted-subspace outliers."""
    rng = np.random.default_rng(fold_seed(config.seed))
    n, m = config.n_features, config.n_samples
    perm = rng.permutation(n)

    blocks: list[list[int]] = []
    pos = 0
    while n - pos >= config.subspace_min:
        size = int(rng.integers(config.subspace_min,
                                min(config.subspace_max, n - pos) + 1))
        blocks.append(sorted(int(f) for f in perm[pos:pos + size]))
        pos += size
    noise_features = sorted(int(f) for f in perm[pos:])

    X = np.empty((m, n))
    centers_per_block: list[np.ndarray] = []
    for block in blocks:
        centers = _draw_centers(rng, config.clusters_per_subspace, len(block))
        centers_per_block.append(centers)
        cluster = rng.integers(config.clusters_per_subspace, size=m)
        X[:, block] = centers[cluster] + rng.normal(
            0.0, config.noise_sigma, size=(m, len(block)))
    for f in noise_features:
        X[:, f] = rng.uniform(0.0, 1.0, size=m)

    outlier_rows = np.sort(rng.choice(m, size=config.n_outliers, replace=False))
    inlier_mask = np.ones(m, dtype=bool)
    inlier_mask[outlier_rows] = False
    assigned = rng.integers(len(blocks), size=config.n_outliers)

    ground_truth: dict[int, tuple[int, ...]] = {}
    for row, bi in zip(outlier_rows, assigned):
        block = blocks[bi]
        centers = centers_per_block[bi]
        inliers = X[np.ix_(inlier_mask, block)]
        lo, hi = inliers.min(axis=0), inliers.max(axis=0)
        joint_cut = np.percentile(
            _mixture_log_joint(inliers, centers, config.noise_sigma), JOINT_PERCENTILE)
        uni_cut = np.percentile(
            _mixture_log_marginals(inliers, centers, config.noise_sigma),
            UNIVARIATE_PERCENTILE, axis=0)

        chosen = None
        fallback = None
        fallback_lp = np.inf
        for _ in range(MAX_REJECTION_BATCHES):
            cand = rng.uniform(lo, hi, size=(REJECTION_BATCH, len(block)))
            lp_joint = _mixture_log_joint(cand, centers, config.noise_sigma)
            uni_ok = (_mixture_log_marginals(cand, centers, config.noise_sigma)
                      >= uni_cut).all(axis=1)
            hit = uni_ok & (lp_joint < joint_cut)
            if hit.any():
                chosen = cand[int(np.flatnonzero(hit)[0])]
                break
            pool = np.flatnonzero(uni_ok) if uni_ok.any() else np.arange(len(cand))
            best = pool[int(np.argmin(lp_joint[pool]))]
            if lp_joint[best] < fallback_lp:
                fallback_lp = lp_joint[best]
                fallback = cand[best]
        if chosen is None:
            chosen = fallback
        X[row, block] = chosen
        ground_truth[int(row)] = tuple(block)

    schema = [Column(f"f{j}", "real") for j in range(n)]
    return LabeledDataset(Dataset(schema, X),
                          tuple(int(r) for r in outlier_rows), ground_truth)


def write_labels(labeled: LabeledDataset, path: str) -> None:
    doc = {"outliers": [{"row": r, "subspace": list(labeled.ground_truth[r])}
                        for r in labeled.outlier_rows]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_labels(dataset: Dataset, path: str) -> LabeledDataset:
    where = f"labels {path}"
    outliers = require(read_json(path, "labels"), "outliers", where, list)
    if not outliers:
        raise DataError(f"{where}: lists no outliers")
    truth: dict[int, tuple[int, ...]] = {}
    for i, entry in enumerate(outliers):
        at = f"{where}: outliers[{i}]"
        row = require(entry, "row", at, INTEGER)
        sub = tuple(sorted(require(entry, "subspace", at, list, INTEGER)))
        if not (0 <= row < dataset.n_rows):
            raise DataError(f"{at} row {row} outside dataset of {dataset.n_rows} rows")
        if not sub or sub[0] < 0 or sub[-1] >= dataset.n_features:
            raise DataError(f"{at} subspace {list(sub)} outside schema")
        if len(set(sub)) < len(sub):
            raise DataError(f"{at} subspace {list(sub)} lists a feature twice")
        if row in truth:
            raise DataError(f"{at} repeats row {row}")
        truth[row] = sub
    return LabeledDataset(dataset, tuple(sorted(truth)), truth)

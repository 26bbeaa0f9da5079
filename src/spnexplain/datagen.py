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
from dataclasses import dataclass, field

import numpy as np

from .data import (POSITIVE_FINITE, Column, Dataset, check_config, check_features,
                   check_index, fold_seed, read_json, require, write_text)
from .errors import DataError

JOINT_PERCENTILE = 1.0
UNIVARIATE_PERCENTILE = 5.0
MAX_REJECTION_BATCHES = 200
REJECTION_BATCH = 1024


@dataclass(frozen=True)
class GenConfig:
    """The planted table's shape. Any positive finite `noise_sigma` gives a
    finite table, or a ValueError from `generate` that names it. Below
    about 1e-155 a candidate outlier's squared distance to a center, in
    units of sigma, passes the largest float, so its mixture log density
    is -inf; no candidate then qualifies, and each planted row is the first
    candidate drawn for it, a point inside the inlier bounding box (the
    non-qualifying fallback). The candidates are drawn in that box, so a
    sigma that spreads it wider than the largest float (from about 3e307)
    raises."""

    n_features: int = field(metadata={"rule": 2})
    n_samples: int = 1000
    n_outliers: int = 30
    subspace_min: int = 2
    subspace_max: int = 5
    clusters_per_subspace: int = field(default=2, metadata={"rule": 1})
    noise_sigma: float = field(default=0.05, metadata={"rule": POSITIVE_FINITE})
    seed: int = 0

    def __post_init__(self):
        check_config(self)
        if not (0 < self.n_outliers < self.n_samples):
            raise ValueError("need 0 < n_outliers < n_samples")
        if self.subspace_min < 2 or self.subspace_min > self.subspace_max:
            raise ValueError("need 2 <= subspace_min <= subspace_max")
        if self.subspace_min > self.n_features:
            raise ValueError(
                f"subspace size {self.subspace_min} exceeds {self.n_features} features")


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


def _log_mean_exp(comp: np.ndarray) -> np.ndarray:
    """log(mean(exp(comp))) over axis 1; -inf where every term is -inf."""
    m = comp.max(axis=1)
    with np.errstate(invalid="ignore"):
        out = m + np.log(np.exp(comp - m[:, None]).mean(axis=1))
    return np.where(np.isfinite(m), out, m)


def _mixture_log_joint(points: np.ndarray, centers: np.ndarray,
                       sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The log density of points (m, d) under the equal-weight mixture of
    the centers (c, d), joint (m,) and per dimension (m, d), from one z."""
    with np.errstate(over="ignore"):  # a z^2 too large for a float is +inf
        z2 = ((points[:, None, :] - centers[None]) / sigma) ** 2
        joint = -0.5 * z2.sum(axis=2) - points.shape[1] * (
            math.log(sigma) + 0.5 * math.log(2.0 * math.pi))
        marginals = -0.5 * z2 - math.log(sigma) - 0.5 * math.log(2.0 * math.pi)
    return _log_mean_exp(joint), _log_mean_exp(marginals)


def generate(config: GenConfig) -> LabeledDataset:
    """Deterministic labeled dataset with planted-subspace outliers."""
    rng = np.random.default_rng(fold_seed(config.seed))
    n, m, sigma = config.n_features, config.n_samples, config.noise_sigma
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
        X[:, block] = centers[cluster] + rng.normal(0.0, sigma, size=(m, len(block)))
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
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(hi - lo).all():  # the candidates are drawn in this box
                raise ValueError(f"noise_sigma {sigma} spreads the inliers of features "
                                 f"{block} wider than a float")
        joint, marginals = _mixture_log_joint(inliers, centers, sigma)
        joint_cut = np.percentile(joint, JOINT_PERCENTILE)
        uni_cut = np.percentile(marginals, UNIVARIATE_PERCENTILE, axis=0)

        chosen = None
        fallback = None
        fallback_lp = np.inf
        for _ in range(MAX_REJECTION_BATCHES):
            cand = rng.uniform(lo, hi, size=(REJECTION_BATCH, len(block)))
            lp_joint, lp_marginals = _mixture_log_joint(cand, centers, sigma)
            uni_ok = (lp_marginals >= uni_cut).all(axis=1)
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
    write_text(path, [json.dumps(doc), "\n"])


def read_labels(dataset: Dataset, path: str) -> LabeledDataset:
    where = f"labels {path}"
    outliers = require(read_json(path, "labels"), "outliers", where, list)
    if not outliers:
        raise DataError(f"{where}: lists no outliers")
    truth: dict[int, tuple[int, ...]] = {}
    for i, entry in enumerate(outliers):
        at = f"{where}: outliers[{i}]"
        row = require(entry, "row", at)
        check_index(row, dataset.n_rows, f"{at} row", DataError)
        sub = require(entry, "subspace", at, list)
        check_features(sub, dataset.n_features, f"{at} subspace", DataError)
        if row in truth:
            raise DataError(f"{at} repeats row {row}")
        truth[row] = tuple(sorted(sub))
    return LabeledDataset(dataset, tuple(sorted(truth)), truth)

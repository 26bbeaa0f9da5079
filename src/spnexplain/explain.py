"""Subspace search and dimensionality selection for outlier explanation.

Scores are negative log marginal densities; all argmin/argmax decisions
are invariant under the monotone log transform. Ties break toward the
lowest feature index, then the lexicographically smallest subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EvalCounter, SpnModel, log_marginal

Subspace = tuple[int, ...]  # canonical: sorted, deduplicated feature indices


@dataclass(frozen=True)
class ExplainConfig:
    beam_width: int = 10
    max_depth: int | None = None  # forward search depth S; None = n_features
    kappa: float = math.e         # elbow drop threshold, nats
    strategy: str = "backward"    # "forward" | "backward"
    selection: str = "elbow"      # "elbow" | "zscore"

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not (self.kappa > 0.0):
            raise ValueError("kappa must be positive")
        if self.strategy not in ("forward", "backward"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.selection not in ("elbow", "zscore"):
            raise ValueError(f"unknown selection {self.selection!r}")


@dataclass(frozen=True)
class SizeBest:
    size: int
    subspace: Subspace
    log_density: float


@dataclass
class ExplanationTrace:
    per_size: list[SizeBest]
    selected: Subspace
    selected_size: int
    eval_count: int
    strategy: str = "backward"
    selection: str = "elbow"


def forward_beam_search(model: SpnModel, x, max_size: int, beam_width: int,
                        counter: EvalCounter | None = None) -> list[SizeBest]:
    """Greedy bottom-up subspace growth keeping the beam_width most
    outlying hypotheses per size; records the single best subspace per size."""
    n = model.n_features
    if not (1 <= max_size <= n):
        raise ValueError(f"max_size must be in [1, {n}], got {max_size}")
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    x = np.asarray(x, dtype=np.float64)

    candidates: list[Subspace] = [(d,) for d in range(n)]
    results: list[SizeBest] = []
    for k in range(1, max_size + 1):
        if k > 1:
            seen: set[Subspace] = set()
            for hyp in beam:
                for d in range(n):
                    if d not in hyp:
                        seen.add(tuple(sorted(hyp + (d,))))
            candidates = sorted(seen)
        keep = np.zeros((len(candidates), n), dtype=bool)
        np.put_along_axis(keep, np.array(candidates), True, axis=1)
        logps = log_marginal(model, x, keep, counter)
        order = sorted(range(len(candidates)),
                       key=lambda i: (logps[i], candidates[i]))
        beam = [candidates[i] for i in order[:beam_width]]
        best = order[0]
        results.append(SizeBest(k, candidates[best], float(logps[best])))
    return results


def backward_elimination(model: SpnModel, x,
                         counter: EvalCounter | None = None) -> list[SizeBest]:
    """Top-down greedy removal of the feature whose deletion maximizes the
    remaining marginal density; returns best subspaces of sizes 1..n-1."""
    n = model.n_features
    if n < 2:
        raise ValueError("backward elimination needs at least 2 features")
    x = np.asarray(x, dtype=np.float64)
    keep = np.ones(n, dtype=bool)
    results: list[SizeBest] = []
    for k in range(n - 1, 0, -1):
        # row i of the batch drops the i-th remaining feature
        kept = np.flatnonzero(keep)
        reduced = np.tile(keep, (len(kept), 1))
        reduced[np.arange(len(kept)), kept] = False
        logps = log_marginal(model, x, reduced, counter)
        # keep the most outlying remainder; first min = lowest dropped index
        pick = int(np.argmin(logps))
        keep = reduced[pick]
        results.append(SizeBest(k, tuple(np.flatnonzero(keep).tolist()),
                                float(logps[pick])))
    results.reverse()
    return results


def elbow_select(per_size: list[SizeBest], kappa: float) -> SizeBest:
    """Pick the size just after the first log-density drop exceeding kappa;
    fall back to the single most outlying feature when no drop qualifies."""
    if not per_size:
        raise ValueError("per_size is empty")
    sizes = [sb.size for sb in per_size]
    if sizes != list(range(1, len(per_size) + 1)):
        raise ValueError(f"per_size sizes must be contiguous from 1, got {sizes}")
    for prev, nxt in zip(per_size, per_size[1:]):
        if prev.log_density - nxt.log_density > kappa:
            return nxt
    return per_size[0]


@dataclass
class ScoreStats:
    mean: float
    std: float


def subspace_score_stats(model: SpnModel, X: np.ndarray, subspace: Subspace,
                         counter: EvalCounter | None = None) -> ScoreStats:
    """Mean/std of negative log marginal densities of all training rows in
    one subspace."""
    keep = np.isin(np.arange(model.n_features), subspace)
    scores = -log_marginal(model, X, keep, counter)
    return ScoreStats(float(scores.mean()), float(scores.std()))


def zscore_select(model: SpnModel, per_size: list[SizeBest], X_train,
                  counter: EvalCounter | None = None) -> SizeBest:
    """Pick the candidate whose score is most extreme relative to the
    training-set score distribution in its subspace (ties: smallest size)."""
    if not per_size:
        raise ValueError("per_size is empty")
    X_train = np.asarray(X_train, dtype=np.float64)
    if X_train.size == 0:
        raise ValueError("zscore selection needs training data")
    best: SizeBest | None = None
    best_z = -math.inf
    for sb in per_size:
        stats = subspace_score_stats(model, X_train, sb.subspace, counter)
        score = -sb.log_density
        z = 0.0 if stats.std == 0.0 else (score - stats.mean) / stats.std
        if z > best_z:
            best_z = z
            best = sb
    assert best is not None
    return best


def explain(model: SpnModel, x, config: ExplainConfig,
            X_train=None) -> ExplanationTrace:
    """Search subspaces with the configured strategy and select one
    explanation; eval_count reports all circuit evaluations performed."""
    n = model.n_features
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"sample has shape {x.shape}, schema has {n} features")
    if config.selection == "zscore" and X_train is None:
        raise ValueError("zscore selection requires training data")
    counter = EvalCounter()
    # backward elimination needs two features; a one-feature model has only
    # the one subspace, which a forward search of depth 1 scores
    if config.strategy == "forward" or n == 1:
        depth = min(config.max_depth or n, n)
        per_size = forward_beam_search(model, x, depth, config.beam_width, counter)
    else:
        per_size = backward_elimination(model, x, counter)
    if config.selection == "elbow":
        chosen = elbow_select(per_size, config.kappa)
    else:
        chosen = zscore_select(model, per_size, X_train, counter)
    return ExplanationTrace(per_size, chosen.subspace, chosen.size,
                            counter.queries, config.strategy, config.selection)


def explain_rows(model: SpnModel, X, rows,
                 config: ExplainConfig) -> list[ExplanationTrace]:
    """Explain the given rows of the table X, one `explain` call per row;
    z-score selection measures against all rows of X."""
    X = np.asarray(X, dtype=np.float64)
    return [explain(model, X[r], config, X_train=X) for r in rows]

"""Subspace search and dimensionality selection for outlier explanation.

Scores are negative log marginal densities; all argmin/argmax decisions
are invariant under the monotone log transform. Forward beam search and
backward elimination run one greedy loop over sets of flipped features,
and ties go to the lexicographically smallest set of flipped features:
the lexicographically smallest subspace for forward search, the lowest
dropped index for backward search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import INTEGER, NUMBER, check_fields, check_rows, is_a
from .model import EvalCounter, SpnModel, TableMarginals, _compile

Subspace = tuple[int, ...]  # canonical: sorted, deduplicated feature indices


@dataclass(frozen=True)
class ExplainConfig:
    beam_width: int = 10
    max_depth: int | None = None  # forward search depth S; None = n_features
    kappa: float = math.e         # elbow drop threshold, nats
    strategy: str = "backward"    # "forward" | "backward"
    selection: str = "elbow"      # "elbow" | "zscore"

    def __post_init__(self):
        check_fields(self, INTEGER, "beam_width")
        if self.max_depth is not None:
            check_fields(self, INTEGER, "max_depth")
        check_fields(self, NUMBER, "kappa")
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


@dataclass(frozen=True, slots=True)
class SizeBest:
    size: int
    subspace: Subspace
    log_density: float


@dataclass(slots=True)
class ExplanationTrace:
    per_size: list[SizeBest]
    selected: Subspace
    selected_size: int
    eval_count: int
    strategy: str = "backward"
    selection: str = "elbow"


def _greedy_search(model: SpnModel, x, grow: bool, steps: int, beam_width: int,
                   counter: EvalCounter | None) -> list[SizeBest]:
    """The one greedy step loop of both strategies. Each step flips one
    not-yet-flipped feature of every hypothesis (adds it to the subspace
    when `grow`, else drops it from the full set), keeps the beam_width
    most outlying candidates and records the best; results in ascending
    size. The leaf values of x are computed once, and each step's pass
    masks them."""
    n = model.n_features
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"sample has shape {x.shape}, schema has {n} features")
    # x keeps the row rule, checked once here: each masked batch below keeps
    # at least one of its features, so the batches need no query check
    check_rows(x, model.schema)
    circuit = _compile(model)
    leaves = circuit.leaf_log_density(x[None])
    eye = np.eye(n, dtype=bool)
    beam = np.zeros((1, n), dtype=bool)  # the flipped features of each hypothesis
    results: list[SizeBest] = []
    for _ in range(steps):
        # each hypothesis with each feature it has not flipped; from one
        # hypothesis these come in lexicographic order of the flipped sets
        flipped = (beam[:, None, :] | eye)[~beam]
        if len(beam) > 1:
            # for sets of one size, ascending bytes of the packed complement
            # masks are ascending sorted-index tuples
            packed = np.packbits(~flipped, axis=1)
            keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
            _, first = np.unique(keys, return_index=True)
            flipped = flipped[first]
        keep = flipped if grow else ~flipped
        logps = circuit.masked_log_density(leaves, keep, counter)
        order = np.argsort(logps, kind="stable")  # ties stay lexicographic
        beam = flipped[order[:beam_width]]
        subspace = tuple(np.flatnonzero(keep[order[0]]).tolist())
        results.append(SizeBest(len(subspace), subspace, float(logps[order[0]])))
    return results if grow else results[::-1]


def forward_beam_search(model: SpnModel, x, max_size: int, beam_width: int,
                        counter: EvalCounter | None = None) -> list[SizeBest]:
    """Greedy bottom-up subspace growth keeping the beam_width most
    outlying hypotheses per size; records the single best subspace per size."""
    n = model.n_features
    if not (1 <= max_size <= n):
        raise ValueError(f"max_size must be in [1, {n}], got {max_size}")
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    return _greedy_search(model, x, True, max_size, beam_width, counter)


def backward_elimination(model: SpnModel, x,
                         counter: EvalCounter | None = None) -> list[SizeBest]:
    """Top-down greedy removal, one feature a step, keeping the remainder
    of lowest marginal density (the most outlying one); returns the best
    subspaces of sizes 1..n-1."""
    if model.n_features < 2:
        raise ValueError("backward elimination needs at least 2 features")
    return _greedy_search(model, x, False, model.n_features - 1, 1, counter)


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


@dataclass(slots=True)
class ScoreStats:
    mean: float
    std: float


def subspace_score_stats(reference: TableMarginals, subspace: Subspace,
                         counter: EvalCounter | None = None) -> ScoreStats:
    """Mean/std of negative log marginal densities of all rows of the
    reference table in one subspace. An entry of `subspace` that is not an
    integer feature index (a bool is not), is out of range or is repeated
    raises ValueError."""
    n = reference.model.n_features
    if not all(is_a(d, INTEGER) for d in subspace):
        raise ValueError(f"subspace {subspace} holds an entry that is not an integer")
    if not all(0 <= d < n for d in subspace):
        raise ValueError(f"subspace {subspace} outside schema of {n} features")
    if len(set(subspace)) < len(subspace):
        raise ValueError(f"subspace {subspace} repeats a feature")
    keep = np.zeros(n, dtype=bool)
    keep[list(subspace)] = True
    scores = -reference.log_marginal(keep, counter)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf score: NaN z-scores
        return ScoreStats(float(scores.mean()), float(scores.std()))


def zscore_select(per_size: list[SizeBest], reference: TableMarginals,
                  counter: EvalCounter | None = None) -> SizeBest:
    """Pick the candidate whose score is most extreme relative to the
    score distribution of the reference table in its subspace (ties, and a
    z-score that is NaN for every candidate: the first, smallest size)."""
    if not per_size:
        raise ValueError("per_size is empty")
    best = per_size[0]
    best_z = -math.inf
    for sb in per_size:
        stats = subspace_score_stats(reference, sb.subspace, counter)
        score = -sb.log_density
        z = 0.0 if stats.std == 0.0 else (score - stats.mean) / stats.std
        if z > best_z:
            best_z = z
            best = sb
    return best


def explain(model: SpnModel, x, config: ExplainConfig,
            reference: TableMarginals | None = None) -> ExplanationTrace:
    """Search subspaces with the configured strategy and select one
    explanation, z-scores against the rows of the `reference` table.
    eval_count is the paper's logical count of marginal queries (z-score
    selection asks one per reference row and subspace), not the node
    evaluations performed to answer them. z-score selection without a
    reference, or with one built for another model, raises ValueError."""
    n = model.n_features
    if config.selection == "zscore" and reference is None:
        raise ValueError("zscore selection requires training data")
    if reference is not None and reference.model is not model:
        raise ValueError("reference table was built for another model")
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
        chosen = zscore_select(per_size, reference, counter)
    return ExplanationTrace(per_size, chosen.subspace, chosen.size,
                            counter.queries, config.strategy, config.selection)


def explain_rows(model: SpnModel, X, rows,
                 config: ExplainConfig) -> list[ExplanationTrace]:
    """Explain the given rows of the table X (any iterable, read once), one
    `explain` call per row; z-score selection measures against all rows of
    X, which are evaluated once for the whole run. A row that is not an
    integer in 0..len(X)-1 raises ValueError, and so does, before any row
    is explained, a z-score table X that breaks the row rule
    (`check_rows`); each explained row is checked against that rule by its
    search."""
    X = np.asarray(X, dtype=np.float64)
    rows = list(rows)  # the check below would use up an iterator
    for r in rows:
        if not is_a(r, INTEGER):
            raise ValueError(f"row {r!r} is not an integer")
        if not 0 <= r < len(X):
            raise ValueError(f"row {r} outside table of {len(X)} rows")
    reference = TableMarginals(model, X) if config.selection == "zscore" else None
    return [explain(model, X[r], config, reference) for r in rows]

"""Subspace search and dimensionality selection for outlier explanation.

Scores are negative log marginal densities; all argmin/argmax decisions
are invariant under the monotone log transform. Forward beam search and
backward elimination run one greedy loop over sets of flipped features,
and ties go to the lexicographically smallest set of flipped features:
the lexicographically smallest subspace for forward search, the lowest
dropped index for backward search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import POSITIVE, check_config, check_features, check_index, check_shape
from .model import EvalCounter, SpnModel, TableMarginals

Subspace = tuple[int, ...]  # canonical: sorted, deduplicated feature indices


@dataclass(frozen=True)
class ExplainConfig:
    """The search's settings; `kappa` is the elbow's drop threshold in nats."""

    beam_width: int = field(default=10, metadata={"rule": 1})
    max_depth: int | None = field(default=None, metadata={
        "rule": 1, "help": "forward search depth S (default: number of features)"})
    kappa: float = field(default=math.e, metadata={"rule": POSITIVE})
    strategy: str = field(default="backward", metadata={"rule": ("forward", "backward")})
    selection: str = field(default="elbow", metadata={"rule": ("elbow", "zscore")})

    __post_init__ = check_config


@dataclass(frozen=True, slots=True)
class SizeBest:
    size: int
    subspace: Subspace
    log_density: float


class ExplanationTrace:
    """One row's explanation: the best subspace of each searched size, the
    selected one, and the count of marginal queries asked. Each size's
    subspace is kept as a mask packed with `np.packbits` and the
    log-densities as one float array, so a trace holds O(n) bytes, not
    O(n^2) in tuples. `per_size` rebuilds the list of `SizeBest` on every
    access; each access gives a new list, equal to the one given when each
    subspace is canonical and each size its length, as the searches make
    them."""

    __slots__ = ("_masks", "_log_densities", "selected", "selected_size", "eval_count",
                 "strategy", "selection")

    def __init__(self, per_size: list[SizeBest], selected: Subspace, selected_size: int,
                 eval_count: int, strategy: str = "backward", selection: str = "elbow"):
        sizes = [len(sb.subspace) for sb in per_size]
        features = np.fromiter(itertools.chain.from_iterable(sb.subspace for sb in per_size),
                               dtype=np.intp, count=sum(sizes))
        masks = np.zeros((len(per_size), 1 + features.max(initial=0)), dtype=bool)
        masks[np.repeat(np.arange(len(per_size)), sizes), features] = True
        self._masks = np.packbits(masks, axis=1)
        self._log_densities = np.array([sb.log_density for sb in per_size], dtype=float)
        self.selected = selected
        self.selected_size = selected_size
        self.eval_count = eval_count
        self.strategy = strategy
        self.selection = selection

    @property
    def per_size(self) -> list[SizeBest]:
        subspaces = (tuple(np.flatnonzero(mask).tolist())
                     for mask in np.unpackbits(self._masks, axis=1))
        return [SizeBest(len(sub), sub, lp)
                for sub, lp in zip(subspaces, self._log_densities.tolist())]

    def _fields(self) -> tuple:
        return (self.per_size, self.selected, self.selected_size, self.eval_count,
                self.strategy, self.selection)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        names = ("per_size", "selected", "selected_size", "eval_count", "strategy",
                 "selection")
        return "ExplanationTrace(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(names, self._fields())) + ")"


def _greedy_search(model: SpnModel, x, grow: bool, steps: int, beam_width: int,
                   counter: EvalCounter | None) -> list[SizeBest]:
    """The one greedy step loop of both strategies. Each step flips one
    not-yet-flipped feature of every hypothesis (adds it to the subspace
    when `grow`, else drops it from the full set), keeps the beam_width
    most outlying candidates and records the best; results in ascending
    size. Each step reads its candidates from one `TableMarginals` of x,
    told the search's own query count (n(n+1)/2 - 1 backward, at most
    steps × beam_width × n forward) for its cost rule. A `sample` x that
    is not an (n,) vector breaks the shape rule (`check_shape`) and raises
    ValueError."""
    n = model.n_features
    x = np.asarray(x, dtype=np.float64)
    check_shape(x, n, "sample", (1,))
    # the one-row table of x checks x against the row rule and names a bad
    # cell as the sample's; each masked batch below keeps at least one of
    # its features, so the batches need no query check
    table = TableMarginals(model, x[None],
                           steps * beam_width * n if grow else n * (n + 1) // 2 - 1)
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
        logps = table._read(keep, counter)
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
    reference table in one subspace; a subspace that breaks the
    feature-set rule (`check_features`) raises ValueError."""
    n = reference.model.n_features
    check_features(subspace, n, "subspace")
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

    def zscore(sb: SizeBest) -> float:  # a NaN z-score never wins
        stats = subspace_score_stats(reference, sb.subspace, counter)
        z = 0.0 if stats.std == 0.0 else (-sb.log_density - stats.mean) / stats.std
        return -math.inf if math.isnan(z) else z

    return max(per_size, key=zscore)


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
    X, which are evaluated once for the whole run. A `table` X that is
    not (len(X), n) under the shape rule (`check_shape`), checked first, or
    a row that is not an integer in 0..len(X)-1 (`check_index`) raises
    ValueError, and so does, before any row is explained, a z-score table
    X that breaks the row rule (`check_rows`); each explained row is
    checked against that rule once, by its search's table."""
    X = np.asarray(X, dtype=np.float64)
    check_shape(X, model.n_features, "table", (2,))
    rows = list(rows)  # the check below would use up an iterator
    for r in rows:
        check_index(r, len(X), "row")
    reference = (TableMarginals(model, X, len(rows) * model.n_features)
                 if config.selection == "zscore" else None)
    return [explain(model, X[r], config, reference) for r in rows]

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

from .data import (INTEGER, POSITIVE, check_config, check_features, check_index,
                   check_rows, check_shape, is_a)
from .model import EvalCounter, SpnModel, TableMarginals, _search_bytes

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


# The budget of a block of rows searched in lockstep: the bytes that its
# rows add (`_row_bytes`), summed over the block's rows. A step's work is
# linear in its candidates, so a larger block only saves numpy calls; 4 MiB
# holds 42 rows of a forward search of beam width 10 over 40 real and 10
# categorical features (read from a store), and 14 over the 16 features of
# one sum root (read by passes).
BLOCK_BYTES = 1 << 22


def _queries(n: int, grow: bool, steps: int, beam_width: int) -> int:
    """A search's own query count of one row, for its table's cost rule:
    n(n+1)/2 - 1 backward, at most steps × beam_width × n forward."""
    return steps * beam_width * n if grow else n * (n + 1) // 2 - 1


def _search_table(model: SpnModel, X: np.ndarray, masks: int) -> TableMarginals:
    """The `TableMarginals` of the samples X (rows, n) that a search reads,
    asked `masks` masks a row. A bad cell is named as the sample's, that of
    the first bad row, as a search of that row alone names it."""
    try:
        return TableMarginals(model, X, masks)
    except ValueError:
        for x in X:
            check_rows(x[None], model.schema)
        raise


def _words(masks: np.ndarray) -> np.ndarray:
    """Each boolean mask (rows, n) as big-endian 64-bit words of its bits,
    feature 0 the highest bit of the first word: masks compare as the
    tuples of their words compare."""
    packed = np.zeros((len(masks), -(-masks.shape[1] // 64) * 8), dtype=np.uint8)
    packed[:, :(masks.shape[1] + 7) // 8] = np.packbits(masks, axis=1)
    return packed.view(">u8").astype(np.uint64)


def _greedy_search(model: SpnModel, x, grow: bool, steps: int, beam_width: int,
                   counter: EvalCounter | list[EvalCounter] | None) -> list:
    """The one greedy step loop of both strategies, run in lockstep over a
    block of rows. Each step flips one not-yet-flipped feature of every
    hypothesis (adds it to the subspace when `grow`, else drops it from
    the full set), keeps each row's beam_width most outlying candidates and
    records its best; results in ascending size. `x` is one sample (n,),
    whose result is its list and whose `counter` is one EvalCounter, or a
    `TableMarginals` of the model over a block of samples, with one list
    and one counter per row. A sample is read through a table of its own,
    told the search's own query count (`_queries`) for its cost rule. A
    `sample` x that is not an (n,) vector breaks the shape rule
    (`check_shape`) and raises ValueError.

    A row's candidates are its hypotheses with each feature they have not
    flipped, deduplicated, ranked by log-density, ties in lexicographic
    order of their flipped sets. No log-density is NaN (a leaf's is finite
    or -inf, and so are the sums and log-sum-exps of such values). With a
    beam of one (every backward step, and every step of a forward beam of
    1), each row's candidates come in that order and each row has as many,
    so each row keeps its first least log-density (`argmin`), the first of
    a stable argsort. Otherwise no step sorts them all: the pair rule drops
    each repeat before it is read (two hypotheses of a row make one
    candidate exactly when their sets differ by one feature each way),
    `np.partition` cuts each row at its beam_width-th least log-density (a
    row of no more candidates keeps them all), and one sort by row,
    log-density and packed complement mask (`_words`) ranks the candidates
    at or below the cut, which holds every candidate that argsort's
    NaN-last order would keep. Each hypothesis carries its codes
    (`TableMarginals._search_codes`): a candidate's are its parent's with
    its feature's step added to or subtracted from the code of that
    feature's slot, and one `TableMarginals._gather` a step reads them for
    the whole block, from the table's store or by one masked pass."""
    n = model.n_features
    if isinstance(x, TableMarginals):
        if x.model is not model:
            raise ValueError("table was built for another model")
        table, counters = x, counter
    else:
        x = np.asarray(x, dtype=np.float64)
        check_shape(x, n, "sample", (1,))
        # each masked batch below keeps at least one of its features, so
        # the batches need no query check
        table = _search_table(model, x[None], _queries(n, grow, steps, beam_width))
        counters = None if counter is None else [counter]
    R = table._leaves.shape[1]
    rows = np.arange(R)
    flipped = np.zeros((R, n), dtype=bool)  # the flipped features of each hypothesis
    owner = rows  # each hypothesis's row, ascending
    codes, step = table._search_codes(flipped if grow else ~flipped)
    step = step if grow else -step
    slot = (step != 0).argmax(axis=0)  # each feature's slot, whose code its step moves
    clear = ~_words(np.eye(n, dtype=bool))  # clears a feature's bit
    best = np.empty((steps, R, n), dtype=bool)  # each row's best subspace a step
    best_lp = np.empty((steps, R))
    asked = np.zeros(R, dtype=np.intp)  # each row's queries
    for t in range(steps):
        if beam_width == 1:
            # one hypothesis a row: its candidates, in lexicographic order
            h, f = np.nonzero(~flipped)
            k = len(f) // R
            cand = codes[:, :, None] + step[:, f].reshape(len(codes), R, k)
            lp = table._gather(cand, h)
            asked += k
            # the first least log-density, as a stable argsort ranks it
            pick = lp.argmin(axis=1)
            best_lp[t] = lp[rows, pick]
            codes = cand[:, rows, pick]
            flipped[rows, f.reshape(R, k)[rows, pick]] = True
            best[t] = flipped if grow else ~flipped
            continue
        # hypothesis j's candidate S_j ∪ {x} repeats hypothesis i's
        # S_i ∪ {y} exactly when S_i \ S_j = {x} (and S_j \ S_i = {y}),
        # that is, when the two sets of t features share t - 1: drop it
        # when i is an earlier hypothesis of j's row
        count = np.bincount(owner, minlength=R)  # each row's hypotheses
        start = np.cumsum(count) - count
        # each row's sets as float rows, padded with all-ones rows,
        # which share t or n features, never t - 1
        beams = np.ones((R, count.max(), n), dtype=np.float32)
        beams[owner, np.arange(len(owner)) - start[owner]] = flipped
        shared = beams @ beams.transpose(0, 2, 1)
        r, i, j = np.nonzero(np.triu(shared == t - 1, 1))
        i, j = start[r] + i, start[r] + j
        fresh = ~flipped
        fresh[j, (flipped[i] & ~flipped[j]).argmax(axis=1)] = False
        h, f = np.nonzero(fresh)
        cand, moved = codes[:, h], slot[f]
        cand[moved, np.arange(len(f))] += step[moved, f]
        owner = owner[h]
        lp = table._gather(cand, owner)
        count = np.bincount(owner, minlength=R)
        asked += count
        # each row's beam_width-th least log-density, its row padded with
        # inf, cuts it: those at or below the cut are sorted. A row holds
        # all of its candidates when they are beam_width or fewer
        at = np.arange(len(h)) - np.repeat(np.cumsum(count) - count, count)
        padded = np.full((R, count.max()), np.inf)
        padded[owner, at] = lp
        width = min(beam_width, padded.shape[1])
        cut = np.partition(padded, width - 1, axis=1)[:, width - 1]
        near = np.flatnonzero(lp <= cut[owner])
        # for sets of one size, ascending packed complement masks are
        # ascending sorted-index tuples
        words = _words(~flipped)[h[near]] & clear[f[near]]
        order = near[np.lexsort((*words.T[::-1], lp[near], owner[near]))]
        count = np.bincount(owner[near], minlength=R)
        start = np.cumsum(count) - count
        pick = order[np.arange(len(order)) - np.repeat(start, count) < beam_width]
        kept = np.minimum(count, beam_width)
        first = np.cumsum(kept) - kept
        best_lp[t] = lp[pick[first]]
        owner = owner[pick]
        codes = cand[:, pick]
        del cand  # before the next step builds its own
        flipped = flipped[h[pick]]
        flipped[np.arange(len(pick)), f[pick]] = True
        best[t] = flipped[first]
    if counters is not None:
        table._charge(counters, asked.tolist())
    sizes = range(1, steps + 1) if grow else range(n - 1, n - 1 - steps, -1)
    ends = list(itertools.accumulate(sizes))  # of each step's subspace in a row's run
    results = []
    for mask, lps in zip(best.transpose(1, 0, 2), best_lp.T.tolist()):
        # the row's subspaces, size by size, as flat indices of its masks
        features = (np.flatnonzero(mask) % n).tolist()
        per_size = [SizeBest(k, tuple(features[end - k:end]), lp)
                    for k, end, lp in zip(sizes, ends, lps)]
        results.append(per_size if grow else per_size[::-1])
    return results if table is x else results[0]


def forward_beam_search(model: SpnModel, x, max_size: int, beam_width: int,
                        counter: EvalCounter | list[EvalCounter] | None = None) -> list:
    """Greedy bottom-up subspace growth keeping the beam_width most
    outlying hypotheses per size; records the single best subspace per
    size. `x` is one sample, or a `TableMarginals` of a block of samples
    searched in lockstep, with one result and one counter per row
    (`_greedy_search`). A max_size or beam_width that is not an integer
    (a bool is not), or out of its range, raises ValueError."""
    n = model.n_features
    if not (is_a(max_size, INTEGER) and 1 <= max_size <= n):
        raise ValueError(f"max_size must be in [1, {n}], got {max_size!r}")
    if not (is_a(beam_width, INTEGER) and beam_width >= 1):
        raise ValueError(f"beam_width must be >= 1, got {beam_width!r}")
    return _greedy_search(model, x, True, max_size, beam_width, counter)


def backward_elimination(model: SpnModel, x,
                         counter: EvalCounter | list[EvalCounter] | None = None) -> list:
    """Top-down greedy removal, one feature a step, keeping the remainder
    of lowest marginal density (the most outlying one); returns the best
    subspaces of sizes 1..n-1. `x` is one sample, or a `TableMarginals` of
    a block of samples searched in lockstep, with one result and one
    counter per row (`_greedy_search`)."""
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


def _check_reference(reference) -> None:
    """A z-score reference is a `TableMarginals`; anything else raises
    ValueError naming its type."""
    if not isinstance(reference, TableMarginals):
        raise ValueError(f"reference must be a TableMarginals, got {type(reference).__name__}")


def subspace_score_stats(reference: TableMarginals, subspace: Subspace,
                         counter: EvalCounter | None = None) -> ScoreStats:
    """Mean/std of negative log marginal densities of all rows of the
    reference table in one subspace; a reference that is not a
    `TableMarginals`, or a subspace that breaks the feature-set rule
    (`check_features`), raises ValueError."""
    _check_reference(reference)
    n = reference.model.n_features
    check_features(subspace, n, "subspace")
    keep = np.zeros(n, dtype=bool)
    keep[list(subspace)] = True
    scores = -reference._read(keep[None], counter)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # an inf score: NaN z-scores
        return ScoreStats(float(scores.mean()), float(scores.std()))


def zscore_select(per_size: list[SizeBest], reference: TableMarginals,
                  counter: EvalCounter | None = None) -> SizeBest:
    """Pick the candidate whose score is most extreme relative to the
    score distribution of the reference table in its subspace (ties, and a
    z-score that is NaN for every candidate: the first, smallest size).
    All subspaces are read in one read of the table. A reference that is
    not a `TableMarginals`, or a subspace that breaks the feature-set rule
    (`check_features`), raises ValueError."""
    _check_reference(reference)
    if not per_size:
        raise ValueError("per_size is empty")
    n = reference.model.n_features
    subspaces = [sb.subspace for sb in per_size]
    at = np.repeat(np.arange(len(per_size)), [len(sub) for sub in subspaces])
    features = list(itertools.chain.from_iterable(subspaces))
    keep = np.zeros((len(per_size), n), dtype=bool)
    nonempty = all(subspaces)
    if nonempty and {type(d) for d in features} == {int} \
            and 0 <= min(features) and max(features) < n:
        keep[at, features] = True
    # an empty subspace, or a feature not set once, brings the check of each subspace
    if not nonempty or np.count_nonzero(keep) != len(features):
        for sub in subspaces:
            check_features(sub, n, "subspace")
        keep[at, np.array(features, dtype=np.intp)] = True  # numpy integers
    scores = reference._read(keep, counter)  # (sizes, rows), negated in place
    np.negative(scores, out=scores)
    log_densities = np.array([sb.log_density for sb in per_size])
    # an inf score makes a NaN z-score, and a NaN z-score never wins
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mean = scores.mean(axis=1)
        # np.std's own steps, in place: np.std would hold a second array of
        # every size's scores
        scores -= mean[:, None]
        scores *= scores
        std = np.sqrt(scores.sum(axis=1) / scores.shape[1])
        z = np.where(std == 0.0, 0.0, (-log_densities - mean) / std)
    z[np.isnan(z)] = -np.inf
    return per_size[int(np.argmax(z))]


def _plan(model: SpnModel, config: ExplainConfig) -> tuple[bool, int, int]:
    """(grow, steps, beam width) of the configured search. Backward
    elimination needs two features; a one-feature model has only the one
    subspace, which a forward search of depth 1 scores."""
    n = model.n_features
    if config.strategy == "forward" or n == 1:
        return True, min(config.max_depth or n, n), config.beam_width
    return False, n - 1, 1


def _row_bytes(model: SpnModel, config: ExplainConfig) -> int:
    """The bytes that one row adds to a block of the configured search:
    what its table holds for the row; for each of a step's candidates,
    what the table's read holds for it (`_search_bytes`) and 56 for the
    step's own seven 8-byte values of it (hypothesis, feature, slot, row,
    position, log-density and padded log-density), for n candidates of
    each hypothesis and at most beam width hypotheses, no more than the
    C(n, t) sets of t features that a step can hold; and what its results
    hold, 8 for each feature of the best subspace of each size (steps ×
    (steps + 1) / 2 of them) and, for each size, its mask of n features
    and 144 for its log-density, tuple, `SizeBest` and list entries."""
    grow, steps, beam_width = _plan(model, config)
    n = model.n_features
    table, candidate = _search_bytes(model, _queries(n, grow, steps, beam_width))
    candidates = n * min(beam_width, math.comb(n, min(steps - 1, n // 2)))
    return (table + candidates * (candidate + 56) + 4 * steps * (steps + 1)
            + (n + 144) * steps)


def _search(model: SpnModel, x, config: ExplainConfig,
            counter: EvalCounter | list[EvalCounter]) -> list:
    """The configured search of x, a sample or a table of samples, called
    through the module names that perfbench traces."""
    grow, steps, beam_width = _plan(model, config)
    if grow:
        return forward_beam_search(model, x, steps, beam_width, counter)
    return backward_elimination(model, x, counter)


def _trace(per_size: list[SizeBest], config: ExplainConfig,
           reference: TableMarginals | None, counter: EvalCounter) -> ExplanationTrace:
    """The explanation of one searched row: its selected size and its
    trace, its eval_count the row's queries."""
    if config.selection == "elbow":
        chosen = elbow_select(per_size, config.kappa)
    else:
        chosen = zscore_select(per_size, reference, counter)
    return ExplanationTrace(per_size, chosen.subspace, chosen.size,
                            counter.queries, config.strategy, config.selection)


def explain(model: SpnModel, x, config: ExplainConfig,
            reference: TableMarginals | None = None) -> ExplanationTrace:
    """Search subspaces with the configured strategy and select one
    explanation, z-scores against the rows of the `reference` table.
    eval_count is the paper's logical count of marginal queries (z-score
    selection asks one per reference row and subspace), not the node
    evaluations performed to answer them. z-score selection without a
    reference, or a reference that is not a `TableMarginals` or was built
    for another model, raises ValueError."""
    if config.selection == "zscore" and reference is None:
        raise ValueError("zscore selection requires training data")
    if reference is not None:
        _check_reference(reference)
        if reference.model is not model:
            raise ValueError("reference table was built for another model")
    counter = EvalCounter()
    return _trace(_search(model, x, config, counter), config, reference, counter)


def explain_rows(model: SpnModel, X, rows,
                 config: ExplainConfig) -> list[ExplanationTrace]:
    """Explain the given rows of the table X (any iterable, read once),
    each as `explain` explains it. The rows are searched in lockstep, in
    blocks of consecutive rows, each block's rows under BLOCK_BYTES, over
    one `TableMarginals` of the block (one search call a block); z-score
    selection measures against all rows of X, which are evaluated once for
    the whole run, and reads all sizes of a row at once. A `table` X that
    is not (len(X), n) under the shape rule (`check_shape`), checked
    first, or a row that is not an integer in 0..len(X)-1 (`check_index`)
    raises ValueError, and so does, before any row is explained, a z-score
    table X that breaks the row rule (`check_rows`). Each explained row is
    checked against that rule once, by its block's table, before the
    block's search: a bad row raises as `explain` of it alone would, for
    the first bad row, and no later block is searched."""
    n = model.n_features
    X = np.asarray(X, dtype=np.float64)
    check_shape(X, n, "table", (2,))
    rows = list(rows)  # the check below would use up an iterator
    for r in rows:
        check_index(r, len(X), "row")
    reference = (TableMarginals(model, X, len(rows) * n)
                 if config.selection == "zscore" else None)
    masks = _queries(n, *_plan(model, config))
    per = max(1, BLOCK_BYTES // _row_bytes(model, config))
    traces = []
    for i in range(0, len(rows), per):
        table = _search_table(model, X[rows[i:i + per]], masks)
        counters = [EvalCounter() for _ in rows[i:i + per]]
        traces += [_trace(per_size, config, reference, counter) for per_size, counter
                   in zip(_search(model, table, config, counters), counters)]
    return traces

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
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .data import (INTEGER, POSITIVE, check_config, check_features, check_index,
                   check_rows, check_shape, is_a)
from .model import EvalCounter, SpnModel, TableMarginals, _search_bytes, _store_sizes

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


class PerSize(Sequence):
    """The best subspace of each searched size, in ascending size, kept
    packed: each size's subspace as a mask packed with `np.packbits` (sizes,
    ⌈n/8⌉) and the log-densities as one float array (sizes,), so that it
    holds O(n) bytes, not O(n^2) in tuples. A `Sequence` of `SizeBest`: an
    index decodes its one item, iteration decodes all items at once, and a
    slice is a `PerSize` of those sizes. Each item's size is its subspace's
    length. It compares equal to a list of the same `SizeBest`s, either way
    round, and its repr is that list's."""

    __slots__ = ("_masks", "_log_densities")

    def __init__(self, masks: np.ndarray, log_densities: np.ndarray):
        self._masks = masks
        self._log_densities = log_densities

    @classmethod
    def of(cls, per_size: PerSize | list[SizeBest]) -> PerSize:
        """per_size itself if it is a `PerSize`, else its list packed."""
        if isinstance(per_size, PerSize):
            return per_size
        sizes = [len(sb.subspace) for sb in per_size]
        features = np.fromiter(itertools.chain.from_iterable(sb.subspace for sb in per_size),
                               dtype=np.intp, count=sum(sizes))
        masks = np.zeros((len(per_size), 1 + features.max(initial=0)), dtype=bool)
        masks[np.repeat(np.arange(len(per_size)), sizes), features] = True
        return cls(np.packbits(masks, axis=1),
                   np.array([sb.log_density for sb in per_size], dtype=float))

    def __len__(self) -> int:
        return len(self._log_densities)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PerSize(self._masks[i].copy(), self._log_densities[i].copy())
        i = operator.index(i)
        subspace = tuple(np.flatnonzero(np.unpackbits(self._masks[i])).tolist())
        return SizeBest(len(subspace), subspace, float(self._log_densities[i]))

    def __iter__(self):
        rows, features = np.nonzero(np.unpackbits(self._masks, axis=1))
        sizes = np.bincount(rows, minlength=len(self)).tolist()
        features = features.tolist()
        for k, end, lp in zip(sizes, itertools.accumulate(sizes),
                              self._log_densities.tolist()):
            yield SizeBest(k, tuple(features[end - k:end]), lp)

    def __eq__(self, other):
        if isinstance(other, (PerSize, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


class ExplanationTrace:
    """One row's explanation: the best subspace of each searched size, the
    selected one, and the count of marginal queries asked. The sizes are
    kept as a `PerSize`: one given is kept as it is, and a list is packed
    once. `per_size` builds a new list of `SizeBest` on every access, equal
    to the one given when each subspace is canonical and each size its
    length, as the searches make them."""

    __slots__ = ("_per_size", "selected", "selected_size", "eval_count", "strategy",
                 "selection")

    def __init__(self, per_size: PerSize | list[SizeBest], selected: Subspace,
                 selected_size: int, eval_count: int, strategy: str = "backward",
                 selection: str = "elbow"):
        self._per_size = PerSize.of(per_size)
        self.selected = selected
        self.selected_size = selected_size
        self.eval_count = eval_count
        self.strategy = strategy
        self.selection = selection

    @property
    def per_size(self) -> list[SizeBest]:
        return list(self._per_size)

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
# holds 50 rows of a forward search of beam width 10 over 40 real and 10
# categorical features (read from a store), and 14 over the 16 features of
# one sum root (read by passes). A beam of one over a store reads a window
# of steps in each row's share of the budget (`_beam_of_one`): one row
# alone reads its whole search at once.
BLOCK_BYTES = 1 << 22

# The fewest steps of a beam of one that are read in windows. A guess and
# a window's bookkeeping take about a hundred numpy calls, a step read
# alone about a dozen: a planted row of n features, searched alone, read
# 1.1-1.6 times slower in windows at n = 10-20 and 0.7-0.98 times at
# n = 25-40.
WINDOW_STEPS = 24


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


def _speculate(table: TableMarginals, codes: np.ndarray, flipped: np.ndarray,
               step: np.ndarray) -> np.ndarray:
    """Each row's guess of the order in which a beam of one flips its
    features not yet flipped, from the rows' codes (slots, rows) in their
    store table and the flips `flipped` (rows, n), as (rows, n) whose first
    entries of a row are those features. On a root product a subspace's
    log-density is the sum of its children's terms, so a step picks the
    child whose best flip changes its own term least, and moves only that
    child's term: in exact arithmetic the greedy order merges the
    children's own greedy chains, in which a child flips its feature of
    least term (the first, on a tie), then the next, and so on. Each chain
    is read from the store (`TableMarginals._values`), all chains a step
    of theirs at a time. The merge that takes the least next change of any
    chain first takes each chain's changes in ascending order of the
    chain's running maximum, its own order kept on a tie; a chain's steps
    past its end come last."""
    R, n = flipped.shape
    slots = len(step)
    slot = (step != 0).argmax(axis=0)
    count = np.bincount(slot, minlength=slots)
    # each child's features in ascending order, padded with feature n,
    # flipped in every row and of step 0
    members = np.full((slots, count.max()), n)
    by_slot = np.argsort(slot, kind="stable")
    members[slot[by_slot], np.arange(n) - (np.cumsum(count) - count)[slot[by_slot]]] = by_slot
    moves = np.append(step[slot, np.arange(n)], 0)[members]
    free = ~np.hstack([flipped, np.ones((R, 1), dtype=bool)])[:, members]
    at, ends, rows = codes.T.copy(), np.arange(slots), np.arange(R)[:, None]
    terms = np.empty((members.shape[1] + 1, R, slots))  # each chain's term a step
    terms[0] = table._values(at)
    picks = np.empty((members.shape[1], R, slots), dtype=np.intp)
    for j, pick in enumerate(picks):
        term = np.where(free, table._values(at[:, :, None] + moves * free), np.inf)
        pick[:] = term.argmin(axis=2)
        terms[j + 1] = term[rows, ends, pick]  # +inf past the chain's end
        at += np.where(terms[j + 1] < np.inf, moves[ends, pick], 0)
        free[rows, ends, pick] = False
    with np.errstate(invalid="ignore"):  # -inf less -inf, or +inf less +inf
        change = np.diff(terms, axis=0)
    change[np.isnan(change)] = np.inf
    change[terms[1:] == np.inf] = np.nan  # sorts last
    order = np.argsort(np.maximum.accumulate(change, axis=0).transpose(1, 2, 0)
                       .reshape(R, -1), axis=1, kind="stable")[:, :n]
    return members[ends, picks].transpose(1, 2, 0).reshape(R, -1)[rows, order]


def _beam_of_one(table: TableMarginals, grow: bool, flipped: np.ndarray,
                 codes: np.ndarray, step: np.ndarray, best: np.ndarray,
                 best_lp: np.ndarray, asked: np.ndarray) -> None:
    """The steps of a beam of one, each row's `best` and `best_lp` written a
    step at a time and its queries added to `asked`. A row's candidates are
    its features not yet flipped, in ascending order, and it keeps its
    first least log-density (`argmin`), the first of a stable argsort.

    Over a store a row reads a window of steps at a time. The window's
    steps take the picks that `_speculate` guesses, and one `_gather` reads
    the candidates of every step of every row's window. A row keeps each
    step up to the first whose own least candidate is not the guessed pick,
    and there it takes that candidate: each kept step reads its candidates
    as the step alone reads them, so the result does not depend on the
    guess. After a miss the row guesses again from its state. What a row
    reads past the steps that it keeps comes out of a spare of one search's
    candidates, and a window reads steps past its first only while the
    spare covers them: a row whose guesses hold reads its whole search in
    one window, and however wrong its guesses, a row reads at most twice
    its search's candidates. Each row's window is also held to its share of
    `BLOCK_BYTES`, and is at least one step. Without a store, or for fewer
    than WINDOW_STEPS steps, each step is read alone and nothing is
    guessed."""
    steps, R, n = best.shape
    if table._sizes is None or steps < WINDOW_STEPS:
        rows = np.arange(R)
        for t in range(steps):
            # the row's candidates, in lexicographic order
            h, f = np.nonzero(~flipped)
            k = len(f) // R
            cand = codes[:, :, None] + step[:, f].reshape(len(codes), R, k)
            lp = table._gather(cand, h)
            asked += k
            pick = lp.argmin(axis=1)
            best_lp[t] = lp[rows, pick]
            codes = cand[:, rows, pick]
            flipped[rows, f.reshape(R, k)[rows, pick]] = True
            best[t] = flipped if grow else ~flipped
        return
    slot = (step != 0).argmax(axis=0)  # each feature's slot, whose code its step moves
    moved = step[slot, np.arange(n)]  # and the step of that code
    done = np.zeros(R, dtype=np.intp)  # each row's steps
    # a window's steps: the row's share of BLOCK_BYTES, less what the row
    # holds through the search (its table, best masks and log-densities,
    # and guess), over what a step's n candidates hold (`_row_bytes`)
    held, candidate = _search_bytes(table.model, table._sizes)
    held += (n + 8) * steps + 16 * n
    room = max(1, (BLOCK_BYTES // R - held) // (n * (candidate + 56)))
    guess, at = _speculate(table, codes, flipped, step), np.zeros(R, dtype=np.intp)
    # what each row may read past the steps that it keeps: the candidates
    # of its search
    spare = np.full(R, steps * n - steps * (steps - 1) // 2)
    while (a := np.flatnonzero(done < steps)).size:
        t, A, k = done[a], len(a), n - done[a]
        # a window's first step, and each next one whose candidates and
        # those of the steps between the spare covers, to the row's room
        # and last step
        ahead = np.arange(min(room, steps - t.min()))
        past = np.cumsum(k[:, None] - ahead, axis=1) - k[:, None]
        w = np.minimum((past <= spare[a, None]).sum(axis=1), np.minimum(room, steps - t))
        s = np.arange(w.max())
        inside = s < w[:, None]  # the steps of each row's window
        # each row's guessed picks, its last one past its window, and the
        # step at which each feature is guessed flipped: -1 before the
        # window, len(s) never
        picks = guess[a[:, None], at[a, None] + np.minimum(s, w[:, None] - 1)]
        guessed = np.where(flipped[a], -1, len(s))
        r, j = np.nonzero(inside)
        guessed[r, picks[r, j]] = j
        # each step's hypothesis codes: the row's, moved by the picks before it
        moves = step[:, picks]
        hyp = np.cumsum(moves, axis=2, dtype=codes.dtype) - moves + codes[:, a, None]
        # a step's candidates: the features not flipped before it
        fresh = (guessed[:, None] >= s[:, None]) & inside[:, :, None]  # (rows, steps, n)
        # each candidate's codes: its step's hypothesis codes, one slot
        # moved, built in place so that a read holds what `_row_bytes`
        # counts of it
        at_flat = np.flatnonzero(fresh)
        count = fresh.sum(axis=2)  # each step's candidates
        cand = np.repeat(hyp.reshape(len(hyp), -1), count.ravel(), axis=1)
        f = at_flat % n
        moving = slot[f]  # each candidate's moved code, in the flat codes
        moving *= len(f)
        moving += np.arange(len(f))
        cand.reshape(-1)[moving] += moved[f]
        del f, moving
        read = table._gather(cand, np.repeat(a, count.sum(axis=1)))
        del cand
        lp = np.full(fresh.shape, np.inf)
        lp.reshape(-1)[at_flat] = read
        del read, at_flat
        pick = lp.argmin(axis=2)  # each step's own first least candidate
        # the steps guessed right, from the first
        hit = np.logical_and.accumulate((pick == picks) & inside, axis=1).sum(axis=1)
        kept = np.minimum(hit + 1, w)
        r, j = np.nonzero(s < kept[:, None])
        best_lp[t[r] + j, a[r]] = lp[r, j, pick[r, j]]
        taken = np.where(flipped[a], -1, len(s))  # as `guessed`, for the kept picks
        taken[r, pick[r, j]] = j
        after = taken[r] <= j[:, None]
        best[t[r] + j, a[r]] = after if grow else ~after
        flipped[a] = taken < len(s)
        last = np.arange(A), kept - 1
        codes[:, a] = hyp[:, last[0], last[1]] + step[:, pick[last]]
        asked[a] += kept * k - kept * (kept - 1) // 2
        done[a] += kept
        spare[a] -= (w - kept) * k - (w * (w - 1) - kept * (kept - 1)) // 2
        at[a] += kept
        again = a[(hit < w) & (done[a] < steps)]
        if again.size:
            guess[again] = _speculate(table, codes[:, again], flipped[again], step)
            at[again] = 0


def _greedy_search(model: SpnModel, x, grow: bool, steps: int, beam_width: int,
                   counter: EvalCounter | list[EvalCounter] | None
                   ) -> PerSize | list[PerSize]:
    """The one greedy step loop of both strategies, run in lockstep over a
    block of rows. Each step flips one not-yet-flipped feature of every
    hypothesis (adds it to the subspace when `grow`, else drops it from
    the full set), keeps each row's beam_width most outlying candidates and
    records its best mask and log-density; a row's result is one `PerSize`
    of them in ascending size, packed from those arrays. `x` is one sample
    (n,), whose result is its `PerSize` and whose `counter` is one
    EvalCounter, or a `TableMarginals` of the model over a block of
    samples, with a list of one `PerSize` and one counter per row. A
    sample is read through a table of its own, told the search's own query
    count (`_queries`) for its cost rule. A `sample` x that is not an (n,)
    vector breaks the shape rule (`check_shape`) and raises ValueError.

    A row's candidates are its hypotheses with each feature they have not
    flipped, deduplicated, ranked by log-density, ties in lexicographic
    order of their flipped sets. No log-density is NaN (a leaf's is finite
    or -inf, and so are the sums and log-sum-exps of such values). With a
    beam of one (every backward step, and every step of a forward beam of
    1), each row's candidates come in that order, so each row keeps its
    first least log-density (`argmin`), the first of a stable argsort, and
    over a store reads a window of its steps at a time (`_beam_of_one`).
    Otherwise no step sorts them all: the pair rule drops
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
    flipped = np.zeros((R, n), dtype=bool)  # the flipped features of each hypothesis
    codes, step = table._search_codes(flipped if grow else ~flipped)
    step = step if grow else -step
    best = np.empty((steps, R, n), dtype=bool)  # each row's best subspace a step
    best_lp = np.empty((steps, R))
    asked = np.zeros(R, dtype=np.intp)  # each row's queries
    if beam_width == 1:
        _beam_of_one(table, grow, flipped, codes, step, best, best_lp, asked)
    else:
        owner = np.arange(R)  # each hypothesis's row, ascending
        slot = (step != 0).argmax(axis=0)  # each feature's slot, whose code its step moves
        clear = ~_words(np.eye(n, dtype=bool))  # clears a feature's bit
        for t in range(steps):
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
            # slot-major, as `_gather` reads a slot at a time
            cand, moved = codes.take(h, axis=1), slot[f]
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
            codes = cand.take(pick, axis=1)
            del cand  # before the next step builds its own
            flipped = flipped[h[pick]]
            flipped[np.arange(len(pick)), f[pick]] = True
            best[t] = flipped[first]
    if counters is not None:
        table._charge(counters, asked.tolist())
    ascending = slice(None) if grow else slice(None, None, -1)  # the steps, by size
    results = [PerSize(np.packbits(best[ascending, r], axis=1),
                       best_lp[ascending, r].copy()) for r in range(R)]
    return results if table is x else results[0]


def forward_beam_search(model: SpnModel, x, max_size: int, beam_width: int,
                        counter: EvalCounter | list[EvalCounter] | None = None
                        ) -> PerSize | list[PerSize]:
    """Greedy bottom-up subspace growth keeping the beam_width most
    outlying hypotheses per size; returns the single best subspace of each
    size 1..max_size as a `PerSize`. `x` is one sample, or a
    `TableMarginals` of a block of samples searched in lockstep, with a
    list of one `PerSize` and one counter per row (`_greedy_search`). A
    max_size or beam_width that is not an integer (a bool is not), or out
    of its range, raises ValueError."""
    n = model.n_features
    if not (is_a(max_size, INTEGER) and 1 <= max_size <= n):
        raise ValueError(f"max_size must be in [1, {n}], got {max_size!r}")
    if not (is_a(beam_width, INTEGER) and beam_width >= 1):
        raise ValueError(f"beam_width must be >= 1, got {beam_width!r}")
    return _greedy_search(model, x, True, max_size, beam_width, counter)


def backward_elimination(model: SpnModel, x,
                         counter: EvalCounter | list[EvalCounter] | None = None
                         ) -> PerSize | list[PerSize]:
    """Top-down greedy removal, one feature a step, keeping the remainder
    of lowest marginal density (the most outlying one); returns the best
    subspaces of sizes 1..n-1 as a `PerSize`. `x` is one sample, or a
    `TableMarginals` of a block of samples searched in lockstep, with a
    list of one `PerSize` and one counter per row (`_greedy_search`)."""
    if model.n_features < 2:
        raise ValueError("backward elimination needs at least 2 features")
    return _greedy_search(model, x, False, model.n_features - 1, 1, counter)


def elbow_select(per_size: PerSize | list[SizeBest], kappa: float) -> SizeBest:
    """Pick the size just after the first log-density drop exceeding kappa;
    fall back to the single most outlying feature when no drop qualifies.
    per_size is a `PerSize`, or a list of `SizeBest` whose chosen item
    itself is returned; either is read once, at this door, into its sizes,
    which must run 1, 2, ..., and its log-densities."""
    if isinstance(per_size, PerSize):
        sizes = np.unpackbits(per_size._masks, axis=1).sum(axis=1).tolist()
        log_densities = per_size._log_densities
    else:
        sizes = [sb.size for sb in per_size]
        log_densities = np.array([sb.log_density for sb in per_size], dtype=float)
    if not sizes:
        raise ValueError("per_size is empty")
    if sizes != list(range(1, len(sizes) + 1)):
        raise ValueError(f"per_size sizes must be contiguous from 1, got {sizes}")
    # -inf less -inf is NaN, which never exceeds kappa
    with np.errstate(invalid="ignore", over="ignore"):
        drops = np.flatnonzero(log_densities[:-1] - log_densities[1:] > kappa)
    return per_size[int(drops[0]) + 1 if drops.size else 0]


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


def _zscore_door(per_size: PerSize | list[SizeBest],
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """The masks (sizes, n) and log-densities of per_size, a `PerSize` or a
    list of `SizeBest`, for z-score selection among n features. Each
    subspace keeps the feature-set rule (`check_features`), or the first
    that breaks it raises ValueError, named as a list names it."""
    if isinstance(per_size, PerSize):
        keep = np.unpackbits(per_size._masks, axis=1, count=n).view(bool)
        # no size empty, and none of a feature past n
        if keep.any(axis=1).all() and \
                np.count_nonzero(keep) == np.count_nonzero(np.unpackbits(per_size._masks)):
            return keep, per_size._log_densities
        per_size = list(per_size)
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
    return keep, np.array([sb.log_density for sb in per_size], dtype=float)


def zscore_select(per_size: PerSize | list[SizeBest], reference: TableMarginals,
                  counter: EvalCounter | None = None) -> SizeBest:
    """Pick the candidate whose score is most extreme relative to the
    score distribution of the reference table in its subspace (ties, and a
    z-score that is NaN for every candidate: the first, smallest size).
    per_size is a `PerSize`, or a list of `SizeBest` whose chosen item
    itself is returned; either is read once, at this door, into its masks
    and log-densities (`_zscore_door`), and all masks are read in one read
    of the table. A reference that is not a `TableMarginals`, or a
    subspace that breaks the feature-set rule (`check_features`), raises
    ValueError."""
    _check_reference(reference)
    if not len(per_size):
        raise ValueError("per_size is empty")
    keep, log_densities = _zscore_door(per_size, reference.model.n_features)
    scores = reference._read(keep, counter)  # (sizes, rows), negated in place
    np.negative(scores, out=scores)
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
    hold for each size: its mask of n features and its 8-byte log-density
    in the search's arrays, and its mask packed into ⌈n/8⌉ bytes and its
    log-density again in the row's `PerSize`. A window of a beam of one
    holds as much for each of its steps' n candidates, its own values in
    place of the step's seven, and is held to what the row's share of the
    block leaves."""
    grow, steps, beam_width = _plan(model, config)
    n = model.n_features
    table, candidate = _search_bytes(model, _store_sizes(model, _queries(n, grow, steps,
                                                                         beam_width)))
    candidates = n * min(beam_width, math.comb(n, min(steps - 1, n // 2)))
    return table + candidates * (candidate + 56) + (n + 16 + (n + 7) // 8) * steps


def _search(model: SpnModel, x, config: ExplainConfig,
            counter: EvalCounter | list[EvalCounter]) -> PerSize | list[PerSize]:
    """The configured search of x, a sample or a table of samples, called
    through the module names that perfbench traces."""
    grow, steps, beam_width = _plan(model, config)
    if grow:
        return forward_beam_search(model, x, steps, beam_width, counter)
    return backward_elimination(model, x, counter)


def _trace(per_size: PerSize, config: ExplainConfig,
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

import importlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (greedy_backward_oracle, log_marginal_subspace, per_size_optimum,
                      random_gaussian_model, random_mixed_model, random_table,
                      reference_explain, reference_forward_beam_search, root_children,
                      uneven_product)
from spnexplain.data import Column, Dataset
from spnexplain.datagen import GenConfig, generate
from spnexplain.explain import (ExplainConfig, ExplanationTrace, PerSize, SizeBest,
                                backward_elimination, elbow_select, explain,
                                explain_rows, forward_beam_search,
                                subspace_score_stats, zscore_select)
from spnexplain.learn import LearnConfig, learn_spn
from spnexplain.metrics import detect
from spnexplain.model import (CategoricalLeaf, EvalCounter, GaussianLeaf, ProductNode,
                              SpnModel, SumNode, TableMarginals, log_marginal)

HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
# the module itself: the package's `explain` name is the function
explain_module = importlib.import_module("spnexplain.explain")
model_module = importlib.import_module("spnexplain.model")


def factorized_model(mus_sigmas):
    n = len(mus_sigmas)
    leaves = [GaussianLeaf(j, mu, s) for j, (mu, s) in enumerate(mus_sigmas)]
    nodes = leaves + [ProductNode(tuple(range(n)))] if n > 1 else leaves
    return SpnModel(nodes, len(nodes) - 1,
                    [Column(f"f{j}", "real") for j in range(n)])


def tied_model(rng, n):
    """Leaves drawn from two parameter pairs, each feature's leaf repeated
    under a two-way sum, so that equal inputs give exactly tied subspaces."""
    pairs = [(0.0, 1.0), (1.5, 0.5)]
    nodes, factors = [], []
    for j in range(n):
        mu, sigma = pairs[int(rng.integers(2))]
        nodes += [GaussianLeaf(j, mu, sigma), GaussianLeaf(j, mu, sigma)]
        nodes.append(SumNode((len(nodes) - 2, len(nodes) - 1), (0.5, 0.5)))
        factors.append(len(nodes) - 1)
    nodes.append(ProductNode(tuple(factors)))
    return SpnModel(nodes, len(nodes) - 1, [Column(f"f{j}", "real") for j in range(n)])


def exhaustive_best(model, x, k):
    """Independent oracle: minimum log marginal over all size-k subsets."""
    best = None
    for sub in itertools.combinations(range(model.n_features), k):
        lp = log_marginal_subspace(model, x, sub)
        if best is None or lp < best[1]:
            best = (sub, lp)
    return best


class TestOutlierScore:
    def test_standard_normal_at_mean(self):
        m = factorized_model([(0.0, 1.0)])
        assert -log_marginal(m, [0.0], [True]) == pytest.approx(HALF_LN_2PI, abs=1e-12)

    def test_monotone_in_distance_from_mean(self):
        m = factorized_model([(0.0, 1.0), (0.0, 1.0)])
        X = np.array([[d, 0.0] for d in (0.0, 1.0, 2.0, 4.0)])
        scores = list(-log_marginal(m, X, [True, False]))
        assert scores == sorted(scores)

    def test_factorized_scores_add_across_features(self, rng):
        m = factorized_model([(0.0, 1.0), (2.0, 0.5), (-1.0, 3.0)])
        x = rng.normal(size=3)
        total = -log_marginal(m, x, np.ones(3, dtype=bool))
        parts = -log_marginal(m, x, np.eye(3, dtype=bool)).sum()
        assert total == pytest.approx(parts, abs=1e-12)


class TestForwardBeamSearch:
    def test_single_step_picks_most_anomalous_feature(self):
        m = factorized_model([(0.0, 1.0)] * 3)
        res = forward_beam_search(m, [0.1, 5.0, 1.0], max_size=1, beam_width=10)
        assert res[0].subspace == (1,)

    def test_full_beam_matches_exhaustive_oracle(self, rng):
        for n in (3, 5, 8):
            m = random_gaussian_model(rng, n)
            x = rng.normal(size=n) * 2
            res = forward_beam_search(m, x, max_size=n, beam_width=2 ** n)
            for sb in res:
                sub, lp = exhaustive_best(m, x, sb.size)
                assert sb.subspace == sub
                assert sb.log_density == pytest.approx(lp, abs=1e-9)

    def test_planted_pairwise_anomaly(self):
        # a two-feature mixture where the anomaly only shows jointly
        nodes = [GaussianLeaf(0, 0.0, 0.2), GaussianLeaf(1, 0.0, 0.2),
                 ProductNode((0, 1)),
                 GaussianLeaf(0, 2.0, 0.2), GaussianLeaf(1, 2.0, 0.2),
                 ProductNode((3, 4)),
                 # noise feature, wide and uninformative
                 GaussianLeaf(2, 0.0, 5.0)]
        from spnexplain.model import SumNode
        nodes.append(SumNode((2, 5), (0.5, 0.5)))
        nodes.append(ProductNode((6, 7)))
        m = SpnModel(nodes, 8, [Column(f, "real") for f in "abc"])
        x = np.array([0.0, 2.0, 0.0])  # each coord typical, pair impossible
        res = forward_beam_search(m, x, max_size=3, beam_width=10)
        assert res[1].subspace == (0, 1)

    def test_eval_budget(self, rng):
        from spnexplain.model import EvalCounter
        n, B, S = 6, 3, 4
        m = random_gaussian_model(rng, n)
        counter = EvalCounter()
        forward_beam_search(m, rng.normal(size=n), S, B, counter)
        assert counter.queries <= B * n * S + n

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), tied=st.booleans())
    def test_matches_tuple_reference_search(self, seed, tied):
        # inputs from a few values make many exactly tied log-densities,
        # which must break toward the lexicographically smallest subspace
        rng = np.random.default_rng(seed)
        if tied:
            m = tied_model(rng, int(rng.integers(1, 8)))
        else:
            m = random_mixed_model(rng, max_features=6)
        x = np.array([rng.choice([0.0, 1.5]) if c.kind == "real"
                      else float(rng.integers(len(c.categories))) for c in m.schema])
        n = m.n_features
        for beam_width in (1, 3, 2 ** n):
            got, want = EvalCounter(), EvalCounter()
            res = forward_beam_search(m, x, n, beam_width, got)
            assert res == reference_forward_beam_search(m, x, n, beam_width, want)
            assert got.queries == want.queries
            assert all(type(d) is int for sb in res for d in sb.subspace)

    def test_argument_validation(self, rng):
        m = random_gaussian_model(rng, 3)
        for x in ([0.0, 0.0], [[0.0, 0.0, 0.0]]):
            with pytest.raises(ValueError, match="shape"):
                forward_beam_search(m, x, max_size=2, beam_width=2)
        with pytest.raises(ValueError):
            forward_beam_search(m, [0.0, 0.0, 0.0], max_size=0, beam_width=2)
        with pytest.raises(ValueError):
            forward_beam_search(m, [0.0, 0.0, 0.0], max_size=4, beam_width=2)
        with pytest.raises(ValueError):
            forward_beam_search(m, [0.0, 0.0, 0.0], max_size=2, beam_width=0)

    @pytest.mark.parametrize("argument,value", [
        ("max_size", 2.0), ("max_size", np.float64(2)), ("beam_width", 2.5),
        ("beam_width", True)], ids=["float-size", "numpy-float-size", "float-width",
                                    "bool-width"])
    def test_non_integer_size_or_width_raises(self, rng, argument, value):
        m = random_gaussian_model(rng, 3)
        given = {"max_size": 2, "beam_width": 2, argument: value}
        with pytest.raises(ValueError, match=re.escape(f"{argument} must be")):
            forward_beam_search(m, [0.0, 0.0, 0.0], **given)

    def test_a_candidate_of_several_hypotheses_is_read_once(self):
        # every subspace of a size ties, and a beam of C(n, 2) holds every
        # subspace of each size, so each candidate of size k is made by k
        # hypotheses: each subspace is read once, 2^n - 1 in all
        n = 5
        m = factorized_model([(0.0, 1.0)] * n)
        got, want = EvalCounter(), EvalCounter()
        res = forward_beam_search(m, np.zeros(n), n, math.comb(n, 2), got)
        assert res == reference_forward_beam_search(m, np.zeros(n), n, math.comb(n, 2), want)
        assert got.queries == want.queries == 2 ** n - 1

    def test_a_beam_wider_than_any_step_costs_no_memory(self):
        # no step of 6 features holds more than C(6, 3) = 20 hypotheses, so
        # a beam of 10^6 searches as a beam of 64 does, in the same memory
        labeled = generate(GenConfig(n_features=6, n_samples=300, n_outliers=5, seed=0))
        m = learn_spn(labeled.dataset, LearnConfig(seed=0))
        x = labeled.dataset.values[labeled.outlier_rows[0]]
        want, got = EvalCounter(), EvalCounter()
        res = forward_beam_search(m, x, 6, 64, want)
        tracemalloc.start()
        try:
            assert forward_beam_search(m, x, 6, 10 ** 6, got) == res
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 1 << 20

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_blocks_of_rows_match_tuple_reference_search(self, seed):
        # cells of 0, 1.5 and 1e200 on a tied model: exactly tied subspaces,
        # and -inf log-densities wherever a cell of 1e200 is kept. Beam
        # widths up to 2^n leave rows fewer candidates than the beam, and
        # one of n(n-1)/2, every pair, makes candidates of three or more
        # hypotheses
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = tied_model(rng, n)
        X = rng.choice([0.0, 1.5, 1e200], size=(6, n))
        rows = rng.integers(0, len(X), 5).tolist()
        for beam_width in sorted({2, 3, n * (n - 1) // 2, 2 ** n}):
            config = ExplainConfig(strategy="forward", beam_width=beam_width)
            want = [reference_explain(m, X[r], config, X) for r in rows]
            for r, trace in zip(rows, want):
                counter = EvalCounter()
                assert forward_beam_search(m, X[r], n, beam_width, counter) == trace.per_size
                assert counter.queries == trace.eval_count
            assert explain_rows(m, X, rows, config) == want
            with pytest.MonkeyPatch.context() as mp:
                blocks = searched_blocks(mp, m, config, 2)
                assert explain_rows(m, X, rows, config) == want
            assert blocks == [2, 2, 1]


class TestBackwardElimination:
    def test_two_features_keeps_lower_density_one(self):
        m = factorized_model([(0.0, 1.0), (0.0, 1.0)])
        res = backward_elimination(m, [0.5, 3.0])
        assert res[0].subspace == (1,)

    def test_factorized_model_keeps_highest_score_features(self):
        m = factorized_model([(0.0, 1.0)] * 4)
        x = np.array([4.0, 0.1, 2.0, 1.0])
        res = backward_elimination(m, x)
        # per-feature scores sort features as 0 > 2 > 3 > 1
        assert res[0].subspace == (0,)
        assert res[1].subspace == (0, 2)
        assert res[2].subspace == (0, 2, 3)

    def test_matches_independent_stepwise_reference(self, rng):
        for n in (3, 5, 8):
            m = random_gaussian_model(rng, n)
            x = rng.normal(size=n) * 2
            res = backward_elimination(m, x)
            oracle = greedy_backward_oracle(m, x)
            assert len(res) == len(oracle) == n - 1
            for sb, (sub, lp) in zip(res, oracle):
                assert sb.subspace == sub
                assert sb.log_density == pytest.approx(lp, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), tied=st.booleans())
    def test_matches_stepwise_oracle_exactly(self, seed, tied):
        # inputs from a few values make many exactly tied log-densities,
        # which must break toward the lowest dropped index
        rng = np.random.default_rng(seed)
        if tied:
            m = tied_model(rng, int(rng.integers(2, 8)))
        else:
            m = random_mixed_model(rng, max_features=6)
        assume(m.n_features > 1)
        x = np.array([rng.choice([0.0, 1.5]) if c.kind == "real"
                      else float(rng.integers(len(c.categories))) for c in m.schema])
        got, want = EvalCounter(), EvalCounter()
        res = backward_elimination(m, x, got)
        assert [(sb.subspace, sb.log_density) for sb in res] == \
            greedy_backward_oracle(m, x, want)
        assert [sb.size for sb in res] == list(range(1, m.n_features))
        assert got.queries == want.queries

    def test_exact_eval_count(self, rng):
        from spnexplain.model import EvalCounter
        for n in (2, 5, 9):
            m = factorized_model([(0.0, 1.0)] * n)
            counter = EvalCounter()
            backward_elimination(m, rng.normal(size=n), counter)
            assert counter.queries == n * (n + 1) // 2 - 1

    def test_needs_two_features(self):
        with pytest.raises(ValueError):
            backward_elimination(factorized_model([(0.0, 1.0)]), [0.0])

    def test_sample_of_wrong_shape_rejected(self):
        m = factorized_model([(0.0, 1.0)] * 3)
        for x in ([0.0, 1.0], [[0.0, 1.0, 2.0]]):
            with pytest.raises(ValueError, match="shape"):
                backward_elimination(m, x)


def _per_size(log_densities):
    return [SizeBest(k + 1, tuple(range(k + 1)), ld)
            for k, ld in enumerate(log_densities)]


class TestElbowSelect:
    def test_selects_size_after_large_drop(self):
        sel = elbow_select(_per_size([-1.0, -1.5, -6.0, -6.8]), math.e)
        assert sel.size == 3

    def test_falls_back_to_size_one_without_drop(self):
        sel = elbow_select(_per_size([-1.0, -1.2, -1.3]), math.e)
        assert sel.size == 1

    def test_first_qualifying_drop_wins(self):
        for kappa in (1.0, math.e):
            sel = elbow_select(_per_size([-1.0, -9.0, -9.1]), kappa)
            assert sel.size == 2

    def test_single_candidate(self):
        assert elbow_select(_per_size([-3.0]), math.e).size == 1

    def test_rejects_gapped_sizes(self):
        bad = [SizeBest(1, (0,), -1.0), SizeBest(3, (0, 1, 2), -5.0)]
        with pytest.raises(ValueError, match="contiguous"):
            elbow_select(bad, math.e)

    def test_rejects_no_candidates(self):
        with pytest.raises(ValueError, match="per_size is empty"):
            elbow_select([], math.e)


class TestZscoreSelect:
    def test_stats_match_numpy(self, rng):
        m = factorized_model([(0.0, 1.0), (1.0, 2.0)])
        X = rng.normal(size=(100, 2))
        stats = subspace_score_stats(TableMarginals(m, X), (0,))
        scores = HALF_LN_2PI + X[:, 0] ** 2 / 2.0
        assert stats.mean == pytest.approx(scores.mean(), abs=1e-12)
        assert stats.std == pytest.approx(scores.std(), abs=1e-12)

    def test_rejects_no_candidates(self, rng):
        m = factorized_model([(0.0, 1.0), (1.0, 2.0)])
        with pytest.raises(ValueError, match="per_size is empty"):
            zscore_select([], TableMarginals(m, rng.normal(size=(10, 2))))

    @pytest.mark.parametrize("subspace,words", [
        ((), " is empty"), ((0, True), ": feature True is not an integer"),
        ((1.5,), ": feature 1.5 is not an integer"), ((0, 2), ": feature 2 outside 0..1"),
        ((-1,), ": feature -1 outside 0..1"), ((1, 1), " repeats feature 1")])
    def test_bad_subspace_is_named_by_the_feature_set_rule(self, rng, subspace, words):
        # all sizes are read at once; a subspace that breaks the rule is named
        # as `subspace_score_stats` names it, wherever it stands in the list,
        # and also when it is the only one
        m = factorized_model([(0.0, 1.0), (1.0, 2.0)])
        table = TableMarginals(m, rng.normal(size=(10, 2)))
        bad = SizeBest(len(subspace), subspace, -2.0)
        for per_size in ([SizeBest(1, (0,), -1.0), bad], [bad]):
            with pytest.raises(ValueError, match=re.escape(f"subspace {subspace}{words}")):
                zscore_select(per_size, table)
        with pytest.raises(ValueError, match=re.escape(f"subspace {subspace}{words}")):
            subspace_score_stats(table, subspace)

    def test_numpy_integer_features_are_accepted(self, rng):
        m = factorized_model([(0.0, 1.0), (1.0, 2.0)])
        table = TableMarginals(m, rng.normal(size=(10, 2)))
        per_size = [SizeBest(1, (1,), -4.0), SizeBest(2, (0, 1), -5.0)]
        numpy_ints = [SizeBest(sb.size, tuple(map(np.int64, sb.subspace)), sb.log_density)
                      for sb in per_size]
        assert zscore_select(numpy_ints, table) is numpy_ints[
            per_size.index(zscore_select(per_size, table))]

    def test_subspace_outside_schema_or_other_model_rejected(self, rng):
        m = factorized_model([(0.0, 1.0), (1.0, 2.0)])
        X = rng.normal(size=(10, 2))
        for subspace, bad in (((2,), 2), ((-1,), -1), ((0, 5), 5)):
            with pytest.raises(ValueError, match=re.escape(
                    f"subspace {subspace}: feature {bad} outside 0..1")):
                subspace_score_stats(TableMarginals(m, X), subspace)
        other = factorized_model([(0.0, 1.0), (1.0, 2.0)])
        for config in (ExplainConfig(selection="zscore"), ExplainConfig()):
            with pytest.raises(ValueError, match="another model"):
                explain(m, X[0], config, TableMarginals(other, X))

    def test_reference_that_is_not_a_table_is_named(self, rng):
        # the table itself, as callers once passed it, is not a reference
        m = factorized_model([(0.0, 1.0), (1.0, 2.0)])
        X = rng.normal(size=(10, 2))
        per_size = [SizeBest(1, (0,), -1.0), SizeBest(2, (0, 1), -2.0)]
        for reference, name in ((X, "ndarray"), (X.tolist(), "list")):
            want = f"^reference must be a TableMarginals, got {name}$"
            for config in (ExplainConfig(selection="zscore"), ExplainConfig()):
                with pytest.raises(ValueError, match=want):
                    explain(m, X[0], config, reference)
            with pytest.raises(ValueError, match=want):
                zscore_select(per_size, reference)
            with pytest.raises(ValueError, match=want):
                subspace_score_stats(reference, (0,))

    @pytest.mark.parametrize("subspace", [(1.5,), (True,), (0, False), ("0",), (None,)])
    def test_subspace_entry_that_is_not_an_integer_rejected(self, rng, subspace):
        # a float or a bool used to index numpy's mask, or fail deep in it
        m = factorized_model([(0.0, 1.0), (1.0, 2.0)])
        table = TableMarginals(m, rng.normal(size=(10, 2)))
        entry = next(d for d in subspace if type(d) is not int)
        with pytest.raises(ValueError, match=re.escape(
                f"subspace {subspace}: feature {entry!r} is not an integer")):
            subspace_score_stats(table, subspace)

    def test_subspace_repeating_a_feature_rejected(self, rng):
        # (0, 0) used to be scored silently as (0,)
        m = factorized_model([(0.0, 1.0), (1.0, 2.0)])
        table = TableMarginals(m, rng.normal(size=(10, 2)))
        for subspace, twice in (((0, 0), 0), ((1, 0, 1), 1), ((np.int64(1), 1), 1)):
            with pytest.raises(ValueError, match=re.escape(
                    f"subspace {subspace} repeats feature {twice}")):
                subspace_score_stats(table, subspace)
        assert subspace_score_stats(table, (np.int64(1), 0)) == \
            subspace_score_stats(table, (0, 1))

    def test_picks_highest_z(self, rng):
        m = factorized_model([(0.0, 1.0), (0.0, 1.0)])
        X = rng.normal(size=(500, 2))
        x = np.array([4.0, 0.05])
        per_size = [
            SizeBest(1, (0,), float(log_marginal(m, x, np.array([True, False])))),
            SizeBest(2, (0, 1), float(log_marginal(m, x, np.array([True, True])))),
        ]
        table = TableMarginals(m, X)
        sel = zscore_select(per_size, table)
        zs = []
        for sb in per_size:
            st_ = subspace_score_stats(table, sb.subspace)
            zs.append((-sb.log_density - st_.mean) / st_.std)
        want = per_size[int(np.argmax(zs))]
        assert sel == want

    def test_zero_std_ties_give_smallest_size(self):
        # constant training column: every size-1 score identical, std = 0
        m = factorized_model([(0.0, 1.0), (0.0, 1.0)])
        X = np.zeros((10, 2))
        per_size = _per_size([-2.0, -3.0])
        sel = zscore_select(per_size, TableMarginals(m, X))
        assert sel.size == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_undefined_z_never_wins(self, rng):
        # a reference cell of 1e300 makes every row's log-density -inf in
        # the subspaces that hold feature 0: their mean is inf, their z NaN
        m = factorized_model([(0.0, 1.0)] * 3)
        X = rng.normal(size=(50, 3))
        X[0, 0] = 1e300
        x = np.array([0.5, 3.0, 3.0])
        sizes = [SizeBest(len(s), s, float(log_marginal(m, x, np.isin(range(3), s))))
                 for s in ((0,), (0, 1), (1, 2))]
        table = TableMarginals(m, X)
        assert zscore_select(sizes[:2], table) == sizes[0]  # no z defined
        assert zscore_select(sizes, table) == sizes[2]

    def test_node_evals_count_only_recomputed_nodes(self, planted20):
        # the table's store of every root child's subsets is evaluated once,
        # on the first read; queries keep the logical count of one per
        # reference row and subspace
        labeled, m = planted20
        X = labeled.dataset.values
        table = TableMarginals(m, X)
        width = max(len(features) for _, _, features in root_children(m))
        assert 2 ** width < m.n_features  # the default cost rule keeps a store
        queries = node_evals = subspaces = 0
        for r in labeled.outlier_rows:
            per_size = backward_elimination(m, X[r])
            counter = EvalCounter()
            zscore_select(per_size, table, counter)
            queries += counter.queries
            node_evals += counter.node_evals
            subspaces += len(per_size)
        assert queries == len(X) * subspaces
        assert node_evals == 2 ** width * len(m.nodes) * len(X)

    def test_requires_training_data(self):
        m = factorized_model([(0.0, 1.0)])
        with pytest.raises(ValueError, match="no rows"):
            TableMarginals(m, np.empty((0, 1)))


class TestPerSizeOptimum:
    """The exact per-size optimum from the root product's children, against
    the exhaustive oracle and as a floor under both searches."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), builder=st.sampled_from(["mixed", "gaussian"]))
    def test_equals_exhaustive_oracle(self, seed, builder):
        rng = np.random.default_rng(seed)
        m = (random_mixed_model(rng, max_features=8) if builder == "mixed"
             else random_gaussian_model(rng, int(rng.integers(1, 9))))
        X = random_table(rng, m, 3)
        for x, best in zip(X, per_size_optimum(m, X)):
            for k in range(1, m.n_features + 1):
                assert best[k] == pytest.approx(exhaustive_best(m, x, k)[1], rel=1e-9)

    @pytest.mark.parametrize("strategy", ["backward", "forward"])
    def test_no_search_beats_the_optimum(self, planted20, strategy):
        labeled, m = planted20
        X = labeled.dataset.values[list(labeled.outlier_rows)]
        config = ExplainConfig(strategy=strategy)
        for x, best in zip(X, per_size_optimum(m, X)):
            per_size = explain(m, x, config).per_size
            for sb in per_size:
                assert sb.log_density >= best[sb.size] - 1e-9 * abs(best[sb.size])
            # the one step that tries every subspace of its size finds the optimum
            whole = per_size[0] if strategy == "forward" else per_size[-1]
            assert whole.log_density == pytest.approx(best[whole.size], rel=1e-9)


class TestExplain:
    def test_single_feature_model(self):
        m = factorized_model([(0.0, 1.0)])
        trace = explain(m, [3.0], ExplainConfig())
        assert trace.selected == (0,)
        assert trace.selected_size == 1
        assert trace.eval_count == 1

    def test_single_feature_model_scores_its_one_subspace(self):
        m = factorized_model([(0.0, 1.0)])
        want = [SizeBest(1, (0,), float(log_marginal(m, [3.0], [True])))]
        for cfg in (ExplainConfig(), ExplainConfig(strategy="forward", max_depth=4)):
            assert explain(m, [3.0], cfg).per_size == want

    def test_backward_eval_count_is_exact(self, rng):
        for n in (4, 7):
            m = factorized_model([(0.0, 1.0)] * n)
            trace = explain(m, rng.normal(size=n), ExplainConfig())
            assert trace.eval_count == n * (n + 1) // 2 - 1

    def test_forward_eval_count_within_bound(self, rng):
        n = 6
        m = random_gaussian_model(rng, n)
        cfg = ExplainConfig(strategy="forward", beam_width=4, max_depth=3)
        trace = explain(m, rng.normal(size=n), cfg)
        assert trace.eval_count <= 4 * n * 3 + n

    def test_strategies_agree_at_size_one_on_factorized_models(self, rng):
        # with independent features the most anomalous singleton is
        # unambiguous, so both search directions must find it
        for _ in range(10):
            n = int(rng.integers(2, 7))
            m = factorized_model([(float(rng.uniform(-2, 2)),
                                   float(rng.uniform(0.3, 2.0)))
                                  for _ in range(n)])
            x = rng.normal(size=n) * 2
            fw = explain(m, x, ExplainConfig(strategy="forward"))
            bw = explain(m, x, ExplainConfig(strategy="backward"))
            assert fw.per_size[0].subspace == bw.per_size[0].subspace

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_deterministic_and_well_formed(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 6))
        m = random_gaussian_model(r, n)
        x = r.normal(size=n)
        t1 = explain(m, x, ExplainConfig())
        t2 = explain(m, x, ExplainConfig())
        assert t1 == t2
        assert [sb.size for sb in t1.per_size] == list(range(1, n))
        for sb in t1.per_size:
            assert sb.subspace == tuple(sorted(set(sb.subspace)))
        assert t1.selected in [sb.subspace for sb in t1.per_size]

    def test_zscore_requires_training_matrix(self, rng):
        m = factorized_model([(0.0, 1.0), (0.0, 1.0)])
        with pytest.raises(ValueError, match="training data"):
            explain(m, [0.0, 0.0], ExplainConfig(selection="zscore"))

    def test_shape_mismatch_rejected(self):
        m = factorized_model([(0.0, 1.0), (0.0, 1.0)])
        with pytest.raises(ValueError, match="shape"):
            explain(m, [0.0], ExplainConfig())

    def test_non_finite_sample_value_rejected_by_both_strategies(self):
        labeled = generate(GenConfig(n_features=6, seed=0))
        model = learn_spn(labeled.dataset, LearnConfig(seed=0))
        row = labeled.dataset.values[labeled.outlier_rows[0]]
        for j in range(6):
            for bad in (np.nan, np.inf):
                x = row.copy()
                x[j] = bad
                messages = set()
                for strategy in ("forward", "backward"):
                    with pytest.raises(ValueError, match=rf"of feature {j} \(column 'f{j}'\) "
                                                         r"is not finite") as exc:
                        explain(model, x, ExplainConfig(strategy=strategy))
                    messages.add(str(exc.value))
                assert len(messages) == 1

    @pytest.mark.parametrize("strategy", ["backward", "forward"])
    def test_searched_sample_is_checked_once_by_its_table(self, rng, monkeypatch,
                                                           strategy):
        checked = []

        def counting(X, schema):
            checked.append(np.shape(X))
            return check_rows(X, schema)

        check_rows = model_module.check_rows
        monkeypatch.setattr(model_module, "check_rows", counting)
        monkeypatch.setattr(explain_module, "check_rows", counting, raising=False)
        m = random_gaussian_model(rng, 5)
        explain(m, rng.normal(size=5), ExplainConfig(strategy=strategy))
        assert checked == [(1, 5)]
        x = rng.normal(size=5)
        x[2] = np.nan
        want = "sample value NaN of feature 2 (column 'g2') is not finite"
        with pytest.raises(ValueError, match=re.escape(want)):
            explain(m, x, ExplainConfig(strategy=strategy))

    def test_categorical_code_out_of_range_rejected_by_both_strategies(self):
        model = SpnModel([GaussianLeaf(0, 0.0, 1.0), CategoricalLeaf(1, (0.5, 0.5)),
                          ProductNode((0, 1))], 2,
                         [Column("g", "real"), Column("c", "categorical", ("u", "v"))])
        for code in (2.0, -1.0, 0.5):
            for strategy in ("forward", "backward"):
                with pytest.raises(ValueError, match="categorical value out of range "
                                                     "for column 'c'"):
                    explain(model, [0.0, code], ExplainConfig(strategy=strategy))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExplainConfig(beam_width=0)
        with pytest.raises(ValueError):
            ExplainConfig(kappa=0.0)
        with pytest.raises(ValueError):
            ExplainConfig(strategy="sideways")
        with pytest.raises(ValueError):
            ExplainConfig(selection="aic")

    @pytest.mark.parametrize("field,value", [
        ("beam_width", 2.5), ("beam_width", True), ("beam_width", None),
        ("beam_width", "3"), ("max_depth", 2.0), ("max_depth", False)])
    def test_counts_must_be_integers(self, field, value):
        # beam_width=2.5 used to pass here and fail in the search's slicing
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExplainConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        config = ExplainConfig(beam_width=np.int64(3), max_depth=np.int32(2))
        assert (config.beam_width, config.max_depth) == (3, 2)


class TestSearchTables:
    """A search on a root product reads subset tables filled by one masked
    pass when 2^W, W its widest child's width, is below the search's own
    query count; otherwise each step runs a masked pass. The counters tell
    the two paths apart: a fill costs 2^W × (nodes) node evaluations, a
    read none, and a pass (nodes) per query."""

    def test_backward_counts_on_the_planted_model(self, planted20):
        labeled, m = planted20
        n = m.n_features
        width = max(len(features) for _, _, features in root_children(m))
        assert 2 ** width < n * (n + 1) // 2 - 1
        for r in labeled.outlier_rows[:3]:
            counter = EvalCounter()
            backward_elimination(m, labeled.dataset.values[r], counter)
            assert (counter.queries, counter.node_evals) == (n * (n + 1) // 2 - 1,
                                                            2 ** width * len(m.nodes))

    @pytest.mark.parametrize("shape", ["planted", "mixed", "sum_root", "wide_children",
                                       "uneven"])
    @pytest.mark.parametrize("strategy", ["backward", "forward"])
    def test_each_step_reads_what_its_pass_gives(self, root_shapes, monkeypatch, shape,
                                                 strategy):
        if shape == "uneven":
            m = uneven_product()
            X = random_table(np.random.default_rng(5), m, 4)
            rows = range(4)
        else:
            m, X, rows = root_shapes[shape]
        n = m.n_features
        circuit = model_module._compile(m)
        fill, gather = TableMarginals._fill, TableMarginals._gather
        filled, reads = [], []

        def filling(table, counter):
            filled.append(len(table._leaves[0]))
            return fill(table, counter)

        def gathering(table, codes, rows):
            # each candidate's mask: from its children's codes in a store of
            # one row, a feature is kept when its bit is set in its child's
            # code; without a store, when its own code is not 0
            got = gather(table, codes, rows)
            codes = codes.reshape(len(codes), -1)
            if table._sizes is None:
                keep = codes.T != 0
            else:
                codes = codes - table._offsets[:, None]
                child, bit = circuit.bits.argmax(axis=1), circuit.bits.max(axis=1)
                keep = (codes[child] & bit.astype(np.intp)[:, None]).T != 0
            assert got.tobytes() == circuit.masked_log_density(table._leaves,
                                                               keep).tobytes()
            reads.append(len(keep))
            return got

        monkeypatch.setattr(TableMarginals, "_fill", filling)
        monkeypatch.setattr(TableMarginals, "_gather", gathering)
        # a sum root, and backward search over children of 11-12 features
        # (2^12 fill queries against 819), read by masked passes
        tabled = shape in ("planted", "mixed", "uneven") or (
            shape == "wide_children" and strategy == "forward")
        width = max(len(features) for _, _, features in root_children(m))
        queries = 0
        for r in rows:
            counter = EvalCounter()
            if strategy == "backward":
                got = backward_elimination(m, X[r], counter)
                want = [SizeBest(len(sub), sub, lp)
                        for sub, lp in greedy_backward_oracle(m, X[r])]
            else:
                got = forward_beam_search(m, X[r], n, 10, counter)
                want = reference_forward_beam_search(m, X[r], n, 10)
            assert got == want
            assert counter.node_evals == (2 ** width if tabled
                                          else counter.queries) * len(m.nodes)
            queries += counter.queries
        assert filled == ([1] * len(rows) if tabled else [])
        assert sum(reads) == queries

    @staticmethod
    def search_both_tables(m, X, strategy, beam_width):
        # a table forced to passes (1 mask a row) and one forced to a store
        # (2^30): equal results and equal queries
        n = m.n_features
        results = []
        for masks in (1, 2 ** 30):
            table = TableMarginals(m, X, masks)
            counters = [EvalCounter() for _ in X]
            if strategy == "backward":
                got = backward_elimination(m, table, counters)
            else:
                got = forward_beam_search(m, table, min(n, 4), beam_width, counters)
            results.append((got, [c.queries for c in counters], table._sizes is None))
        (passes, asked, no_store), (stored, asked_stored, _) = results
        assert no_store
        assert passes == stored
        assert asked == asked_stored

    @pytest.mark.parametrize("shape", ["planted", "mixed"])
    @pytest.mark.parametrize("strategy,beam_width", [
        ("backward", 1), ("forward", 1), ("forward", 3)])
    def test_passes_and_a_store_search_alike(self, root_shapes, shape, strategy,
                                             beam_width):
        m, X, rows = root_shapes[shape]
        assert TableMarginals(m, X[rows], 2 ** 30)._sizes is not None
        self.search_both_tables(m, X[rows], strategy, beam_width)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_passes_and_a_store_search_alike_on_random_mixed_models(self, seed):
        r = np.random.default_rng(seed)
        m = random_mixed_model(r, 6)
        assume(m.n_features >= 2)  # backward elimination's least
        X = random_table(r, m, 4)
        for strategy, beam_width in (("backward", 1), ("forward", 1), ("forward", 3)):
            self.search_both_tables(m, X, strategy, beam_width)

    def test_a_forward_block_on_passes_peaks_within_its_row_bytes(self, root_shapes):
        # the sum root reads each step by one masked pass; its value
        # matrix, group stacks and log-sum-exp temporaries are counted
        m, X, rows = root_shapes["sum_root"]
        config = ExplainConfig(strategy="forward")
        masks = explain_module._queries(m.n_features, *explain_module._plan(m, config))
        forward_beam_search(m, TableMarginals(m, X[rows], masks), m.n_features, 10)
        table = TableMarginals(m, X[rows], masks)
        assert table._sizes is None
        tracemalloc.start()
        try:
            forward_beam_search(m, table, m.n_features, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= len(rows) * explain_module._row_bytes(m, config)

    @pytest.mark.parametrize("shape", ["planted", "mixed", "sum_root", "wide_children"])
    @pytest.mark.parametrize("strategy", ["backward", "forward"])
    def test_a_table_of_rows_searches_each_row_as_alone(self, root_shapes, shape,
                                                        strategy):
        # a search given a table of rows in place of a sample returns one
        # list a row and tells one counter a row its queries and its part of
        # the store's fill, each as the search of that row alone does
        m, X, rows = root_shapes[shape]
        n = m.n_features
        grow = strategy == "forward"

        def search(x, counter):
            if grow:
                return forward_beam_search(m, x, n, 3, counter)
            return backward_elimination(m, x, counter)

        alone = [EvalCounter() for _ in rows]
        want = [search(X[r], counter) for r, counter in zip(rows, alone)]
        masks = explain_module._queries(n, grow, n if grow else n - 1, 3 if grow else 1)
        counters = [EvalCounter() for _ in rows]
        assert search(TableMarginals(m, X[rows], masks), counters) == want
        assert counters == alone
        assert search(TableMarginals(m, X[rows], masks), None) == want
        with pytest.raises(ValueError, match="^table was built for another model$"):
            search(TableMarginals(SpnModel(m.nodes, m.root, m.schema), X[rows]), None)


def counted_reads(monkeypatch) -> list:
    """Count the candidates of each `TableMarginals._gather` call: the list
    that gets each read's count."""
    reads, gather = [], TableMarginals._gather

    def gathering(table, codes, rows):
        reads.append(codes[0].size)
        return gather(table, codes, rows)
    monkeypatch.setattr(TableMarginals, "_gather", gathering)
    return reads


class TestWindows:
    """A beam of one over a store reads a window of steps at a time, the
    steps taking the picks that `_speculate` guesses, and keeps each step
    up to the first whose own least candidate is not the guess. A guess
    changes what is read, never what is found."""

    def test_a_row_over_a_store_takes_a_handful_of_reads(self, planted100, monkeypatch):
        # n - 1 backward steps and n forward steps of n = 100 features,
        # each a read of its own without windows
        labeled, m = planted100
        n = m.n_features
        reads = counted_reads(monkeypatch)
        for r in labeled.outlier_rows[:5]:
            x = labeled.dataset.values[r]
            for search in (lambda: backward_elimination(m, x),
                           lambda: forward_beam_search(m, x, n, 1)):
                reads.clear()
                search()
                assert 1 <= len(reads) <= 5

    @pytest.mark.parametrize("wrong", ["reversed", "swapped"])
    @pytest.mark.parametrize("shape", ["planted", "mixed"])
    def test_a_wrong_guess_costs_reads_not_results(self, root_shapes, monkeypatch, shape,
                                                   wrong):
        # each guess reversed misses a window's first step; each guess with
        # its second and third picks swapped misses its second step
        m, X, rows = root_shapes[shape]
        n = m.n_features
        speculate = explain_module._speculate

        def guessing(table, codes, flipped, step):
            order = speculate(table, codes, flipped, step)
            for guess, k in zip(order, (~flipped).sum(axis=1)):
                if wrong == "reversed":
                    guess[:k] = guess[:k][::-1].copy()
                elif k >= 3:
                    guess[1:3] = guess[2:0:-1].copy()
            return order

        monkeypatch.setattr(explain_module, "_speculate", guessing)
        monkeypatch.setattr(explain_module, "WINDOW_STEPS", 1)  # windows on these tables
        reads = counted_reads(monkeypatch)
        for r in rows:
            for grow in (False, True):
                got, want = EvalCounter(), EvalCounter()
                reads.clear()
                if grow:
                    res = forward_beam_search(m, X[r], n, 1, got)
                    assert res == reference_forward_beam_search(m, X[r], n, 1, want)
                else:
                    res = backward_elimination(m, X[r], got)
                    assert [(sb.subspace, sb.log_density) for sb in res] == \
                        greedy_backward_oracle(m, X[r], want)
                    assert got.queries == n * (n + 1) // 2 - 1
                assert got.queries == want.queries
                # a miss reads past the steps kept, at most as many again
                assert got.queries < sum(reads) <= 2 * got.queries

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), tied=st.booleans())
    def test_windows_read_what_steps_read(self, seed, tied):
        # windows from the first step on, over a store, against a step a
        # read: exactly tied subspaces and -inf log-densities (cells of
        # 1e200) make guesses miss
        rng = np.random.default_rng(seed)
        if tied:
            m = tied_model(rng, int(rng.integers(2, 8)))
            X = rng.choice([0.0, 1.5, 1e200], size=(6, m.n_features))
        else:
            m = random_mixed_model(rng, max_features=6)
            X = random_table(rng, m, 6)
        assume(m.n_features > 1 and TableMarginals(m, X, 2 ** 30)._sizes is not None)
        n = m.n_features
        for grow in (False, True):
            found = []
            for windows in (10 ** 9, 1):
                counters = [EvalCounter() for _ in X]
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(explain_module, "WINDOW_STEPS", windows)
                    table = TableMarginals(m, X, 2 ** 30)
                    res = (forward_beam_search(m, table, n, 1, counters) if grow
                           else backward_elimination(m, table, counters))
                found.append(([[(sb.subspace, sb.log_density.hex()) for sb in per_size]
                               for per_size in res], counters))
            assert found[0] == found[1]

    @pytest.mark.parametrize("divisor", [1, 8])
    def test_windows_keep_a_search_within_its_budget(self, planted100, monkeypatch,
                                                     divisor):
        # a row alone reads its whole search in one window, and each row of
        # a block within its share of the budget: either search peaks
        # within the budget besides its table's store
        labeled, m = planted100
        n = m.n_features
        X, rows = labeled.dataset.values, list(labeled.outlier_rows)
        config = ExplainConfig()
        budget = explain_module.BLOCK_BYTES // divisor
        monkeypatch.setattr(explain_module, "BLOCK_BYTES", budget)
        block = rows[:budget // explain_module._row_bytes(m, config)]
        store = 8 * int(model_module._store_sizes(m, n * (n + 1) // 2 - 1).sum())  # a row's
        explain(m, X[rows[0]], config)  # the model's circuit is compiled
        for search, stored in ((lambda: backward_elimination(m, X[rows[0]]), store),
                               (lambda: explain_rows(m, X, block, config),
                                len(block) * store)):
            tracemalloc.start()
            try:
                search()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= budget + stored


class TestExplanationTrace:
    """A trace keeps packed masks and a float array, and rebuilds its
    per-size list on each access."""

    PER_SIZE = [SizeBest(1, (17,), -3.5), SizeBest(2, (0, 9), -math.inf),
                SizeBest(3, (1, 2, 3), 0.25), SizeBest(4, (0, 8, 16, 23), -1e-300)]

    def test_per_size_is_a_new_equal_list_on_each_access(self, planted20):
        labeled, m = planted20
        trace = explain(m, labeled.dataset.values[labeled.outlier_rows[0]], ExplainConfig())
        first, second = trace.per_size, trace.per_size
        assert first == second and first is not second
        assert [sb.size for sb in first] == list(range(1, m.n_features))

    def test_per_size_round_trips_unnested_subspaces(self, planted20):
        labeled, m = planted20
        x = labeled.dataset.values[labeled.outlier_rows[1]]
        for per_size in (self.PER_SIZE, forward_beam_search(m, x, m.n_features, 3), []):
            got = ExplanationTrace(per_size, (0, 9), 2, 7, "forward").per_size
            assert got == per_size
            assert all(type(d) is int for sb in got for d in sb.subspace)
            assert all(type(sb.log_density) is float for sb in got)

    def test_traces_compare_by_their_fields(self):
        fields = (self.PER_SIZE, (0, 9), 2, 7, "forward", "zscore")
        trace = ExplanationTrace(*fields)
        assert trace == ExplanationTrace(*fields) and not trace != ExplanationTrace(*fields)
        for i, other in enumerate((self.PER_SIZE[:3], (1, 2, 3), 3, 8, "backward", "elbow")):
            assert trace != ExplanationTrace(*fields[:i], other, *fields[i + 1:])
        assert trace != fields
        assert repr(trace).startswith(
            "ExplanationTrace(per_size=[SizeBest(size=1, subspace=(17,), log_density=-3.5), ")
        assert repr(trace).endswith(", selected=(0, 9), selected_size=2, eval_count=7, "
                                    "strategy='forward', selection='zscore')")

    def test_backward_trace_at_n100_holds_at_most_4kb(self):
        labeled = generate(GenConfig(n_features=100, seed=0))
        m = learn_spn(labeled.dataset, LearnConfig(seed=0))
        x = labeled.dataset.values[labeled.outlier_rows[0]]
        explain(m, x, ExplainConfig())  # the model's circuit is compiled
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            # ten traces, so that the few small buffers numpy keeps for
            # reuse do not count as one trace's
            traces = [explain(m, x, ExplainConfig()) for _ in range(10)]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(len(trace.per_size) == 99 for trace in traces)
        assert held <= 10 * 4096


class TestPerSize:
    """A search's result stays packed, one `PerSize` a row, until a caller
    reads a subspace; as a sequence it is the list of `SizeBest` that it
    packs, and the selections pick from it what they pick from that list."""

    @staticmethod
    def searched(seed, tied):
        # cells of 0, 1.5 and 1e200: exactly tied subspaces on a tied model,
        # and -inf log-densities wherever a cell of 1e200 is kept; the
        # sample is the first row of the table
        rng = np.random.default_rng(seed)
        if tied:
            m = tied_model(rng, int(rng.integers(2, 8)))
        else:
            m = random_mixed_model(rng, max_features=6)
        assume(m.n_features > 1)
        X = np.array([rng.choice([0.0, 1.5, 1e200], 6) if c.kind == "real"
                      else rng.integers(0, len(c.categories), 6).astype(float)
                      for c in m.schema]).T
        n = m.n_features
        backward = [SizeBest(len(sub), sub, lp) for sub, lp in greedy_backward_oracle(m, X[0])]
        searches = [(backward_elimination(m, X[0]), backward)]
        searches += [(forward_beam_search(m, X[0], n, width),
                      reference_forward_beam_search(m, X[0], n, width)) for width in (1, 3)]
        return m, X, searches

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), tied=st.booleans())
    def test_a_search_is_its_tuple_reference_as_a_sequence(self, seed, tied):
        _, _, searches = self.searched(seed, tied)
        for got, want in searches:
            assert isinstance(got, PerSize)
            assert got == want and want == got and not (got != want or want != got)
            assert got == PerSize.of(want) and PerSize.of(got) is got
            assert got != want[1:] and got != tuple(want)
            assert repr(got) == repr(want)
            assert len(got) == len(want) and list(got) == want
            assert [got[i] for i in range(-len(want), len(want))] == want + want
            assert got[np.int64(-1)] == want[-1] and list(reversed(got)) == want[::-1]
            for cut in (slice(1, None), slice(None, None, -2), slice(0, 0)):
                assert isinstance(got[cut], PerSize) and got[cut] == want[cut]
            for outside in (len(want), -len(want) - 1):
                with pytest.raises(IndexError):
                    got[outside]
            assert all(type(d) is int for sb in got for d in sb.subspace)
            assert all(type(sb.log_density) is float for sb in got)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), tied=st.booleans())
    def test_traces_and_selections_read_it_as_its_list(self, seed, tied):
        # consecutive -inf sizes make NaN drops, which never qualify, and
        # reference cells of 1e200 make NaN z-scores, which never win
        m, X, searches = self.searched(seed, tied)
        table = TableMarginals(m, X)
        for got, want in searches:
            fields = ((0,), 1, 7, "forward", "zscore")
            assert ExplanationTrace(got, *fields) == ExplanationTrace(list(got), *fields)
            assert repr(ExplanationTrace(got, *fields)) == \
                repr(ExplanationTrace(list(got), *fields))
            for chosen, from_list in (
                    *((elbow_select(got, kappa), elbow_select(want, kappa))
                      for kappa in (0.5, math.e, 40.0)),
                    (zscore_select(got, table), zscore_select(want, table))):
                assert chosen == from_list
                assert any(from_list is sb for sb in want)  # the list's own item

    def test_a_size_breaking_a_rule_is_named_as_in_its_list(self, rng):
        m = factorized_model([(0.0, 1.0), (1.0, 2.0)])
        table = TableMarginals(m, rng.normal(size=(10, 2)))
        for per_size, words in (
                ([SizeBest(1, (0,), -1.0), SizeBest(0, (), -2.0)], "subspace () is empty"),
                ([SizeBest(1, (5,), -1.0)], "subspace (5,): feature 5 outside 0..1"),
                ([SizeBest(2, (1, 9), -1.0)], "subspace (1, 9): feature 9 outside 0..1")):
            for given in (per_size, PerSize.of(per_size)):
                with pytest.raises(ValueError, match=re.escape(words)):
                    zscore_select(given, table)
        gapped = [SizeBest(1, (0,), -1.0), SizeBest(3, (0, 1, 2), -5.0)]
        for given in (gapped, PerSize.of(gapped)):
            with pytest.raises(ValueError, match=re.escape("contiguous from 1, got [1, 3]")):
                elbow_select(given, math.e)
        for empty in ([], PerSize.of([])):
            with pytest.raises(ValueError, match="per_size is empty"):
                elbow_select(empty, math.e)
            with pytest.raises(ValueError, match="per_size is empty"):
                zscore_select(empty, table)

    def test_results_at_n100_own_their_packed_arrays(self, planted100):
        # perfbench keeps every trace, so a row's result keeps no view of
        # its search's arrays, and holds a packed mask and a float a size
        labeled, m = planted100
        n = m.n_features
        X, rows = labeled.dataset.values, list(labeled.outlier_rows[:4])
        config = ExplainConfig()
        kept = [backward_elimination(m, X[rows[0]]), explain(m, X[rows[0]], config)._per_size]
        kept += [trace._per_size for trace in explain_rows(m, X, rows, config)]
        for per_size in kept:
            arrays = (per_size._masks, per_size._log_densities)
            assert len(per_size) == n - 1
            assert all(a.base is None for a in arrays)
            assert sum(a.nbytes for a in arrays) <= len(per_size) * (-(-n // 8) + 8)


class TestExplainRows:
    @pytest.mark.parametrize("config", [
        ExplainConfig(),
        ExplainConfig(selection="zscore"),
        ExplainConfig(strategy="forward", beam_width=3, selection="zscore"),
    ])
    def test_equals_explain_per_row_against_the_table(self, rng, config):
        m = random_gaussian_model(rng, 5)
        X = rng.normal(size=(40, 5))
        rows = [7, 0, 31, 7]
        table = TableMarginals(m, X)
        want = [explain(m, X[r], config, table) for r in rows]
        assert explain_rows(m, X, rows, config) == want
        assert explain_rows(m, X.tolist(), rows, config) == want
        # any iterable of rows, read once
        assert explain_rows(m, X, iter(rows), config) == want
        assert explain_rows(m, X, (r for r in rows), config) == want

    def test_row_outside_table_rejected(self, rng):
        m = random_gaussian_model(rng, 3)
        X = rng.normal(size=(10, 3))
        for rows, bad in (([-1], -1), ([0, 10], 10)):
            with pytest.raises(ValueError, match=re.escape(f"row {bad} outside 0..9")):
                explain_rows(m, X, rows, ExplainConfig())

    @pytest.mark.parametrize("selection", ["elbow", "zscore"])
    def test_row_of_an_empty_table_says_it_is_empty(self, rng, selection):
        m = random_gaussian_model(rng, 6)
        with pytest.raises(ValueError, match=re.escape("row 0 outside an empty table")):
            explain_rows(m, np.empty((0, 6)), [0], ExplainConfig(selection=selection))

    def test_non_integer_row_rejected(self, rng):
        m = random_gaussian_model(rng, 3)
        X = rng.normal(size=(10, 3))
        for rows in ([1.5], [0, np.float64(2.0)], ["1"], [True]):
            with pytest.raises(ValueError, match="not an integer"):
                explain_rows(m, X, rows, ExplainConfig())
        assert len(explain_rows(m, X, [np.int64(2)], ExplainConfig())) == 1

    @pytest.mark.parametrize("strategy", ["backward", "forward"])
    @pytest.mark.parametrize("bad,shown", [(np.nan, "NaN"), (np.inf, "inf")])
    def test_reference_cell_breaking_the_row_rule_raises_before_any_row(
            self, rng, monkeypatch, strategy, bad, shown):
        # the reference table keeps the row rule: a NaN cell used to raise
        # partway through a run, once a candidate was covered by NaN cells,
        # and an infinite cell made its candidates' z-scores NaN
        explained = []
        monkeypatch.setattr(explain_module, "_greedy_search",
                            lambda *args: explained.append(args))
        m = random_gaussian_model(rng, 6)
        X = rng.normal(size=(30, 6))
        X[12, 4] = bad
        want = f"row 12 value {shown} of feature 4 (column 'g4') is not finite"
        with pytest.raises(ValueError, match=re.escape(want)):
            explain_rows(m, X, [0, 3], ExplainConfig(strategy=strategy, selection="zscore"))
        assert explained == []

    @pytest.mark.parametrize("strategy", ["backward", "forward"])
    def test_searches_are_reached_through_module_names(self, rng, monkeypatch,
                                                       strategy):
        # perfbench traces the searches by these names, one call a block of
        # rows; a call that bypassed them would leave its search spans empty
        calls = {"backward_elimination": 0, "forward_beam_search": 0}

        def counting(name):
            search = getattr(explain_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return search(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(explain_module, name, counting(name))
        m = random_gaussian_model(rng, 4)
        X = rng.normal(size=(20, 4))
        called = "forward_beam_search" if strategy == "forward" else "backward_elimination"
        # the three rows fit one block, or take a block each under a budget
        # of one byte
        for budget, blocks in ((explain_module.BLOCK_BYTES, 1), (1, 3)):
            monkeypatch.setattr(explain_module, "BLOCK_BYTES", budget)
            calls.update(dict.fromkeys(calls, 0))
            explain_rows(m, X, [3, 0, 9], ExplainConfig(strategy=strategy))
            assert calls == {name: blocks if name == called else 0 for name in calls}

    @pytest.mark.parametrize("strategy", ["backward", "forward"])
    @pytest.mark.parametrize("selection", ["elbow", "zscore"])
    def test_planted_table_equals_reference_oracles(self, planted20, strategy,
                                                    selection):
        labeled, m = planted20
        X = labeled.dataset.values
        config = ExplainConfig(strategy=strategy, selection=selection)
        got = explain_rows(m, X, labeled.outlier_rows, config)
        want = [reference_explain(m, X[r], config, X) for r in labeled.outlier_rows]
        assert [(t.per_size, t.selected, t.eval_count) for t in got] == \
            [(t.per_size, t.selected, t.eval_count) for t in want]

    @pytest.mark.parametrize("shape", ["planted", "mixed", "sum_root", "wide_children"])
    @pytest.mark.parametrize("strategy", ["backward", "forward"])
    def test_each_root_shape_equals_reference_oracles(self, root_shapes, shape, strategy):
        # backward search against `greedy_backward_oracle`, forward search
        # against the tuple reference, and z-score selection against a full
        # NaN-query pass of the table per subspace
        m, X, rows = root_shapes[shape]
        config = ExplainConfig(strategy=strategy, selection="zscore")
        got = explain_rows(m, X, rows, config)
        want = [reference_explain(m, X[r], config, X) for r in rows]
        assert [(t.per_size, t.selected, t.eval_count) for t in got] == \
            [(t.per_size, t.selected, t.eval_count) for t in want]

    @pytest.mark.parametrize("strategy", ["backward", "forward"])
    @pytest.mark.parametrize("selection", ["elbow", "zscore"])
    def test_explain_phase_masks_leaf_values_and_builds_no_nan_query(
            self, root_shapes, monkeypatch, strategy, selection):
        # each block of explained rows' leaf values are computed once, and
        # the z-score table's once; search steps and table fills only mask
        # them, and never pass a NaN query through the circuit
        m, X, rows = root_shapes["mixed"]
        config = ExplainConfig(strategy=strategy, selection=selection)
        want = explain_rows(m, X, rows, config)

        def nan_query(*args, **kwargs):
            raise AssertionError("the explain phase evaluated a NaN query")

        leaf_log_density = model_module._Circuit.leaf_log_density
        leaf_rows = []

        def counting(circuit, values):
            leaf_rows.append(len(values))
            return leaf_log_density(circuit, values)

        monkeypatch.setattr(model_module, "eval_log_density", nan_query)
        monkeypatch.setattr(model_module._Circuit, "leaf_log_density", counting)
        assert explain_rows(m, X, rows, config) == want
        tables = 1 if selection == "zscore" else 0
        assert leaf_rows == [len(X)] * tables + [len(rows)]  # the rows fit one block


def searched_blocks(monkeypatch, model, config, rows_a_block):
    """Set the block budget to `rows_a_block` rows of the configured search,
    and return the list that gets the row count of each block searched."""
    monkeypatch.setattr(explain_module, "BLOCK_BYTES",
                        rows_a_block * explain_module._row_bytes(model, config))
    blocks, search = [], explain_module._greedy_search

    def searching(model, x, *args):
        blocks.append(len(x._leaves[0]))
        return search(model, x, *args)
    monkeypatch.setattr(explain_module, "_greedy_search", searching)
    return blocks


class TestBlocks:
    """`explain_rows` searches its rows in lockstep, in blocks of consecutive
    rows; each row's trace equals `explain`'s of that row alone, wherever
    the block edges fall."""

    @staticmethod
    def check(model, X, rows, config):
        table = TableMarginals(model, X)
        want = [explain(model, X[r], config, table) for r in rows]
        for rows_a_block in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                blocks = searched_blocks(mp, model, config, rows_a_block)
                assert explain_rows(model, X, rows, config) == want
            edges = range(0, len(rows), rows_a_block)
            assert blocks == [len(rows[i:i + rows_a_block]) for i in edges]

    @pytest.mark.parametrize("shape", ["planted", "mixed", "sum_root", "wide_children",
                                       "uneven"])
    @pytest.mark.parametrize("config", [
        ExplainConfig(),
        ExplainConfig(selection="zscore"),
        ExplainConfig(strategy="forward", beam_width=1),
        ExplainConfig(strategy="forward", beam_width=4, max_depth=3, selection="zscore"),
    ], ids=["bw-elbow", "bw-zscore", "fw1-elbow", "fw4-depth3-zscore"])
    def test_each_root_shape(self, root_shapes, shape, config):
        if shape == "uneven":
            m = uneven_product()
            X = random_table(np.random.default_rng(5), m, 6)
            rows = [2, 0, 2, 5, 1]
        else:
            m, X, rows = root_shapes[shape]
            rows = [rows[1], rows[0], rows[1], rows[1], rows[3]]  # repeated rows
        self.check(m, X, rows, config)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_random_mixed_models(self, seed):
        r = np.random.default_rng(seed)
        m = random_mixed_model(r, 6)
        n = m.n_features
        X = random_table(r, m, 8)
        rows = r.integers(0, len(X), 7).tolist()
        config = ExplainConfig(strategy=("forward", "backward")[int(r.integers(2))],
                               beam_width=int(r.integers(1, 5)),
                               max_depth=int(r.integers(1, n + 1)),
                               selection=("elbow", "zscore")[int(r.integers(2))])
        self.check(m, X, rows, config)

    @pytest.mark.parametrize("strategy", ["forward", "backward"])
    def test_ties_stay_lexicographic_within_each_row(self, strategy):
        # identical leaves and a row of equal cells: all candidates of a
        # size tie exactly, so each step must pick the lexicographically
        # smallest flipped set of its own row
        n = 6
        m = factorized_model([(0.0, 1.0)] * n)
        X = np.repeat(np.arange(5.0)[:, None], n, axis=1) / 2
        rows = [4, 1, 1, 3, 0]
        lexicographic = ([tuple(range(k)) for k in range(1, n + 1)] if strategy == "forward"
                         else [tuple(range(n - k, n)) for k in range(1, n)])
        for beam_width in (1, 2, 4):
            config = ExplainConfig(strategy=strategy, beam_width=beam_width)
            want = [reference_explain(m, X[r], config, X) for r in rows]
            assert all([sb.subspace for sb in t.per_size] == lexicographic for t in want)
            self.check(m, X, rows, config)
            assert explain_rows(m, X, rows, config) == want

    @pytest.mark.parametrize("bad,shown", [(np.nan, "NaN"), (np.inf, "inf"), (7.0, None)])
    def test_first_bad_row_of_a_later_block_raises_before_its_search(
            self, monkeypatch, bad, shown):
        # rows 3 and 2 share the second block of two, and are both bad: the
        # error is row 3's, as `explain` of it alone raises it, and the third
        # block is never searched
        m = SpnModel([GaussianLeaf(0, 0.0, 1.0), CategoricalLeaf(1, (0.5, 0.5)),
                      ProductNode((0, 1))], 2,
                     [Column("g", "real"), Column("c", "categorical", ("u", "v"))])
        X = np.array([[0.5, 1.0]] * 8)
        if shown is None:  # a code outside the column's categories
            X[3, 1] = bad
            want = "categorical value out of range for column 'c': sample value 7.0 of feature 1"
            X[2, 0] = np.nan
        else:
            X[3, 0] = bad
            want = f"sample value {shown} of feature 0 (column 'g') is not finite"
            X[2, 1] = 7.0
        with pytest.raises(ValueError, match=re.escape(want)):
            explain(m, X[3], ExplainConfig())
        config = ExplainConfig()
        blocks = searched_blocks(monkeypatch, m, config, 2)
        with pytest.raises(ValueError, match=re.escape(want)):
            explain_rows(m, X, [0, 1, 3, 2, 4, 5], config)
        assert blocks == [2]
        # under z-score selection the reference table, all of X, fails first
        blocks.clear()
        first = "row 2 value NaN" if shown is None else f"row 3 value {shown}"
        with pytest.raises(ValueError, match=re.escape(first)):
            explain_rows(m, X, [0, 1, 3, 2, 4, 5], ExplainConfig(selection="zscore"))
        assert blocks == []


@pytest.mark.parametrize("door", ["learn_spn", "detect", "TableMarginals"])
@pytest.mark.parametrize("bad,shown", [(np.nan, "NaN"), (np.inf, "inf"), (2.0, None)])
def test_a_table_of_one_row_names_its_bad_cell_as_the_sample(door, bad, shown):
    schema = [Column("g", "real"), Column("c", "categorical", ("u", "v"))]
    model = SpnModel([GaussianLeaf(0, 0.0, 1.0), CategoricalLeaf(1, (0.5, 0.5)),
                      ProductNode((0, 1))], 2, schema)
    X = np.array([[0.5, 1.0]])
    if shown is None:  # a code outside the column's categories
        X[0, 1] = bad
        want = ("categorical value out of range for column 'c': "
                "sample value 2.0 of feature 1")
    else:
        X[0, 0] = bad
        want = f"sample value {shown} of feature 0 (column 'g') is not finite"
    run = {"learn_spn": lambda: learn_spn(Dataset(schema, X), LearnConfig(seed=0)),
           "detect": lambda: detect(model, Dataset(list(model.schema), X), 0.5),
           "TableMarginals": lambda: TableMarginals(model, X)}[door]
    with pytest.raises(ValueError, match=re.escape(want)):
        run()

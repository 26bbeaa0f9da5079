import importlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (greedy_backward_oracle, log_marginal_subspace, per_size_optimum,
                      random_gaussian_model, random_mixed_model, random_table,
                      reference_explain, reference_forward_beam_search, root_children)
from spnexplain.data import Column
from spnexplain.datagen import GenConfig, generate
from spnexplain.explain import (ExplainConfig, SizeBest, backward_elimination,
                                elbow_select, explain, explain_rows,
                                forward_beam_search, subspace_score_stats,
                                zscore_select)
from spnexplain.learn import LearnConfig, learn_spn
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

    def test_subspace_outside_schema_or_other_model_rejected(self, rng):
        m = factorized_model([(0.0, 1.0), (1.0, 2.0)])
        X = rng.normal(size=(10, 2))
        for subspace in ((2,), (-1,), (0, 5)):
            with pytest.raises(ValueError, match="outside schema"):
                subspace_score_stats(TableMarginals(m, X), subspace)
        other = factorized_model([(0.0, 1.0), (1.0, 2.0)])
        for config in (ExplainConfig(selection="zscore"), ExplainConfig()):
            with pytest.raises(ValueError, match="another model"):
                explain(m, X[0], config, TableMarginals(other, X))

    @pytest.mark.parametrize("subspace", [(1.5,), (True,), (0, False), ("0",), (None,)])
    def test_subspace_entry_that_is_not_an_integer_rejected(self, rng, subspace):
        # a float or a bool used to index numpy's mask, or fail deep in it
        m = factorized_model([(0.0, 1.0), (1.0, 2.0)])
        table = TableMarginals(m, rng.normal(size=(10, 2)))
        with pytest.raises(ValueError, match="holds an entry that is not an integer"):
            subspace_score_stats(table, subspace)

    def test_subspace_repeating_a_feature_rejected(self, rng):
        # (0, 0) used to be scored silently as (0,)
        m = factorized_model([(0.0, 1.0), (1.0, 2.0)])
        table = TableMarginals(m, rng.normal(size=(10, 2)))
        for subspace in ((0, 0), (1, 0, 1), (np.int64(1), 1)):
            with pytest.raises(ValueError, match=re.escape(f"subspace {subspace} repeats")):
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
        # only a root child's part of a subspace not asked before is
        # evaluated, once; queries keep the logical count of one per
        # reference row and subspace
        labeled, m = planted20
        X = labeled.dataset.values
        table = TableMarginals(m, X)
        queries = node_evals = subspaces = 0
        for r in labeled.outlier_rows:
            per_size = backward_elimination(m, X[r])
            counter = EvalCounter()
            zscore_select(per_size, table, counter)
            queries += counter.queries
            node_evals += counter.node_evals
            subspaces += len(per_size)
        assert queries == len(X) * subspaces
        assert 0 < node_evals < 0.25 * len(m.nodes) * len(X) * subspaces

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
        for rows in ([-1], [0, 10]):
            with pytest.raises(ValueError, match="outside table of 10 rows"):
                explain_rows(m, X, rows, ExplainConfig())

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
        monkeypatch.setattr(explain_module, "explain", lambda *args: explained.append(args))
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
        # perfbench traces the searches by these names; a call that bypassed
        # them would leave its search spans empty
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
        explain_rows(m, X, [3, 0, 9], ExplainConfig(strategy=strategy))
        called = "forward_beam_search" if strategy == "forward" else "backward_elimination"
        assert calls == {name: 3 if name == called else 0 for name in calls}

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
        # each explained row's leaf values are computed once, and the z-score
        # table's once per root child; search steps and table fills only mask
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
        tables = len(root_children(m)) if selection == "zscore" else 0
        assert leaf_rows == [len(X)] * tables + [1] * len(rows)

import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from conftest import reference_canonical_corrs, reference_rdc_features
from spnexplain import learn
from spnexplain.data import Column, Dataset, fold_seed as _mask_seed
from spnexplain.datagen import GenConfig, generate
from spnexplain.errors import DataError
from spnexplain.learn import (LearnConfig, _canonical_corrs,
                              _rdc_features, average_ranks, cluster_rows, fit_leaf,
                              learn_spn, rdc, sigma_floor_for, split_columns)
from spnexplain.model import (GaussianLeaf, ProductNode, SpnModel, SumNode,
                              eval_log_density, to_dict, validate)

CFG = LearnConfig(seed=42)


def cca_oracle(fa, fb, ridge=1e-9):
    # directly-coded CCA: largest root of the generalized eigenproblem
    fa = fa - fa.mean(axis=0)
    fb = fb - fb.mean(axis=0)
    n = fa.shape[0]
    caa = fa.T @ fa / (n - 1) + ridge * np.eye(fa.shape[1])
    cbb = fb.T @ fb / (n - 1) + ridge * np.eye(fb.shape[1])
    cab = fa.T @ fb / (n - 1)
    m = np.linalg.solve(caa, cab) @ np.linalg.solve(cbb, cab.T)
    eig = np.linalg.eigvals(m).real
    return math.sqrt(min(max(eig.max(), 0.0), 1.0))


KINDS = ["real", "tied", "coded", "constant"]


def _columns(r, n, kinds):
    """n rows of real, tied (few values), categorical-coded and constant
    columns, one per kind, most of them dependent on one base column."""
    base = r.normal(size=n)
    cols = []
    for kind in kinds:
        x = base + r.normal(0.0, r.choice([0.1, 1.0, 10.0]), size=n)
        if kind == "tied":
            x = np.round(x * 2.0) / 2.0
        elif kind == "coded":
            x = np.digitize(x, np.sort(r.normal(size=int(r.integers(1, 5))))) * 1.0
        elif kind == "constant":
            x = np.full(n, r.normal())
        cols.append(x)
    return np.column_stack(cols)


class TestRdc:
    def test_identity_dependence(self, rng):
        a = rng.normal(size=500)
        assert rdc(a, a, 1) >= 0.95

    def test_independent_uniforms_stay_low(self):
        vals = []
        for s in range(20):
            r = np.random.default_rng(1000 + s)
            vals.append(rdc(r.uniform(size=1000), r.uniform(size=1000), s))
        assert np.median(vals) < 0.3

    def test_nonlinear_sine_dependence(self):
        x = np.random.default_rng(7).uniform(0, 2 * np.pi, 1000)
        assert rdc(x, np.sin(4 * x), 0) >= 0.8

    def test_matches_cca_oracle_internals(self, rng):
        for _ in range(10):
            fa = rng.normal(size=(200, 6))
            fb = fa @ rng.normal(size=(6, 6)) + 0.5 * rng.normal(size=(200, 6))
            assert _canonical_corrs(np.stack([fa.T, fb.T]))[0, 1] == pytest.approx(
                cca_oracle(fa, fb), abs=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_symmetry_under_shared_draws(self, seed):
        r = np.random.default_rng(seed)
        a = r.normal(size=200)
        b = np.sin(a) + 0.3 * r.normal(size=200)
        s = (CFG.seed, 7, 3, 9)
        assert rdc(a, b, s) == pytest.approx(rdc(b, a, s), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), levels=st.sampled_from([1, 2, 5, 50, 0, -1]))
    @example(seed=0, levels=-1)
    def test_average_ranks_match_scipy_rankdata(self, seed, levels):
        # levels = 0 draws untied normals, -1 ties among -0.0, 0.0, -0.5 and
        # 0.5 (-0.0 ties 0.0); otherwise ties among that many values
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 300))
        v = (r.normal(size=n) if levels == 0
             else np.array([-0.0, 0.0, -0.5, 0.5])[r.integers(0, 4, n)] if levels == -1
             else r.integers(0, levels, n) * 0.5)
        got, want = average_ranks(v), rankdata(v)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="equal-length"):
            rdc([1.0, 2.0, 3.0], [1.0, 2.0], 0)
        with pytest.raises(ValueError, match="at least 3"):
            rdc([1.0, 2.0], [1.0, 2.0], 0)

    def test_nan_sample_rejected(self):
        # NaNs would rank as the largest values: these independent columns
        # read 0.227, and 0.942 with the 161 NaNs
        r = np.random.default_rng(0)
        a, b = r.normal(size=1000), r.normal(size=1000)
        a[b > 1.0] = np.nan
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="NaN"):
                rdc(x, y, 0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(3, 400),
           kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6))
    def test_features_equal_direct_formula(self, seed, n, kinds):
        # untied, tied and categorical-coded columns: the rank-table gather
        # computes every cell exactly as the direct formula does
        X = _columns(np.random.default_rng(seed), n, kinds)
        assert np.array_equal(_rdc_features(X, seed), reference_rdc_features(X, seed))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(3, 400),
           kinds=st.lists(st.sampled_from(KINDS), min_size=2, max_size=6))
    def test_batched_coefficients_match_pairwise_and_oracle(self, seed, n, kinds):
        X = _columns(np.random.default_rng(seed), n, kinds)
        feats = _rdc_features(X, seed)
        coeffs = _canonical_corrs(feats.copy())
        for a in range(len(kinds)):
            for b in range(a + 1, len(kinds)):
                assert coeffs[a, b] == coeffs[b, a]
                assert coeffs[a, b] == pytest.approx(rdc(X[:, a], X[:, b], seed), abs=1e-6)
                assert coeffs[a, b] == pytest.approx(
                    cca_oracle(feats[a].T, feats[b].T), abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(3, 400),
           kinds=st.lists(st.sampled_from(KINDS), min_size=2, max_size=8))
    def test_coefficients_match_solve_and_svd_reference(self, seed, n, kinds):
        feats = _rdc_features(_columns(np.random.default_rng(seed), n, kinds), seed)
        got = _canonical_corrs(feats.copy())
        assert np.abs(got - reference_canonical_corrs(feats)).max() <= 1e-10

    def test_chunked_coefficients_match_one_chunk(self, rng, monkeypatch):
        X = _columns(rng, 300, KINDS * 3)
        feats = _rdc_features(X, 3)
        whole = _canonical_corrs(feats.copy())
        monkeypatch.setattr(learn, "RDC_CHUNK", 1)  # one block or row of pairs a chunk
        assert np.abs(_canonical_corrs(feats) - whole).max() <= 1e-12

    def test_transient_memory_stays_within_a_few_chunks(self, rng):
        # the features of 100 columns x 1000 rows fill 7.6 chunks; whitening
        # or pairing them all at once would need that much again
        feats = _rdc_features(rng.normal(size=(1000, 100)), 0)
        tracemalloc.start()
        try:
            _canonical_corrs(feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * learn.RDC_CHUNK


def _graded_table(r, n):
    """A base column, 10 columns mixing it with noise at weights 0.05 to
    0.95, and 3 noise columns: coefficients across the whole of (0, 1)."""
    x = r.normal(size=n)
    mixed = [t * x + (1.0 - t) * r.normal(size=n) for t in np.linspace(0.05, 0.95, 10)]
    return np.column_stack([x] + mixed + [r.normal(size=n) for _ in range(3)])


class TestTraceScreen:
    """Pairs whose trace tr(B^T B) is below alpha^2 skip the eigen-solve
    and read 0; every other coefficient, and every decision, is exact."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(800, 1200))
    def test_screen_keeps_every_edge_and_exact_values(self, seed, n):
        feats = _rdc_features(_graded_table(np.random.default_rng(seed), n), seed)
        exact = _canonical_corrs(feats.copy())
        skipped = False
        for alpha in (0.2, 0.4, 0.6, 0.8):
            screened = _canonical_corrs(feats.copy(), alpha)
            assert np.array_equal(screened >= alpha, exact >= alpha)
            kept = screened != 0.0
            assert np.array_equal(screened[kept], exact[kept])
            assert (exact[~kept] < alpha).all()
            skipped |= bool((exact[~kept] > 0.0).any())
        assert skipped

    # planted n = 30 and categorical n = 20; at alpha 0.4 the categorical
    # table has edges whose trace is below alpha but above alpha^2
    @pytest.mark.parametrize("alpha", [0.4, 0.6])
    @pytest.mark.parametrize("table", [2, 3])
    def test_learns_the_model_of_the_exact_path(self, monkeypatch, table, alpha):
        dataset, seed = _skip_tables()[table]
        config = LearnConfig(alpha=alpha, seed=seed)
        screened = to_dict(learn_spn(dataset, config))
        canonical_corrs = learn._canonical_corrs
        monkeypatch.setattr(learn, "_canonical_corrs",
                            lambda F, at_least=0.0: canonical_corrs(F))
        assert to_dict(learn_spn(dataset, config)) == screened


def _block_data(rng, n=600):
    """Columns 0-1 dependent through shared clusters, column 2 independent."""
    cluster = rng.integers(2, size=n)
    x0 = cluster * 0.5 + rng.normal(0, 0.05, n)
    x1 = cluster * -0.7 + 1.0 + rng.normal(0, 0.05, n)
    x2 = rng.uniform(size=n)
    return np.column_stack([x0, x1, x2])


class TestSplitColumns:
    def test_needs_two_columns(self, rng):
        with pytest.raises(ValueError, match="at least 2 columns"):
            split_columns(rng.normal(size=(50, 2)), np.arange(50), [1], CFG)

    def test_independent_columns_become_singletons(self, rng):
        X = rng.normal(size=(800, 2))
        groups = split_columns(X, np.arange(800), [0, 1], CFG)
        assert groups == [[0], [1]]

    def test_planted_dependence_grouping(self, rng):
        X = _block_data(rng)
        rows = np.arange(X.shape[0])
        groups = split_columns(X, rows, [0, 1, 2], CFG)
        assert groups == [[0, 1], [2]]
        # agrees with the pairwise-coefficient oracle
        for a, b in ((0, 1), (0, 2), (1, 2)):
            coeff = rdc(X[:, a], X[:, b], (CFG.seed, 7))
            assert (coeff >= CFG.alpha) == ({a, b} <= {0, 1})

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), alpha=st.sampled_from([0.2, 0.4, 0.6, 0.8]))
    def test_groups_are_pairwise_union_find_components(self, seed, alpha):
        r = np.random.default_rng(seed)
        n = int(r.integers(3, 300))
        X = r.normal(size=(n, 8))
        for j in range(1, 8):  # chain some columns to earlier ones
            if r.uniform() < 0.5:
                X[:, j] += np.sin(3.0 * X[:, r.integers(j)]) * r.uniform(0.5, 5.0)
        rows = np.sort(r.choice(n, size=int(r.integers(3, n + 1)), replace=False))
        cols = sorted(r.choice(8, size=int(r.integers(2, 9)), replace=False).tolist())
        config = LearnConfig(alpha=alpha, seed=seed)
        parent = {c: c for c in cols}

        def find(c):
            while parent[c] != c:
                c = parent[c]
            return c

        for ia, a in enumerate(cols):
            for b in cols[ia + 1:]:
                if rdc(X[rows, a], X[rows, b], (_mask_seed(seed), 7)) >= alpha:
                    parent[find(b)] = find(a)
        oracle: dict[int, list[int]] = {}
        for c in cols:
            oracle.setdefault(find(c), []).append(c)
        assert split_columns(X, rows, cols, config) == sorted(oracle.values())

    def test_fully_dependent_columns_stay_together(self, rng):
        base = rng.normal(size=500)
        X = np.column_stack([base, 2 * base + 1, -base])
        groups = split_columns(X, np.arange(500), [0, 1, 2], CFG)
        assert groups == [[0, 1, 2]]


class TestClusterRows:
    def test_recovers_separated_blobs(self):
        r = np.random.default_rng(5)
        Z = np.concatenate([r.normal(0, 0.1, 100), r.normal(10, 0.1, 100)])[:, None]
        assign, weights = cluster_rows(Z, np.random.default_rng(9))
        oracle = Z[:, 0] > 5
        agree = (assign == oracle).mean()
        assert agree in (0.0, 1.0)  # labels may be swapped
        assert weights == (0.5, 0.5)

    def test_identical_rows_fall_back_to_balanced_split(self):
        Z = np.ones((40, 3))
        assign, weights = cluster_rows(Z, np.random.default_rng(1))
        assert assign.sum() == 20
        assert weights == pytest.approx((0.5, 0.5))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**5), n=st.integers(2, 80))
    def test_partition_and_weights_are_consistent(self, seed, n):
        r = np.random.default_rng(seed)
        Z = r.normal(size=(n, 3))
        assign, weights = cluster_rows(Z, np.random.default_rng(seed + 1))
        assert assign.shape == (n,)
        assert 0 < assign.sum() < n
        assert weights[0] + weights[1] == 1.0
        assert weights[1] == pytest.approx(assign.mean())

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            cluster_rows(np.ones((1, 2)), np.random.default_rng(0))


class TestFitLeaf:
    def test_constant_column_gets_floored_sigma(self):
        floor = sigma_floor_for(np.zeros(4))
        leaf = fit_leaf(np.zeros(4), Column("a", "real"), 3, floor)
        assert leaf.feature == 3
        assert leaf.mu == 0.0
        assert leaf.sigma == floor == 1e-6

    def test_two_point_population_mle(self):
        leaf = fit_leaf(np.array([1.0, 3.0]), Column("a", "real"), 0, 1e-9)
        assert leaf.mu == 2.0
        assert leaf.sigma == 1.0

    def test_categorical_add_one_smoothing(self):
        col = Column("c", "categorical", ("x", "y"))
        leaf = fit_leaf(np.array([0, 0, 0, 1.0]), col, 2, 0.0)
        assert leaf.feature == 2
        assert leaf.probs == pytest.approx((4 / 6, 2 / 6))

    def test_empty_column_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_leaf(np.array([]), Column("a", "real"), 0, 1e-9)

    @pytest.mark.parametrize("values", [[1e308, 1e308], [1e200, -1e200, 1e200]])
    def test_overflowing_mean_or_spread_rejected_without_warning(self, values):
        # the mean's sum overflows, or the spread's squares do
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="column 'a': its mean or spread overflows"):
                fit_leaf(np.array(values), Column("a", "real"), 0, 1e-6)


def _dataset(X):
    return Dataset([Column(f"f{j}", "real") for j in range(X.shape[1])], X)


def _skip_tables():
    """Planted tables, and one whose first column of each planted block is
    cut into 4 quantile bins and stored as a categorical column."""
    tables = [(generate(GenConfig(n_features=n, seed=s)).dataset, s)
              for n, s in ((10, 0), (20, 1), (30, 2))]
    labeled = generate(GenConfig(n_features=20, seed=3))
    X = labeled.dataset.values.copy()
    schema = list(labeled.dataset.schema)
    for sub in {tuple(s) for s in labeled.ground_truth.values()}:
        j = sub[0]
        X[:, j] = np.digitize(X[:, j], np.quantile(X[:, j], [0.25, 0.5, 0.75])) * 1.0
        schema[j] = Column(schema[j].name, "categorical", ("q0", "q1", "q2", "q3"))
    return tables + [(Dataset(schema, X), 3)]


def _recorded_learn(monkeypatch, dataset, config):
    """learn_spn with each split_columns call recorded as (rows, cols,
    groups) and each cluster_rows call as its row assignment."""
    splits, assigns = [], []
    split_columns, cluster_rows = learn.split_columns, learn.cluster_rows

    def split(X, rows, cols, config):
        groups = split_columns(X, rows, cols, config)
        splits.append((rows.copy(), list(cols), groups))
        return groups

    def cluster(Z, rng):
        assign, weights = cluster_rows(Z, rng)
        assigns.append(assign)
        return assign, weights

    monkeypatch.setattr(learn, "split_columns", split)
    monkeypatch.setattr(learn, "cluster_rows", cluster)
    learn_spn(dataset, config)
    return splits, assigns


class TestProductChildSkip:
    """A product node's children keep its rows and skip the RDC: their
    coefficients are a submatrix of the parent's, and each child is one
    connected component of the parent's >= alpha graph."""

    @pytest.mark.parametrize("table", range(4))
    def test_product_children_cannot_split(self, monkeypatch, table):
        dataset, seed = _skip_tables()[table]
        config = LearnConfig(seed=seed)
        X = dataset.values
        draw = (_mask_seed(seed), 7)
        splits, _ = _recorded_learn(monkeypatch, dataset, config)
        checked = 0
        for rows, cols, groups in splits:
            if len(groups) == 1:
                continue
            parent = _canonical_corrs(_rdc_features(X[np.ix_(rows, cols)], draw))
            for g in (g for g in groups if len(g) > 1):
                at = [cols.index(c) for c in g]
                child = _canonical_corrs(_rdc_features(X[np.ix_(rows, g)], draw))
                assert np.abs(child - parent[np.ix_(at, at)]).max() <= 1e-12
                assert split_columns(X, rows, g, config) == [g]
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("table", range(4))
    def test_split_columns_runs_on_the_root_and_sum_children_only(self, monkeypatch,
                                                                  table):
        # every slice that cluster_rows splits has 2 or more columns, so each
        # of its two children with enough rows is offered to split_columns
        dataset, seed = _skip_tables()[table]
        config = LearnConfig(seed=seed)
        splits, assigns = _recorded_learn(monkeypatch, dataset, config)
        sum_children = sum(int(np.sum(side) >= config.min_slice_rows)
                           for a in assigns for side in (~a, a))
        assert assigns and len(splits) == 1 + sum_children


class TestLearnSpn:
    def test_independent_columns_give_product_root(self, rng):
        X = rng.normal(size=(1000, 2))
        model = learn_spn(_dataset(X), CFG)
        assert isinstance(model.nodes[model.root], ProductNode)

    def test_small_slice_factorizes_naively(self, rng):
        X = rng.normal(size=(100, 5))
        model = learn_spn(_dataset(X), CFG)
        root = model.nodes[model.root]
        assert isinstance(root, ProductNode)
        assert len(root.children) == 5
        assert all(isinstance(model.nodes[c], GaussianLeaf) for c in root.children)

    def test_single_column_gives_leaf(self, rng):
        X = rng.normal(size=(500, 1))
        model = learn_spn(_dataset(X), CFG)
        assert len(model.nodes) == 1
        assert isinstance(model.nodes[0], GaussianLeaf)

    def test_dependent_data_gets_sum_node(self, rng):
        X = _block_data(rng, 1000)[:, :2]
        model = learn_spn(_dataset(X), CFG)
        assert isinstance(model.nodes[model.root], SumNode)

    def test_learned_models_validate(self):
        for seed in range(5):
            r = np.random.default_rng(seed)
            X = np.column_stack([r.normal(size=600),
                                 r.integers(2, size=600) * 3.0 + r.normal(size=600),
                                 r.uniform(size=600)])
            model = learn_spn(_dataset(X), LearnConfig(seed=seed))
            assert validate(model) == []

    def test_deterministic_given_seed(self, rng):
        X = _block_data(rng, 700)
        m1 = learn_spn(_dataset(X), LearnConfig(seed=7))
        m2 = learn_spn(_dataset(X), LearnConfig(seed=7))
        assert json.dumps(to_dict(m1)) == json.dumps(to_dict(m2))

    def test_leaf_count_bounds(self, rng):
        X = _block_data(rng, 900)
        model = learn_spn(_dataset(X), CFG)
        n_leaves = sum(isinstance(n, GaussianLeaf) for n in model.nodes)
        n_sums = sum(isinstance(n, SumNode) for n in model.nodes)
        assert X.shape[1] <= len(model.nodes)
        assert n_leaves <= X.shape[1] * (n_sums + 1) * 2

    def test_heldout_density_close_to_truth(self):
        truth = SpnModel(
            [GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(1, 0.0, 1.0),
             ProductNode((0, 1)),
             GaussianLeaf(0, 4.0, 1.0), GaussianLeaf(1, 4.0, 1.0),
             ProductNode((3, 4)),
             SumNode((2, 5), (0.5, 0.5))], 6,
            [Column("a", "real"), Column("b", "real")])
        gaps = []
        for seed in range(5):
            r = np.random.default_rng(seed)
            comp = r.integers(2, size=2000)
            X = r.normal(size=(2000, 2)) + 4.0 * comp[:, None]
            model = learn_spn(_dataset(X[:1500]), LearnConfig(seed=seed))
            held = X[1500:]
            learned_ll = eval_log_density(model, held).mean()
            true_ll = eval_log_density(truth, held).mean()
            gaps.append(abs(learned_ll - true_ll))
        assert np.median(gaps) < 0.5

    def test_min_slice_rows_below_three_rejected(self):
        with pytest.raises(ValueError, match="min_slice_rows must be >= 3"):
            LearnConfig(min_slice_rows=2)

    @pytest.mark.parametrize("value", [3.5, 200.0, True, "200", None])
    def test_min_slice_rows_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="min_slice_rows must be an integer"):
            LearnConfig(min_slice_rows=value)

    def test_numpy_integer_min_slice_rows_accepted(self):
        assert LearnConfig(min_slice_rows=np.int64(200)).min_slice_rows == 200

    def test_three_row_slices_learn(self):
        # with min_slice_rows=2 this table reached split_columns with a
        # 2-row slice, which the RDC cannot score
        r = np.random.default_rng(0)
        z = r.normal(size=40)
        X = np.column_stack([z + 0.1 * r.normal(size=40),
                             z ** 2 + 0.1 * r.normal(size=40), -z])
        model = learn_spn(_dataset(X), LearnConfig(seed=0, min_slice_rows=3))
        assert validate(model) == []

    CODE = "categorical value out of range for column 'c': row 40 value "

    @pytest.mark.parametrize("j,value,message", [
        (1, 7.0, CODE + "7.0 of feature 1"),
        (1, 1.5, CODE + "1.5 of feature 1"),
        (1, -1.0, CODE + "-1.0 of feature 1"),
        (0, np.inf, "row 40 value inf of feature 0 (column 'a') is not finite"),
        (0, -np.inf, "row 40 value -inf of feature 0 (column 'a') is not finite"),
    ])
    def test_cell_breaking_the_row_rule_is_named(self, j, value, message):
        # a code of 7 used to fail validation of the learned model, 1.5 was
        # truncated to a category, -1 failed inside numpy's bincount and an
        # infinite cell read as a spread that overflows
        r = np.random.default_rng(0)
        schema = [Column("a", "real"), Column("c", "categorical", ("x", "y", "z"))]
        X = np.column_stack([r.normal(size=300), r.integers(3, size=300)]).astype(float)
        X[40, j] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            learn_spn(Dataset(schema, X), CFG)

    def test_rejects_empty_and_nan(self):
        with pytest.raises(ValueError, match="^dataset has no rows$"):
            learn_spn(_dataset(np.empty((0, 2))), CFG)
        X = np.ones((50, 2))
        X[3, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            learn_spn(_dataset(X), CFG)

    def test_rejects_a_dataset_with_no_columns(self):
        # a CSV of blank lines loads as one: `train` exits 2 on it
        with pytest.raises(ValueError, match="^dataset has no columns$"):
            learn_spn(_dataset(np.empty((3, 0))), CFG)

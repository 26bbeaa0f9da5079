import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from spnexplain.data import Column, Dataset
from spnexplain.learn import (LearnConfig, _canonical_corrs, _mask_seed,
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
    @given(seed=st.integers(0, 10**6), levels=st.sampled_from([1, 2, 5, 50, 0]))
    def test_average_ranks_match_scipy_rankdata(self, seed, levels):
        # levels = 0 draws untied normals; otherwise ties among that many values
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 300))
        v = r.normal(size=n) if levels == 0 else r.integers(0, levels, n) * 0.5
        got, want = average_ranks(v), rankdata(v)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="equal-length"):
            rdc([1.0, 2.0, 3.0], [1.0, 2.0], 0)
        with pytest.raises(ValueError, match="at least 3"):
            rdc([1.0, 2.0], [1.0, 2.0], 0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(3, 400),
           kinds=st.lists(st.sampled_from(["real", "tied", "coded", "constant"]),
                          min_size=2, max_size=6))
    def test_batched_coefficients_match_pairwise_and_oracle(self, seed, n, kinds):
        # real, tied (few values), categorical-coded and constant columns,
        # some of them functions of the first column
        r = np.random.default_rng(seed)
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
        X = np.column_stack(cols)
        feats = _rdc_features(X, seed)
        coeffs = _canonical_corrs(feats.copy())
        for a in range(len(cols)):
            for b in range(a + 1, len(cols)):
                assert coeffs[a, b] == coeffs[b, a]
                assert coeffs[a, b] == pytest.approx(rdc(X[:, a], X[:, b], seed), abs=1e-6)
                assert coeffs[a, b] == pytest.approx(
                    cca_oracle(feats[a].T, feats[b].T), abs=1e-6)


def _block_data(rng, n=600):
    """Columns 0-1 dependent through shared clusters, column 2 independent."""
    cluster = rng.integers(2, size=n)
    x0 = cluster * 0.5 + rng.normal(0, 0.05, n)
    x1 = cluster * -0.7 + 1.0 + rng.normal(0, 0.05, n)
    x2 = rng.uniform(size=n)
    return np.column_stack([x0, x1, x2])


class TestSplitColumns:
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


def _dataset(X):
    return Dataset([Column(f"f{j}", "real") for j in range(X.shape[1])], X)


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

    def test_three_row_slices_learn(self):
        # with min_slice_rows=2 this table reached split_columns with a
        # 2-row slice, which the RDC cannot score
        r = np.random.default_rng(0)
        z = r.normal(size=40)
        X = np.column_stack([z + 0.1 * r.normal(size=40),
                             z ** 2 + 0.1 * r.normal(size=40), -z])
        model = learn_spn(_dataset(X), LearnConfig(seed=0, min_slice_rows=3))
        assert validate(model) == []

    def test_rejects_empty_and_nan(self):
        with pytest.raises(ValueError, match="empty"):
            learn_spn(_dataset(np.empty((0, 2))), CFG)
        X = np.ones((50, 2))
        X[3, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            learn_spn(_dataset(X), CFG)

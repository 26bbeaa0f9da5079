import dataclasses
import importlib
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp

from conftest import (all_assignments, brute_force_marginal, direct_prob,
                      random_categorical_model, random_gaussian_model,
                      random_mixed_model, random_table, reference_log_density,
                      root_children, uneven_product)
from spnexplain.data import NUMBER, Column, Dataset
from spnexplain.errors import ModelFormatError
from spnexplain.explain import subspace_score_stats
from spnexplain.learn import LearnConfig, learn_spn
from spnexplain.model import (CategoricalLeaf, EvalCounter, GaussianLeaf,
                              ProductNode, SpnModel, SumNode, TableMarginals,
                              eval_log_density, from_dict, load_model, log_marginal,
                              save_model, to_dict, validate)

REAL2 = [Column("a", "real"), Column("b", "real")]
model_module = importlib.import_module("spnexplain.model")


def std_normal_leaf():
    return SpnModel([GaussianLeaf(0, 0.0, 1.0)], 0, [Column("a", "real")])


class TestValidate:
    def test_single_gaussian_leaf_ok(self):
        assert validate(std_normal_leaf()) == []

    def test_completeness_violation(self):
        m = SpnModel([GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(1, 0.0, 1.0),
                      SumNode((0, 1), (0.5, 0.5))], 2, REAL2)
        assert any("completeness" in v for v in validate(m))

    def test_decomposability_violation(self):
        nodes = [GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(1, 0.0, 1.0),
                 ProductNode((0, 1)), GaussianLeaf(1, 2.0, 1.0),
                 ProductNode((2, 3))]
        m = SpnModel(nodes, 4, REAL2)
        assert any("decomposability" in v for v in validate(m))

    def test_weight_normalization_violation(self):
        m = SpnModel([GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(0, 1.0, 1.0),
                      SumNode((0, 1), (0.5, 0.6))], 2, [Column("a", "real")])
        assert any("sum to" in v for v in validate(m))

    def test_bad_sigma_and_unreachable(self):
        m = SpnModel([GaussianLeaf(0, 0.0, -1.0), GaussianLeaf(0, 0.0, 1.0)],
                     1, [Column("a", "real")])
        issues = validate(m)
        assert any("sigma" in v for v in issues)
        assert any("unreachable" in v for v in issues)

    def test_root_scope_must_cover_schema(self):
        m = SpnModel([GaussianLeaf(0, 0.0, 1.0)], 0, REAL2)
        assert any("root scope" in v for v in validate(m))


def reference_validate(model: SpnModel) -> list[str]:
    """`validate` as it was written with a separate scope pass and its own
    stack walk for reachability, over the same field rules."""
    n_nodes, n_features = len(model.nodes), len(model.schema)
    if n_nodes == 0:
        return ["model has no nodes"]
    kinds, issues = model_module._field_issues(model)
    if kinds:
        return kinds
    if not (0 <= model.root < n_nodes):
        issues.append(f"root id {model.root} out of range")
    scopes = []
    for i, node in enumerate(model.nodes):
        sc = set()
        if isinstance(node, (GaussianLeaf, CategoricalLeaf)):
            sc.add(node.feature)
        elif isinstance(node, (SumNode, ProductNode)):
            for c in node.children:
                if 0 <= c < i:
                    sc |= scopes[c]
        scopes.append(frozenset(sc))
    for i, node in enumerate(model.nodes):
        where = f"node {i}"
        if type(node) not in model_module._NODE_FIELDS:
            issues.append(f"{where}: unknown node type {type(node).__name__}")
            continue
        if isinstance(node, (SumNode, ProductNode)):
            if not node.children:
                issues.append(f"{where}: no children")
            for c in node.children:
                if not (0 <= c < n_nodes):
                    issues.append(f"{where}: child id {c} out of range")
                elif c >= i:
                    issues.append(f"{where}: child {c} not before parent (cycle risk)")
            child_scopes = [scopes[c] for c in node.children if 0 <= c < i]
        else:
            kind = model_module._COLUMN_KIND[type(node)]
            col = model.schema[node.feature] if 0 <= node.feature < n_features else None
            if col is None:
                issues.append(f"{where}: feature {node.feature} out of range")
            elif col.kind != kind:
                issues.append(f"{where}: {model_module._NODE_FIELDS[type(node)][0]} leaf on "
                              f"non-{kind} column")
            elif kind == "categorical" and len(node.probs) != len(col.categories):
                issues.append(f"{where}: {len(node.probs)} probs for "
                              f"{len(col.categories)} categories")
        if isinstance(node, SumNode):
            if len(node.weights) != len(node.children):
                issues.append(f"{where}: {len(node.weights)} weights for "
                              f"{len(node.children)} children")
            if any(s != child_scopes[0] for s in child_scopes[1:]):
                issues.append(f"{where}: completeness violated, children scopes differ")
        elif isinstance(node, ProductNode):
            if sum(map(len, child_scopes)) != len(frozenset().union(*child_scopes)):
                issues.append(f"{where}: decomposability violated, "
                              f"overlapping child scopes")
        for name in model_module._NORMALIZED:
            seq = getattr(node, name, ())
            total = sum(map(model_module._float, seq))
            if seq and abs(total - 1.0) > model_module.WEIGHT_TOL:
                issues.append(f"{where}: {name} sum to {total!r}, not 1")
    if 0 <= model.root < n_nodes:
        if scopes[model.root] != frozenset(range(n_features)):
            issues.append("root scope does not cover all features")
        reachable, stack = {model.root}, [model.root]
        while stack:
            node = model.nodes[stack.pop()]
            if isinstance(node, (SumNode, ProductNode)):
                for c in node.children:
                    if 0 <= c < n_nodes and c not in reachable:
                        reachable.add(c)
                        stack.append(c)
        issues += [f"node {i} unreachable from root" for i in range(n_nodes)
                   if i not in reachable]
    return issues


class _OtherLeaf(GaussianLeaf):
    """A subclass of a node type, and so a node type `validate` does not know."""


class _OtherProduct(ProductNode):
    """A subclass of a node type, and so a node type `validate` does not know."""


def random_arena(rng) -> SpnModel:
    """A small arena of mostly well-kinded nodes whose child ids may be out of
    range, at or after their parent (forward ids and cycles) or repeated, with
    some nodes of unknown type and some leaves on a missing or wrong column."""
    schema = [Column(f"f{j}", "real") if rng.random() < 0.6
              else Column(f"f{j}", "categorical", ("x", "y", "z")[:rng.integers(1, 4)])
              for j in range(rng.integers(1, 4))]
    n_nodes = int(rng.integers(1, 9))

    def child_ids(i):
        k = int(rng.integers(0 if rng.random() < 0.05 else 1, 4))
        hi = i if rng.random() < 0.7 else n_nodes + 1  # forward ids and self-loops
        return tuple(int(c) for c in rng.integers(-1 if rng.random() < 0.1 else 0,
                                                  max(hi, 1), k))

    nodes = []
    for i in range(n_nodes):
        feature = int(rng.integers(0, len(schema)) if rng.random() < 0.9
                      else rng.choice([-1, len(schema)]))
        kind = rng.integers(0, 7)
        if kind == 0:
            nodes.append(GaussianLeaf(feature, 0.0, 1.0))
        elif kind == 1:
            k = int(rng.integers(1, 4))
            nodes.append(CategoricalLeaf(feature, (1.0 / k,) * k))
        elif kind == 2:
            children = child_ids(i)
            k = len(children) + (rng.random() < 0.1)
            nodes.append(SumNode(children, (1.0 / k,) * k if k else ()))
        elif kind == 3:
            nodes.append(ProductNode(child_ids(i)))
        elif kind == 4:
            nodes.append((object(), _OtherLeaf(feature, 0.0, 1.0),
                          _OtherProduct(child_ids(i)))[rng.integers(0, 3)])
        else:  # lean towards leaves that fit their column
            col = schema[feature % len(schema)]
            k = len(col.categories)
            nodes.append(GaussianLeaf(feature, 0.0, 1.0) if col.kind == "real"
                         else CategoricalLeaf(feature, (1.0 / k,) * k))
    root = int(rng.integers(-1 if rng.random() < 0.05 else 0, n_nodes + 1))
    return SpnModel(nodes, root, schema)


class TestArenaWalk:
    """`validate`'s scopes and reachability, and the nodes each circuit
    compiles, against walks written out separately."""

    def test_validate_equals_reference_on_random_arenas(self):
        rng = np.random.default_rng(24)
        seen = set()
        for _ in range(20_000):
            m = random_arena(rng)
            issues = validate(m)
            assert issues == reference_validate(m), (m.root, m.nodes, m.schema)
            seen.update(re.sub(r"[-\d.]+", "#", v) for v in issues)
        # the arenas reach each rule that reads the walk or the scopes
        for issue in ("node # unreachable from root", "root scope does not cover all features",
                      "node #: child # not before parent (cycle risk)",
                      "node #: child id # out of range", "node #: unknown node type object",
                      "node #: unknown node type _OtherProduct",
                      "node #: completeness violated, children scopes differ",
                      "node #: decomposability violated, overlapping child scopes",
                      "node #: feature # out of range"):
            assert issue in seen, issue
        assert validate(SpnModel([], 0, REAL2)) == reference_validate(SpnModel([], 0, REAL2))

    def test_the_circuit_compiles_the_nodes_under_the_root(self, root_shapes):
        for m in [m for m, _, _ in root_shapes.values()] + [uneven_product()]:
            under, stack = {m.root}, [m.root]
            while stack:
                for c in getattr(m.nodes[stack.pop()], "children", ()):
                    if c not in under:
                        under.add(c)
                        stack.append(c)
            nodes = [m.nodes[i] for i in sorted(under)]
            circuit = model_module._compile(m)
            assert circuit.n_rows == len(under) + 1
            gauss = [n for n in nodes if isinstance(n, GaussianLeaf)]
            cats = [n for n in nodes if isinstance(n, CategoricalLeaf)]
            assert circuit.gauss_feature.tolist() == [g.feature for g in gauss]
            assert circuit.mu[:, 0].tolist() == [g.mu for g in gauss]
            assert circuit.sigma[:, 0].tolist() == [g.sigma for g in gauss]
            assert circuit.cat_feature.tolist() == [c.feature for c in cats]
            assert (sum(idx.shape[1] for _, idx, _ in circuit.groups)
                    == len(nodes) - len(gauss) - len(cats))
            # a root product's bit weights: each child's features, by rank
            if not isinstance(m.nodes[m.root], ProductNode):
                assert circuit.bits is None
                continue
            bits = np.zeros((m.n_features, len(circuit.child_rows)))
            for c, (_, _, features) in enumerate(root_children(m)):
                bits[features, c] = 2.0 ** np.arange(len(features))
            assert np.array_equal(circuit.bits, bits)


class TestLogDensity:
    def test_standard_normal_at_mean(self):
        lp = eval_log_density(std_normal_leaf(), [0.0])
        assert lp == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_two_component_mixture(self):
        m = SpnModel([GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(0, 4.0, 1.0),
                      SumNode((0, 1), (0.5, 0.5))], 2, [Column("a", "real")])
        def pdf(x, mu):
            return math.exp(-0.5 * (x - mu) ** 2) / math.sqrt(2 * math.pi)
        expected = math.log(0.5 * pdf(0, 0) + 0.5 * pdf(0, 4))
        assert eval_log_density(m, [0.0]) == pytest.approx(expected, abs=1e-12)

    def test_partial_categorical_matches_enumeration(self, rng):
        for _ in range(20):
            m = random_categorical_model(rng, max_features=3)
            if m.n_features < 2:
                continue
            partial = {0: 0}
            keep = np.arange(m.n_features) == 0
            got = math.exp(log_marginal(m, np.zeros(m.n_features), keep))
            assert got == pytest.approx(brute_force_marginal(m, partial), rel=1e-9)

    def test_rejects_empty_query(self):
        with pytest.raises(ValueError, match="marginalizes every feature"):
            log_marginal(std_normal_leaf(), [0.0], [False])

    def test_rejects_out_of_range_category(self):
        m = SpnModel([CategoricalLeaf(0, (0.5, 0.5))], 0,
                     [Column("c", "categorical", ("x", "y"))])
        with pytest.raises(ValueError, match="out of range"):
            eval_log_density(m, [5])

    def test_rejects_wrong_length(self):
        want = re.escape("query has shape (2,), expected (1,) or (rows, 1)")
        with pytest.raises(ValueError, match=want):
            eval_log_density(std_normal_leaf(), [0.0, 1.0])


class TestMarginalSubspace:
    def test_full_subspace_equals_joint(self, rng):
        m = random_gaussian_model(rng, 3)
        x = rng.normal(size=3)
        full = log_marginal(m, x, np.ones(3, dtype=bool))
        assert full == eval_log_density(m, list(x))

    def test_factorized_model_sums_per_feature(self):
        leaves = [GaussianLeaf(j, float(j), 1.0 + j) for j in range(3)]
        m = SpnModel(leaves + [ProductNode((0, 1, 2))], 3,
                     [Column(f"f{j}", "real") for j in range(3)])
        x = [0.5, -1.0, 2.0]
        for sub in ([0], [1, 2], [0, 2]):
            parts = sum(log_marginal(m, x, np.arange(3) == j) for j in sub)
            keep = np.isin(np.arange(3), sub)
            assert log_marginal(m, x, keep) == pytest.approx(parts, abs=1e-12)

    def test_matches_quadrature_on_two_features(self, rng):
        for _ in range(5):
            m = random_gaussian_model(rng, 2)
            x = rng.uniform(-2, 2, size=2)
            def joint(y):
                return math.exp(eval_log_density(m, [x[0], y]))
            oracle, _ = quad(joint, -60, 60, limit=300, epsabs=1e-10)
            got = math.exp(log_marginal(m, x, np.array([True, False])))
            assert got == pytest.approx(oracle, rel=1e-6, abs=1e-9)


class TestLogMarginal:
    def test_masks_against_one_sample_match_enumeration(self, rng):
        for _ in range(20):
            m = random_categorical_model(rng)
            x = np.array([rng.integers(len(c.categories)) for c in m.schema],
                         dtype=np.float64)
            keep = rng.random((6, m.n_features)) < 0.5
            keep[:, 0] = True  # no query marginalizes every feature
            got = log_marginal(m, x, keep)
            assert got.shape == (6,)
            for mask, lp in zip(keep, got):
                want = brute_force_marginal(
                    m, {int(j): int(x[j]) for j in np.flatnonzero(mask)})
                assert math.exp(lp) == pytest.approx(want, rel=1e-9)

    def test_one_mask_against_rows_matches_enumeration(self, rng):
        for _ in range(20):
            m = random_categorical_model(rng)
            X = np.column_stack([rng.integers(len(c.categories), size=5)
                                 for c in m.schema]).astype(np.float64)
            keep = np.arange(m.n_features) % 2 == 0
            got = log_marginal(m, X, keep)
            assert got.shape == (5,)
            for row, lp in zip(X, got):
                want = brute_force_marginal(
                    m, {int(j): int(row[j]) for j in np.flatnonzero(keep)})
                assert math.exp(lp) == pytest.approx(want, rel=1e-9)

    def test_single_query_is_the_nan_masked_evaluation(self, rng):
        m = random_gaussian_model(rng, 4)
        x = rng.normal(size=4)
        keep = np.array([True, False, True, False])
        counter = EvalCounter()
        got = log_marginal(m, x, keep, counter)
        assert got == eval_log_density(m, np.where(keep, x, np.nan))
        assert np.ndim(got) == 0
        assert counter.queries == 1

    def test_wrong_mask_shape_rejected(self, rng):
        m = random_gaussian_model(rng, 3)
        for x, keep in ((np.zeros(3), np.ones(4, dtype=bool)),
                        (np.zeros((5, 3)), np.ones((2, 3), dtype=bool)),
                        (np.zeros(4), np.ones(4, dtype=bool)),
                        # width 1 would broadcast over all 3 features
                        (np.zeros(3), np.ones(1, dtype=bool)),
                        (np.zeros(1), np.ones(3, dtype=bool))):
            want = re.escape(f"x of shape {x.shape} and keep of shape {keep.shape} "
                             "must each have 3 features and broadcast together")
            with pytest.raises(ValueError, match=want):
                log_marginal(m, x, keep)
        with pytest.raises(ValueError, match="boolean mask"):
            log_marginal(m, np.zeros(3), [0, 2, 1])

    def test_query_of_more_than_two_dimensions_is_named(self, rng):
        m = random_gaussian_model(rng, 3)
        want = re.escape("query has shape (2, 3, 3), expected (rows, 3)")
        for x, keep in ((np.zeros(3), np.ones((2, 3, 3), dtype=bool)),
                        (np.zeros((2, 3, 3)), np.ones(3, dtype=bool))):
            with pytest.raises(ValueError, match=want):
                log_marginal(m, x, keep)

    @staticmethod
    def gaussian_times_two_levels():
        return SpnModel([GaussianLeaf(0, 0.0, 1.0), CategoricalLeaf(1, (0.25, 0.75)),
                         ProductNode((0, 1))], 2,
                        [Column("g", "real"), Column("c", "categorical", ("u", "v"))])

    def test_dropped_categorical_cell_is_not_checked(self):
        m = self.gaussian_times_two_levels()
        keep = np.array([True, False])
        got = log_marginal(m, [0.0, 7.0], keep)
        assert got == log_marginal(m, [0.0, 1.0], keep)
        assert got == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)
        X = np.array([[0.5, -3.5], [1.0, 0.0]])
        assert np.array_equal(log_marginal(m, X, keep),
                              log_marginal(m, np.where(keep, X, 0.0), keep))
        with pytest.raises(ValueError, match="out of range"):
            log_marginal(m, [0.0, 7.0], np.ones(2, dtype=bool))

    def test_nan_cell_under_a_true_mask_is_dropped(self, rng):
        m = self.gaussian_times_two_levels()
        both = np.ones(2, dtype=bool)
        assert log_marginal(m, [0.3, np.nan], both) == log_marginal(m, [0.3, 1.0],
                                                                   np.array([True, False]))
        assert log_marginal(m, [np.nan, 1.0], both) == log_marginal(m, [2.0, 1.0],
                                                                   np.array([False, True]))
        g = random_gaussian_model(rng, 4)
        X = rng.normal(size=(5, 4))
        X[[0, 2, 3], [1, 0, 3]] = np.nan
        keep = ~np.isnan(X)
        assert np.array_equal(log_marginal(g, X, np.ones(4, dtype=bool)),
                              log_marginal(g, np.nan_to_num(X), keep))

    def test_empty_batch_gives_an_empty_float_array(self, rng):
        m = random_gaussian_model(rng, 3)
        for got in (log_marginal(m, np.zeros((0, 3)), np.ones(3, dtype=bool)),
                    log_marginal(m, np.zeros(3), np.ones((0, 3), dtype=bool)),
                    eval_log_density(m, np.zeros((0, 3)))):
            assert isinstance(got, np.ndarray)
            assert got.shape == (0,) and got.dtype == np.float64


class TestNodeCount:
    def test_single_leaf(self):
        assert len(std_normal_leaf().nodes) == 1

    def test_product_of_three_leaves(self):
        leaves = [GaussianLeaf(j, 0.0, 1.0) for j in range(3)]
        m = SpnModel(leaves + [ProductNode((0, 1, 2))], 3,
                     [Column(f"f{j}", "real") for j in range(3)])
        assert len(m.nodes) == 4

    def test_matches_serialized_length(self, rng):
        m = random_categorical_model(rng)
        assert len(m.nodes) == len(to_dict(m)["nodes"])


class TestDistributionProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_total_probability_is_one(self, seed):
        m = random_categorical_model(np.random.default_rng(seed))
        total = sum(math.exp(eval_log_density(m, list(x))) for x in all_assignments(m))
        assert total == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_marginal_consistency_all_subsets(self, seed):
        m = random_categorical_model(np.random.default_rng(seed))
        n = m.n_features
        rng = np.random.default_rng(seed + 1)
        x = [int(rng.integers(len(c.categories))) for c in m.schema]
        for size in range(1, n + 1):
            for sub in itertools.combinations(range(n), size):
                got = math.exp(log_marginal(m, x, np.isin(np.arange(n), sub)))
                want = brute_force_marginal(m, {j: x[j] for j in sub})
                assert got == pytest.approx(want, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_mixed_marginals_match_enumeration(self, seed):
        # every subset that keeps all real features: the categorical ones
        # it drops are summed out by enumeration
        m = random_mixed_model(np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        x = [float(rng.uniform(-2, 2)) if c.kind == "real"
             else int(rng.integers(len(c.categories))) for c in m.schema]
        cats = [j for j, c in enumerate(m.schema) if c.kind == "categorical"]
        for size in range(len(cats) + 1):
            for dropped in itertools.combinations(cats, size):
                keep = ~np.isin(np.arange(m.n_features), dropped)
                if not keep.any():
                    continue
                got = math.exp(log_marginal(m, x, keep))
                want = brute_force_marginal(
                    m, {j: x[j] for j in range(m.n_features) if keep[j]})
                assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_each_node_evaluated_at_most_once(self, rng):
        m = random_gaussian_model(rng, 4)
        counter = EvalCounter()
        eval_log_density(m, [0.0, 0.0, 0.0, 0.0], counter)
        assert counter.queries == 1
        assert counter.node_evals <= len(m.nodes)

    def test_fully_instantiated_query_is_joint_bit_exact(self, rng):
        m = random_gaussian_model(rng, 3)
        x = list(rng.normal(size=3))
        assert log_marginal(m, x, np.ones(3, dtype=bool)) == eval_log_density(m, x)

    def test_no_nan_for_extreme_inputs(self, rng):
        m = random_gaussian_model(rng, 3)
        for scale in (1e3, 1e6, 1e9):
            lp = eval_log_density(m, [scale, -scale, scale])
            assert not math.isnan(lp)


def random_queries(rng, model, batch: int) -> np.ndarray:
    """Rows of valid values with a random share marginalized (NaN); every
    row keeps at least one feature."""
    q = random_table(rng, model, batch)
    drop = rng.random(q.shape) < rng.uniform(0.0, 0.9)
    drop[np.arange(batch), rng.integers(0, model.n_features, batch)] = False
    return np.where(drop, np.nan, q)


class TestCompiledCircuit:
    """The compiled evaluator against the node-by-node reference."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), builder=st.sampled_from(["mixed", "gaussian"]),
           batch=st.sampled_from([2, 7, 60, 700]))
    def test_bit_identical_to_node_by_node_reference(self, seed, builder, batch):
        # batches of >= 2 rows: numpy sums the reference's (k, 1) stacks
        # of a single row pairwise, the (k, batch) stacks in child order
        rng = np.random.default_rng(seed)
        m = (random_mixed_model(rng) if builder == "mixed"
             else random_gaussian_model(rng, int(rng.integers(1, 12))))
        q = random_queries(rng, m, batch)
        got = eval_log_density(m, q)
        assert np.array_equal(got, reference_log_density(m, q))
        # a row alone gets the value it gets inside the batch
        for i in rng.choice(batch, size=min(batch, 10), replace=False):
            assert eval_log_density(m, q[i]) == got[i]

    def test_wide_product_row_alone_equals_batch(self, rng):
        # numpy would sum a lone row's 30 children pairwise, a batch's in order
        n = 30
        m = SpnModel([GaussianLeaf(j, float(rng.normal()), float(rng.uniform(0.5, 2)))
                      for j in range(n)] + [ProductNode(tuple(range(n)))], n,
                     [Column(f"g{j}", "real") for j in range(n)])
        q = random_queries(rng, m, 50)
        got = eval_log_density(m, q)
        assert np.array_equal(got, reference_log_density(m, q))
        assert [eval_log_density(m, row) for row in q] == list(got)

    def test_tied_sum_children(self, rng):
        # two equal maximal terms take log-sum-exp's m = 2 path
        for leaf, column in ((GaussianLeaf(0, 0.5, 1.5), Column("a", "real")),
                             (CategoricalLeaf(0, (0.2, 0.8)),
                              Column("c", "categorical", ("x", "y")))):
            m = SpnModel([leaf, leaf, SumNode((0, 1), (0.5, 0.5))], 2, [column])
            q = np.array([[0.0], [1.0]])
            got = eval_log_density(m, q)
            assert np.array_equal(got, reference_log_density(m, q))
            single = eval_log_density(SpnModel([leaf], 0, [column]), q)
            assert got == pytest.approx(single, abs=1e-15)

    def test_infinite_values_match_reference(self):
        m = random_gaussian_model(np.random.default_rng(3), 4)
        q = np.array([[np.inf, 0.0, 1.0, -1.0], [0.0, -np.inf, np.nan, 2.0],
                      [np.nan, np.nan, np.nan, 0.5]])
        got = eval_log_density(m, q)
        assert np.array_equal(got, reference_log_density(m, q))
        assert list(np.isneginf(got)) == [True, True, False]


def test_logsumexp_equals_scipy_bit_for_bit():
    # columns: every term -inf; a +inf term; +inf next to -inf; a tie at the
    # maximum; a -inf term; then finite columns, wide and narrow
    r = np.random.default_rng(0)
    inf = math.inf
    stack = np.hstack([np.array([[-inf, inf, inf, 0.5, -inf],
                                 [-inf, 1.0, -inf, 0.5, 2.0],
                                 [-inf, -2.0, inf, -3.0, -inf]]),
                       r.normal(size=(3, 40)) * 300, r.normal(size=(3, 40)) * 1e-3])
    got, want = model_module._logsumexp(stack), logsumexp(stack, axis=0)
    assert got[:3].tolist() == [-inf, inf, inf]
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestMaskedPass:
    """The two halves of a pass, each row's leaf values computed once and
    masked per query, against the NaN queries they stand for."""

    @pytest.mark.parametrize("shape", ["planted", "mixed", "sum_root", "wide_children",
                                       "random_mixed"])
    def test_equals_nan_queries_bit_for_bit(self, root_shapes, shape):
        rng = np.random.default_rng(7)
        m = (random_mixed_model(rng, max_features=8) if shape == "random_mixed"
             else root_shapes[shape][0])
        n = m.n_features
        X = random_table(rng, m, 60)
        real = np.array([c.kind == "real" for c in m.schema])
        extreme = (rng.random(X.shape) < 0.05) & real
        X[extreme] = rng.choice([1e300, -1e300], int(extreme.sum()))
        masks = rng.random((60, n)) < rng.uniform(0.1, 0.9, (60, 1))
        masks[np.arange(60), rng.integers(0, n, 60)] = True
        circuit = model_module._compile(m)
        leaves = circuit.leaf_log_density(X)

        def check(got, q):
            assert np.array_equal(got, eval_log_density(m, q))
            with np.errstate(over="ignore"):  # the oracle squares 1e300
                assert np.array_equal(got, reference_log_density(m, q))

        # a search step: one row's leaves under a stack of masks
        for i in range(5):
            check(circuit.masked_log_density(circuit.leaf_log_density(X[i:i + 1]), masks),
                  np.where(masks, X[i], np.nan))
        # a table fill: one mask over every row's leaves
        for keep in masks[:5]:
            check(circuit.masked_log_density(leaves, keep[None]),
                  np.where(keep, X, np.nan))
        # a mask for each row
        check(circuit.masked_log_density(leaves, masks), np.where(masks, X, np.nan))
        assert extreme.any() or not real.any()

    def test_counts_a_masked_leaf_as_a_node_evaluation(self, root_shapes):
        m = root_shapes["planted"][0]
        circuit = model_module._compile(m)
        leaves = circuit.leaf_log_density(np.zeros((1, m.n_features)))
        masks = np.eye(m.n_features, dtype=bool)
        counter = EvalCounter()
        circuit.masked_log_density(leaves, masks, counter)
        assert (counter.queries, counter.node_evals) == (m.n_features,
                                                        m.n_features * len(m.nodes))


def poison_fill_passes(monkeypatch) -> list[tuple[int, int]]:
    """Make each store fill's pass give NaN for every entry of a child of
    k features at a code at or above 2^k, so a store that keeps or reads
    one shows it; return a list that gets each fill pass's count of codes
    and of queries."""
    masked = model_module._Circuit.masked_log_density
    passes = []

    def poisoned(circuit, leaves, keep, counter=None, rows=None):
        out = masked(circuit, leaves, keep, counter, rows)
        if rows is not None:
            # query j keeps the features whose bit is set in j, in every
            # child at once, so j is the union of the children's codes
            code = np.bitwise_or.reduce((keep @ circuit.bits).astype(np.intp), axis=1)
            sizes = 2 ** np.count_nonzero(circuit.bits, axis=0)
            out[np.broadcast_to(code >= sizes[:, None], out.shape)] = np.nan
            passes.append((len(np.unique(code)), out.shape[1]))
        return out

    monkeypatch.setattr(model_module._Circuit, "masked_log_density", poisoned)
    return passes


def read(table: TableMarginals, keep: np.ndarray, counter: EvalCounter | None = None):
    """The table's log-densities of its rows under the one mask `keep`."""
    return table._read(keep[None], counter)[0]


class TestSubsetTables:
    """A `TableMarginals` store of a root product's subset values, filled by
    the circuit's own masked passes, against the masked pass or the
    `log_marginal` of each query."""

    @pytest.mark.parametrize("shape", ["planted", "mixed", "wide_children", "uneven"])
    def test_reads_equal_masked_passes_bit_for_bit(self, root_shapes, monkeypatch, shape):
        rng = np.random.default_rng(11)
        m = uneven_product() if shape == "uneven" else root_shapes[shape][0]
        n = m.n_features
        X = random_table(rng, m, 5)
        real = np.array([c.kind == "real" for c in m.schema])
        X[0, np.flatnonzero(real)[:2]] = [1e300, -1e300]  # leaves that read -inf
        # more than 512 masks, so the adds take `_add_slots`' loop too
        masks = rng.random((600, n)) < rng.uniform(0.05, 0.95, (600, 1))
        if n <= 12:
            masks = np.vstack([masks, list(itertools.product([False, True], repeat=n))])
        circuit = model_module._compile(m)
        masked = model_module._Circuit.masked_log_density
        passes = poison_fill_passes(monkeypatch)
        for x in X:
            # a cost rule of 2^n masks keeps a store whenever the root is a product
            table = TableMarginals(m, x[None], 2 ** n)
            leaves = circuit.leaf_log_density(x[None])
            for batch in (masks, masks[:7]):
                want = masked(circuit, leaves, batch)
                assert table._read(batch).tobytes() == want.tobytes()
        assert len(passes) == len(X)  # one fill pass of every code per row

    @pytest.mark.parametrize("rows", ["one", "several codes a pass", "one code a pass",
                                      "more rows than codes"])
    @pytest.mark.parametrize("shape", ["planted", "uneven"])
    def test_fill_passes_of_each_shape_equal_log_marginal(self, root_shapes, monkeypatch,
                                                          shape, rows):
        rng = np.random.default_rng(29)
        m = uneven_product() if shape == "uneven" else root_shapes[shape][0]
        n = m.n_features
        codes = 2 ** max(len(features) for _, _, features in root_children(m))
        count = {"one": 1, "several codes a pass": 3, "one code a pass": codes,
                 "more rows than codes": codes + 5}[rows]
        X = random_table(rng, m, count)
        real = np.array([c.kind == "real" for c in m.schema])
        X[0, np.flatnonzero(real)[:2]] = [1e300, -1e300]
        masks = rng.random((200, n)) < rng.uniform(0.05, 0.95, (200, 1))
        masks[np.arange(200), rng.integers(0, n, 200)] = True
        if n <= 12:
            masks = np.vstack([masks, list(itertools.product([False, True], repeat=n))[1:]])
        passes = poison_fill_passes(monkeypatch)
        table = TableMarginals(m, X, 2 ** n)
        for keep in masks:
            want = log_marginal(m, X, keep)
            assert read(table, keep).tobytes() == np.atleast_1d(want).tobytes()
        # passes of about max(2^W, rows) queries: several codes over several
        # rows tile the leaf values, one code broadcasts its mask
        per = max(1, codes // count)
        assert passes == [(min(per, codes - lo), min(per, codes - lo) * count)
                          for lo in range(0, codes, per)]
        assert count == 1 or count >= codes or 1 < per < codes

    def test_a_sum_root_has_no_tables(self, root_shapes):
        assert model_module._compile(root_shapes["sum_root"][0]).bits is None

    def test_fill_counts_node_evaluations_and_reads_count_queries(self):
        # the first read fills the store: 2^W × rows × (nodes) node
        # evaluations and no query for the fill; each read then counts one
        # query per mask and row and no node evaluation
        m = uneven_product()
        n = m.n_features
        table = TableMarginals(m, np.zeros((1, n)), 2 ** n)
        counter = EvalCounter()
        table._read(np.eye(n, dtype=bool), counter)
        assert (counter.queries, counter.node_evals) == (n, 2 ** 3 * len(m.nodes))
        table._read(np.eye(n, dtype=bool), counter)
        assert (counter.queries, counter.node_evals) == (2 * n, 2 ** 3 * len(m.nodes))
        table = TableMarginals(m, np.zeros((5, n)), 2 ** n)
        counter = EvalCounter()
        for keep in np.eye(n, dtype=bool):
            read(table, keep, counter)
        assert (counter.queries, counter.node_evals) == (5 * n, 2 ** 3 * 5 * len(m.nodes))
        assert table._store.shape == (2 ** 3 + 2 + 2 ** 2, 5)


def off_one_weights(rng, model: SpnModel) -> SpnModel:
    """The model with each sum node's weights scaled to add up to 1 within
    1e-9 but not exactly, so a fully marginalized sum is not log(1) = 0."""
    nodes = [SumNode(node.children, tuple(w * (1.0 + rng.uniform(-9e-10, 9e-10))
                                          for w in node.weights))
             if isinstance(node, SumNode) else node for node in model.nodes]
    return SpnModel(nodes, model.root, model.schema)


def keeps_a_store(model: SpnModel, masks: int) -> bool:
    """Whether a table of the model told of `masks` masks keeps a store: a
    root product whose widest child of W features has 2^W < masks."""
    widths = [len(features) for _, _, features in root_children(model)]
    return isinstance(model.nodes[model.root], ProductNode) and 2 ** max(widths) < masks


class TestTableMarginals:
    """Marginals of one table, from its store of per-child subset values
    or from a masked pass per read, against a full pass per subspace."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 1e300 inputs
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6),
           builder=st.sampled_from(["mixed", "gaussian", "planted20"]),
           rows=st.sampled_from([1, 2, 7, 60, 700]))
    def test_memoized_stats_equal_full_passes(self, planted20, seed, builder, rows):
        rng = np.random.default_rng(seed)
        # the learned model's root product has more than two children, so
        # their order shows in the sum, and sums below them
        m = off_one_weights(rng, random_mixed_model(rng) if builder == "mixed"
                            else planted20[1] if builder == "planted20"
                            else random_gaussian_model(rng, int(rng.integers(1, 12))))
        assert validate(m) == []
        n = m.n_features
        X = random_table(rng, m, rows)
        real = np.array([c.kind == "real" for c in m.schema])
        extreme = (rng.random(X.shape) < 0.05) & real
        # the table keeps the row rule, so its extreme cells are finite: a
        # cell of ±1e300 still gives -inf densities and NaN z-scores
        X[extreme] = rng.choice([1e300, -1e300], int(extreme.sum()))
        # random masks, the full set, every singleton and a backward-style
        # chain that drops one feature at a time from the full set: root
        # children inside S, outside S and straddling it
        masks = rng.random((12, n)) < rng.uniform(0.2, 0.8)
        masks[np.arange(12), rng.integers(0, n, 12)] = True
        chain = ~np.tri(n - 1, n, dtype=bool)[:, rng.permutation(n)]
        masks = np.vstack([masks, np.ones((1, n), dtype=bool), np.eye(n, dtype=bool),
                           chain])
        table = TableMarginals(m, X)
        # each counted call repeats the mask asked just before it: it
        # evaluates no node when the table keeps a store (filled by the
        # first, uncounted read), and one pass otherwise
        for _ in range(2):
            counter = EvalCounter()
            for keep in masks:
                want = log_marginal(m, X, keep)
                assert np.array_equal(read(table, keep), want, equal_nan=True)
                stats = subspace_score_stats(table, tuple(np.flatnonzero(keep)),
                                             counter)
                assert np.array_equal([stats.mean, stats.std],
                                      [(-want).mean(), (-want).std()], equal_nan=True)
            assert counter.queries == rows * len(masks)
        assert counter.node_evals == (0 if keeps_a_store(m, n)
                                      else len(m.nodes) * rows * len(masks))

    @pytest.mark.parametrize("builder", ["planted20", "mixed"])
    def test_node_evals_count_the_fill_once(self, planted20, rng, builder):
        # a table that keeps a store fills all of it on its first read and
        # counts it there; a table without one counts a pass per read
        m = planted20[1] if builder == "planted20" else random_mixed_model(rng, 6)
        n = m.n_features
        X = random_table(rng, m, 40)
        masks = rng.random((20, n)) < rng.uniform(0.2, 0.8, (20, 1))
        masks[:, 0] = True
        width = max(len(features) for _, _, features in root_children(m))
        for asked in (n, 2 ** n):
            table = TableMarginals(m, X, asked)
            stored = keeps_a_store(m, asked)
            for i, keep in enumerate(np.vstack([masks, masks[::-1],
                                                np.ones((1, n), dtype=bool)])):
                want = (len(m.nodes) * len(X) * (2 ** width if i == 0 else 0)
                        if stored else len(m.nodes) * len(X))
                counter = EvalCounter()
                read(table, keep, counter)
                assert (counter.queries, counter.node_evals) == (len(X), want)

    @pytest.mark.parametrize("shape", ["planted", "mixed", "sum_root", "wide_children"])
    def test_construction_evaluates_no_node(self, root_shapes, shape):
        # the store, when the table keeps one, is filled by the first query,
        # and counted there
        m, X, _ = root_shapes[shape]
        table = TableMarginals(m, X)
        counter = EvalCounter()
        got = read(table, np.ones(m.n_features, dtype=bool), counter)
        width = max(len(features) for _, _, features in root_children(m))
        fill = 2 ** width if keeps_a_store(m, m.n_features) else 1
        assert (counter.queries, counter.node_evals) == (len(X),
                                                        fill * len(m.nodes) * len(X))
        assert np.array_equal(got, eval_log_density(m, X))
        assert keeps_a_store(m, m.n_features) == (shape == "planted")

    @pytest.mark.parametrize("shape", ["planted", "sum_root", "wide_children"])
    def test_store_holds_at_most_its_entries(self, root_shapes, rng, shape):
        # a table asked many masks keeps at most Σ 2^k × rows floats beyond
        # its leaf values (and the store's header and offsets), and nothing
        # that grows with the masks without a store
        m, X, _ = root_shapes[shape]
        n = m.n_features
        masks = rng.random((300, n)) < rng.uniform(0.1, 0.9, (300, 1))
        masks[:, 0] = True
        log_marginal(m, X[:2], masks[0])  # the model's own circuit is compiled
        tracemalloc.start()
        try:
            table = TableMarginals(m, X, len(masks))
            before = tracemalloc.get_traced_memory()[0]
            for keep in masks:
                read(table, keep)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        entries = (sum(2 ** len(features) for _, _, features in root_children(m))
                   if keeps_a_store(m, len(masks)) else 0)
        assert (entries > 0) == (shape == "planted")
        assert kept <= entries * len(X) * 8 + 4096

    def test_wide_product_of_one_row_sums_in_child_order(self, rng):
        # numpy would sum a one-row (30, 1) stack pairwise, not in order
        n = 30
        m = SpnModel([GaussianLeaf(j, float(rng.normal()), float(rng.uniform(0.5, 2)))
                      for j in range(n)] + [ProductNode(tuple(range(n)))], n,
                     [Column(f"g{j}", "real") for j in range(n)])
        X = rng.normal(0.0, 3.0, size=(1, n))
        table = TableMarginals(m, X)
        for keep in rng.random((50, n)) < 0.7:
            assert np.array_equal(read(table, keep), log_marginal(m, X, keep))

    def test_child_wider_than_an_int64_code_reads_by_passes(self, rng):
        # 2^68 masks do not fit an int64: the cost rule compares exact
        # integers, so a child of 68 features keeps no store
        n = 70
        m = SpnModel([GaussianLeaf(j, 0.0, 1.0) for j in range(n)]
                     + [ProductNode(tuple(range(68))), ProductNode((70, 68, 69))], 71,
                     [Column(f"g{j}", "real") for j in range(n)])
        X = rng.normal(size=(3, n))
        table = TableMarginals(m, X, 10 ** 9)
        keep = rng.random(n) < 0.5
        keep[0] = True
        counter = EvalCounter()
        assert np.array_equal(read(table, keep, counter), log_marginal(m, X, keep))
        assert counter.node_evals == len(m.nodes) * len(X)

    def test_results_and_masks_do_not_alias_the_table(self, rng):
        for rows in (300, 600):  # both ways `_add_slots` sums
            m = random_gaussian_model(rng, 8)
            X = rng.normal(size=(rows, 8))
            table = TableMarginals(m, X)
            keep = np.array([True, False] * 4)
            got = read(table, keep)
            want = got.copy()
            for other in rng.random((10, 8)) < 0.5:
                if other.any():
                    read(table, other)
            assert np.array_equal(got, want)
            assert np.array_equal(got, log_marginal(m, X, keep))
            # nor does the table keep the caller's mask, which may change
            read(table, keep)
            keep[:2] = ~keep[:2]
            assert np.array_equal(read(table, keep), log_marginal(m, X, keep))

    def test_repeated_and_full_masks_recompute_nothing(self, rng):
        # on a table that keeps a store; without one, each read is a pass
        for m in (uneven_product(), random_mixed_model(rng)):
            n = m.n_features
            X = random_table(rng, m, 50)
            table = TableMarginals(m, X, 2 ** n)
            per_read = 0 if keeps_a_store(m, 2 ** n) else len(m.nodes) * len(X)
            full = np.ones(n, dtype=bool)
            read(table, full)
            for keep in rng.random((10, n)) < 0.5:
                if not keep.any():
                    continue
                read(table, keep)
                counter = EvalCounter()
                read(table, keep, counter)
                assert counter.node_evals == per_read
                got = read(table, full, counter)
                assert counter.node_evals == 2 * per_read
                assert counter.queries == 2 * len(X)
                assert np.array_equal(got, eval_log_density(m, X))

    def test_marginalized_sum_keeps_its_constant(self):
        # the sum over feature 0 adds up to 1 + 9e-10: marginalizing it
        # leaves log(1 + 9e-10), not 0
        m = SpnModel([GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(0, 1.0, 2.0),
                      SumNode((0, 1), (0.5, 0.5 + 9e-10)), GaussianLeaf(1, 0.0, 1.0),
                      ProductNode((2, 3))], 4, REAL2)
        X = np.array([[0.5, -1.0], [2.0, 3.0], [-1.0, 0.25]])
        keep = np.array([False, True])
        got = read(TableMarginals(m, X), keep)
        assert np.array_equal(got, log_marginal(m, X, keep))
        leaf = log_marginal(SpnModel([GaussianLeaf(0, 0.0, 1.0)], 0, REAL2[:1]),
                            X[:, 1:], np.array([True]))
        assert not np.array_equal(got, leaf)

    def test_query_of_wrong_shape_is_named(self, rng):
        m = random_gaussian_model(rng, 5)
        for X in (np.zeros(5), np.zeros((3, 4)), np.zeros((2, 5, 1))):
            want = re.escape(f"table has shape {X.shape}, expected (rows, 5)")
            with pytest.raises(ValueError, match=want):
                TableMarginals(m, X)
            if X.ndim > 1:
                want = re.escape(f"query has shape {X.shape}, expected (5,) or (rows, 5)")
                with pytest.raises(ValueError, match=want):
                    eval_log_density(m, X)

    def test_missing_values_and_bad_masks_raise_like_log_marginal(self, rng):
        # a NaN or infinite cell breaks the row rule when the table is built;
        # only the mask marginalizes
        m = random_gaussian_model(rng, 3)
        X = np.array([[0.0, 0.5, 1.0], [-1.0, 1.5, 2.0]])
        for bad, shown in ((np.nan, "NaN"), (np.inf, "inf"), (-np.inf, "-inf")):
            Y = X.copy()
            Y[1, 1] = bad
            with pytest.raises(ValueError, match=re.escape(
                    f"row 1 value {shown} of feature 1 (column 'g1') is not finite")):
                TableMarginals(m, Y)
        table = TableMarginals(m, X)
        with pytest.raises(ValueError, match="marginalizes every feature"):
            log_marginal(m, X, np.zeros(3, dtype=bool))
        with pytest.raises(ValueError, match="boolean"):
            log_marginal(m, X, np.array([1, 0, 1]))
        keep = np.array([True, False, True])
        assert np.array_equal(read(table, keep), log_marginal(m, X, keep))


class TestValidityGate:
    """Only a model that `validate` accepts is compiled and evaluated."""

    A = [Column("a", "real")]
    INVALID = [
        (SpnModel([GaussianLeaf(-1, 0.0, 1.0)], 0, A), "feature -1 out of range"),
        (SpnModel([GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(0, 1.0, 1.0),
                   GaussianLeaf(0, 2.0, 1.0), SumNode((0, 1, 2), (0.5, 0.5))], 3, A),
         "2 weights for 3 children"),
        (SpnModel([GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(0, 1.0, 1.0),
                   SumNode((0, 1), (0.9, 0.9))], 2, A), "not 1"),
        (SpnModel([GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(1, 0.0, 1.0),
                   SumNode((0, 1), (0.5, 0.5))], 2, REAL2), "completeness violated"),
        (SpnModel([ProductNode((1, 2)), GaussianLeaf(0, 0.0, 1.0),
                   GaussianLeaf(1, 0.0, 1.0)], 0, REAL2), "not before parent"),
        (SpnModel([object()], 0, A), "unknown node type object"),
        # the number rule, checked before any check that needs it
        (SpnModel([GaussianLeaf("0", 0.0, 1.0)], 0, A),
         "node 0: feature '0' is not an integer"),
        (SpnModel([GaussianLeaf(0, "x", 1.0)], 0, A), "node 0: mu 'x' is not a number"),
        (SpnModel([GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(1, 0.0, 1.0),
                   ProductNode((0, 1.0))], 2, REAL2),
         "node 2: child id 1.0 is not an integer"),
        (SpnModel([GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(1, 0.0, 1.0),
                   ProductNode((0, 1))], 2.0, REAL2), "root id 2.0 is not an integer"),
        (SpnModel([GaussianLeaf(0, 0.0, 1.0), ProductNode((0,))], True, A),
         "root id True is not an integer"),
        (SpnModel([GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(0, 1.0, 1.0),
                   SumNode((0, 1), ("0.5", 0.5))], 2, A),
         "node 2: weight '0.5' is not a number"),
        (SpnModel([CategoricalLeaf(0, (None, 1.0))], 0,
                  [Column("c", "categorical", ("x", "y"))]),
         "node 0: probability None is not a number"),
        (SpnModel([GaussianLeaf(0, 0.0, 1.0), ProductNode(0)], 1, A),
         "node 1: children 0 is not a sequence"),
        (SpnModel([CategoricalLeaf(0, 0.5)], 0, [Column("c", "categorical", ("x", "y"))]),
         "node 0: probs 0.5 is not a sequence"),
    ]

    @pytest.mark.parametrize("model,issue", INVALID)
    def test_invalid_model_raises_with_validate_issues(self, model, issue):
        issues = validate(model)
        assert any(issue in v for v in issues)
        query = np.zeros(model.n_features)
        for _ in range(2):  # a rejected model is never cached as compiled
            with pytest.raises(ValueError) as exc:
                eval_log_density(model, query)
            assert str(exc.value) == "invalid model: " + "; ".join(issues)
        assert model._circuit is None

    def test_valid_model_compiles_once(self, rng):
        m = random_gaussian_model(rng, 3)
        eval_log_density(m, np.zeros(3))
        circuit = m._circuit
        eval_log_density(m, np.ones((4, 3)))
        assert m._circuit is circuit

    def test_model_cannot_change_after_its_circuit_is_compiled(self):
        # a changed node would otherwise be scored by the circuit compiled
        # before the change: -0.9189 for N(0; 0, 1), not N(0; 5, 1)
        m = SpnModel([GaussianLeaf(0, 0.0, 1.0)], 0, REAL2[:1])
        want = eval_log_density(m, [[0.0]])
        assert isinstance(m.nodes, tuple) and isinstance(m.schema, tuple)
        with pytest.raises(TypeError):
            m.nodes[0] = GaussianLeaf(0, 5.0, 1.0)
        for name, value in (("nodes", [GaussianLeaf(0, 5.0, 1.0)]), ("root", 1),
                            ("schema", [Column("y", "real")])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, name, value)
        assert np.array_equal(eval_log_density(m, [[0.0]]), want)
        assert (m.nodes, m.root, m.schema) == ((GaussianLeaf(0, 0.0, 1.0),), 0,
                                               (Column("a", "real"),))

    def test_loaded_or_learned_model_is_validated_once(self, rng, tmp_path, monkeypatch):
        calls = []

        def counted(model):
            calls.append(model)
            return validate(model)

        monkeypatch.setattr(model_module, "validate", counted)
        path = str(tmp_path / "model.json")
        save_model(random_mixed_model(rng), path)
        loaded = load_model(path)
        assert calls == [loaded]  # validated and compiled on load
        eval_log_density(loaded, random_table(rng, loaded, 5))
        assert calls == [loaded]
        calls.clear()
        X = random_table(rng, loaded, 60)
        learned = learn_spn(Dataset(loaded.schema, X), LearnConfig(seed=0))
        assert calls == [learned]  # validated and compiled on learn
        eval_log_density(learned, X)
        assert calls == [learned]


class TestSerialization:
    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        m = random_gaussian_model(rng, 4)
        path = tmp_path / "model.json"
        save_model(m, str(path))
        m2 = load_model(str(path))
        queries = rng.normal(size=(1000, 4))
        for q in queries[:50]:
            assert eval_log_density(m2, list(q)) == eval_log_density(m, list(q))

    def test_numpy_integer_root_saves_and_loads(self, rng, tmp_path):
        m = random_gaussian_model(rng, 4)
        m = SpnModel(m.nodes, np.int64(m.root), m.schema)
        path = str(tmp_path / "model.json")
        save_model(m, path)
        loaded = load_model(path)
        X = rng.normal(size=(20, 4))
        assert loaded.root == m.root
        assert np.array_equal(eval_log_density(loaded, X), eval_log_density(m, X))

    def test_weights_renormalized_within_tolerance(self):
        doc = to_dict(SpnModel(
            [GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(0, 1.0, 1.0),
             SumNode((0, 1), (0.5, 0.5))], 2, [Column("a", "real")]))
        doc["nodes"][2]["weights"] = [0.5, 0.5 + 5e-7]
        m = from_dict(doc)
        w = m.nodes[2].weights
        assert sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_weights_beyond_tolerance_rejected(self):
        doc = to_dict(SpnModel(
            [GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(0, 1.0, 1.0),
             SumNode((0, 1), (0.5, 0.5))], 2, [Column("a", "real")]))
        doc["nodes"][2]["weights"] = [0.5, 0.6]
        with pytest.raises(ModelFormatError) as exc:
            from_dict(doc)
        assert str(exc.value) == "invalid model: node 2: weights sum to 1.1, not 1"

    def test_probs_renormalized_within_tolerance(self):
        doc = to_dict(SpnModel([CategoricalLeaf(0, (0.25, 0.75))], 0,
                               [Column("c", "categorical", ("x", "y"))]))
        doc["nodes"][0]["probs"] = near = [0.25, 0.75 + 5e-7]
        probs = from_dict(doc).nodes[0].probs
        assert probs == (near[0] / sum(near), near[1] / sum(near))
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    ALL_TYPES = ('{"version": 1, "schema": [{"name": "a", "kind": "real"}, '
                 '{"name": "c", "kind": "categorical", "categories": ["x", "y"]}], '
                 '"root": 4, "nodes": ['
                 '{"id": 0, "type": "gaussian", "feature": 0, "mu": 0.25, "sigma": 1.5}, '
                 '{"id": 1, "type": "gaussian", "feature": 0, "mu": -1.0, "sigma": 0.5}, '
                 '{"id": 2, "type": "sum", "children": [0, 1], "weights": [0.375, 0.625]}, '
                 '{"id": 3, "type": "categorical", "feature": 1, "probs": [0.125, 0.875]}, '
                 '{"id": 4, "type": "product", "children": [2, 3]}]}\n')

    @staticmethod
    def all_types(i, f):
        """A model of every node type, its integers of type i, its numbers of type f."""
        return SpnModel(
            [GaussianLeaf(i(0), f(0.25), f(1.5)), GaussianLeaf(i(0), f(-1.0), f(0.5)),
             SumNode((i(0), i(1)), (f(0.375), f(0.625))),
             CategoricalLeaf(i(1), (f(0.125), f(0.875))), ProductNode((i(2), i(3)))],
            i(4), [Column("a", "real"), Column("c", "categorical", ("x", "y"))])

    def test_numpy_scalars_save_as_python_scalars(self, tmp_path):
        python = self.all_types(int, float)
        for i, f in ((int, float), (np.int64, np.float32), (np.int32, np.float64)):
            path = tmp_path / "model.json"
            save_model(self.all_types(i, f), str(path))
            assert path.read_text() == self.ALL_TYPES
            loaded = load_model(str(path))
            assert loaded.nodes == python.nodes and loaded.root == 4
            assert loaded.schema == python.schema

    def test_byte_order_mark_model_file_loads(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xef\xbb\xbf" + self.ALL_TYPES.encode())
        assert load_model(str(path)).nodes == self.all_types(int, float).nodes

    def test_loaded_fields_have_python_types(self):
        doc = json.loads(self.ALL_TYPES)
        doc["nodes"][0].update(mu=1, sigma=2)  # numbers written as integers
        for node in from_dict(doc).nodes:
            for name, value in vars(node).items():
                kind = int if name in ("feature", "children") else float
                for v in value if isinstance(value, tuple) else (value,):
                    assert type(v) is kind, (node, name)

    def test_id_mismatch_names_offending_node(self):
        doc = to_dict(std_normal_leaf())
        doc["nodes"][0]["id"] = 3
        with pytest.raises(ModelFormatError, match="nodes\\[0\\]"):
            from_dict(doc)

    def test_unsupported_version_rejected(self):
        doc = to_dict(std_normal_leaf())
        doc["version"] = 99
        with pytest.raises(ModelFormatError, match="version"):
            from_dict(doc)

    @pytest.mark.parametrize("field,value", [
        ("version", True), ("version", 1.0),
        ("id", True), ("id", 0.0), ("id", 2.0)])
    def test_version_and_ids_must_be_integers(self, field, value):
        # True == 1 and 2.0 == 2, so only the type check rejects these
        model = SpnModel([GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(0, 1.0, 1.0),
                          SumNode((0, 1), (0.5, 0.5))], 2, [Column("a", "real")])
        doc = to_dict(model)
        if field == "version":
            doc["version"], where = value, "document"
        else:
            node = 1 if value is True else int(value)
            doc["nodes"][node]["id"], where = value, rf"nodes\[{node}\]"
        with pytest.raises(ModelFormatError,
                           match=f"{where}: field '{field}' must be of type int"):
            from_dict(doc)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1,\n "schema": [}\n')
        with pytest.raises(ModelFormatError, match=":2:"):
            load_model(str(path))

    def test_structurally_invalid_document_rejected(self):
        doc = {"version": 1, "schema": [{"name": "a", "kind": "real"}],
               "root": 0,
               "nodes": [{"id": 0, "type": "gaussian", "feature": 0,
                          "mu": 0.0, "sigma": -2.0}]}
        with pytest.raises(ModelFormatError, match="sigma"):
            from_dict(doc)

    def test_malformed_fields_name_the_offending_entry(self):
        model = SpnModel(
            [GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(0, 1.0, 1.0),
             SumNode((0, 1), (0.5, 0.5)), GaussianLeaf(1, 0.0, 1.0),
             ProductNode((2, 3))], 4, REAL2)
        cases = [
            (lambda d: d["schema"].__setitem__(0, {"name": "a", "kind": "categorical"}),
             r"schema\[0\]"),
            (lambda d: d.__setitem__("schema", 5), "schema"),
            (lambda d: d["nodes"][2].__setitem__("children", 5), r"nodes\[2\]"),
            (lambda d: d["nodes"][4].__setitem__("children", 5), r"nodes\[4\]"),
            (lambda d: d["nodes"][3].__setitem__("feature", "a"), r"nodes\[3\]"),
            (lambda d: d["nodes"][1].__setitem__("mu", "x"), r"nodes\[1\]"),
            (lambda d: d["nodes"][3].__setitem__("feature", True), r"nodes\[3\]"),
            (lambda d: d["nodes"][4].__setitem__("children", [2, True]), r"nodes\[4\]"),
            (lambda d: d["nodes"][1].__setitem__("sigma", True), r"nodes\[1\]"),
            (lambda d: d.__setitem__("root", True), "document"),
        ]
        for corrupt, where in cases:
            doc = to_dict(model)
            corrupt(doc)
            with pytest.raises(ModelFormatError, match=where):
                from_dict(doc)


def _set_node(node, field, value):
    return lambda doc: doc["nodes"][node].__setitem__(field, value)


# the values that no number field admits, and each number field's values
# outside its range; a number field without an entry fails collection
NOT_FINITE = {"nan": float("nan"), "inf": math.inf, "-inf": -math.inf,
              "10**400": 10**400, "-10**400": -10**400}
OUT_OF_RANGE = {"weights": (0.0, -0.5, 1.5), "probs": (0.0, -0.25, 1.5),
                "mu": (), "sigma": (0.0, -1.0)}
NUMBER_FIELDS = [(cls, name, item) for cls, (_, fields) in model_module._NODE_FIELDS.items()
                 for name, kind, item, _ in fields if kind is NUMBER]


class TestModelFileRejections:
    """Each structural check on a model file, reached through `load_model`."""

    MODEL = SpnModel(
        [GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(0, 1.0, 1.0),
         SumNode((0, 1), (0.5, 0.5)), CategoricalLeaf(1, (0.25, 0.75)),
         ProductNode((2, 3))], 4,
        [Column("a", "real"), Column("c", "categorical", ("x", "y"))])

    CASES = [
        (lambda d: d.__setitem__("nodes", []), "invalid model: model has no nodes"),
        (lambda d: d.__setitem__("root", 7), "root id 7 out of range"),
        (_set_node(4, "children", []), "node 4: no children"),
        (_set_node(4, "children", [2, 9]), "node 4: child id 9 out of range"),
        (_set_node(2, "weights", [1.5, -0.5]), "node 2: weight 1.5 outside (0,1]"),
        (_set_node(0, "feature", 1), "node 0: gaussian leaf on non-real column"),
        (_set_node(1, "mu", float("nan")), "node 1: mu nan not finite"),
        (_set_node(3, "feature", 2), "node 3: feature 2 out of range"),
        (_set_node(3, "feature", 0), "node 3: categorical leaf on non-categorical column"),
        (_set_node(3, "probs", [0.2, 0.3, 0.5]), "node 3: 3 probs for 2 categories"),
        (_set_node(3, "probs", [0.0, 1.0]), "node 3: probability 0.0 outside (0,1]"),
        (_set_node(3, "probs", [float("nan"), 1.0]), "node 3: probability nan outside (0,1]"),
        (_set_node(1, "mu", 10**400), "node 1: mu inf not finite"),
        (_set_node(2, "weights", [10**400, 0.5]), "node 2: weight inf outside (0,1]"),
        (_set_node(3, "probs", [0.5, 0.6]), "node 3: probs sum to"),
        (_set_node(3, "type", "bernoulli"), "nodes[3]: unknown node type 'bernoulli'"),
    ]

    def test_base_document_loads(self, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(self.MODEL, path)
        assert validate(load_model(path)) == []

    @pytest.mark.parametrize("corrupt,issue", CASES, ids=[c[1] for c in CASES])
    def test_load_rejects(self, tmp_path, corrupt, issue):
        doc = to_dict(self.MODEL)
        corrupt(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # a NaN is written as NaN, which json reads
        with pytest.raises(ModelFormatError) as exc:
            load_model(str(path))
        assert issue in str(exc.value)

    @pytest.mark.parametrize("cls,name,item,bad", [
        pytest.param(cls, name, item, bad, id=f"{name}={shown}")
        for cls, name, item in NUMBER_FIELDS
        for shown, bad in [*NOT_FINITE.items(), *((repr(v), v) for v in OUT_OF_RANGE[name])]])
    def test_number_field_rule_names_node_and_field(self, tmp_path, cls, name, item, bad):
        i = next(i for i, nd in enumerate(self.MODEL.nodes) if type(nd) is cls)
        value = getattr(self.MODEL.nodes[i], name)
        value = bad if item is None else (bad,) + value[1:]
        nodes = list(self.MODEL.nodes)
        nodes[i] = dataclasses.replace(nodes[i], **{name: value})
        named = f"node {i}: {item or name} "
        assert any(issue.startswith(named) for issue in
                   validate(SpnModel(nodes, self.MODEL.root, self.MODEL.schema)))
        doc = to_dict(self.MODEL)
        doc["nodes"][i][name] = bad if item is None else list(value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=re.escape(f"invalid model: {named}")):
            load_model(str(path))

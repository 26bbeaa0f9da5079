"""Shared random-model builders and independent evaluation oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from spnexplain.data import Column
from spnexplain.model import (LOG_2PI, CategoricalLeaf, GaussianLeaf, ProductNode,
                              SpnModel, SumNode)


def _random_probs(rng: np.random.Generator, k: int) -> tuple[float, ...]:
    p = rng.uniform(0.1, 1.0, size=k)
    p /= p.sum()
    return tuple(float(v) for v in p)


def _random_sum_product(rng: np.random.Generator, schema: list[Column], leaf,
                        max_depth: int) -> SpnModel:
    """Random smooth, decomposable circuit over `schema`; `leaf(feature)`
    draws one leaf node for a feature."""
    nodes = []

    def add(node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def build(scope: list[int], depth: int) -> int:
        if len(scope) == 1:
            return add(leaf(scope[0]))
        if depth >= max_depth or rng.random() < 0.2:
            ids = tuple(add(leaf(f)) for f in scope)
            return add(ProductNode(ids))
        if rng.random() < 0.5:
            k = int(rng.integers(2, 4))
            ids = tuple(build(scope, depth + 1) for _ in range(k))
            return add(SumNode(ids, _random_probs(rng, k)))
        perm = list(rng.permutation(scope))
        cut = int(rng.integers(1, len(scope)))
        ids = (build(sorted(perm[:cut]), depth + 1),
               build(sorted(perm[cut:]), depth + 1))
        return add(ProductNode(ids))

    root = build(list(range(len(schema))), 0)
    return SpnModel(nodes, root, schema)


def random_categorical_model(rng: np.random.Generator, max_features: int = 4,
                             max_cats: int = 4, max_depth: int = 4) -> SpnModel:
    n = int(rng.integers(1, max_features + 1))
    cats = [int(rng.integers(2, max_cats + 1)) for _ in range(n)]
    schema = [Column(f"c{j}", "categorical",
                     tuple(str(v) for v in range(cats[j]))) for j in range(n)]
    return _random_sum_product(
        rng, schema, lambda f: CategoricalLeaf(f, _random_probs(rng, cats[f])),
        max_depth)


def random_mixed_model(rng: np.random.Generator, max_features: int = 4,
                       max_cats: int = 4, max_depth: int = 4) -> SpnModel:
    """Like random_categorical_model, but each feature is real (Gaussian
    leaves) or categorical at random."""
    n = int(rng.integers(1, max_features + 1))
    cats = [int(rng.integers(2, max_cats + 1)) if rng.random() < 0.5 else 0
            for _ in range(n)]
    schema = [Column(f"c{j}", "categorical", tuple(str(v) for v in range(cats[j])))
              if cats[j] else Column(f"g{j}", "real") for j in range(n)]

    def leaf(f: int):
        if cats[f]:
            return CategoricalLeaf(f, _random_probs(rng, cats[f]))
        return GaussianLeaf(f, float(rng.uniform(-3, 3)), float(rng.uniform(0.3, 2.0)))

    return _random_sum_product(rng, schema, leaf, max_depth)


def random_gaussian_model(rng: np.random.Generator, n_features: int,
                          max_depth: int = 3) -> SpnModel:
    schema = [Column(f"g{j}", "real") for j in range(n_features)]
    nodes = []

    def leaf(feature: int) -> int:
        nodes.append(GaussianLeaf(feature, float(rng.uniform(-3, 3)),
                                  float(rng.uniform(0.3, 2.0))))
        return len(nodes) - 1

    def build(scope: list[int], depth: int) -> int:
        if len(scope) == 1:
            if depth < max_depth and rng.random() < 0.4:
                k = int(rng.integers(2, 4))
                ids = tuple(leaf(scope[0]) for _ in range(k))
                nodes.append(SumNode(ids, _random_probs(rng, k)))
                return len(nodes) - 1
            return leaf(scope[0])
        if depth >= max_depth:
            ids = tuple(leaf(f) for f in scope)
            nodes.append(ProductNode(ids))
            return len(nodes) - 1
        if rng.random() < 0.5:
            k = int(rng.integers(2, 4))
            ids = tuple(build(scope, depth + 1) for _ in range(k))
            nodes.append(SumNode(ids, _random_probs(rng, k)))
        else:
            perm = list(rng.permutation(scope))
            cut = int(rng.integers(1, len(scope)))
            ids = (build(sorted(perm[:cut]), depth + 1),
                   build(sorted(perm[cut:]), depth + 1))
            nodes.append(ProductNode(ids))
        return len(nodes) - 1

    root = build(list(range(n_features)), 0)
    return SpnModel(nodes, root, schema)


# --- independent oracles --------------------------------------------------

def direct_prob(model: SpnModel, node_id: int, x) -> float:
    """Linear-domain recursive evaluation from the node definitions;
    deliberately separate from the arena forward pass under test."""
    node = model.nodes[node_id]
    if isinstance(node, CategoricalLeaf):
        return node.probs[int(x[node.feature])]
    if isinstance(node, GaussianLeaf):
        z = (x[node.feature] - node.mu) / node.sigma
        return math.exp(-0.5 * z * z) / (node.sigma * math.sqrt(2 * math.pi))
    if isinstance(node, ProductNode):
        p = 1.0
        for c in node.children:
            p *= direct_prob(model, c, x)
        return p
    return sum(w * direct_prob(model, c, x)
               for w, c in zip(node.weights, node.children))


def reference_log_density(model: SpnModel, queries) -> np.ndarray:
    """The arena walked node by node, one numpy step per node, with scipy's
    logsumexp at sum nodes: the oracle that the compiled evaluator must
    match bit for bit. `queries` is (batch, n), NaN = marginalized. numpy
    sums a (k, 1) stack pairwise once k >= 8, so for a single row and a
    node of 8 or more children this can differ from a batched pass in the
    last ulp; compare batches of two or more rows."""
    q = np.asarray(queries, dtype=np.float64)
    batch = q.shape[0]
    vals = np.empty((len(model.nodes), batch))
    for i, node in enumerate(model.nodes):
        if isinstance(node, GaussianLeaf):
            x = q[:, node.feature]
            obs = ~np.isnan(x)
            z = (np.where(obs, x, node.mu) - node.mu) / node.sigma
            lp = -0.5 * z * z - math.log(node.sigma) - 0.5 * LOG_2PI
            vals[i] = np.where(obs, lp, 0.0)
        elif isinstance(node, CategoricalLeaf):
            x = q[:, node.feature]
            obs = ~np.isnan(x)
            idx = np.where(obs, x, 0.0).astype(np.intp)
            lp = np.log(np.asarray(node.probs))[idx]
            vals[i] = np.where(obs, lp, 0.0)
        elif isinstance(node, ProductNode):
            vals[i] = vals[list(node.children)].sum(axis=0)
        else:
            stacked = vals[list(node.children)] + np.log(
                np.asarray(node.weights))[:, None]
            vals[i] = logsumexp(stacked, axis=0)
    return vals[model.root]


def all_assignments(model: SpnModel):
    return itertools.product(*[range(len(c.categories)) for c in model.schema])


def brute_force_marginal(model: SpnModel, partial: dict[int, float]) -> float:
    """Sum of the joint density over all categorical completions of a
    partial assignment; every real feature must be observed."""
    free = [j for j in range(model.n_features) if j not in partial]
    if any(model.schema[j].kind == "real" for j in free):
        raise ValueError("brute_force_marginal cannot integrate out a real feature")
    total = 0.0
    for combo in itertools.product(*[range(len(model.schema[j].categories))
                                     for j in free]):
        x = [0] * model.n_features
        for j, v in partial.items():
            x[j] = v
        for j, v in zip(free, combo):
            x[j] = v
        total += direct_prob(model, model.root, x)
    return total


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

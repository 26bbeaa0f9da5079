"""Shared random-model builders and independent evaluation oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from spnexplain.data import Column
from spnexplain.explain import ExplanationTrace, SizeBest, elbow_select
from spnexplain.learn import RDC_CHUNK, RDC_RIDGE
from spnexplain.model import (LOG_2PI, CategoricalLeaf, EvalCounter, GaussianLeaf,
                              ProductNode, SpnModel, SumNode, log_marginal)


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


def log_marginal_subspace(model: SpnModel, x, subspace,
                          counter: EvalCounter | None = None) -> float:
    """log p(x_D) for the projection of a full sample onto a feature subset
    given as indices: the stepwise form of `log_marginal` that the search
    oracles and the explanation-file checks use."""
    sub = sorted(set(int(d) for d in subspace))
    if not sub:
        raise ValueError("subspace is empty")
    if sub[0] < 0 or sub[-1] >= model.n_features:
        raise ValueError(f"subspace {sub} outside schema of {model.n_features} features")
    keep = np.isin(np.arange(model.n_features), sub)
    return float(log_marginal(model, x, keep, counter))


def greedy_backward_oracle(model, x, counter=None):
    """Independent stepwise reference for backward elimination."""
    current = tuple(range(model.n_features))
    out = []
    while len(current) > 1:
        scored = [(log_marginal_subspace(model, x, tuple(d for d in current
                                                         if d != drop), counter), drop)
                  for drop in current]
        lp, drop = min(scored)  # ties: lowest dropped index
        current = tuple(d for d in current if d != drop)
        out.append((current, lp))
    return list(reversed(out))


def reference_forward_beam_search(model: SpnModel, x, max_size: int, beam_width: int,
                                  counter: EvalCounter | None = None) -> list[SizeBest]:
    """Forward beam search over sorted index tuples, with Python sets for
    deduplication and a (log-density, subspace) sort key: the oracle that
    the mask-matrix search must match, queries included."""
    n = model.n_features
    x = np.asarray(x, dtype=np.float64)
    candidates = [(d,) for d in range(n)]
    results = []
    for k in range(1, max_size + 1):
        if k > 1:
            seen = set()
            for hyp in beam:
                for d in range(n):
                    if d not in hyp:
                        seen.add(tuple(sorted(hyp + (d,))))
            candidates = sorted(seen)
        keep = np.zeros((len(candidates), n), dtype=bool)
        np.put_along_axis(keep, np.array(candidates), True, axis=1)
        logps = log_marginal(model, x, keep, counter)
        order = sorted(range(len(candidates)),
                       key=lambda i: (logps[i], candidates[i]))
        beam = [candidates[i] for i in order[:beam_width]]
        best = order[0]
        results.append(SizeBest(k, candidates[best], float(logps[best])))
    return results


def reference_zscore_select(model: SpnModel, per_size: list[SizeBest], X,
                            counter: EvalCounter | None = None) -> SizeBest:
    """z-score selection with one full pass of the reference table X per
    subspace."""
    best, best_z = None, -math.inf
    for sb in per_size:
        keep = np.isin(np.arange(model.n_features), sb.subspace)
        scores = -log_marginal(model, X, keep, counter)
        mean, std = float(scores.mean()), float(scores.std())
        z = 0.0 if std == 0.0 else (-sb.log_density - mean) / std
        if z > best_z:
            best, best_z = sb, z
    return best


def reference_explain(model: SpnModel, x, config, X) -> ExplanationTrace:
    """`explain` built from the reference search and selection above."""
    counter = EvalCounter()
    n = model.n_features
    if config.strategy == "forward":
        per_size = reference_forward_beam_search(
            model, x, min(config.max_depth or n, n), config.beam_width, counter)
    else:
        per_size = [SizeBest(len(sub), sub, lp)
                    for sub, lp in greedy_backward_oracle(model, x, counter)]
    if config.selection == "elbow":
        chosen = elbow_select(per_size, config.kappa)
    else:
        chosen = reference_zscore_select(model, per_size, X, counter)
    return ExplanationTrace(per_size, chosen.subspace, chosen.size, counter.queries,
                            config.strategy, config.selection)


def reference_canonical_corrs(F: np.ndarray) -> np.ndarray:
    """`_canonical_corrs` as a per-chunk triangular solve and a full SVD of
    each 20x20 cross block: the coefficients the Cholesky-inverse and
    eigvalsh form must reproduce. F is overwritten."""
    c, k, n = F.shape
    F -= F.mean(axis=2, keepdims=True)
    cov = F @ F.transpose(0, 2, 1) / (n - 1) + RDC_RIDGE * np.eye(k)
    chol = np.linalg.cholesky(cov)
    step = max(1, RDC_CHUNK // (k * n))
    for i in range(0, c, step):
        F[i:i + step] = np.linalg.solve(chol[i:i + step], F[i:i + step])
    W = F.reshape(c * k, n)
    rho = np.zeros((c, c))
    step = max(1, RDC_CHUNK // (k * k * c))
    for i in range(0, c, step):
        cross = W[i * k:(i + step) * k] @ W[i * k:].T / (n - 1)
        blocks = cross.reshape(-1, k, c - i, k).transpose(0, 2, 1, 3)
        rho[i:i + step, i:] = np.linalg.svd(blocks, compute_uv=False)[..., 0]
    rho = np.clip(np.triu(rho, 1), 0.0, 1.0)
    return rho + rho.T


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

"""Shared random-model builders, independent evaluation oracles and the
row-by-row CSV codec that the columnar one is checked against."""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import rankdata

from spnexplain.data import Column, Dataset, format_float, read_text
from spnexplain.datagen import GenConfig, generate
from spnexplain.errors import DataError
from spnexplain.explain import ExplanationTrace, SizeBest, elbow_select
from spnexplain.learn import (RDC_CHUNK, RDC_FEATURES, RDC_RIDGE, RDC_SCALE, LearnConfig,
                              learn_spn)
from spnexplain.model import (LOG_2PI, CategoricalLeaf, EvalCounter, GaussianLeaf,
                              ProductNode, SpnModel, SumNode, log_marginal)


def _random_probs(rng: np.random.Generator, k: int) -> tuple[float, ...]:
    p = rng.uniform(0.1, 1.0, size=k)
    p /= p.sum()
    return tuple(float(v) for v in p)


def random_table(rng: np.random.Generator, model: SpnModel, rows: int) -> np.ndarray:
    """Rows of valid values for the model's schema, N(0, 3²) in real columns."""
    return np.array([rng.normal(0.0, 3.0, rows) if c.kind == "real"
                     else rng.integers(0, len(c.categories), rows).astype(float)
                     for c in model.schema]).T


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


def root_children(model: SpnModel) -> list[tuple[int, list[int], list[int]]]:
    """(node id, sorted node ids under it, sorted features under it) of
    each child of the root product, in stored order; a root that is not a
    product is its own one child."""
    root = model.nodes[model.root]
    out = []
    for top in root.children if isinstance(root, ProductNode) else (model.root,):
        under, stack = {top}, [top]
        while stack:
            for c in getattr(model.nodes[stack.pop()], "children", ()):
                if c not in under:
                    under.add(c)
                    stack.append(c)
        features = {model.nodes[i].feature for i in under
                    if isinstance(model.nodes[i], (GaussianLeaf, CategoricalLeaf))}
        out.append((top, sorted(under), sorted(features)))
    return out


def uneven_product() -> SpnModel:
    """A root product over children of unequal widths, in slot order: a
    sum over features (0, 2, 5), the last categorical; a bare leaf on
    feature 3; a sum over features (1, 4). Neither the slot order nor a
    feature's rank in its child's scope follows feature order."""
    schema = ([Column(f"r{j}", "real") for j in range(5)]
              + [Column("c", "categorical", ("a", "b", "c"))])
    nodes = [GaussianLeaf(0, 0.1, 0.8), GaussianLeaf(2, -1.0, 1.5),
             CategoricalLeaf(5, (0.2, 0.3, 0.5)), ProductNode((0, 1, 2)),
             GaussianLeaf(0, 1.0, 0.4), GaussianLeaf(2, 0.5, 0.9),
             CategoricalLeaf(5, (0.6, 0.3, 0.1)), ProductNode((4, 5, 6)),
             SumNode((3, 7), (0.35, 0.65)),
             GaussianLeaf(3, 2.0, 0.5),
             GaussianLeaf(1, 0.0, 1.0), GaussianLeaf(4, 3.0, 2.0), ProductNode((10, 11)),
             GaussianLeaf(1, -0.5, 0.3), GaussianLeaf(4, 1.0, 1.0), ProductNode((13, 14)),
             SumNode((12, 15), (0.5, 0.5)),
             ProductNode((8, 9, 16))]
    return SpnModel(nodes, len(nodes) - 1, schema)


def per_size_optimum(model: SpnModel, X) -> np.ndarray:
    """The exact minimum of log p(x_S) over all subspaces S of each size,
    for each row x of X, as a (rows, n + 1) matrix indexed by size. The
    marginal of the root product is the sum of its children's, so this
    tabulates each child's best value for each count of its features kept
    (every subset, through `reference_log_density`) and combines the
    children by a min-plus convolution over the counts. Exponential in the
    widest child's features only."""
    X = np.asarray(X, dtype=np.float64)
    rows, n = X.shape
    best = np.zeros((rows, 1))  # by count of features kept so far
    for top, _, features in root_children(model):
        k = len(features)
        subsets = np.array(list(itertools.product([False, True], repeat=k)), dtype=bool)
        q = np.full((rows, len(subsets), n), np.nan)
        q[:, :, features] = np.where(subsets, X[:, None, features], np.nan)
        child = SpnModel(model.nodes, top, model.schema)
        values = reference_log_density(child, q.reshape(-1, n)).reshape(rows, -1)
        counts = subsets.sum(axis=1)
        combined = np.full((rows, best.shape[1] + k), np.inf)
        for j in range(k + 1):
            child_best = values[:, counts == j].min(axis=1, keepdims=True)
            combined[:, j:j + best.shape[1]] = np.minimum(
                combined[:, j:j + best.shape[1]], best + child_best)
        best = combined
    return best


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


def reference_rdc_features(X: np.ndarray, seed) -> np.ndarray:
    """`_rdc_features` computed cell by cell as sin(w r / (n + 1) + b) from
    scipy's average ranks r of each column: the values the rank-table
    gather must reproduce."""
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    k = RDC_FEATURES
    w = rng.normal(0.0, 2.0 * math.sqrt(RDC_SCALE) * k, size=k)
    bias = rng.uniform(0.0, 2.0 * math.pi, size=k)
    u = np.stack([rankdata(col) for col in X.T]) / (n + 1)
    return np.sin(u[:, None, :] * w[:, None] + bias[:, None])


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


# --- row-by-row CSV codec --------------------------------------------------

def _reference_parse_real(cell: str) -> float | None:
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def reference_load_csv(path: str, schema: list[Column] | None = None) -> Dataset:
    """`load_csv` decoded row by row and cell by cell: the same schema, values
    and DataError messages, checked in file order."""
    reader = csv.reader(io.StringIO(read_text(path, "data"), newline=""))
    records, starts = [], [1]  # starts[i]: the file line that record i starts on
    try:
        for record in reader:
            records.append(record)
            starts.append(reader.line_num + 1)
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    if not records:
        raise DataError(f"{path}: empty file, expected a header row")
    if not records[0]:  # csv.reader's record of a blank line
        raise DataError(f"{path}:1: blank header row, expected column names")
    header, rows, row_lines = records[0], records[1:], starts[1:-1]
    for lineno, row in zip(row_lines, rows):
        if len(row) != len(header):
            raise DataError(
                f"{path}:{lineno}: ragged row, {len(row)} cells but {len(header)} columns"
            )
        for j, cell in enumerate(row):
            if cell == "":
                raise DataError(
                    f"{path}:{lineno}: missing value in column {header[j]!r} (index {j})"
                )
    if not rows:
        raise DataError(f"{path}: no data rows")
    if schema is not None:
        names = [c.name for c in schema]
        if names != header:
            raise DataError(
                f"{path}: header {header} does not match schema columns {names}"
            )
    columns: list[Column] = []
    values = np.empty((len(rows), len(header)), dtype=np.float64)
    for j, name in enumerate(header):
        cells = [r[j] for r in rows]
        col = schema[j] if schema is not None else None
        parsed = ([_reference_parse_real(c) for c in cells]
                  if col is None or col.kind == "real" else None)
        if col is None:
            col = (Column(name, "real") if None not in parsed
                   else Column(name, "categorical", tuple(dict.fromkeys(cells))))
        if col.kind == "real":
            if None in parsed:
                i = parsed.index(None)
                raise DataError(
                    f"{path}:{row_lines[i]}: column {name!r} declared real "
                    f"but cell {cells[i]!r} is not numeric"
                )
            values[:, j] = parsed
        else:
            index = {c: k for k, c in enumerate(col.categories)}
            codes = [index.get(c) for c in cells]
            if None in codes:
                i = codes.index(None)
                raise DataError(
                    f"{path}:{row_lines[i]}: value {cells[i]!r} not among declared "
                    f"categories of column {name!r}"
                )
            values[:, j] = codes
        columns.append(col)
    return Dataset(columns, values)


def reference_save_csv(dataset: Dataset, path: str) -> None:
    """`save_csv` written row by row and cell by cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in dataset.schema])
        for row in dataset.values:
            writer.writerow([format_float(v) if col.kind == "real"
                             else col.categories[int(v)]
                             for col, v in zip(dataset.schema, row)])


@pytest.fixture(scope="session")
def planted20():
    """The planted n = 20, seed 0 table and the model learned from it."""
    labeled = generate(GenConfig(n_features=20, seed=0))
    return labeled, learn_spn(labeled.dataset, LearnConfig(seed=0))


@pytest.fixture(scope="session")
def planted100():
    """The planted n = 100, seed 0 table and the model learned from it."""
    labeled = generate(GenConfig(n_features=100, seed=0))
    return labeled, learn_spn(labeled.dataset, LearnConfig(seed=0))


@pytest.fixture(scope="session")
def root_shapes(planted20):
    """Learned models of four root shapes, each with its table and five of
    its planted outlier rows: a root product of narrow children (planted
    n = 20), the same over real and categorical leaves (planted n = 12 and
    4 categorical noise columns), a sum root over all 16 features (one
    subspace of all of them) and a root product with children of 11-12
    features (subspaces of 10-12 of 40 features)."""
    def shape(labeled, dataset, model):
        return model, dataset.values, list(labeled.outlier_rows[:5])

    labeled, model = planted20
    shapes = {"planted": shape(labeled, labeled.dataset, model)}
    labeled = generate(GenConfig(n_features=12, seed=0))
    levels = ("a", "b", "c", "d")
    codes = np.random.default_rng(0).integers(0, len(levels), (labeled.dataset.n_rows, 4))
    dataset = Dataset(labeled.dataset.schema + [Column(f"c{j}", "categorical", levels)
                                                for j in range(4)],
                      np.hstack([labeled.dataset.values, codes]))
    shapes["mixed"] = shape(labeled, dataset, learn_spn(dataset, LearnConfig(seed=0)))
    for name, config in (("sum_root", GenConfig(n_features=16, subspace_min=16,
                                                subspace_max=16, seed=0)),
                         ("wide_children", GenConfig(n_features=40, subspace_min=10,
                                                     subspace_max=12, seed=0))):
        labeled = generate(config)
        shapes[name] = shape(labeled, labeled.dataset,
                             learn_spn(labeled.dataset, LearnConfig(seed=0)))
    return shapes


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

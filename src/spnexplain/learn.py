"""LearnSPN-style structure learning for mixed tabular data.

Top-down recursion: try to split columns into independence groups with
the randomized dependence coefficient (product node), otherwise cluster
rows with a 2-component diagonal GMM (sum node weighted by cluster
proportions). A product node's children, which cannot split again, go
straight to the row clustering. Slices below the row threshold are
factorized naively into per-column leaves.

The column split gathers each column's sine features from a table over
the slice's half-integer ranks, and solves the eigenproblem only for the
pairs whose trace bound reaches the threshold squared; the others cannot
reach it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import OPEN_UNIT, Column, Dataset, check_config, check_rows, fold_seed
from .errors import DataError
from .model import (CategoricalLeaf, GaussianLeaf, Node, ProductNode, SpnModel,
                    SumNode, _compile, _logsumexp)

MAX_RECURSION_DEPTH = 64
VAR_FLOOR = 1e-6
RDC_FEATURES = 20        # random sine features per column (k)
RDC_SCALE = 1.0 / 6.0    # projection scale s
RDC_RIDGE = 1e-9         # added to each feature block's covariance
RDC_CHUNK = 1 << 18      # float64 elements per transient RDC buffer (2 MB)
GMM_MAX_ITERS = 100      # EM iterations of the 2-way row split, at most
GMM_TOL = 1e-4           # EM stops when the mean log-likelihood moves less


@dataclass(frozen=True)
class LearnConfig:
    """LearnSPN's settings: `alpha` is the RDC dependence threshold, and a
    slice of fewer than `min_slice_rows` rows (the RDC needs 3) is
    factorized naively."""

    alpha: float = field(default=0.6, metadata={"rule": OPEN_UNIT})
    min_slice_rows: int = field(default=200, metadata={"rule": 3})
    seed: int = 0

    __post_init__ = check_config


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n of a vector, ties sharing the mean of their ranks (the
    'average' method of scipy.stats.rankdata). np.unique gives the tie
    groups in sorted order; a group of c values whose last rank is e shares
    the rank e - (c - 1) / 2, an exact half-integer."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[group]


def _rdc_features(X: np.ndarray, seed) -> np.ndarray:
    """Random sine features of the empirical copula of each column of X
    (rows, columns), as blocks of shape (columns, RDC_FEATURES, rows).
    Every column goes through the same draw of frequencies and phases.
    An average rank is a half-integer in [1, rows], so each feature is
    tabulated once at those 2 rows - 1 values and gathered by rank: the
    same operations on the same doubles as sin(w r/(rows+1) + b) per cell."""
    n, c = X.shape
    rng = np.random.default_rng(seed)
    k = RDC_FEATURES
    # frequency scale 2*sqrt(s)*k: high enough to resolve oscillatory
    # dependence on the unit copula while keeping the null coefficient low
    w = rng.normal(0.0, 2.0 * math.sqrt(RDC_SCALE) * k, size=k)
    bias = rng.uniform(0.0, 2.0 * math.pi, size=k)
    table = (np.arange(2, 2 * n + 1) / 2 / (n + 1)) * w[:, None]
    table += bias[:, None]
    np.sin(table, out=table)
    F = np.empty((c, k, n))
    for j in range(c):  # rank r sits at column 2r - 2 of the table
        at = (2.0 * average_ranks(X[:, j])).astype(np.intp) - 2
        # in range by construction; "clip" writes to out without a buffer
        np.take(table, at, axis=1, out=F[j], mode="clip")
    return F


def _canonical_corrs(F: np.ndarray, at_least: float = 0.0) -> np.ndarray:
    """Largest canonical correlation of every pair of the c feature blocks
    in F (c, k features, n samples), as a symmetric (c, c) matrix with a
    zero diagonal. F is overwritten with the whitened blocks W_c = L_c^-1
    F_c, L_c L_c^T being block c's covariance plus a ridge; a pair's
    coefficient is the top singular value of B = W_a W_b^T / (n - 1), the
    square root of the largest eigenvalue of B^T B.

    A pair whose coefficient is certainly below `at_least` reads 0 instead:
    tr(B^T B), the sum of B's squared entries, bounds that eigenvalue from
    above, so only pairs whose trace reaches at_least^2 go to the
    eigen-solve. The default of 0 computes every pair."""
    c, k, n = F.shape
    F -= F.mean(axis=2, keepdims=True)
    cov = F @ F.transpose(0, 2, 1) / (n - 1) + RDC_RIDGE * np.eye(k)
    inv = np.linalg.inv(np.linalg.cholesky(cov))
    step = max(1, RDC_CHUNK // (k * n))
    for i in range(0, c, step):
        F[i:i + step] = inv[i:i + step] @ F[i:i + step]
    W = F.reshape(c * k, n)
    rho = np.zeros((c, c))
    # the slack keeps a pair whose eigenvalue rounds above its trace
    least = at_least * at_least * (1.0 - 1e-9)
    step = max(1, RDC_CHUNK // (k * k * c))
    for i in range(0, c, step):
        cross = W[i * k:(i + step) * k] @ W[i * k:].T
        cross /= n - 1
        cross = cross.reshape(-1, k, c - i, k)  # [a, :, b, :] is pair (i+a, i+b)
        trace = np.einsum("akbl,akbl->ab", cross, cross)
        a, b = np.nonzero(np.triu(trace >= least, 1))
        if a.size:
            # at most two chunk-sized buffers are alive at once
            blocks = cross[a, :, b, :]
            del cross
            rho[i + a, i + b] = np.linalg.eigvalsh(
                blocks.swapaxes(1, 2) @ blocks)[:, -1]
            del blocks
    rho = np.sqrt(np.clip(rho, 0.0, 1.0))
    return rho + rho.T


def rdc(col_a, col_b, seed) -> float:
    """Randomized dependence coefficient of two numeric columns.

    Rank-transforms each column to empirical copula values, lifts both
    through shared random sine features, and returns the largest
    canonical correlation of the two feature blocks. Sharing the feature
    draws makes the coefficient symmetric in its arguments.
    """
    a = np.asarray(col_a, dtype=np.float64)
    b = np.asarray(col_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"rdc needs equal-length vectors, got {a.shape} and {b.shape}")
    if a.size < 3:
        raise ValueError(f"rdc needs at least 3 samples, got {a.size}")
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("rdc needs samples without NaN values")
    return float(_canonical_corrs(_rdc_features(np.column_stack([a, b]), seed))[0, 1])


def split_columns(X: np.ndarray, rows: np.ndarray, cols: list[int],
                  config: LearnConfig) -> list[list[int]]:
    """Partition columns into dependence groups (connected components of
    the RDC >= alpha graph), sorted by smallest member index. All pairs
    share one feature draw per learn seed."""
    if len(cols) < 2:
        raise ValueError("split_columns needs at least 2 columns")
    F = _rdc_features(X[np.ix_(rows, cols)], (fold_seed(config.seed), 7))
    reach = _canonical_corrs(F, config.alpha) >= config.alpha
    reach |= np.eye(len(cols), dtype=bool)
    for _ in range(len(cols).bit_length()):  # t squarings join paths of 2^t edges
        reach = reach.astype(np.float64) @ reach > 0
    groups = {tuple(np.flatnonzero(row)) for row in reach}
    return sorted(sorted(cols[j] for j in g) for g in groups)


def _gmm_log_resp(Z, means, variances, log_weights):
    # (n, 2) unnormalized log responsibilities under diagonal Gaussians
    ll = -0.5 * (((Z[:, None, :] - means[None]) ** 2) / variances[None]
                 + np.log(2.0 * math.pi * variances[None])).sum(axis=2)
    return ll + log_weights[None]


def cluster_rows(Z: np.ndarray,
                 rng: np.random.Generator) -> tuple[np.ndarray, tuple[float, float]]:
    """2-way row partition via diagonal-covariance GMM-EM on standardized data.

    Returns boolean assignments (True = second cluster) and the two
    cluster proportions. Falls back to a seeded balanced random split
    when a component empties.
    """
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    if n < 2:
        raise ValueError("cluster_rows needs at least 2 rows")
    mu = Z.mean(axis=0)
    sd = Z.std(axis=0)
    sd[sd == 0.0] = 1.0
    Z = (Z - mu) / sd

    assign = None
    first = int(rng.integers(n))
    d0 = ((Z - Z[first]) ** 2).sum(axis=1)
    if d0.sum() > 0.0:
        c2 = Z[rng.choice(n, p=d0 / d0.sum())]
        means = np.stack([Z[first], c2])
        variances = np.maximum(Z.var(axis=0), VAR_FLOOR)[None].repeat(2, axis=0)
        log_weights = np.log(np.array([0.5, 0.5]))
        prev_ll = -np.inf
        for _ in range(GMM_MAX_ITERS):
            lr = _gmm_log_resp(Z, means, variances, log_weights)
            norm = _logsumexp(lr.T)
            resp = np.exp(lr - norm[:, None])
            ll = float(norm.mean())
            nk = resp.sum(axis=0)
            if np.any(nk < 1e-10):
                break
            log_weights = np.log(nk / n)
            means = (resp.T @ Z) / nk[:, None]
            variances = np.maximum(
                (resp.T @ (Z ** 2)) / nk[:, None] - means ** 2, VAR_FLOOR)
            if abs(ll - prev_ll) < GMM_TOL:
                break
            prev_ll = ll
        lr = _gmm_log_resp(Z, means, variances, log_weights)
        hard = lr[:, 1] > lr[:, 0]
        if 0 < hard.sum() < n:
            assign = hard
    if assign is None:
        # degenerate slice: balanced random split
        perm = rng.permutation(n)
        assign = np.zeros(n, dtype=bool)
        assign[perm[n // 2:]] = True
    w1 = float(assign.sum()) / n
    return assign, (1.0 - w1, w1)


def sigma_floor_for(values: np.ndarray) -> float:
    """The smallest leaf sigma of a real column: 1e-6 of its spread. It is
    not finite when the column's mean or spread overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(np.std(values))
    return 1e-6 * (sd if sd != 0.0 else 1.0)


def fit_leaf(values: np.ndarray, column: Column, feature: int,
             sigma_floor: float) -> Node:
    """Maximum-likelihood univariate leaf on the given feature index;
    categorical with add-one smoothing."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError(f"cannot fit a leaf on empty column {column.name!r}")
    if column.kind == "real":
        with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
            mu = float(values.mean())
            sigma = max(float(values.std()), sigma_floor)
        if not (math.isfinite(mu) and math.isfinite(sigma)):
            raise DataError(f"column {column.name!r}: its mean or spread overflows")
        return GaussianLeaf(feature, mu, sigma)
    n_cats = len(column.categories)
    counts = np.bincount(values.astype(np.intp), minlength=n_cats).astype(np.float64)
    probs = (counts + 1.0) / (values.size + n_cats)
    return CategoricalLeaf(feature, tuple(float(p) for p in probs))


def learn_spn(dataset: Dataset, config: LearnConfig) -> SpnModel:
    """Learn SPN structure and parameters; deterministic given config.seed.
    The `dataset` must keep the row rule of `check_rows` (ValueError
    naming the dataset's shape, its lack of rows or columns, or its first
    bad cell), and a real column whose mean or spread overflows raises
    DataError."""
    X = dataset.values
    schema = dataset.schema
    check_rows(X, schema, "dataset")
    floors = [sigma_floor_for(X[:, j]) if c.kind == "real" else 0.0
              for j, c in enumerate(schema)]
    for c, floor in zip(schema, floors):
        if not math.isfinite(floor):
            raise DataError(f"column {c.name!r}: its mean or spread overflows")
    nodes: list[Node] = []

    def add(node: Node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def leaf(rows: np.ndarray, col: int) -> int:
        return add(fit_leaf(X[rows, col], schema[col], col, floors[col]))

    def naive(rows: np.ndarray, cols: list[int]) -> int:
        ids = [leaf(rows, c) for c in cols]
        return ids[0] if len(ids) == 1 else add(ProductNode(tuple(ids)))

    def build(rows: np.ndarray, cols: list[int], depth: int, path: tuple[int, ...],
              may_split: bool = True) -> int:
        if len(cols) == 1:
            return leaf(rows, cols[0])
        if depth >= MAX_RECURSION_DEPTH or len(rows) < config.min_slice_rows:
            return naive(rows, cols)
        groups = split_columns(X, rows, cols, config) if may_split else [cols]
        if len(groups) > 1:
            # a group keeps these rows, so its coefficients are a submatrix of
            # these and it is one connected component of their >= alpha graph:
            # split_columns would return it whole
            ids = [build(rows, g, depth + 1, path + (gi,), may_split=False)
                   for gi, g in enumerate(groups)]
            return add(ProductNode(tuple(ids)))
        rng = np.random.default_rng((fold_seed(config.seed), 11, len(path)) + path)
        assign, weights = cluster_rows(X[np.ix_(rows, cols)], rng)
        ids = [build(rows[~assign], cols, depth + 1, path + (0,)),
               build(rows[assign], cols, depth + 1, path + (1,))]
        return add(SumNode(tuple(ids), weights))

    root = build(np.arange(X.shape[0]), list(range(X.shape[1])), 0, ())
    model = SpnModel(nodes, root, schema)
    _compile(model)  # a learned model always validates
    return model

"""An evaluator of the benchmark's own, and the output checks built on it.

`log_density` walks `model.nodes` recursively for one query at a time in
plain Python floats. It shares no code with the library's evaluator, so a
fast but wrong evaluator shows up as a mismatch on the sampled results.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9
LOG_2PI = math.log(2.0 * math.pi)


def log_density(model, query) -> float:
    """log p(x_D) of one query; NaN entries are marginalized."""
    memo: dict[int, float] = {}

    def value(i: int) -> float:
        if i in memo:
            return memo[i]
        node = model.nodes[i]
        kind = type(node).__name__
        if kind == "GaussianLeaf":
            x = float(query[node.feature])
            z = (x - node.mu) / node.sigma
            v = 0.0 if math.isnan(x) else -0.5 * z * z - math.log(node.sigma) - 0.5 * LOG_2PI
        elif kind == "CategoricalLeaf":
            x = float(query[node.feature])
            v = 0.0 if math.isnan(x) else math.log(node.probs[int(x)])
        elif kind == "ProductNode":
            v = math.fsum(value(c) for c in node.children)
        elif kind == "SumNode":
            terms = [math.log(w) + value(c) for c, w in zip(node.children, node.weights)]
            top = max(terms)
            v = top + math.log(math.fsum(math.exp(t - top) for t in terms))
        else:
            raise ValueError(f"node {i}: unknown node type {kind}")
        memo[i] = v
        return v

    return value(model.root)


def marginal_query(x, features, n_features: int) -> np.ndarray:
    q = np.full(n_features, np.nan)
    idx = list(features)
    q[idx] = np.asarray(x, dtype=np.float64)[idx]
    return q


def mismatch(got: float, want: float) -> str | None:
    if not math.isfinite(got) or abs(got - want) > REL_TOL * max(1.0, abs(want)):
        return f"got {got!r}, reference evaluator gives {want!r}"
    return None


def set_f1(predicted, truth) -> float:
    pred, true = set(predicted), set(truth)
    hits = len(pred & true)
    return 0.0 if hits == 0 else 2.0 * hits / (len(pred) + len(true))


def check_per_size(per_size, n_features: int, nested: bool) -> list[str]:
    """per_size holds (size, subspace) pairs: sizes 1..len in order, each
    subspace sorted, distinct, in range and of its size; with `nested`,
    each subspace lies inside the next one."""
    problems = []
    sizes = [k for k, _ in per_size]
    if sizes != list(range(1, len(per_size) + 1)):
        problems.append(f"per_size sizes {sizes[:5]}... are not 1..{len(per_size)}")
    for k, sub in per_size:
        if list(sub) != sorted(set(sub)) or len(sub) != k or not all(
                0 <= d < n_features for d in sub):
            problems.append(f"size {k}: subspace {list(sub)} is not {k} sorted features")
    if nested:
        for (_, small), (k, big) in zip(per_size, per_size[1:]):
            if not set(small) <= set(big):
                problems.append(f"size {k - 1} subspace is not inside size {k} subspace")
    return problems


def check_log_densities(model, values, cases) -> list[str]:
    """cases: (row, features, log_density reported for x_row on features)."""
    problems = []
    for row, features, got in cases:
        want = log_density(model, marginal_query(values[row], features, model.n_features))
        bad = mismatch(got, want)
        if bad:
            problems.append(f"row {row} on {len(features)} features: {bad}")
    return problems


def check_scores(model, values, scores, rows) -> list[str]:
    """Full-joint outlier scores (negative log-densities) of sampled rows."""
    problems = []
    if not np.all(np.isfinite(scores)):
        problems.append("scores are not all finite")
    for row in rows:
        bad = mismatch(-float(scores[row]), log_density(model, values[row]))
        if bad:
            problems.append(f"row {row} score: {bad}")
    return problems

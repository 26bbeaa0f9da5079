"""Sum-product network representation, validation, and marginal inference.

Nodes live in a flat arena indexed by integer ids, children before
parents, so one forward pass over the arena evaluates any query. All
computation is in the log domain with log-sum-exp at sum nodes; a
marginalized leaf contributes log(1) = 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.special import logsumexp

from .data import Column, columns_from_json, columns_to_json
from .errors import DataError, ModelFormatError

WEIGHT_TOL = 1e-9
LOAD_WEIGHT_TOL = 1e-6
LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class SumNode:
    children: tuple[int, ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class ProductNode:
    children: tuple[int, ...]


@dataclass(frozen=True)
class GaussianLeaf:
    feature: int
    mu: float
    sigma: float


@dataclass(frozen=True)
class CategoricalLeaf:
    feature: int
    probs: tuple[float, ...]


Node = Union[SumNode, ProductNode, GaussianLeaf, CategoricalLeaf]


@dataclass
class EvalCounter:
    """Instrumentation for inference cost accounting."""

    queries: int = 0
    node_evals: int = 0

    def add(self, queries: int, node_evals: int) -> None:
        self.queries += queries
        self.node_evals += node_evals


@dataclass
class SpnModel:
    nodes: list[Node]
    root: int
    schema: list[Column]

    @property
    def n_features(self) -> int:
        return len(self.schema)


def _compute_scopes(nodes: list[Node]) -> list[frozenset[int]]:
    # Defensive: forward references (non-topological arenas) get an empty
    # scope here and are reported by validate().
    scopes: list[frozenset[int]] = []
    for i, node in enumerate(nodes):
        if isinstance(node, (GaussianLeaf, CategoricalLeaf)):
            scopes.append(frozenset([node.feature]))
        else:
            sc: set[int] = set()
            for c in node.children:
                if 0 <= c < i:
                    sc |= scopes[c]
            scopes.append(frozenset(sc))
    return scopes


def validate(model: SpnModel) -> list[str]:
    """Return every structural violation; an empty list means the model is valid."""
    issues: list[str] = []
    n_nodes = len(model.nodes)
    n_features = len(model.schema)
    if n_nodes == 0:
        return ["model has no nodes"]
    if not (0 <= model.root < n_nodes):
        issues.append(f"root id {model.root} out of range")

    scopes = _compute_scopes(model.nodes)
    for i, node in enumerate(model.nodes):
        where = f"node {i}"
        if isinstance(node, (SumNode, ProductNode)):
            if not node.children:
                issues.append(f"{where}: no children")
            for c in node.children:
                if not (0 <= c < n_nodes):
                    issues.append(f"{where}: child id {c} out of range")
                elif c >= i:
                    issues.append(f"{where}: child {c} not before parent (cycle risk)")
        if isinstance(node, SumNode):
            if len(node.weights) != len(node.children):
                issues.append(f"{where}: {len(node.weights)} weights for "
                              f"{len(node.children)} children")
            for w in node.weights:
                if not (0.0 < w <= 1.0):
                    issues.append(f"{where}: weight {w} outside (0,1]")
            if node.weights and abs(sum(node.weights) - 1.0) > WEIGHT_TOL:
                issues.append(f"{where}: weights sum to {sum(node.weights)!r}, not 1")
            child_scopes = [scopes[c] for c in node.children if 0 <= c < i]
            if child_scopes and any(s != child_scopes[0] for s in child_scopes[1:]):
                issues.append(f"{where}: completeness violated, children scopes differ")
        elif isinstance(node, ProductNode):
            seen: set[int] = set()
            for c in node.children:
                if not (0 <= c < i):
                    continue
                if scopes[c] & seen:
                    issues.append(f"{where}: decomposability violated, "
                                  f"overlapping child scopes")
                    break
                seen |= scopes[c]
        elif isinstance(node, GaussianLeaf):
            if not (0 <= node.feature < n_features):
                issues.append(f"{where}: feature {node.feature} out of range")
            elif model.schema[node.feature].kind != "real":
                issues.append(f"{where}: gaussian leaf on non-real column")
            if not (node.sigma > 0.0) or not math.isfinite(node.sigma):
                issues.append(f"{where}: sigma {node.sigma} must be positive and finite")
            if not math.isfinite(node.mu):
                issues.append(f"{where}: mu {node.mu} not finite")
        elif isinstance(node, CategoricalLeaf):
            if not (0 <= node.feature < n_features):
                issues.append(f"{where}: feature {node.feature} out of range")
            else:
                col = model.schema[node.feature]
                if col.kind != "categorical":
                    issues.append(f"{where}: categorical leaf on non-categorical column")
                elif len(node.probs) != len(col.categories):
                    issues.append(f"{where}: {len(node.probs)} probs for "
                                  f"{len(col.categories)} categories")
            if any(p <= 0.0 for p in node.probs):
                issues.append(f"{where}: zero or negative category probability")
            if node.probs and abs(sum(node.probs) - 1.0) > WEIGHT_TOL:
                issues.append(f"{where}: probs sum to {sum(node.probs)!r}, not 1")
        else:
            issues.append(f"{where}: unknown node type {type(node).__name__}")

    if 0 <= model.root < n_nodes:
        if scopes[model.root] != frozenset(range(n_features)):
            issues.append("root scope does not cover all features")
        reachable = {model.root}
        stack = [model.root]
        while stack:
            node = model.nodes[stack.pop()]
            if isinstance(node, (SumNode, ProductNode)):
                for c in node.children:
                    if 0 <= c < n_nodes and c not in reachable:
                        reachable.add(c)
                        stack.append(c)
        for i in range(n_nodes):
            if i not in reachable:
                issues.append(f"node {i} unreachable from root")
    return issues


def _check_query_matrix(model: SpnModel, q: np.ndarray) -> None:
    if q.ndim != 2 or q.shape[1] != model.n_features:
        raise ValueError(
            f"query has {q.shape[-1] if q.ndim else 0} features, "
            f"schema has {model.n_features}"
        )
    if np.isnan(q).all(axis=1).any():
        raise ValueError("query marginalizes every feature")
    for j, col in enumerate(model.schema):
        if col.kind != "categorical":
            continue
        vals = q[:, j]
        obs = vals[~np.isnan(vals)]
        if obs.size and (np.any(obs != np.floor(obs)) or np.any(obs < 0)
                         or np.any(obs >= len(col.categories))):
            raise ValueError(f"categorical value out of range for column {col.name!r}")


def eval_log_density(model: SpnModel, queries: np.ndarray,
                     counter: EvalCounter | None = None) -> np.ndarray:
    """Evaluate log p(x_D) for a batch of queries (NaN = marginalized).

    Single forward pass over the arena: each node is computed exactly
    once per batch.
    """
    q = np.asarray(queries, dtype=np.float64)
    squeeze = q.ndim == 1
    if squeeze:
        q = q[None, :]
    _check_query_matrix(model, q)
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
    if counter is not None:
        counter.add(batch, len(model.nodes) * batch)
    out = vals[model.root]
    return out[0] if squeeze else out


def log_marginal(model: SpnModel, x, keep,
                 counter: EvalCounter | None = None):
    """log p(x_S) in nats, where S holds the features that `keep` marks True
    and every other feature is marginalized.

    `x` is one sample (n,) or a matrix of samples (m, n); `keep` is a
    boolean mask (n,) or a stack of masks (k, n). The two broadcast
    against each other, so k subspaces of one sample, or one subspace of
    m samples, are one batched circuit pass. Returns a scalar for a single
    sample and mask, else one log-density per row.
    """
    keep = np.asarray(keep)
    if keep.dtype != bool:
        raise ValueError(f"keep must be a boolean mask, got dtype {keep.dtype}")
    return eval_log_density(model, np.where(keep, np.asarray(x, dtype=np.float64),
                                            np.nan), counter)


def log_marginal_subspace(model: SpnModel, x: Sequence[float], subspace: Sequence[int],
                          counter: EvalCounter | None = None) -> float:
    """log p(x_D) for the projection of a full sample onto a feature subset."""
    sub = sorted(set(int(d) for d in subspace))
    if not sub:
        raise ValueError("subspace is empty")
    if sub[0] < 0 or sub[-1] >= model.n_features:
        raise ValueError(f"subspace {sub} outside schema of {model.n_features} features")
    keep = np.isin(np.arange(model.n_features), sub)
    return float(log_marginal(model, x, keep, counter))


# --- serialization -------------------------------------------------------

FORMAT_VERSION = 1


def to_dict(model: SpnModel) -> dict:
    nodes = []
    for i, node in enumerate(model.nodes):
        if isinstance(node, SumNode):
            nodes.append({"id": i, "type": "sum",
                          "children": [int(c) for c in node.children],
                          "weights": [float(w) for w in node.weights]})
        elif isinstance(node, ProductNode):
            nodes.append({"id": i, "type": "product",
                          "children": [int(c) for c in node.children]})
        elif isinstance(node, GaussianLeaf):
            nodes.append({"id": i, "type": "gaussian", "feature": int(node.feature),
                          "mu": float(node.mu), "sigma": float(node.sigma)})
        else:
            nodes.append({"id": i, "type": "categorical", "feature": int(node.feature),
                          "probs": [float(p) for p in node.probs]})
    return {"version": FORMAT_VERSION, "schema": columns_to_json(model.schema),
            "root": model.root, "nodes": nodes}


_NUMBER = (int, float)
_TYPE_NAMES = {int: "int", _NUMBER: "number", list: "list"}


def _require(doc: dict, key: str, where: str, kind=object, item=None):
    """doc[key], checked to be a `kind` (a list of `item`s if `item` is given)."""
    if key not in doc:
        raise ModelFormatError(f"{where}: missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or (
            item is not None and not all(isinstance(v, item) for v in value)):
        expected = _TYPE_NAMES[kind] if item is None else f"list of {_TYPE_NAMES[item]}"
        raise ModelFormatError(f"{where}: field {key!r} must be of type {expected}")
    return value


def from_dict(doc: dict) -> SpnModel:
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    version = _require(doc, "version", "document")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"document: unsupported version {version!r}")
    try:
        schema = columns_from_json(_require(doc, "schema", "document"), "schema")
    except DataError as exc:
        raise ModelFormatError(str(exc)) from exc
    root = _require(doc, "root", "document", int)
    raw_nodes = _require(doc, "nodes", "document", list)
    nodes: list[Node] = []
    for i, nd in enumerate(raw_nodes):
        where = f"nodes[{i}]"
        if not isinstance(nd, dict):
            raise ModelFormatError(f"{where}: expected an object")
        if nd.get("id") != i:
            raise ModelFormatError(f"{where}: id {nd.get('id')!r} must equal "
                                   f"arena position {i}")
        ntype = _require(nd, "type", where)
        if ntype == "sum":
            children = tuple(_require(nd, "children", where, list, int))
            weights = [float(w) for w in _require(nd, "weights", where, list, _NUMBER)]
            total = sum(weights)
            if abs(total - 1.0) > WEIGHT_TOL:
                # renormalize near-misses, keep already-valid weights bit-exact
                if abs(total - 1.0) > LOAD_WEIGHT_TOL:
                    raise ModelFormatError(
                        f"{where}: weights sum to {total!r}, beyond renormalization "
                        f"tolerance {LOAD_WEIGHT_TOL}")
                weights = [w / total for w in weights]
            nodes.append(SumNode(children, tuple(weights)))
        elif ntype == "product":
            nodes.append(ProductNode(tuple(_require(nd, "children", where, list, int))))
        elif ntype == "gaussian":
            nodes.append(GaussianLeaf(_require(nd, "feature", where, int),
                                      float(_require(nd, "mu", where, _NUMBER)),
                                      float(_require(nd, "sigma", where, _NUMBER))))
        elif ntype == "categorical":
            nodes.append(CategoricalLeaf(
                _require(nd, "feature", where, int),
                tuple(float(p) for p in _require(nd, "probs", where, list, _NUMBER))))
        else:
            raise ModelFormatError(f"{where}: unknown node type {ntype!r}")
    model = SpnModel(nodes, root, schema)
    issues = validate(model)
    if issues:
        raise ModelFormatError("invalid model: " + "; ".join(issues))
    return model


def save_model(model: SpnModel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_dict(model), fh)
        fh.write("\n")


def load_model(path: str) -> SpnModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}:{exc.lineno}: not valid JSON: {exc.msg}") from exc
    return from_dict(doc)

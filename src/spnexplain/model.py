"""Sum-product network representation, validation, and marginal inference.

Nodes live in a flat arena indexed by integer ids, children before
parents. For inference the arena is compiled once into level-ordered
arrays (a node's level is one more than its deepest child's), so one
bottom-up pass evaluates any batch of queries with a few numpy operations
per level. All computation is in the log domain with log-sum-exp at sum
nodes; a marginalized leaf contributes log(1) = 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .data import NUMBER, Column, columns_from_json, columns_to_json, read_json, require
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
    """Instrumentation for inference cost accounting: `queries` counts the
    marginal queries asked, `node_evals` the node evaluations performed to
    answer them."""

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
    # built on the first evaluation; nothing changes `nodes` or `root` after
    # construction
    _circuit: _Circuit | None = field(default=None, init=False, repr=False,
                                      compare=False)

    @property
    def n_features(self) -> int:
        return len(self.schema)


def _compute_scopes(nodes: list[Node]) -> list[frozenset[int]]:
    # Defensive: forward references (non-topological arenas) and nodes of
    # unknown type get an empty scope here and are reported by validate().
    scopes: list[frozenset[int]] = []
    for i, node in enumerate(nodes):
        sc: set[int] = set()
        if isinstance(node, (GaussianLeaf, CategoricalLeaf)):
            sc.add(node.feature)
        elif isinstance(node, (SumNode, ProductNode)):
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


class _Circuit:
    """The arena compiled into level-ordered arrays.

    Row r of the value matrix holds one node's log-density for every query
    of a batch: Gaussian leaves first, then categorical leaves, then each
    level's products followed by its sums. One extra row of zeros pads the
    child slots, so the nodes of a group share one gather whatever their
    arity. `groups` holds each level's products and its sums as (first
    row, child slots, log-weights, None for products), bottom-up;
    `scope[r]` marks the features under row r's node (as float64, for one
    BLAS product) and `scope_size[r]` counts them. Built only from a model
    that `validate` accepts.
    """

    def __init__(self, model: SpnModel):
        nodes = model.nodes
        self.schema = model.schema  # for the query checks
        cat_cols = [j for j, c in enumerate(self.schema) if c.kind == "categorical"]
        self.cat_cols = np.array(cat_cols, dtype=np.intp)
        self.cat_sizes = np.array([len(self.schema[j].categories) for j in cat_cols])
        level = [0] * len(nodes)
        for i, node in enumerate(nodes):
            if isinstance(node, (SumNode, ProductNode)):
                level[i] = 1 + max(level[c] for c in node.children)
        gauss = [i for i, node in enumerate(nodes) if isinstance(node, GaussianLeaf)]
        cats = [i for i, node in enumerate(nodes) if isinstance(node, CategoricalLeaf)]
        inner = [([], []) for _ in range(max(level, default=0))]  # (products, sums)
        for i, node in enumerate(nodes):
            if isinstance(node, (SumNode, ProductNode)):
                inner[level[i] - 1][isinstance(node, SumNode)].append(i)
        order = gauss + cats + [i for prods, sums in inner for i in prods + sums]
        row = np.empty(len(nodes), dtype=np.intp)
        row[order] = np.arange(len(order))
        self.n_rows = len(order) + 1  # the last row is the zero padding
        self.root = row[model.root]
        self.scope = np.zeros((self.n_rows, model.n_features))
        for i, features in enumerate(_compute_scopes(nodes)):
            self.scope[row[i], list(features)] = 1.0
        self.scope_size = self.scope.sum(axis=1)

        gauss = [nodes[i] for i in gauss]
        self.gauss_feature = np.array([g.feature for g in gauss], dtype=np.intp)
        self.mu = np.array([g.mu for g in gauss])[:, None]
        self.sigma = np.array([g.sigma for g in gauss])[:, None]
        self.log_sigma = np.array([math.log(g.sigma) for g in gauss])[:, None]
        cats = [nodes[i] for i in cats]
        self.cat_feature = np.array([c.feature for c in cats], dtype=np.intp)
        self.cat_rows = np.arange(len(cats))[:, None]
        self.cat_log_probs = np.zeros((len(cats), max((len(c.probs) for c in cats),
                                                      default=0)))
        for r, c in enumerate(cats):
            self.cat_log_probs[r, :len(c.probs)] = np.log(np.asarray(c.probs))

        self.groups = []
        for ids in (ids for prods_sums in inner for ids in prods_sums if ids):
            # (arity, nodes): slot s holds each node's s-th child
            idx = np.full((max(len(nodes[i].children) for i in ids), len(ids)),
                          len(order), dtype=np.intp)
            for j, i in enumerate(ids):
                idx[:len(nodes[i].children), j] = [row[c] for c in nodes[i].children]
            log_w = None
            if isinstance(nodes[ids[0]], SumNode):
                log_w = np.full(idx.shape, -np.inf)  # a padded slot adds exp(-inf) = 0
                for j, i in enumerate(ids):
                    log_w[:len(nodes[i].weights), j] = np.log(np.asarray(nodes[i].weights))
                log_w = log_w[:, :, None]
            self.groups.append((int(row[ids[0]]), idx, log_w))

    def check_query(self, q: np.ndarray) -> None:
        if q.ndim != 2 or q.shape[1] != len(self.schema):
            raise ValueError(f"query must be a (batch, {len(self.schema)}) matrix, "
                             f"got shape {q.shape}")
        if np.isnan(q).all(axis=1).any():
            raise ValueError("query marginalizes every feature")
        if self.cat_cols.size:
            vals = q[:, self.cat_cols]
            bad = ~np.isnan(vals) & ((vals != np.floor(vals)) | (vals < 0)
                                     | (vals >= self.cat_sizes))
            if bad.any():
                col = self.schema[self.cat_cols[int(np.argmax(bad.any(axis=0)))]]
                raise ValueError(f"categorical value out of range for column {col.name!r}")

    def node_values(self, q: np.ndarray) -> np.ndarray:
        """The value matrix of one pass: each node's log-density (the root's
        is row `root`) for each row of a checked (batch, n) query matrix."""
        vals = np.empty((self.n_rows, q.shape[0]))
        vals[-1] = 0.0
        x = q.T[self.gauss_feature]
        with np.errstate(over="ignore"):  # a cell far out in a tail reads -inf
            z = (x - self.mu) / self.sigma  # NaN where marginalized
            lp = -0.5 * z * z - self.log_sigma - 0.5 * LOG_2PI
        hi = len(self.gauss_feature)
        vals[:hi] = np.where(np.isnan(x), 0.0, lp)
        x = q.T[self.cat_feature]
        obs = ~np.isnan(x)
        lp = self.cat_log_probs[self.cat_rows, np.where(obs, x, 0.0).astype(np.intp)]
        vals[hi:hi + len(self.cat_feature)] = np.where(obs, lp, 0.0)
        self.update(vals)
        return vals

    def update(self, vals: np.ndarray, redo: np.ndarray | None = None) -> None:
        """Recompute internal nodes of the value matrix `vals` bottom-up, in
        place: those at the sorted rows `redo`, or all of them if None."""
        for lo, idx, log_w in self.groups:
            hi = lo + idx.shape[1]
            if redo is None:
                rows, cols = slice(lo, hi), slice(None)
            else:
                a, b = np.searchsorted(redo, (lo, hi))
                if a == b:
                    continue
                rows = redo[a:b]
                cols = rows - lo
            stack = vals[idx[:, cols]]
            vals[rows] = (_add_slots(stack) if log_w is None
                          else _logsumexp(stack + log_w[:, cols]))


def _add_slots(stack: np.ndarray) -> np.ndarray:
    """stack[0] + stack[1] + ... in slot order, never pairwise, so that a
    row's sum does not depend on the rest of its batch. The stack is
    (slots, nodes, batch) and is overwritten."""
    if stack[0].size <= 512:
        # one call that walks the slots of each output element in turn:
        # quick for narrow batches, slow per element for wide ones
        return np.add.accumulate(stack, axis=0)[-1]
    acc = stack[0]
    for part in stack[1:]:
        acc += part
    return acc


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over axis 0, computed as scipy.special.logsumexp
    (scipy 1.17) computes it: the m terms equal to the maximum are taken out
    of the sum, which gives log1p(s / m) + log(m) + max."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        amax = a.max(axis=0)
        top = a == amax
        m = top.sum(axis=0, dtype=np.float64)
        s = _add_slots(np.exp(np.where(top, -np.inf, a) - amax))
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + amax
        bad = ~np.isfinite(out)
        if bad.any():  # every term is -inf
            out[bad] = np.log(_add_slots(np.exp(a)))[bad]
    return out


def _compiled(model: SpnModel, q: np.ndarray) -> _Circuit:
    """The model's circuit, once the (batch, n) query matrix q has passed
    the query checks. A model is compiled on first use, and only if
    `validate` accepts it; otherwise this raises ValueError."""
    if model._circuit is None:
        issues = validate(model)
        if issues:
            raise ValueError("invalid model: " + "; ".join(issues))
        model._circuit = _Circuit(model)
    model._circuit.check_query(q)
    return model._circuit


def eval_log_density(model: SpnModel, queries: np.ndarray,
                     counter: EvalCounter | None = None) -> np.ndarray:
    """Evaluate log p(x_D) for a batch of queries (NaN = marginalized).

    One bottom-up pass over the compiled circuit: each node is computed
    exactly once per batch, and a row's result does not depend on the
    other rows of its batch. A model that `validate` rejects raises
    ValueError.
    """
    q = np.asarray(queries, dtype=np.float64)
    squeeze = q.ndim == 1
    if squeeze:
        if q.shape != (model.n_features,):
            raise ValueError(f"query must be a ({model.n_features},) sample or a "
                             f"(batch, {model.n_features}) matrix, got shape {q.shape}")
        q = q[None, :]
    circuit = _compiled(model, q)
    out = circuit.node_values(q)[circuit.root]
    if counter is not None:
        counter.add(q.shape[0], len(model.nodes) * q.shape[0])
    return out[0] if squeeze else out


def log_marginal(model: SpnModel, x, keep,
                 counter: EvalCounter | None = None):
    """log p(x_S) in nats, where S holds the features that `keep` marks True
    and every other feature is marginalized.

    `x` is one sample (n,) or a matrix of samples (m, n); `keep` is a
    boolean mask (n,) or a stack of masks (k, n). The two broadcast
    against each other, so k subspaces of one sample, or one subspace of
    m samples, are one batched circuit pass. Returns a scalar for a single
    sample and mask, else one log-density per row. Other shapes raise
    ValueError.
    """
    keep = np.asarray(keep)
    if keep.dtype != bool:
        raise ValueError(f"keep must be a boolean mask, got dtype {keep.dtype}")
    x = np.asarray(x, dtype=np.float64)
    n = model.n_features
    try:
        q = np.where(keep, x, np.nan)
    except ValueError:
        q = None
    if q is None or x.shape[-1:] != (n,) or keep.shape[-1:] != (n,):
        raise ValueError(f"x of shape {x.shape} and keep of shape {keep.shape} must each "
                         f"have {n} features and broadcast together")
    return eval_log_density(model, q, counter)


class TableMarginals:
    """log p(x_S) of every row x of one fixed table X, for many subspaces S.

    A node's value depends on S only through S ∩ scope(node). The table
    keeps the circuit's value matrix for the last subspace asked, and a new
    subspace recomputes only the nodes whose scope holds a feature that
    entered or left S. Of these, a node whose scope lies inside S takes its
    value under full evidence and one whose scope misses S its fully
    marginalized value, the same for every row; both come from one pass
    over X and one over a fully marginalized row. The internal nodes that
    straddle S go through the circuit's own level loop, so the result
    equals `log_marginal(model, X, keep)` bit for bit.
    """

    def __init__(self, model: SpnModel, X):
        X = np.asarray(X, dtype=np.float64)
        self._circuit = _compiled(model, X)
        if X.shape[0] == 0:
            raise ValueError("reference table has no rows")
        self.model = model
        self.n_rows = X.shape[0]
        self._full = self._circuit.node_values(X)
        self._empty = self._circuit.node_values(np.full((1, model.n_features), np.nan))
        self._values = self._full.copy()  # the value matrix for the subspace `_keep`
        self._keep = np.ones(model.n_features, dtype=bool)
        missing = np.isnan(X)
        self._missing = missing if missing.any() else None

    def log_marginal(self, keep, counter: EvalCounter | None = None) -> np.ndarray:
        """log p(x_S) for each row of the table, S the features that the
        boolean mask `keep` (n,) marks True. The counter gets one query per
        row, and one node evaluation per row for each recomputed node."""
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != (self.model.n_features,):
            raise ValueError(f"keep must be a boolean mask of shape "
                             f"({self.model.n_features},)")
        if not keep.any() or (self._missing is not None
                              and self._missing[:, keep].all(axis=1).any()):
            raise ValueError("query marginalizes every feature")
        circuit, vals = self._circuit, self._values
        changed = circuit.scope @ (keep != self._keep) > 0
        inside = circuit.scope @ keep  # features of each node's scope in S
        covered = changed & (inside == circuit.scope_size)
        missed = changed & (inside == 0)
        vals[covered] = self._full[covered]
        vals[missed] = self._empty[missed]
        redo = np.flatnonzero(changed & ~covered & ~missed)
        circuit.update(vals, redo)
        self._keep = keep.copy()
        if counter is not None:
            counter.add(self.n_rows, len(redo) * self.n_rows)
        return vals[circuit.root].copy()


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


def from_dict(doc) -> SpnModel:
    try:
        version = require(doc, "version", "document")
        if version != FORMAT_VERSION:
            raise ModelFormatError(f"document: unsupported version {version!r}")
        schema = columns_from_json(require(doc, "schema", "document", list), "schema")
        root = require(doc, "root", "document", int)
        raw_nodes = require(doc, "nodes", "document", list)
        nodes: list[Node] = []
        for i, nd in enumerate(raw_nodes):
            where = f"nodes[{i}]"
            if require(nd, "id", where) != i:
                raise ModelFormatError(f"{where}: id {nd['id']!r} must equal "
                                       f"arena position {i}")
            ntype = require(nd, "type", where)
            if ntype == "sum":
                children = tuple(require(nd, "children", where, list, int))
                weights = [float(w) for w in require(nd, "weights", where, list, NUMBER)]
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
                nodes.append(ProductNode(tuple(require(nd, "children", where, list, int))))
            elif ntype == "gaussian":
                nodes.append(GaussianLeaf(require(nd, "feature", where, int),
                                          float(require(nd, "mu", where, NUMBER)),
                                          float(require(nd, "sigma", where, NUMBER))))
            elif ntype == "categorical":
                nodes.append(CategoricalLeaf(
                    require(nd, "feature", where, int),
                    tuple(float(p) for p in require(nd, "probs", where, list, NUMBER))))
            else:
                raise ModelFormatError(f"{where}: unknown node type {ntype!r}")
        model = SpnModel(nodes, root, schema)
        issues = validate(model)
        if issues:
            raise ModelFormatError("invalid model: " + "; ".join(issues))
        return model
    except DataError as exc:
        raise ModelFormatError(str(exc)) from exc


def save_model(model: SpnModel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_dict(model), fh)
        fh.write("\n")


def load_model(path: str) -> SpnModel:
    try:
        return from_dict(read_json(path, "model"))
    except DataError as exc:  # the file cannot be read or parsed
        raise ModelFormatError(str(exc)) from exc

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

from .data import (INTEGER, NUMBER, Column, check_codes, check_rows, columns_from_json,
                   columns_to_json, is_a, read_json, require)
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
    # set by `_compile` when the model is learned, loaded or first evaluated;
    # nothing changes `nodes` or `root` after construction
    _circuit: _Circuit | None = field(default=None, init=False, repr=False,
                                      compare=False)

    @property
    def n_features(self) -> int:
        return len(self.schema)


def _compute_scopes(nodes: list[Node]) -> list[frozenset[int]]:
    # Defensive: forward references (non-topological arenas) and nodes of
    # unknown type get an empty scope here and are reported by `validate`.
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


def _number_issues(model: SpnModel) -> list[str]:
    """The root, child ids and features that are not integers, and the
    weights, mu, sigma and probs that are not numbers, under `is_a`."""
    fields = [("root id", model.root, INTEGER)]
    for i, node in enumerate(model.nodes):
        if isinstance(node, (SumNode, ProductNode)):
            fields += [(f"node {i}: child id", c, INTEGER) for c in node.children]
        if isinstance(node, SumNode):
            fields += [(f"node {i}: weight", w, NUMBER) for w in node.weights]
        elif isinstance(node, GaussianLeaf):
            fields += [(f"node {i}: feature", node.feature, INTEGER),
                       (f"node {i}: mu", node.mu, NUMBER),
                       (f"node {i}: sigma", node.sigma, NUMBER)]
        elif isinstance(node, CategoricalLeaf):
            fields += [(f"node {i}: feature", node.feature, INTEGER)]
            fields += [(f"node {i}: probability", p, NUMBER) for p in node.probs]
    return [f"{name} {value!r} is not {'an integer' if kind is INTEGER else 'a number'}"
            for name, value, kind in fields if not is_a(value, kind)]


def validate(model: SpnModel) -> list[str]:
    """Return every structural violation; an empty list means the model is
    valid. A model that breaks the number rule gets only those issues: the
    structural checks need integer ids and numeric parameters."""
    n_nodes = len(model.nodes)
    n_features = len(model.schema)
    if n_nodes == 0:
        return ["model has no nodes"]
    issues = _number_issues(model)
    if issues:
        return issues
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
    """The nodes under `top` (the model's root if None) compiled into
    level-ordered arrays.

    Row r of the value matrix holds one node's log-density for every query
    of a batch: Gaussian leaves first, then categorical leaves, then each
    level's products followed by its sums. One extra row of zeros pads the
    child slots, so the nodes of a group share one gather whatever their
    arity. `groups` holds each level's products and its sums as (first
    row, child slots, log-weights, None for products), bottom-up. Queries
    keep the model's full width; the circuit reads only the features under
    `top`. Built only from a model that `validate` accepts.
    """

    def __init__(self, model: SpnModel, top: int | None = None):
        nodes = model.nodes
        top = model.root if top is None else top
        under = {top}  # children come before their parents
        for i in range(top, -1, -1):
            if i in under and isinstance(nodes[i], (SumNode, ProductNode)):
                under.update(nodes[i].children)
        under = sorted(under)
        level = [0] * len(nodes)
        for i in under:
            if isinstance(nodes[i], (SumNode, ProductNode)):
                level[i] = 1 + max(level[c] for c in nodes[i].children)
        gauss = [i for i in under if isinstance(nodes[i], GaussianLeaf)]
        cats = [i for i in under if isinstance(nodes[i], CategoricalLeaf)]
        inner = [([], []) for _ in range(level[top])]  # (products, sums)
        for i in under:
            if isinstance(nodes[i], (SumNode, ProductNode)):
                inner[level[i] - 1][isinstance(nodes[i], SumNode)].append(i)
        order = gauss + cats + [i for prods, sums in inner for i in prods + sums]
        row = np.empty(len(nodes), dtype=np.intp)
        row[order] = np.arange(len(order))
        self.n_rows = len(order) + 1  # the last row is the zero padding
        self.root = row[top]

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

    def log_density(self, q: np.ndarray, counter: EvalCounter | None = None) -> np.ndarray:
        """The root's log-density for each row of a checked (batch, n) query
        matrix, in one pass; the counter gets one query and one evaluation of
        every node per row. The result is a row of the pass's value matrix."""
        if counter is not None:
            counter.add(q.shape[0], (self.n_rows - 1) * q.shape[0])
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
        for lo, idx, log_w in self.groups:
            stack = vals[idx]
            vals[lo:lo + idx.shape[1]] = (_add_slots(stack) if log_w is None
                                         else _logsumexp(stack + log_w))
        return vals[self.root]


def _add_slots(stack: np.ndarray) -> np.ndarray:
    """stack[0] + stack[1] + ... in slot order, never pairwise, so that a
    row's sum does not depend on the rest of its batch. The stack is a
    (slots, nodes, batch) array or a list of equal-shape arrays, and its
    first slot may be overwritten."""
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


def _compile(model: SpnModel, error: type[Exception] = ValueError) -> _Circuit:
    """The model's circuit: the one place where a model is validated. A
    model not yet compiled is compiled and cached here, and only if
    `validate` accepts it; otherwise this raises `error("invalid model:
    ...")` listing the issues, and caches nothing."""
    if model._circuit is None:
        issues = validate(model)
        if issues:
            raise error("invalid model: " + "; ".join(issues))
        model._circuit = _Circuit(model)
    return model._circuit


def _check_width(q: np.ndarray, n: int) -> None:
    if q.ndim != 2 or q.shape[1] != n:
        raise ValueError(f"query must be a (batch, {n}) matrix, got shape {q.shape}")


def eval_log_density(model: SpnModel, queries: np.ndarray,
                     counter: EvalCounter | None = None) -> np.ndarray:
    """Evaluate log p(x_D) for a batch of queries (NaN = marginalized).

    One bottom-up pass over the compiled circuit: each node is computed
    exactly once per batch, and a row's result does not depend on the
    other rows of its batch. The query rule: a NaN cell is marginalized,
    every row keeps at least one feature, and every categorical cell is
    NaN or a code of its column (`check_codes`); an infinite cell reads as
    far out in its leaves' tails. A query that breaks it, or a model that
    `validate` rejects, raises ValueError.
    """
    q = np.asarray(queries, dtype=np.float64)
    squeeze = q.ndim == 1
    if squeeze:
        if q.shape != (model.n_features,):
            raise ValueError(f"query must be a ({model.n_features},) sample or a "
                             f"(batch, {model.n_features}) matrix, got shape {q.shape}")
        q = q[None, :]
    circuit = _compile(model)
    _check_width(q, model.n_features)
    if np.isnan(q).all(axis=1).any():
        raise ValueError("query marginalizes every feature")
    check_codes(q, model.schema)
    out = circuit.log_density(q, counter)
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

    The marginal of a decomposable product is the sum of its children's
    marginals, each on S ∩ scope(child). Each child of the root product (a
    root that is not a product is its own one child) is compiled into its
    own sub-circuit, and keeps a memo from the features of S in its scope
    to its values over the rows of X. A new entry costs one sub-circuit
    pass over X (sub-circuit size × rows node evaluations) and holds a copy
    of one row of that pass, len(X) floats. `log_marginal` adds the
    children's entries in the root's slot order with the circuit's own
    adds, so the result equals `log_marginal(model, X, keep)` bit for bit.
    The full-evidence entries are filled on construction. The table keeps
    the row rule of `check_rows`, so no cell is marginalized but by the
    mask; a table that breaks it, or has no rows, raises ValueError. A sum
    root is one child, so there each new subspace costs a full pass, and a
    wide child repeats its subsets rarely.
    """

    def __init__(self, model: SpnModel, X):
        X = np.asarray(X, dtype=np.float64)
        _compile(model)
        _check_width(X, model.n_features)
        check_rows(X, model.schema)
        if X.shape[0] == 0:
            raise ValueError("reference table has no rows")
        self.model = model
        self._X = X
        root = model.nodes[model.root]
        tops = root.children if isinstance(root, ProductNode) else (model.root,)
        self._children = []  # (sub-circuit, its features, memo)
        for top in tops:
            circuit = _Circuit(model, top)
            features = np.union1d(circuit.gauss_feature, circuit.cat_feature)
            self._children.append((circuit, features, {}))
        self.log_marginal(np.ones(model.n_features, dtype=bool))

    def log_marginal(self, keep, counter: EvalCounter | None = None) -> np.ndarray:
        """log p(x_S) for each row of the table, S the features that the
        boolean mask `keep` (n,) marks True. The counter gets one query per
        row, and one node evaluation per row for each node of a sub-circuit
        that fills a new entry."""
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != (self.model.n_features,):
            raise ValueError(f"keep must be a boolean mask of shape "
                             f"({self.model.n_features},)")
        if not keep.any():
            raise ValueError("query marginalizes every feature")
        rows = len(self._X)
        q, node_evals, parts = None, 0, []
        for circuit, features, memo in self._children:
            key = keep[features].tobytes()
            if key not in memo:
                if q is None:
                    q = np.where(keep, self._X, np.nan)
                # a copy, so the entry does not keep the pass's whole matrix
                memo[key] = circuit.log_density(q).copy()
                node_evals += (circuit.n_rows - 1) * rows
            parts.append(memo[key])
        if counter is not None:
            counter.add(rows, node_evals)
        # `_add_slots` adds into the first slot: a copy, not the memo's entry
        return _add_slots([parts[0].copy()] + parts[1:])


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
            "root": int(model.root), "nodes": nodes}


def from_dict(doc) -> SpnModel:
    try:
        version = require(doc, "version", "document", INTEGER)
        if version != FORMAT_VERSION:
            raise ModelFormatError(f"document: unsupported version {version!r}")
        schema = columns_from_json(require(doc, "schema", "document", list), "schema")
        root = require(doc, "root", "document", INTEGER)
        raw_nodes = require(doc, "nodes", "document", list)
        nodes: list[Node] = []
        for i, nd in enumerate(raw_nodes):
            where = f"nodes[{i}]"
            if require(nd, "id", where, INTEGER) != i:
                raise ModelFormatError(f"{where}: id {nd['id']!r} must equal "
                                       f"arena position {i}")
            ntype = require(nd, "type", where)
            if ntype == "sum":
                children = tuple(require(nd, "children", where, list, INTEGER))
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
                children = tuple(require(nd, "children", where, list, INTEGER))
                nodes.append(ProductNode(children))
            elif ntype == "gaussian":
                nodes.append(GaussianLeaf(require(nd, "feature", where, INTEGER),
                                          float(require(nd, "mu", where, NUMBER)),
                                          float(require(nd, "sigma", where, NUMBER))))
            elif ntype == "categorical":
                nodes.append(CategoricalLeaf(
                    require(nd, "feature", where, INTEGER),
                    tuple(float(p) for p in require(nd, "probs", where, list, NUMBER))))
            else:
                raise ModelFormatError(f"{where}: unknown node type {ntype!r}")
        model = SpnModel(nodes, root, schema)
        _compile(model, ModelFormatError)
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

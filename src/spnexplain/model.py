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


def _float(v) -> float:
    """v as a float; an int too large for one reads as +-inf, as json reads
    1e400."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


# The values a number field admits: a test on the value as a float, and what
# a value that fails it is.
_UNIT = (lambda x: 0.0 < x <= 1.0, "outside (0,1]")
_POSITIVE = (lambda x: 0.0 < x < math.inf, "must be positive and finite")
_FINITE = (math.isfinite, "not finite")

# Each node type's name in a model file and its fields in dataclass order,
# as (field, kind, the name of one item or None for a field that is not a
# sequence, the values a number admits or None). The model file's writer
# and reader and the field rule read it.
_NODE_FIELDS = {
    SumNode: ("sum", (("children", INTEGER, "child id", None),
                      ("weights", NUMBER, "weight", _UNIT))),
    ProductNode: ("product", (("children", INTEGER, "child id", None),)),
    GaussianLeaf: ("gaussian", (("feature", INTEGER, None, None),
                                ("mu", NUMBER, None, _FINITE),
                                ("sigma", NUMBER, None, _POSITIVE))),
    CategoricalLeaf: ("categorical", (("feature", INTEGER, None, None),
                                      ("probs", NUMBER, "probability", _UNIT))),
}
_NODE_TYPES = {name: cls for cls, (name, _) in _NODE_FIELDS.items()}
_NORMALIZED = ("weights", "probs")  # the fields that sum to 1
_CAST = {INTEGER: int, NUMBER: _float}
_COLUMN_KIND = {GaussianLeaf: "real", CategoricalLeaf: "categorical"}  # of a leaf's column


@dataclass
class EvalCounter:
    """Instrumentation for inference cost accounting: `queries` counts the
    marginal queries asked, `node_evals` the node evaluations performed to
    answer them. A pass evaluates every node of its circuit once per query,
    and a leaf that the query's mask marginalizes counts as evaluated, though
    it only reads 0; leaf values that a search or a z-score table computes
    once and then masks count in each pass that masks them, not when they
    are computed."""

    queries: int = 0
    node_evals: int = 0

    def add(self, queries: int, node_evals: int) -> None:
        self.queries += queries
        self.node_evals += node_evals


@dataclass(frozen=True)
class SpnModel:
    """A node arena, its root id and the schema of its columns. Frozen, with
    `nodes` and `schema` stored as tuples, so the circuit compiled from it
    stays its own."""

    nodes: tuple[Node, ...]
    root: int
    schema: tuple[Column, ...]
    # set by `_compile` when the model is learned, loaded or first evaluated
    _circuit: _Circuit | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "schema", tuple(self.schema))

    @property
    def n_features(self) -> int:
        return len(self.schema)


def _under(nodes: tuple[Node, ...], top: int) -> list[int]:
    """`top` and every node reached from it through the child ids of sum
    and product nodes that lie inside the arena, ascending. The walk keeps
    a visited set, so a cycle or a child id at or after its parent ends it
    safely. `validate`'s reachability rule and `_Circuit` read it."""
    under, stack = {top}, [top]
    while stack:
        node = nodes[stack.pop()]
        if isinstance(node, (SumNode, ProductNode)):
            for c in node.children:
                if 0 <= c < len(nodes) and c not in under:
                    under.add(c)
                    stack.append(c)
    return sorted(under)


_SEQUENCE = (tuple, list)
_KIND_NAMES = {INTEGER: "an integer", NUMBER: "a number", _SEQUENCE: "a sequence"}


def _field_issues(model: SpnModel) -> tuple[list[str], list[str]]:
    """The issues of the root and the node fields under `_NODE_FIELDS`, in
    one list for kind (not an integer, a number, or a sequence of either,
    under `is_a`) and one for value (a number its field's rule does not
    admit)."""
    fields = [("root id", model.root, INTEGER, None)]
    for i, node in enumerate(model.nodes):
        for name, kind, item, rule in _NODE_FIELDS.get(type(node), ("", ()))[1]:
            value = getattr(node, name)
            if item is None:
                fields.append((f"node {i}: {name}", value, kind, rule))
                continue
            fields.append((f"node {i}: {name}", value, _SEQUENCE, None))
            if is_a(value, _SEQUENCE):
                fields += [(f"node {i}: {item}", v, kind, rule) for v in value]
    kinds, values = [], []
    for name, value, kind, rule in fields:
        if not is_a(value, kind):
            kinds.append(f"{name} {value!r} is not {_KIND_NAMES[kind]}")
        elif rule is not None and not rule[0](_float(value)):
            values.append(f"{name} {value} {rule[1]}")
    return kinds, values


def validate(model: SpnModel) -> list[str]:
    """Return every violation; an empty list means the model is valid.
    This function checks the graph and schema rules; the field rules (each
    field's kind and, for a number, the values it admits) come from
    `_NODE_FIELDS`. A model with a field of the wrong kind gets only those
    issues: the graph checks need sequences of integer ids and of numbers.
    A node's scope is its leaf's feature or the union of its children's
    scopes, each child id in 0..i-1 of node i; the nodes reachable from the
    root are those of `_under`, the walk that `_Circuit` compiles."""
    n_nodes = len(model.nodes)
    n_features = len(model.schema)
    if n_nodes == 0:
        return ["model has no nodes"]
    kinds, issues = _field_issues(model)
    if kinds:
        return kinds
    if not (0 <= model.root < n_nodes):
        issues.append(f"root id {model.root} out of range")

    scopes: list[frozenset[int]] = []
    for i, node in enumerate(model.nodes):
        where = f"node {i}"
        inner = isinstance(node, (SumNode, ProductNode))
        child_scopes = [scopes[c] for c in node.children if 0 <= c < i] if inner else []
        leaf = isinstance(node, (GaussianLeaf, CategoricalLeaf))
        scopes.append(frozenset((node.feature,)) if leaf
                      else frozenset().union(*child_scopes))
        if type(node) not in _NODE_FIELDS:
            issues.append(f"{where}: unknown node type {type(node).__name__}")
            continue
        if inner:
            if not node.children:
                issues.append(f"{where}: no children")
            for c in node.children:
                if not (0 <= c < n_nodes):
                    issues.append(f"{where}: child id {c} out of range")
                elif c >= i:
                    issues.append(f"{where}: child {c} not before parent (cycle risk)")
        else:
            kind = _COLUMN_KIND[type(node)]
            col = model.schema[node.feature] if 0 <= node.feature < n_features else None
            if col is None:
                issues.append(f"{where}: feature {node.feature} out of range")
            elif col.kind != kind:
                issues.append(f"{where}: {_NODE_FIELDS[type(node)][0]} leaf on "
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
            if sum(map(len, child_scopes)) != len(scopes[i]):
                issues.append(f"{where}: decomposability violated, "
                              f"overlapping child scopes")
        for name in _NORMALIZED:
            seq = getattr(node, name, ())
            total = sum(map(_float, seq))
            if seq and abs(total - 1.0) > WEIGHT_TOL:
                issues.append(f"{where}: {name} sum to {total!r}, not 1")

    if 0 <= model.root < n_nodes:
        if scopes[model.root] != frozenset(range(n_features)):
            issues.append("root scope does not cover all features")
        reachable = set(_under(model.nodes, model.root))
        issues += [f"node {i} unreachable from root" for i in range(n_nodes)
                   if i not in reachable]
    return issues


class _Circuit:
    """The nodes under `top` (the model's root if None), as `_under` walks
    them for `validate`'s reachability rule, compiled into level-ordered
    arrays.

    Row r of the value matrix holds one node's log-density for every query
    of a batch: Gaussian leaves first, then categorical leaves, then each
    level's products followed by its sums. One extra row of zeros pads the
    child slots, so the nodes of a group share one gather whatever their
    arity. `groups` holds each level's products and its sums as (first
    row, child slots, log-weights, None for products), bottom-up. Queries
    keep the model's full width; the circuit reads only the features under
    `top`. Built only from a model that `validate` accepts.

    A pass has two halves. The leaf half (`leaf_log_density`) gives each
    leaf's value on fully observed rows; an observed leaf's value does not
    depend on which other features a query keeps. The internal half
    (`masked_log_density`) sets the leaves that a query's mask marginalizes
    to log 1 = 0 and runs the groups. The explain phase computes the leaf
    values of a searched row, or of a z-score table, once and then only
    masks them. `eval_log_density` turns a NaN query into values and a mask
    and then runs both halves.
    """

    def __init__(self, model: SpnModel, top: int | None = None):
        nodes = model.nodes
        top = model.root if top is None else top
        under = _under(nodes, top)
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
        self.leaf_feature = np.concatenate([self.gauss_feature, self.cat_feature])
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

    def leaf_log_density(self, X: np.ndarray) -> np.ndarray:
        """The leaf half of a pass: each leaf's log-density, one row per
        leaf, on each row of a (rows, n) matrix with no NaN cell and every
        categorical cell a code of its column."""
        out = np.empty((len(self.leaf_feature), len(X)))
        hi = len(self.gauss_feature)
        # -0.5 * z * z - log_sigma - 0.5 * log(2 pi), in place
        z = X.T[self.gauss_feature]
        with np.errstate(over="ignore"):  # a cell far out in a tail reads -inf
            z -= self.mu
            z /= self.sigma
            lp = np.multiply(z, -0.5, out=out[:hi])
            lp *= z
        lp -= self.log_sigma
        lp -= 0.5 * LOG_2PI
        out[hi:] = self.cat_log_probs[self.cat_rows, X.T[self.cat_feature].astype(np.intp)]
        return out

    def masked_log_density(self, leaves: np.ndarray, keep: np.ndarray,
                           counter: EvalCounter | None = None) -> np.ndarray:
        """The internal half of a pass: the root's log-density for a batch
        of queries, each one row of `leaf_log_density` under a boolean mask
        `keep` (batch, n) of the features it keeps. `leaves` (leaves, batch)
        or one row's (leaves, 1) broadcasts against the masks, and a mask of
        one row (1, n) against the rows; a marginalized leaf reads log 1 =
        0. The counter gets one query and one evaluation of every node, a
        masked leaf included, per query. The result is a row of the pass's
        value matrix."""
        observed = keep.T[self.leaf_feature]
        batch = np.broadcast_shapes(observed.shape, leaves.shape)[1]
        if counter is not None:
            counter.add(batch, (self.n_rows - 1) * batch)
        vals = np.empty((self.n_rows, batch))
        vals[-1] = 0.0
        vals[:len(self.leaf_feature)] = np.where(observed, leaves, 0.0)
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


def _compile(model: SpnModel) -> _Circuit:
    """The model's circuit: the one place where a model is validated. A
    model not yet compiled is compiled and cached here, and only if
    `validate` accepts it; otherwise this raises `ValueError("invalid
    model: ...")` listing the issues, and caches nothing."""
    if model._circuit is None:
        issues = validate(model)
        if issues:
            raise ValueError("invalid model: " + "; ".join(issues))
        object.__setattr__(model, "_circuit", _Circuit(model))
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
    observed = ~np.isnan(q)
    if not observed.any(axis=1).all():
        raise ValueError("query marginalizes every feature")
    check_codes(q, model.schema)
    out = circuit.masked_log_density(
        circuit.leaf_log_density(np.where(observed, q, 0.0)), observed, counter)
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
    own sub-circuit, and keeps its leaf values over the rows of X, computed
    on construction, and a memo from the features of S in its scope to its
    values over the rows of X. An entry is filled when a query first needs
    it: it masks the leaf values and runs the sub-circuit's internal half
    over X (sub-circuit size × rows node evaluations), and holds a copy of
    one row of that pass, len(X) floats.
    `log_marginal` adds the children's entries in the root's slot order
    with the circuit's own adds, so the result equals `log_marginal(model,
    X, keep)` bit for bit. The table keeps the row rule of `check_rows`,
    so no cell is marginalized but by the mask; a table that breaks it, or
    has no rows, raises ValueError. A sum root is one child, so there each
    new subspace costs a full pass, and a wide child repeats its subsets
    rarely.
    """

    def __init__(self, model: SpnModel, X):
        X = np.asarray(X, dtype=np.float64)
        _compile(model)
        _check_width(X, model.n_features)
        check_rows(X, model.schema)
        if X.shape[0] == 0:
            raise ValueError("reference table has no rows")
        self.model = model
        root = model.nodes[model.root]
        tops = root.children if isinstance(root, ProductNode) else (model.root,)
        self._children = []  # (sub-circuit, its features, its leaves over X, memo)
        for top in tops:
            circuit = _Circuit(model, top)
            self._children.append((circuit, np.unique(circuit.leaf_feature),
                                   circuit.leaf_log_density(X), {}))

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
        fills, parts = EvalCounter(), []
        for circuit, features, leaves, memo in self._children:
            key = keep[features].tobytes()
            if key not in memo:
                # a copy, so the entry does not keep the pass's whole matrix
                memo[key] = circuit.masked_log_density(leaves, keep[None], fills).copy()
            parts.append(memo[key])
        if counter is not None:
            counter.add(len(parts[0]), fills.node_evals)
        # `_add_slots` adds into the first slot: a copy, not the memo's entry
        return _add_slots([parts[0].copy()] + parts[1:])


# --- serialization -------------------------------------------------------

FORMAT_VERSION = 1


def to_dict(model: SpnModel) -> dict:
    nodes = []
    for i, node in enumerate(model.nodes):
        ntype, fields = _NODE_FIELDS[type(node)]
        nd = {"id": i, "type": ntype}
        for name, kind, item, _ in fields:
            cast, value = _CAST[kind], getattr(node, name)
            nd[name] = cast(value) if item is None else [cast(v) for v in value]
        nodes.append(nd)
    return {"version": FORMAT_VERSION, "schema": columns_to_json(model.schema),
            "root": int(model.root), "nodes": nodes}


def from_dict(doc) -> SpnModel:
    """The model of a model-file document. A `weights` or `probs` sequence
    whose sum misses 1 by more than WEIGHT_TOL but at most LOAD_WEIGHT_TOL
    is renormalized; any other sum is kept, so `validate` judges it. A
    number too large for a float reads as +-inf, which `validate` rejects."""
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
            cls = _NODE_TYPES.get(ntype) if isinstance(ntype, str) else None
            if cls is None:
                raise ModelFormatError(f"{where}: unknown node type {ntype!r}")
            values = []
            for name, kind, item, _ in _NODE_FIELDS[cls][1]:
                cast = _CAST[kind]
                if item is None:
                    values.append(cast(require(nd, name, where, kind)))
                    continue
                seq = [cast(v) for v in require(nd, name, where, list, kind)]
                # renormalize near-misses, keep already-valid sums bit-exact
                total = sum(seq) if name in _NORMALIZED else 1.0
                if WEIGHT_TOL < abs(total - 1.0) <= LOAD_WEIGHT_TOL:
                    seq = [v / total for v in seq]
                values.append(tuple(seq))
            nodes.append(cls(*values))
        model = SpnModel(nodes, root, schema)
    except DataError as exc:
        raise ModelFormatError(str(exc)) from exc
    try:
        _compile(model)
    except ValueError as exc:  # the gate's "invalid model: ..."
        raise ModelFormatError(str(exc)) from exc
    return model


def save_model(model: SpnModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(model), fh)
        fh.write("\n")


def load_model(path: str) -> SpnModel:
    try:
        return from_dict(read_json(path, "model"))
    except DataError as exc:  # the file cannot be read or parsed
        raise ModelFormatError(str(exc)) from exc

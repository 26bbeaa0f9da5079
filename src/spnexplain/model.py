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

from .data import (FINITE, INTEGER, NUMBER, POSITIVE_FINITE, UNIT, Column, _float,
                   check_codes, check_rows, check_shape, columns_from_json,
                   columns_to_json, is_a, read_json, require, write_text)
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


# Each node type's name in a model file and its fields in dataclass order,
# as (field, kind, the name of one item or None for a field that is not a
# sequence, a number rule of `data.py` or None). The model file's writer
# and reader and the field rule read it.
_NODE_FIELDS = {
    SumNode: ("sum", (("children", INTEGER, "child id", None),
                      ("weights", NUMBER, "weight", UNIT))),
    ProductNode: ("product", (("children", INTEGER, "child id", None),)),
    GaussianLeaf: ("gaussian", (("feature", INTEGER, None, None),
                                ("mu", NUMBER, None, FINITE),
                                ("sigma", NUMBER, None, POSITIVE_FINITE))),
    CategoricalLeaf: ("categorical", (("feature", INTEGER, None, None),
                                      ("probs", NUMBER, "probability", UNIT))),
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
    it only reads 0; leaf values that a `TableMarginals` computes once and
    then masks count in each pass that masks them, not when they are
    computed. A table's store is filled by its first read, which adds
    2^W × rows × (circuit nodes) node evaluations and no query for the
    fill; a read from the store adds one query per mask and row and no node
    evaluation. A table without a store reads by passes. A search of a
    block of rows fills its table's store once for the block, and keeps
    one counter per row: each gets its row's queries and its row's part
    of the fill, 2^W × (circuit nodes), as a search of that row alone
    counts them. A search with a beam of one may read a window of its
    steps at once and then keep only some of them (`explain`'s
    `_beam_of_one`): `queries` stays the logical count, the candidates of
    the steps it keeps, and the candidates read past them are physical
    work that neither field counts."""

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
    """The nodes under the root, as `_under` walks them for `validate`'s
    reachability rule, compiled into level-ordered arrays.

    Row r of the value matrix holds one node's log-density for every query
    of a batch: Gaussian leaves first, then categorical leaves, then each
    level's products followed by its sums. One extra row of zeros pads the
    child slots, so the nodes of a group share one gather whatever their
    arity. `groups` holds each level's products and its sums as (first
    row, child slots, log-weights, None for products), bottom-up. Built
    only from a model that `validate` accepts.

    A pass has two halves. The leaf half (`leaf_log_density`) gives each
    leaf's value on fully observed rows; an observed leaf's value does not
    depend on which other features a query keeps. The internal half
    (`masked_log_density`) sets the leaves that a query's mask marginalizes
    to log 1 = 0 and runs the groups. The explain phase computes the leaf
    values of a searched row, or of a z-score table, once in a
    `TableMarginals` and then only masks them. `log_marginal` runs both
    halves on its values and masks, and `eval_log_density` is the
    `log_marginal` of a query under the mask of its non-NaN cells.
    """

    def __init__(self, model: SpnModel):
        nodes, root = model.nodes, model.root
        under = _under(nodes, root)
        level = [0] * len(nodes)
        for i in under:
            if isinstance(nodes[i], (SumNode, ProductNode)):
                level[i] = 1 + max(level[c] for c in nodes[i].children)
        gauss = [i for i in under if isinstance(nodes[i], GaussianLeaf)]
        cats = [i for i in under if isinstance(nodes[i], CategoricalLeaf)]
        inner = [([], []) for _ in range(level[root])]  # (products, sums)
        for i in under:
            if isinstance(nodes[i], (SumNode, ProductNode)):
                inner[level[i] - 1][isinstance(nodes[i], SumNode)].append(i)
        order = gauss + cats + [i for prods, sums in inner for i in prods + sums]
        row = np.empty(len(nodes), dtype=np.intp)
        row[order] = np.arange(len(order))
        self.n_rows = len(order) + 1  # the last row is the zero padding
        self.root = row[root]

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

        # on a root product, for `TableMarginals`: its children's value rows
        # in slot order, a (features, children) matrix that gives each
        # feature 2^(its rank in its child's scope) in its child's column,
        # and the widest child's width W
        self.bits = None
        if isinstance(nodes[root], ProductNode):
            children = nodes[root].children
            self.child_rows = row[list(children)]
            self.bits = np.zeros((model.n_features, len(children)))
            for c, child in enumerate(children):
                scope = sorted({nodes[i].feature for i in _under(nodes, child)
                                if isinstance(nodes[i], (GaussianLeaf, CategoricalLeaf))})
                self.bits[scope, c] = 2.0 ** np.arange(len(scope))
            self.width = int(np.count_nonzero(self.bits, axis=0).max())

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
                           counter: EvalCounter | None = None,
                           rows: np.ndarray | None = None) -> np.ndarray:
        """The internal half of a pass: the root's log-density for a batch
        of queries, each one row of `leaf_log_density` under a boolean mask
        `keep` (batch, n) of the features it keeps. `leaves` (leaves, batch)
        or one row's (leaves, 1) broadcasts against the masks, and a mask of
        one row (1, n) against the rows; a marginalized leaf reads log 1 =
        0. The counter gets one query and one evaluation of every node, a
        masked leaf included, per query. The result is a copy of the root's
        row of the pass's value matrix, so that it does not keep the matrix
        alive, or the value rows `rows` when given."""
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
        return vals[self.root].copy() if rows is None else vals[rows]


def _add_slots(stack: np.ndarray) -> np.ndarray:
    """stack[0] + stack[1] + ... in slot order, never pairwise, so that a
    row's sum does not depend on the rest of its batch. The stack is an
    array whose first axis holds the slots, such as (slots, nodes, batch),
    and its first slot may be overwritten."""
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
    of the sum, which gives log1p(s / m) + log(m) + max. A column whose
    maximum is not finite reads that maximum: -inf when every term is -inf,
    +inf when a term is +inf."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        amax = a.max(axis=0)
        top = a == amax
        m = top.sum(axis=0, dtype=np.float64)
        s = _add_slots(np.exp(np.where(top, -np.inf, a) - amax))
        s = np.where(s == 0, s, s / m)
        return np.where(np.isfinite(amax), np.log1p(s) + np.log(m) + amax, amax)


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


def eval_log_density(model: SpnModel, queries: np.ndarray,
                     counter: EvalCounter | None = None) -> np.ndarray:
    """log p(x_D) for one query (n,) or a batch of queries (rows, n), a
    NaN cell marking a marginalized feature: the `log_marginal` of the
    queries under the mask of their non-NaN cells, which states the query
    rule. A query of another shape breaks the shape rule (`check_shape`)
    and raises ValueError naming the `query`.
    """
    q = np.asarray(queries, dtype=np.float64)
    check_shape(q, model.n_features, "query", (1, 2))
    return log_marginal(model, q, ~np.isnan(q), counter)


def log_marginal(model: SpnModel, x, keep,
                 counter: EvalCounter | None = None):
    """log p(x_S) in nats, where S holds the features that `keep` marks True
    and `x` does not hold as NaN; every other feature is marginalized.

    `x` is one sample (n,) or a matrix of samples (m, n); `keep` is a
    boolean mask (n,) or a stack of masks (k, n). The two broadcast
    against each other, so k subspaces of one sample, or one subspace of
    m samples, are one circuit pass: its leaf half on `x` with each
    marginalized cell set to 0, and its internal half under the masks.
    One bottom-up pass computes each node once per query, and a query's
    result does not depend on the rest of its batch. Returns a scalar for
    a single sample and mask, else one log-density per row.

    The query rule: `keep` is boolean, `x` and `keep` each have n features
    and broadcast to a (rows, n) `query` under the shape rule
    (`check_shape`), every query keeps at least one feature, and every
    kept categorical cell is a code of its column (`check_codes`); a
    marginalized cell is not checked, and an infinite cell reads as far
    out in its leaves' tails. A query that breaks it, or a model that
    `validate` rejects, raises ValueError.
    """
    keep = np.asarray(keep)
    if keep.dtype != bool:
        raise ValueError(f"keep must be a boolean mask, got dtype {keep.dtype}")
    x = np.asarray(x, dtype=np.float64)
    n = model.n_features
    try:
        observed = np.atleast_2d(keep & ~np.isnan(x))
    except ValueError:
        observed = None
    if observed is None or x.shape[-1:] != (n,) or keep.shape[-1:] != (n,):
        raise ValueError(f"x of shape {x.shape} and keep of shape {keep.shape} must each "
                         f"have {n} features and broadcast together")
    circuit = _compile(model)
    values = np.where(observed, x, 0.0)  # 0 is a code of every categorical column
    check_shape(values, n, "query", (2,))
    if not observed.any(axis=1).all():
        raise ValueError("query marginalizes every feature")
    check_codes(values, model.schema)
    out = circuit.masked_log_density(circuit.leaf_log_density(values), observed, counter)
    return out[0] if x.ndim == keep.ndim == 1 else out


def _store_sizes(model: SpnModel, masks: int | None = None) -> np.ndarray | None:
    """2^k of each root child of k features, in slot order, when a
    `TableMarginals` of the model asked `masks` masks a row (n by default)
    keeps a store: on a root product whose widest child's 2^W is below
    `masks`. Otherwise None."""
    circuit = _compile(model)
    if circuit.bits is not None and 2 ** circuit.width < (masks or model.n_features):
        return 2 ** np.count_nonzero(circuit.bits, axis=0)
    return None


def _search_bytes(model: SpnModel, sizes: np.ndarray | None) -> tuple[int, int]:
    """The bytes that a search's `TableMarginals` of the model, of store
    `sizes` (`_store_sizes`, None without a store), holds for one row, and
    that `_gather` holds for one candidate. With a store: 8 a store value
    of the row; a candidate's int32 code of each child, and 16 for the
    gather's sum and addend. Read
    by passes: 8 a leaf value of the row; a candidate's int8 code and
    boolean mask of each feature, its leaf values and the mask of its
    leaves (9 a leaf), its column of the value matrix (8 a node), and the
    most that the pass holds besides at once: the leaf values that it
    copies into the value matrix (8 a leaf), a product group's stack (8 a
    slot), or a sum group's stack with `_logsumexp`'s weighted stack,
    maximum mask and two stacks of shifted terms (33 a slot)."""
    if sizes is not None:
        return 8 * int(sizes.sum()), 4 * len(sizes) + 16
    circuit = _compile(model)
    leaves = len(circuit.leaf_feature)
    widest = max([8 * leaves] + [(8 if log_w is None else 33) * idx.size
                                 for _, idx, log_w in circuit.groups])
    return 8 * leaves, 2 * model.n_features + 9 * leaves + 8 * circuit.n_rows + widest


class TableMarginals:
    """log p(x_S) of every row x of one fixed table X, for many subspaces S:
    the one marginal table of the searches (over the searched rows) and of
    z-score selection (over the reference rows).

    The table has no public read: its one read of masks is `_read`, and
    the searches step through `_search_codes` and `_gather`. The leaf
    values over X are computed on construction, and each read only masks
    them. The marginal of a decomposable product is the sum of its
    children's marginals, each on S ∩ scope(child). So on a root product
    whose widest child has W features, where 2^W is below `masks`, the
    count of masks its caller will ask of a row (n, one selection's worth,
    by default), the first read fills a store of every root child's value
    on every subset of its scope over X: Σ 2^k × rows floats for children
    of k features. The fill runs the circuit's own masked passes, where
    query j keeps, in every child at once, the features whose bit is set in
    j. A read of masks then takes one matmul for their children's codes and
    adds each child's gather into one accumulator in slot order. Otherwise
    (a sum root, or children too wide) each read is one masked pass of the
    leaf values, and nothing is kept. A search does not tell the two
    apart: it carries its hypotheses' codes and steps them a feature at a
    time (`_search_codes`), and `_gather` reads them from the store or by
    one pass. Both equal `log_marginal(model, X, keep)` bit for bit. The
    `table` keeps the row rule of `check_rows` (a (rows, n) table with a
    row, under the shape rule), so no cell is marginalized but by the
    mask; a table that breaks it raises ValueError. The searches build
    their table of the searched samples here, so this is their one check
    of its cells.
    """

    def __init__(self, model: SpnModel, X, masks: int | None = None):
        X = np.asarray(X, dtype=np.float64)
        self._circuit = circuit = _compile(model)
        check_rows(X, model.schema)
        self.model = model
        self._leaves = circuit.leaf_log_density(X)
        self._store = None
        self._sizes = _store_sizes(model, masks)  # 2^k of each child, for a store
        if self._sizes is not None:
            self._offsets = np.cumsum(self._sizes) - self._sizes  # each child's first code

    def _read(self, keep: np.ndarray, counter: EvalCounter | None = None) -> np.ndarray:
        """The log-densities of every row of the table under each mask of
        the stack `keep` (masks, n), as (masks, rows), counted as
        `EvalCounter` states. Unchecked: its callers, z-score selection and
        `subspace_score_stats`, build the boolean masks from subspaces that
        keep the feature-set rule, so each mask keeps a feature."""
        if self._sizes is None:
            return np.array([self._circuit.masked_log_density(self._leaves, k[None], counter)
                             for k in keep])
        if self._store is None:
            self._fill(counter)
        codes = (keep @ self._circuit.bits).astype(np.intp) + self._offsets
        if counter is not None:
            counter.add(len(keep) * self._leaves.shape[1], 0)
        out = self._store[codes[:, 0]]
        for child in codes.T[1:]:  # in slot order, as `_add_slots` adds
            out += self._store[child]
        return out

    def _search_codes(self, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A search's codes of each row under its mask `keep` (rows, n), as
        (slots, rows), and each feature's step of those codes, as (slots,
        n). Flipping feature f into a mask adds its step, and flipping it
        out subtracts it. With a store, a slot is a root child and its code
        the child's index in the flattened store, of the narrowest index
        type that holds it; the store is filled here, uncounted (`_charge`
        counts it). Without one, a slot is a feature, its code the
        feature's keep bit (int8) and its step 1."""
        if self._sizes is None:
            return keep.T.astype(np.int8), np.eye(keep.shape[1], dtype=np.int8)
        if self._store is None:
            self._fill(None)
        rows = self._leaves.shape[1]
        # the narrowest of the two index types, for the search's temporaries
        index = np.int32 if self._store.size <= np.iinfo(np.int32).max else np.intp
        codes = (keep @ self._circuit.bits).astype(index) + self._offsets.astype(index)
        return ((codes * index(rows) + np.arange(rows, dtype=index)[:, None]).T,
                (self._circuit.bits.T * rows).astype(index))

    def _values(self, codes: np.ndarray) -> np.ndarray:
        """Each slot's own term of the search codes `codes` of a store
        table: the store values that `_gather` adds, in their shape."""
        return self._store.take(codes)

    def _gather(self, codes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The log-densities of the candidates whose `_search_codes` are
        `codes` (slots, ...), of the table rows `rows` (one a candidate, in
        their order), in the shape of one slot's codes. With a store, each
        slot's gather is added in slot order: in one gather for a few
        candidates, else a slot at a time, so that no temporary holds every
        slot of every candidate. Without one, one masked pass keeps the
        features whose code is not 0, over the leaf values of the rows."""
        if self._sizes is None:
            keep = (codes != 0).reshape(len(codes), -1).T
            out = self._circuit.masked_log_density(self._leaves[:, rows], keep)
            return out.reshape(codes.shape[1:])
        if codes[0].size <= 512:
            return _add_slots(self._store.take(codes))
        out = self._store.take(codes[0])
        for child in codes[1:]:
            out += self._store.take(child)
        return out

    def _charge(self, counters: list[EvalCounter], queries: list[int]) -> None:
        """Count a search's reads of this table, its own: each row's counter
        gets the row's `queries` and its node evaluations, its part of the
        store's fill (2^W × (circuit nodes), the fill being run once for the
        table) or (circuit nodes) a query read by passes."""
        nodes = self._circuit.n_rows - 1
        for counter, asked in zip(counters, queries):
            counter.add(asked, nodes * (asked if self._sizes is None
                                        else int(self._sizes.max())))

    def _fill(self, counter: EvalCounter | None) -> None:
        """The store, by passes of about max(2^W, rows) queries: one of
        every code for a table of one row, one code of every row for a table
        of 2^W rows or more. A pass of several codes over several rows
        needs one query per code and row, so it tiles the leaf values and
        repeats each code's mask per row."""
        circuit, sizes, rows = self._circuit, self._sizes, self._leaves.shape[1]
        offsets = self._offsets
        self._store = store = np.empty((sizes.sum(), rows))
        weights = circuit.bits.sum(axis=1).astype(np.intp)
        codes = np.arange(sizes.max())
        if counter is not None:
            counter.add(0, (circuit.n_rows - 1) * len(codes) * rows)
        per = max(1, len(codes) // rows)
        for j in np.split(codes, range(per, len(codes), per)):
            keep, leaves = (j[:, None] & weights) != 0, self._leaves
            if len(j) > 1 and rows > 1:
                keep, leaves = np.repeat(keep, rows, axis=0), np.tile(leaves, len(j))
            out = circuit.masked_log_density(leaves, keep, rows=circuit.child_rows)
            kept = j < sizes[:, None]  # a child of k features keeps its codes below 2^k
            store[(offsets[:, None] + j)[kept]] = out.reshape(*kept.shape, rows)[kept]


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
    write_text(path, [json.dumps(to_dict(model)), "\n"])


def load_model(path: str) -> SpnModel:
    try:
        return from_dict(read_json(path, "model"))
    except DataError as exc:  # the file cannot be read or parsed
        raise ModelFormatError(str(exc)) from exc

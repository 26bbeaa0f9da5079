"""Column-typed datasets, CSV/schema I/O, the input-file readers and the
output-file writer, the number rules, the config check, the index,
feature-set and shape rules and the row rule.

A Dataset stores all cells as float64: real columns hold their values
directly, categorical columns hold integer category codes. Every table
that is learned from, explained or explained against keeps the row rule
(`check_rows`): each cell is finite and each categorical cell a code of
its column. NaN is then free to mark a marginalized cell of a query;
`model.log_marginal` sets those cells to 0 before `check_codes` reads the
query, so no NaN reaches that check.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DataError

FLOAT_FMT = ".17g"
INTEGER = (int, np.integer)
NUMBER = (int, float, np.integer, np.floating)
_TYPE_NAMES = {INTEGER: "int", NUMBER: "number", str: "string", list: "list"}


def format_float(x: float) -> str:
    return format(float(x), FLOAT_FMT)


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # "real" | "categorical"
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("real", "categorical"):
            raise DataError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "categorical" and not self.categories:
            raise DataError(f"column {self.name!r}: categorical column needs categories")
        if len(set(self.categories)) < len(self.categories):
            twice = next(c for i, c in enumerate(self.categories)
                         if c in self.categories[:i])
            raise DataError(f"column {self.name!r}: category {twice!r} listed twice")


@dataclass
class Dataset:
    """A table of the columns of `schema`, one float64 row per sample.
    `load_csv` returns tables that keep the row rule (`check_rows`); a
    Dataset built from an array keeps the shape rule (`check_shape`) as
    `dataset`, raising DataError, and its cells are checked where it is
    used."""

    schema: list[Column]
    values: np.ndarray = field(repr=False)  # (n_rows, n_cols) float64

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        check_shape(self.values, len(self.schema), "dataset", (2,), DataError)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return len(self.schema)


def columns_to_json(schema: list[Column]) -> list[dict]:
    """The JSON form of a schema: one {"name", "kind"[, "categories"]} per column."""
    entries = []
    for c in schema:
        entry: dict = {"name": c.name, "kind": c.kind}
        if c.kind == "categorical":
            entry["categories"] = list(c.categories)
        entries.append(entry)
    return entries


def read_text(path: str, what: str) -> str:
    """The text of the file at `path` as UTF-8 without a leading byte order
    mark, line ends kept; every input is read here. A failed read raises
    DataError naming `what` and the path."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise DataError(f"{what} {path} not found: no such file") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def write_text(path: str, chunks: Iterable[str]) -> None:
    """Write the strings `chunks` to the file at `path` as they come, as
    UTF-8 with every character, line ends too, as given; every output file
    but the CSV (`save_csv`) is written here."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)


def _parse_json(text: str, where: str, line: int = 1):
    """The JSON document `text`, which starts on line `line` of `where`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{where}:{line + exc.lineno - 1}: not valid JSON: "
                        f"{exc.msg}") from exc
    except RecursionError as exc:
        raise DataError(f"{where}:{line}: not valid JSON: nested too deeply") from exc


def read_json(path: str, what: str):
    """The JSON document in the file at `path`."""
    return _parse_json(read_text(path, what), f"{what} {path}")


def read_json_lines(path: str, what: str) -> list:
    """The JSON documents on the non-blank lines of the file at `path`."""
    lines = io.StringIO(read_text(path, what), newline=None)
    return [_parse_json(line, f"{what} {path}", i)
            for i, line in enumerate(lines, start=1) if line.strip()]


def is_a(value, kind) -> bool:
    """isinstance, except that a bool (a JSON true or false, too) is no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _float(v) -> float:
    """v as a float; an int too large for one reads as +-inf, as json reads
    1e400."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


# The number rules of config and model-file fields: each is a test on a
# number read through `_float`, and what a number that fails it is. A config
# error reads the field's name and the text, "{value}" in it the number; a
# model-file issue puts the number between them.
UNIT = (lambda x: 0.0 < x <= 1.0, "outside (0,1]")
OPEN_UNIT = (lambda x: 0.0 < x < 1.0, "must be in (0,1), got {value}")
FINITE = (math.isfinite, "not finite")
POSITIVE = (lambda x: x > 0.0, "must be positive")
POSITIVE_FINITE = (lambda x: 0.0 < x < math.inf, "must be positive and finite")


def check_config(config) -> None:
    """Check each field of the config dataclass `config` against its
    declaration; ValueError names the first field that fails. The
    annotation (a string, under `from __future__ import annotations`) gives
    the kind: `int` is an INTEGER and `float` a NUMBER under `is_a`, and
    `| None` admits None too. The field's "rule" metadata gives the values:
    the least value of a count, the choices of a `str` (checked against
    them alone), or a number rule of this module."""
    for f in fields(config):
        name, value, rule = f.name, getattr(config, f.name), f.metadata.get("rule")
        kind, _, optional = f.type.partition(" | ")
        if value is None and optional:
            continue
        if kind == "str":
            if value not in rule:
                raise ValueError(f"unknown {name} {value!r}")
        elif not is_a(value, INTEGER if kind == "int" else NUMBER):
            what = "an integer" if kind == "int" else "a number"
            raise ValueError(f"{name} must be {what}, got {value!r}")
        elif rule is None:
            continue
        elif kind == "int" and value < rule:
            raise ValueError(f"{name} must be >= {rule}")
        elif kind == "float" and not rule[0](_float(value)):
            raise ValueError(f"{name} " + rule[1].format(value=value))


def check_index(value, count: int, what: str, error=ValueError) -> None:
    """The index rule: `value` is an integer (a bool is not) in
    0..count-1. Every row or feature index read from a caller or a file
    keeps it; `error` is raised naming `what` and the value, or saying that
    the table is empty when `count` is 0."""
    if not is_a(value, INTEGER):
        raise error(f"{what} {value!r} is not an integer")
    if not 0 <= value < count:
        raise error(f"{what} {value} outside {f'0..{count - 1}' if count else 'an empty table'}")


def check_shape(X: np.ndarray, count: int, what: str, ndims: tuple[int, ...],
                error=ValueError) -> None:
    """The shape rule: X is a vector (count,) or a table (rows, count), as
    the dimensions `ndims` admit. Every sample, table, query and mask given
    by a caller keeps it; `error` names `what`, its shape and the forms
    admitted."""
    if X.ndim not in ndims or X.shape[-1:] != (count,):
        forms = {1: f"({count},)", 2: f"(rows, {count})"}
        raise error(f"{what} has shape {X.shape}, expected "
                    + " or ".join(forms[d] for d in ndims))


def check_features(features, count: int, what: str, error=ValueError) -> None:
    """The feature-set rule: the sequence `features` holds at least one
    feature, each an index of `count` features under the index rule, and
    none twice; `error` names `what`, the set and the first bad entry."""
    if not (len(features) and all(is_a(d, INTEGER) and 0 <= d < count for d in features)
            and len(set(features)) == len(features)):  # only then locate the fault
        where = f"{what} {features}"
        if not len(features):
            raise error(f"{where} is empty")
        for i, d in enumerate(features):
            check_index(d, count, f"{where}: feature", error)
            if d in features[:i]:
                raise error(f"{where} repeats feature {d}")


def fold_seed(seed) -> int:
    """A Python or numpy integer seed as a Python int in [0, 2**63)."""
    return int(seed) % (1 << 63)


def require(doc, key: str, where: str, kind=object, item=None):
    """doc[key] of the JSON object doc, checked to be a `kind` (a list of
    `item`s if `item` is given); errors name `where`."""
    if not isinstance(doc, dict):
        raise DataError(f"{where}: expected an object")
    if key not in doc:
        raise DataError(f"{where}: missing field {key!r}")
    value = doc[key]
    if (kind is not object and not is_a(value, kind)) or (
            item is not None and not all(is_a(v, item) for v in value)):
        expected = _TYPE_NAMES[kind] if item is None else f"list of {_TYPE_NAMES[item]}"
        raise DataError(f"{where}: field {key!r} must be of type {expected}")
    return value


def columns_from_json(entries: list, where: str) -> list[Column]:
    """Parse the JSON form of a schema; errors name `where[i]`."""
    cols = []
    for i, c in enumerate(entries):
        at = f"{where}[{i}]"
        name = require(c, "name", at, str)
        categories = require(c, "categories", at, list, str) if "categories" in c else []
        try:
            cols.append(Column(name, require(c, "kind", at), tuple(categories)))
        except DataError as exc:
            raise DataError(f"{at}: {exc}") from exc
    return cols


def load_schema(path: str) -> list[Column]:
    columns = require(read_json(path, "schema"), "columns", f"schema {path}", list)
    return columns_from_json(columns, f"schema {path}: columns")


def load_csv(path: str, schema: list[Column] | None = None) -> Dataset:
    """Load a header-ed CSV, encoded with `schema` or with inferred kinds.

    With a schema the header must match its column names, real cells
    must parse as numbers, and categorical cells must be among the
    schema's categories, coded by their position there. A number is what
    Python's `float` reads, and finite. Without a schema a column is real
    iff every cell is a number; otherwise it is categorical with
    categories in first-appearance order. The text is tokenized once, which
    also records the file line each record starts on, and the table is
    decoded by column. Errors name that line of the offending record: the
    first ragged row or empty cell in file order, else the first bad cell
    of the leftmost column that has one.
    """
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
    header, rows, lines = records[0], records[1:], starts[1:-1]
    ragged = bool(set(map(len, rows)) - {len(header)})
    columns = [] if ragged else list(zip(*rows))
    if ragged or any("" in cells for cells in columns):
        _raise_first_fault(path, header, rows, lines)
    if not rows:
        raise DataError(f"{path}: no data rows")
    if schema is not None:
        names = [c.name for c in schema]
        if names != header:
            raise DataError(
                f"{path}: header {header} does not match schema columns {names}"
            )

    encoded: list[Column] = []
    values = np.empty((len(rows), len(header)), dtype=np.float64)
    for j, (name, cells) in enumerate(zip(header, columns)):
        col = schema[j] if schema is not None else None
        parsed = _parse_reals(cells) if col is None or col.kind == "real" else None
        if col is None:
            col = (Column(name, "real") if parsed is not None
                   else Column(name, "categorical", tuple(dict.fromkeys(cells))))
        if col.kind == "real":
            if parsed is None:
                i = next(i for i, c in enumerate(cells) if _parse_reals((c,)) is None)
                raise DataError(
                    f"{path}:{lines[i]}: column {name!r} declared real "
                    f"but cell {cells[i]!r} is not numeric"
                )
            values[:, j] = parsed
        else:
            index = {c: k for k, c in enumerate(col.categories)}
            codes = list(map(index.get, cells))
            if None in codes:
                i = codes.index(None)
                raise DataError(
                    f"{path}:{lines[i]}: value {cells[i]!r} not among "
                    f"declared categories of column {name!r}"
                )
            values[:, j] = codes
        encoded.append(col)
    return Dataset(encoded, values)


def check_rows(X: np.ndarray, schema: list[Column], what: str = "table") -> None:
    """The row rule: X is a table (rows, n) of the n columns of `schema`
    under the shape rule (`check_shape`), with a row and a column, every
    cell a finite number and every cell of a categorical column a code
    0..k-1 of its k categories. `load_csv` keeps it by construction;
    `learn_spn` and `detect` check their dataset here, and `TableMarginals`
    its table (the searches' table of one sample too). A query keeps only
    the code half (`check_codes`), on its values with every marginalized
    cell set to 0. ValueError names `what`, or the first bad cell, a cell
    of a table of one row as the sample's."""
    check_shape(X, len(schema), what, (2,))
    if not X.size:
        raise ValueError(f"{what} has no {'columns' if len(X) else 'rows'}")
    if not np.isfinite(X).all():  # only then locate the first bad cell
        i, j = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"{_cell(X, i, j)} (column {schema[j].name!r}) is not finite")
    check_codes(X, schema)


def check_codes(X: np.ndarray, schema: list[Column]) -> None:
    """Raise ValueError unless every cell of a categorical column of the
    table X is a code 0..k-1 of the column's k categories. A NaN cell is
    not a code; callers pass no NaN (`check_rows` rejects it first, and a
    query sets its marginalized cells to 0)."""
    cats = [j for j, c in enumerate(schema) if c.kind == "categorical"]
    vals = X[:, cats]
    sizes = [len(schema[j].categories) for j in cats]
    bad = (vals != np.floor(vals)) | (vals < 0) | (vals >= sizes)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise ValueError(f"categorical value out of range for column "
                         f"{schema[cats[k]].name!r}: {_cell(X, i, cats[k])}")


def _cell(X: np.ndarray, i: int, j: int) -> str:
    """'<where> value <v> of feature j' for the cell (i, j) of the table X:
    of row i, or of the sample when X has one row."""
    v = X[i, j]
    where = "sample" if len(X) == 1 else f"row {i}"
    return f"{where} value {'NaN' if np.isnan(v) else repr(float(v))} of feature {j}"


def _parse_reals(cells: tuple[str, ...]) -> np.ndarray | None:
    """The cells as float64, or None if one of them is not a number. "nan"
    and "inf" are not numbers: NaN is the marginalization sentinel and must
    never enter via data."""
    try:
        parsed = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        return None
    return parsed if np.isfinite(parsed).all() else None


def _raise_first_fault(path: str, header: list[str], rows: list[list[str]],
                       lines: list[int]) -> None:
    """Raise DataError for the first ragged row or empty cell in file order."""
    for lineno, row in zip(lines, rows):
        if len(row) != len(header):
            raise DataError(
                f"{path}:{lineno}: ragged row, {len(row)} cells but {len(header)} columns"
            )
        for j, cell in enumerate(row):
            if cell == "":
                raise DataError(
                    f"{path}:{lineno}: missing value in column {header[j]!r} (index {j})"
                )


def save_csv(dataset: Dataset, path: str) -> None:
    """Write the table as CSV, opened as `write_text` opens a file: the
    `csv` writer streams into it and ends each line with CR LF."""
    columns = [[format(v, FLOAT_FMT) for v in values.tolist()] if col.kind == "real"
               else [col.categories[int(v)] for v in values.tolist()]
               for col, values in zip(dataset.schema, dataset.values.T)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in dataset.schema])
        # a table without columns still writes one empty line per row
        writer.writerows(zip(*columns) if columns else [()] * dataset.n_rows)

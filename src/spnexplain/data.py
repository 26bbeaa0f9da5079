"""Column-typed datasets, CSV/schema I/O, input-file readers, the number
rule and the row rule.

A Dataset stores all cells as float64: real columns hold their values
directly, categorical columns hold integer category codes. Every table
that is learned from, explained or explained against keeps the row rule
(`check_rows`): each cell is finite and each categorical cell a code of
its column. NaN is then free to mark a marginalized cell of a query.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

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
    Dataset built from an array is checked where it is used."""

    schema: list[Column]
    values: np.ndarray = field(repr=False)  # (n_rows, n_cols) float64

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.schema):
            raise DataError("dataset matrix shape does not match schema")

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


def check_fields(config, kind, *names: str) -> None:
    """Raise ValueError naming the first of the fields `names` of `config`
    that is not a `kind` (INTEGER or NUMBER) under `is_a`."""
    for name in names:
        value = getattr(config, name)
        if not is_a(value, kind):
            what = "an integer" if kind is INTEGER else "a number"
            raise ValueError(f"{name} must be {what}, got {value!r}")


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
    categories in first-appearance order. The table is decoded by column.
    Errors name the file line of the offending record: the first ragged
    row or empty cell in file order, else the first bad cell of the
    leftmost column that has one.
    """
    text = read_text(path, "data")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        records = list(reader)
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    if not records:
        raise DataError(f"{path}: empty file, expected a header row")
    header, rows = records[0], records[1:]
    ragged = bool(set(map(len, rows)) - {len(header)})
    columns = [] if ragged else list(zip(*rows))
    if ragged or any("" in cells for cells in columns):
        _raise_first_fault(path, header, rows, _record_lines(text))
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
                    f"{path}:{_record_lines(text)[i]}: column {name!r} declared real "
                    f"but cell {cells[i]!r} is not numeric"
                )
            values[:, j] = parsed
        else:
            index = {c: k for k, c in enumerate(col.categories)}
            codes = list(map(index.get, cells))
            if None in codes:
                i = codes.index(None)
                raise DataError(
                    f"{path}:{_record_lines(text)[i]}: value {cells[i]!r} not among "
                    f"declared categories of column {name!r}"
                )
            values[:, j] = codes
        encoded.append(col)
    return Dataset(encoded, values)


def check_rows(X: np.ndarray, schema: list[Column]) -> None:
    """The row rule: every cell of X, one sample (n,) or a table (m, n) of
    the n columns of `schema`, is a finite number, and every cell of a
    categorical column is a code 0..k-1 of its k categories. `load_csv`
    keeps it by construction; `learn_spn`, the searches, `TableMarginals`
    and `detect` check their rows here. A query keeps only the code
    half (`check_codes`), where NaN marks a marginalized cell. ValueError
    names the first bad cell."""
    if not np.isfinite(X).all():  # only then locate the first bad cell
        i, j = np.argwhere(~np.isfinite(np.atleast_2d(X)))[0]
        raise ValueError(f"{_cell(X, i, j)} (column {schema[j].name!r}) is not finite")
    check_codes(X, schema)


def check_codes(X: np.ndarray, schema: list[Column]) -> None:
    """Raise ValueError unless every cell of a categorical column of X (a
    sample or a table) is NaN or a code 0..k-1 of the column's k categories."""
    cats = [j for j, c in enumerate(schema) if c.kind == "categorical"]
    vals = X[..., cats]
    sizes = [len(schema[j].categories) for j in cats]
    bad = ~np.isnan(vals) & ((vals != np.floor(vals)) | (vals < 0) | (vals >= sizes))
    if bad.any():
        i, k = np.argwhere(np.atleast_2d(bad))[0]
        raise ValueError(f"categorical value out of range for column "
                         f"{schema[cats[k]].name!r}: {_cell(X, i, cats[k])}")


def _cell(X: np.ndarray, i: int, j: int) -> str:
    """'<where> value <v> of feature j' for the cell (i, j) of X: of row i
    of a table, or of a sample (n,) when i is 0."""
    v = np.atleast_2d(X)[i, j]
    where = "sample" if X.ndim == 1 else f"row {i}"
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


def _record_lines(text: str) -> list[int]:
    """The file line that each data record of the CSV `text` starts on."""
    reader = csv.reader(io.StringIO(text, newline=""))
    starts = [1]
    for _ in reader:
        starts.append(reader.line_num + 1)
    return starts[1:-1]


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
    columns = [[format(v, FLOAT_FMT) for v in values.tolist()] if col.kind == "real"
               else [col.categories[int(v)] for v in values.tolist()]
               for col, values in zip(dataset.schema, dataset.values.T)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in dataset.schema])
        # a table without columns still writes one empty line per row
        writer.writerows(zip(*columns) if columns else [()] * dataset.n_rows)

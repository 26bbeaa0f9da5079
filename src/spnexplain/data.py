"""Column-typed tabular datasets, CSV/schema I/O, and the input-file readers.

A Dataset stores all cells as float64: real columns hold their values
directly, categorical columns hold integer category codes. Missing
values are rejected at load time so NaN can safely serve as the
"marginalized" sentinel during inference.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

FLOAT_FMT = ".17g"
NUMBER = (int, float)
_TYPE_NAMES = {int: "int", NUMBER: "number", str: "string", list: "list"}


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


@dataclass
class Dataset:
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


def _parse_real(cell: str) -> float | None:
    try:
        v = float(cell)
    except ValueError:
        return None
    # "nan"/"inf" strings count as non-numeric: NaN is the marginalization
    # sentinel and must never enter via data.
    if math.isnan(v) or math.isinf(v):
        return None
    return v


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
    """The text of the file at `path` as UTF-8, line ends kept; every input is
    read here. A failed read raises DataError naming `what` and the path."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
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


def _json_is(value, kind) -> bool:
    """isinstance, but a JSON true or false, loaded as a bool, is no int."""
    return isinstance(value, kind) and not isinstance(value, bool)


def require(doc, key: str, where: str, kind=object, item=None):
    """doc[key] of the JSON object doc, checked to be a `kind` (a list of
    `item`s if `item` is given); errors name `where`."""
    if not isinstance(doc, dict):
        raise DataError(f"{where}: expected an object")
    if key not in doc:
        raise DataError(f"{where}: missing field {key!r}")
    value = doc[key]
    if (kind is not object and not _json_is(value, kind)) or (
            item is not None and not all(_json_is(v, item) for v in value)):
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


def save_schema(schema: list[Column], path: str) -> None:
    with open(path, "w") as fh:
        json.dump({"columns": columns_to_json(schema)}, fh, indent=2)
        fh.write("\n")


def load_csv(path: str, schema: list[Column] | None = None) -> Dataset:
    """Load a header-ed CSV, encoded with `schema` or with inferred kinds.

    With a schema the header must match its column names, real cells
    must parse as numbers, and categorical cells must be among the
    schema's categories, coded by their position there. Without one a
    column is real iff every cell parses as a decimal number; otherwise
    it is categorical with categories in first-appearance order.
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
        parsed = ([_parse_real(c) for c in cells]
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


def save_csv(dataset: Dataset, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in dataset.schema])
        for row in dataset.values:
            out = []
            for col, v in zip(dataset.schema, row):
                if col.kind == "real":
                    out.append(format_float(v))
                else:
                    out.append(col.categories[int(v)])
            writer.writerow(out)

"""Column-typed tabular datasets and CSV/schema I/O.

A Dataset stores all cells as float64: real columns hold their values
directly, categorical columns hold integer category codes. Missing
values are rejected at load time so NaN can safely serve as the
"marginalized" sentinel during inference.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

FLOAT_FMT = ".17g"


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


def json_is(value, kind) -> bool:
    """isinstance for a value loaded from JSON, where true and false load as
    Python bools, which isinstance would count as the integers 1 and 0."""
    return isinstance(value, kind) and not isinstance(value, bool)


def columns_from_json(entries, where: str) -> list[Column]:
    """Parse the JSON form of a schema; errors name `where[i]`."""
    if not isinstance(entries, list):
        raise DataError(f"{where}: expected a list of column objects")
    cols = []
    for i, c in enumerate(entries):
        at = f"{where}[{i}]"
        if not (isinstance(c, dict) and isinstance(c.get("name"), str)):
            raise DataError(f"{at}: needs an object with a string 'name'")
        categories = c.get("categories", [])
        if not (isinstance(categories, list)
                and all(isinstance(v, str) for v in categories)):
            raise DataError(f"{at}: 'categories' must be a list of strings")
        try:
            cols.append(Column(c["name"], c.get("kind"), tuple(categories)))
        except DataError as exc:
            raise DataError(f"{at}: {exc}") from exc
    return cols


def load_schema(path: str) -> list[Column]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read schema {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"schema {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "columns" not in doc:
        raise DataError(f"schema {path}: expected an object with a 'columns' list")
    return columns_from_json(doc["columns"], f"schema {path}: columns")


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
    if not os.path.exists(path):
        raise DataError(f"cannot read {path}: no such file")
    try:
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: empty file, expected a header row")
    header, rows = lines[0], lines[1:]
    for lineno, row in enumerate(rows, start=2):
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
                    f"{path}:{i + 2}: column {name!r} declared real "
                    f"but cell {cells[i]!r} is not numeric"
                )
            values[:, j] = parsed
        else:
            index = {c: k for k, c in enumerate(col.categories)}
            codes = [index.get(c) for c in cells]
            if None in codes:
                i = codes.index(None)
                raise DataError(
                    f"{path}:{i + 2}: value {cells[i]!r} not among declared "
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

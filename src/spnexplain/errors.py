"""The package's exceptions for bad input.

The CLI maps these onto process exit codes: DataError -> 3,
ModelFormatError -> 4; a ValueError (a usage error) exits 2.
"""


class DataError(Exception):
    """Malformed or inconsistent input data (CSV, schema, labels)."""


class ModelFormatError(Exception):
    """Malformed, invalid, or structurally unsound model document."""

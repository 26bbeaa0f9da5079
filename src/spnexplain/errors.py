"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: DataError -> 3,
ModelFormatError -> 4; a ValueError (a usage error) exits 2.
"""


class SpnExplainError(Exception):
    pass


class DataError(SpnExplainError):
    """Malformed or inconsistent input data (CSV, schema, labels)."""


class ModelFormatError(SpnExplainError):
    """Malformed, invalid, or structurally unsound model document."""

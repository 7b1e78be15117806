"""`MatrixError` and the table check, nothing else.

The kernels on Python code rows (in `cutrank`, `transform` and `terms`) do
their arithmetic through the field's lookup tables (`Field.ADD`, `SUB`,
`MUL`, `INV` and `NEG`, nested tuples).  Fields of order > 256 have none,
and `_require_tables` raises MatrixError for them.  The numpy oracles that
the kernels are checked against live in the tests.
"""

from __future__ import annotations

from .fields import Field


class MatrixError(ValueError):
    """Dimension violations, or a field without tables."""


def _require_tables(field: Field):
    if field.MUL is None:
        raise MatrixError(f"matrices over {field!r} (order > 256) are unsupported")

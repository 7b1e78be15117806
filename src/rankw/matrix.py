"""Table arithmetic for matrices over a finite field.

Entries are element codes; all arithmetic goes through the field's lookup
tables (`Field.ADD`, `SUB`, `MUL`, `INV` and `NEG`, nested tuples that the
kernels on Python code rows read directly), and fields of order > 256 have
none (MatrixError).  The numpy oracles that the kernels are checked against
live in the tests.
"""

from __future__ import annotations

from .fields import Field


class MatrixError(ValueError):
    """Dimension violations, or a field without tables."""


def _require_tables(field: Field):
    if field.MUL is None:
        raise MatrixError(f"matrices over {field!r} (order > 256) are unsupported")

"""Table arithmetic for matrices over a finite field, and the numpy oracles.

Entries are element codes; all arithmetic goes through the field's lookup
tables (`Field.ADD`, `SUB`, `MUL`, `INV` and `NEG`, nested tuples that the
kernels on Python code rows read directly), and fields of order > 256 have
none (MatrixError).

The numpy oracles live here and import numpy inside the function: `rank_of`
(Gaussian elimination, the reference the faster rank kernels are checked
against), `fmatmul`, and `np_tables`, the field's tables as uint16 arrays
for both.  Outside this module only the `adj` and `np_table` properties and
`selfcheck` touch numpy.
"""

from __future__ import annotations

from functools import lru_cache

from .fields import Field


class MatrixError(ValueError):
    """Dimension violations, or a field without tables."""


def _require_tables(field: Field):
    if field.MUL is None:
        raise MatrixError(f"matrices over {field!r} (order > 256) are unsupported")


@lru_cache(maxsize=None)
def np_tables(field: Field):
    """ADD, SUB, MUL, INV and NEG of a field with tables, as read-only numpy
    uint16 arrays (a field of order > 256 raises MatrixError)."""
    import numpy as np
    _require_tables(field)
    tables = tuple(np.array(t, dtype=np.uint16)
                   for t in (field.ADD, field.SUB, field.MUL, field.INV, field.NEG))
    for a in tables:
        a.flags.writeable = False
    return tables


def rank_of(a, field: Field) -> int:
    """Rank over the field by Gaussian elimination, first-nonzero pivots."""
    import numpy as np
    _, SUB, MUL, INV, _ = np_tables(field)
    m, n = a.shape
    if m == 0 or n == 0:
        return 0
    a = a.astype(np.uint16, copy=True)
    rank = 0
    for col in range(n):
        piv = -1
        for i in range(rank, m):
            if a[i, col]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        prow = a[rank]
        piv_inv = INV[prow[col]]
        for i in range(rank + 1, m):
            e = a[i, col]
            if e:
                a[i] = SUB[a[i], MUL[MUL[e, piv_inv], prow]]
        rank += 1
        if rank == m:
            break
    return rank


def fmatmul(a, b, field: Field):
    """Matrix product over the field (handles empty inner dimension)."""
    import numpy as np
    ADD, _, MUL, _, _ = np_tables(field)
    if a.shape[1] != b.shape[0]:
        raise MatrixError(f"dimension mismatch {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint16)
    for t in range(a.shape[1]):
        out = ADD[out, MUL[a[:, t][:, None], b[t, :][None, :]]]
    return out

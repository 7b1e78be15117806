"""Table arithmetic for matrices over a finite field.

Entries are element codes; all arithmetic goes through the field's lookup
tables, and fields of order > 256 have none (MatrixError).  Two forms:

    numpy uint16 arrays   `rank_of` (Gaussian elimination, the oracle the
                          faster rank kernels are checked against) and
                          `fmatmul`;
    nested tuples         `_field_tables`: ADD, SUB, MUL, INV and NEG for
                          eliminations over Python code rows (the cut-rank
                          kernels, the closure engine, the term compiler).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import Field


class MatrixError(ValueError):
    """Dimension violations, or a field without tables."""


def _require_tables(field: Field):
    if field.MUL is None:
        raise MatrixError(f"matrices over {field!r} (order > 256) are unsupported")


@lru_cache(maxsize=None)
def _field_tables(F: Field):
    """ADD, SUB, MUL, INV and NEG of a field with tables, as nested tuples
    (a field of order > 256 raises MatrixError)."""
    _require_tables(F)
    return (tuple(map(tuple, F.ADD.tolist())), tuple(map(tuple, F.SUB.tolist())),
            tuple(map(tuple, F.MUL.tolist())), tuple(F.INV.tolist()),
            tuple(F.NEG.tolist()))


def rank_of(a: np.ndarray, field: Field) -> int:
    """Rank over the field by Gaussian elimination, first-nonzero pivots."""
    _require_tables(field)
    m, n = a.shape
    if m == 0 or n == 0:
        return 0
    a = a.astype(np.uint16, copy=True)
    SUB, MUL, INV = field.SUB, field.MUL, field.INV
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


def fmatmul(a: np.ndarray, b: np.ndarray, field: Field) -> np.ndarray:
    """Matrix product over the field (handles empty inner dimension)."""
    _require_tables(field)
    if a.shape[1] != b.shape[0]:
        raise MatrixError(f"dimension mismatch {a.shape} x {b.shape}")
    ADD, MUL = field.ADD, field.MUL
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint16)
    for t in range(a.shape[1]):
        out = ADD[out, MUL[a[:, t][:, None], b[t, :][None, :]]]
    return out

"""Dense matrices over a finite field with exact rank, sub-matrix extraction,
and entrywise sesqui-morphism application.

Entries are element codes in a numpy uint16 array; all arithmetic goes through
the field's lookup tables (fields of order > 256 have no tables and are not
supported for matrix work).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fields import Field, FieldError, Sesquimorphism


class MatrixError(ValueError):
    """Dimension/label violations in matrix operations."""


def _require_tables(field: Field):
    if field.MUL is None:
        raise MatrixError(f"matrices over {field!r} (order > 256) are unsupported")


def _as_array(field: Field, entries, shape) -> np.ndarray:
    a = np.asarray(entries, dtype=np.uint16).reshape(shape)
    if a.size and int(a.max(initial=0)) >= field.q:
        raise FieldError("entry is not a valid element code of the field")
    return a


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


class FMatrix:
    """A matrix over a Field with labeled row/column index sets."""

    __slots__ = ("field", "rows", "cols", "a")

    def __init__(self, field: Field, rows: Sequence, cols: Sequence, entries):
        self.field = field
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        self.a = _as_array(field, entries, (len(self.rows), len(self.cols)))
        self.a.flags.writeable = False

    @classmethod
    def zeros(cls, field: Field, rows, cols) -> "FMatrix":
        rows, cols = tuple(rows), tuple(cols)
        return cls(field, rows, cols, np.zeros((len(rows), len(cols)), dtype=np.uint16))

    @classmethod
    def identity(cls, field: Field, labels) -> "FMatrix":
        labels = tuple(labels)
        return cls(field, labels, labels, np.eye(len(labels), dtype=np.uint16))

    @property
    def shape(self):
        return self.a.shape

    def rank(self) -> int:
        return rank_of(self.a, self.field)

    def _row_idx(self, X) -> list[int]:
        pos = {r: i for i, r in enumerate(self.rows)}
        try:
            return [pos[x] for x in X]
        except KeyError as exc:
            raise MatrixError(f"unknown row label {exc.args[0]!r}") from None

    def _col_idx(self, Y) -> list[int]:
        pos = {c: i for i, c in enumerate(self.cols)}
        try:
            return [pos[y] for y in Y]
        except KeyError as exc:
            raise MatrixError(f"unknown column label {exc.args[0]!r}") from None

    def submatrix(self, X, Y) -> "FMatrix":
        X, Y = tuple(X), tuple(Y)
        ri, ci = self._row_idx(X), self._col_idx(Y)
        sub = self.a[np.ix_(ri, ci)] if ri and ci else \
            np.zeros((len(ri), len(ci)), dtype=np.uint16)
        return FMatrix(self.field, X, Y, sub)

    def transpose(self) -> "FMatrix":
        return FMatrix(self.field, self.cols, self.rows, self.a.T)

    def apply_sigma(self, sigma: Sesquimorphism) -> "FMatrix":
        if sigma.field != self.field:
            raise MatrixError("sesqui-morphism field mismatch")
        return FMatrix(self.field, self.rows, self.cols, sigma.np_table[self.a])

    def add(self, other: "FMatrix") -> "FMatrix":
        self._same_field(other)
        if self.shape != other.shape:
            raise MatrixError(f"dimension mismatch {self.shape} + {other.shape}")
        return FMatrix(self.field, self.rows, self.cols, self.field.ADD[self.a, other.a])

    def mul(self, other: "FMatrix") -> "FMatrix":
        self._same_field(other)
        return FMatrix(self.field, self.rows, other.cols,
                       fmatmul(self.a, other.a, self.field))

    def scale(self, c: int) -> "FMatrix":
        self.field._check(c)
        return FMatrix(self.field, self.rows, self.cols, self.field.MUL[c, self.a])

    def _same_field(self, other: "FMatrix"):
        if self.field != other.field:
            raise MatrixError("matrices live over different fields")

    def __eq__(self, other):
        if not isinstance(other, FMatrix):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and np.array_equal(self.a, other.a))

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.a.tobytes()))

    def __repr__(self):
        return f"FMatrix({self.field!r}, {len(self.rows)}x{len(self.cols)})"

    # matrix literal used in term files: [r c; e00 e01 ...; e10 ...]
    def to_literal(self) -> str:
        m, n = self.shape
        body = "".join("; " + " ".join(str(int(e)) for e in row) for row in self.a)
        return f"[{m} {n}{body or ';'}]"


def matrix_from_literal(field: Field, text: str, rows=None, cols=None) -> FMatrix:
    """Parse `[r c; e00 e01 ...; e10 ...]` (rows may be empty for 0-size)."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise MatrixError(f"bad matrix literal {text!r}")
    parts = [p.strip() for p in text[1:-1].split(";")]
    try:
        m, n = (int(t) for t in parts[0].split())
    except ValueError:
        raise MatrixError(f"bad matrix header in {text!r}") from None
    body = [p for p in parts[1:] if p]
    if n == 0 or m == 0:
        if any(body):
            raise MatrixError(f"zero-size matrix with entries in {text!r}")
        data = np.zeros((m, n), dtype=np.uint16)
        return FMatrix(field, rows if rows is not None else range(m),
                       cols if cols is not None else range(n), data)
    if len(body) != m:
        raise MatrixError(f"expected {m} rows in {text!r}")
    entries = []
    for rowtext in body:
        row = [int(t) for t in rowtext.split()]
        if len(row) != n:
            raise MatrixError(f"expected {n} entries per row in {text!r}")
        entries.append(row)
    data = np.array(entries, dtype=np.uint16) if entries else \
        np.zeros((m, n), dtype=np.uint16)
    return FMatrix(field, rows if rows is not None else range(m),
                   cols if cols is not None else range(n), data)

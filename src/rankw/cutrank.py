"""Cut-rank and bi-cut-rank of vertex bipartitions, plus the connectivity
function of the partitioned linear matroid on (I | M_G), evaluated cut-wise.

A CutFunction memoizes values by bitmask over the graph's vertex order; the
three kinds are

    cutrk(X)   = rk M[X][V\\X]                       (sigma-symmetric only)
    bicutrk(X) = rk M[X][V\\X] + rk M[V\\X][X]
    lambda(X)  = connectivity of {P_x : x in X} in the matroid on (I | M_G)
                 with P_x = {x, x'}; equals bicutrk(X) + 1.

Each is a rank of rows packed once per CutFunction on the first cut with
both sides nonempty, so a cut copies no sub-matrix.  cutrk and bicutrk read
the rows of the graph's code tuple; lambda is r(X u X') + r(Y u Y') - n + 1,
r(S u S') the rank of the rows e_x and M[:, x] (x in S) among the 2n rows
of (I | M)^T, since r(V u V') = n.  The field order picks the kernel:

    GF(2)                each row is packed into an int (bit j = entry j);
                         M[X][V\\X] is the rows R[i] & ~X for i in X,
                         M[V\\X][X] the rows R[i] & X for i outside X, and
                         a rank is the size of an XOR basis;
    other orders <= 256  rows are tuples of element codes, eliminated with
                         the field's SUB/MUL/INV tables;
    orders > 256         no tables: the first such cut raises MatrixError.

Rows are found by walking the set bits of X.  cutrk eliminates the smaller
side: M[V\\X][X] = sigma(M[X][V\\X])^T has the same rank, since sigma is
sigma(1) times a field automorphism.  No kind loads numpy; the tests check
cutrk and bicutrk against the numpy `rank_of` of their oracles, and lambda,
a rank of other rows, against bicutrk + 1.  Masks are taken through
`operator.index`, so numpy integers work without numpy.
"""

from __future__ import annotations

from operator import index, itemgetter
from typing import Iterable, Union

from .graphs import ColoredGraph, GraphError, SigmaGraph
from .matrix import _require_tables

KINDS = ("cutrk", "bicutrk", "lambda")


class CutFunction:
    """Memoized symmetric cut function of a fixed graph."""

    __slots__ = ("graph", "kind", "memo", "_n", "_full", "_idx", "_rows", "_tables")

    def __init__(self, graph: ColoredGraph, kind: str):
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if kind == "cutrk" and not isinstance(graph, SigmaGraph):
            raise GraphError("cutrk is defined only for sigma-symmetric graphs")
        self.graph = graph
        self.kind = kind
        self.memo: dict[int, int] = {}
        self._n = graph.n
        self._full = (1 << graph.n) - 1
        self._idx = graph._index
        # made by _pack on the first cut with both sides nonempty, so that a
        # field without tables (order > 256) fails only there
        self._rows = None
        self._tables = None

    def mask_of(self, X: Iterable) -> int:
        m = 0
        for x in X:
            i = self._idx.get(x)
            if i is None:
                raise GraphError(f"unknown vertex {x!r}")
            m |= 1 << i
        return m

    def __call__(self, X: Union[int, Iterable]) -> int:
        try:
            mask = index(X)
        except TypeError:
            mask = self.mask_of(X)
        if not 0 <= mask <= self._full:
            raise GraphError("subset mask out of range")
        key = min(mask, self._full ^ mask)  # f is symmetric
        v = self.memo.get(key)
        if v is None:
            v = self._evaluate(key)
            self.memo[key] = v
        return v

    def _evaluate(self, mask: int) -> int:
        X, Y = mask, self._full ^ mask
        if self.kind == "lambda":
            return self._lambda(X, Y)
        if not mask:  # keys are min(X, V\X): only 0 has an empty side
            return 0
        if self._rows is None:
            self._pack()
        R, tables = self._rows, self._tables
        if self.kind == "cutrk" and Y.bit_count() < X.bit_count():
            X, Y = Y, X  # M[Y][X] = sigma(M[X][Y])^T has the same rank
        if tables is None:
            r = _xor_rank(R, X, Y)
            if self.kind == "bicutrk":
                r += _xor_rank(R, Y, X)
            return r
        rows, cols = _bits(X), _bits(Y)
        r = _list_rank(R, rows, cols, tables)
        if self.kind == "bicutrk":
            r += _list_rank(R, cols, rows, tables)
        return r

    def _pack(self):
        F, rows = self.graph.field, self.graph.rows()
        if self.kind == "lambda":  # the 2n rows of (I | M)^T: e_x, then M[:, x]
            n, columns = self._n, list(zip(*rows))
            rows = [(0,) * x + (1,) + (0,) * (n - 1 - x) for x in range(n)] + columns
        if F.q == 2:
            self._rows = [sum(1 << j for j, e in enumerate(row) if e) for row in rows]
        else:
            _require_tables(F)
            self._tables = F.SUB, F.MUL, F.INV
            self._rows = rows

    def _lambda(self, X: int, Y: int) -> int:
        """r(X u X') + r(Y u Y') - r(V u V') + 1, r(S u S') the rank of the
        rows e_x and M[:, x] (x in S) of (I | M)^T, and r(V u V') = n."""
        if not X:
            return 1
        if self._rows is None:
            self._pack()
        n, R, tables = self._n, self._rows, self._tables
        if tables is None:
            ranks = (_xor_rank(R, S | S << n, self._full) for S in (X, Y))
        else:
            ranks = (_list_rank(R, _bits(S | S << n), range(n), tables) for S in (X, Y))
        return sum(ranks) - n + 1


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _xor_rank(R, rows: int, cols: int) -> int:
    """Rank over GF(2) of the bit-packed rows R[i] & cols, i in rows.  Each
    basis vector has its own leading bit, and v ^ b < v exactly when v has
    the leading bit of b (min(v, v ^ b) without the builtin call)."""
    basis = []
    while rows:
        low = rows & -rows
        rows ^= low
        v = R[low.bit_length() - 1] & cols
        for b in basis:
            w = v ^ b
            if w < v:
                v = w
        if v:
            basis.append(v)
    return len(basis)


def _list_rank(A, rows, cols, tables) -> int:
    """Rank of A[rows][cols] (A a list of code rows, rows and cols nonempty,
    tables the field's SUB, MUL and INV), first-nonzero pivots."""
    if len(cols) == 1:  # itemgetter of one index returns the entry itself
        return int(any(A[i][cols[0]] for i in rows))
    SUB, MUL, INV = tables
    pick = itemgetter(*cols)
    m = [pick(A[i]) for i in rows]
    h = len(m)
    rank = 0
    for c in range(len(cols)):
        for p in range(rank, h):
            if m[p][c]:
                break
        else:
            continue
        if p != rank:
            m[rank], m[p] = m[p], m[rank]
        prow = m[rank]
        pinv = INV[prow[c]]
        for i in range(rank + 1, h):
            row = m[i]
            e = row[c]
            if e:
                me = MUL[MUL[e][pinv]]
                m[i] = [SUB[x][me[y]] for x, y in zip(row, prow)]
        rank += 1
        if rank == h:
            break
    return rank


def cutrk(G: SigmaGraph, X) -> int:
    return CutFunction(G, "cutrk")(X)


def bicutrk(G: ColoredGraph, X) -> int:
    return CutFunction(G, "bicutrk")(X)


def matroid_lambda(G: ColoredGraph, X) -> int:
    return CutFunction(G, "lambda")(X)

"""Cut-rank and bi-cut-rank of vertex bipartitions, plus the connectivity
function of the partitioned linear matroid on (I | M_G), evaluated cut-wise.

A CutFunction memoizes values by bitmask over the graph's vertex order; the
three kinds are

    cutrk(X)   = rk M[X][V\\X]                       (sigma-symmetric only)
    bicutrk(X) = rk M[X][V\\X] + rk M[V\\X][X]
    lambda(X)  = connectivity of {P_x : x in X} in the matroid on (I | M_G)
                 with P_x = {x, x'}; equals bicutrk(X) + 1.

lambda is computed from matroid column ranks directly, so it is an
independent route to the bi-cut-rank values.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from .graphs import ColoredGraph, GraphError, SigmaGraph
from .matrix import rank_of

KINDS = ("cutrk", "bicutrk", "lambda")


class CutFunction:
    """Memoized symmetric cut function of a fixed graph."""

    __slots__ = ("graph", "kind", "memo", "_n", "_full", "_idx")

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

    def mask_of(self, X: Iterable) -> int:
        m = 0
        for x in X:
            i = self._idx.get(x)
            if i is None:
                raise GraphError(f"unknown vertex {x!r}")
            m |= 1 << i
        return m

    def __call__(self, X: Union[int, Iterable]) -> int:
        mask = X if isinstance(X, int) else self.mask_of(X)
        if not 0 <= mask <= self._full:
            raise GraphError("subset mask out of range")
        key = min(mask, self._full ^ mask)  # f is symmetric
        v = self.memo.get(key)
        if v is None:
            v = self._evaluate(key)
            self.memo[key] = v
        return v

    def _evaluate(self, mask: int) -> int:
        n = self._n
        rows = [i for i in range(n) if mask >> i & 1]
        cols = [i for i in range(n) if not mask >> i & 1]
        a = self.graph.adj
        F = self.graph.field
        if self.kind == "cutrk":
            return _block_rank(a, rows, cols, F)
        if self.kind == "lambda":
            return self._matroid_lambda(rows, cols)
        return _block_rank(a, rows, cols, F) + _block_rank(a, cols, rows, F)

    def _matroid_lambda(self, rows, cols) -> int:
        """r(X u X') + r((V\\X) u (V\\X)') - r(V u V') + 1 on (I | M_G)."""
        a = self.graph.adj
        F = self.graph.field
        n = self._n
        return (_matroid_rank(a, rows, F) + _matroid_rank(a, cols, F) - n + 1)


def _block_rank(a: np.ndarray, rows, cols, field) -> int:
    if not rows or not cols:
        return 0
    return rank_of(a[np.ix_(rows, cols)], field)


def _matroid_rank(a: np.ndarray, X, field) -> int:
    """Rank of the columns {e_x : x in X} u {M[:, x] : x in X} of (I | M)."""
    n = a.shape[0]
    if not X:
        return 0
    cols = np.concatenate([np.eye(n, dtype=np.uint16)[:, X], a[:, X]], axis=1)
    return rank_of(cols, field)


def cutrk(G: SigmaGraph, X) -> int:
    return CutFunction(G, "cutrk")(X)


def bicutrk(G: ColoredGraph, X) -> int:
    return CutFunction(G, "bicutrk")(X)


def matroid_lambda(G: ColoredGraph, X) -> int:
    return CutFunction(G, "lambda")(X)

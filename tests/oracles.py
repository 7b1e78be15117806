"""Test-only helpers shared by the suite: the random instance builders, the
layout enumeration that the width search is checked against, and the numpy
oracles that the kernels of `rankw` are checked against.

`rank_of` is Gaussian elimination over the field's tables, and `fmatmul` the
matrix product; `np_tables` holds the tables as uint16 arrays for both, and
`cut_block_ranks` reads a cut's two blocks through `rank_of`.  Nothing under
`src/` imports this module.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from rankw.fields import Field
from rankw.graphs import ColoredGraph, SigmaGraph
from rankw.layouts import Layout, LayoutError
from rankw.matrix import MatrixError, _require_tables


# -- shared random instance builders -------------------------------------------

def random_sigma_graph(rng: random.Random, field, sigma, n: int,
                       density: float = 0.5) -> SigmaGraph:
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                c = rng.randrange(1, field.q)
                a[i][j] = c
                a[j][i] = sigma(c)
    return SigmaGraph(field, tuple(range(n)), a, sigma)


def random_colored_graph(rng: random.Random, field, n: int,
                         density: float = 0.5) -> ColoredGraph:
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                a[i][j] = rng.randrange(1, field.q)
    return ColoredGraph(field, tuple(range(n)), a)


def random_digraph_arcs(rng: random.Random, n: int, density: float = 0.4) -> list:
    return [(i, j) for i in range(n) for j in range(n)
            if i != j and rng.random() < density]


def is_strongly_connected(n: int, arcs) -> bool:
    fwd = {i: [] for i in range(n)}
    bwd = {i: [] for i in range(n)}
    for u, v in arcs:
        fwd[u].append(v)
        bwd[v].append(u)

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    return n > 0 and reach(fwd) and reach(bwd)


def random_strongly_connected_arcs(rng: random.Random, n: int) -> list:
    while True:
        arcs = random_digraph_arcs(rng, n, density=0.4)
        if is_strongly_connected(n, arcs):
            return arcs


# -- exhaustive enumeration of leaf-tree shapes --------------------------------

def enumerate_layouts(n: int, labels: Optional[Sequence] = None) -> Iterator[Layout]:
    """All cubic leaf-tree shapes on n labeled leaves, each exactly once,
    built by inserting leaves in label order onto every existing edge.
    Count is (2n-5)!! for n >= 3 and 1 for n in {1, 2}."""
    if n < 1:
        raise LayoutError("a layout needs at least one leaf")
    labels = tuple(labels) if labels is not None else tuple(range(n))
    if len(labels) != n:
        raise LayoutError("label count must equal n")
    if n == 1:
        yield Layout([], {0: labels[0]})
        return
    # leaves are nodes 0..n-1, internal nodes n..2n-3
    def grow(edges: list[tuple[int, int]], next_leaf: int, next_internal: int):
        if next_leaf == n:
            yield Layout(edges, {i: labels[i] for i in range(n)})
            return
        for k in range(len(edges)):
            u, v = edges[k]
            w = next_internal
            new_edges = edges[:k] + edges[k + 1:] + [(u, w), (w, v), (w, next_leaf)]
            yield from grow(new_edges, next_leaf + 1, next_internal + 1)

    yield from grow([(0, 1)], 2, n)


# -- the numpy oracles ----------------------------------------------------------

@lru_cache(maxsize=None)
def np_tables(field: Field):
    """ADD, SUB, MUL, INV and NEG of a field with tables, as read-only numpy
    uint16 arrays (a field of order > 256 raises MatrixError)."""
    _require_tables(field)
    tables = tuple(np.array(t, dtype=np.uint16)
                   for t in (field.ADD, field.SUB, field.MUL, field.INV, field.NEG))
    for a in tables:
        a.flags.writeable = False
    return tables


def rank_of(a, field: Field) -> int:
    """Rank over the field by Gaussian elimination, first-nonzero pivots."""
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
    ADD, _, MUL, _, _ = np_tables(field)
    if a.shape[1] != b.shape[0]:
        raise MatrixError(f"dimension mismatch {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint16)
    for t in range(a.shape[1]):
        out = ADD[out, MUL[a[:, t][:, None], b[t, :][None, :]]]
    return out


def cut_block_ranks(G: ColoredGraph, X: int) -> tuple[int, int]:
    """rank_of of the blocks M[X][V\\X] and M[V\\X][X] of the mask X, 0 for an
    empty side: the reference that the cut kernels are checked against."""
    rows = [i for i in range(G.n) if X >> i & 1]
    cols = [i for i in range(G.n) if not X >> i & 1]
    if not rows or not cols:
        return 0, 0
    return (rank_of(G.adj[np.ix_(rows, cols)], G.field),
            rank_of(G.adj[np.ix_(cols, rows)], G.field))

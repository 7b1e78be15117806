"""Lambda-local complementation, pivot complementation, equivalence orbits,
minor containment, and minimal-obstruction search.

The update for a lambda-local complementation at x is
    M'[z][t] = M[z][t] + lambda * M[z][x] * M[x][t]      (x not in {z, t})
with row/column x and the diagonal untouched.  Pivot complementation at an
edge xy applies the nine-case formula covering interior entries, the x/y
rows and columns, and the two pivot entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .cutrank import CutFunction
from .fields import Field, FieldError, Sesquimorphism, sigma_compatible, \
    sigma_compatible_set
from .graphs import ColoredGraph, GraphError, SigmaGraph, digraph_gf2
from .layouts import width_exact

RELATIONS = ("sigma-vertex", "vertex", "pivot")


def obstruction_size_bound(k: int) -> int:
    """Largest possible vertex count of a width-k obstruction: (6^(k+1)-1)/5."""
    return (6 ** (k + 1) - 1) // 5


class SearchBudgetError(RuntimeError):
    """A closure search ran out of its state budget before finishing."""


def local_complement(G: ColoredGraph, x, lam: int) -> ColoredGraph:
    """Lambda-local complementation at x.  Sigma-symmetric inputs stay
    sigma-symmetric exactly when lambda is sigma-compatible; the result is
    returned as a SigmaGraph in that case and as a plain ColoredGraph
    otherwise."""
    F = G.field
    if F._check(lam) == 0:
        raise FieldError("lambda must be nonzero")
    i = G.index(x)
    a = G.adj
    MUL, ADD = F.MUL, F.ADD
    inc = MUL[lam, MUL[a[:, i][:, None], a[i, :][None, :]]]
    new = ADD[a, inc].astype(np.uint16)
    new[i, :] = a[i, :]
    new[:, i] = a[:, i]
    np.fill_diagonal(new, 0)
    sigma = getattr(G, "sigma", None)
    if sigma is not None and sigma_compatible(sigma, lam):
        return SigmaGraph(F, G.vertices, new, sigma)
    return ColoredGraph(F, G.vertices, new)


def pivot_complement(G: SigmaGraph, x, y) -> SigmaGraph:
    """Pivot complementation at the edge xy (requires adj[x][y] != 0)."""
    if not isinstance(G, SigmaGraph):
        raise GraphError("pivot complementation needs a sigma-symmetric graph")
    F = G.field
    i, j = G.index(x), G.index(y)
    a = G.adj
    m_xy = int(a[i, j])
    m_yx = int(a[j, i])
    if m_xy == 0:
        raise GraphError(f"pivot needs an edge: adj[{x!r}][{y!r}] = 0")
    MUL, SUB = F.MUL, F.SUB
    inv_xy = F.inv(m_xy)
    inv_yx = F.inv(m_yx)
    s1 = G.sigma.one
    # interior: M[z][t] - M[z][x] M[y][t] / M[y][x] - M[z][y] M[x][t] / M[x][y]
    term1 = MUL[inv_yx, MUL[a[:, i][:, None], a[j, :][None, :]]]
    term2 = MUL[inv_xy, MUL[a[:, j][:, None], a[i, :][None, :]]]
    new = SUB[SUB[a, term1], term2].astype(np.uint16)
    # x/y rows and columns
    new[i, :] = MUL[inv_yx, a[j, :]]
    new[j, :] = MUL[F.mul(s1, inv_xy), a[i, :]]
    new[:, i] = MUL[F.mul(s1, inv_xy), a[:, j]]
    new[:, j] = MUL[inv_yx, a[:, i]]
    new[i, j] = F.neg(inv_yx)
    new[j, i] = F.neg(F.mul(F.mul(s1, s1), inv_xy))
    np.fill_diagonal(new, 0)
    return SigmaGraph(F, G.vertices, new, G.sigma)


def _moves(G: ColoredGraph, relation: str) -> Iterable[ColoredGraph]:
    """Generating moves of the equivalence, in deterministic order
    (vertex index ascending, then lambda code ascending / edge order)."""
    if relation == "pivot":
        if not isinstance(G, SigmaGraph):
            raise GraphError("pivot relation needs sigma-symmetric graphs")
        for i, u in enumerate(G.vertices):
            for j, v in enumerate(G.vertices):
                if i != j and G.adj[i, j]:
                    yield pivot_complement(G, u, v)
        return
    if relation == "sigma-vertex":
        sigma = getattr(G, "sigma", None)
        if sigma is None:
            raise GraphError("sigma-vertex relation needs sigma-symmetric graphs")
        lams = sigma_compatible_set(sigma)
    elif relation == "vertex":
        lams = list(G.field.units())
    else:
        raise ValueError(f"unknown relation {relation!r}")
    for v in G.vertices:
        for lam in lams:
            yield local_complement(G, v, lam)


def equivalence_orbit_graphs(G: ColoredGraph, relation: str,
                             max_states: int = 200_000) -> list[ColoredGraph]:
    """BFS closure of G under the relation's moves, one representative per
    isomorphism class, in first-reached order."""
    if G.n > 10:
        raise GraphError("orbit search limited to n <= 10")
    start = G.canonical_form()
    seen = {start: G}
    # matrices already handled: equal bytes mean an equal canonical form
    handled = {G.adj.tobytes()}
    frontier = [G]
    while frontier:
        nxt = []
        for H in frontier:
            for K in _moves(H, relation):
                b = K.adj.tobytes()
                if b in handled:
                    continue
                handled.add(b)
                c = K.canonical_form()
                if c not in seen:
                    if len(seen) >= max_states:
                        raise SearchBudgetError(
                            f"orbit exceeded {max_states} states")
                    seen[c] = K
                    nxt.append(K)
        frontier = nxt
    return list(seen.values())


def equivalence_orbit(G: ColoredGraph, relation: str, max_states: int = 200_000) -> set:
    """Canonical forms of the orbit members."""
    return {H.canonical_form() for H in
            equivalence_orbit_graphs(G, relation, max_states)}


@dataclass(frozen=True)
class MinorSearchResult:
    found: bool
    complete: bool        # True when the full closure was explored
    states: int

    def __bool__(self) -> bool:
        return self.found


def is_minor(H: ColoredGraph, G: ColoredGraph, relation: str,
             max_states: int = 200_000) -> MinorSearchResult:
    """Does some graph reachable from G by moves and vertex deletions contain
    an induced subgraph isomorphic to H?  Explores the closure under both
    operations breadth-first with canonical-form deduplication; a negative
    with complete=False only means the budget ran out."""
    if G.field != H.field:
        raise GraphError("graphs live over different fields")
    if H.n > G.n or G.n > 10:
        if G.n > 10:
            raise GraphError("minor search limited to n <= 10")
        return MinorSearchResult(False, True, 0)
    target = H.canonical_form()
    start = G.canonical_form()
    if G.n == H.n and start == target:
        return MinorSearchResult(True, True, 1)
    seen = {start}
    handled = {G.adj.tobytes()}   # as in equivalence_orbit_graphs
    frontier = [G]
    states = 1
    truncated = False
    while frontier:
        nxt = []
        for K in frontier:
            succs = list(_moves(K, relation))
            if K.n > H.n:
                succs.extend(K.induced_subgraph(
                    [v for v in K.vertices if v != drop]) for drop in K.vertices)
            for K2 in succs:
                b = K2.adj.tobytes()
                if b in handled:
                    continue
                handled.add(b)
                c = K2.canonical_form()
                if c in seen:
                    continue
                if K2.n == H.n and c == target:
                    return MinorSearchResult(True, True, states + 1)
                seen.add(c)
                states += 1
                if states >= max_states:
                    truncated = True
                else:
                    nxt.append(K2)
        if truncated:
            break
        frontier = nxt
    return MinorSearchResult(False, not truncated, states)


# -- isomorph-free generation of sigma-symmetric graphs ------------------------

def sigma_symmetric_graphs(field: Field, sigma: Sesquimorphism, n: int,
                           connected_only: bool = False) -> list[SigmaGraph]:
    """All sigma-symmetric graphs on n vertices up to isomorphism, grown by
    vertex extension with canonical-form rejection.  Vertices are 0..n-1."""
    if sigma.field != field:
        raise GraphError("sesqui-morphism is over a different field")
    reps: dict = {}
    G1 = SigmaGraph(field, (0,), np.zeros((1, 1), dtype=np.uint16), sigma)
    reps[G1.canonical_form()] = G1
    level = [G1]
    sig_tab = sigma.np_table
    for m in range(2, n + 1):
        nxt: dict = {}
        for G in level:
            base = G.adj
            for row_code in range(field.q ** (m - 1)):
                row = np.empty(m - 1, dtype=np.uint16)
                c = row_code
                for i in range(m - 1):
                    row[i] = c % field.q
                    c //= field.q
                a = np.zeros((m, m), dtype=np.uint16)
                a[:m - 1, :m - 1] = base
                a[m - 1, :m - 1] = sig_tab[row]
                a[:m - 1, m - 1] = row
                H = SigmaGraph(field, tuple(range(m)), a, sigma)
                key = H.canonical_form()
                if key not in nxt:
                    nxt[key] = H
        level = list(nxt.values())
    if connected_only:
        return [G for G in level if G.is_connected()]
    return level


# -- obstructions ---------------------------------------------------------------

@dataclass(frozen=True)
class Obstruction:
    graph: SigmaGraph
    relation: str
    k: int


def find_obstructions(field: Field, sigma: Sesquimorphism, relation: str,
                      k: int, max_n: int,
                      orbit_budget: int = 200_000) -> list[Obstruction]:
    """All sigma-symmetric graphs on <= max_n vertices (up to isomorphism)
    whose width exceeds k while every proper minor has width at most k.

    Minimality reduces to co-dimension 1: moves at surviving vertices commute
    with a deletion, so a proper minor of width > k forces a one-vertex-deleted
    minor of width > k.  Orbits share a width, so each orbit member is checked
    against its single-vertex deletions only.
    """
    if relation not in RELATIONS:
        raise ValueError(f"relation must be one of {RELATIONS}")
    if max_n > 8:
        raise GraphError("obstruction search limited to max_n <= 8")
    width_cache: dict = {}
    key_of: dict = {}     # adj bytes -> canonical form, in front of width_cache

    def width_of(G: SigmaGraph) -> int:
        b = G.adj.tobytes()
        key = key_of.get(b)
        if key is None:
            key = key_of[b] = G.canonical_form()
        w = width_cache.get(key)
        if w is None:
            w = width_exact(G, CutFunction(G, "cutrk")).width
            width_cache[key] = w
        return w

    found: dict = {}
    for n in range(2, max_n + 1):
        for G in sigma_symmetric_graphs(field, sigma, n, connected_only=True):
            if width_of(G) <= k:
                continue
            # cheap pre-filter: the graph's own single-vertex deletions
            if any(width_of(G.induced_subgraph([v for v in G.vertices if v != d])) > k
                   for d in G.vertices):
                continue
            minimal = True
            for M in equivalence_orbit_graphs(G, relation, orbit_budget):
                for d in M.vertices:
                    sub = M.induced_subgraph([v for v in M.vertices if v != d])
                    if width_of(sub) > k:
                        minimal = False
                        break
                if not minimal:
                    break
            if minimal:
                found[G.canonical_form()] = Obstruction(G, relation, k)
    return [found[c] for c in sorted(found)]


def const_graph(field: Field, sigma: Sesquimorphism, a: int) -> SigmaGraph:
    """The two-vertex graph with one edge colored a (and sigma(a) back)."""
    if field._check(a) == 0:
        raise FieldError("const graphs need a nonzero color")
    adj = np.array([[0, a], [sigma(a), 0]], dtype=np.uint16)
    return SigmaGraph(field, (0, 1), adj, sigma)


def ec_cycle(m: int) -> ColoredGraph:
    """The directed even cycle on m vertices whose orientation alternates, so
    every vertex has in-degree 2 or out-degree 2; returned in the plain GF(2)
    digraph representation."""
    if m < 4 or m % 2 != 0:
        raise GraphError("alternating cycles need an even length >= 4")
    arcs = []
    for i in range(0, m, 2):
        arcs.append((i, (i + 1) % m))
        arcs.append((i, (i - 1) % m))
    return digraph_gf2(arcs, vertices=range(m))

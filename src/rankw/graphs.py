"""Edge-colored graphs over a finite field: encodings of undirected, directed
and oriented graphs, the quadratic-extension lift, induced subgraphs,
isomorphism, and canonical forms.

A graph is a square matrix of element codes with zero diagonal; code 0 is a
non-edge.  A SigmaGraph additionally carries a sesqui-morphism sigma and
satisfies adj[y][x] = sigma(adj[x][y]).

Canonical forms come from one individualization-refinement search (McKay
and Piperno, "Practical graph isomorphism, II", 2014).  Refinement splits an
ordered partition until it is equitable, ordering cells by signature (old
cell, sorted (pair code, cell of w)), never by label.  The search
individualizes each vertex of the first non-singleton cell in turn; a leaf's
certificate is the matrix in leaf order, and the form is (n, q, least
certificate).  Equal leaves give automorphisms, and a vertex in the orbit of
a tried one, under those fixing the node's path, is skipped.  `isomorphic`
compares forms and pairs up the two canonical orders.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .fields import (Field, FieldError, Sesquimorphism, field_extend_quadratic,
                     field_make, parse_sigma, plain_int, sigma_frobenius_conj,
                     sigma_identity, sigma_negation)

CANONICAL_MAX_N = 12


class GraphError(ValueError):
    """Invalid graph construction or operation."""


class ColoredGraph:
    """An F*-graph: square matrix over a field with zero diagonal."""

    __slots__ = ("field", "vertices", "adj", "_index", "_canon")

    def __init__(self, field: Field, vertices: Sequence, adj):
        self.field = field
        self.vertices = tuple(vertices)
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            raise GraphError("duplicate vertex labels")
        a = np.asarray(adj, dtype=np.uint16).reshape(n, n).copy()
        if a.size:
            if int(a.max(initial=0)) >= field.q:
                raise FieldError("color is not a valid element code")
            if a.trace() != 0 or np.diag(a).any():
                raise GraphError("graphs are loop-free: diagonal must be zero")
        a.flags.writeable = False
        self.adj = a
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self._canon = None

    # basic accessors -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, v) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def color(self, u, v) -> int:
        return int(self.adj[self.index(u), self.index(v)])

    def with_adj(self, adj) -> "ColoredGraph":
        return ColoredGraph(self.field, self.vertices, adj)

    def induced_subgraph(self, X) -> "ColoredGraph":
        X = tuple(X)
        idx = [self.index(x) for x in X]
        sub = self.adj[np.ix_(idx, idx)] if idx else np.zeros((0, 0), dtype=np.uint16)
        return type(self)._rebuild(self, X, sub)

    @classmethod
    def _rebuild(cls, proto, vertices, adj):
        return ColoredGraph(proto.field, vertices, adj)

    def relabel(self, mapping) -> "ColoredGraph":
        """New graph with vertex v renamed mapping[v]; matrix untouched."""
        return type(self)._rebuild(self, [mapping[v] for v in self.vertices], self.adj)

    def permuted(self, order: Sequence) -> "ColoredGraph":
        """Same graph with vertices listed in the given order."""
        idx = [self.index(v) for v in order]
        return type(self)._rebuild(self, order, self.adj[np.ix_(idx, idx)])

    def components(self) -> list[tuple]:
        """Connected components of the underlying graph (an arc either way
        makes vertices adjacent), as vertex tuples in input order."""
        n = self.n
        seen = [False] * n
        und = (self.adj != 0) | (self.adj != 0).T
        comps = []
        for s in range(n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in np.nonzero(und[u])[0]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(int(w))
            comps.append(tuple(self.vertices[i] for i in sorted(comp)))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    # canonical form ---------------------------------------------------------

    def canonical_form(self):
        """Label-independent signature: equal iff isomorphic (n <= 12)."""
        if self.n > CANONICAL_MAX_N:
            raise GraphError(f"canonical form limited to n <= {CANONICAL_MAX_N}")
        return self._labelling()[0]

    def _labelling(self):
        """(canonical form, canonical vertex-index order), computed once."""
        if self._canon is None:
            self._canon = _canonical_labelling(self.field.q, self.n,
                                               tuple(self.adj.ravel().tolist()))
        return self._canon

    def __eq__(self, other):
        if not isinstance(other, ColoredGraph):
            return NotImplemented
        return (self.field == other.field and self.vertices == other.vertices
                and np.array_equal(self.adj, other.adj))

    def __hash__(self):
        return hash((self.field, self.vertices, self.adj.tobytes()))

    def __repr__(self):
        kind = type(self).__name__
        edges = int(np.count_nonzero(self.adj))
        return f"{kind}(n={self.n}, arcs={edges}, field={self.field!r})"


class SigmaGraph(ColoredGraph):
    """A sigma-symmetric F*-graph."""

    __slots__ = ("sigma",)

    def __init__(self, field: Field, vertices: Sequence, adj,
                 sigma: Sesquimorphism):
        super().__init__(field, vertices, adj)
        if sigma.field != field:
            raise GraphError("sesqui-morphism is over a different field")
        self.sigma = sigma
        if not _symmetric(self.adj, sigma):
            raise GraphError("matrix is not sigma-symmetric")

    @classmethod
    def _rebuild(cls, proto, vertices, adj):
        return SigmaGraph(proto.field, vertices, adj, proto.sigma)

    def with_adj(self, adj) -> "SigmaGraph":
        return SigmaGraph(self.field, self.vertices, adj, self.sigma)

    def drop_sigma(self) -> ColoredGraph:
        return ColoredGraph(self.field, self.vertices, self.adj)


def _symmetric(adj: np.ndarray, sigma: Sesquimorphism) -> bool:
    return np.array_equal(adj.T, sigma.np_table[adj])


def is_sigma_symmetric(G: ColoredGraph, sigma: Sesquimorphism) -> bool:
    if sigma.field != G.field:
        raise GraphError("sesqui-morphism is over a different field")
    return _symmetric(G.adj, sigma)


# -- encodings ---------------------------------------------------------------

def _collect_vertices(pairs, vertices):
    if vertices is not None:
        return tuple(vertices)
    seen = []
    for u, v in pairs:
        for w in (u, v):
            if w not in seen:
                seen.append(w)
    return tuple(seen)


def encode_undirected(edges, vertices=None) -> SigmaGraph:
    """Undirected graph as a GF(2) graph with the identity sesqui-morphism."""
    edges = [tuple(e) for e in edges]
    verts = _collect_vertices(edges, vertices)
    F = field_make(2, 1)
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    a = np.zeros((n, n), dtype=np.uint16)
    for u, v in edges:
        if u == v:
            raise GraphError(f"loop at {u!r}")
        a[idx[u], idx[v]] = a[idx[v], idx[u]] = 1
    return SigmaGraph(F, verts, a, sigma_identity(F))


def encode_directed(arcs, vertices=None) -> SigmaGraph:
    """Directed graph over GF(4) with sigma4: a bidirected pair becomes 1, a
    lone arc (x, y) becomes a at (x, y) and a^2 at (y, x)."""
    arcs = [tuple(e) for e in arcs]
    verts = _collect_vertices(arcs, vertices)
    F = field_make(2, 2)
    A, A2 = 2, 3
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    arcset = set()
    for u, v in arcs:
        if u == v:
            raise GraphError(f"loop at {u!r}")
        arcset.add((idx[u], idx[v]))
    a = np.zeros((n, n), dtype=np.uint16)
    for (i, j) in arcset:
        if (j, i) in arcset:
            a[i, j] = a[j, i] = 1
        else:
            a[i, j], a[j, i] = A, A2
    return SigmaGraph(F, verts, a, sigma_frobenius_conj(F))


def encode_oriented(arcs, vertices=None) -> SigmaGraph:
    """Oriented graph over GF(3) with negation: arc (x, y) becomes 1 at
    (x, y) and -1 at (y, x); opposite arc pairs are rejected."""
    arcs = [tuple(e) for e in arcs]
    verts = _collect_vertices(arcs, vertices)
    F = field_make(3, 1)
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    arcset = set()
    for u, v in arcs:
        if u == v:
            raise GraphError(f"loop at {u!r}")
        arcset.add((idx[u], idx[v]))
    a = np.zeros((n, n), dtype=np.uint16)
    for (i, j) in arcset:
        if (j, i) in arcset:
            raise GraphError("oriented graphs admit no opposite arc pairs")
        a[i, j], a[j, i] = 1, 2
    return SigmaGraph(F, verts, a, sigma_negation(F))


def digraph_gf2(arcs, vertices=None) -> ColoredGraph:
    """Directed graph as a plain GF(2) graph (adj[x][y] = 1 iff arc x->y);
    generally not sigma-symmetric.  This is the bi-rank-width representation."""
    arcs = [tuple(e) for e in arcs]
    verts = _collect_vertices(arcs, vertices)
    F = field_make(2, 1)
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    a = np.zeros((n, n), dtype=np.uint16)
    for u, v in arcs:
        if u == v:
            raise GraphError(f"loop at {u!r}")
        a[idx[u], idx[v]] = 1
    return ColoredGraph(F, verts, a)


def tilde(G: ColoredGraph) -> SigmaGraph:
    """Lift to the quadratic extension: entry (x, y) becomes
    f~(adj[x][y], adj[y][x]); the result is sigma~-symmetric."""
    ext = field_extend_quadratic(G.field)
    tab = ext.f_tilde_table
    a = tab[G.adj, G.adj.T].astype(np.uint16)
    np.fill_diagonal(a, 0)  # f~(0,0) = 0 anyway; keep the invariant explicit
    return SigmaGraph(ext.ext, G.vertices, a, ext.sigma_tilde)


# -- canonical form and isomorphism ------------------------------------------

def _canonical_labelling(q: int, n: int, codes: tuple):
    """Canonical form and canonical order of a graph's matrix, given as the
    row-major tuple of its n*n element codes, by individualization-refinement
    with automorphism pruning.

    Returns ``((n, q, cert), order)``: ``cert`` is the least leaf
    certificate (the matrix permuted by a leaf order, flattened row by row)
    and ``order`` lists the vertex indices in that leaf's order.
    """
    rows = [codes[i * n:i * n + n] for i in range(n)]
    # nbrs[v]: (pair code * n, w) for each w joined to v in either direction;
    # a signature entry adds cell[w], so entries sort by pair code first
    nbrs = [[((rv[w] * q + rows[w][v]) * n, w) for w in range(n)
             if rv[w] or rows[w][v]] for v, rv in enumerate(rows)]

    def refine(cell, ncells):
        """Refine an ordered partition (cell[v] = rank of v's cell) until it
        is equitable; the new cells are ranked by signature value."""
        while ncells < n:
            sigs = [(cell[v], tuple(sorted([c + cell[w] for c, w in nb])))
                    for v, nb in enumerate(nbrs)]
            keys = set(sigs)
            if len(keys) == ncells:
                break
            rank = {s: i for i, s in enumerate(sorted(keys))}
            cell = [rank[s] for s in sigs]
            ncells = len(keys)
        return cell, ncells

    best = []       # [cert, order] of the least leaf so far
    autos = []      # automorphisms, each mapping the best leaf to an equal one

    def search(cell, ncells, path):
        cell, ncells = refine(cell, ncells)
        if ncells == n:
            order = [0] * n
            for v, c in enumerate(cell):
                order[c] = v
            cert = tuple([rows[u][w] for u in order for w in order])
            if not best or cert < best[0]:
                best[:] = cert, order
            elif cert == best[0]:
                gamma = [0] * n
                for u, w in zip(best[1], order):
                    gamma[u] = w
                autos.append(gamma)
            return
        target = min(c for c in cell if cell.count(c) > 1)
        tried = []
        for v in [u for u, c in enumerate(cell) if c == target]:
            # an automorphism that fixes the path maps the subtree of a tried
            # vertex onto the subtree of each vertex in its orbit
            if tried and v in _orbit(tried, [g for g in autos
                                             if all(g[u] == u for u in path)]):
                continue
            # v alone in front of the rest of its cell
            child = [c + 1 if c > target or (c == target and u != v) else c
                     for u, c in enumerate(cell)]
            search(child, ncells + 1, path + [v])
            tried.append(v)

    search([0] * n, min(n, 1), [])
    return (n, q, best[0]), best[1]


def _orbit(start, gens) -> set:
    """The vertices that the permutations in gens, composed in any way, map
    the vertices in start to."""
    reach, stack = set(start), list(start)
    while stack:
        u = stack.pop()
        for g in gens:
            if g[u] not in reach:
                reach.add(g[u])
                stack.append(g[u])
    return reach


def canonical_form(G: ColoredGraph):
    return G.canonical_form()


def isomorphic(G: ColoredGraph, H: ColoredGraph) -> Optional[dict]:
    """A color-preserving vertex bijection G -> H, or None: the graphs are
    isomorphic exactly when their canonical forms agree, and then the i-th
    vertex of G's canonical order maps to the i-th vertex of H's."""
    if G.field != H.field:
        raise GraphError("graphs live over different fields")
    if G.n != H.n:
        return None
    form_g, order_g = G._labelling()
    form_h, order_h = H._labelling()
    if form_g != form_h:
        return None
    return {G.vertices[u]: H.vertices[w] for u, w in zip(order_g, order_h)}


# -- graph file format --------------------------------------------------------

def parse_graph(text: str) -> ColoredGraph:
    """Parse the graph file format:

        field <p> <k>
        sigma <spec>            # optional
        vertices v1 v2 ... vn
        edge <u> <v> <element-code>
    """
    field = None
    sigma = None
    verts: Optional[tuple] = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split(None, 1)
        arg = rest[0] if rest else ""
        if head == "field":
            try:
                p, k = (plain_int(t) for t in arg.split())
            except ValueError:
                raise GraphError(f"line {lineno}: bad field declaration") from None
            field = field_make(p, k)
        elif head == "sigma":
            if field is None:
                raise GraphError(f"line {lineno}: sigma before field")
            sigma = parse_sigma(field, arg)
        elif head == "vertices":
            verts = tuple(arg.split())
        elif head == "edge":
            parts = arg.split()
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: edge needs <u> <v> <code>")
            try:
                code = plain_int(parts[2])
            except ValueError:
                raise GraphError(f"line {lineno}: edge code {parts[2]!r} is not "
                                 f"an integer") from None
            edges.append((parts[0], parts[1], code, lineno))
        else:
            raise GraphError(f"line {lineno}: unknown declaration {head!r}")
    if field is None:
        raise GraphError("missing field declaration")
    if verts is None:
        raise GraphError("missing vertices declaration")
    idx = {v: i for i, v in enumerate(verts)}
    a = np.zeros((len(verts), len(verts)), dtype=np.uint16)
    for u, v, code, lineno in edges:
        if u not in idx or v not in idx:
            raise GraphError(f"line {lineno}: unknown vertex in edge {u} {v}")
        if u == v:
            raise GraphError(f"line {lineno}: loop at {u}")
        if not 0 <= code < field.q:
            raise GraphError(f"line {lineno}: edge code {code} is not an element "
                             f"code of the field (0..{field.q - 1})")
        a[idx[u], idx[v]] = code
    if sigma is not None:
        return SigmaGraph(field, verts, a, sigma)
    return ColoredGraph(field, verts, a)


def emit_graph(G: ColoredGraph) -> str:
    lines = [f"field {G.field.p} {G.field.k}"]
    sigma = getattr(G, "sigma", None)
    if sigma is not None:
        spec = sigma.name if sigma.name else " ".join(map(str, sigma.table))
        lines.append(f"sigma {spec}")
    lines.append("vertices " + " ".join(str(v) for v in G.vertices))
    for i, u in enumerate(G.vertices):
        for j, v in enumerate(G.vertices):
            if G.adj[i, j]:
                lines.append(f"edge {u} {v} {int(G.adj[i, j])}")
    return "\n".join(lines) + "\n"


def emit_dot(G: ColoredGraph) -> str:
    """DOT export: one directed edge per nonzero entry, labeled by its code."""
    lines = ["digraph G {"]
    for v in G.vertices:
        lines.append(f'  "{v}";')
    for i, u in enumerate(G.vertices):
        for j, v in enumerate(G.vertices):
            if G.adj[i, j]:
                lines.append(f'  "{u}" -> "{v}" [label="{int(G.adj[i, j])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

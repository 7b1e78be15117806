"""Edge-colored graphs over a finite field: encodings of undirected, directed
and oriented graphs, the quadratic-extension lift, induced subgraphs,
isomorphism, and canonical forms.

A graph is a square matrix of element codes with zero diagonal; code 0 is a
non-edge.  It is stored as `codes`, the row-major tuple of its n*n codes,
which every layer reads directly; `adj`, the same matrix as a numpy array,
is made only when asked for.  A SigmaGraph additionally carries a
sesqui-morphism sigma and satisfies adj[y][x] = sigma(adj[x][y]).

Canonical forms come from one individualization-refinement search (McKay
and Piperno, "Practical graph isomorphism, II", 2014).  Refinement splits an
ordered partition until it is equitable, ordering cells by signature (old
cell, sorted (pair code, cell of w)), never by label.  The search
individualizes each vertex of the first non-singleton cell in turn; a leaf's
certificate is the matrix in leaf order, and the form is (n, q, least
certificate).  Equal leaves give automorphisms, and a vertex in the orbit of
a tried one, under those fixing the node's path, is skipped.  So is a twin
of the last tried vertex, one whose swap with it is an automorphism, seen
from the two rows and columns; the swap joins the automorphisms.  Graphs
built from twins (complete graphs, stars, the distance-hereditary graphs of
rank-width 1) so need no walk down to an equal leaf per twin.  The
automorphisms found are returned with the form; the closure engine and
generation in `transform` use them to skip moves and extensions that give
isomorphic graphs.  `isomorphic` compares forms and pairs up the two
canonical orders.
"""

from __future__ import annotations

from operator import index as _index, itemgetter
from typing import Optional, Sequence

from .fields import (Field, FieldError, Sesquimorphism, field_extend_quadratic,
                     field_make, parse_sigma, plain_int, sigma_frobenius_conj,
                     sigma_identity, sigma_negation)

CANONICAL_MAX_N = 12


class GraphError(ValueError):
    """Invalid graph construction or operation."""


def _flat_codes(field: Field, n: int, adj) -> tuple:
    """The row-major tuple of the n*n codes of adj (an array, code rows, or
    a flat sequence of n*n codes), checked: integers in 0..q-1 with a zero
    diagonal."""
    seq = adj.tolist() if hasattr(adj, "tolist") else list(adj)
    if seq and hasattr(seq[0], "__len__") and not isinstance(seq[0], str):
        if len(seq) != n or any(len(row) != n for row in seq):
            raise GraphError(f"adjacency must be {n} x {n} for {n} vertices")
        seq = [c for row in seq for c in row]
    if len(seq) != n * n:
        raise GraphError(f"adjacency has {len(seq)} entries; {n} vertices "
                         f"need {n * n}")
    try:
        codes = tuple(map(_index, seq))
    except TypeError:
        bad = next(c for c in seq if not hasattr(type(c), "__index__"))
        raise FieldError(f"color {bad!r} is not an integer element code") from None
    bad = [c for c in set(codes) if not 0 <= c < field.q]
    if bad:
        raise FieldError(f"color {min(bad)} is not an element code of {field!r} "
                         f"(0..{field.q - 1})")
    if any(codes[::n + 1]):
        raise GraphError("graphs are loop-free: diagonal must be zero")
    return codes


def _components(n: int, codes: tuple) -> list[list[int]]:
    """Connected components of the underlying graph of an n x n code matrix
    (an arc either way joins), as sorted index lists, by least index."""
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack, comp = [s], []
        while stack:
            u = stack.pop()
            comp.append(u)
            row, col = codes[u * n:u * n + n], codes[u::n]
            for w in range(n):
                if not seen[w] and (row[w] or col[w]):
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


class ColoredGraph:
    """An F*-graph: square matrix over a field with zero diagonal, kept as
    ``codes``, the row-major tuple of its n*n element codes."""

    __slots__ = ("field", "vertices", "codes", "_index", "_canon", "_adj")

    def __init__(self, field: Field, vertices: Sequence, adj):
        self.field = field
        self.vertices = tuple(vertices)
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            raise GraphError("duplicate vertex labels")
        self.codes = _flat_codes(field, n, adj)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self._canon = None
        self._adj = None

    # basic accessors -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def adj(self):
        """The matrix as a read-only numpy uint16 array, made on first use
        (numpy loads here)."""
        if self._adj is None:
            import numpy as np
            self._adj = np.array(self.codes, dtype=np.uint16).reshape(self.n, self.n)
            self._adj.flags.writeable = False
        return self._adj

    def rows(self) -> list[tuple]:
        """The rows of the matrix, as code tuples."""
        n = self.n
        return [self.codes[b:b + n] for b in range(0, n * n, n)]

    def index(self, v) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def color(self, u, v) -> int:
        return self.codes[self.index(u) * self.n + self.index(v)]

    def with_adj(self, adj) -> "ColoredGraph":
        return type(self)._rebuild(self, self.vertices, adj)

    def induced_subgraph(self, X) -> "ColoredGraph":
        X = tuple(X)
        idx = [self.index(x) for x in X]
        c, n = self.codes, self.n
        return type(self)._rebuild(self, X, [c[i * n + j] for i in idx for j in idx])

    @classmethod
    def _rebuild(cls, proto, vertices, adj):
        return ColoredGraph(proto.field, vertices, adj)

    def relabel(self, mapping) -> "ColoredGraph":
        """New graph with vertex v renamed mapping[v]; matrix untouched."""
        return type(self)._rebuild(self, [mapping[v] for v in self.vertices], self.codes)

    def permuted(self, order: Sequence) -> "ColoredGraph":
        """Same graph with vertices listed in the given order."""
        return self.induced_subgraph(order)

    def components(self) -> list[tuple]:
        """Connected components of the underlying graph (an arc either way
        makes vertices adjacent), as vertex tuples in input order."""
        return [tuple(self.vertices[i] for i in comp)
                for comp in _components(self.n, self.codes)]

    def is_connected(self) -> bool:
        return len(_components(self.n, self.codes)) <= 1

    # canonical form ---------------------------------------------------------

    def canonical_form(self):
        """Label-independent signature: equal iff isomorphic (n <= 12)."""
        if self.n > CANONICAL_MAX_N:
            raise GraphError(f"canonical form limited to n <= {CANONICAL_MAX_N}")
        return self._labelling()[0]

    def _labelling(self):
        """(canonical form, canonical vertex-index order, automorphisms),
        computed once."""
        if self._canon is None:
            self._canon = _canonical_labelling(self.field.q, self.n, self.codes)
        return self._canon

    def _key(self) -> tuple:
        """What == and hash compare: a sigma counts by its table, not its name."""
        sigma = getattr(self, "sigma", None)
        return (self.field, self.vertices, self.codes,
                None if sigma is None else sigma.table)

    def __eq__(self, other):
        if not isinstance(other, ColoredGraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        kind = type(self).__name__
        edges = len(self.codes) - self.codes.count(0)
        return f"{kind}(n={self.n}, arcs={edges}, field={self.field!r})"


class SigmaGraph(ColoredGraph):
    """A sigma-symmetric F*-graph."""

    __slots__ = ("sigma",)

    def __init__(self, field: Field, vertices: Sequence, adj,
                 sigma: Sesquimorphism):
        super().__init__(field, vertices, adj)
        if not is_sigma_symmetric(self, sigma):
            raise GraphError("matrix is not sigma-symmetric")
        self.sigma = sigma

    @classmethod
    def _rebuild(cls, proto, vertices, adj):
        return SigmaGraph(proto.field, vertices, adj, proto.sigma)

    def drop_sigma(self) -> ColoredGraph:
        return ColoredGraph(self.field, self.vertices, self.codes)


def _symmetric(n: int, codes: tuple, sigma: Sesquimorphism) -> bool:
    """Is column i the sigma-image of row i, for every i?"""
    if n < 2:  # the diagonal is zero, and sigma(0) = 0
        return True
    sig = sigma.table
    images = codes if sig == tuple(range(len(sig))) else itemgetter(*codes)(sig)
    return all(codes[i::n] == images[i * n:i * n + n] for i in range(n))


def is_sigma_symmetric(G: ColoredGraph, sigma: Sesquimorphism) -> bool:
    _check_sigma_field(sigma, G.field)
    return _symmetric(G.n, G.codes, sigma)


def _check_sigma_field(sigma: Sesquimorphism, field: Field) -> None:
    if sigma.field != field:
        raise GraphError("sesqui-morphism is over a different field")


def _check_same_field(G: ColoredGraph, H: ColoredGraph) -> None:
    if G.field != H.field:
        raise GraphError("graphs live over different fields")


# -- encodings ---------------------------------------------------------------

def _arc_indices(arcs, vertices):
    """The vertices (by default in order of first appearance) and the (i, j)
    index pairs of the arcs; a loop or an endpoint outside vertices raises."""
    arcs = [tuple(e) for e in arcs]
    verts = tuple(dict.fromkeys(w for arc in arcs for w in arc)
                  if vertices is None else vertices)
    idx = {v: i for i, v in enumerate(verts)}
    pairs = []
    for u, v in arcs:
        if u == v:
            raise GraphError(f"loop at {u!r}")
        try:
            pairs.append((idx[u], idx[v]))
        except KeyError as exc:
            raise GraphError(f"unknown vertex {exc.args[0]!r}") from None
    return verts, pairs


def encode_undirected(edges, vertices=None) -> SigmaGraph:
    """Undirected graph as a GF(2) graph with the identity sesqui-morphism."""
    verts, pairs = _arc_indices(edges, vertices)
    F = field_make(2, 1)
    n = len(verts)
    a = [0] * (n * n)
    for i, j in pairs:
        a[i * n + j] = a[j * n + i] = 1
    return SigmaGraph(F, verts, a, sigma_identity(F))


def encode_directed(arcs, vertices=None) -> SigmaGraph:
    """Directed graph over GF(4) with sigma4: a bidirected pair becomes 1, a
    lone arc (x, y) becomes a at (x, y) and a^2 at (y, x)."""
    verts, pairs = _arc_indices(arcs, vertices)
    F = field_make(2, 2)
    A, A2 = 2, 3
    n = len(verts)
    arcset = set(pairs)
    a = [0] * (n * n)
    for (i, j) in arcset:
        if (j, i) in arcset:
            a[i * n + j] = a[j * n + i] = 1
        else:
            a[i * n + j], a[j * n + i] = A, A2
    return SigmaGraph(F, verts, a, sigma_frobenius_conj(F))


def encode_oriented(arcs, vertices=None) -> SigmaGraph:
    """Oriented graph over GF(3) with negation: arc (x, y) becomes 1 at
    (x, y) and -1 at (y, x); opposite arc pairs are rejected."""
    verts, pairs = _arc_indices(arcs, vertices)
    F = field_make(3, 1)
    n = len(verts)
    arcset = set(pairs)
    a = [0] * (n * n)
    for (i, j) in arcset:
        if (j, i) in arcset:
            raise GraphError("oriented graphs admit no opposite arc pairs")
        a[i * n + j], a[j * n + i] = 1, 2
    return SigmaGraph(F, verts, a, sigma_negation(F))


def digraph_gf2(arcs, vertices=None) -> ColoredGraph:
    """Directed graph as a plain GF(2) graph (adj[x][y] = 1 iff arc x->y);
    generally not sigma-symmetric.  This is the bi-rank-width representation."""
    verts, pairs = _arc_indices(arcs, vertices)
    n = len(verts)
    a = [0] * (n * n)
    for i, j in pairs:
        a[i * n + j] = 1
    return ColoredGraph(field_make(2, 1), verts, a)


def tilde(G: ColoredGraph) -> SigmaGraph:
    """Lift to the quadratic extension: entry (x, y) becomes
    f~(adj[x][y], adj[y][x]); the result is sigma~-symmetric (and the
    diagonal stays zero, since f~(0, 0) = 0)."""
    ext = field_extend_quadratic(G.field)
    tab, c, n = ext.f_tilde_table, G.codes, G.n
    a = [tab[c[i * n + j]][c[j * n + i]] for i in range(n) for j in range(n)]
    return SigmaGraph(ext.ext, G.vertices, a, ext.sigma_tilde)


# -- canonical form and isomorphism ------------------------------------------

def _canonical_labelling(q: int, n: int, codes: tuple):
    """Canonical form and canonical order of a graph's matrix, given as the
    row-major tuple of its n*n element codes, by individualization-refinement
    with automorphism pruning.

    Returns ``((n, q, cert), order, autos)``: ``cert`` is the least leaf
    certificate (the matrix permuted by a leaf order, flattened row by row),
    ``order`` lists the vertex indices in that leaf's order, and ``autos``
    lists the automorphisms found on the way, each a list g with
    M[g[u]][g[v]] = M[u][v]: one per pair of equal leaves, and the swap of
    each twin pruned at sight, a vertex v of the target cell whose swap with
    the last tried vertex t is an automorphism.  Both lie off the path, so
    the swap fixes it and maps t's subtree onto v's.  The automorphisms may
    generate only a subgroup of the full automorphism group (none are listed
    for an asymmetric graph); pruning by any subgroup is sound.
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
    autos = []      # automorphisms: leaf pairs and twin swaps

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
            if tried and _twins(rows, codes, n, tried[-1], v):
                swap = list(range(n))
                swap[v], swap[tried[-1]] = tried[-1], v
                autos.append(swap)
                continue
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
    del search  # search refers to itself: free it now, not at the next gc
    return (n, q, best[0]), best[1], autos


def _twins(rows, codes, n, t, v) -> bool:
    """Is the swap of vertices t < v an automorphism of the n x n matrix
    (rows, its rows; codes, its row-major codes)?  Exactly when rows t and
    v agree off {t, v}, so do columns t and v, and M[t][v] = M[v][t]."""
    rt, rv = rows[t], rows[v]
    if rt[v] != rv[t] or rt[:t] != rv[:t] or rt[t + 1:v] != rv[t + 1:v] \
            or rt[v + 1:] != rv[v + 1:]:
        return False
    ct, cv = codes[t::n], codes[v::n]
    return ct[:t] == cv[:t] and ct[t + 1:v] == cv[t + 1:v] \
        and ct[v + 1:] == cv[v + 1:]


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
    _check_same_field(G, H)
    if G.n != H.n:
        return None
    form_g, order_g, _ = G._labelling()
    form_h, order_h, _ = H._labelling()
    if form_g != form_h:
        return None
    return {G.vertices[u]: H.vertices[w] for u, w in zip(order_g, order_h)}


# -- graph file format --------------------------------------------------------

def parse_graph(text: str) -> ColoredGraph:
    """Parse the graph file format, in which field, sigma and vertices are
    declared at most once each:

        field <p> <k>
        sigma <spec>            # optional
        vertices v1 v2 ... vn
        edge <u> <v> <element-code>
    """
    field = None
    sigma = None
    verts: Optional[tuple] = None
    edges = []
    declared = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split(None, 1)
        arg = rest[0] if rest else ""
        if head in declared:
            raise GraphError(f"line {lineno}: repeated {head} declaration")
        if head != "edge":
            declared.add(head)
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
    n = len(verts)
    a = [0] * (n * n)
    for u, v, code, lineno in edges:
        if u not in idx or v not in idx:
            raise GraphError(f"line {lineno}: unknown vertex in edge {u} {v}")
        if u == v:
            raise GraphError(f"line {lineno}: loop at {u}")
        if not 0 <= code < field.q:
            raise GraphError(f"line {lineno}: edge code {code} is not an element "
                             f"code of the field (0..{field.q - 1})")
        a[idx[u] * n + idx[v]] = code
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
    V, n = G.vertices, G.n
    lines += [f"edge {V[k // n]} {V[k % n]} {c}" for k, c in enumerate(G.codes) if c]
    return "\n".join(lines) + "\n"


def emit_dot(G: ColoredGraph) -> str:
    """DOT export: one directed edge per nonzero entry, labeled by its code."""
    lines = ["digraph G {"]
    for v in G.vertices:
        lines.append(f'  "{v}";')
    V, n = G.vertices, G.n
    lines += [f'  "{V[k // n]}" -> "{V[k % n]}" [label="{c}"];'
              for k, c in enumerate(G.codes) if c]
    lines.append("}")
    return "\n".join(lines) + "\n"

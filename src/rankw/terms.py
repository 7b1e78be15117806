"""Bilinear-product term algebras for rank-width and bi-rank-width:
evaluation of terms to colored graphs and compilation of layouts into terms.

A rank term is either a single vertex colored by a row vector u, or a product
of two terms under matrices (M, N, P): the product draws a cross edge x-y
colored gamma(x) . M . sigma(gamma(y))^T whenever that value is nonzero (and
the sigma-image the other way), then recolors the two sides by N and P.
Bi-rank terms carry separate outbound/inbound colorings and six matrices; no
sesqui-morphism is involved.  Bi-rank color widths may be zero (empty
vectors), which is what the layout compiler produces at one-sided leaves.

Evaluation runs on code rows with the field's tables: a coloring gamma is a
tuple of code-row tuples, one per vertex (a zero-width row is ``()``, so the
vertex count is kept), and each product writes its cross entries straight
into the code tuple of the evaluated graph.

The compiler roots the layout at the leaf of the graph's first vertex and,
at each node, needs the basis of the candidate vertices (the children's
bases) against the vertices outside the node, and every candidate's
coordinates in it.  One forward elimination, `_row_basis`, gives both, on
the rows of the graph's code tuple with the field's tables: once per node
for rank terms, twice for bi-rank terms
(outbound rows, inbound columns).  Color widths are cut ranks of the layout,
so connectivity plays no part: a disconnected graph compiles on the same
path, and a cut between parts with no arc across gets a zero product.
Fields of order > 256 have no tables, so compiling over them raises
MatrixError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from itertools import count, zip_longest
from typing import Union

from .fields import ORDER_BOUND, Field, Sesquimorphism, plain_int
from .graphs import ColoredGraph, SigmaGraph
from .layouts import Layout, _check_leaves, build_layout, fold, joined, read_nested
from .matrix import _require_tables


class TermError(ValueError):
    """Malformed term: dimension or field mismatch."""


@dataclass(frozen=True)
class Mat:
    """A small immutable matrix of element codes (shape kept explicitly so
    zero-size matrices round-trip)."""
    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self):
        if len(self.data) != self.rows * self.cols:
            raise TermError("matrix data does not match its shape")

    def columns(self, field: Field) -> list:
        """The columns as code tuples, after checking the entries."""
        if not all(0 <= c < field.q for c in self.data):
            raise TermError("matrix entry is not an element code of the field")
        return [self.data[c::self.cols] for c in range(self.cols)]

    def literal(self) -> str:
        body = ""
        for r in range(self.rows):
            row = self.data[r * self.cols:(r + 1) * self.cols]
            body += "; " + " ".join(str(x) for x in row)
        return f"[{self.rows} {self.cols}{body or ';'}]"

    def is_zero(self) -> bool:
        return not any(self.data)


@dataclass(frozen=True)
class RankConst:
    u: tuple[int, ...]

    def __post_init__(self):
        if len(self.u) < 1:
            raise TermError("rank constants need color width >= 1")

    @property
    def width(self) -> int:
        return len(self.u)


class _Product:
    """repr, == and hash of the product nodes, on their subterms in
    post-order: the dataclass-generated ones recurse once per level."""

    def _nodes(self) -> list:
        """The subterms in post-order, each product as its type and matrices."""
        return [(type(x), *(getattr(x, f.name) for f in fields(x)[:-2]))
                if isinstance(x, _Product) else x for x in _subterms(self)]

    def __repr__(self):
        return joined(_fold(self, repr, lambda x, a, b: (
            f"{type(x).__qualname__}(" + "".join(
                f"{f.name}={getattr(x, f.name)!r}, " for f in fields(x)[:-2])
            + "left=", a, ", right=", b, ")")))

    def __eq__(self, other):
        return (self._nodes() == other._nodes() if other.__class__ is self.__class__
                else NotImplemented)

    def __hash__(self):
        return hash(tuple(self._nodes()))


@dataclass(frozen=True, repr=False, eq=False)
class RankProd(_Product):
    m: Mat
    n: Mat
    p: Mat
    left: "RankTerm"
    right: "RankTerm"

    @property
    def width(self) -> int:
        return self.n.cols


RankTerm = Union[RankConst, RankProd]


@dataclass(frozen=True)
class BiConst:
    u: tuple[int, ...]
    v: tuple[int, ...]


@dataclass(frozen=True, repr=False, eq=False)
class BiProd(_Product):
    m1: Mat
    m2: Mat
    n1: Mat
    n2: Mat
    p1: Mat
    p2: Mat
    left: "BiRankTerm"
    right: "BiRankTerm"


BiRankTerm = Union[BiConst, BiProd]


@dataclass
class VColoredGraph:
    graph: ColoredGraph
    gamma: tuple  # |V| code rows of width k


@dataclass
class BiColoredGraph:
    graph: ColoredGraph
    gamma_plus: tuple   # |V| code rows of width k1
    gamma_minus: tuple  # |V| code rows of width k2


_PRODUCTS = (RankProd, BiProd)


def _subterms(t, products=_PRODUCTS):
    """The subterms of t in post-order (left, right, then their product),
    listed without recursion; only nodes of the `products` types are opened."""
    order, stack = [], [t]
    while stack:
        x = stack.pop()
        order.append(x)
        if isinstance(x, products):
            stack += (x.left, x.right)
    return reversed(order)


def _fold(t, const, prod, products=_PRODUCTS):
    """`fold` over t's subterms: prod(x, a, b) at each product x of the
    given types, whose subterms have the values a and b, and const(x) at
    every other node."""
    return fold(_subterms(t, products), const, prod,
                lambda x: isinstance(x, products))


def term_leaves(t) -> int:
    return sum(not isinstance(x, _PRODUCTS) for x in _subterms(t))


def term_max_width(t) -> int:
    """Largest color width appearing in the term (k1+k2 for bi-rank nodes)."""
    def width(x) -> int:
        if isinstance(x, RankConst):
            return len(x.u)
        if isinstance(x, BiConst):
            return len(x.u) + len(x.v)
        if isinstance(x, RankProd):
            return max(x.m.rows, x.m.cols, x.n.cols)
        return max(x.m1.rows + x.m2.rows,      # k1 + k2
                   x.m2.cols + x.m1.cols,      # l1 + l2
                   x.n1.cols + x.n2.cols)      # m1 + m2

    return max(map(width, _subterms(t)))


# -- evaluation -----------------------------------------------------------------

def _times(rows, cols, field: Field) -> list:
    """The code rows times the columns: entry (i, c) is the dot product of
    rows[i] and cols[c], computed once per distinct row."""
    ADD, MUL = field.ADD, field.MUL

    def dot(u, v):
        acc = 0
        for a, b in zip(u, v):
            if a and b:
                acc = ADD[acc][MUL[a][b]]
        return acc

    memo = {r: tuple(dot(r, c) for c in cols) for r in set(rows)}
    return [memo[r] for r in rows]


def _place(codes: list, n: int, lo: int, mid: int, block):
    """Write the code rows of block into the flat n x n code list codes, in
    rows lo, lo + 1, ... from column mid."""
    for i, row in enumerate(block, lo):
        if any(row):
            codes[i * n + mid:i * n + mid + len(row)] = row


def _evaluate(t, kind, prod_kind, field: Field, product):
    """The colorings of t (constants of type kind, products of type
    prod_kind).  A constant is one vertex colored by its checked vectors;
    product(x, lo, mid, left, right) writes the cross entries of x, whose
    subterms have the colorings left (vertices from lo) and right (from
    mid), and returns x's colorings."""
    if isinstance(t, prod_kind):
        _require_tables(field)
    leaves = count()

    def const(x):
        if not isinstance(x, kind):
            name = "rank" if kind is RankConst else "bi-rank"
            raise TermError(f"not a {name} term node: {x!r}")
        colors = tuple((tuple(getattr(x, f.name)),) for f in fields(x))
        if not all(0 <= e < field.q for (c,) in colors for e in c):
            raise TermError("constant color is not an element code")
        return next(leaves), colors

    def prod(x, left, right):
        (lo, colors_l), (mid, colors_r) = left, right
        return lo, product(x, lo, mid, colors_l, colors_r)

    return _fold(t, const, prod, prod_kind)[1]


def eval_rank_term(t: RankTerm, sigma: Sesquimorphism) -> VColoredGraph:
    """Evaluate to a sigma-symmetric graph with vertices numbered by leaf
    position, and its coloring gamma."""
    field, sig = sigma.field, sigma.table.__getitem__
    n = term_leaves(t)
    codes = [0] * (n * n)

    def product(x, lo, mid, left, right):
        (gam_g,), (gam_h,) = left, right
        M, N, P = (m.columns(field) for m in (x.m, x.n, x.p))
        k, l = len(gam_g[0]), len(gam_h[0])
        if (x.m.rows, x.m.cols) != (k, l):
            raise TermError(f"M must be {k}x{l}, got {(x.m.rows, x.m.cols)}")
        if x.n.rows != k or x.p.rows != l or x.n.cols != x.p.cols:
            raise TermError("N and P must map both sides to one color width")
        if not x.m.is_zero():
            # gamma(x) M sigma(gamma(y))^T, and its sigma-image the other way
            cross = _times(_times(gam_g, M, field),
                           [tuple(map(sig, r)) for r in gam_h], field)
            _place(codes, n, lo, mid, cross)
            _place(codes, n, mid, lo, [tuple(map(sig, c)) for c in zip(*cross)])
        return (tuple(_times(gam_g, N, field) + _times(gam_h, P, field)),)

    gamma, = _evaluate(t, RankConst, RankProd, field, product)
    return VColoredGraph(SigmaGraph(field, range(n), codes, sigma), gamma)


def eval_birank_term(t: BiRankTerm, field: Field) -> BiColoredGraph:
    """Evaluate a bi-rank term over the field, to a graph with vertices
    numbered by leaf position and its colorings gamma+ and gamma-."""
    n = term_leaves(t)
    codes = [0] * (n * n)

    def product(x, lo, mid, left, right):
        (gp_g, gm_g), (gp_h, gm_h) = left, right
        M1, M2, N1, N2, P1, P2 = (m.columns(field)
                                  for m in (x.m1, x.m2, x.n1, x.n2, x.p1, x.p2))
        k1, k2 = len(gp_g[0]), len(gm_g[0])
        l1, l2 = len(gp_h[0]), len(gm_h[0])
        if (x.m1.rows, x.m1.cols) != (k1, l2):
            raise TermError(f"M1 must be {k1}x{l2}, got {(x.m1.rows, x.m1.cols)}")
        if (x.m2.rows, x.m2.cols) != (k2, l1):
            raise TermError(f"M2 must be {k2}x{l1}, got {(x.m2.rows, x.m2.cols)}")
        if x.n1.rows != k1 or x.p1.rows != l1 or x.n1.cols != x.p1.cols:
            raise TermError("N1/P1 must map the outbound colors to one width")
        if x.n2.rows != k2 or x.p2.rows != l2 or x.n2.cols != x.p2.cols:
            raise TermError("N2/P2 must map the inbound colors to one width")
        if not x.m1.is_zero():   # G -> H arcs
            _place(codes, n, lo, mid, _times(_times(gp_g, M1, field), gm_h, field))
        if not x.m2.is_zero():   # H -> G arcs
            back = _times(_times(gm_g, M2, field), gp_h, field)
            _place(codes, n, mid, lo, list(zip(*back)))
        return (tuple(_times(gp_g, N1, field) + _times(gp_h, P1, field)),
                tuple(_times(gm_g, N2, field) + _times(gm_h, P2, field)))

    gp, gm = _evaluate(t, BiConst, BiProd, field, product)
    return BiColoredGraph(ColoredGraph(field, range(n), codes), gp, gm)


# -- syntactic layout -------------------------------------------------------------

def syntactic_layout(t) -> Layout:
    """The term's binary syntactic tree as an unrooted layout; leaves are the
    constants numbered left to right (matching evaluation vertex labels)."""
    leaves = count()
    tree = _fold(t, lambda x: next(leaves), lambda x, a, b: (a, b))
    return build_layout(tree, range(term_leaves(t)))


# -- vertex bases and layout compilation --------------------------------------------

def _row_basis(rows, field: Field):
    """One forward elimination over `rows` (code lists of one length, over
    a field with tables).  Returns the indices
    of the greedy leftmost-independent rows (each raises the rank of the rows
    before it) and every row's coordinates in those basis rows, unique
    because the basis is independent.

    Echelon rows have unit pivots and carry their own coordinates in the
    basis.  A row is reduced against them in order, adding up what it
    subtracts: that sum is the row's coordinates, unless a nonzero remainder
    makes the row the next basis row."""
    ADD, SUB, MUL, INV, NEG = field.ADD, field.SUB, field.MUL, field.INV, field.NEG
    echelon = []  # (pivot column, unit-pivot row, its coordinates)
    basis, coords = [], []
    for i, v in enumerate(rows):
        c = []
        for p, e_row, t in echelon:
            e = v[p]
            if e:
                me = MUL[e]
                v = [SUB[x][me[y]] for x, y in zip(v, e_row)]
                c = [ADD[x][me[y]] for x, y in zip_longest(c, t, fillvalue=0)]
        p = next((j for j, x in enumerate(v) if x), None)
        if p is None:
            coords.append(c)
            continue
        mp = MUL[INV[v[p]]]
        c += [0] * (len(basis) - len(c))
        echelon.append((p, [mp[x] for x in v], [mp[NEG[x]] for x in c] + [mp[1]]))
        coords.append([0] * len(basis) + [1])
        basis.append(i)
    k = len(basis)
    return basis, [c + [0] * (k - len(c)) for c in coords]


def _basis_coords(A, cands, inside: int, field: Field):
    """The greedy basis among the candidate rows A[z] (z in cands, in order)
    on the columns outside the bitmask inside, and a map from each candidate
    to its coordinates in that basis."""
    if not cands:
        return (), {}
    rest = [y for y, b in enumerate(f"{inside:0{len(A)}b}"[::-1]) if b == "0"]
    picked, coords = _row_basis([[A[z][y] for y in rest] for z in cands], field)
    return tuple(cands[i] for i in picked), dict(zip(cands, coords))


def _mat(rows, r: int, c: int) -> Mat:
    """The r x c matrix holding the given code rows, zero-padded."""
    data = []
    for row in rows:
        data += row
        data += [0] * (c - len(row))
    return Mat(r, c, tuple(data) + (0,) * (c * (r - len(rows))))


def term_from_layout_rank(G: SigmaGraph, L: Layout) -> RankTerm:
    """Compile a layout of G into a rank term whose evaluation is isomorphic
    to G; all matrix dimensions stay within the layout's cutrk-width
    (padded to >= 1 where a vertex basis is empty).

    The layout is rooted at the edge incident to the leaf of G's first
    vertex; at each node the cross matrix is (1/sigma(1)) M[X1][X2] over the
    child bases and N/P carry each child-basis row's coordinates in the
    parent basis."""
    rooted = _rooted(G, L)
    if not isinstance(G, SigmaGraph):
        raise TermError("rank terms compile from sigma-symmetric graphs")
    F = G.field
    _require_tables(F)
    scale = F.MUL[F.inv(G.sigma.one)]
    A = G.rows()

    def leaf(node):
        x = G._index[L.leaves[node]]
        return RankConst((1,)), (x,) if any(A[x]) else (), 1 << x

    def join(_, left, right):
        (t1, X1, vs1), (t2, X2, vs2) = left, right
        vs = vs1 | vs2
        Xu, coords = _basis_coords(A, sorted(X1 + X2), vs, F)
        w1, w2, wu = max(1, len(X1)), max(1, len(X2)), max(1, len(Xu))
        m = _mat([[scale[A[a][b]] for b in X2] for a in X1], w1, w2)
        t = RankProd(m, _mat([coords[z] for z in X1], w1, wu),
                     _mat([coords[z] for z in X2], w2, wu), t1, t2)
        return t, Xu, vs

    return fold(rooted, leaf, join)[0]


def term_from_layout_birank(G: ColoredGraph, L: Layout) -> BiRankTerm:
    """Compile a layout of G into a bi-rank term; per node the outbound and
    inbound color widths are the exact vertex-basis sizes, so k1+k2 equals
    the bi-cut-rank of the node's cut."""
    rooted = _rooted(G, L)
    _require_tables(G.field)
    A = G.rows()
    AT = list(zip(*A))

    def leaf(node):
        x = G._index[L.leaves[node]]
        Xp = (x,) if any(A[x]) else ()
        Xm = (x,) if any(AT[x]) else ()
        return BiConst((1,) * len(Xp), (1,) * len(Xm)), Xp, Xm, 1 << x

    def join(_, left, right):
        (t1, Xp1, Xm1, vs1), (t2, Xp2, Xm2, vs2) = left, right
        vs = vs1 | vs2
        # outbound basis over the rows A[z], inbound over the columns A[.][z]
        Xpu, cp = _basis_coords(A, sorted(Xp1 + Xp2), vs, G.field)
        Xmu, cm = _basis_coords(AT, sorted(Xm1 + Xm2), vs, G.field)
        kp, km = len(Xpu), len(Xmu)
        t = BiProd(_mat([[A[a][b] for b in Xm2] for a in Xp1], len(Xp1), len(Xm2)),
                   _mat([[AT[a][b] for b in Xp2] for a in Xm1], len(Xm1), len(Xp2)),
                   _mat([cp[z] for z in Xp1], len(Xp1), kp),
                   _mat([cm[z] for z in Xm1], len(Xm1), km),
                   _mat([cp[z] for z in Xp2], len(Xp2), kp),
                   _mat([cm[z] for z in Xm2], len(Xm2), km), t1, t2)
        return t, Xpu, Xmu, vs

    return fold(rooted, leaf, join)[0]


def compiled_leaf_order(G: ColoredGraph, L: Layout) -> list:
    """Graph vertices in the leaf order the compiler uses, matching
    evaluation vertex numbering."""
    return [L.leaves[x] for x in _rooted(G, L) if x is not None]


def _rooted(G: ColoredGraph, L: Layout):
    """L rooted at G's first vertex, the compilers' walk, once L fits G."""
    _check_leaves(L, G)
    return L.rooted(G.vertices[0])


# -- term file format (s-expressions) ---------------------------------------------

# a comment, or a parenthesis, a matrix literal (unclosed at the end) or a word
_term_tokens = re.compile(r"#[^\n]*|([()]|\[[^\]]*\]?|[^\s()\[#]+)").findall


def _tokenize(text: str) -> list[str]:
    tokens = [t for t in _term_tokens(text) if t]
    if tokens and tokens[-1][0] == "[" and tokens[-1][-1] != "]":
        raise TermError(f"unclosed matrix literal at character "
                        f"{len(text) - len(tokens[-1])}")
    return tokens


def _mat_from_token(tok: str) -> Mat:
    if not tok.startswith("["):
        raise TermError(f"expected a matrix literal, got {tok!r}")
    parts = [p.strip() for p in tok[1:-1].split(";")]
    try:
        r, c = (plain_int(x) for x in parts[0].split())
        data = tuple(plain_int(x) for row in parts[1:] for x in row.split())
    except ValueError:
        raise TermError(f"bad matrix literal {tok!r}") from None
    if min(r, c, *data) < 0 or any(x >= ORDER_BOUND for x in data):
        raise TermError(f"bad matrix literal {tok!r}")
    return Mat(r, c, data)


# head -> (matrix arguments, subterms, node type)
_HEADS = {"biconst": (2, 0, BiConst), "prod": (3, 2, RankProd),
          "biprod": (6, 2, BiProd)}


def _term_node(items, at):
    """The term of one group: a head word, then its arguments, the subterms
    among them already read.  A subterm where a word belongs is named by its
    "(", a missing argument by the group's ")", and at gives token numbers."""
    words = [x if x.__class__ is str else "(" for x in items] + [")"]
    head = words[0]
    if head == "const":
        codes = []
        for tok in words[1:-1]:
            try:
                codes.append(plain_int(tok))
            except ValueError:
                raise TermError(f"constant color {tok!r} is not an integer") from None
            if not 0 <= codes[-1] < ORDER_BOUND:
                raise TermError(f"constant color {tok} is not an element code")
        return RankConst(tuple(codes))
    if head not in _HEADS:
        raise TermError(f"unknown term head {head!r}")
    k, subterms, kind = _HEADS[head]
    mats = [_mat_from_token(tok) for tok in words[1:k + 1]]  # a short group fails at ")"
    end = k + 1 + subterms
    for j in range(k + 1, end):
        if words[j] != "(":
            raise TermError(f"expected '(' at token {at[j]}")
    if len(items) > end:
        raise TermError(f"expected ')' at token {at[end]}")
    if kind is BiConst:
        u, v = mats
        if u.rows != 1 or v.rows != 1:
            raise TermError("biconst vectors must be 1-row matrices")
        return BiConst(u.data, v.data)
    return kind(*mats, *items[k + 1:end])


def parse_term(text: str):
    """Parse `(const ...)`, `(biconst U V)`, `(prod M N P t1 t2)`, and
    `(biprod M1 M2 N1 N2 P1 P2 t1 t2)` s-expressions, nested to any depth."""
    items, unclosed = read_nested(_tokenize(text), str, _term_node)
    if unclosed is not None:
        raise TermError("unexpected end of term")
    if not items or items[0].__class__ is str:
        raise TermError("expected '(' at token 0")
    if len(items) > 1:
        raise TermError("trailing tokens after term")
    return items[0]


def emit_term(t) -> str:
    def const(t) -> str:
        if isinstance(t, RankConst):
            return "(const " + " ".join(str(c) for c in t.u) + ")"
        if isinstance(t, BiConst):
            u = Mat(1, len(t.u), t.u).literal()
            v = Mat(1, len(t.v), t.v).literal()
            return f"(biconst {u} {v})"
        raise TermError(f"not a term: {t!r}")

    def prod(t, left, right) -> tuple:
        if isinstance(t, RankProd):
            head, mats = "prod", (t.m, t.n, t.p)
        else:
            head, mats = "biprod", (t.m1, t.m2, t.n1, t.n2, t.p1, t.p2)
        return (f"({head} {' '.join(x.literal() for x in mats)} ", left, " ", right, ")")

    return joined(_fold(t, const, prod))

"""Independent arithmetic and search used to check the outputs of `rankw`.

Nothing here imports `rankw`: fields, ranks, cut functions, exact widths,
layouts, term evaluation, GF(2) complementations and isomorphism are all
recomputed from first principles, so a fault in the program cannot also hide
in its own check.

Graphs are plain tuples of rows of element codes.  Element codes follow the
`rankw` file format: GF(2) = {0, 1}, GF(3) = {0, 1, 2 = -1}, and GF(4) =
{0, 1, a = 2, a^2 = 3} with a^2 = a + 1.
"""

from __future__ import annotations

import itertools


class Field:
    """GF(2), GF(3) or GF(4) by explicit tables built from the polynomials."""

    def __init__(self, q: int):
        if q not in (2, 3, 4):
            raise ValueError(f"no oracle field of order {q}")
        self.q = q
        if q == 4:
            # code c0 + 2*c1 is c0 + c1*a; a^2 = a + 1 over GF(2)
            def mul(x, y):
                a0, a1, b0, b1 = x & 1, x >> 1, y & 1, y >> 1
                c0 = (a0 & b0) ^ (a1 & b1)
                c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
                return c0 | (c1 << 1)
            self.add = [[x ^ y for y in range(4)] for x in range(4)]
            self.mul = [[mul(x, y) for y in range(4)] for x in range(4)]
            self.neg = list(range(4))
            self.conj = [0, 1, 3, 2]          # Frobenius x -> x^2
        else:
            self.add = [[(x + y) % q for y in range(q)] for x in range(q)]
            self.mul = [[(x * y) % q for y in range(q)] for x in range(q)]
            self.neg = [(-x) % q for x in range(q)]
            self.conj = list(range(q))
        self.inv = [0] * q
        for x in range(1, q):
            self.inv[x] = next(y for y in range(1, q) if self.mul[x][y] == 1)
        # the sesqui-morphism of each encoding: identity over GF(2),
        # negation over GF(3), Frobenius conjugation over GF(4)
        self.sigma = {2: list(range(2)), 3: self.neg, 4: self.conj}[q]

    def rank(self, rows) -> int:
        """Rank of a list of equal-length rows by Gaussian elimination."""
        if self.q == 2:
            return rank_gf2([sum(b << i for i, b in enumerate(r)) for r in rows])
        rows = [list(r) for r in rows if any(r)]
        add, mul, neg, inv = self.add, self.mul, self.neg, self.inv
        rank = 0
        while rows:
            pivot = rows.pop()
            col = next(i for i, x in enumerate(pivot) if x)
            scale = inv[pivot[col]]
            pivot = [mul[scale][x] for x in pivot]
            rank += 1
            rest = []
            for r in rows:
                c = r[col]
                if c:
                    f = neg[c]
                    r = [add[x][mul[f][p]] for x, p in zip(r, pivot)]
                    if not any(r):
                        continue
                rest.append(r)
            rows = rest
        return rank

    def matmul(self, a, b, cols: int):
        """Product of row lists a (r x len(b)) and b (len(b) x cols)."""
        add, mul = self.add, self.mul
        out = []
        for row in a:
            if len(row) != len(b):
                raise ValueError("matrix dimensions do not chain")
            acc = [0] * cols
            for x, brow in zip(row, b):
                if x:
                    acc = [add[s][mul[x][y]] for s, y in zip(acc, brow)]
            out.append(acc)
        return out


def transpose(a, cols: int):
    """Transpose of a row list whose rows have `cols` entries."""
    return [[row[j] for row in a] for j in range(cols)]


def rank_gf2(rows) -> int:
    """Rank over GF(2) of rows given as int bitmasks (XOR basis)."""
    basis = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
    return len(basis)


FIELDS = {q: Field(q) for q in (2, 3, 4)}


# -- cut functions and exact width -----------------------------------------------

class Cuts:
    """cutrk or bicutrk of a graph as a function of a vertex bitmask."""

    def __init__(self, q: int, adj, kind: str):
        if kind not in ("cutrk", "bicutrk"):
            raise ValueError(kind)
        self.field = FIELDS[q]
        self.adj = adj
        self.kind = kind
        self.n = len(adj)
        self.full = (1 << self.n) - 1
        self.memo = {}

    def __call__(self, mask: int) -> int:
        key = min(mask, self.full ^ mask)
        v = self.memo.get(key)
        if v is None:
            xs = [i for i in range(self.n) if key >> i & 1]
            ys = [i for i in range(self.n) if not key >> i & 1]
            a, rk = self.adj, self.field.rank
            v = rk([[a[x][y] for y in ys] for x in xs]) if xs and ys else 0
            if self.kind == "bicutrk" and xs and ys:
                v += rk([[a[y][x] for x in xs] for y in ys])
            self.memo[key] = v
        return v


def exact_width(cuts: Cuts) -> int:
    """Minimum width over all sub-cubic layouts, by a subset DP.

    Rooting a layout at the leaf edge of vertex 0 turns it into a rooted
    binary tree on the other vertices whose every subtree leaf set is a cut;
    w[S] is the best width of such a tree on S.  O(3^n) in pure Python, so
    meant for n <= 10 at run time and n <= 16 when regenerating references.
    """
    n = cuts.n
    if n <= 1:
        return 0
    rest = cuts.full & ~1
    w = {}
    for s in range(2, rest + 1, 2):          # every nonempty subset of rest
        f = cuts(s)
        if s & (s - 1) == 0:
            w[s] = f
            continue
        low = s & -s
        others = s ^ low
        best = None
        sub = others
        while True:
            a = low | (others ^ sub)
            if a != s:
                wa, wb = w[a], w[s ^ a]
                m = wa if wa > wb else wb
                if best is None or m < best:
                    best = m
                    if best <= f:
                        break
            if sub == 0:
                break
            sub = (sub - 1) & others
        w[s] = f if f > best else best
    return w[rest]


# -- layouts in Newick form --------------------------------------------------------

def newick_cuts(text: str):
    """Leaf labels of a Newick layout and the leaf sets below its nodes.

    Every tree edge separates the leaves below one node from the rest, so the
    returned sets are one side of every cut of the layout."""
    text = text.strip().rstrip(";")
    pos = 0
    leaves = []
    sides = []

    def parse():
        nonlocal pos
        if text[pos] == "(":
            pos += 1
            below = set()
            while True:
                below |= parse()
                if text[pos] == ",":
                    pos += 1
                    continue
                if text[pos] != ")":
                    raise ValueError(f"bad layout text at {pos}")
                pos += 1
                sides.append(frozenset(below))
                return below
        start = pos
        while pos < len(text) and text[pos] not in "(),":
            pos += 1
        label = text[start:pos].strip()
        if not label:
            raise ValueError("empty leaf label")
        leaves.append(label)
        sides.append(frozenset([label]))
        return {label}

    parse()
    if pos != len(text):
        raise ValueError("trailing text after layout")
    if len(set(leaves)) != len(leaves):
        raise ValueError("repeated leaf label")
    whole = frozenset(leaves)
    cuts = {s for s in sides if s and s != whole}
    return leaves, cuts


# -- terms -------------------------------------------------------------------------

def _mat(m):
    """A term matrix (rows, cols, data) as row lists."""
    return [list(m.data[r * m.cols:(r + 1) * m.cols]) for r in range(m.rows)]


def eval_rank_term(t, q: int):
    """(adjacency, gamma) of a rank term, vertices numbered left to right."""
    F = FIELDS[q]
    if not hasattr(t, "left"):
        return [[0]], [list(t.u)]
    a_g, gam_g = eval_rank_term(t.left, q)
    a_h, gam_h = eval_rank_term(t.right, q)
    M, N, P = _mat(t.m), _mat(t.n), _mat(t.p)
    k, l = len(gam_g[0]), len(gam_h[0])
    if (t.m.rows, t.m.cols) != (k, l) or t.n.rows != k or t.p.rows != l \
            or t.n.cols != t.p.cols:
        raise ValueError("term matrix dimensions do not chain")
    ng, nh = len(a_g), len(a_h)
    sig_h = [[F.sigma[x] for x in row] for row in gam_h]
    cross = F.matmul(F.matmul(gam_g, M, l), transpose(sig_h, l), nh)
    adj = [row + [0] * nh for row in a_g] + [[0] * ng + row for row in a_h]
    for i in range(ng):
        for j in range(nh):
            adj[i][ng + j] = cross[i][j]
            adj[ng + j][i] = F.sigma[cross[i][j]]
    gamma = F.matmul(gam_g, N, t.n.cols) + F.matmul(gam_h, P, t.p.cols)
    return adj, gamma


def eval_birank_term(t, q: int):
    """(adjacency, gamma+, gamma-) of a bi-rank term."""
    F = FIELDS[q]
    if not hasattr(t, "left"):
        return [[0]], [list(t.u)], [list(t.v)]
    a_g, gp_g, gm_g = eval_birank_term(t.left, q)
    a_h, gp_h, gm_h = eval_birank_term(t.right, q)
    k1, k2 = len(gp_g[0]), len(gm_g[0])
    l1, l2 = len(gp_h[0]), len(gm_h[0])
    if (t.m1.rows, t.m1.cols) != (k1, l2) or (t.m2.rows, t.m2.cols) != (k2, l1):
        raise ValueError("term matrix dimensions do not chain")
    if t.n1.rows != k1 or t.p1.rows != l1 or t.n1.cols != t.p1.cols \
            or t.n2.rows != k2 or t.p2.rows != l2 or t.n2.cols != t.p2.cols:
        raise ValueError("term matrix dimensions do not chain")
    ng, nh = len(a_g), len(a_h)
    fwd = F.matmul(F.matmul(gp_g, _mat(t.m1), l2), transpose(gm_h, l2), nh)
    back = F.matmul(F.matmul(gm_g, _mat(t.m2), l1), transpose(gp_h, l1), nh)
    adj = [row + [0] * nh for row in a_g] + [[0] * ng + row for row in a_h]
    for i in range(ng):
        for j in range(nh):
            adj[i][ng + j] = fwd[i][j]
            adj[ng + j][i] = back[i][j]
    gp = F.matmul(gp_g, _mat(t.n1), t.n1.cols) + F.matmul(gp_h, _mat(t.p1), t.p1.cols)
    gm = F.matmul(gm_g, _mat(t.n2), t.n2.cols) + F.matmul(gm_h, _mat(t.p2), t.p2.cols)
    return adj, gp, gm


def term_width(t) -> int:
    """Largest matrix dimension in a term (k1 + k2 etc. for bi-rank nodes)."""
    if not hasattr(t, "left"):
        return len(t.u) + len(getattr(t, "v", ()))
    if hasattr(t, "m1"):
        dims = (t.m1.rows + t.m2.rows, t.m1.cols + t.m2.cols,
                t.n1.cols + t.n2.cols)
    else:
        dims = (t.m.rows, t.m.cols, t.n.cols)
    return max(max(dims), term_width(t.left), term_width(t.right))


# -- GF(2) complementations and isomorphism -----------------------------------------

def local_complement_gf2(adj, v: int):
    """Complement the neighbourhood of v (undirected GF(2) graph)."""
    n = len(adj)
    nb = [u for u in range(n) if adj[v][u]]
    new = [list(r) for r in adj]
    for x, y in itertools.combinations(nb, 2):
        new[x][y] ^= 1
        new[y][x] ^= 1
    return tuple(map(tuple, new))


def pivot_gf2(adj, u: int, v: int):
    """Pivot on the edge uv: G * u * v * u."""
    return local_complement_gf2(local_complement_gf2(local_complement_gf2(adj, u), v), u)


def canonical(adj):
    """Lexicographically least adjacency over all vertex orders."""
    n = len(adj)
    return min(tuple(adj[p[i]][p[j]] for i in range(n) for j in range(n))
               for p in itertools.permutations(range(n)))


def gf2_class(adjs, relation: str):
    """Canonical forms of every graph reachable by local complementations
    ('sigma-vertex') or by pivots on edges ('pivot')."""
    seen = {}
    frontier = [tuple(map(tuple, a)) for a in adjs]
    labelled = set(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            seen.setdefault(canonical(a), a)
            n = len(a)
            if relation == "pivot":
                moves = [pivot_gf2(a, u, v) for u in range(n) for v in range(n)
                         if u < v and a[u][v]]
            else:
                moves = [local_complement_gf2(a, v) for v in range(n)]
            for b in moves:
                if b not in labelled:
                    labelled.add(b)
                    nxt.append(b)
        frontier = nxt
    return set(seen)

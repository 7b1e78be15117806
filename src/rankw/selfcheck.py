"""Property battery behind `rankw selfcheck`: one named check per module
invariant, each deterministic given the seed (Python's random.Random, a
Mersenne Twister).

Also home to the random instance builders the test-suite shares.
"""

from __future__ import annotations

import random
from typing import Callable

import numpy as np

from .cutrank import CutFunction
from .fields import (field_extend_quadratic, field_make, sesqui_check,
                     sigma_compatible_set, sigma_frobenius_conj,
                     sigma_identity, sigma_negation)
from .graphs import (ColoredGraph, SigmaGraph, digraph_gf2, encode_directed,
                     encode_undirected, is_sigma_symmetric, isomorphic, tilde)
from .layouts import (birankwidth, enumerate_layouts, layout_width, rankwidth,
                      width_exact)
from .matrix import np_tables, rank_of
from .terms import (eval_birank_term, eval_rank_term, syntactic_layout,
                    term_from_layout_birank, term_from_layout_rank,
                    compiled_leaf_order)
from .transform import (ec_cycle, local_complement, pivot_complement)


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


def _std_cases():
    F2, F3, F4 = field_make(2, 1), field_make(3, 1), field_make(2, 2)
    return [(F2, sigma_identity(F2)), (F3, sigma_identity(F3)),
            (F3, sigma_negation(F3)), (F4, sigma_frobenius_conj(F4))]


# -- the checks -----------------------------------------------------------------

def check_field_axioms(rng) -> bool:
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                 (2, 4), (5, 2), (3, 3), (2, 6)]:
        F = field_make(p, k)
        q = F.q
        i = np.arange(q)
        A, M = (np.array(t, dtype=np.int64) for t in (F.ADD, F.MUL))
        if not (np.array_equal(A, A.T) and np.array_equal(M, M.T)):
            return False
        if not np.array_equal(A[A[i[:, None, None], i[None, :, None]], i[None, None, :]],
                              A[i[:, None, None], A[i[None, :, None], i[None, None, :]]]):
            return False
        if not np.array_equal(M[M[i[:, None, None], i[None, :, None]], i[None, None, :]],
                              M[i[:, None, None], M[i[None, :, None], i[None, None, :]]]):
            return False
        if not np.array_equal(M[i[:, None, None], A[i[None, :, None], i[None, None, :]]],
                              A[M[i[:, None, None], i[None, :, None]],
                                M[i[:, None, None], i[None, None, :]]]):
            return False
        if any(F.mul(a, F.inv(a)) != 1 for a in range(1, q)):
            return False
    return True


def check_quadratic_extensions(rng) -> bool:
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 3), (2, 4)]:
        base = field_make(p, k)
        if base.q > 16:
            continue
        e = field_extend_quadratic(base)
        X, g, t, pe = e.ext, e.gamma, e.tau, e.p_elt
        pinv = X.inv(pe)
        if X.add(g, t) != 1 or X.mul(pe, t) != e.alpha:
            return False
        if X.mul(g, g) != X.add(X.mul(X.add(1, pinv), g), X.mul(pinv, t)):
            return False
        if X.mul(t, t) != X.add(X.mul(pinv, g), X.mul(X.add(1, pinv), t)):
            return False
        # gamma*tau = -p^{-1}(gamma + tau); sign-free in characteristic 2
        if X.mul(g, t) != X.neg(X.add(X.mul(pinv, g), X.mul(pinv, t))):
            return False
        pairs = {e.f_tilde(a, b) for a in range(base.q) for b in range(base.q)}
        if len(pairs) != X.q:
            return False
        if not sesqui_check(X, e.sigma_tilde.table):
            return False
        if 1 not in sigma_compatible_set(e.sigma_tilde):
            return False
    return True


def check_rank_properties(rng) -> bool:
    for F, _ in _std_cases():
        ADD, _, MUL, _, _ = np_tables(F)
        for _ in range(20):
            m, n = rng.randrange(1, 6), rng.randrange(1, 6)
            a = np.array([[rng.randrange(F.q) for _ in range(n)]
                          for _ in range(m)], dtype=np.uint16)
            b = np.array([[rng.randrange(F.q) for _ in range(n)]
                          for _ in range(m)], dtype=np.uint16)
            ra, rb = rank_of(a, F), rank_of(b, F)
            if rank_of(ADD[a, b], F) > ra + rb:
                return False
            if rank_of(a.T.copy(), F) != ra:
                return False
            c = rng.randrange(1, F.q)
            if rank_of(MUL[c, a], F) != ra:
                return False
    return True


def check_rank_submodularity(rng) -> bool:
    """Rank submodularity over all index-subset quadruples of random
    matrices."""
    for F, _ in _std_cases():
        m, n = 3, 4
        a = np.array([[rng.randrange(F.q) for _ in range(n)]
                      for _ in range(m)], dtype=np.uint16)
        R = np.zeros((1 << m, 1 << n), dtype=np.int64)
        for rm in range(1 << m):
            rows = [i for i in range(m) if rm >> i & 1]
            for cm in range(1 << n):
                cols = [j for j in range(n) if cm >> j & 1]
                R[rm, cm] = rank_of(a[np.ix_(rows, cols)], F) if rows and cols else 0
        for x1 in range(1 << m):
            for y1 in range(1 << m):
                lhs_rows = R[x1][:, None] + R[y1][None, :]
                for x2 in range(1 << n):
                    for y2 in range(1 << n):
                        if R[x1, x2] + R[y1, y2] < R[x1 | y1, x2 & y2] + R[x1 & y1, x2 | y2]:
                            return False
    return True


def cut_block_ranks(G: ColoredGraph, X: int) -> tuple[int, int]:
    """rank_of of the blocks M[X][V\\X] and M[V\\X][X] of the mask X, 0 for an
    empty side: the reference that the cut kernels are checked against."""
    rows = [i for i in range(G.n) if X >> i & 1]
    cols = [i for i in range(G.n) if not X >> i & 1]
    if not rows or not cols:
        return 0, 0
    return (rank_of(G.adj[np.ix_(rows, cols)], G.field),
            rank_of(G.adj[np.ix_(cols, rows)], G.field))


def check_cut_functions(rng) -> bool:
    """Symmetry, submodularity and lambda = bicutrk + 1, with every cutrk and
    bicutrk value also compared with rank_of of its blocks."""
    for _ in range(30):
        F, s = rng.choice(_std_cases())
        n = rng.randrange(1, 7)
        G = random_sigma_graph(rng, F, s, n)
        f = CutFunction(G, "cutrk")
        fb = CutFunction(G, "bicutrk")
        fl = CutFunction(G, "lambda")
        full = (1 << n) - 1
        for X in range(full + 1):
            out, back = cut_block_ranks(G, X)
            if f(X) != out or fb(X) != out + back:
                return False
            if f(X) != f(full ^ X) or fb(X) != 2 * f(X) or fl(X) != fb(X) + 1:
                return False
            for Y in range(full + 1):
                if f(X | Y) + f(X & Y) > f(X) + f(Y):
                    return False
        A = random_colored_graph(rng, F, n)
        fb2, fl2 = CutFunction(A, "bicutrk"), CutFunction(A, "lambda")
        for X in range(full + 1):
            if fb2(X) != sum(cut_block_ranks(A, X)):
                return False
            if fb2(X) != fb2(full ^ X) or fl2(X) != fb2(X) + 1:
                return False
            for Y in range(full + 1):
                if fb2(X | Y) + fb2(X & Y) > fb2(X) + fb2(Y):
                    return False
    return True


def check_tilde(rng) -> bool:
    F2, F3 = field_make(2, 1), field_make(3, 1)
    for _ in range(200):
        F = rng.choice([F2, F3])
        n = rng.randrange(1, 9)
        G = random_colored_graph(rng, F, n)
        T = tilde(G)
        ext = field_extend_quadratic(F)
        if not is_sigma_symmetric(T, ext.sigma_tilde):
            return False
    # undirected GF(2): entries stay 0/1 and the encoding matches
    for _ in range(40):
        n = rng.randrange(1, 8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        G = encode_undirected(edges, vertices=range(n))
        T = tilde(G.drop_sigma())
        if set(np.unique(T.adj)) - {0, 1}:
            return False
        if not np.array_equal(T.adj, G.adj):
            return False
    # directed: tilde vs section-3.4 table differ by the a <-> a^2 automorphism
    s4 = sigma_frobenius_conj(field_make(2, 2))
    for _ in range(40):
        n = rng.randrange(2, 7)
        arcs = random_digraph_arcs(rng, n)
        T = tilde(digraph_gf2(arcs, vertices=range(n)))
        D = encode_directed(arcs, vertices=range(n))
        if not np.array_equal(s4.np_table[T.adj], D.adj):
            return False
        fT, fD = CutFunction(T, "cutrk"), CutFunction(D, "cutrk")
        for X in range(1 << n):
            if fT(X) != fD(X):
                return False
    return True


def check_layout_counts(rng) -> bool:
    expect = {1: 1, 2: 1, 3: 1, 4: 3, 5: 15, 6: 105}
    return all(sum(1 for _ in enumerate_layouts(n)) == c for n, c in expect.items())


def check_search_agreement(rng) -> bool:
    """The subset search equals the minimum over all enumerated layouts;
    disconnected width is the max over components."""
    for _ in range(15):
        F, s = rng.choice(_std_cases())
        n = rng.randrange(2, 7)
        G = random_sigma_graph(rng, F, s, n)
        f = CutFunction(G, "cutrk")
        oracle = min(layout_width(G, f, L).width
                     for L in enumerate_layouts(n, G.vertices))
        if width_exact(G, f).width != oracle:
            return False
    for _ in range(10):
        e1 = [(i, j) for i in range(4) for j in range(i + 1, 4) if rng.random() < 0.6]
        e2 = [(i + 4, j + 4) for i in range(4) for j in range(i + 1, 4)
              if rng.random() < 0.6]
        G = encode_undirected(e1 + e2, vertices=range(8))
        w = rankwidth(G).width
        w1 = rankwidth(encode_undirected(e1, vertices=range(4))).width
        w2 = rankwidth(encode_undirected(e2, vertices=range(4, 8))).width
        if w != max(w1, w2):
            return False
    return True


def check_complementation_invariance(rng) -> bool:
    for _ in range(60):
        F, s = rng.choice(_std_cases())
        n = rng.randrange(2, 7)
        G = random_sigma_graph(rng, F, s, n, density=0.7)
        full = (1 << n) - 1
        f = CutFunction(G, "cutrk")
        lams = sigma_compatible_set(s)
        if lams:
            H = local_complement(G, rng.randrange(n), rng.choice(lams))
            if not is_sigma_symmetric(H, s):
                return False
            fh = CutFunction(H, "cutrk")
            if any(f(X) != fh(X) for X in range(full + 1)):
                return False
        edges = [(i, j) for i in range(n) for j in range(n)
                 if i != j and G.adj[i, j]]
        if edges:
            x, y = rng.choice(edges)
            P = pivot_complement(G, x, y)
            if not is_sigma_symmetric(P, s):
                return False
            fp = CutFunction(P, "cutrk")
            if any(f(X) != fp(X) for X in range(full + 1)):
                return False
        A = random_colored_graph(rng, F, n)
        B = local_complement(A, rng.randrange(n), rng.randrange(1, F.q))
        fa, fb = CutFunction(A, "bicutrk"), CutFunction(B, "bicutrk")
        if any(fa(X) != fb(X) for X in range(full + 1)):
            return False
    return True


def check_bordered_rank_identities(rng) -> bool:
    """Cut-ranks after complement-and-delete equal bordered-matrix ranks
    minus one: corner -1/lambda for local complementation, corner 0 for
    pivot."""
    for _ in range(60):
        F, s = rng.choice(_std_cases())
        n = rng.randrange(2, 7)
        G = random_sigma_graph(rng, F, s, n, density=0.7)
        rest = list(range(1, n))
        x = 0
        a = G.adj
        lams = sigma_compatible_set(s)
        if lams:
            lam = rng.choice(lams)
            H = local_complement(G, x, lam).induced_subgraph(rest)
            fH = CutFunction(H, "cutrk")
            for Xm in range(1 << (n - 1)):
                X = [rest[i] for i in range(n - 1) if Xm >> i & 1]
                Y = [v for v in rest if v not in X]
                B = np.zeros((len(X) + 1, len(Y) + 1), dtype=np.uint16)
                B[0, 0] = F.neg(F.inv(lam))
                B[0, 1:] = a[x, Y]
                B[1:, 0] = a[X, x]
                B[1:, 1:] = a[np.ix_(X, Y)]
                if fH(set(X)) != rank_of(B, F) - 1:
                    return False
        edges = [(i, j) for i in range(n) for j in range(n)
                 if i != j and G.adj[i, j]]
        if edges:
            x, y = rng.choice(edges)
            rest = [v for v in range(n) if v != x]
            P = pivot_complement(G, x, y).induced_subgraph(rest)
            fP = CutFunction(P, "cutrk")
            for Xm in range(1 << (n - 1)):
                X = [rest[i] for i in range(n - 1) if Xm >> i & 1]
                Y = [v for v in rest if v not in X]
                B = np.zeros((len(X) + 1, len(Y) + 1), dtype=np.uint16)
                B[0, 1:] = a[x, Y]
                B[1:, 0] = a[X, x]
                B[1:, 1:] = a[np.ix_(X, Y)]
                if fP(set(X)) != rank_of(B, F) - 1:
                    return False
    return True


def check_ec_cycles(rng) -> bool:
    for m in (4, 6, 8):
        E = ec_cycle(m)
        for x in E.vertices:
            if isomorphic(E, local_complement(E, x, 1)) is None:
                return False
    return True


def check_width_relations(rng) -> bool:
    """Bi-rank-width doubles rank-width on symmetric inputs, the lift
    sandwiches it within a factor 4, and the matroid width is bi + 1."""
    for _ in range(12):
        F, s = rng.choice(_std_cases())
        n = rng.randrange(2, 6)
        G = random_sigma_graph(rng, F, s, n)
        wr = rankwidth(G)
        wb = birankwidth(G)
        if wb.width != 2 * wr.width:
            return False
        if layout_width(G, CutFunction(G, "bicutrk"), wr.witness).width != wb.width:
            return False
        wl = width_exact(G, CutFunction(G, "lambda"))
        if wl.width != 2 * wr.width + 1:
            return False
    F2 = field_make(2, 1)
    for _ in range(12):
        n = rng.randrange(2, 6)
        G = digraph_gf2(random_digraph_arcs(rng, n), vertices=range(n))
        T = tilde(G)
        wt = rankwidth(T).width
        wb = birankwidth(G).width
        if not (wt <= wb <= 4 * wt):
            return False
        if width_exact(G, CutFunction(G, "lambda")).width != wb + 1:
            return False
    return True


def check_term_roundtrips(rng) -> bool:
    for _ in range(12):
        F, s = rng.choice(_std_cases())
        n = rng.randrange(1, 6)
        G = random_sigma_graph(rng, F, s, n)
        res = rankwidth(G)
        t = term_from_layout_rank(G, res.witness)
        ev = eval_rank_term(t, s)
        order = compiled_leaf_order(G, res.witness)
        relab = {v: i for i, v in enumerate(order)}
        if not np.array_equal(ev.graph.adj,
                              G.relabel(relab).permuted(range(n)).adj):
            return False
        fcut = CutFunction(ev.graph, "cutrk")
        if layout_width(ev.graph, fcut, syntactic_layout(t)).width > res.width:
            return False
    for _ in range(12):
        F, _ = rng.choice(_std_cases())
        n = rng.randrange(1, 6)
        G = random_colored_graph(rng, F, n)
        res = birankwidth(G)
        t = term_from_layout_birank(G, res.witness)
        ev = eval_birank_term(t, F)
        order = compiled_leaf_order(G, res.witness)
        relab = {v: i for i, v in enumerate(order)}
        if not np.array_equal(ev.graph.adj,
                              G.relabel(relab).permuted(range(n)).adj):
            return False
    return True


def check_term_soundness(rng) -> bool:
    """Every subterm's cut block factors through its coloring, so the cut
    rank never exceeds the rank of the gamma matrix."""
    for _ in range(10):
        F, s = rng.choice(_std_cases())
        n = rng.randrange(2, 6)
        G = random_sigma_graph(rng, F, s, n)
        t = term_from_layout_rank(G, rankwidth(G).witness)
        trace: list = []
        ev = eval_rank_term(t, s, trace=trace)
        adj = ev.graph.adj
        for (lo, hi), gamma in trace:
            inside = list(range(lo, hi))
            outside = [v for v in range(adj.shape[0]) if v < lo or v >= hi]
            cut = rank_of(adj[np.ix_(inside, outside)], F) if outside else 0
            if cut > rank_of(np.array(gamma), F):
                return False
    for _ in range(10):
        F, _ = rng.choice(_std_cases())
        n = rng.randrange(2, 6)
        G = random_colored_graph(rng, F, n)
        t = term_from_layout_birank(G, birankwidth(G).witness)
        trace = []
        ev = eval_birank_term(t, F, trace=trace)
        adj = ev.graph.adj
        for (lo, hi), gp, gm in trace:
            inside = list(range(lo, hi))
            outside = [v for v in range(adj.shape[0]) if v < lo or v >= hi]
            if not outside:
                continue
            if rank_of(adj[np.ix_(inside, outside)], F) > rank_of(np.array(gp), F):
                return False
            if rank_of(adj[np.ix_(outside, inside)].T.copy(), F) > \
                    rank_of(np.array(gm), F):
                return False
    return True


CHECKS: list[tuple[str, Callable]] = [
    ("field axioms (orders 2..64)", check_field_axioms),
    ("quadratic extension identities", check_quadratic_extensions),
    ("matrix rank properties", check_rank_properties),
    ("matrix rank submodularity", check_rank_submodularity),
    ("cut function batteries", check_cut_functions),
    ("tilde lift and directed encoding", check_tilde),
    ("layout shape counts", check_layout_counts),
    ("search agreement and components", check_search_agreement),
    ("complementation invariance", check_complementation_invariance),
    ("bordered rank identities", check_bordered_rank_identities),
    ("alternating even cycles", check_ec_cycles),
    ("width relations (bi = 2x, tilde sandwich, matroid)", check_width_relations),
    ("term compilation roundtrips", check_term_roundtrips),
    ("term soundness factorizations", check_term_soundness),
]


def run_selfcheck(seed: int = 0) -> list[tuple[str, bool]]:
    results = []
    for name, fn in CHECKS:
        rng = random.Random(seed)
        try:
            ok = bool(fn(rng))
        except Exception:
            ok = False
        results.append((name, ok))
    return results

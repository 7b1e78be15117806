"""Term evaluation, layout compilation, soundness, and the term file format."""

import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankw.cutrank import CutFunction
from rankw.fields import (field_make, sigma_frobenius_conj, sigma_identity,
                          sigma_negation)
from rankw.graphs import (ColoredGraph, SigmaGraph, digraph_gf2,
                          encode_undirected, isomorphic)
from rankw.layouts import (LayoutError, birankwidth, build_layout,
                           layout_width, parse_newick, rankwidth)
from rankw.terms import (BiConst, BiProd, Mat, RankConst, RankProd, TermError,
                         compiled_leaf_order, emit_term, eval_birank_term,
                         eval_rank_term, parse_term, syntactic_layout,
                         term_from_layout_birank, term_from_layout_rank,
                         term_leaves, term_max_width, _row_basis)

from oracles import (enumerate_layouts, fmatmul, np_tables,
                     random_colored_graph, random_sigma_graph, rank_of)

F2, F3, F4 = field_make(2, 1), field_make(3, 1), field_make(2, 2)
S2, S3N, S4 = sigma_identity(F2), sigma_negation(F3), sigma_frobenius_conj(F4)

ONE = Mat(1, 1, (1,))
ZERO = Mat(1, 1, (0,))


def mat(rows):
    """The Mat of a numpy array or of code rows."""
    a = np.asarray(rows, dtype=np.uint16)
    a = a.reshape(a.shape if a.ndim == 2 else (1, -1))
    return Mat(*a.shape, tuple(a.ravel().tolist()))


def npm(m):
    """A Mat as a numpy array, for the numpy oracles."""
    return np.array(m.data, dtype=np.uint16).reshape(m.rows, m.cols)


def test_eval_const():
    r = eval_rank_term(RankConst((1,)), S2)
    assert r.graph.n == 1 and not r.graph.adj.any()
    assert r.gamma == ((1,),)


def test_eval_k2_and_zero_product():
    t = RankProd(ONE, ONE, ONE, RankConst((1,)), RankConst((1,)))
    r = eval_rank_term(t, S2)
    assert r.graph.adj.tolist() == [[0, 1], [1, 0]]
    t0 = RankProd(ZERO, ONE, ONE, RankConst((1,)), RankConst((1,)))
    assert not eval_rank_term(t0, S2).graph.adj.any()


def test_eval_gf4_cross_color():
    """gamma(x) M sigma4(gamma(y))^T with 1x1 data: a * a * sigma4(a) =
    a * a * a^2 = a."""
    t = RankProd(Mat(1, 1, (2,)), ONE, ONE, RankConst((2,)), RankConst((2,)))
    r = eval_rank_term(t, S4)
    assert r.graph.adj[0, 1] == 2          # a
    assert r.graph.adj[1, 0] == 3          # sigma4(a) = a^2


def test_eval_cross_block_identity():
    """M_K[V_G][V_H] = Gamma_G M sigma(Gamma_H)^T and the stacked recoloring."""
    rng = random.Random(0)
    for _ in range(40):
        F, s = rng.choice([(F2, S2), (F3, S3N), (F4, S4)])
        k, l, m = (rng.randrange(1, 3) for _ in range(3))
        t1 = RankConst(tuple(rng.randrange(F.q) for _ in range(k)))
        t2 = RankConst(tuple(rng.randrange(F.q) for _ in range(l)))
        M = mat([[rng.randrange(F.q) for _ in range(l)] for _ in range(k)])
        N = mat([[rng.randrange(F.q) for _ in range(m)] for _ in range(k)])
        P = mat([[rng.randrange(F.q) for _ in range(m)] for _ in range(l)])
        r = eval_rank_term(RankProd(M, N, P, t1, t2), s)
        gx, gy = np.array([t1.u], dtype=np.uint16), np.array([t2.u], dtype=np.uint16)
        cross = fmatmul(fmatmul(gx, npm(M), F), s.np_table[gy].T, F)
        assert r.graph.adj[0, 1] == cross[0, 0]
        assert np.array_equal(
            np.asarray(r.gamma),
            np.concatenate([fmatmul(gx, npm(N), F), fmatmul(gy, npm(P), F)]))


def test_eval_commuted_form():
    """eval(t1 x_{M,N,P} t2) iso eval(t2 x_{M',P,N} t1), M' = sigma(M)^T/sigma(1)^2."""
    rng = random.Random(1)
    for _ in range(60):
        F, s = rng.choice([(F2, S2), (F3, S3N), (F4, S4)])
        k, l = rng.randrange(1, 3), rng.randrange(1, 3)
        t1 = RankConst(tuple(rng.randrange(F.q) for _ in range(k)))
        t2 = RankConst(tuple(rng.randrange(F.q) for _ in range(l)))
        M = mat([[rng.randrange(F.q) for _ in range(l)] for _ in range(k)])
        N = mat([[rng.randrange(F.q)] for _ in range(k)])
        P = mat([[rng.randrange(F.q)] for _ in range(l)])
        K1 = eval_rank_term(RankProd(M, N, P, t1, t2), s).graph
        c = F.inv(F.mul(s.one, s.one))
        Mp = mat(np_tables(F)[2][c, s.np_table[npm(M)].T])
        K2 = eval_rank_term(RankProd(Mp, P, N, t2, t1), s).graph
        assert isomorphic(K1, K2) is not None


def test_eval_dimension_errors():
    bad = RankProd(Mat(2, 1, (1, 1)), ONE, ONE, RankConst((1,)), RankConst((1,)))
    with pytest.raises(TermError):
        eval_rank_term(bad, S2)
    bad2 = RankProd(ONE, ONE, Mat(2, 1, (1, 0)), RankConst((1,)), RankConst((1,)))
    with pytest.raises(TermError):
        eval_rank_term(bad2, S2)
    with pytest.raises(TermError):
        eval_rank_term(RankConst((7,)), S2)  # 7 is no GF(2) code
    # codes of 65536 and above too, for both term kinds
    for bad_const in (RankConst((70000,)), RankConst((1, 65536))):
        with pytest.raises(TermError, match="constant color is not an element code"):
            eval_rank_term(bad_const, S2)
    for bad_const in (BiConst((70000,), (1,)), BiConst((1,), (65536,)), BiConst((2,), ())):
        with pytest.raises(TermError, match="constant color is not an element code"):
            eval_birank_term(bad_const, F2)
    with pytest.raises(TermError):
        RankConst(())


def test_eval_birank_examples():
    u = BiConst((1,), (1,))
    t = BiProd(ONE, Mat(1, 1, (0,)), ONE, ONE, ONE, ONE, u, u)
    r = eval_birank_term(t, F2)
    assert r.graph.adj.tolist() == [[0, 1], [0, 0]]
    t0 = BiProd(Mat(1, 1, (0,)), Mat(1, 1, (0,)), ONE, ONE, ONE, ONE, u, u)
    assert not eval_birank_term(t0, F2).graph.adj.any()


def test_eval_birank_commuted():
    rng = random.Random(2)
    for _ in range(60):
        F = rng.choice([F2, F3, F4])
        k1, k2, l1, l2, m1, m2 = (rng.randrange(0, 3) for _ in range(6))
        u1 = BiConst(tuple(rng.randrange(F.q) for _ in range(k1)),
                     tuple(rng.randrange(F.q) for _ in range(k2)))
        u2 = BiConst(tuple(rng.randrange(F.q) for _ in range(l1)),
                     tuple(rng.randrange(F.q) for _ in range(l2)))

        def rmat(r, c):
            data = np.array([rng.randrange(F.q) for _ in range(r * c)],
                            dtype=np.uint16).reshape(r, c)
            return mat(data)

        M1, M2 = rmat(k1, l2), rmat(k2, l1)
        N1, N2, P1, P2 = rmat(k1, m1), rmat(k2, m2), rmat(l1, m1), rmat(l2, m2)
        K1 = eval_birank_term(BiProd(M1, M2, N1, N2, P1, P2, u1, u2), F).graph
        M2T = mat(npm(M2).T)
        M1T = mat(npm(M1).T)
        K2 = eval_birank_term(BiProd(M2T, M1T, P1, P2, N1, N2, u2, u1), F).graph
        assert isomorphic(K1, K2) is not None


def test_syntactic_layout_shapes():
    assert syntactic_layout(RankConst((1,))).n == 1
    t2 = RankProd(ONE, ONE, ONE, RankConst((1,)), RankConst((1,)))
    L2 = syntactic_layout(t2)
    assert L2.n == 2 and len(L2.edges) == 1
    t4 = RankProd(ONE, ONE, ONE, t2, t2)
    L4 = syntactic_layout(t4)
    # the 4-leaf H shape: 2 internal nodes, 5 edges
    assert L4.n == 4 and len(L4.edges) == 5
    internal = {u for e in L4.edges for u in e} - set(L4.leaves)
    assert len(internal) == 2


def test_vertex_basis_examples():
    assert _row_basis([[0, 0, 0], [0, 0, 0]], F2)[0] == []
    assert _row_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]], F2)[0] == [0, 1, 2]
    assert _row_basis([[1, 0], [1, 0], [0, 1]], F2)[0] == [0, 2]


@st.composite
def _row_sets(draw):
    """(field, width, rows): random rows mixed with combinations of a few
    base rows, so that dependent rows are common."""
    F = field_make(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)])))
    cols = draw(st.integers(0, 6))
    code_rows = st.lists(st.integers(0, F.q - 1), min_size=cols, max_size=cols)
    base = draw(st.lists(code_rows, min_size=1, max_size=3))
    base_a = np.array(base, dtype=np.uint16).reshape(len(base), cols)
    coef_rows = st.lists(st.integers(0, F.q - 1), min_size=len(base),
                         max_size=len(base))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            rows.append(draw(code_rows))
        else:
            coef = np.array([draw(coef_rows)], dtype=np.uint16)
            rows.append(fmatmul(coef, base_a, F)[0].tolist())
    return F, cols, rows


@settings(derandomize=True, deadline=None)
@given(case=_row_sets())
def test_row_basis_against_rank_of(case):
    F, cols, rows = case
    a = np.array(rows, dtype=np.uint16).reshape(len(rows), cols)
    basis, coords = _row_basis(rows, F)
    # the basis is exactly the rows that raise the rank of their prefix
    assert basis == [i for i in range(len(rows))
                     if rank_of(a[:i + 1], F) > rank_of(a[:i], F)]
    # and the coordinates rebuild every row from the basis rows
    c = np.array(coords, dtype=np.uint16).reshape(len(rows), len(basis))
    assert np.array_equal(fmatmul(c, a[basis], F), a)


def test_compile_k2():
    K2 = encode_undirected([("x", "y")])
    L = next(enumerate_layouts(2, K2.vertices))
    t = term_from_layout_rank(K2, L)
    assert isinstance(t, RankProd) and t.m.data == (1,)
    ev = eval_rank_term(t, S2)
    assert ev.graph.adj.tolist() == [[0, 1], [1, 0]]


def test_compile_c5_roundtrip():
    C5 = encode_undirected([(i, (i + 1) % 5) for i in range(5)])
    res = rankwidth(C5)
    t = term_from_layout_rank(C5, res.witness)
    assert term_max_width(t) <= 2
    ev = eval_rank_term(t, S2)
    order = compiled_leaf_order(C5, res.witness)
    relab = {v: i for i, v in enumerate(order)}
    assert np.array_equal(ev.graph.adj, C5.relabel(relab).permuted(range(5)).adj)
    assert isomorphic(ev.graph, C5.relabel(relab)) is not None
    L = syntactic_layout(t)
    assert layout_width(ev.graph, CutFunction(ev.graph, "cutrk"), L).width <= 2


def _products(t):
    if isinstance(t, (RankConst, BiConst)):
        return []
    return [t] + _products(t.left) + _products(t.right)


def test_compile_isolated_vertices():
    G = encode_undirected([], vertices=range(3))
    L = next(enumerate_layouts(3, range(3)))
    t = term_from_layout_rank(G, L)
    # every cut has rank 0, so every product is over 1x1 zero matrices
    prods = _products(t)
    assert len(prods) == 2
    assert all(p.m.is_zero() and p.n.is_zero() and p.p.is_zero() for p in prods)
    assert not eval_rank_term(t, S2).graph.adj.any()


def _disjoint_union_adj(rng, G1, G2):
    """Adjacency of G1 + G2 + one isolated vertex: the two parts' vertices
    interleaved, the isolated vertex at a random position."""
    tags = sorted([(2 * i, 0, i) for i in range(G1.n)]
                  + [(2 * j + 1, 1, j) for j in range(G2.n)])
    tags.insert(rng.randrange(len(tags) + 1), (None, 2, 0))
    n = len(tags)
    adj = np.zeros((n, n), dtype=np.uint16)
    for x, (_, gx, i) in enumerate(tags):
        for y, (_, gy, j) in enumerate(tags):
            if gx == gy < 2:
                adj[x, y] = (G1, G2)[gx].adj[i, j]
    return adj


def _assert_compiles_back(G, res, t, ev):
    """The term evaluates to G under compiled_leaf_order."""
    order = compiled_leaf_order(G, res.witness)
    relab = {v: i for i, v in enumerate(order)}
    assert np.array_equal(ev.graph.adj,
                          G.relabel(relab).permuted(range(G.n)).adj)


def test_compile_rank_random_roundtrips():
    rng = random.Random(3)
    graphs = []
    for _ in range(40):
        F, s = rng.choice([(F2, S2), (F3, S3N), (F4, S4)])
        n = rng.randrange(1, 7)
        graphs.append(random_sigma_graph(rng, F, s, n,
                                         density=rng.choice([0.3, 0.6])))
    # disconnected inputs compile on the same path
    for _ in range(20):
        F, s = rng.choice([(F2, S2), (F3, S3N), (F4, S4)])
        G1, G2 = (random_sigma_graph(rng, F, s, rng.randrange(1, 4), density=0.6)
                  for _ in range(2))
        adj = _disjoint_union_adj(rng, G1, G2)
        graphs.append(SigmaGraph(F, tuple(range(len(adj))), adj, s))
    for G in graphs:
        res = rankwidth(G)
        t = term_from_layout_rank(G, res.witness)
        assert term_max_width(t) <= max(res.width, 1)
        _assert_compiles_back(G, res, t, eval_rank_term(t, G.sigma))


def test_compile_tuple_labels():
    # the compiler walks leaf nodes, so a tuple label is not a subtree
    C5 = encode_undirected([((i, "x"), ((i + 1) % 5, "x")) for i in range(5)])
    res = rankwidth(C5)
    t = term_from_layout_rank(C5, res.witness)
    _assert_compiles_back(C5, res, t, eval_rank_term(t, S2))
    assert compiled_leaf_order(C5, res.witness)[0] == C5.vertices[0]
    D = digraph_gf2([((i, "x"), ((i + 1) % 4, "x")) for i in range(4)])
    res = birankwidth(D)
    t = term_from_layout_birank(D, res.witness)
    _assert_compiles_back(D, res, t, eval_birank_term(t, F2))


def test_product_repr_eq_hash():
    """repr, == and hash of product nodes keep the dataclass format and
    semantics on shallow terms and need no recursion on deep ones."""
    P3 = encode_undirected([(0, 1), (1, 2)])
    assert repr(term_from_layout_rank(P3, rankwidth(P3).witness)) == (
        "RankProd(m=Mat(rows=1, cols=1, data=(1,)), n=Mat(rows=1, cols=1, "
        "data=(0,)), p=Mat(rows=1, cols=1, data=(0,)), left=RankConst(u=(1,)), "
        "right=RankProd(m=Mat(rows=1, cols=1, data=(1,)), n=Mat(rows=1, cols=1, "
        "data=(1,)), p=Mat(rows=1, cols=1, data=(0,)), left=RankConst(u=(1,)), "
        "right=RankConst(u=(1,))))")
    A = digraph_gf2([("x", "y")])
    assert repr(term_from_layout_birank(A, birankwidth(A).witness)) == (
        "BiProd(m1=Mat(rows=1, cols=1, data=(1,)), m2=Mat(rows=0, cols=0, "
        "data=()), n1=Mat(rows=1, cols=0, data=()), n2=Mat(rows=0, cols=0, "
        "data=()), p1=Mat(rows=0, cols=0, data=()), p2=Mat(rows=1, cols=0, "
        "data=()), left=BiConst(u=(1,), v=()), right=BiConst(u=(), v=(1,)))")
    t = RankProd(ONE, ONE, ONE, RankConst((1,)), RankConst((1,)))
    assert t == RankProd(ONE, ONE, ONE, RankConst((1,)), RankConst((1,)))
    assert t != RankProd(ONE, ONE, ZERO, RankConst((1,)), RankConst((1,)))
    assert t != RankProd(ONE, ONE, ONE, RankConst((1,)), RankConst((2,)))
    assert t != BiProd(ONE, ONE, ONE, ONE, ONE, ONE, RankConst((1,)), RankConst((1,)))
    assert len({t, RankProd(ONE, ONE, ONE, RankConst((1,)), RankConst((1,)))}) == 1
    # the 1,200-level term of two 600-leaf caterpillars joined at the root
    def caterpillar(lo, hi):
        text = f"v{lo}"
        for i in range(lo + 1, hi):
            text = f"({text},v{i})"
        return text

    L = parse_newick(f"({caterpillar(0, 600)},{caterpillar(600, 1200)});")
    G = encode_undirected([], vertices=[f"v{i}" for i in range(1200)])
    H = encode_undirected([("v1198", "v1199")], vertices=G.vertices)
    for compile_ in (term_from_layout_rank, term_from_layout_birank):
        deep, copy = compile_(G, L), compile_(G, L)
        assert deep is not copy and deep == copy and not deep != copy
        assert hash(deep) == hash(copy) and repr(deep) == repr(copy)
        assert repr(deep).startswith(type(deep).__name__ + "(m")
        assert deep != compile_(H, L)


def test_compile_birank_arc():
    arc = digraph_gf2([("x", "y")])
    res = birankwidth(arc)
    assert res.width == 1
    t = term_from_layout_birank(arc, res.witness)
    assert term_max_width(t) <= 1
    assert t.m1.data == (1,) or t.m2.data == (1,)     # the single arc
    assert t.m1.is_zero() or t.m2.is_zero()           # nothing back
    ev = eval_birank_term(t, F2)
    order = compiled_leaf_order(arc, res.witness)
    relab = {v: i for i, v in enumerate(order)}
    assert np.array_equal(ev.graph.adj, arc.relabel(relab).permuted(range(2)).adj)


def test_compile_birank_random_roundtrips():
    rng = random.Random(4)
    graphs = []
    for _ in range(40):
        F = rng.choice([F2, F3, F4])
        n = rng.randrange(1, 7)
        graphs.append(random_colored_graph(rng, F, n,
                                           density=rng.choice([0.3, 0.6])))
    # disconnected inputs compile on the same path
    for _ in range(20):
        F = rng.choice([F2, F3, F4])
        G1, G2 = (random_colored_graph(rng, F, rng.randrange(1, 4), density=0.6)
                  for _ in range(2))
        adj = _disjoint_union_adj(rng, G1, G2)
        graphs.append(ColoredGraph(F, tuple(range(len(adj))), adj))
    for G in graphs:
        res = birankwidth(G)
        t = term_from_layout_birank(G, res.witness)
        assert term_max_width(t) <= res.width
        _assert_compiles_back(G, res, t, eval_birank_term(t, G.field))


def test_birank_dims_double_rank_dims_on_symmetric_input():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(2, 6)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.6]
        if not edges:
            continue
        G = encode_undirected(edges, vertices=range(n))
        L = rankwidth(G).witness
        tr = term_from_layout_rank(G, L)
        tb = term_from_layout_birank(G.drop_sigma(), L)

        def rank_node_widths(t, acc):
            if isinstance(t, RankProd):
                rank_node_widths(t.left, acc)
                rank_node_widths(t.right, acc)
                acc.append((t.m.rows, t.m.cols))
            return acc

        def bi_node_widths(t, acc):
            if isinstance(t, BiProd):
                bi_node_widths(t.left, acc)
                bi_node_widths(t.right, acc)
                acc.append((t.m1.rows + t.m2.rows, t.m2.cols + t.m1.cols))
            return acc

        # per matching node: bi widths are exactly double (where the rank
        # side is not padded, i.e. the cut is nonzero in a connected graph)
        if G.is_connected():
            for (rk, rl), (bk, bl) in zip(rank_node_widths(tr, []),
                                          bi_node_widths(tb, [])):
                assert bk in (2 * rk, 0) and bl in (2 * rl, 0)
            assert term_max_width(tb) == 2 * term_max_width(tr)


def test_arbitrary_terms_evaluate_within_their_width():
    """The reverse direction of the width/term correspondence: any term with
    color widths <= n evaluates to a graph of rank-width <= n (its syntactic
    tree witnesses it)."""
    rng = random.Random(7)
    from rankw.layouts import width_exact

    def rand_term(F, depth, cap):
        if depth == 0:
            k = rng.randrange(1, cap + 1)
            return RankConst(tuple(rng.randrange(F.q) for _ in range(k)))
        t1 = rand_term(F, depth - 1, cap)
        t2 = rand_term(F, depth - 1, cap)
        k = t1.width if isinstance(t1, RankConst) else t1.n.cols
        l = t2.width if isinstance(t2, RankConst) else t2.n.cols
        m = rng.randrange(1, cap + 1)

        def rmat(r, c):
            return mat([[rng.randrange(F.q) for _ in range(c)]
                        for _ in range(r)])

        return RankProd(rmat(k, l), rmat(k, m), rmat(l, m), t1, t2)

    for _ in range(30):
        F, s = rng.choice([(F2, S2), (F4, S4), (F3, S3N)])
        cap = rng.randrange(1, 3)
        t = rand_term(F, rng.randrange(1, 3), cap)
        assert term_max_width(t) <= cap
        G = eval_rank_term(t, s).graph
        assert width_exact(G, CutFunction(G, "cutrk")).width <= cap


def _spans(t) -> list:
    """(subterm, its leaf span (lo, hi)) for every subterm of t: its leaves
    are the evaluated graph's vertices lo..hi-1."""
    out, stack = [], [(t, 0)]
    while stack:
        x, lo = stack.pop()
        out.append((x, (lo, lo + term_leaves(x))))
        if isinstance(x, (RankProd, BiProd)):
            stack += [(x.left, lo), (x.right, lo + term_leaves(x.left))]
    return out


def test_soundness_factorizations():
    """rank(M_G[V_H][rest]) <= rank(Gamma_H) at every subterm H, Gamma_H
    the coloring of H evaluated alone (and the outbound/inbound versions
    for bi-rank terms)."""
    rng = random.Random(6)
    for _ in range(15):
        F, s = rng.choice([(F2, S2), (F4, S4)])
        G = random_sigma_graph(rng, F, s, rng.randrange(2, 6))
        t = term_from_layout_rank(G, rankwidth(G).witness)
        adj = eval_rank_term(t, s).graph.adj
        for x, (lo, hi) in _spans(t):
            gamma = eval_rank_term(x, s).gamma
            inside = list(range(lo, hi))
            outside = [v for v in range(adj.shape[0]) if not lo <= v < hi]
            if outside:
                assert rank_of(adj[np.ix_(inside, outside)], F) <= \
                    rank_of(np.asarray(gamma), F)
    for _ in range(15):
        F = rng.choice([F2, F3])
        G = random_colored_graph(rng, F, rng.randrange(2, 6))
        t = term_from_layout_birank(G, birankwidth(G).witness)
        adj = eval_birank_term(t, F).graph.adj
        for x, (lo, hi) in _spans(t):
            ev = eval_birank_term(x, F)
            gp, gm = ev.gamma_plus, ev.gamma_minus
            inside = list(range(lo, hi))
            outside = [v for v in range(adj.shape[0]) if not lo <= v < hi]
            if outside:
                assert rank_of(adj[np.ix_(inside, outside)], F) <= \
                    rank_of(np.asarray(gp), F)
                assert rank_of(adj[np.ix_(outside, inside)].T.copy(), F) <= \
                    rank_of(np.asarray(gm), F)


def test_term_file_roundtrip():
    C5 = encode_undirected([(i, (i + 1) % 5) for i in range(5)])
    t = term_from_layout_rank(C5, rankwidth(C5).witness)
    assert parse_term(emit_term(t)) == t
    arc2 = digraph_gf2([("x", "y"), ("y", "z")])
    tb = term_from_layout_birank(arc2, birankwidth(arc2).witness)
    assert parse_term(emit_term(tb)) == tb
    assert parse_term("(const 1 0 2)") == RankConst((1, 0, 2))
    t2 = parse_term("(prod [1 1; 1] [1 1; 1] [1 1; 1] (const 1) (const 1))")
    assert isinstance(t2, RankProd)
    tb2 = parse_term("(biconst [1 1; 1] [1 0;])")
    assert tb2 == BiConst((1,), ())
    assert parse_term("# comment\n(const 1 # two\n 2)\n") == RankConst((1, 2))
    with pytest.raises(TermError):
        parse_term("(const 1) junk")
    with pytest.raises(TermError):
        parse_term("(product [1 1; 1])")
    # deep well-formed input reads back; truncated deep input does not
    deep = "(prod [1 1; 1] [1 1; 1] [1 1; 1] " * 3000 + "(const 1) "
    assert term_leaves(parse_term(deep + "(const 1))" * 3000)) == 3001
    M = "[1 1; 1]"
    # truncated and malformed input is a TermError naming the problem
    for text, problem in [("(const 1", "unexpected end of term"),
                          (deep, "unexpected end of term"),
                          # integers are plain ASCII digits
                          ("(const 1_0)", "not an integer"),
                          ("(const +1)", "not an integer"),
                          ("(const \u0661)", "not an integer"),
                          ("(const 1])", "constant color '1]' is not an integer"),
                          ("(biconst [1 1; 1_0] [1 0;])", "bad matrix literal"),
                          ("(biconst [+1 1; 1] [1 0;])", "bad matrix literal"),
                          ("(biconst [1 1; \u0661] [1 0;])", "bad matrix literal"),
                          ("(prod [1 1; 1", "unclosed matrix literal at character 6"),
                          ("(const x)", "not an integer"),
                          ("(const 1 -3)", "not an element code"),
                          ("(const 70000)", "not an element code"),
                          ("(biconst [1 1; -1] [1 0;])", "bad matrix literal"),
                          ("(biconst [1 1; 1] [0 -1;])", "bad matrix literal"),
                          ("", "expected '\\(' at token 0"),
                          ("const 1", "expected '\\(' at token 0"),
                          ("(const 1))", "trailing tokens after term"),
                          ("()", "unknown term head '\\)'"),
                          ("((const 1))", "unknown term head '\\('"),
                          # wrong arity of prod, biprod and biconst
                          (f"(prod {M} {M} (const 1) (const 1))",
                           "expected a matrix literal, got '\\('"),
                          (f"(prod {M} {M} {M} (const 1))", "expected '\\(' at token 9"),
                          (f"(prod {M} {M} {M} (const 1) x)",
                           "expected '\\(' at token 9"),
                          (f"(prod {M} {M} {M} (const 1) (const 1) (const 1))",
                           "expected '\\)' at token 13"),
                          (f"(biprod {M} {M} {M} {M} {M} (const 1) (const 1))",
                           "expected a matrix literal, got '\\('"),
                          (f"(biprod {M} {M} {M} {M} {M} {M} (const 1))",
                           "expected '\\(' at token 12"),
                          (f"(biprod {M} {M} {M} {M} {M} {M} (const 1) (const 1) x)",
                           "expected '\\)' at token 16"),
                          (f"(biconst {M})", "expected a matrix literal, got '\\)'"),
                          (f"(biconst {M} {M} {M})", "expected '\\)' at token 4"),
                          (f"(biconst [2 1; 1; 1] {M})", "1-row matrices")]:
        with pytest.raises(TermError, match=problem):
            parse_term(text)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=st.sampled_from([(F2, S2), (F3, sigma_identity(F3)), (F3, S3N), (F4, S4)]),
       n=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_term_file_roundtrip_compiled(case, n, seed, data):
    """Compiled rank and bi-rank terms read back equal, on the width
    witness and on any enumerated layout."""
    F, sigma = case
    rng = random.Random(seed)
    G = random_sigma_graph(rng, F, sigma, n, rng.choice([0.3, 0.6]))
    A = random_colored_graph(rng, F, n)
    shapes = list(enumerate_layouts(n, G.vertices))
    L = shapes[data.draw(st.integers(0, len(shapes) - 1))]
    for t in (term_from_layout_rank(G, L), term_from_layout_rank(G, rankwidth(G).witness),
              term_from_layout_birank(G, L), term_from_layout_birank(A, L)):
        assert parse_term(emit_term(t)) == t


def test_term_file_roundtrip_at_depth():
    """Terms 1,200 levels deep (compiled from two 600-leaf caterpillars)
    and 3,000 levels deep (built by hand) read back equal."""
    def caterpillar(lo, hi):
        text = f"v{lo}"
        for i in range(lo + 1, hi):
            text = f"({text},v{i})"
        return text

    L = parse_newick(f"({caterpillar(0, 600)},{caterpillar(600, 1200)});")
    G = encode_undirected([(f"v{i}", f"v{i + 1}") for i in range(0, 1199, 7)],
                          vertices=[f"v{i}" for i in range(1200)])
    for t in (term_from_layout_rank(G, L), term_from_layout_birank(G, L)):
        assert parse_term(emit_term(t)) == t
    t, tb = RankConst((1,)), BiConst((1,), ())
    for i in range(3000):
        t = RankProd(ONE, ONE, ZERO, t, RankConst((i % 2,)))
        tb = BiProd(Mat(1, 0, ()), Mat(0, 1, ()), ONE, Mat(0, 0, ()),
                    Mat(1, 1, (i % 2,)), Mat(0, 0, ()), tb, BiConst((1,), ()))
    for deep in (t, tb):
        assert parse_term(emit_term(deep)) == deep


def test_writers_are_linear_at_depth():
    """Rank and bi-rank chains 20,000 levels deep print and read back equal,
    and so does a caterpillar layout of that depth: the writers join their
    text once, so no level copies the text below it."""
    depth = 20_000
    t, tb = RankConst((1,)), BiConst((1,), ())
    for i in range(depth):
        t = RankProd(ONE, ONE, ZERO, t, RankConst((i % 2,)))
        tb = BiProd(Mat(1, 0, ()), Mat(0, 1, ()), ONE, Mat(0, 0, ()),
                    Mat(1, 1, (i % 2,)), Mat(0, 0, ()), tb, BiConst((1,), ()))
    for deep, name in ((t, "RankProd"), (tb, "BiProd")):
        text = emit_term(deep)
        assert text.count("(const ") + text.count("(biconst ") == depth + 1
        assert parse_term(text) == deep
        shown = repr(deep)
        assert shown.startswith(f"{name}(") and shown.count(f"{name}(") == depth
        assert shown.endswith(f"right={deep.right!r})")
    tree = 0
    for i in range(1, depth + 1):
        tree = (tree, i)
    L = build_layout(tree, [f"v{i}" for i in range(depth + 1)])
    text = L.to_newick()
    assert max(accumulate((c == "(") - (c == ")") for c in text)) == depth
    assert parse_newick(text).to_newick() == text


def test_compiled_leaf_order_checks_the_leaves():
    """A layout whose leaves are not the graph's vertices is refused with
    a message naming the first stray leaf, or else the first vertex without
    a leaf (it was a KeyError, or a silent answer)."""
    G = encode_undirected([("a", "b"), ("b", "c")])
    for labels, msg in ((["a", "b", "z"], "layout leaf 'z' is not a graph vertex"),
                        (["z", "b", "c"], "layout leaf 'z' is not a graph vertex"),
                        (["a", "b"], "graph vertex 'c' has no layout leaf")):
        L = build_layout(tuple(range(len(labels))), labels)
        for compile_ in (compiled_leaf_order, term_from_layout_rank,
                         term_from_layout_birank):
            with pytest.raises(LayoutError, match=f"^{msg}$"):
                compile_(G, L)
    L = build_layout((0, (1, 2)), ["b", "a", "c"])
    assert compiled_leaf_order(G, L) == ["a", "b", "c"]


def test_domain_errors_name_the_precondition():
    """Each malformed matrix or term node raises a TermError naming what
    is broken: the shape and entries of a matrix, a node of the other term
    kind, and each dimension rule of a bi-rank product."""
    u = BiConst((1,), (1,))

    def bi(m1=ONE, m2=ONE, n1=ONE, n2=ONE, p1=ONE, p2=ONE):
        return BiProd(m1, m2, n1, n2, p1, p2, u, u)

    wide, tall = Mat(1, 2, (0, 0)), Mat(2, 1, (0, 0))
    leaf = RankConst((1,))
    rows = [
        (lambda: Mat(2, 2, (1,)), TermError, "matrix data does not match its shape"),
        (lambda: eval_rank_term(RankProd(Mat(1, 1, (5,)), ONE, ONE, leaf, leaf), S2),
         TermError, "matrix entry is not an element code of the field"),
        (lambda: eval_rank_term(u, S2), TermError, "not a rank term node"),
        (lambda: eval_rank_term(RankProd(ONE, ONE, ONE, u, u), S2), TermError,
         "not a rank term node"),
        (lambda: eval_birank_term(leaf, F2), TermError, "not a bi-rank term node"),
        (lambda: eval_birank_term(bi(m1=wide), F2), TermError,
         r"M1 must be 1x1, got \(1, 2\)"),
        (lambda: eval_birank_term(bi(m2=tall), F2), TermError,
         r"M2 must be 1x1, got \(2, 1\)"),
        (lambda: eval_birank_term(bi(n1=tall), F2), TermError,
         "N1/P1 must map the outbound colors to one width"),
        (lambda: eval_birank_term(bi(p2=wide), F2), TermError,
         "N2/P2 must map the inbound colors to one width"),
    ]
    for call, error, fragment in rows:
        with pytest.raises(error, match=fragment):
            call()

"""Layout enumeration, f-width evaluation, and exact width search."""

import functools
import random
import re
import sys
from contextlib import contextmanager
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankw import cutrank, layouts
from rankw.cutrank import LOW, UNCAPPED, UNSET, CutFunction, _SparseTable
from rankw.fields import (field_make, sigma_frobenius_conj, sigma_identity,
                          sigma_negation)
from rankw.graphs import ColoredGraph, digraph_gf2, encode_undirected
from rankw.layouts import (BNB_BOUND, Layout, LayoutError, SearchStats,
                           SizeBoundError, birankwidth, build_layout,
                           decide_width_at_most, fold, layout_width,
                           parse_newick, rankwidth, width_exact)
from rankw.terms import (compiled_leaf_order, term_from_layout_birank,
                         term_from_layout_rank)

from oracles import (enumerate_layouts, feasible_tree, is_strongly_connected,
                     random_colored_graph, random_digraph_arcs,
                     random_sigma_graph)

_BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(_BENCH) not in sys.path:
    sys.path.insert(0, str(_BENCH))
import oracle  # noqa: E402  (the benchmark's independent subset DP)


def rank_mod2(rows):
    """Independent GF(2) rank for oracle duty (numpy integer elimination)."""
    a = np.array(rows, dtype=np.int64) % 2
    r = 0
    for c in range(a.shape[1] if a.size else 0):
        piv = next((i for i in range(r, a.shape[0]) if a[i, c]), None)
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        for i in range(a.shape[0]):
            if i != r and a[i, c]:
                a[i] = (a[i] + a[r]) % 2
        r += 1
    return r


def cut_oracle_gf2(G, side):
    idx = [G.index(v) for v in side]
    rest = [i for i in range(G.n) if i not in idx]
    if not idx or not rest:
        return 0
    return rank_mod2(G.adj[np.ix_(idx, rest)])


def c5():
    return encode_undirected([(i, (i + 1) % 5) for i in range(5)])


def double_factorial_odd(m):
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 1), (4, 3),
                                     (5, 15), (6, 105)])
def test_enumeration_counts(n, count):
    shapes = list(enumerate_layouts(n))
    assert len(shapes) == count
    if n >= 3:
        assert count == double_factorial_odd(2 * n - 5)
    # all distinct as split systems
    def sig(L):
        return frozenset(
            s if len(s) <= L.n / 2 else frozenset(set(L.vertices) - s)
            for _, s in L.edge_sides())
    assert len({sig(L) for L in shapes}) == count


def test_layout_width_k4():
    K4 = encode_undirected([(i, j) for i in range(4) for j in range(i + 1, 4)])
    f = CutFunction(K4, "cutrk")
    for L in enumerate_layouts(4, K4.vertices):
        assert layout_width(K4, f, L).width == 1


def test_layout_width_single_vertex():
    G = encode_undirected([], vertices=["a"])
    L = Layout([], {0: "a"})
    assert layout_width(G, CutFunction(G, "cutrk"), L).width == 0


def test_caterpillar_c5():
    """Every cut of the caterpillar evaluated against the independent
    GF(2) rank oracle; width 2."""
    G = c5()
    L = parse_newick("(0,(1,(2,(3,4))));").relabel_leaves(
        {str(i): i for i in range(5)})
    res = layout_width(G, CutFunction(G, "cutrk"), L)
    assert len(res.cut_values) == 7
    for e, side in res.cut_sides.items():
        assert res.cut_values[e] == cut_oracle_gf2(G, side)
    assert res.width == 2


def test_width_exact_examples():
    for n in (2, 3, 5, 6):
        Kn = encode_undirected([(i, j) for i in range(n)
                                for j in range(i + 1, n)])
        assert rankwidth(Kn).width == 1
    res = rankwidth(c5())
    assert res.width == 2
    # oracle: exhaustive minimum over all 15 shapes with independent ranks
    G = c5()
    best = min(max(cut_oracle_gf2(G, side) for _, side in L.edge_sides())
               for L in enumerate_layouts(5, G.vertices))
    assert best == 2


def test_width_result_invariants():
    res = rankwidth(c5())
    assert res.width == max(res.cut_values.values())
    assert set(res.witness.leaves.values()) == set(c5().vertices)


def test_decide_width_at_most():
    K5 = encode_undirected([(i, j) for i in range(5) for j in range(i + 1, 5)])
    L = decide_width_at_most(K5, CutFunction(K5, "cutrk"), 1)
    assert L is not None
    assert layout_width(K5, CutFunction(K5, "cutrk"), L).width <= 1
    G = c5()
    assert decide_width_at_most(G, CutFunction(G, "cutrk"), 1) is None
    assert decide_width_at_most(G, CutFunction(G, "cutrk"), 5) is not None
    # k >= n always has a witness
    rng = random.Random(9)
    for _ in range(10):
        F4 = field_make(2, 2)
        H = random_sigma_graph(rng, F4, sigma_frobenius_conj(F4),
                               rng.randrange(1, 6))
        assert decide_width_at_most(H, CutFunction(H, "cutrk"), H.n) is not None


def test_birankwidth_examples():
    arc = digraph_gf2([("x", "y")])
    assert birankwidth(arc).width == 1
    rng = random.Random(0)
    F4 = field_make(2, 2)
    s4 = sigma_frobenius_conj(F4)
    for _ in range(10):
        G = random_sigma_graph(rng, F4, s4, rng.randrange(2, 6))
        wr, wb = rankwidth(G), birankwidth(G)
        assert wb.width == 2 * wr.width
        # the rank witness is optimal for bicutrk too
        assert layout_width(G, CutFunction(G, "bicutrk"),
                            wr.witness).width == wb.width


def test_width_invariance_under_relabeling_and_automorphism():
    rng = random.Random(1)
    F4 = field_make(2, 2)
    s4 = sigma_frobenius_conj(F4)
    for _ in range(10):
        G = random_sigma_graph(rng, F4, s4, rng.randrange(2, 6))
        w = rankwidth(G).width
        perm = list(G.vertices)
        rng.shuffle(perm)
        assert rankwidth(G.permuted(perm)).width == w
        # entrywise field automorphism (a <-> a^2 is the Frobenius)
        H = G.with_adj(s4.np_table[G.adj])
        assert rankwidth(H).width == w


def test_disconnected_width_is_component_max():
    rng = random.Random(2)
    for _ in range(10):
        e1 = [(i, j) for i in range(4) for j in range(i + 1, 4)
              if rng.random() < 0.6]
        e2 = [(i + 4, j + 4) for i in range(4) for j in range(i + 1, 4)
              if rng.random() < 0.6]
        G = encode_undirected(e1 + e2, vertices=range(8))
        w1 = rankwidth(encode_undirected(e1, vertices=range(4))).width
        w2 = rankwidth(encode_undirected(e2, vertices=range(4, 8))).width
        assert rankwidth(G).width == max(w1, w2)


def test_bnb_agrees_with_enumeration():
    rng = random.Random(3)
    for _ in range(30):
        F = field_make(*rng.choice([(2, 1), (3, 1)]))
        n = rng.randrange(2, 8)
        G = random_colored_graph(rng, F, n)
        f = CutFunction(G, "bicutrk")
        assert width_exact(G, f).width == \
            min(layout_width(G, f, L).width for L in enumerate_layouts(n, G.vertices))


def _assert_search_matches_enumeration(G, kind):
    """width_exact and both sides of decide_width_at_most against the
    minimum over all (2n-5)!! layouts."""
    f = CutFunction(G, kind)
    w = min(layout_width(G, f, L).width for L in enumerate_layouts(G.n, G.vertices))
    assert width_exact(G, f).width == w
    assert decide_width_at_most(G, f, w - 1) is None
    L = decide_width_at_most(G, f, w)
    assert L is not None and layout_width(G, f, L).width <= w


_F2, _F3, _F4 = field_make(2, 1), field_make(3, 1), field_make(2, 2)
_SIGMA_CASES = [(_F2, sigma_identity(_F2)), (_F3, sigma_identity(_F3)),
                (_F3, sigma_negation(_F3)), (_F4, sigma_frobenius_conj(_F4))]


@settings(derandomize=True, deadline=None)
@given(case=st.sampled_from(_SIGMA_CASES), n=st.integers(2, 7),
       seed=st.integers(0, 2 ** 32 - 1), density=st.sampled_from([0.3, 0.5, 0.8]))
def test_cutrk_search_matches_enumeration(case, n, seed, density):
    F, sigma = case
    G = random_sigma_graph(random.Random(seed), F, sigma, n, density)
    _assert_search_matches_enumeration(G, "cutrk")


@st.composite
def _colored_graphs(draw):
    F = draw(st.sampled_from([_F2, _F3, _F4]))
    n = draw(st.integers(2, 7))
    entries = draw(st.lists(st.integers(0, F.q - 1), min_size=n * n, max_size=n * n))
    a = np.array(entries, dtype=np.uint16).reshape(n, n)
    np.fill_diagonal(a, 0)
    return ColoredGraph(F, range(n), a)


@settings(derandomize=True, deadline=None)
@given(G=_colored_graphs())
def test_bicutrk_search_matches_enumeration(G):
    _assert_search_matches_enumeration(G, "bicutrk")


@settings(derandomize=True, deadline=None)
@given(case=st.sampled_from(_SIGMA_CASES), n=st.integers(2, 7),
       seed=st.integers(0, 2 ** 32 - 1))
def test_matroid_width_is_bi_width_plus_one(case, n, seed):
    """The lambda-width of a random sigma-symmetric graph and of a random
    GF(2) digraph is its bi-rank-width + 1; on the sigma-symmetric graph
    the bi-rank-width is twice the rank-width."""
    F, sigma = case
    rng = random.Random(seed)
    G = random_sigma_graph(rng, F, sigma, n)
    D = digraph_gf2(random_digraph_arcs(rng, n), vertices=range(n))
    wr = rankwidth(G).width
    assert birankwidth(G).width == 2 * wr
    for H, wb in ((G, 2 * wr), (D, birankwidth(D).width)):
        assert width_exact(H, CutFunction(H, "lambda")).width == wb + 1


def test_strongly_connected_bicut_floor():
    rng = random.Random(4)
    for _ in range(15):
        n = rng.randrange(2, 7)
        arcs = random_digraph_arcs(rng, n, density=0.5)
        if not is_strongly_connected(n, arcs):
            continue
        G = digraph_gf2(arcs, vertices=range(n))
        f = CutFunction(G, "bicutrk")
        assert all(f(X) >= 2 for X in range(1, (1 << n) - 1))
        assert birankwidth(G).width >= 2


def _distance_hereditary(n, edges):
    """Pendant/twin pruning; an independent route to the width <= 1 class."""
    adj = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    verts = set(range(n))
    changed = True
    while len(verts) > 1 and changed:
        changed = False
        for v in sorted(verts):
            if len(adj[v]) <= 1:
                for w in adj[v]:
                    adj[w].discard(v)
                verts.discard(v)
                adj.pop(v)
                changed = True
                break
            if any(adj[v] - {u} == adj[u] - {v}
                   for u in sorted(verts) if u != v):
                for w in adj[v]:
                    adj[w].discard(v)
                verts.discard(v)
                adj.pop(v)
                changed = True
                break
    return len(verts) == 1


def test_width_one_class_is_distance_hereditary():
    """rank-width <= 1 coincides with distance-hereditary, decided by the
    unrelated pendant/twin pruning algorithm (exhaustive n <= 5 plus random
    6-vertex graphs)."""
    import itertools
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            G = encode_undirected(edges, vertices=range(n))
            assert (rankwidth(G).width <= 1) == _distance_hereditary(n, edges)
    rng = random.Random(12)
    for _ in range(150):
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)
                 if rng.random() < rng.choice([0.25, 0.5, 0.75])]
        G = encode_undirected(edges, vertices=range(6))
        assert (rankwidth(G).width <= 1) == _distance_hereditary(6, edges)


def test_size_bound_error():
    n = BNB_BOUND + 1
    G = encode_undirected([(i, (i + 1) % n) for i in range(n)])
    with pytest.raises(SizeBoundError):
        rankwidth(G)
    with pytest.raises(SizeBoundError):
        decide_width_at_most(G, CutFunction(G, "cutrk"), 2)
    assert rankwidth(G, force=True).width == 2


def test_newick_roundtrip_and_parsing():
    res = rankwidth(c5())
    L = res.witness
    back = parse_newick(L.to_newick())
    assert sorted(back.leaves.values()) == [str(v) for v in sorted(L.leaves.values())]
    three = parse_newick("(a,b,(c,d));")
    assert three.n == 4
    assert {str(v) for v in three.vertices} == {"a", "b", "c", "d"}
    single = parse_newick("v1;")
    assert single.n == 1
    with_trailer = parse_newick("((v1,v2),(v3,(v4,v5)));\n# width 2\n")
    assert with_trailer.n == 5 and len(with_trailer.edges) == 7
    # a hand-built degree-2 node is left out, as parse_newick suppresses it
    assert Layout([(0, 3), (3, 1)], {0: "a", 1: "b"}).to_newick() == "(a,b);"
    # malformed text is a LayoutError naming the problem
    for text, problem in [("((a,b)", "unbalanced parentheses"),
                          ("(a,a);", "leaf labels must be distinct"),
                          ("(a,,b)", "empty leaf label"),
                          ("(,a)", "empty leaf label"),
                          ("(a,)", "empty leaf label"),
                          ("()", "empty leaf label"),
                          (")", "empty leaf label"),
                          ("(a,b)c", "trailing characters after layout"),
                          ("(a,b));", "trailing characters after layout"),
                          ("((a,b)c,d)", "unexpected character 'c'"),
                          ("(a(b,c))", "unexpected character '\\('"),
                          ("(a;b)", "unexpected character ';'"),
                          ("(a,", "unexpected end of layout text"),
                          (";", "unexpected end of layout text"),
                          ("# width 0", "unexpected end of layout text")]:
        with pytest.raises(LayoutError, match=problem):
            parse_newick(text)
    # spaces around labels and separators are dropped, spaces inside kept
    spaced = parse_newick(" ( a b , ( c ,d ) ) ; ;\n")
    assert sorted(spaced.vertices) == ["a b", "c", "d"]


def test_redundant_parentheses_read_as_without():
    """A group of one member is that member, at the root too (a root group
    of one was an internal node of degree < 2, or of degree 4 when it held
    three members)."""
    for wrapped, plain in [("(a);", "a;"), ("(((a)));", "a;"),
                           ("((a,b));", "(a,b);"), ("((a,b,c));", "(a,b,c);"),
                           ("(((a,b)),c);", "((a,b),c);"),
                           ("(((v1,v2),(v3,(v4,v5))));", "((v1,v2),(v3,(v4,v5)));")]:
        assert parse_newick(wrapped).to_newick() == parse_newick(plain).to_newick()


def test_a_layout_that_does_not_fit_names_the_leaf_or_the_vertex():
    """layout_width and both compilers name the first leaf that is not a
    graph vertex, or else the first vertex that has no leaf."""
    G = encode_undirected([("a", "b"), ("b", "c")])
    queries = (lambda L: layout_width(G, CutFunction(G, "cutrk"), L),
               lambda L: term_from_layout_rank(G, L),
               lambda L: term_from_layout_birank(G, L))
    for tree, labels, msg in [
            (((0, 1), (2, 3)), "abcd", "layout leaf 'd' is not a graph vertex"),
            ((0, 1, 2), ["a", 0, "c"], "layout leaf 0 is not a graph vertex"),
            ((0, 1), "bc", "graph vertex 'a' has no layout leaf"),
            (0, "a", "graph vertex 'b' has no layout leaf")]:
        L = build_layout(tree, labels)
        for query in queries:
            with pytest.raises(LayoutError, match=f"^{re.escape(msg)}$"):
                query(L)


def test_layout_validation():
    with pytest.raises(LayoutError):
        Layout([(0, 1), (0, 2), (0, 3), (0, 4)], {1: "a", 2: "b", 3: "c", 4: "d"})
    with pytest.raises(LayoutError):
        layout_width(c5(), CutFunction(c5(), "cutrk"),
                     Layout([(0, 1)], {0: 0, 1: 1}))


def test_forced_search_has_no_depth_limit():
    # an edgeless graph splits off one vertex per level of the search
    G = encode_undirected([], vertices=range(1000))
    res = rankwidth(G, force=True)
    assert res.width == 0 and res.witness.n == 1000


def test_tiny_graphs():
    """n = 1, 2 and 3, where the search has no frame (n <= 2) or one."""
    one = encode_undirected([], vertices=["a"])
    f = CutFunction(one, "cutrk")
    res = width_exact(one, f)
    assert res.width == 0 and res.witness.n == 1
    assert decide_width_at_most(one, f, 0).to_newick() == "a;"
    assert decide_width_at_most(one, f, -1) is None
    for edges, w in (([], 0), ([("a", "b")], 1)):
        G = encode_undirected(edges, vertices=["a", "b"])
        for kind, wk in (("cutrk", w), ("bicutrk", 2 * w), ("lambda", 2 * w + 1)):
            f = CutFunction(G, kind)
            res = width_exact(G, f)
            assert res.width == wk and res.witness.to_newick() == "(a,b);"
            assert decide_width_at_most(G, f, wk - 1) is None
            assert decide_width_at_most(G, f, wk).to_newick() == "(a,b);"
    for edges, w in (([], 0), ([(0, 1)], 1), ([(0, 1), (1, 2)], 1),
                     ([(0, 1), (1, 2), (0, 2)], 1)):
        G = encode_undirected(edges, vertices=range(3))
        f = CutFunction(G, "cutrk")
        res = width_exact(G, f)
        assert res.width == w and res.witness.n == 3 and len(res.witness.edges) == 3
        assert decide_width_at_most(G, f, w - 1) is None
        assert layout_width(G, f, decide_width_at_most(G, f, w)).width == w


def test_search_counters():
    """The counters of a search repeat exactly for the same input, count at
    most 2^(n-1) cut evaluations, one subset search per bound from the
    singleton floor up, and a second search on the same CutFunction
    evaluates no cut again.  A SearchStats passed to two decisions adds up
    every counter."""
    rng = random.Random(6)
    for kind in ("cutrk", "bicutrk", "lambda"):
        for n in (4, 7, 9):
            G = random_sigma_graph(rng, _F4, sigma_frobenius_conj(_F4), n)
            f = CutFunction(G, kind)
            res = width_exact(G, f)
            s = res.stats
            assert 0 < s.cut_evaluations == f.evaluations() <= 1 << (n - 1)
            floor = max(f(1 << i) for i in range(n))
            assert list(s.subsets_searched) == list(range(floor, res.width + 1))
            assert all(c > 0 for c in s.subsets_searched.values())
            assert width_exact(G, CutFunction(G, kind)).stats == s
            again = width_exact(G, f)
            assert again.stats.cut_evaluations == 0
            assert again.stats.subsets_searched == s.subsets_searched
            for k in (res.width - 1, res.width):
                stats, fresh = SearchStats(), CutFunction(G, kind)
                decide_width_at_most(G, fresh, k, stats=stats)
                assert 0 < stats.cut_evaluations == fresh.evaluations() <= 1 << (n - 1)
                assert list(stats.subsets_searched) == [k]
                searched = stats.subsets_searched[k]
                decide_width_at_most(G, fresh, k, stats=stats)
                assert stats.cut_evaluations == fresh.evaluations()
                assert stats.subsets_searched == {k: 2 * searched}
            assert decide_width_at_most(G, fresh, 0, stats=stats) is None
            assert stats.subsets_searched[0] == 0  # below the floor: no search


_CONTAINER_CASES = [(_F2, sigma_identity(_F2)), (_F3, sigma_negation(_F3)),
                    (_F4, sigma_frobenius_conj(_F4))]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=st.sampled_from(_CONTAINER_CASES), n=st.integers(1, 10),
       kind=st.sampled_from(["cutrk", "bicutrk", "lambda"]),
       seed=st.integers(0, 2 ** 32 - 1), density=st.sampled_from([0.3, 0.5, 0.8]))
def test_sparse_cut_table_matches_flat(case, n, kind, seed, density):
    """The dict cut table of graphs above FLAT_N vertices, kept in place of
    the flat bytearray, gives the same width, tree, Newick, cut values and
    counters, holds the same entries (each exact cut once per evaluation,
    under both sides), and answers both sides of the decision alike,
    capped cuts and their counter included."""
    F, sigma = case
    G = random_sigma_graph(random.Random(seed), F, sigma, n, density)
    flat, sparse = CutFunction(G, kind), CutFunction(G, kind)
    a = width_exact(G, flat)
    with patch.object(cutrank, "FLAT_N", 0):  # no search gets a flat table
        b = width_exact(G, sparse)
    assert sparse.memo.__class__ is _SparseTable
    assert flat.memo.__class__ is bytearray or n <= 2  # n <= 2 needs no search
    assert a.width == b.width and a.witness.edges == b.witness.edges
    assert a.witness.to_newick() == b.witness.to_newick()
    assert a.cut_values == b.cut_values and a.stats == b.stats
    entries = flat.memo.items() if n <= 2 else enumerate(flat.memo)
    assert sparse.memo == {X: e for X, e in entries if e != UNSET}
    exact = sum(e < LOW for e in sparse.memo.values())
    assert flat.evaluations() == sparse.evaluations() == exact // 2
    for k in (a.width - 1, a.width):
        flat, sparse = CutFunction(G, kind), CutFunction(G, kind)
        s1, s2 = SearchStats(), SearchStats()
        L1 = decide_width_at_most(G, flat, k, stats=s1)
        with patch.object(cutrank, "FLAT_N", 0):
            L2 = decide_width_at_most(G, sparse, k, stats=s2)
        assert s1 == s2
        assert (L1 is None) == (L2 is None) == (k < a.width)
        assert L1 is None or L1.to_newick() == L2.to_newick()


@settings(derandomize=True, deadline=None, max_examples=80)
@given(case=st.sampled_from(_CONTAINER_CASES), n=st.integers(1, 11),
       kind=st.sampled_from(["cutrk", "bicutrk", "lambda"]),
       seed=st.integers(0, 2 ** 32 - 1), density=st.sampled_from([0.3, 0.5, 0.8]),
       flat=st.booleans())
def test_block_bounds_keep_the_search(case, n, kind, seed, density, flat):
    """The search with block bounds against `oracles.feasible_tree`, the
    split loop that evaluates every cut it reads, with the flat table or
    the dict table: width_exact and the decisions at k = w - 1 and w give
    the oracle's tree, Newick, cut values and subsets searched, with no
    more cut evaluations, and after each search every table entry is the
    cut's value or a lower bound that the value reaches."""
    F, sigma = case
    G = random_sigma_graph(random.Random(seed), F, sigma, n, density)
    values = [CutFunction(G, kind)(X) for X in range(1 << n)]

    def search(feasible, k):  # k None: width_exact
        f = CutFunction(G, kind)
        with patch.object(layouts, "_feasible_tree", feasible), \
                patch.object(cutrank, "FLAT_N", cutrank.FLAT_N if flat else 0):
            if k is None:
                res = width_exact(G, f)
                L, stats, out = res.witness, res.stats, (res.width, res.cut_values)
            else:
                stats = SearchStats()
                L = decide_width_at_most(G, f, k, stats=stats)
                out = None
        for X, v in enumerate(values):
            e = f.memo[X]
            assert e == v if e < LOW else v >= UNSET - e
        return out, L and (L.edges, L.to_newick()), stats

    w = search(feasible_tree, None)[0][0]
    for k in (None, w - 1, w):
        *a, s = search(layouts._feasible_tree, k)
        *b, t = search(feasible_tree, k)
        assert a == b and s.subsets_searched == t.subsets_searched
        assert s.cut_evaluations <= t.cut_evaluations
        assert t.blocks_pruned == t.cuts_bounded == 0


@contextmanager
def _fills_of(target: CutFunction):
    """Counts the evaluations (`_fill` calls) of target, those that stored
    a lower bound, and the masks evaluated."""
    counts = SimpleNamespace(fills=0, capped=0, masks=[])
    fill = CutFunction._fill

    def counted(f, mask, cap=UNCAPPED):
        v = fill(f, mask, cap)
        if f is target:
            counts.fills += 1
            counts.capped += v >= LOW
            counts.masks.append(mask)
        return v
    with patch.object(CutFunction, "_fill", counted):
        yield counts


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=st.sampled_from(_CONTAINER_CASES), n=st.integers(3, 9),
       kind=st.sampled_from(["cutrk", "bicutrk", "lambda"]),
       seed=st.integers(0, 2 ** 32 - 1), density=st.sampled_from([0.3, 0.5, 0.8]),
       flat=st.booleans(), data=st.data())
def test_capped_decisions_on_one_cut_function(case, n, kind, seed, density, flat, data):
    """On one CutFunction, with the flat table or the dict table, a random
    sequence of decisions (at k in -1..n + 2 or at 200), exact widths and
    single cuts, then f(X) on every mask, gives the answers, Newick, cut
    values and subsets searched of a fresh CutFunction per call, although
    each decision leaves lower bounds in the table.
    After every call each entry below LOW is the cut's value and each
    other entry is UNSET - c for a c that the value reaches.  A search's
    cut_evaluations is the number of evaluations it made, so a cut whose
    bound it evaluates again counts again, and capped_evaluations the
    number of those that stopped at k + 1; evaluations() and
    capped_evaluations() count every one so far."""
    F, sigma = case
    G = random_sigma_graph(random.Random(seed), F, sigma, n, density)
    fresh = CutFunction(G, kind)
    full = (1 << n) - 1
    values = [fresh(X) for X in range(full + 1)]
    queries = data.draw(st.lists(st.tuples(
        st.sampled_from(["decide"] * 4 + ["exact", "cut"]),
        st.integers(-1, n + 3), st.integers(0, full)), min_size=2, max_size=6))
    w = width_exact(G, fresh).width
    shared = CutFunction(G, kind)
    with _fills_of(shared) as calls, patch.object(cutrank, "FLAT_N",
                                                  cutrank.FLAT_N if flat else 0):
        for query, x, X in queries:
            before = calls.fills, calls.capped
            if query == "decide":
                x = 200 if x > n + 2 else x
                fresh, s1, s2 = CutFunction(G, kind), SearchStats(), SearchStats()
                L1 = decide_width_at_most(G, shared, x, stats=s1)
                L2 = decide_width_at_most(G, fresh, x, stats=s2)
                assert (L1 is None) == (L2 is None) == (x < w)
                assert L1 is None or L1.to_newick() == L2.to_newick()
                assert s1.subsets_searched == s2.subsets_searched
                assert (s1.cut_evaluations, s1.capped_evaluations) == (
                    calls.fills - before[0], calls.capped - before[1])
            elif query == "exact":
                a, b = width_exact(G, shared), width_exact(G, CutFunction(G, kind))
                assert (a.width, a.witness.to_newick(), a.cut_values) == (
                    b.width, b.witness.to_newick(), b.cut_values)
                assert a.stats.subsets_searched == b.stats.subsets_searched
                assert a.stats.cut_evaluations == calls.fills - before[0]
                assert a.stats.capped_evaluations == 0 == calls.capped - before[1]
            else:
                assert shared(X) == values[X]
            for X, v in enumerate(values):
                e = shared.memo[X]
                assert e == v if e < LOW else e <= UNSET and v >= UNSET - e
            assert shared.evaluations() == calls.fills
            assert shared.capped_evaluations() == calls.capped
        assert flat or shared.memo.__class__ is _SparseTable
        assert [shared(X) for X in range(full + 1)] == values
        assert max(shared.memo[X] for X in range(full + 1)) < LOW
        assert shared.evaluations() == calls.fills
        assert shared.capped_evaluations() == calls.capped


def test_bounds_are_re_evaluated_and_counted_again():
    """A "no" at k = 2 on the 4x4 grid stores UNSET - 3 for the cuts above
    2 that it evaluates or that a block's bound covers; the decision at
    k = 3 on the same CutFunction evaluates those it reaches again and
    counts each among its cut evaluations, and a second
    "no" at k = 2 reads every cut it needs from the table, the bounds
    UNSET - 3 that the search at 3 did not reach and UNSET - 4 included."""
    G = encode_undirected([(r * 4 + c, r * 4 + c + d) for r in range(4) for c in range(4)
                           for d in (1, 4) if (d == 1 and c < 3) or (d == 4 and r < 3)])
    f, s2, s3 = CutFunction(G, "cutrk"), SearchStats(), SearchStats()
    assert decide_width_at_most(G, f, 2, force=True, stats=s2) is None
    bounds = {X for X in range(1 << 16) if f.memo[X] == UNSET - 3}
    assert 0 < s2.capped_evaluations and 0 < s2.blocks_pruned <= s2.cuts_bounded
    assert 2 * (s2.capped_evaluations + s2.cuts_bounded) == len(bounds)
    with _fills_of(f) as calls:
        L = decide_width_at_most(G, f, 3, force=True, stats=s3)
    again = bounds.intersection(calls.masks)
    assert L is not None and layout_width(G, f, L).width == 3
    assert again and s3.cut_evaluations == calls.fills >= len(again)
    assert f.evaluations() == s2.cut_evaluations + s3.cut_evaluations
    s4 = SearchStats()
    assert decide_width_at_most(G, f, 2, force=True, stats=s4) is None
    assert s4.cut_evaluations == s4.capped_evaluations == 0
    assert s4.subsets_searched == s2.subsets_searched


def test_large_bounds_do_not_overflow_the_byte_table():
    """A bound past the byte range: a decision at k = 200 on a 20-vertex
    cycle stores exact values, before and after a "no" at k = 1 filled the
    table with lower bounds UNSET - 2, and evaluates again each of those
    that it reads."""
    G = encode_undirected([(i, (i + 1) % 20) for i in range(20)])
    f = CutFunction(G, "cutrk")
    for k in (200, 1, 200):
        L = decide_width_at_most(G, f, k, force=True)
        assert (L is None) == (k < 2)
        assert L is None or layout_width(G, f, L).width <= k
    assert f.memo.__class__ is bytearray
    assert set(f.memo) - set(range(LOW)) <= {UNSET, UNSET - 2}


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_search_matches_subset_dp_oracle(n):
    """width_exact and both sides of decide_width_at_most against
    `bench/oracle.exact_width`: cutrk over GF(2), GF(3) with negation and
    GF(4) with conjugation, and bicutrk over each field."""
    rng = random.Random(f"oracle:{n}")
    for case in _SIGMA_CASES[:1] + _SIGMA_CASES[2:]:
        for kind in ("cutrk", "bicutrk"):
            for _ in range(2):
                F, density = case[0], rng.choice([0.3, 0.5, 0.7])
                G = (random_sigma_graph(rng, F, case[1], n, density) if kind == "cutrk"
                     else random_colored_graph(rng, F, n, density))
                w = oracle.exact_width(oracle.Cuts(F.q, G.adj.tolist(), kind))
                f = CutFunction(G, kind)
                assert width_exact(G, f).width == w
                assert decide_width_at_most(G, CutFunction(G, kind), w - 1) is None
                L = decide_width_at_most(G, CutFunction(G, kind), w)
                assert L is not None and layout_width(G, f, L).width <= w


@functools.lru_cache(maxsize=None)
def _layouts(n):
    return list(enumerate_layouts(n))


def _brute_sides(L):
    """Each edge with the leaf labels still joined to its first endpoint
    once the edge is cut, grown edge by edge from that endpoint."""
    out = []
    for u, v in L.edges:
        others = [e for e in L.edges if e != (u, v)]
        reach, grew = {u}, True
        while grew:
            grew = False
            for a, b in others:
                if (a in reach) != (b in reach):
                    reach |= {a, b}
                    grew = True
        out.append(((u, v), frozenset(L.leaves[x] for x in reach if x in L.leaves)))
    return out


def _splits(L):
    everything = frozenset(L.vertices)
    return {frozenset((s, everything - s)) for _, s in L.edge_sides()}


_LABELS = {"int": lambda i: i, "str": lambda i: f"v{i}", "tuple": lambda i: (i, "x")}


@settings(derandomize=True, deadline=None)
@given(n=st.integers(1, 8), kind=st.sampled_from(sorted(_LABELS)), data=st.data())
def test_rooted_walks_on_enumerated_layouts(n, kind, data):
    shapes = _layouts(n)
    L = shapes[data.draw(st.integers(0, len(shapes) - 1))]
    L = L.relabel_leaves({i: _LABELS[kind](i) for i in range(n)})
    assert L.edge_sides() == _brute_sides(L)
    if kind == "str":
        assert _splits(parse_newick(L.to_newick())) == _splits(L)
    order = data.draw(st.permutations(L.vertices))
    got = compiled_leaf_order(encode_undirected([], vertices=order), L)
    assert len(got) == n and set(got) == set(order) and got[0] == order[0]


def test_rooted_at_a_vertex_that_is_not_a_leaf():
    """Rooting at a label the layout does not have is a LayoutError that
    names it (it was a bare KeyError)."""
    L = build_layout(((0, 1), 2), ["a", "b", "c"])
    assert [L.leaves[x] for x in L.rooted("b") if x is not None] == ["b", "a", "c"]
    for missing in ("z", 0, ("a",)):
        with pytest.raises(LayoutError,
                           match=rf"^{re.escape(repr(missing))} is not a leaf label"):
            L.rooted(missing)


def _split_masks(L):
    """The splits of L as bitmasks over its vertices in str order: every
    subtree of L rooted at the first vertex's leaf edge, read with `fold` so
    that a deep layout costs one int per node."""
    order = sorted(L.vertices, key=str)
    index = {v: i for i, v in enumerate(order)}
    splits = set()

    def keep(mask):
        splits.add(mask)
        return mask

    fold(L.rooted(order[0]), lambda x: keep(1 << index[L.leaves[x]]),
         lambda _, a, b: keep(a | b))
    return splits


def _caterpillar(n, seed, mirrored):
    """A caterpillar layout on n shuffled labels, nesting n - 1 deep on the
    left or (mirrored) on the right."""
    labels = [f"v{i}" for i in range(n)]
    random.Random(seed).shuffle(labels)
    tree = 0
    for i in range(1, n):
        tree = (i, tree) if mirrored else (tree, i)
    return build_layout(tree, labels)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(n=st.integers(1, 3001), seed=st.integers(0, 2 ** 32 - 1),
       mirrored=st.booleans())
@example(n=1201, seed=0, mirrored=False)
@example(n=3001, seed=1, mirrored=True)
def test_newick_roundtrip_caterpillars(n, seed, mirrored):
    """Layouts read back at any depth, and truncated ones are refused."""
    L = _caterpillar(n, seed, mirrored)
    text = L.to_newick()
    assert max(accumulate((c == "(") - (c == ")") for c in text)) == n - 1
    back = parse_newick(text + "\n# width 1\n")
    assert back.n == n and _split_masks(back) == _split_masks(L)
    if n > 1:
        with pytest.raises(LayoutError, match="unexpected end of layout text"):
            parse_newick(text[:text.index(",") + 1])


def test_foreign_cut_function_is_refused_before_any_evaluation():
    """A width query with another graph's cut function raises before it
    evaluates a cut: it would answer for that graph (C6 with P6's cut-rank
    read width <= 1, while C6 has rank-width 2)."""
    C6 = encode_undirected([(i, (i + 1) % 6) for i in range(6)])
    P6 = encode_undirected([(i, i + 1) for i in range(5)])
    for query in (lambda f: decide_width_at_most(C6, f, 1),
                  lambda f: width_exact(C6, f)):
        f = CutFunction(P6, "cutrk")
        with pytest.raises(LayoutError, match="cut function belongs to a different graph"):
            query(f)
        assert f.evaluations() == 0


def test_domain_errors_name_the_precondition():
    """Each malformed layout, and each width query on the empty vertex
    set, raises a LayoutError naming what is broken."""
    empty = ColoredGraph(field_make(2, 1), [], [])
    rows = [
        (lambda: Layout([], {}), LayoutError, "a layout needs at least one leaf"),
        (lambda: Layout([(0, 1), (0, 2)], {0: "a", 1: "b", 2: "c"}), LayoutError,
         "leaf 0 has degree 2"),
        (lambda: Layout([], {0: "a", 1: "b"}), LayoutError,
         "layout tree must be acyclic and connected"),
        (lambda: Layout([(0, 2), (1, 2), (2, 3)], {0: "a", 1: "b"}), LayoutError,
         "internal node 3 of degree < 2"),
        (lambda: width_exact(empty, CutFunction(empty, "bicutrk")), LayoutError,
         "width of the empty vertex set is undefined"),
        (lambda: decide_width_at_most(empty, CutFunction(empty, "bicutrk"), 0),
         LayoutError, "width of the empty vertex set is undefined"),
    ]
    for call, error, fragment in rows:
        with pytest.raises(error, match=fragment):
            call()

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to watch them).

All arithmetic checks are exact (tolerance zero); randomized batteries use
fixed seeds.  Stated runtime budgets are asserted as hard caps.
"""

import functools
import itertools
import random
import time

import numpy as np

from rankw.cutrank import CutFunction
from rankw.fields import (field_extend_quadratic, field_make, sesqui_check,
                          sigma_compatible_set, sigma_frobenius_conj,
                          sigma_identity, sigma_negation)
from rankw.graphs import (encode_undirected, digraph_gf2, isomorphic,
                          SigmaGraph, tilde)
from rankw.layouts import birankwidth, layout_width, rankwidth
from oracles import (is_strongly_connected, random_colored_graph,
                     random_digraph_arcs, random_sigma_graph,
                     random_strongly_connected_arcs)
from rankw.terms import (compiled_leaf_order, eval_birank_term, eval_rank_term,
                         syntactic_layout, term_from_layout_birank,
                         term_from_layout_rank, term_max_width)
from rankw.transform import (const_graph, ec_cycle, equivalence_orbit_graphs,
                             find_obstructions, is_minor, local_complement)

F2, F3, F4, F5 = field_make(2, 1), field_make(3, 1), field_make(2, 2), field_make(5, 1)
S2, S3I, S3N = sigma_identity(F2), sigma_identity(F3), sigma_negation(F3)
S4 = sigma_frobenius_conj(F4)


def criterion(number, name, budget_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.time()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            elapsed = time.time() - t0
            print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.1f}s]")
            assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"
        return wrapper
    return deco


def all_gf2_sigma_graphs(n_max):
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            yield encode_undirected(edges, vertices=range(n))


@criterion(1, "field extension suite", 1.0)
def test_acceptance_1_field_extensions():
    for base in (F2, F3, F4, F5):
        e = field_extend_quadratic(base)
        X, g, t = e.ext, e.gamma, e.tau
        pinv = X.inv(e.p_elt)
        assert X.add(g, t) == 1 and X.mul(e.p_elt, t) == e.alpha
        assert X.mul(g, g) == X.add(X.mul(X.add(1, pinv), g), X.mul(pinv, t))
        assert X.mul(t, t) == X.add(X.mul(pinv, g), X.mul(X.add(1, pinv), t))
        # gamma*tau = -p^{-1}(gamma + tau); the sign disappears in
        # characteristic 2
        assert X.mul(g, t) == X.neg(X.add(X.mul(pinv, g), X.mul(pinv, t)))
        if base.p == 2:
            assert X.mul(g, t) == X.add(X.mul(pinv, g), X.mul(pinv, t))
        images = {e.f_tilde(a, b) for a in range(base.q) for b in range(base.q)}
        assert len(images) == X.q
        assert sesqui_check(X, e.sigma_tilde.table)
        assert all(e.sigma_tilde(e.sigma_tilde(c)) == c for c in range(X.q))


def _assert_symmetric_submodular(f, n):
    full = (1 << n) - 1
    vals = [f(m) for m in range(full + 1)]
    assert vals[0] == 0 and vals[full] == 0
    for X in range(full + 1):
        assert vals[X] == vals[full ^ X]
        for Y in range(X, full + 1):
            assert vals[X | Y] + vals[X & Y] <= vals[X] + vals[Y]


@criterion(2, "cut-rank symmetry and submodularity", 120.0)
def test_acceptance_2_submodularity():
    for G in all_gf2_sigma_graphs(5):
        _assert_symmetric_submodular(CutFunction(G, "cutrk"), G.n)
    rng = random.Random(2)
    for i in range(300):
        F, s = (F3, S3N) if i % 2 == 0 else (F4, S4)
        G = random_sigma_graph(rng, F, s, rng.randrange(1, 7))
        _assert_symmetric_submodular(CutFunction(G, "cutrk"), G.n)
    for i in range(300):
        F = (F2, F3, F4)[i % 3]
        G = random_colored_graph(rng, F, rng.randrange(1, 7))
        _assert_symmetric_submodular(CutFunction(G, "bicutrk"), G.n)


@criterion(3, "matroid connectivity bridge", 30.0)
def test_acceptance_3_matroid_bridge():
    rng = random.Random(3)
    for i in range(500):
        F = (F2, F3, F4)[i % 3]
        n = rng.randrange(1, 7)
        G = random_colored_graph(rng, F, n)
        X = rng.randrange(1 << n)
        assert CutFunction(G, "lambda")(X) == CutFunction(G, "bicutrk")(X) + 1
    for i in range(200):
        F, s = (F3, S3N) if i % 2 == 0 else (F4, S4)
        n = rng.randrange(1, 7)
        G = random_sigma_graph(rng, F, s, n)
        X = rng.randrange(1 << n)
        assert CutFunction(G, "lambda")(X) == 2 * CutFunction(G, "cutrk")(X) + 1


@criterion(4, "complementation invariance", 60.0)
def test_acceptance_4_complementation_invariance():
    rng = random.Random(4)
    compat_cases = [(F2, S2), (F3, S3I), (F4, S4)]
    pivot_cases = [(F2, S2), (F3, S3N), (F4, S4)]
    all_fields = [F2, F3, F4]
    # (a) sigma-compatible local complementation preserves cutrk
    for F, s in compat_cases:
        lams = sigma_compatible_set(s)
        for _ in range(300):
            n = rng.randrange(2, 7)
            G = random_sigma_graph(rng, F, s, n, density=0.7)
            H = local_complement(G, rng.randrange(n), rng.choice(lams))
            X = rng.randrange(1 << n)
            assert CutFunction(H, "cutrk")(X) == CutFunction(G, "cutrk")(X)
    # (b) pivot preserves cutrk
    from rankw.transform import pivot_complement
    for F, s in pivot_cases:
        done = 0
        while done < 300:
            n = rng.randrange(2, 7)
            G = random_sigma_graph(rng, F, s, n, density=0.7)
            edges = [(i, j) for i in range(n) for j in range(n)
                     if i != j and G.adj[i, j]]
            if not edges:
                continue
            P = pivot_complement(G, *rng.choice(edges))
            X = rng.randrange(1 << n)
            assert CutFunction(P, "cutrk")(X) == CutFunction(G, "cutrk")(X)
            done += 1
    # (c) every lambda-local complementation preserves bicutrk
    for F in all_fields:
        for _ in range(300):
            n = rng.randrange(2, 7)
            G = random_colored_graph(rng, F, n, density=0.7)
            H = local_complement(G, rng.randrange(n), rng.randrange(1, F.q))
            X = rng.randrange(1 << n)
            assert CutFunction(H, "bicutrk")(X) == CutFunction(G, "bicutrk")(X)


@criterion(5, "directed complementation table", 5.0)
def test_acceptance_5_directed_table():
    # codes: 2 = arc out of the first vertex (a), 3 = arc in (a^2),
    # 1 = bidirected, 0 = none
    uniform = {0: 1, 2: 3, 3: 2, 1: 0}
    nonuniform = {0: 2, 2: 0, 3: 1, 1: 3}
    for centers, mapping in [
            ([(3, 2), (2, 3), (1, 1)], uniform),
            ([(3, 3), (2, 1), (1, 2)], nonuniform)]:
        for zx, xt in centers:
            for before, after in mapping.items():
                a = np.zeros((3, 3), dtype=np.uint16)
                a[0, 1], a[1, 0] = zx, S4(zx)
                a[1, 2], a[2, 1] = xt, S4(xt)
                a[0, 2], a[2, 0] = before, S4(before)
                G = SigmaGraph(F4, ("z", "x", "t"), a, S4)
                H = local_complement(G, "x", 1)
                assert H.adj[0, 2] == after and H.adj[2, 0] == S4(after)
                assert H.adj[0, 1] == zx and H.adj[1, 2] == xt


def _check_bi_is_double(G):
    wr = rankwidth(G)
    wb = birankwidth(G)
    assert wb.width == 2 * wr.width
    shared = layout_width(G, CutFunction(G, "bicutrk"), wr.witness)
    assert shared.width == wb.width


@criterion(6, "bi-rank-width doubles rank-width", 300.0)
def test_acceptance_6_bi_is_double():
    for G in all_gf2_sigma_graphs(5):
        _check_bi_is_double(G)
    rng = random.Random(6)
    for _ in range(100):
        G = random_sigma_graph(rng, F4, S4, rng.randrange(1, 7))
        _check_bi_is_double(G)


@criterion(7, "quadratic-lift width sandwich", 300.0)
def test_acceptance_7_tilde_sandwich():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randrange(1, 7)
        G = digraph_gf2(random_digraph_arcs(rng, n), vertices=range(n))
        T = tilde(G)
        wt = rankwidth(T).width
        wb = birankwidth(G).width
        assert wt <= wb <= 4 * wt


def _roundtrip_rank(G, sigma):
    res = rankwidth(G)
    t = term_from_layout_rank(G, res.witness)
    assert term_max_width(t) <= max(res.width, 1)
    ev = eval_rank_term(t, sigma)
    order = compiled_leaf_order(G, res.witness)
    relab = {v: i for i, v in enumerate(order)}
    assert isomorphic(ev.graph, G.relabel(relab)) is not None
    Ls = syntactic_layout(t)
    w = layout_width(ev.graph, CutFunction(ev.graph, "cutrk"), Ls).width
    assert w <= res.width or (res.width == 0 and w == 0)


def _roundtrip_birank(G):
    res = birankwidth(G)
    t = term_from_layout_birank(G, res.witness)
    assert term_max_width(t) <= res.width
    ev = eval_birank_term(t, G.field)
    order = compiled_leaf_order(G, res.witness)
    relab = {v: i for i, v in enumerate(order)}
    assert isomorphic(ev.graph, G.relabel(relab)) is not None
    Ls = syntactic_layout(t)
    assert layout_width(ev.graph, CutFunction(ev.graph, "bicutrk"),
                        Ls).width <= res.width


@criterion(8, "term compilation roundtrips", 600.0)
def test_acceptance_8_term_roundtrips():
    for G in all_gf2_sigma_graphs(5):
        _roundtrip_rank(G, S2)
    rng = random.Random(8)
    for i in range(100):
        F, s = (F3, S3N) if i % 2 == 0 else (F4, S4)
        G = random_sigma_graph(rng, F, s, rng.randrange(1, 7))
        _roundtrip_rank(G, s)
    for _ in range(100):
        n = rng.randrange(1, 7)
        G = digraph_gf2(random_digraph_arcs(rng, n), vertices=range(n))
        _roundtrip_birank(G)


@criterion(9, "obstruction facts", 1800.0)
def test_acceptance_9_obstructions():
    # k = 0: exactly the two-vertex const graphs, up to isomorphism
    for F, s in [(F2, S2), (F3, S3N), (F4, S4)]:
        expected = {const_graph(F, s, a).canonical_form() for a in F.units()}
        for relation in ("pivot", "sigma-vertex"):
            obs = find_obstructions(F, s, relation, 0, 3)
            assert {o.graph.canonical_form() for o in obs} == expected

    width_cache = {}

    def cached_width(G):
        key = G.canonical_form()
        if key not in width_cache:
            width_cache[key] = rankwidth(G).width
        return width_cache[key]

    def verify_members(obs, relation, k):
        for i, o in enumerate(obs):
            G = o.graph
            assert cached_width(G) == k + 1
            for M in equivalence_orbit_graphs(G, relation):
                for v in M.vertices:
                    sub = M.induced_subgraph([w for w in M.vertices if w != v])
                    assert cached_width(sub) <= k
            if i < 10:  # minor-machinery consistency spot check
                for v in G.vertices:
                    sub = G.induced_subgraph([w for w in G.vertices if w != v])
                    assert is_minor(sub, G, relation).found

    # k = 1 searches; size bounds: <= 5 for sigma-vertex, <= 6 for pivot
    obs_v2 = find_obstructions(F2, S2, "sigma-vertex", 1, 6)
    assert obs_v2 and all(o.graph.n <= 5 for o in obs_v2)
    verify_members(obs_v2, "sigma-vertex", 1)
    obs_p2 = find_obstructions(F2, S2, "pivot", 1, 6)
    assert obs_p2 and all(o.graph.n <= 6 for o in obs_p2)
    verify_members(obs_p2, "pivot", 1)
    obs_v4 = find_obstructions(F4, S4, "sigma-vertex", 1, 5)
    assert obs_v4 and all(o.graph.n <= 5 for o in obs_v4)
    verify_members(obs_v4, "sigma-vertex", 1)


@criterion(10, "alternating even cycles", 10.0)
def test_acceptance_10_ec_cycles():
    for m in (4, 6, 8):
        E = ec_cycle(m)
        for x in E.vertices:
            H = local_complement(E, x, 1)
            assert isomorphic(E, H) is not None


@criterion(11, "strongly connected bi-rank floor", 60.0)
def test_acceptance_11_strongly_connected():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(2, 7)
        arcs = random_strongly_connected_arcs(rng, n)
        G = digraph_gf2(arcs, vertices=range(n))
        assert is_strongly_connected(n, arcs)
        assert birankwidth(G).width >= 2

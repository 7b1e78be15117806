"""Encodings, the quadratic-extension lift, isomorphism, canonical forms,
and the graph file format."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankw.cutrank import CutFunction
from rankw.fields import (FieldError, field_extend_quadratic, field_make,
                          parse_sigma, sigma_frobenius_conj, sigma_identity,
                          sigma_negation)
from rankw.graphs import (ColoredGraph, GraphError, SigmaGraph,
                          _canonical_labelling, _orbit, digraph_gf2,
                          emit_dot, emit_graph, encode_directed,
                          encode_oriented, encode_undirected,
                          is_sigma_symmetric, isomorphic, parse_graph, tilde)

from oracles import random_colored_graph, random_sigma_graph


def c5():
    return encode_undirected([(i, (i + 1) % 5) for i in range(5)])


def test_encode_undirected():
    K3 = encode_undirected([(0, 1), (1, 2), (0, 2)])
    assert K3.adj.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    empty = encode_undirected([], vertices=range(4))
    assert not empty.adj.any()
    C = c5()
    deg = (C.adj != 0).sum(axis=0)
    assert list(deg) == [2] * 5
    with pytest.raises(GraphError):
        encode_undirected([(0, 0)])


def test_encode_directed():
    D = encode_directed([("x", "y")])
    assert D.field.q == 4
    assert D.adj.tolist() == [[0, 2], [3, 0]]     # a forward, a^2 back
    B = encode_directed([("x", "y"), ("y", "x")])
    assert B.adj.tolist() == [[0, 1], [1, 0]]
    with pytest.raises(GraphError):
        encode_directed([("x", "x")])


def test_encode_oriented():
    T = encode_oriented([(0, 1), (1, 2), (2, 0)])
    assert T.field.q == 3
    assert T.adj.tolist() == [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    assert not encode_oriented([], vertices=range(3)).adj.any()
    with pytest.raises(GraphError):
        encode_oriented([(0, 1), (1, 0)])


@pytest.mark.parametrize("encode", [encode_undirected, encode_directed,
                                    encode_oriented, digraph_gf2])
def test_encodings_name_an_unknown_vertex(encode):
    """An arc endpoint missing from the given vertices is a GraphError that
    names it (it was a bare KeyError)."""
    with pytest.raises(GraphError, match=r"^unknown vertex 1$"):
        encode([(0, 1)], vertices=[0])
    with pytest.raises(GraphError, match=r"^unknown vertex 'a'$"):
        encode([("a", "b")], vertices=["b"])


def test_constructor_rejects_bad_codes():
    """Codes are integers in 0..q-1: floats, strings and out-of-range
    integers name the bad color, and a matrix of the wrong size names the
    size.  numpy integers and arrays are integers."""
    F2 = field_make(2, 1)
    for adj, problem in [([[0, 1.7], [0.4, 0]], "color 1.7 is not an integer"),
                         ([[0, "1"], ["1", 0]], "color '1' is not an integer"),
                         ([0, 1.0, 1, 0], "color 1.0 is not an integer"),
                         ([[0, -1], [1, 0]], "color -1 is not an element code"),
                         ([[0, 70000], [1, 0]], "color 70000 is not an element code"),
                         ([[0, 65537], [1, 0]], "color 65537 is not an element code"),
                         ([[0, 2], [1, 0]], "color 2 is not an element code")]:
        with pytest.raises(FieldError, match=problem):
            ColoredGraph(F2, (0, 1), adj)
    for adj in ([[0, 1, 0], [1, 0, 0]], [[0, 1], [1, 0], [0, 0]], [0, 1, 1],
                np.zeros((3, 3), dtype=np.uint16)):
        with pytest.raises(GraphError, match="adjacency"):
            ColoredGraph(F2, (0, 1), adj)
    with pytest.raises(GraphError, match="diagonal must be zero"):
        ColoredGraph(F2, (0, 1), [1, 0, 0, 0])
    rows = [[np.uint16(0), np.int64(1)], [np.int8(1), 0]]
    for adj in (rows, np.array(rows, dtype=np.uint16), np.array([0, 1, 1, 0]),
                (0, 1, 1, 0)):
        G = ColoredGraph(F2, (0, 1), adj)
        assert G.codes == (0, 1, 1, 0) and all(type(c) is int for c in G.codes)
        assert G.adj.dtype == np.uint16 and G.adj.tolist() == [[0, 1], [1, 0]]


def test_sigma_symmetry_checks():
    G = c5()
    assert is_sigma_symmetric(G, sigma_identity(field_make(2, 1)))
    F4 = field_make(2, 2)
    s4 = sigma_frobenius_conj(F4)
    ok = ColoredGraph(F4, "xy", [[0, 2], [3, 0]])
    assert is_sigma_symmetric(ok, s4)
    bad = ColoredGraph(F4, "xy", [[0, 2], [2, 0]])
    assert not is_sigma_symmetric(bad, s4)
    with pytest.raises(GraphError):
        SigmaGraph(F4, "xy", [[0, 2], [2, 0]], s4)


def test_tilde_single_arc():
    G = digraph_gf2([("x", "y")])
    T = tilde(G)
    e = field_extend_quadratic(field_make(2, 1))
    assert T.adj[0, 1] == e.gamma and T.adj[1, 0] == e.tau
    B = tilde(digraph_gf2([("x", "y"), ("y", "x")]))
    assert B.adj.tolist() == [[0, 1], [1, 0]]


def test_tilde_symmetric_input_stays_binary():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randrange(1, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        G = encode_undirected(edges, vertices=range(n))
        T = tilde(G.drop_sigma())
        assert set(np.unique(T.adj)) <= {0, 1}
        assert np.array_equal(T.adj, G.adj)


def test_tilde_sigma_symmetric_random():
    rng = random.Random(1)
    for _ in range(200):
        F = field_make(*rng.choice([(2, 1), (3, 1)]))
        G = random_colored_graph(rng, F, rng.randrange(1, 9))
        T = tilde(G)
        assert is_sigma_symmetric(T, field_extend_quadratic(F).sigma_tilde)


def test_tilde_bijective_and_iso_preserving():
    rng = random.Random(2)
    F3 = field_make(3, 1)
    seen = {}
    for _ in range(60):
        G = random_colored_graph(rng, F3, 4)
        T = tilde(G)
        key = T.adj.tobytes()
        if key in seen:
            assert np.array_equal(seen[key].adj, G.adj)
        seen[key] = G
    for _ in range(30):
        G = random_colored_graph(rng, F3, rng.randrange(1, 6))
        perm = list(range(G.n))
        rng.shuffle(perm)
        H = G.permuted([G.vertices[i] for i in perm]).relabel(
            {v: f"w{v}" for v in G.vertices})
        assert (isomorphic(G, H) is not None) == \
            (isomorphic(tilde(G), tilde(H)) is not None)


def test_directed_encoding_is_tilde_conjugate():
    """Section-3.4 table output = entrywise a <-> a^2 image of the lift;
    cut-ranks agree on every cut."""
    rng = random.Random(3)
    s4 = sigma_frobenius_conj(field_make(2, 2))
    for _ in range(30):
        n = rng.randrange(2, 7)
        arcs = [(i, j) for i in range(n) for j in range(n)
                if i != j and rng.random() < 0.4]
        T = tilde(digraph_gf2(arcs, vertices=range(n)))
        D = encode_directed(arcs, vertices=range(n))
        assert np.array_equal(s4.np_table[T.adj], D.adj)
        fT, fD = CutFunction(T, "cutrk"), CutFunction(D, "cutrk")
        assert all(fT(X) == fD(X) for X in range(1 << n))


def test_bidirected_embedding_preserves_rankwidth():
    """An undirected graph embedded as a bidirected digraph has the same
    rank-width over GF(4) as over GF(2) (binary entries, rank is
    field-extension invariant)."""
    from rankw.layouts import rankwidth
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randrange(2, 6)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        G = encode_undirected(edges, vertices=range(n))
        arcs = [(u, v) for u, v in edges] + [(v, u) for u, v in edges]
        D = encode_directed(arcs, vertices=range(n))
        assert set(np.unique(D.adj)) <= {0, 1}
        assert rankwidth(D).width == rankwidth(G).width


def test_induced_subgraph():
    K4 = encode_undirected([(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert K4.induced_subgraph(K4.vertices) == K4
    assert K4.induced_subgraph([]).n == 0
    K3 = K4.induced_subgraph([0, 1, 2])
    assert K3.adj.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert isinstance(K3, SigmaGraph)
    with pytest.raises(GraphError):
        K4.induced_subgraph([9])


def test_isomorphic_examples():
    C = c5()
    assert isomorphic(C, C) is not None
    P5 = encode_undirected([(i, i + 1) for i in range(4)], vertices=range(5))
    assert isomorphic(C, P5) is None
    D1 = encode_directed([("x", "y")])
    D2 = encode_directed([("y", "x")], vertices=("x", "y"))
    m = isomorphic(D1, D2)
    assert m == {"x": "y", "y": "x"}
    with pytest.raises(GraphError):
        isomorphic(C, encode_oriented([(0, 1)]))


def test_isomorphic_preserves_colors():
    rng = random.Random(4)
    for _ in range(60):
        F = field_make(*rng.choice([(2, 1), (3, 1), (2, 2)]))
        G = random_colored_graph(rng, F, rng.randrange(1, 7))
        perm = list(G.vertices)
        rng.shuffle(perm)
        H = G.permuted(perm).relabel({v: f"w{v}" for v in G.vertices})
        m = isomorphic(G, H)
        assert m is not None
        for u in G.vertices:
            for v in G.vertices:
                if u != v:
                    assert G.color(u, v) == H.color(m[u], m[v])


def test_canonical_form():
    rng = random.Random(5)
    C = c5()
    P5 = encode_undirected([(i, i + 1) for i in range(4)], vertices=range(5))
    assert C.canonical_form() != P5.canonical_form()
    assert C.canonical_form() == c5().canonical_form()  # stable across builds
    for _ in range(100):
        F = field_make(*rng.choice([(2, 1), (3, 1), (2, 2)]))
        G = random_colored_graph(rng, F, rng.randrange(1, 8))
        perm = list(G.vertices)
        rng.shuffle(perm)
        assert G.permuted(perm).canonical_form() == G.canonical_form()


def test_canonical_form_larger_graphs_use_refinement():
    rng = random.Random(6)
    for _ in range(10):
        n = 8
        F = field_make(2, 1)
        s = sigma_identity(F)
        G = random_sigma_graph(rng, F, s, n)
        perm = list(G.vertices)
        rng.shuffle(perm)
        assert G.permuted(perm).canonical_form() == G.canonical_form()


def _cycle(n):
    return encode_undirected([(i, (i + 1) % n) for i in range(n)])


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return encode_undirected(outer + inner + spokes)


VERTEX_TRANSITIVE = {
    "C10": lambda: _cycle(10),
    "C12": lambda: _cycle(12),
    "K10": lambda: encode_undirected(list(itertools.combinations(range(10), 2))),
    "Petersen": _petersen,
}


@pytest.mark.parametrize("name", sorted(VERTEX_TRANSITIVE))
def test_canonical_form_vertex_transitive(name):
    """One refinement class at n = 10-12: the form needs the search tree."""
    G = VERTEX_TRANSITIVE[name]()
    rng = random.Random(name)
    for _ in range(5):
        perm = list(G.vertices)
        rng.shuffle(perm)
        H = G.permuted(perm)
        assert H.canonical_form() == G.canonical_form()
        m = isomorphic(G, H)
        assert all(G.color(u, v) == H.color(m[u], m[v])
                   for u in G.vertices for v in G.vertices)


def test_cycle_and_two_pentagons_differ():
    C10 = _cycle(10)
    two_c5 = encode_undirected([(i, (i + 1) % 5) for i in range(5)]
                               + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    assert C10.canonical_form() != two_c5.canonical_form()
    assert isomorphic(C10, two_c5) is None


def _lexmin(G):
    """Oracle: the least matrix over all n! vertex orders, row by row."""
    a = G.adj.tolist()
    return min(tuple(a[u][w] for u in p for w in p)
               for p in itertools.permutations(range(G.n)))


@st.composite
def _graph_triples(draw):
    """A graph, a permutation of it, and a second graph: an independent one,
    a permuted copy, or a permuted copy with one entry changed.  Graphs with
    many automorphisms come from few colors, and from copies of one block
    joined by a single color."""
    F = draw(st.sampled_from([field_make(2, 1), field_make(3, 1),
                              field_make(2, 2)]))
    colors = draw(st.sampled_from([(0, 1), tuple(range(F.q))]))

    def matrix(k):
        return np.array(draw(st.lists(st.sampled_from(colors), min_size=k * k,
                                      max_size=k * k)), dtype=np.uint16).reshape(k, k)

    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        a = matrix(n)
    else:
        k, copies = draw(st.sampled_from([(1, 6), (2, 2), (2, 3), (3, 2)]))
        n = k * copies
        a = np.full((n, n), draw(st.sampled_from(colors)), dtype=np.uint16)
        block = matrix(k)
        for i in range(0, n, k):
            a[i:i + k, i:i + k] = block
    np.fill_diagonal(a, 0)
    G = ColoredGraph(F, range(n), a)
    P = G.permuted(draw(st.permutations(range(n))))
    kind = draw(st.sampled_from(["other", "permuted", "changed"]))
    if kind == "other":
        b = matrix(n)
        np.fill_diagonal(b, 0)
        return G, P, ColoredGraph(F, range(n), b)
    b = P.adj.copy()
    if kind == "changed" and n > 1:
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n)
                                     if i != j]))
        b[i, j] = draw(st.sampled_from(colors))
    return G, P, ColoredGraph(F, [f"w{v}" for v in range(n)], b)


@settings(derandomize=True, deadline=None)
@given(case=_graph_triples())
def test_canonical_form_matches_brute_force(case):
    G, P, H = case
    assert P.canonical_form() == G.canonical_form()
    same = _lexmin(G) == _lexmin(H)
    assert (G.canonical_form() == H.canonical_form()) == same
    m = isomorphic(G, H)
    if not same:
        assert m is None
        return
    assert sorted(m) == list(G.vertices) and sorted(m.values()) == list(H.vertices)
    assert all(G.color(u, v) == H.color(m[u], m[v])
               for u in G.vertices for v in G.vertices)


@st.composite
def _symmetric_sigma_graphs(draw):
    """A sigma-graph on n <= 8 vertices over GF(2), GF(3) with negation or
    GF(4) with conjugation: one block, or copies of one block joined by a
    sigma-fixed color, with the vertices shuffled."""
    F, s = draw(st.sampled_from([(field_make(2, 1), sigma_identity(field_make(2, 1))),
                                 (field_make(3, 1), sigma_negation(field_make(3, 1))),
                                 (field_make(2, 2), sigma_frobenius_conj(field_make(2, 2)))]))
    k, copies = draw(st.sampled_from([(8, 1), (5, 1), (1, 8), (2, 2), (2, 3),
                                      (2, 4), (3, 2), (4, 2)]))
    n = k * copies
    block = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            block[i][j] = draw(st.integers(0, F.q - 1))
            block[j][i] = s(block[i][j])
    join = draw(st.sampled_from([c for c in range(F.q) if s(c) == c]))
    a = [[join if i // k != j // k else block[i % k][j % k] for j in range(n)]
         for i in range(n)]
    perm = draw(st.permutations(range(n)))
    return SigmaGraph(F, range(n), [[a[u][w] for w in perm] for u in perm], s)


@settings(derandomize=True, deadline=None)
@given(G=_symmetric_sigma_graphs(), perm=st.randoms())
def test_canonical_labelling_automorphisms(G, perm):
    """Each automorphism that the labelling returns maps the matrix to
    itself; the canonical order reads the form, and a permuted copy gets the
    same form."""
    n, q, codes = G.n, G.field.q, G.codes
    form, order, autos = _canonical_labelling(q, n, codes)
    assert sorted(order) == list(range(n))
    assert form == (n, q, tuple(codes[u * n + w] for u in order for w in order))
    for g in autos:
        assert sorted(g) == list(range(n))
        assert all(codes[g[u] * n + g[v]] == codes[u * n + v]
                   for u in range(n) for v in range(n))
    P = G.permuted(perm.sample(range(n), n))
    assert _canonical_labelling(q, n, P.codes)[0] == form


def _generated(n, gens) -> set:
    """The permutations of range(n) that gens generate, as tuples."""
    group, stack = {tuple(range(n))}, [tuple(range(n))]
    while stack:
        h = stack.pop()
        for g in gens:
            gh = tuple(g[v] for v in h)
            if gh not in group:
                group.add(gh)
                stack.append(gh)
    return group


def test_canonical_labelling_automorphisms_of_c5():
    """On C5 the automorphisms found generate its dihedral group."""
    _, _, autos = _canonical_labelling(2, 5, c5().codes)
    assert len(_generated(5, autos)) == 10


@st.composite
def _twin_blowups(draw):
    """Codes (q, n, codes) of a graph on n <= 6 vertices with many twins: a
    sigma-symmetric graph over GF(2), GF(3) with negation or GF(4) with
    conjugation, or a plain GF(2) digraph, on k <= 6 vertices, with vertex
    i blown up into a class of twins joined by a color c_i (0 for false
    twins; a sigma-fixed color for true twins), vertices shuffled."""
    F2, F3, F4 = field_make(2, 1), field_make(3, 1), field_make(2, 2)
    q, sig = draw(st.sampled_from([(2, sigma_identity(F2).table),
                                   (3, sigma_negation(F3).table),
                                   (4, sigma_frobenius_conj(F4).table),
                                   (2, None)]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6)
                 .filter(lambda s: sum(s) <= 6))
    k = len(sizes)
    base = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if sig is None and i != j:
                base[i][j] = draw(st.integers(0, 1))
            elif i < j:
                base[i][j] = draw(st.integers(0, q - 1))
                base[j][i] = sig[base[i][j]]
    fixed = [c for c in range(q) if sig is None or sig[c] == c]
    joins = [draw(st.sampled_from(fixed)) for _ in range(k)]
    cls = [i for i, m in enumerate(sizes) for _ in range(m)]
    n = len(cls)
    perm = draw(st.permutations(range(n)))
    cls = [cls[u] for u in perm]
    codes = tuple(0 if u == w else joins[cls[u]] if cls[u] == cls[w]
                  else base[cls[u]][cls[w]] for u in range(n) for w in range(n))
    return q, n, codes


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=_twin_blowups())
# digraphs with two vertices in one cell whose swap is no automorphism: rows
# 1 and 3 agree but columns differ (0 -> 3, 2 -> 1); columns 0 and 3 agree
# off {0, 3} but rows differ, only at entries 1 and 2, between the two
@example(case=(2, 4, (0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)))
@example(case=(2, 4, (0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0)))
def test_labelling_automorphisms_generate_the_group(case):
    """The automorphisms that the labelling returns generate the whole
    automorphism group, by brute force over all n! permutations; the
    closure engine and the extension step prune by their orbits."""
    q, n, codes = case
    _, _, autos = _canonical_labelling(q, n, codes)
    group = {p for p in itertools.permutations(range(n))
             if all(codes[p[u] * n + p[w]] == codes[u * n + w]
                    for u in range(n) for w in range(n))}
    assert _generated(n, autos) == group


def _blown_up_c4():
    """C4 with each vertex blown up into 3 false twins (this is K6,6)."""
    return encode_undirected([((c, a), ((c + 1) % 4, b)) for c in range(4)
                              for a in range(3) for b in range(3)])


TWIN_HEAVY = {
    "K12": (lambda: encode_undirected(list(itertools.combinations(range(12), 2))),
            [range(12)]),
    "star": (lambda: encode_undirected([(0, leaf) for leaf in range(1, 12)]),
             [range(1, 12)]),
    "C4[3]": (_blown_up_c4, [[(c, a) for a in range(3)] for c in range(4)]),
}


@pytest.mark.parametrize("name", sorted(TWIN_HEAVY))
def test_canonical_form_twin_heavy(name):
    """n = 12 graphs made of twins: a permuted copy gets the same form,
    every returned permutation is an automorphism, and each class of twins
    lies in one orbit of the returned automorphisms."""
    make, classes = TWIN_HEAVY[name]
    G = make()
    n, codes = G.n, G.codes
    form, _, autos = _canonical_labelling(2, n, codes)
    rng = random.Random(name)
    for _ in range(3):
        perm = list(G.vertices)
        rng.shuffle(perm)
        assert G.permuted(perm).canonical_form() == form
    for g in autos:
        assert sorted(g) == list(range(n))
        assert all(codes[g[u] * n + g[w]] == codes[u * n + w]
                   for u in range(n) for w in range(n))
    for cls in classes:
        idx = [G.index(v) for v in cls]
        assert set(idx) <= _orbit(idx[:1], autos)


def test_canonical_size_bound():
    G = encode_undirected([(i, (i + 1) % 13) for i in range(13)])
    with pytest.raises(GraphError):
        G.canonical_form()


def test_components():
    G = encode_undirected([(0, 1), (2, 3), (3, 4)], vertices=range(6))
    assert G.components() == [(0, 1), (2, 3, 4), (5,)]
    assert not G.is_connected()
    assert digraph_gf2([(0, 1)], vertices=range(2)).is_connected()


def test_graph_file_roundtrip():
    for G in (c5(), encode_directed([("x", "y"), ("y", "z")]),
              encode_oriented([(0, 1), (1, 2)]),
              digraph_gf2([("a", "b")])):
        H = parse_graph(emit_graph(G))
        assert tuple(map(str, G.vertices)) == H.vertices
        assert np.array_equal(G.adj, H.adj)
        assert isinstance(H, SigmaGraph) == isinstance(G, SigmaGraph)


def test_graph_file_features_and_errors():
    text = """
    # a two-vertex GF(4) graph
    field 2 2
    sigma frob-inv
    vertices x y
    edge x y 2   # overwritten below
    edge x y 1
    edge y x 1
    """
    G = parse_graph(text)
    assert G.adj.tolist() == [[0, 1], [1, 0]]
    with pytest.raises(GraphError):
        parse_graph("vertices a b")
    with pytest.raises(GraphError):
        parse_graph("field 2 1\nvertices a b\nedge a c 1")
    with pytest.raises(GraphError):
        parse_graph("field 2 1\nvertices a b\nedge a a 1")
    with pytest.raises(GraphError):
        # missing back edge of color -1: not sigma-symmetric
        parse_graph("field 3 1\nsigma neg\nvertices a b\nedge a b 1\n")
    # edge codes outside 0..q-1, or not integers, name their line; integers
    # are plain ASCII digits (int() would read the last three as 10, 1, 1)
    for code in ("-1", "2", "65535", "70000", "x", "1_0", "+1", "\u0661"):
        with pytest.raises(GraphError, match="line 3: edge code"):
            parse_graph(f"field 2 1\nvertices a b\nedge a b {code}\nedge b a 1")
    for decl in ("field 2 +1", "field 2 1_0", "field \u0662 1"):
        with pytest.raises(GraphError, match="line 1: bad field declaration"):
            parse_graph(f"{decl}\nvertices a b\n")
    # explicit sesqui-morphism tables too (0 2 1 is negation over GF(3))
    G = parse_graph("field 3 1\nsigma 0 2 1\nvertices a\n")
    assert G.sigma.table == (0, 2, 1)
    for table in ("0 +2 1", "0 2 0_1", "0 \u0662 1"):
        with pytest.raises(FieldError, match="bad sesqui-morphism spec"):
            parse_graph(f"field 3 1\nsigma {table}\nvertices a\n")


def test_emit_dot():
    dot = emit_dot(encode_directed([("x", "y")]))
    assert '"x" -> "y" [label="2"]' in dot
    assert dot.startswith("digraph")


def test_domain_errors_name_the_precondition():
    """Each malformed graph, sigma across fields and malformed graph file
    raises a GraphError naming what is broken."""
    F2, F4 = field_make(2, 1), field_make(2, 2)
    S4 = sigma_frobenius_conj(F4)
    K2 = encode_undirected([(0, 1)])
    rows = [
        (lambda: ColoredGraph(F2, "aa", [0] * 4), GraphError,
         "duplicate vertex labels"),
        (lambda: SigmaGraph(F2, "ab", [0] * 4, S4), GraphError,
         "sesqui-morphism is over a different field"),
        (lambda: is_sigma_symmetric(K2, S4), GraphError,
         "sesqui-morphism is over a different field"),
        (lambda: parse_graph("sigma id\nfield 2 1\nvertices a b\n"), GraphError,
         "line 1: sigma before field"),
        (lambda: parse_graph("field 2 1\nvertices a b\nedge a b\n"), GraphError,
         "line 3: edge needs <u> <v> <code>"),
        (lambda: parse_graph("field 2 1\nvertex a b\n"), GraphError,
         "line 2: unknown declaration 'vertex'"),
        (lambda: parse_graph("field 2 1\n"), GraphError,
         "missing vertices declaration"),
        (lambda: parse_graph("field 2 1\nvertices a b\nedge a b 1\nfield 3 1\n"),
         GraphError, "line 4: repeated field declaration"),
        (lambda: parse_graph("field 2 1\nvertices a b\nvertices c\n"), GraphError,
         "line 3: repeated vertices declaration"),
        (lambda: parse_graph("field 3 1\nsigma id\nsigma neg\nvertices a\n"),
         GraphError, "line 3: repeated sigma declaration"),
    ]
    for call, error, fragment in rows:
        with pytest.raises(error, match=fragment):
            call()
    # graphs of different orders are not isomorphic; that is no error
    assert isomorphic(K2, encode_undirected([(0, 1), (1, 2)])) is None


def test_equality_and_hash_see_sigma_and_the_class():
    """One matrix under two sigmas, or under none, makes three different
    graphs (their sigma-vertex orbits differ: every unit of GF(4) is
    id-compatible, only 1 is frob-inv-compatible); a sigma's name does not
    count."""
    F4 = field_make(2, 2)
    conj = sigma_frobenius_conj(F4)
    under_id = SigmaGraph(F4, "ab", [0, 1, 1, 0], sigma_identity(F4))
    under_conj = SigmaGraph(F4, "ab", [0, 1, 1, 0], conj)
    plain = ColoredGraph(F4, "ab", [0, 1, 1, 0])
    assert under_id != under_conj and under_id != plain and under_conj != plain
    assert len({under_id, under_conj, plain}) == 3
    unnamed = SigmaGraph(F4, "ab", [0, 1, 1, 0], parse_sigma(F4, "0 1 3 2"))
    assert unnamed.sigma.name != conj.name
    assert unnamed == under_conj and hash(unnamed) == hash(under_conj)

"""Complementations, orbits, minors, obstructions, and the bordered-matrix
rank identities."""

import random
from collections import Counter
from dataclasses import asdict
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankw.cutrank import CutFunction
from rankw.fields import (FieldError, field_make, sigma_compatible_set,
                          sigma_frobenius_conj, sigma_identity, sigma_negation)
from rankw.graphs import (GraphError, SigmaGraph, _canonical_labelling,
                          _symmetric, encode_directed, encode_oriented, encode_undirected,
                          is_sigma_symmetric, isomorphic)
from rankw.layouts import birankwidth, rankwidth
from rankw.matrix import MatrixError
from rankw.transform import (MAX_STATES, RELATIONS, MinorSearchResult,
                             ObstructionStats, SearchBudgetError, _closure,
                             _delete, _generate, _minor_successors, _pivot,
                             _successors, const_graph, ec_cycle,
                             equivalence_orbit, equivalence_orbit_graphs,
                             find_obstructions, is_minor, local_complement,
                             obstruction_size_bound, pivot_complement,
                             sigma_symmetric_graphs)

import oracles
from oracles import (np_tables, random_colored_graph, random_sigma_graph,
                     rank_of)

F2, F3, F4 = field_make(2, 1), field_make(3, 1), field_make(2, 2)
S2, S3N, S3I = sigma_identity(F2), sigma_negation(F3), sigma_identity(F3)
S4 = sigma_frobenius_conj(F4)
_CASES = [(F2, S2), (F3, S3N), (F4, S4)]


def test_local_complement_gf2_is_bouchet():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randrange(2, 8)
        G = random_sigma_graph(rng, F2, S2, n)
        x = rng.randrange(n)
        H = local_complement(G, x, 1)
        nb = {j for j in range(n) if G.adj[x, j]}
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                flip = i in nb and j in nb and x not in (i, j)
                assert H.adj[i, j] == (G.adj[i, j] ^ 1 if flip else G.adj[i, j])
        assert local_complement(H, x, 1) == G  # involution in char 2


def test_local_complement_errors():
    G = encode_undirected([(0, 1)])
    with pytest.raises(FieldError):
        local_complement(G, 0, 0)
    with pytest.raises(GraphError):
        local_complement(G, 9, 1)


def test_order_above_256_raises_matrix_error():
    """Fields above order 256 have no tables: every complementation and
    closure search names that precondition."""
    F = field_make(257, 1)
    P = SigmaGraph(F, "abc", [[0, 1, 0], [1, 0, 1], [0, 1, 0]], sigma_identity(F))
    calls = [lambda: local_complement(P, "b", 1),
             lambda: local_complement(P.drop_sigma(), "b", 1),
             lambda: pivot_complement(P, "a", "b"),
             lambda: equivalence_orbit_graphs(P, "sigma-vertex"),
             lambda: equivalence_orbit_graphs(P, "pivot"),
             lambda: is_minor(P.induced_subgraph("ab"), P, "vertex")]
    for call in calls:
        with pytest.raises(MatrixError, match="order > 256"):
            call()


# -- the packed row moves of the closure engine against numpy oracles -----------

def _np_local_complement(G, i, lam):
    """Oracle: the codes of the lambda-local complementation at index i,
    M + lambda M[:, i] M[i, :] on whole numpy arrays, with row and column i
    and the diagonal put back."""
    ADD, _, MUL, _, _ = np_tables(G.field)
    a = G.adj
    new = ADD[a, MUL[lam, MUL[a[:, i][:, None], a[i, :][None, :]]]]
    new[i, :] = a[i, :]
    new[:, i] = a[:, i]
    np.fill_diagonal(new, 0)
    return tuple(new.ravel().tolist())


def _np_pivot(G, i, j):
    """Oracle: the codes of the pivot complementation at the edge ij, by the
    nine-case formula on whole numpy arrays."""
    F = G.field
    _, SUB, MUL, _, _ = np_tables(F)
    a = G.adj
    inv_xy, inv_yx = F.inv(int(a[i, j])), F.inv(int(a[j, i]))
    s1 = G.sigma.one
    # interior: M[z][t] - M[z][x] M[y][t] / M[y][x] - M[z][y] M[x][t] / M[x][y]
    term1 = MUL[inv_yx, MUL[a[:, i][:, None], a[j, :][None, :]]]
    term2 = MUL[inv_xy, MUL[a[:, j][:, None], a[i, :][None, :]]]
    new = SUB[SUB[a, term1], term2]
    # x/y rows and columns
    new[i, :] = MUL[inv_yx, a[j, :]]
    new[j, :] = MUL[F.mul(s1, inv_xy), a[i, :]]
    new[:, i] = MUL[F.mul(s1, inv_xy), a[:, j]]
    new[:, j] = MUL[inv_yx, a[:, i]]
    new[i, j] = F.neg(inv_yx)
    new[j, i] = F.neg(F.mul(F.mul(s1, s1), inv_xy))
    np.fill_diagonal(new, 0)
    return tuple(new.ravel().tolist())


def _oracle_moves(G, sigma, relation):
    """The relation's moves of G as code tuples, by the numpy oracles, in the
    engine's order."""
    n = G.n
    if relation == "pivot":
        return [_np_pivot(G, i, j) for i in range(n) for j in range(n)
                if G.adj[i, j]]
    lams = (sigma_compatible_set(sigma) if relation == "sigma-vertex"
            else list(G.field.units()))
    return [_np_local_complement(G, i, lam) for i in range(n) for lam in lams]


@settings(derandomize=True, deadline=None)
@given(case=st.sampled_from([(F2, S2), (F3, S3I), (F3, S3N), (F4, S4)]),
       relation=st.sampled_from(RELATIONS), n=st.integers(2, 7),
       seed=st.integers(0, 2 ** 32 - 1), density=st.sampled_from([0.3, 0.6, 0.9]))
def test_row_moves_match_graph_moves(case, relation, n, seed, density):
    F, s = case
    G = random_sigma_graph(random.Random(seed), F, s, n, density)
    codes = G.codes
    assert _canonical_labelling(F.q, n, codes)[0] == G.canonical_form()
    moves = _successors(F, relation, s)
    expected = _oracle_moves(G, s, relation)
    made = expected
    if relation == "pivot" and s.one == 1:
        # the pivot at ji equals the one at ij, which alone is made
        edges = [(i, j) for i in range(n) for j in range(n) if G.adj[i, j]]
        at = dict(zip(edges, expected))
        assert all(at[j, i] == at[i, j] for i, j in edges)
        made = [at[i, j] for i, j in edges if i < j]
    # with no automorphisms given, every other move is made
    assert moves(codes, n, ()) == made
    # the single-move functions agree with the oracle too, and return a
    # SigmaGraph exactly when the new matrix is sigma-symmetric
    if relation == "pivot":
        graphs = [pivot_complement(G, u, v) for i, u in enumerate(G.vertices)
                  for j, v in enumerate(G.vertices) if G.adj[i, j]]
    else:
        lams = (sigma_compatible_set(s) if relation == "sigma-vertex"
                else list(F.units()))
        graphs = [local_complement(G, v, lam) for v in G.vertices for lam in lams]
    assert [(K.codes, isinstance(K, SigmaGraph)) for K in graphs] == \
        [(c, _symmetric(n, c, s)) for c in expected]
    for K in graphs:
        assert _canonical_labelling(F.q, n, K.codes)[0] == K.canonical_form()
    if relation == "vertex":
        # the moves from a matrix that lost sigma-symmetry are the oracle's
        for K in graphs:
            if not isinstance(K, SigmaGraph):
                assert moves(K.codes, n, ()) == _oracle_moves(K, s, relation)
    for d in range(n):
        H = G.induced_subgraph([v for v in G.vertices if v != G.vertices[d]])
        assert _delete(codes, n, d) == H.codes


def _triangle_with_pendant(F, s, c):
    """The triangle abc with the pendant vertex d at c, every edge colored c
    one way and sigma(c) back."""
    a = [[0] * 4 for _ in range(4)]
    for i, j in [(0, 1), (1, 2), (2, 0), (2, 3)]:
        a[i][j], a[j][i] = c, s(c)
    return SigmaGraph(F, "abcd", a, s)


@pytest.mark.parametrize("F, s, lam, c", [(F4, S4, 2, 2), (F3, S3N, 1, 1)],
                         ids=["gf4-conj", "gf3-neg"])
def test_move_at_a_pendant_vertex_keeps_the_sigma_graph(F, s, lam, c):
    """A local move at a vertex with one neighbour changes nothing, so even
    a lambda that is not sigma-compatible gives back a SigmaGraph equal to
    the input; at a vertex with two neighbours it breaks the symmetry."""
    assert lam not in sigma_compatible_set(s)
    G = _triangle_with_pendant(F, s, c)
    H = local_complement(G, "d", lam)
    assert isinstance(H, SigmaGraph) and H.sigma is s and H == G
    assert CutFunction(H, "cutrk")({"d"}) == 1
    K = local_complement(G, "c", lam)
    assert not isinstance(K, SigmaGraph) and not is_sigma_symmetric(K, s)


def test_vertex_orbit_members_are_sigma_graphs_exactly_when_symmetric():
    """Under "vertex" a move with a lambda that is not sigma-compatible
    leaves the sigma-symmetric matrices, and later moves may come back to
    one: each orbit member is a SigmaGraph, with a cut-rank function,
    exactly when its matrix is sigma-symmetric, whatever the path to it."""
    F5 = field_make(5, 1)
    rng = random.Random(27)
    members = Counter()
    for F, s in [(F3, S3N), (F5, sigma_negation(F5))]:
        for n in range(2, 6):
            for _ in range(4):
                G = random_sigma_graph(rng, F, s, n, rng.choice([0.4, 0.7]))
                try:
                    orbit = equivalence_orbit_graphs(G, "vertex", max_states=3000)
                except SearchBudgetError:
                    continue
                for K in orbit[1:]:
                    symmetric = is_sigma_symmetric(K, s)
                    assert isinstance(K, SigmaGraph) == symmetric
                    if symmetric:
                        CutFunction(K, "cutrk")
                    members[F.q, symmetric] += 1
    assert min(members.values()) > 0, members


def test_local_complement_gf4_uniform_increment():
    """z <- x -> t with z, t non-adjacent becomes z <-> t: a^2 * a = 1."""
    a = np.zeros((3, 3), dtype=np.uint16)
    a[1, 0], a[0, 1] = 2, 3   # arc x -> z
    a[1, 2], a[2, 1] = 2, 3   # arc x -> t
    G = SigmaGraph(F4, ("z", "x", "t"), a, S4)
    H = local_complement(G, "x", 1)
    assert H.adj[0, 2] == 1 and H.adj[2, 0] == 1


TABLE_UNIFORM = {0: 1, 2: 3, 3: 2, 1: 0}
TABLE_NONUNIFORM = {0: 2, 2: 0, 3: 1, 1: 3}


@pytest.mark.parametrize("centers,mapping", [
    ([(3, 2), (2, 3), (1, 1)], TABLE_UNIFORM),       # z<-x->t, z->x<-t, z<->x<->t
    ([(3, 3), (2, 1), (1, 2)], TABLE_NONUNIFORM),    # z<-x<-t, z->x<->t, z<->x->t
])
def test_directed_table_rows(centers, mapping):
    """The eight rows of the directed one-local-complementation table, on
    GF(4) three-vertex gadgets (codes: 2 = a = arc out, 3 = a^2 = arc in,
    1 = bidirected, 0 = non-adjacent)."""
    for zx, xt in centers:
        for before, after in mapping.items():
            a = np.zeros((3, 3), dtype=np.uint16)
            a[0, 1], a[1, 0] = zx, S4(zx)
            a[1, 2], a[2, 1] = xt, S4(xt)
            a[0, 2], a[2, 0] = before, S4(before)
            G = SigmaGraph(F4, ("z", "x", "t"), a, S4)
            H = local_complement(G, "x", 1)
            assert H.adj[0, 2] == after
            assert H.adj[0, 1] == zx and H.adj[1, 2] == xt  # x row untouched


def test_sigma_symmetry_preservation():
    rng = random.Random(1)
    for _ in range(100):
        F, s = rng.choice([(F2, S2), (F3, S3I), (F4, S4), (F3, S3N)])
        n = rng.randrange(2, 7)
        G = random_sigma_graph(rng, F, s, n, density=0.7)
        for lam in sigma_compatible_set(s):
            H = local_complement(G, rng.randrange(n), lam)
            assert isinstance(H, SigmaGraph) and is_sigma_symmetric(H, s)
        edges = [(i, j) for i in range(n) for j in range(n)
                 if i != j and G.adj[i, j]]
        if edges:
            x, y = rng.choice(edges)
            P = pivot_complement(G, x, y)
            assert is_sigma_symmetric(P, s)


def test_cut_invariance_of_complementations():
    """cutrk preserved by compatible local complementation and by pivot;
    bicutrk preserved by every local complementation."""
    rng = random.Random(2)
    per_field = {id(F2): 0, id(F3): 0, id(F4): 0}
    while min(per_field.values()) < 100:
        F, s = rng.choice([(F2, S2), (F3, S3I), (F4, S4), (F3, S3N)])
        n = rng.randrange(2, 7)
        G = random_sigma_graph(rng, F, s, n, density=0.7)
        full = (1 << n) - 1
        X = rng.randrange(full + 1)
        f = CutFunction(G, "cutrk")
        lams = sigma_compatible_set(s)
        if lams:
            H = local_complement(G, rng.randrange(n), rng.choice(lams))
            assert CutFunction(H, "cutrk")(X) == f(X)
        edges = [(i, j) for i in range(n) for j in range(n)
                 if i != j and G.adj[i, j]]
        if edges:
            P = pivot_complement(G, *rng.choice(edges))
            assert CutFunction(P, "cutrk")(X) == f(X)
        A = random_colored_graph(rng, F, n)
        B = local_complement(A, rng.randrange(n), rng.randrange(1, F.q))
        assert CutFunction(B, "bicutrk")(X) == CutFunction(A, "bicutrk")(X)
        per_field[id(F)] += 1


def test_pivot_examples_gf2():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(2, 8)
        G = random_sigma_graph(rng, F2, S2, n, density=0.6)
        edges = [(i, j) for i in range(n) for j in range(n)
                 if i != j and G.adj[i, j]]
        if not edges:
            continue
        x, y = rng.choice(edges)
        P = pivot_complement(G, x, y)
        Q = local_complement(local_complement(local_complement(G, x, 1), y, 1), x, 1)
        assert np.array_equal(P.adj, Q.adj)                      # G*x*y*x
        assert np.array_equal(pivot_complement(G, y, x).adj, P.adj)
        assert np.array_equal(pivot_complement(P, x, y).adj, G.adj)


_SIGMA_ONE_IS_ONE = (
    [(F, sigma_identity(F)) for F in (F2, F3, F4, field_make(5, 1),
                                      field_make(7, 1), field_make(3, 2))]
    + [(F, sigma_frobenius_conj(F)) for F in (F4, field_make(3, 2))])


@settings(derandomize=True, deadline=None)
@given(case=st.sampled_from(_SIGMA_ONE_IS_ONE), n=st.integers(2, 7),
       seed=st.integers(0, 2 ** 32 - 1), density=st.sampled_from([0.4, 0.8]))
def test_pivot_xy_equals_yx_when_sigma1_is_one(case, n, seed, density):
    """With sigma(1) = 1 the packed pivots at ij and ji agree, on
    sigma-symmetric graphs and on plain matrices alike; with GF(3)
    negation, sigma(1) = -1, they differ."""
    F, s = case
    assert s.one == 1
    rng = random.Random(seed)
    for G in (random_sigma_graph(rng, F, s, n, density),
              random_colored_graph(rng, F, n, density)):
        for i in range(n):
            for j in range(n):
                if G.codes[i * n + j] and G.codes[j * n + i]:
                    assert _pivot(G.codes, n, i, j, F, 1) == \
                        _pivot(G.codes, n, j, i, F, 1)
    path = SigmaGraph(F3, range(3), [[0, 1, 0], [2, 0, 1], [0, 2, 0]], S3N).codes
    assert _pivot(path, 3, 0, 1, F3, S3N.one) != _pivot(path, 3, 1, 0, F3, S3N.one)


def test_pivot_needs_edge():
    G = encode_undirected([(0, 1)], vertices=range(3))
    with pytest.raises(GraphError):
        pivot_complement(G, 0, 2)


def test_bordered_rank_identity_local():
    """cutrk of (G*x) minus x equals the bordered rank minus one, with
    corner -1/lambda (the -1 form only for lambda = 1)."""
    rng = random.Random(5)
    for _ in range(100):
        F, s = rng.choice([(F2, S2), (F3, S3I), (F4, S4)])
        lams = sigma_compatible_set(s)
        n = rng.randrange(2, 7)
        G = random_sigma_graph(rng, F, s, n, density=0.7)
        lam = rng.choice(lams)
        x = rng.randrange(n)
        rest = [v for v in range(n) if v != x]
        H = local_complement(G, x, lam).induced_subgraph(rest)
        fH = CutFunction(H, "cutrk")
        a = G.adj
        Xm = rng.randrange(1 << (n - 1))
        X = [rest[i] for i in range(n - 1) if Xm >> i & 1]
        Y = [v for v in rest if v not in X]
        B = np.zeros((len(X) + 1, len(Y) + 1), dtype=np.uint16)
        B[0, 0] = F.neg(F.inv(lam))
        B[0, 1:] = a[x, Y]
        B[1:, 0] = a[X, x]
        B[1:, 1:] = a[np.ix_(X, Y)]
        assert fH(set(X)) == rank_of(B, F) - 1


def test_bordered_rank_identity_pivot():
    """cutrk of (G ^ xy) minus x equals the 0-corner bordered rank minus one."""
    rng = random.Random(6)
    done = 0
    while done < 100:
        F, s = rng.choice(_CASES)
        n = rng.randrange(2, 7)
        G = random_sigma_graph(rng, F, s, n, density=0.7)
        edges = [(i, j) for i in range(n) for j in range(n)
                 if i != j and G.adj[i, j]]
        if not edges:
            continue
        x, y = rng.choice(edges)
        rest = [v for v in range(n) if v != x]
        P = pivot_complement(G, x, y).induced_subgraph(rest)
        fP = CutFunction(P, "cutrk")
        a = G.adj
        Xm = rng.randrange(1 << (n - 1))
        X = [rest[i] for i in range(n - 1) if Xm >> i & 1]
        Y = [v for v in rest if v not in X]
        B = np.zeros((len(X) + 1, len(Y) + 1), dtype=np.uint16)
        B[0, 1:] = a[x, Y]
        B[1:, 0] = a[X, x]
        B[1:, 1:] = a[np.ix_(X, Y)]
        assert fP(set(X)) == rank_of(B, F) - 1
        done += 1


def test_orbit_examples():
    G = random_sigma_graph(random.Random(7), F3, S3N, 4)
    assert equivalence_orbit(G, "sigma-vertex") == {G.canonical_form()}
    K2 = encode_undirected([(0, 1)])
    assert equivalence_orbit(K2, "sigma-vertex") == {K2.canonical_form()}
    for m in (6, 8):
        E = ec_cycle(m)
        orbit = equivalence_orbit_graphs(E, "vertex")
        assert all(isomorphic(E, H) is not None for H in orbit)


def test_orbits_of_vertex_transitive_graphs():
    """Orbits that reach graphs with one refinement class at n = 10."""
    C10 = encode_undirected([(i, (i + 1) % 10) for i in range(10)])
    assert len(equivalence_orbit_graphs(C10, "sigma-vertex")) == 1206
    star = encode_undirected([(0, i) for i in range(1, 10)])
    orbit = equivalence_orbit_graphs(star, "sigma-vertex")
    assert len(orbit) == 2          # the star and K10
    assert sorted(int(H.adj.sum()) for H in orbit) == [18, 90]


def test_orbit_width_invariance():
    rng = random.Random(8)
    for _ in range(8):
        G = random_sigma_graph(rng, F4, S4, rng.randrange(2, 5))
        w = rankwidth(G).width
        for H in equivalence_orbit_graphs(G, "sigma-vertex"):
            assert rankwidth(H).width == w
        for H in equivalence_orbit_graphs(G, "pivot"):
            assert rankwidth(H).width == w


def test_is_minor_examples():
    C6 = encode_undirected([(i, (i + 1) % 6) for i in range(6)])
    C5 = encode_undirected([(i, (i + 1) % 5) for i in range(5)])
    assert is_minor(C5, C5, "sigma-vertex").found
    P3 = encode_undirected([(0, 1), (1, 2)])
    assert is_minor(P3, C5, "sigma-vertex").found  # plain induced subgraph
    r = is_minor(C5, C6, "sigma-vertex")
    assert r.found and r.complete
    # width monotonicity makes K4 impossible inside C6 (widths 1 vs 2 are
    # fine; a P5 with an extra color is impossible by field)
    K4 = encode_undirected([(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert is_minor(K4, C6, "pivot").complete in (True, False)


def test_is_minor_budget():
    C6 = encode_undirected([(i, (i + 1) % 6) for i in range(6)])
    target = encode_undirected([(0, 1), (2, 3)], vertices=range(4))
    r = is_minor(target, C6, "sigma-vertex", max_states=3)
    assert not r.complete or r.found


def _top(F, relation):
    """The largest n whose searches stay small: orbits under "vertex" over
    GF(3) and GF(4) grow too fast above n = 4."""
    return 4 if relation == "vertex" and F.q > 2 else 8 if F.q == 2 else 6


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=st.sampled_from(_CASES), relation=st.sampled_from(RELATIONS),
       n=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1),
       planted=st.booleans(), budget=st.integers(1, 40))
def test_is_minor_budget_bounds_the_states(case, relation, n, seed, planted,
                                           budget):
    """A search may reach max_states forms, the start included, and one more
    ends it: states <= max_states + 1, a negative is complete exactly when
    states <= max_states, and a found or complete answer is the one of the
    default budget."""
    F, s = case
    rng = random.Random(seed)
    G = random_sigma_graph(rng, F, s, min(n, _top(F, relation)),
                           rng.choice([0.4, 0.7]))
    m = rng.randint(1, G.n)
    if planted:
        orbit = equivalence_orbit_graphs(G, relation)
        K = orbit[rng.randrange(len(orbit))]
        H = K.induced_subgraph(rng.sample(K.vertices, m))
    else:
        H = random_sigma_graph(rng, F, s, m, 0.6)
    full = is_minor(H, G, relation)
    r = is_minor(H, G, relation, budget)
    assert r.states <= budget + 1
    if not r.found:
        assert r.complete == (r.states <= budget)
    if r.found or r.complete:
        assert r == full
    else:
        assert full.states > budget


def test_budget_boundaries():
    """A complete negative that reaches s forms is complete at max_states = s
    and cut off with s states at s - 1; an orbit of s forms is returned at
    max_states = s and raises at s - 1."""
    rng = random.Random(7)
    checked = Counter()
    while min(checked[case, relation] for case in range(3)
              for relation in RELATIONS) < 2:
        case = rng.randrange(3)
        F, s = _CASES[case]
        relation = rng.choice(RELATIONS)
        n = rng.randint(3, min(6, _top(F, relation)))
        G = random_sigma_graph(rng, F, s, n, 0.4)
        H = random_sigma_graph(rng, F, s, rng.randint(2, G.n), 0.6)
        full = is_minor(H, G, relation)
        if full.found or full.states < 2:
            continue
        assert full.complete
        b = full.states
        assert is_minor(H, G, relation, b) == full
        assert is_minor(H, G, relation, b - 1) == MinorSearchResult(False, False, b)
        orbit = [K.codes for K in equivalence_orbit_graphs(G, relation)]
        if len(orbit) >= 2:
            assert [K.codes for K in equivalence_orbit_graphs(
                G, relation, len(orbit))] == orbit
            with pytest.raises(SearchBudgetError):
                equivalence_orbit_graphs(G, relation, len(orbit) - 1)
        checked[case, relation] += 1


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=st.sampled_from(_CASES),
       relation=st.sampled_from(["sigma-vertex", "vertex", "pivot"]),
       n=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1), planted=st.booleans())
def test_is_minor_matches_orbit_subgraph_oracle(case, relation, n, seed, planted):
    """H is a minor of G exactly when some induced subgraph of some member of
    G's orbit is isomorphic to H.  A planted H is an induced subgraph of G
    after a few random moves, so that both answers occur.  Under "vertex" a
    move with an incompatible lambda leaves the sigma-symmetric graphs, and
    its orbits grow fast (12096 members at n = 6 over GF(3)), so n <= 4."""
    F, s = case
    if relation == "vertex":
        n = min(n, 4)
    rng = random.Random(seed)
    G = random_sigma_graph(rng, F, s, n, density=0.6)
    m = rng.randint(1, n)
    if planted:
        K = G
        lams = (sigma_compatible_set(s) if relation == "sigma-vertex"
                else list(F.units()))
        for _ in range(rng.randrange(4)):
            edges = [(u, v) for u in K.vertices for v in K.vertices if K.color(u, v)]
            if relation == "pivot" and edges:
                K = pivot_complement(K, *rng.choice(edges))
            elif relation != "pivot" and lams:
                K = local_complement(K, rng.choice(K.vertices), rng.choice(lams))
        H = K.induced_subgraph(rng.sample(K.vertices, m))
    else:
        H = random_sigma_graph(rng, F, s, m, density=0.6)
    expected = any(isomorphic(K.induced_subgraph(X), H) is not None
                   for K in equivalence_orbit_graphs(G, relation)
                   for X in combinations(K.vertices, m))
    res = is_minor(H, G, relation)
    assert res.complete
    assert res.found == expected


def test_minor_width_monotonicity():
    """Vertex-/pivot-minors never increase the matching width."""
    rng = random.Random(9)
    pairs = 0
    while pairs < 100:
        F, s = rng.choice([(F2, S2), (F4, S4), (F3, S3N)])
        n = rng.randrange(3, 6)
        G = random_sigma_graph(rng, F, s, n, density=0.6)
        H = G
        lams = sigma_compatible_set(s)
        for _ in range(rng.randrange(1, 4)):
            if lams and rng.random() < 0.7:
                H = local_complement(H, rng.choice(H.vertices), rng.choice(lams))
            else:
                edges = [(i, j) for i in H.vertices for j in H.vertices
                         if i != j and H.color(i, j)]
                if edges:
                    H = pivot_complement(H, *rng.choice(edges))
        keep = [v for v in H.vertices if rng.random() < 0.75]
        if not keep:
            continue
        H = H.induced_subgraph(keep)
        assert rankwidth(H).width <= rankwidth(G).width
        pairs += 1
    # all-lambda vertex-minors respect bi-rank-width
    pairs = 0
    while pairs < 60:
        F = rng.choice([F2, F3, F4])
        G = random_colored_graph(rng, F, rng.randrange(3, 6))
        H = G
        for _ in range(rng.randrange(1, 4)):
            H = local_complement(H, rng.choice(H.vertices),
                                 rng.randrange(1, F.q))
        keep = [v for v in H.vertices if rng.random() < 0.75]
        if not keep:
            continue
        H = H.induced_subgraph(keep)
        assert birankwidth(H).width <= birankwidth(G).width
        pairs += 1


def test_generation_counts_gf2():
    # unlabeled-graph counts 1, 1, 2, 4, 11, 34 on 0..5 vertices
    for n, expect in [(0, 1), (1, 1), (2, 2), (3, 4), (4, 11), (5, 34)]:
        assert len(sigma_symmetric_graphs(F2, S2, n)) == expect
    assert [G.n for G in sigma_symmetric_graphs(F2, S2, 0)] == [0]
    conn = [G for G in sigma_symmetric_graphs(F2, S2, 4) if G.is_connected()]
    assert len(conn) == 6  # connected graphs on 4 vertices


@pytest.mark.parametrize("F, s, n", [(F2, S2, 6), (F3, S3N, 5), (F4, S4, 4)],
                         ids=["gf2", "gf3-neg", "gf4-conj"])
def test_generation_matches_unpruned_oracle(F, s, n):
    """Labelling one extension column per orbit of the base's automorphisms
    keeps every level, its representatives and their order."""
    assert [[codes for codes, _ in level] for level in _generate(F, s, n)] == \
        list(oracles.generate_levels(F, s, n))


def _copies_graph(rng, F, s, m, copies):
    """`copies` disjoint copies of one random sigma-graph on m vertices, with
    the vertices shuffled: a graph with automorphisms for copies > 1."""
    B = random_sigma_graph(rng, F, s, m, rng.choice([0.4, 0.7]))
    n = m * copies
    perm = rng.sample(range(n), n)
    a = [[0] * n for _ in range(n)]
    for c in range(copies):
        for i in range(m):
            for j in range(m):
                a[perm[c * m + i]][perm[c * m + j]] = B.codes[i * m + j]
    return SigmaGraph(F, range(n), a, s)


def _or_budget(search):
    try:
        return search()
    except SearchBudgetError:
        return "budget"


def _assert_closures_match_oracles(G, relation, H, budget):
    """The orbit of G, and the searches for H in G, with and without a state
    budget, are those of the unpruned oracles: members and their order,
    every `is_minor` result, and each state of the search behind it."""
    F, s = G.field, G.sigma
    assert [(K.codes, isinstance(K, SigmaGraph))
            for K in equivalence_orbit_graphs(G, relation)] == \
        oracles.orbit_states(G, relation)
    assert _or_budget(lambda: [K.codes for K in equivalence_orbit_graphs(
        G, relation, budget)]) == \
        _or_budget(lambda: [c for c, _ in oracles.orbit_states(G, relation, budget)])
    for max_states in (MAX_STATES, budget):
        r = is_minor(H, G, relation, max_states)
        assert (r.found, r.complete, r.states) == \
            oracles.minor_search(H, G, relation, max_states)
    # the whole search behind is_minor, past the point where H is found
    succ = _minor_successors(F, relation, s, G.n, H.n)
    assert [c for c, _ in _closure(F.q, G.codes, G._labelling(), succ)] == \
        [c for c, _ in oracles.closure(F.q, G.codes, lambda c, k: succ(c, k, ()))]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(case=st.sampled_from(_CASES),
       relation=st.sampled_from(RELATIONS), n=st.integers(1, 8),
       copies=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       planted=st.booleans(), budget=st.integers(2, 40))
def test_pruned_closure_matches_unpruned_oracle(case, relation, n, copies,
                                                 seed, planted, budget):
    """One move or deletion per automorphism orbit changes no result of the
    closure searches, on random graphs made of equal components."""
    F, s = case
    rng = random.Random(seed)
    G = _copies_graph(rng, F, s, max(1, min(n, _top(F, relation)) // copies),
                      copies)
    m = rng.randint(1, G.n)
    if planted:
        orbit = equivalence_orbit_graphs(G, relation)
        K = orbit[rng.randrange(len(orbit))]
        H = K.induced_subgraph(rng.sample(K.vertices, m))
    else:
        H = random_sigma_graph(rng, F, s, m, 0.6)
    _assert_closures_match_oracles(G, relation, H, budget)


def _cycle(n, offset=0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


SYMMETRIC = {
    "gf2-c5": encode_undirected(_cycle(5)),
    "gf2-c6": encode_undirected(_cycle(6)),
    "gf2-2c4": encode_undirected(_cycle(4) + _cycle(4, 4)),
    "gf2-star": encode_undirected([(0, i) for i in range(1, 6)]),
    "gf3-c4": encode_oriented(_cycle(4)),
    "gf3-c5": encode_oriented(_cycle(5)),
    "gf4-c4": encode_directed(_cycle(4)),
    "gf4-c5": encode_directed(_cycle(5)),
}


# vertex orbits over GF(3) and GF(4) grow too fast above n = 4
@pytest.mark.parametrize("name, relation", [
    (name, relation) for name, G in SYMMETRIC.items() for relation in RELATIONS
    if relation != "vertex" or G.field.q == 2 or G.n <= 4])
def test_pruned_closure_matches_unpruned_oracle_on_cycles(name, relation):
    """The same on cycles, two disjoint cycles and a star, whose automorphism
    groups are large."""
    G = SYMMETRIC[name]
    for H in (G.induced_subgraph(G.vertices[:G.n - 2]),
              G.induced_subgraph(G.vertices[1:3])):
        _assert_closures_match_oracles(G, relation, H, 6)


def test_ec_cycles():
    E4 = ec_cycle(4)
    outdeg = (E4.adj != 0).sum(axis=1)
    indeg = (E4.adj != 0).sum(axis=0)
    assert sorted(outdeg) == [0, 0, 2, 2] and sorted(indeg) == [0, 0, 2, 2]
    E6 = ec_cycle(6)
    und = (E6.adj != 0) | (E6.adj != 0).T
    assert (und.sum(axis=0) == 2).all()  # a cycle
    with pytest.raises(GraphError):
        ec_cycle(5)
    for m in (4, 6, 8):
        E = ec_cycle(m)
        for x in E.vertices:
            assert isomorphic(E, local_complement(E, x, 1)) is not None


def test_obstruction_size_bound():
    assert [obstruction_size_bound(k) for k in range(3)] == [1, 7, 43]


def test_obstructions_k0():
    for F, s in _CASES:
        obs = find_obstructions(F, s, "pivot", 0, 3)
        expected = {const_graph(F, s, a).canonical_form() for a in F.units()}
        assert {o.graph.canonical_form() for o in obs} == expected
        obs_v = find_obstructions(F, s, "sigma-vertex", 0, 3)
        assert {o.graph.canonical_form() for o in obs_v} == expected


def test_width1_obstructions_gf2():
    """The width-1 searches recover the classical families: C5's
    local-equivalence class {C5, house, gem} for vertex-minors, joined by
    C6's pivot class for pivot-minors (C5 is a vertex-minor of C6 but not a
    pivot-minor)."""
    C5 = encode_undirected([(i, (i + 1) % 5) for i in range(5)])
    C6 = encode_undirected([(i, (i + 1) % 6) for i in range(6)])
    house = encode_undirected([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)])
    gem = encode_undirected([(0, 1), (1, 2), (2, 3),
                             (0, 4), (1, 4), (2, 4), (3, 4)])
    assert equivalence_orbit(C5, "sigma-vertex") == \
        {C5.canonical_form(), house.canonical_form(), gem.canonical_form()}
    obs_v = find_obstructions(F2, S2, "sigma-vertex", 1, 6)
    assert {o.graph.canonical_form() for o in obs_v} == \
        {C5.canonical_form(), house.canonical_form(), gem.canonical_form()}
    assert is_minor(C5, C6, "sigma-vertex").found
    r = is_minor(C5, C6, "pivot")
    assert not r.found and r.complete
    obs_p = find_obstructions(F2, S2, "pivot", 1, 6)
    canon_p = {o.graph.canonical_form() for o in obs_p}
    assert {o.graph.canonical_form() for o in obs_v} <= canon_p
    assert C6.canonical_form() in canon_p
    assert canon_p - {o.graph.canonical_form() for o in obs_v} == \
        equivalence_orbit(C6, "pivot")


def test_width1_obstructions_at_the_size_bound():
    """Up to the paper's bound (6^2-1)/5 = 7 vertices the width-1
    obstructions are still C5's local-equivalence class (vertex-minors) and
    the pivot classes of C5 and C6 (pivot-minors)."""
    C5 = encode_undirected([(i, (i + 1) % 5) for i in range(5)])
    C6 = encode_undirected([(i, (i + 1) % 6) for i in range(6)])
    bound = obstruction_size_bound(1)
    assert bound == 7
    obs_v = find_obstructions(F2, S2, "sigma-vertex", 1, bound)
    assert len(obs_v) == 3
    assert {o.graph.canonical_form() for o in obs_v} == \
        {H.canonical_form() for H in equivalence_orbit_graphs(C5, "sigma-vertex")}
    obs_p = find_obstructions(F2, S2, "pivot", 1, bound)
    assert len(obs_p) == 5
    assert {o.graph.canonical_form() for o in obs_p} == \
        {H.canonical_form() for G in (C5, C6)
         for H in equivalence_orbit_graphs(G, "pivot")}


OBSTRUCTION_CASES = {
    **{f"gf2-{r}": (F2, S2, r, 6) for r in RELATIONS},
    **{f"gf3-neg-{r}": (F3, S3N, r, 5) for r in ("sigma-vertex", "pivot")},
    "gf3-id-vertex": (F3, S3I, "vertex", 4),
    **{f"gf4-conj-{r}": (F4, S4, r, 4) for r in ("sigma-vertex", "pivot")},
}


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("name", OBSTRUCTION_CASES)
def test_obstructions_match_full_generation_oracle(name, k):
    """Growing only the connected width-<=k class finds the obstructions
    that labelling every graph finds, in the same order; each is its
    canonical matrix."""
    F, s, relation, max_n = OBSTRUCTION_CASES[name]
    obs = find_obstructions(F, s, relation, k, max_n)
    expected = oracles.find_obstructions(F, s, relation, k, max_n)
    assert [(o.graph.n, F.q, o.graph.codes) for o in obs] == \
        [o.graph.canonical_form() for o in expected]
    assert all(o.relation == relation and o.k == k for o in obs)


def test_obstruction_counters():
    """The counters of each level repeat exactly, and they nest: the class
    and the width decisions lie among the distinct connected graphs, which
    lie among the extensions labelled, and each obstruction is a candidate,
    which an orbit search or a verdict reused settles."""
    for F, s, relation, max_n in [(F2, S2, "pivot", 6), (F3, S3N, "pivot", 5),
                                  (F4, S4, "sigma-vertex", 4)]:
        a, b = ObstructionStats(), ObstructionStats()
        obs = find_obstructions(F, s, relation, 1, max_n, stats=a)
        find_obstructions(F, s, relation, 1, max_n, stats=b)
        assert a == b
        levels = list(range(2, max_n + 1))
        assert all(list(counts) == levels for counts in asdict(a).values())
        sizes = Counter(o.graph.n for o in obs)
        for n in levels:
            assert a.class_size[n] <= a.width_decisions[n] <= \
                a.connected_graphs[n] <= a.extensions_labelled[n]
            assert a.candidates[n] == a.orbit_searches[n] + a.verdicts_reused[n]
            assert a.candidates[n] >= sizes[n]
        assert a.class_size[2] == a.connected_graphs[2]  # an edge has width 1


def test_width1_obstructions_gf3_pivot():
    """Over GF(3) with negation, under pivots, width 1 has 7 obstructions on
    4 vertices and 36 on 5; the class of connected graphs of width <= 1 has
    27 and 216 members there."""
    stats = ObstructionStats()
    obs = find_obstructions(F3, S3N, "pivot", 1, 5, stats=stats)
    assert len(obs) == 43
    assert Counter(o.graph.n for o in obs) == {4: 7, 5: 36}
    assert stats.class_size == {2: 1, 3: 5, 4: 27, 5: 216}
    assert all(rankwidth(o.graph).width == 2 for o in obs)


def test_vertex_obstructions_need_compatible_units():
    """Under the vertex relation every unit must be sigma-compatible, or a
    move would leave the sigma-symmetric graphs that cut-rank is defined on."""
    for F, s in [(F3, S3N), (F4, S4)]:
        with pytest.raises(GraphError, match="sigma-compatible.*sigma-vertex"):
            find_obstructions(F, s, "vertex", 1, 4)
    assert len(find_obstructions(F3, S3I, "vertex", 1, 4)) == 6


def test_const_graph_iso_classes():
    # const_a and const_{sigma(a)} are isomorphic by swapping the vertices
    assert isomorphic(const_graph(F4, S4, 2), const_graph(F4, S4, 3)) is not None
    assert isomorphic(const_graph(F4, S4, 1), const_graph(F4, S4, 2)) is None


def test_domain_errors_name_the_precondition():
    """Each call that breaks a precondition of a complementation, closure
    search, generation or obstruction search raises an error naming it."""
    K2 = encode_undirected([(0, 1)])
    plain = K2.drop_sigma()
    big = encode_undirected([(i, i + 1) for i in range(10)])   # 11 vertices
    rows = [
        (lambda: pivot_complement(plain, 0, 1), GraphError,
         "pivot complementation needs a sigma-symmetric graph"),
        (lambda: equivalence_orbit_graphs(plain, "pivot"), GraphError,
         "pivot relation needs sigma-symmetric graphs"),
        (lambda: equivalence_orbit_graphs(plain, "sigma-vertex"), GraphError,
         "sigma-vertex relation needs sigma-symmetric graphs"),
        (lambda: equivalence_orbit_graphs(K2, "edge"), ValueError,
         "unknown relation 'edge'"),
        (lambda: equivalence_orbit_graphs(big, "pivot"), GraphError,
         "orbit search limited to n <= 10"),
        (lambda: is_minor(K2, encode_directed([(0, 1)]), "pivot"), GraphError,
         "graphs live over different fields"),
        (lambda: is_minor(K2, big, "pivot"), GraphError,
         "minor search limited to n <= 10"),
        (lambda: sigma_symmetric_graphs(F2, S4, 3), GraphError,
         "sesqui-morphism is over a different field"),
        (lambda: sigma_symmetric_graphs(F2, S2, -1), GraphError,
         r"graph size n = -1 must be >= 0"),
        (lambda: find_obstructions(F2, S2, "edge", 1, 3), ValueError,
         "unknown relation 'edge'"),
        (lambda: find_obstructions(F2, S2, "pivot", 1, 9), GraphError,
         "obstruction search limited to max_n <= 8"),
        (lambda: find_obstructions(F2, S4, "pivot", 1, 3), GraphError,
         "sesqui-morphism is over a different field"),
        (lambda: find_obstructions(F2, S2, "pivot", -1, 3), GraphError,
         r"width bound k = -1 must be >= 0"),
        (lambda: find_obstructions(F2, S2, "pivot", 1, -3), GraphError,
         r"obstruction size bound max_n = -3 must be >= 0"),
        (lambda: const_graph(F2, S2, 0), FieldError,
         "const graphs need a nonzero color"),
    ]
    for call, error, fragment in rows:
        with pytest.raises(error, match=fragment):
            call()
    # no graph on at most one vertex is wide
    assert find_obstructions(F2, S2, "pivot", 0, 0) == \
        find_obstructions(F2, S2, "pivot", 0, 1) == []
    # a minor with more vertices than the graph is a complete negative
    assert is_minor(big.induced_subgraph(range(3)), K2, "pivot") == \
        MinorSearchResult(False, True, 0)

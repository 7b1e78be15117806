"""Cut-rank, bi-cut-rank, and the partitioned-matroid connectivity bridge."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankw.cutrank import CutFunction, bicutrk, cutrk, matroid_lambda
from rankw.fields import (field_extend_quadratic, field_make,
                          sigma_frobenius_conj, sigma_identity, sigma_negation)
from rankw.graphs import (ColoredGraph, GraphError, digraph_gf2,
                          encode_undirected, tilde)
from rankw.matrix import MatrixError

from oracles import (cut_block_ranks, random_colored_graph, random_sigma_graph,
                     rank_of)


def test_cutrk_examples():
    K5 = encode_undirected([(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert cutrk(K5, []) == 0
    assert cutrk(K5, range(5)) == 0
    for X in ([0], [0, 1], [2, 4], [0, 1, 2, 3]):
        assert cutrk(K5, X) == 1
    C5 = encode_undirected([(i, (i + 1) % 5) for i in range(5)])
    # independent read-off: rows {0,1} against columns {2,3,4} of the cycle
    block = C5.adj[np.ix_([0, 1], [2, 3, 4])]
    assert block.tolist() == [[0, 0, 1], [1, 0, 0]]
    assert cutrk(C5, [0, 1]) == 2 == rank_of(block, C5.field)


def test_cutrk_requires_sigma_symmetry():
    arc = digraph_gf2([("x", "y")])
    with pytest.raises(GraphError):
        CutFunction(arc, "cutrk")
    with pytest.raises(GraphError):
        CutFunction(encode_undirected([(0, 1)]), "cutrk")([9])


def test_bicutrk_examples():
    arc = digraph_gf2([("x", "y")])
    assert bicutrk(arc, ["x"]) == 1
    assert bicutrk(arc, []) == 0
    rng = random.Random(0)
    F4 = field_make(2, 2)
    s4 = sigma_frobenius_conj(F4)
    for _ in range(30):
        G = random_sigma_graph(rng, F4, s4, rng.randrange(1, 7))
        X = [v for v in G.vertices if rng.random() < 0.5]
        assert bicutrk(G, X) == 2 * cutrk(G, X)


def test_matroid_lambda_examples():
    arc = digraph_gf2([("x", "y")])
    assert matroid_lambda(arc, []) == 1
    K3 = encode_undirected([(0, 1), (1, 2), (0, 2)])
    assert matroid_lambda(K3, [0]) == 3  # 2 * cutrk + 1
    rng = random.Random(1)
    F3 = field_make(3, 1)
    for _ in range(60):
        G = random_colored_graph(rng, F3, rng.randrange(1, 7))
        X = [v for v in G.vertices if rng.random() < 0.5]
        assert matroid_lambda(G, X) == bicutrk(G, X) + 1


def test_symmetry_and_submodularity_batteries():
    rng = random.Random(2)
    F3, F4 = field_make(3, 1), field_make(2, 2)
    cases = [(F3, sigma_negation(F3)), (F4, sigma_frobenius_conj(F4))]
    for _ in range(40):
        F, s = rng.choice(cases)
        n = rng.randrange(1, 7)
        G = random_sigma_graph(rng, F, s, n)
        f = CutFunction(G, "cutrk")
        full = (1 << n) - 1
        vals = [f(m) for m in range(full + 1)]
        assert vals[0] == 0 and vals[full] == 0
        for X in range(full + 1):
            assert vals[X] == vals[full ^ X]
            for Y in range(full + 1):
                assert vals[X | Y] + vals[X & Y] <= vals[X] + vals[Y]
    for _ in range(40):
        F = rng.choice([F3, F4, field_make(2, 1)])
        n = rng.randrange(1, 7)
        G = random_colored_graph(rng, F, n)
        fb = CutFunction(G, "bicutrk")
        full = (1 << n) - 1
        for X in range(full + 1):
            assert fb(X) == fb(full ^ X)
            for Y in range(full + 1):
                assert fb(X | Y) + fb(X & Y) <= fb(X) + fb(Y)


def test_tilde_cut_sandwich():
    """cutrk(~G, X) <= bicutrk(G, X) <= 4 cutrk(~G, X) on every cut."""
    rng = random.Random(3)
    for _ in range(40):
        F = field_make(*rng.choice([(2, 1), (3, 1)]))
        n = rng.randrange(1, 7)
        G = random_colored_graph(rng, F, n)
        T = tilde(G)
        ft, fb = CutFunction(T, "cutrk"), CutFunction(G, "bicutrk")
        for X in range(1 << n):
            t, b = ft(X), fb(X)
            assert t <= b <= 4 * t


def test_memoization_and_errors():
    C5 = encode_undirected([(i, (i + 1) % 5) for i in range(5)])
    f = CutFunction(C5, "cutrk")
    assert f([0, 1]) == 2
    assert f({0, 1}) == 2 and f(0b00011) == 2
    assert len(f.memo) == 1  # X and its complement share one entry
    assert f([2, 3, 4]) == 2
    assert len(f.memo) == 1
    with pytest.raises(GraphError):
        f(["nope"])
    with pytest.raises(ValueError):
        CutFunction(C5, "weird")


def test_numpy_integer_masks():
    C5 = encode_undirected([(i, (i + 1) % 5) for i in range(5)])
    f = CutFunction(C5, "cutrk")
    assert f(np.int64(3)) == 2 == f(np.uint8(0b11100))
    assert [type(k) for k in f.memo] == [int]
    with pytest.raises(GraphError):
        f(np.int64(32))


def test_order_above_256_raises_matrix_error():
    F = field_make(257, 1)
    G = ColoredGraph(F, range(3), [[0, 1, 256], [2, 0, 0], [0, 0, 0]])
    f = CutFunction(G, "bicutrk")
    assert f([]) == 0
    for X in ([0], 0b10):
        with pytest.raises(MatrixError, match="order > 256"):
            f(X)


# -- the cut kernels against numpy rank_of, on every cut --------------------------

def _assert_cuts_match_oracle(G, kinds):
    fs = [CutFunction(G, kind) for kind in kinds]
    fl = CutFunction(G, "lambda")
    for X in range(1 << G.n):
        out, back = cut_block_ranks(G, X)
        for kind, f in zip(kinds, fs):
            assert f(X) == (out if kind == "cutrk" else out + back), (kind, X)
        assert fl(X) == out + back + 1, X


# one field per kernel: GF(2) XOR, GF(3) planes, GF(2^k) planes (GF(4), GF(8)
# and the tower GF(16) over GF(4)), and the _list_rank fallback (GF(5), GF(9))
_F2, _F3, _F4 = field_make(2, 1), field_make(3, 1), field_make(2, 2)
_F5, _F8, _F9 = field_make(5, 1), field_make(2, 3), field_make(3, 2)
_F16 = field_extend_quadratic(_F4).ext
_SIGMA_CASES = [(_F2, sigma_identity(_F2)), (_F3, sigma_identity(_F3)),
                (_F3, sigma_negation(_F3)), (_F4, sigma_frobenius_conj(_F4)),
                (_F8, sigma_identity(_F8)), (_F9, sigma_frobenius_conj(_F9)),
                (_F5, sigma_negation(_F5))]


@settings(derandomize=True, deadline=None)
@given(case=st.sampled_from(_SIGMA_CASES), n=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1), density=st.sampled_from([0.3, 0.5, 0.8]))
def test_sigma_cut_kernels_match_rank_of(case, n, seed, density):
    F, sigma = case
    G = random_sigma_graph(random.Random(seed), F, sigma, n, density)
    _assert_cuts_match_oracle(G, ("cutrk", "bicutrk"))


@st.composite
def _colored_graphs(draw):
    F = draw(st.sampled_from([_F2, _F3, _F4, _F8, _F9, _F16]))
    n = draw(st.integers(1, 8))
    entries = draw(st.lists(st.integers(0, F.q - 1), min_size=n * n, max_size=n * n))
    a = np.array(entries, dtype=np.uint16).reshape(n, n)
    np.fill_diagonal(a, 0)
    return ColoredGraph(F, range(n), a)


@settings(derandomize=True, deadline=None)
@given(G=_colored_graphs())
def test_bicut_kernels_match_rank_of(G):
    _assert_cuts_match_oracle(G, ("bicutrk",))

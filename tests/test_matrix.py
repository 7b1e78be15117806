"""Matrix rank over finite fields, checked against a minor-expansion oracle."""

import itertools
import random

import numpy as np
import pytest

from rankw.fields import field_make, sigma_frobenius_conj, sigma_identity
from rankw.matrix import MatrixError

from oracles import fmatmul, np_tables, rank_of


def det_cofactor(a, F):
    """Determinant by cofactor expansion (test oracle, exponential)."""
    n = a.shape[0]
    if n == 0:
        return 1
    if n == 1:
        return int(a[0, 0])
    d = 0
    for j in range(n):
        if a[0, j]:
            minor = np.delete(np.delete(a, 0, 0), j, 1)
            term = F.mul(int(a[0, j]), det_cofactor(minor, F))
            d = F.add(d, term) if j % 2 == 0 else F.sub(d, term)
    return d


def rank_by_minors(a, F):
    """Largest t with a nonsingular t x t sub-matrix (test oracle)."""
    m, n = a.shape
    for t in range(min(m, n), 0, -1):
        for rs in itertools.combinations(range(m), t):
            for cs in itertools.combinations(range(n), t):
                if det_cofactor(a[np.ix_(rs, cs)], F) != 0:
                    return t
    return 0


def test_rank_basics():
    F4, F3, F2 = field_make(2, 2), field_make(3, 1), field_make(2, 1)
    assert rank_of(np.zeros((3, 4), dtype=np.uint16), F4) == 0
    assert rank_of(np.eye(5, dtype=np.uint16), F3) == 5
    assert rank_of(np.ones((4, 6), dtype=np.uint16), F2) == 1
    assert rank_of(np.zeros((0, 5), dtype=np.uint16), F2) == 0


def test_rank_against_minor_oracle():
    F5 = field_make(5, 1)
    rng = random.Random(0)
    for _ in range(15):
        a = np.array([[rng.randrange(5) for _ in range(5)] for _ in range(5)],
                     dtype=np.uint16)
        assert rank_of(a, F5) == rank_by_minors(a, F5)


def test_rank_invariances():
    rng = random.Random(1)
    for F, s in [(field_make(2, 1), sigma_identity(field_make(2, 1))),
                 (field_make(2, 2), sigma_frobenius_conj(field_make(2, 2)))]:
        for _ in range(25):
            m, n = rng.randrange(1, 6), rng.randrange(1, 6)
            a = np.array([[rng.randrange(F.q) for _ in range(n)]
                          for _ in range(m)], dtype=np.uint16)
            r = rank_of(a, F)
            assert rank_of(a.T, F) == r
            assert rank_of(s.np_table[a], F) == r
            c = rng.randrange(1, F.q)
            assert rank_of(np_tables(F)[2][c, a], F) == r


def test_rank_subadditivity_and_products():
    rng = random.Random(2)
    F3 = field_make(3, 1)
    for _ in range(30):
        m, n, k = (rng.randrange(1, 5) for _ in range(3))
        A, B = (np.array([[rng.randrange(3) for _ in range(n)]
                          for _ in range(m)], dtype=np.uint16) for _ in range(2))
        C = np.array([[rng.randrange(3) for _ in range(k)] for _ in range(n)],
                     dtype=np.uint16)
        assert rank_of(np_tables(F3)[0][A, B], F3) <= rank_of(A, F3) + rank_of(B, F3)
        assert rank_of(fmatmul(A, C, F3), F3) <= min(rank_of(A, F3),
                                                     rank_of(C, F3))
    with pytest.raises(MatrixError):
        fmatmul(A, np.zeros((n + 1, k), dtype=np.uint16), F3)


def _rank_table(a, F):
    m, n = a.shape
    R = np.zeros((1 << m, 1 << n), dtype=np.int64)
    for rm in range(1, 1 << m):
        rows = [i for i in range(m) if rm >> i & 1]
        for cm in range(1, 1 << n):
            cols = [j for j in range(n) if cm >> j & 1]
            R[rm, cm] = rank_of(a[np.ix_(rows, cols)], F)
    return R


def _assert_submodular(R, m, n):
    """rk(M[X1][X2]) + rk(M[Y1][Y2]) >= rk(M[X1uY1][X2nY2]) + rk(M[X1nY1][X2uY2])
    over every quadruple of row/column subsets; broadcast per X1 mask to keep
    the working set small.  Axes inside the loop are (Y1, X2, Y2)."""
    idx_m = np.arange(1 << m)
    idx_n = np.arange(1 << n)
    union_n = idx_n[:, None] | idx_n[None, :]
    inter_n = idx_n[:, None] & idx_n[None, :]
    for x1 in range(1 << m):
        # axes [Y1, X2, Y2]
        lhs = R[x1][None, :, None] + R[:, None, :]
        rhs = R[x1 | idx_m][:, inter_n] + R[x1 & idx_m][:, union_n]
        assert (lhs >= rhs).all(), x1


def test_rank_submodularity_exhaustive_small():
    """Rank submodularity over all subset quadruples of random matrices."""
    rng = random.Random(3)
    for F in (field_make(2, 1), field_make(3, 1), field_make(2, 2)):
        a = np.array([[rng.randrange(F.q) for _ in range(4)] for _ in range(3)],
                     dtype=np.uint16)
        _assert_submodular(_rank_table(a, F), 3, 4)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
def test_rank_submodularity_6x6(p, k):
    rng = random.Random(4)
    F = field_make(p, k)
    a = np.array([[rng.randrange(F.q) for _ in range(6)] for _ in range(6)],
                 dtype=np.uint16)
    _assert_submodular(_rank_table(a, F), 6, 6)


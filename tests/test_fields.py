"""Field construction, quadratic extensions, and sesqui-morphisms."""

import itertools
import random
import time

import numpy as np
import pytest

from rankw.fields import (FieldError, canonical_modulus,
                          field_extend_quadratic, field_make, frobenius_table,
                          negation_table, parse_sigma, sesqui_check,
                          sigma_compatible, sigma_compatible_set,
                          sigma_frobenius_conj, sigma_identity, sigma_negation)
from rankw.graphs import parse_graph


def test_prime_field_examples():
    F2 = field_make(2, 1)
    assert F2.add(1, 1) == 0
    F3 = field_make(3, 1)
    assert F3.mul(2, 2) == 1
    assert F3.neg(1) == 2


def test_gf4_structure():
    F4 = field_make(2, 2)
    assert F4.modulus == (1, 1, 1)  # X^2 + X + 1
    a = 2
    assert F4.add(F4.add(1, a), F4.mul(a, a)) == 0  # 1 + a + a^2 = 0
    assert F4.pow(a, 3) == 1


def test_constructor_errors():
    with pytest.raises(FieldError):
        field_make(4, 1)
    with pytest.raises(FieldError):
        field_make(2, 0)
    with pytest.raises(FieldError):
        field_make(2, 17)
    with pytest.raises(FieldError):
        field_make(257, 2)
    # huge characteristics and degrees fail on the order bound at once: no
    # trial division of p, no p^k formed or printed
    for p, k in [(1000000000000000003, 1), (2, 1000000000), (3, 10000000),
                 (2, 100000000)]:
        t0 = time.perf_counter()
        with pytest.raises(FieldError, match=rf"^field order {p}\^{k} exceeds "
                                             r"the bound 65536$"):
            field_make(p, k)
        assert time.perf_counter() - t0 < 1.0, (p, k)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (2, 4), (5, 2), (3, 3),
                                 (2, 5), (7, 2), (2, 6)])
def test_field_axioms_exhaustive(p, k):
    """Associativity, commutativity, distributivity, inverses for every
    constructed field of order <= 64 (vectorized over all triples)."""
    F = field_make(p, k)
    q = F.q
    i = np.arange(q)
    A, M = (np.array(t, dtype=np.int64) for t in (F.ADD, F.MUL))
    assert np.array_equal(A, A.T) and np.array_equal(M, M.T)
    assert np.array_equal(
        A[A[i[:, None, None], i[None, :, None]], i[None, None, :]],
        A[i[:, None, None], A[i[None, :, None], i[None, None, :]]])
    assert np.array_equal(
        M[M[i[:, None, None], i[None, :, None]], i[None, None, :]],
        M[i[:, None, None], M[i[None, :, None], i[None, None, :]]])
    assert np.array_equal(
        M[i[:, None, None], A[i[None, :, None], i[None, None, :]]],
        A[M[i[:, None, None], i[None, :, None]],
          M[i[:, None, None], i[None, None, :]]])
    assert all(F.mul(x, F.inv(x)) == 1 for x in range(1, q))
    assert all(F.add(x, F.neg(x)) == 0 for x in range(q))


def _numpy_tables(F):
    """Oracle: ADD, SUB, MUL, INV and NEG of F as numpy arrays, built by
    vectorized digit arithmetic and discrete logarithms (the construction
    the tables had before they were built in Python)."""
    q, b, deg = F.q, F._digit_base, F._deg
    codes = np.arange(q, dtype=np.int64)
    digits = np.stack([(codes // b ** i) % b for i in range(deg)], axis=1)
    weights = np.array([b ** i for i in range(deg)], dtype=np.int64)
    if F.base is None:
        dsum = (digits[:, None, :] + digits[None, :, :]) % F.p
        dneg = (-digits) % F.p
    else:
        BA, _, _, _, BN = (np.array(t, dtype=np.int64) for t in _numpy_tables(F.base))
        dsum = BA[digits[:, None, :], digits[None, :, :]]
        dneg = BN[digits]
    ADD, NEG = dsum @ weights, dneg @ weights
    SUB = ADD[:, NEG]

    def order(g):   # by polynomial multiplication, not by the tables under test
        x, k = g, 1
        while x != 1:
            x, k = F._mul_poly(x, g), k + 1
        return k

    gen = next(g for g in range(1, q) if order(g) == q - 1)
    exp = np.zeros(q - 1, dtype=np.int64)
    log = np.zeros(q, dtype=np.int64)
    x = 1
    for i in range(q - 1):
        exp[i] = x
        log[x] = i
        x = F._mul_poly(x, gen)
    MUL = np.zeros((q, q), dtype=np.int64)
    MUL[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % (q - 1)]
    INV = np.zeros(q, dtype=np.int64)
    INV[1:] = exp[(-log[1:]) % (q - 1)]
    return ADD, SUB, MUL, INV, NEG


@pytest.mark.parametrize("F", [field_make(2, 1), field_make(3, 1), field_make(2, 2),
                               field_make(5, 3), field_make(13, 2), field_make(3, 5),
                               field_make(2, 8), field_make(3, 2), field_make(2, 4)]
                         + [field_extend_quadratic(field_make(p, k)).ext
                            for p, k in [(2, 2), (3, 2), (2, 4)]],
                         ids=repr)
def test_python_tables_match_numpy_oracle(F):
    """The tables built in Python equal the numpy construction, as nested
    tuples of ints (quadratic extensions of GF(4), GF(9) and GF(16) build
    on their base field's tables, checked here too)."""
    for name, oracle in zip(("ADD", "SUB", "MUL", "INV", "NEG"), _numpy_tables(F)):
        table = getattr(F, name)
        assert isinstance(table, tuple) and all(
            type(x) is int for x in (table[-1] if name in ("ADD", "SUB", "MUL")
                                     else table))
        assert np.array_equal(np.array(table), oracle), name


# The canonical modulus of every GF(p^k) with k >= 2 and p^k <= 2^16, as the
# code of its coefficients below X^k (coefficient i is base-p digit i), as
# found by the Rabin-style gcd test that trial division replaced.
MODULUS_CODES = {
    (2, 2): 3, (2, 3): 3, (2, 4): 3, (2, 5): 5, (2, 6): 3, (2, 7): 3, (2, 8): 27,
    (2, 9): 3, (2, 10): 9, (2, 11): 5, (2, 12): 9, (2, 13): 27, (2, 14): 33,
    (2, 15): 3, (2, 16): 43, (3, 2): 1, (3, 3): 7, (3, 4): 5, (3, 5): 7, (3, 6): 5,
    (3, 7): 11, (3, 8): 11, (3, 9): 64, (3, 10): 19, (5, 2): 2, (5, 3): 6,
    (5, 4): 2, (5, 5): 21, (5, 6): 7, (7, 2): 1, (7, 3): 2, (7, 4): 8, (7, 5): 10,
    (11, 2): 1, (11, 3): 15, (11, 4): 13, (13, 2): 2, (13, 3): 2, (13, 4): 2,
    (17, 2): 3, (17, 3): 20, (19, 2): 1, (19, 3): 2, (23, 2): 1, (23, 3): 26,
    (29, 2): 2, (29, 3): 33, (31, 2): 1, (31, 3): 3, (37, 2): 2, (37, 3): 2,
    (41, 2): 3, (43, 2): 1, (47, 2): 1, (53, 2): 2, (59, 2): 1, (61, 2): 2,
    (67, 2): 1, (71, 2): 1, (73, 2): 5, (79, 2): 1, (83, 2): 1, (89, 2): 3,
    (97, 2): 5, (101, 2): 2, (103, 2): 1, (107, 2): 1, (109, 2): 2, (113, 2): 3,
    (127, 2): 1, (131, 2): 1, (137, 2): 3, (139, 2): 1, (149, 2): 2, (151, 2): 1,
    (157, 2): 2, (163, 2): 1, (167, 2): 1, (173, 2): 2, (179, 2): 1, (181, 2): 2,
    (191, 2): 1, (193, 2): 5, (197, 2): 2, (199, 2): 1, (211, 2): 1, (223, 2): 1,
    (227, 2): 1, (229, 2): 2, (233, 2): 3, (239, 2): 1, (241, 2): 7, (251, 2): 1,
}


def _monic_poly(p, d, code):
    """The monic polynomial of degree d over GF(p) whose coefficients below
    X^d have the given code, as a coefficient tuple low degree first."""
    return tuple((code // p ** i) % p for i in range(d)) + (1,)


def _monic_codes(p, d):
    return [_monic_poly(p, d, c) for c in range(p ** d)]


def _times(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def test_canonical_modulus_is_minimal_irreducible():
    # brute-force the minimal irreducible quadratic over GF(3): X^2 + 1
    assert canonical_modulus(3, 2) == (1, 0, 1)
    assert canonical_modulus(2, 3) == (1, 1, 0, 1)
    assert len(MODULUS_CODES) == 93
    for (p, k), code in MODULUS_CODES.items():
        assert canonical_modulus(p, k) == _monic_poly(p, k, code), (p, k)
    for p in (2, 257, 65521):   # degree 1 is X itself, found without a search
        assert canonical_modulus(p, 1) == (0, 1)
    # independent oracle for p^k <= 256: the reducible monic polynomials of
    # degree k are the products of two monic polynomials of lower degree
    for (p, k), code in MODULUS_CODES.items():
        if p ** k > 256:
            continue
        reducible = {_times(a, b, p) for d in range(1, k // 2 + 1)
                     for a in _monic_codes(p, d) for b in _monic_codes(p, k - d)}
        monic = _monic_codes(p, k)
        assert monic[code] not in reducible, (p, k)
        assert all(m in reducible for m in monic[:code]), (p, k)


def _extension_p_oracle(F):
    """Independent search: enumerate roots of X^2 - p(X+1) for each p in F*."""
    for p in F.units():
        if all(F.sub(F.mul(x, x), F.mul(p, F.add(x, 1))) != 0
               for x in F.elements()):
            return p
    return None


def test_extension_gf2():
    ext = field_extend_quadratic(field_make(2, 1))
    assert ext.p_elt == 1
    assert ext.ext.modulus == (1, 1, 1)
    assert ext.ext.q == 4
    assert ext.gamma == 3  # 1 + alpha
    assert ext.tau == 2    # alpha
    assert ext.p_elt == _extension_p_oracle(field_make(2, 1))


def test_extension_gf3():
    ext = field_extend_quadratic(field_make(3, 1))
    assert ext.p_elt == 1 == _extension_p_oracle(field_make(3, 1))
    # X^2 - X - 1 over GF(3) has values 2, 2, 1 at 0, 1, 2
    F3 = field_make(3, 1)
    vals = [F3.sub(F3.mul(x, x), F3.mul(1, F3.add(x, 1))) for x in range(3)]
    assert vals == [2, 2, 1]
    assert ext.ext.modulus == (2, 2, 1)
    assert ext.ext.q == 9


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (3, 2), (2, 3), (11, 1), (13, 1), (2, 4)])
def test_extension_invariants(p, k):
    """Every base of order <= 16: the three product identities, f~ bijective
    on all q^2 pairs, sigma~ a sesqui-morphism fixing 1, gamma + tau = 1."""
    base = field_make(p, k)
    e = field_extend_quadratic(base)
    X, g, t = e.ext, e.gamma, e.tau
    pinv = X.inv(e.p_elt)
    assert X.add(g, t) == 1
    assert X.mul(e.p_elt, t) == e.alpha
    assert X.mul(g, g) == X.add(X.mul(X.add(1, pinv), g), X.mul(pinv, t))
    assert X.mul(t, t) == X.add(X.mul(pinv, g), X.mul(X.add(1, pinv), t))
    # gamma*tau = -(p^{-1} gamma + p^{-1} tau); in characteristic 2 the
    # sign disappears and the symmetric form holds verbatim
    assert X.mul(g, t) == X.neg(X.add(X.mul(pinv, g), X.mul(pinv, t)))
    if p == 2:
        assert X.mul(g, t) == X.add(X.mul(pinv, g), X.mul(pinv, t))
    seen = {e.f_tilde(a, b) for a in range(base.q) for b in range(base.q)}
    assert len(seen) == X.q
    assert all(e.f_tilde_pair(e.f_tilde(a, b)) == (a, b)
               for a in range(base.q) for b in range(base.q))
    assert sesqui_check(X, e.sigma_tilde.table)
    assert e.sigma_tilde.one == 1
    assert 1 in sigma_compatible_set(e.sigma_tilde)
    # sigma~ swaps the f~ coordinates
    for a in range(base.q):
        for b in range(base.q):
            assert e.sigma_tilde(e.f_tilde(a, b)) == e.f_tilde(b, a)


def test_sigma_tilde_is_conjugation():
    """The coefficient swap is exactly x -> x^q on the extension."""
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        e = field_extend_quadratic(field_make(p, k))
        assert e.sigma_tilde.table == sigma_frobenius_conj(e.ext).table


def test_sesqui_check_examples():
    F2, F4, F3 = field_make(2, 1), field_make(2, 2), field_make(3, 1)
    assert sesqui_check(F2, [0, 1])
    assert sesqui_check(F4, [0, 1, 3, 2])      # sigma4: a <-> a^2
    assert sesqui_check(F3, [0, 2, 1])         # x -> -x
    assert not sesqui_check(F4, [0, 1, 2, 3][::-1])  # maps 1 to 2: not one
    with pytest.raises(FieldError):
        sesqui_check(F4, [0, 1, 2])            # not total
    with pytest.raises(FieldError):
        sesqui_check(F4, [0, 1, 2, 9])         # value outside the field


def _sesqui_exhaustive(field, table) -> bool:
    """Oracle: the involution and normalization checks, then the
    automorphism property on all q^2 pairs."""
    q = field.q
    if any(table[table[a]] != a for a in range(q)) or table[1] == 0:
        return False
    s1_inv = field.inv(table[1])
    norm = [field.mul(table[a], s1_inv) for a in range(q)]
    if len(set(norm)) != q or norm[0] != 0 or norm[1] != 1:
        return False
    return all(norm[field.add(a, b)] == field.add(norm[a], norm[b])
               and norm[field.mul(a, b)] == field.mul(norm[a], norm[b])
               for a in range(q) for b in range(q))


@pytest.mark.parametrize("p,k", [(3, 1), (2, 2)])
def test_sesqui_check_matches_exhaustive_on_every_table(p, k):
    F = field_make(p, k)
    for table in itertools.product(range(F.q), repeat=F.q):
        assert sesqui_check(F, table) == _sesqui_exhaustive(F, table)


@pytest.mark.parametrize("p,k", [(5, 1), (2, 3), (3, 2)])
def test_sesqui_check_matches_exhaustive_on_random_tables(p, k):
    """Random involutions, and s * x^(p^i) for every unit s and every i
    (the sesqui-morphisms among them), each also with two values swapped."""
    F = field_make(p, k)
    q = F.q
    rng = random.Random(q)
    tables = []
    for _ in range(200):
        elts = list(range(q))
        rng.shuffle(elts)
        table = list(range(q))
        for a, b in zip(elts[:q // 2], elts[q // 2:]):
            if rng.random() < 0.7:
                table[a], table[b] = b, a
        tables.append(table)
    for i in range(k):
        for s in F.units():
            tables.append([F.mul(s, F.pow(a, p ** i)) for a in range(q)])
    for table in list(tables):
        a, b = rng.sample(range(q), 2)
        swapped = list(table)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        tables.append(swapped)
    verdicts = [sesqui_check(F, t) for t in tables]
    assert verdicts == [_sesqui_exhaustive(F, t) for t in tables]
    assert any(verdicts)


def test_sesqui_check_large_field_is_fast():
    """GF(2^9) has no tables; 512^2 scalar pairs took about 19 s.  The
    identity on GF(2^16) needs neither the normalization nor the Frobenius
    table (building both by polynomial arithmetic took about 11 s).  On
    GF(2^16), with a negation or a power per element, sigma_negation took
    0.6 s and sigma_frobenius_conj 49 s."""
    t0 = time.perf_counter()
    sigma_identity(field_make(2, 9))
    assert time.perf_counter() - t0 < 1.0
    F = field_make(2, 16)
    t0 = time.perf_counter()
    sigma_identity(F)
    assert time.perf_counter() - t0 < 1.0
    for build in (sigma_negation, sigma_frobenius_conj):
        t0 = time.perf_counter()
        build(F)
        assert time.perf_counter() - t0 < 0.3, build.__name__


def test_sesqui_check_large_prime_field_is_fast():
    """On GF(65521), sigma(1) = -1 sends the check through the
    normalization table.  A p x p table of column shifts would hold 4.3e9
    entries here; the shifts are slices of one list of 2p entries."""
    F = field_make(65521, 1)
    t0 = time.perf_counter()
    sigma = sigma_negation(F)
    assert time.perf_counter() - t0 < 0.3
    assert sigma.one == 65520 and sigma(2) == 65519
    t0 = time.perf_counter()
    G = parse_graph("field 65521 1\nsigma neg\nvertices a b\n"
                    "edge a b 2\nedge b a 65519\n")
    assert time.perf_counter() - t0 < 0.3
    assert G.sigma.table == sigma.table


@pytest.mark.parametrize("p,k", [(2, 12), (3, 5)])
def test_linear_tables_match_scalar_arithmetic(p, k):
    """The Frobenius powers and negation, built from the images of the k
    monomials, equal field.pow and field.neg on every element: GF(2^12) has
    no tables, GF(3^5) has them and odd digits.  x^(p^j) is x^p taken j
    times, so one power per element serves every j."""
    F = field_make(p, k)
    frob = [F.pow(a, p) for a in range(F.q)]
    power = list(range(F.q))
    for j in range(1, k):
        power = [frob[a] for a in power]
        assert frobenius_table(F, j) == power, j
    assert negation_table(F) == [F.neg(a) for a in range(F.q)]
    if k % 2 == 0:
        assert sigma_frobenius_conj(F).table == tuple(frobenius_table(F, k // 2))
    assert sigma_negation(F).table == tuple(negation_table(F))


def test_sesqui_identities():
    """sigma(ab) = sigma(a) sigma(b) / sigma(1) and friends."""
    for F, s in [(field_make(2, 2), sigma_frobenius_conj(field_make(2, 2))),
                 (field_make(3, 1), sigma_negation(field_make(3, 1))),
                 (field_make(5, 1), sigma_negation(field_make(5, 1)))]:
        s1 = s.one
        for a in F.elements():
            for b in F.elements():
                assert s(F.mul(a, b)) == F.div(F.mul(s(a), s(b)), s1)
                if b != 0:
                    assert s(F.div(a, b)) == F.div(F.mul(s1, s(a)), s(b))
                assert s(F.add(a, b)) == F.add(s(a), s(b))


def test_sigma_compatible_examples():
    F4 = field_make(2, 2)
    s4 = sigma_frobenius_conj(F4)
    assert sigma_compatible(s4, 1)
    assert not sigma_compatible(s4, 2) and not sigma_compatible(s4, 3)
    assert sigma_compatible_set(s4) == [1]
    F3 = field_make(3, 1)
    assert sigma_compatible_set(sigma_negation(F3)) == []
    F2 = field_make(2, 1)
    assert sigma_compatible(sigma_identity(F2), 1)
    assert sigma_compatible_set(sigma_identity(F2)) == [1]
    with pytest.raises(FieldError):
        sigma_compatible(s4, 0)


def test_parse_sigma():
    F4 = field_make(2, 2)
    assert parse_sigma(F4, "id").table == (0, 1, 2, 3)
    assert parse_sigma(F4, "frob-inv").table == (0, 1, 3, 2)
    assert parse_sigma(F4, "0 1 3 2").table == (0, 1, 3, 2)
    F3 = field_make(3, 1)
    assert parse_sigma(F3, "neg").table == (0, 2, 1)
    with pytest.raises(FieldError):
        parse_sigma(F4, "0 1 2 2")


def test_large_field_scalar_path():
    F = field_make(2, 16)
    assert F.ADD is None
    x = 12345
    assert F.mul(F.inv(x), x) == 1
    assert F.mul(x, 1) == x and F.add(x, x) == 0
    F9 = field_make(3, 9)  # 19683 elements, above the table bound
    y = 777
    assert F9.mul(F9.inv(y), y) == 1

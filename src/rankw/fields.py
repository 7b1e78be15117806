"""Exact arithmetic in small finite fields GF(p^k), quadratic extensions,
and sesqui-morphisms.

Elements are integer codes: the element sum_i c_i * alpha^i (coefficients in
GF(p), alpha the residue class of X) has code sum_i c_i * p^i under the
modulus `canonical_modulus(p, k)`: the monic irreducible of degree k with the
least code, found by trial division, so that every code is reproducible.
Quadratic extensions of a non-prime base keep the tower structure, so their
codes are base-q digit pairs (a0 + a1*alpha -> a0 + q*a1), which flattens to
the same base-p convention.

Arithmetic uses precomputed tables for q <= 256: ADD, SUB and MUL as q x q
nested tuples, NEG and INV as tuples, all built in Python.  ADD is a base-p
digit sum for every field, towers included.  Above that bound arithmetic
uses polynomial reduction, and fields of order > 2^16 are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, product
from operator import itemgetter
from typing import Optional

ORDER_BOUND = 1 << 16
TABLE_BOUND = 256


class FieldError(ValueError):
    """Invalid field construction or element operation."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def _field_order(p: int, k: int) -> int:
    """p^k, once k >= 1, the order bound and the primality of p hold.  The
    bound is checked on p and k before p^k is formed or p is factored, so a
    huge p or k fails at once (2^17 already exceeds it)."""
    if k < 1:
        raise FieldError("extension degree must be >= 1")
    if p > ORDER_BOUND or k > 16 or p ** k > ORDER_BOUND:
        raise FieldError(f"field order {p}^{k} exceeds the bound {ORDER_BOUND}")
    if not is_prime(p):
        raise FieldError(f"characteristic {p} is not prime")
    return p ** k


# -- polynomials over GF(p), coefficient tuples low degree first ------------

def _monic(p, k):
    """The monic polynomials of degree k over GF(p) in code order: the
    coefficients below X^k, read as base-p digits, count up from 0."""
    for digits in product(range(p), repeat=k):
        yield digits[::-1] + (1,)


def _pmod(a, m, p):
    """a mod m with m monic, as a coefficient list of length deg(m)."""
    a, d = list(a), len(m) - 1
    for top in range(len(a) - 1, d - 1, -1):
        c = a[top]
        if c:
            for i, y in enumerate(m[:d], top - d):
                if y:
                    a[i] = (a[i] - c * y) % p
    return a[:d]


def canonical_modulus(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible degree-k polynomial over GF(p) minimal in the
    base-p integer encoding of its coefficient vector (low degree first).
    For k >= 2 a monic m is irreducible iff no monic irreducible of degree
    1..k//2 divides it, so trial division tries every monic polynomial of
    degree 1 and, above that, those with a nonzero constant term (X divides
    the others, so none of them is irreducible)."""
    if k == 1:  # X, without listing the p monic linear polynomials
        return (0, 1)
    divisors = [f for d in range(1, k // 2 + 1) for f in _monic(p, d)
                if f[0] or d == 1]
    for m in _monic(p, k):
        if all(any(_pmod(m, f, p)) for f in divisors):
            return m
    raise FieldError(f"no irreducible polynomial of degree {k} over GF({p})")


# -- the field class ---------------------------------------------------------

class Field:
    """GF(p^k).  Immutable; construct through field_make / field_extend_quadratic.

    ``base`` is None for fields represented directly over GF(p); a quadratic
    extension of a non-prime field keeps ``base`` set and a degree-2 modulus
    with coefficients given as base-field codes.
    """

    __slots__ = ("p", "k", "q", "base", "modulus", "_deg", "_digit_base",
                 "ADD", "SUB", "MUL", "NEG", "INV", "_hash")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...],
                 base: Optional["Field"] = None):
        q = _field_order(p, k)
        self.p = p
        self.k = k
        self.q = q
        self.base = base
        self.modulus = tuple(modulus)
        self._deg = len(modulus) - 1
        self._digit_base = p if base is None else base.q
        if self._digit_base ** self._deg != q:
            raise FieldError("modulus degree inconsistent with field order")
        self._hash = hash((p, k, self.modulus, None if base is None else hash(base)))
        if q <= TABLE_BOUND:
            self._build_tables()
        else:
            self.ADD = self.SUB = self.MUL = self.NEG = self.INV = None

    # scalar coefficient helpers ------------------------------------------

    def _coeffs(self, code: int) -> list[int]:
        b = self._digit_base
        return [(code // b ** i) % b for i in range(self._deg)]

    def _encode(self, coeffs) -> int:
        b = self._digit_base
        return sum(int(c) * b ** i for i, c in enumerate(coeffs))

    def _cadd(self, x, y):
        return (x + y) % self.p if self.base is None else self.base.add(x, y)

    def _cneg(self, x):
        return (-x) % self.p if self.base is None else self.base.neg(x)

    def _cmul(self, x, y):
        return (x * y) % self.p if self.base is None else self.base.mul(x, y)

    def _check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise FieldError(f"{a} is not an element code of GF({self.q})")
        return a

    # scalar arithmetic -----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.ADD is not None:
            return self.ADD[self._check(a)][self._check(b)]
        ca, cb = self._coeffs(self._check(a)), self._coeffs(self._check(b))
        return self._encode([self._cadd(x, y) for x, y in zip(ca, cb)])

    def neg(self, a: int) -> int:
        if self.NEG is not None:
            return self.NEG[self._check(a)]
        return self._encode([self._cneg(x) for x in self._coeffs(self._check(a))])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.MUL is not None:
            return self.MUL[self._check(a)][self._check(b)]
        return self._mul_poly(self._check(a), self._check(b))

    def _mul_poly(self, a: int, b: int) -> int:
        ca, cb = self._coeffs(a), self._coeffs(b)
        deg = self._deg
        out = [0] * (2 * deg - 1) if deg > 1 else [0]
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    if y:
                        out[i + j] = self._cadd(out[i + j], self._cmul(x, y))
        # reduce by the monic modulus
        for i in range(len(out) - 1, deg - 1, -1):
            c = out[i]
            if c:
                out[i] = 0
                for j in range(deg):
                    out[i - deg + j] = self._cadd(
                        out[i - deg + j], self._cneg(self._cmul(c, self.modulus[j])))
        return self._encode(out[:deg])

    def inv(self, a: int) -> int:
        if self._check(a) == 0:
            raise FieldError("inverse of zero")
        if self.INV is not None:
            return self.INV[a]
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise FieldError("negative exponent; use inv")
        if self._check(a) == 0:
            return 0 if e else 1
        e %= self.q - 1  # the unit group has order q-1
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    # table construction -----------------------------------------------------

    def _build_tables(self):
        """ADD grows one base-p digit at a time: codes x + B*u and y + B*v
        (B a power of p, u and v the next digits) add to ADD[x][y] + B*s with
        s = u + v in GF(p), so each row is a concatenation of shifted rows.
        Every code, a tower's included, is a string of base-p digits that add
        digit by digit.  NEG and SUB follow from ADD; MUL and INV come from
        the discrete logarithms of a generator."""
        q, p = self.q, self.p
        digit = tuple(tuple((u + v) % p for v in range(p)) for u in range(p))
        add, B = digit, p
        while B < q:
            shifted = [[tuple(map((B * s).__add__, row)) for s in range(p)]
                       for row in add]
            add = tuple(tuple(chain.from_iterable(map(sh.__getitem__, digit[u])))
                        for u in range(p) for sh in shifted)
            B *= p
        self.ADD = add
        self.NEG = tuple(row.index(0) for row in add)
        self.SUB = tuple(map(itemgetter(*self.NEG), add))
        exp = self._powers_of_generator()
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        # a * b = exp[log a + log b]: row a is exp rotated by log a, read at
        # log b, with a zero appended for b = 0
        exp2, by_log = exp + exp, itemgetter(q - 1, *log[1:])
        self.MUL = ((0,) * q,) + tuple(
            by_log(exp2[log[a]:log[a] + q - 1] + [0]) for a in range(1, q))
        self.INV = (0,) + tuple(exp[-log[a] % (q - 1)] for a in range(1, q))

    def _powers_of_generator(self) -> list[int]:
        """1, g, g^2, ..., g^(q-2) for the least g that generates the units."""
        for g in range(1, self.q):
            powers, x = [1], g
            while x != 1:
                powers.append(x)
                x = self._mul_poly(x, g)
                if len(powers) > self.q:
                    raise FieldError("modulus is not irreducible (no field structure)")
            if len(powers) == self.q - 1:
                return powers
        raise FieldError("no multiplicative generator found")

    # misc --------------------------------------------------------------------

    def element_str(self, a: int) -> str:
        """Readable form of an element (polynomial in alpha)."""
        self._check(a)
        if self.k == 1 or self.q <= self.p:
            return str(a)
        terms = []
        for i, c in enumerate(self._coeffs(a)):
            if not c:
                continue
            var = "" if i == 0 else ("a" if i == 1 else f"a^{i}")
            if self.base is not None and c >= self.base.p and i > 0:
                terms.append(f"({self.base.element_str(c)}){var}")
            else:
                coeff = str(c) if (i == 0 or c != 1) else ""
                terms.append(coeff + var if var else str(c))
        return "+".join(terms) if terms else "0"

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus) \
            and self.base == other.base

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.base is None:
            return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"
        return f"GF({self.q})[ext of GF({self.base.q})]"


@lru_cache(maxsize=None)
def field_make(p: int, k: int) -> Field:
    """GF(p^k) with the canonical minimal irreducible modulus."""
    _field_order(p, k)
    return Field(p, k, canonical_modulus(p, k))


# -- sesqui-morphisms --------------------------------------------------------

@dataclass(frozen=True)
class Sesquimorphism:
    """An involution sigma on a field whose normalization x -> sigma(x)/sigma(1)
    is a field automorphism."""

    field: Field
    table: tuple[int, ...]
    name: str = ""

    def __call__(self, a: int) -> int:
        return self.table[a]

    @cached_property
    def np_table(self):
        """The table as a read-only numpy uint16 array (numpy loads here)."""
        import numpy as np
        tab = np.array(self.table, dtype=np.uint16)
        tab.flags.writeable = False
        return tab

    @property
    def one(self) -> int:
        """sigma(1)."""
        return self.table[1]

    def __repr__(self):
        label = self.name or ",".join(map(str, self.table))
        return f"Sesquimorphism({self.field!r}, {label})"


def _linear_table(field: Field, images) -> list[int]:
    """The table of the GF(p)-linear map that sends the element of code p^i
    to images[i].  A code is the sum of its base-p digits d_i times the
    element p^i (codes add digit by digit, towers included), so its image is
    the sum of d_i * images[i].  The table grows one input digit at a time,
    as p shifted copies of itself: XOR shifts for p = 2, and for p > 2 one
    column per output digit, added with its place value at the end.  A
    column of p^i entries shifts by reading rotations of 0..p-1, slices of
    one list of 2p entries, so the table costs O(k q) even for large p."""
    p, k = field.p, field.k
    if p == 2:
        table = [0]
        for v in images:
            table += [x ^ v for x in table]
        return table
    ext = list(range(p)) * 2
    table = [0] * field.q
    for j in range(k):
        B = p ** j
        col = [d * (images[0] // B) % p for d in range(p)]
        for v in images[1:]:
            c = v // B % p
            if c:
                col = [r[e] for r in [ext[d * c % p:] for d in range(p)]
                       for e in col]
            else:
                col *= p
        placed = [e * B for e in range(p)]
        table = [x + placed[e] for x, e in zip(table, col)]
    return table


def frobenius_table(field: Field, j: int) -> list[int]:
    """The table of x -> x^(p^j), which is GF(p)-linear: from the images of
    the k monomials, without a power per element."""
    p = field.p
    return _linear_table(field, [field.pow(p ** i, p ** j) for i in range(field.k)])


def negation_table(field: Field) -> list[int]:
    """The table of x -> -x: each base-p digit d becomes -d mod p."""
    p = field.p
    return _linear_table(field, [(p - 1) * p ** i for i in range(field.k)])


def sesqui_check(field: Field, table) -> bool:
    """True iff the table is an involution and x -> sigma(x)/sigma(1) is a
    field automorphism.  The automorphisms of GF(p^k) are the k Frobenius
    powers x -> x^(p^j), identity first.  They and division by sigma(1) are
    GF(p)-linear, so each table comes from the images of the k monomials."""
    table = tuple(int(t) for t in table)
    q = field.q
    if len(table) != q or any(not 0 <= t < q for t in table):
        raise FieldError("sesqui-morphism table must be a total map on the field")
    if any(table[table[a]] != a for a in range(q)):
        return False
    s1 = table[1]
    if s1 == 0:
        return False
    if s1 == 1:
        norm = list(table)
    else:
        s1_inv = field.inv(s1)
        scale = _linear_table(field, [field.mul(field.p ** i, s1_inv)
                                      for i in range(field.k)])
        norm = [scale[t] for t in table]
    if len(set(norm)) != q or norm[0] != 0 or norm[1] != 1:
        return False
    if norm == list(range(q)):
        return True
    # at most one x -> x^(p^j), 0 < j < k, agrees with norm on the k
    # monomials, and norm is that map iff it equals its table
    monomials = [field.p ** i for i in range(field.k)]
    images = monomials
    for _ in range(field.k - 1):
        images = [field.pow(v, field.p) for v in images]
        if all(norm[m] == v for m, v in zip(monomials, images)):
            return norm == _linear_table(field, images)
    return False


def _make_sigma(field: Field, table, name: str) -> Sesquimorphism:
    table = tuple(int(t) for t in table)
    if not sesqui_check(field, table):
        raise FieldError(f"table is not a sesqui-morphism on {field!r}")
    return Sesquimorphism(field, table, name)


def sigma_identity(field: Field) -> Sesquimorphism:
    return _make_sigma(field, range(field.q), "id")


def sigma_negation(field: Field) -> Sesquimorphism:
    return _make_sigma(field, negation_table(field), "neg")


def sigma_frobenius_conj(field: Field) -> Sesquimorphism:
    """x -> x^sqrt(q), the conjugation of a quadratic extension (sigma4 on GF(4))."""
    if field.k % 2 != 0:
        raise FieldError("frob-inv needs a field of square order")
    return _make_sigma(field, frobenius_table(field, field.k // 2), "frob-inv")


def plain_int(tok: str) -> int:
    """The integer that tok writes in ASCII digits, with an optional leading
    minus that the caller's range check then rejects.  Anything else that
    int() would take (a plus sign, underscores, spaces, non-ASCII digits)
    raises ValueError."""
    digits = tok[1:] if tok.startswith("-") else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a plain integer: {tok!r}")
    return int(tok)


def parse_sigma(field: Field, spec: str) -> Sesquimorphism:
    """Parse a sesqui-morphism spec: 'id', 'neg', 'frob-inv', or q codes."""
    parts = spec.split()
    if parts == ["id"]:
        return sigma_identity(field)
    if parts == ["neg"]:
        return sigma_negation(field)
    if parts == ["frob-inv"]:
        return sigma_frobenius_conj(field)
    try:
        table = [plain_int(t) for t in parts]
    except ValueError as exc:
        raise FieldError(f"bad sesqui-morphism spec {spec!r}") from exc
    return _make_sigma(field, table, "")


def _check_lambda(field: Field, lam: int) -> None:
    """FieldError unless lam is a nonzero element code of field."""
    if field._check(lam) == 0:
        raise FieldError("lambda must be nonzero")


def sigma_compatible(sigma: Sesquimorphism, lam: int) -> bool:
    """True iff sigma(lambda) = lambda * sigma(1)^2 (lambda nonzero)."""
    f = sigma.field
    _check_lambda(f, lam)
    s1 = sigma.one
    return sigma(lam) == f.mul(lam, f.mul(s1, s1))


def sigma_compatible_set(sigma: Sesquimorphism) -> list[int]:
    return [lam for lam in sigma.field.units() if sigma_compatible(sigma, lam)]


# -- quadratic extension per the rootless X^2 - p(X+1) construction ----------

@dataclass(frozen=True)
class QuadraticExtension:
    base: Field
    ext: Field
    p_elt: int
    alpha: int
    gamma: int
    tau: int
    sigma_tilde: Sesquimorphism

    def f_tilde(self, a: int, b: int) -> int:
        """f~(a, b) = a*gamma + b*tau, a bijection base x base -> ext."""
        B = self.base
        a1 = B.div(B.sub(b, a), self.p_elt)
        return a + B.q * a1

    def f_tilde_pair(self, c: int) -> tuple[int, int]:
        """Inverse of f_tilde."""
        B = self.base
        a0, a1 = c % B.q, c // B.q
        return a0, B.add(a0, B.mul(self.p_elt, a1))

    @property
    def f_tilde_table(self) -> tuple:
        """f_tilde over all pairs, as nested tuples: row a, column b."""
        q = self.base.q
        return tuple(tuple(self.f_tilde(a, b) for b in range(q)) for a in range(q))


@lru_cache(maxsize=None)
def field_extend_quadratic(F: Field) -> QuadraticExtension:
    """Quadratic extension of F by the first p in F* (in code order) making
    X^2 - p(X+1) rootless, with the coefficient-swapping sesqui-morphism."""
    p_elt = None
    for cand in F.units():
        if all(F.sub(F.mul(x, x), F.mul(cand, F.add(x, 1))) != 0 for x in F.elements()):
            p_elt = cand
            break
    if p_elt is None:  # ruled out for finite fields; guards a broken Field
        raise FieldError("no rootless X^2 - p(X+1) found")
    neg_p = F.neg(p_elt)
    if F.base is None and F.k == 1:
        ext = Field(F.p, 2, (neg_p, neg_p, 1))
    else:
        ext = Field(F.p, 2 * F.k, (neg_p, neg_p, 1), base=F)
    alpha = F.q  # digits (0, 1)
    p_in_ext = p_elt  # base codes embed as themselves
    pinv = ext.inv(p_in_ext)
    tau = ext.mul(pinv, alpha)
    gamma = ext.sub(1, tau)
    # sigma~(a*gamma + b*tau) = b*gamma + a*tau; in alpha coordinates
    # a0 + a1*alpha maps to (a0 + p*a1) - a1*alpha.
    table = []
    for c in range(ext.q):
        a0, a1 = c % F.q, c // F.q
        table.append(F.add(a0, F.mul(p_elt, a1)) + F.q * F.neg(a1))
    sigma_tilde = Sesquimorphism(ext, tuple(table), "frob-inv")
    return QuadraticExtension(F, ext, p_elt, alpha, gamma, tau, sigma_tilde)

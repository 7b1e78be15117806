"""Cut-rank and bi-cut-rank of vertex bipartitions, plus the connectivity
function of the partitioned linear matroid on (I | M_G), evaluated cut-wise.

A CutFunction keeps its values in a cut table indexed by bitmask over the
graph's vertex order (see `CutFunction`).  An entry e below LOW = 128 is
the exact value of its cut; an entry e >= LOW says that the cut is at least
UNSET - e, so UNSET = 255 (not evaluated yet) is the trivial bound 0.  The
three cut functions are

    cutrk(X)   = rk M[X][V\\X]                       (sigma-symmetric only)
    bicutrk(X) = rk M[X][V\\X] + rk M[V\\X][X]
    lambda(X)  = connectivity of {P_x : x in X} in the matroid on (I | M_G)
                 with P_x = {x, x'}; equals bicutrk(X) + 1.

Each is a rank of rows packed once per CutFunction on the first cut with
both sides nonempty, so a cut copies no sub-matrix.  cutrk and bicutrk read
the rows of the graph's code tuple; lambda is r(X u X') + r(Y u Y') - n + 1,
r(S u S') the rank of the rows e_x and M[:, x] (x in S) among the 2n rows
of (I | M)^T, since r(V u V') = n.  A kernel rank(R, rows, cols) ranks
the packed rows R[i], i in the mask rows, restricted to the mask cols, so
M[X][V\\X] is rank(R, X, V\\X); the field order picks it:

    GF(2)                each row is one int (bit j = entry j), and a rank
                         is the size of an XOR basis (_xor_rank);
    GF(3)                two int planes per row (entry = 1, entry = 2); a
                         sum is six bitwise operations on the planes, and
                         negation swaps them (_gf3_rank);
    GF(2^k), k = 2..4    k planes in one int, plane i holding bit i of each
                         entry's code, so a sum is one XOR; each basis row,
                         scaled to a leading entry 1, is stored as its k
                         multiples by the elements 2^t, and an entry e is
                         cleared by the multiples that the bits of e select
                         (_gf2k_kernel);
    other orders <= 256  rows are tuples of element codes, eliminated with
                         the field's SUB/MUL/INV tables (_list_rank); from
                         GF(32) on, storing k multiples per basis row costs
                         more than these lookups;
    orders > 256         no tables: the first such cut raises MatrixError.

Every kernel also takes a cap c >= 1 and returns min(rank, c): it stops
once its basis holds c rows.  A width decision at bound k needs only
whether a cut exceeds k, so it stops each rank at k + 1 (bicutrk gives its
second block what the first left of the cap, and lambda its second rank)
and stores a cut that reaches k + 1 as the bound UNSET - (k + 1).  A width
search also bounds whole blocks of cuts by one rank of a submatrix that
they all contain (`CutFunction._bound`) and writes such a bound as the
same entry for each cut of the block.

The bit-sliced kernels follow T. J. Boothby and R. W. Bradshaw, "Bitslicing
and the method of four Russians over larger finite fields" (2009), and M. R.
Albrecht, "The M4RIE library" (2011).  Each basis row keeps its own leading
bit, and rows are found by walking the set bits of the masks.  cutrk
eliminates the smaller side: M[V\\X][X] = sigma(M[X][V\\X])^T has the same
rank, since sigma is sigma(1) times a field automorphism.  No kind loads
numpy; the tests check cutrk and bicutrk against the numpy `rank_of` of
their oracles on every cut, and lambda, a rank of other rows, against
bicutrk + 1.  Masks are taken through `operator.index`, so numpy integers
work without numpy.
"""

from __future__ import annotations

from operator import index, itemgetter
from typing import Iterable, Union

from .graphs import ColoredGraph, GraphError, SigmaGraph
from .matrix import _require_tables

KINDS = ("cutrk", "bicutrk", "lambda")


FLAT_N = 24  # the largest n whose cut table becomes a flat bytearray in a search
UNSET = 255  # the table entry of a cut not evaluated yet: the cut is at least 0
LOW = 128    # entries below LOW are exact; an entry e >= LOW: the cut is >= UNSET - e
UNCAPPED = 1 << 16  # the cap of an exact evaluation: above every rank


class _SparseTable(dict):
    """The cut table before a width search, and of a graph above FLAT_N
    vertices: a dict of the cuts evaluated so far, read like the flat
    bytearray."""

    __slots__ = ()

    def __missing__(self, mask):
        return UNSET


class CutFunction:
    """Memoized symmetric cut function of a fixed graph.

    ``memo`` is the cut table, indexed by mask; each evaluation stores its
    entry under both X and V\\X, so a lookup needs no normalisation.  An
    entry e has one reading: if e < LOW = 128, it is the value of the cut
    X; if e >= LOW, the value is at least UNSET - e.  So UNSET = 255, the
    entry of a cut not evaluated yet, is the trivial bound 0, and a cut
    whose ranks a width decision capped at c is stored as UNSET - c, and
    so is a bound c that a search read off a block of cuts (`_bound`).  A
    search at bound k reads a bound c > k as "> k" and evaluates an entry
    again exactly when it is at least max(LOW, UNSET - k), so a bound
    outlives searches at other bounds and none is ever reset.  `f(X)`
    evaluates any entry >= LOW exactly, so it never returns a bound.

    The table starts as a dict whose missing keys read as UNSET, so that a
    few cuts cost a few entries; `search_table` turns it into a bytearray
    over all 2^n masks (at most 16 MB) when a width search starts on a
    graph of at most FLAT_N = 24 vertices.  Exact values stay below LOW up
    to 126 vertices; a genuine value v >= LOW, on a larger graph (a dict
    table), reads as the true bound UNSET - v < v and is simply evaluated
    again when it is needed.
    """

    __slots__ = ("graph", "kind", "memo", "_n", "_full", "_idx", "_rows", "_rank",
                 "_exact", "_capped")

    def __init__(self, graph: ColoredGraph, kind: str):
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if kind == "cutrk" and not isinstance(graph, SigmaGraph):
            raise GraphError("cutrk is defined only for sigma-symmetric graphs")
        self.graph = graph
        self.kind = kind
        self._n = graph.n
        self._full = (1 << graph.n) - 1
        self.memo = _SparseTable()
        self._idx = graph._index
        # made by _pack on the first cut with both sides nonempty, so that a
        # field without tables (order > 256) fails only there
        self._rows = None
        self._rank = _xor_rank  # the kernel; _pack sets it for other fields
        self._exact = self._capped = 0  # evaluations by outcome, bumped by _fill

    def mask_of(self, X: Iterable) -> int:
        m = 0
        for x in X:
            i = self._idx.get(x)
            if i is None:
                raise GraphError(f"unknown vertex {x!r}")
            m |= 1 << i
        return m

    def __call__(self, X: Union[int, Iterable]) -> int:
        try:
            mask = index(X)
        except TypeError:
            mask = self.mask_of(X)
        if not 0 <= mask <= self._full:
            raise GraphError("subset mask out of range")
        v = self.memo[mask]
        return v if v < LOW else self._fill(mask)

    def search_table(self, k: int, capped: bool) -> tuple:
        """The cut table for a width search at bound k, which may read most
        of the 2^n masks, the cap for `_fill` and the threshold from which
        an entry must be evaluated again.  Up to FLAT_N vertices, the dict
        table is first copied into a flat bytearray, which then replaces
        it.  The cap is k + 1 if capped and 0 <= k < UNSET - LOW, so that
        the bound UNSET - (k + 1) stays >= LOW, else UNCAPPED (exact
        values).  The threshold max(LOW, UNSET - k) selects the entries
        that are neither exact nor a bound c > k.  The last value, small,
        is the largest side of a block whose `_bound` cannot exceed k: a
        rank of M[A][C] is at most min(|A|, |C|)."""
        memo = self.memo
        if memo.__class__ is not bytearray and self._n <= FLAT_N:
            flat = bytearray((UNSET,)) * (self._full + 1)
            for mask, v in memo.items():
                flat[mask] = v
            self.memo = memo = flat
        cap = k + 1 if capped and 0 <= k < UNSET - LOW else UNCAPPED
        kind = self.kind
        small = k if kind == "cutrk" else k // 2 if kind == "bicutrk" else (k - 1) // 2
        return memo, cap, max(LOW, UNSET - k), small

    def _fill(self, mask: int, cap: int = UNCAPPED) -> int:
        """Evaluate the cut mask with each rank stopped at cap, store the
        entry under mask and V\\mask: the value, or UNSET - cap if it
        reached cap, and count the evaluation."""
        X, Y = mask, self._full ^ mask
        if not X or not Y:
            v = int(self.kind == "lambda")
        else:
            if self._rows is None:
                self._pack()
            R, rank, kind = self._rows, self._rank, self.kind
            if kind == "cutrk":
                if Y.bit_count() < X.bit_count():
                    X, Y = Y, X  # M[Y][X] = sigma(M[X][Y])^T has the same rank
                v = rank(R, X, Y, cap)
            elif kind == "bicutrk":
                v = rank(R, X, Y, cap)
                if v < cap:
                    v += rank(R, Y, X, cap - v)
            else:  # r(X u X') + r(Y u Y') - r(V u V') + 1, r(V u V') = n
                n = self._n
                r = rank(R, X | X << n, self._full, UNCAPPED)
                v = r + rank(R, Y | Y << n, self._full, cap + n - 1 - r) - n + 1
        if v < cap:
            self._exact += 1
        else:
            v = UNSET - cap
            self._capped += 1
        self.memo[mask] = self.memo[self._full ^ mask] = v
        return v

    def _bound(self, A: int, C: int, cap: int) -> int:
        """The entry UNSET - b for a lower bound b on the cut of every X
        with A <= X and C <= V\\X (A, C disjoint and nonempty, once the
        rows are packed): b is rk M[A][C], plus rk M[C][A] for bicutrk, plus 1
        for lambda, whose packed rows n.. (of (I | M)^T) are M's columns.
        Each rank stops so that b <= min(cap, UNSET - LOW), so the entry is
        a bound; for lambda, cap >= 2."""
        R, rank = self._rows, self._rank
        if cap > UNSET - LOW:
            cap = UNSET - LOW
        if self.kind == "cutrk":
            b = rank(R, A, C, cap)
        elif self.kind == "bicutrk":
            b = rank(R, A, C, cap)
            if b < cap:
                b += rank(R, C, A, cap - b)
        else:
            n = self._n
            b = 1 + rank(R, C << n, A, cap - 1)
            if b < cap:
                b += rank(R, A << n, C, cap - b)
        return UNSET - b

    def evaluations(self) -> int:
        """The number of cut evaluations {X, V\\X} so far, a cut evaluated
        again counting again."""
        return self._exact + self._capped

    def capped_evaluations(self) -> int:
        """The number of those evaluations that stopped at a cap."""
        return self._capped

    def _pack(self):
        F, rows = self.graph.field, self.graph.rows()
        if self.kind == "lambda":  # the 2n rows of (I | M)^T: e_x, then M[:, x]
            n, columns = self._n, list(zip(*rows))
            rows = [(0,) * x + (1,) + (0,) * (n - 1 - x) for x in range(n)] + columns
        if F.q == 2:
            self._rows = [sum(1 << j for j, e in enumerate(row) if e) for row in rows]
        else:
            _require_tables(F)
            if F.q == 3:
                self._rows = [(sum(1 << j for j, e in enumerate(row) if e == 1),
                               sum(1 << j for j, e in enumerate(row) if e == 2))
                              for row in rows]
                self._rank = _gf3_rank
            elif F.q in (4, 8, 16):  # from GF(32) on, _list_rank is faster
                self._rows, self._rank = _gf2k_kernel(F, self._n, rows)
            else:
                tables = F.SUB, F.MUL, F.INV
                self._rows = rows
                self._rank = lambda R, X, Y, cap: _list_rank(R, _bits(X), _bits(Y),
                                                             tables, cap)


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _xor_rank(R, rows: int, cols: int, cap: int) -> int:
    """Rank over GF(2) of the bit-packed rows R[i] & cols, i in rows, or cap
    if that is smaller.  Each basis vector has its own leading bit, and
    v ^ b < v exactly when v has the leading bit of b (min(v, v ^ b)
    without the builtin call)."""
    basis = []
    while rows:
        low = rows & -rows
        rows ^= low
        v = R[low.bit_length() - 1] & cols
        for b in basis:
            w = v ^ b
            if w < v:
                v = w
        if v:
            basis.append(v)
            if len(basis) == cap:
                break
    return len(basis)


def _gf3_rank(R, rows: int, cols: int, cap: int) -> int:
    """Rank over GF(3) of the rows R[i] restricted to cols, i in rows, each
    R[i] a pair of planes (entry = 1, entry = 2).  (a, b) + (c, d) is
    (b | d) ^ t, (a | c) ^ t with t = (a | d) ^ (b | c), and -(c, d) is
    (d, c).  A basis row (c, d) has leading bit L and entry 1 there; a row
    with entry 1 at L takes it off, a row with entry 2 adds it.  Once the
    rank reaches the number of columns or cap, the other rows are not
    read."""
    limit = cols.bit_count()
    if cap < limit:
        limit = cap
    basis = []
    while rows:
        low = rows & -rows
        rows ^= low
        a, b = R[low.bit_length() - 1]
        a &= cols
        b &= cols
        for L, c, d in basis:
            if a & L:  # (a, b) + (d, c)
                t = (a | c) ^ (b | d)
                a, b = (b | c) ^ t, (a | d) ^ t
            elif b & L:  # (a, b) + (c, d)
                t = (a | d) ^ (b | c)
                a, b = (b | d) ^ t, (a | c) ^ t
        u = a | b
        if u:
            L = u & -u
            if b & L:  # scale by 2 = -1 for a leading entry 1
                a, b = b, a
            basis.append((L, a, b))
            if len(basis) == limit:
                break
    return len(basis)


def _gf2k_kernel(F, n: int, rows):
    """The packed rows and the rank kernel over GF(2^k), k = 2..4.  Plane i
    of a row is bits i*n to i*n + n - 1, bit j set where entry j's code has
    bit i.  Codes add by XOR (towers too), so scaling a row by a constant c
    is GF(2)-linear: the row is the sum over j of its plane w_j times the
    element 2^j, and w_j * spread[c * 2^j] puts w_j into the planes of that
    product.  For a leading entry e, scale[spread[e]] pairs the shift of
    each plane j with the k products (2^t / e) * 2^j, t = 0..k-1, laid k*n
    bits apart, so k multiplications give all k multiples of a basis row."""
    k, MUL, INV = F.k, F.MUL, F.INV
    kn = k * n
    spread = [sum(1 << i * n for i in range(k) if c >> i & 1) for c in range(F.q)]
    ones, low_n, low_kn = spread[-1], (1 << n) - 1, (1 << kn) - 1
    scale = {spread[e]: [(j * n, sum(spread[MUL[MUL[INV[e]][1 << t]][1 << j]] << t * kn
                                     for t in range(k))) for j in range(k)]
             for e in range(1, F.q)}
    shifts = [(t * n, t * kn) for t in range(k)]
    R = [sum(spread[e] << j for j, e in enumerate(row) if e) for row in rows]

    def rank(R, rows: int, cols: int, cap: int) -> int:
        """Rank of the packed rows R[i] restricted to cols, i in rows, or cap
        if that is smaller.  The
        basis is a flat list of pairs (bit, m): m is a basis row times the
        element 2^t / (its leading entry), so its entry at the row's leading
        column is 2^t, bit is that column in plane t, and XORing m in
        clears bit t of an entry there.  The row that makes the rank reach
        the number of columns or cap, or the last row, needs no multiples."""
        limit = cols.bit_count()
        if cap < limit:
            limit = cap
        cols *= ones  # the column mask in every plane
        r, basis = 0, []
        append = basis.append
        while rows:
            low = rows & -rows
            rows ^= low
            v = R[low.bit_length() - 1] & cols
            for bit, m in basis:
                if v & bit:
                    v ^= m
            if v:
                r += 1
                if r == limit or not rows:
                    return r
                col = ((v & -v).bit_length() - 1) % n
                mults = 0
                for sh, c in scale[v >> col & ones]:
                    mults ^= (v >> sh & low_n) * c
                L = 1 << col
                for sh, sh_k in shifts:
                    append((L << sh, mults >> sh_k & low_kn))
        return r

    return R, rank


def _list_rank(A, rows, cols, tables, cap) -> int:
    """Rank of A[rows][cols] (A a list of code rows, rows and cols nonempty,
    tables the field's SUB, MUL and INV), first-nonzero pivots, or cap if
    that is smaller."""
    if len(cols) == 1:  # itemgetter of one index returns the entry itself
        return int(any(A[i][cols[0]] for i in rows))
    SUB, MUL, INV = tables
    pick = itemgetter(*cols)
    m = [pick(A[i]) for i in rows]
    h = len(m)
    rank = 0
    for c in range(len(cols)):
        for p in range(rank, h):
            if m[p][c]:
                break
        else:
            continue
        if p != rank:
            m[rank], m[p] = m[p], m[rank]
        prow = m[rank]
        pinv = INV[prow[c]]
        for i in range(rank + 1, h):
            row = m[i]
            e = row[c]
            if e:
                me = MUL[MUL[e][pinv]]
                m[i] = [SUB[x][me[y]] for x, y in zip(row, prow)]
        rank += 1
        if rank == h or rank == cap:
            break
    return rank


def cutrk(G: SigmaGraph, X) -> int:
    return CutFunction(G, "cutrk")(X)


def bicutrk(G: ColoredGraph, X) -> int:
    return CutFunction(G, "bicutrk")(X)


def matroid_lambda(G: ColoredGraph, X) -> int:
    return CutFunction(G, "lambda")(X)

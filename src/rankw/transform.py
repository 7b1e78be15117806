"""Lambda-local complementation, pivot complementation, equivalence orbits,
minor containment, isomorph-free generation, and minimal-obstruction search.

The update for a lambda-local complementation at x is
    M'[z][t] = M[z][t] + lambda * M[z][x] * M[x][t]      (x not in {z, t})
with row/column x and the diagonal untouched.  Pivot complementation at an
edge xy applies the nine-case formula covering interior entries, the x/y
rows and columns, and the two pivot entries.

A graph's matrix is the row-major tuple of its n*n element codes
(`ColoredGraph.codes`), and the moves and the one-vertex deletions map such
tuples to tuples through the field's tables.  `local_complement` and
`pivot_complement` apply one move to a graph through the same kernels.  The
searches share one closure engine that never builds a graph per move: a
state is a code tuple, which is also the key under which the state is
deduplicated.  The engine walks the closure breadth first: a tuple it has
handled before is skipped unlabelled, and each new canonical form keeps the
first state that reached it.  Orbits, minor queries and the obstruction
search run on it.

Generation and the obstruction search share one extension step, which adds
a last vertex to each graph of a level below.  Generation extends every
graph; the obstruction search extends only the class of connected graphs of
width <= k, which every obstruction extends too, tests the width of a new
graph only when no orbit search has settled it, and looks the deletions of
a graph up in the class's forms.  A graph object (and its validation) is
made only for a graph that is returned or whose width is tested.

Both searches use the automorphisms that canonical labelling finds (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  Moves at
vertices (or edges, or extension columns) in one orbit of a graph's
automorphisms give isomorphic graphs, so the engine makes one local move or
deletion per vertex orbit and one pivot per orbit of ordered edges (of
unordered ones when sigma(1) = 1), and generation labels one extension column per orbit, each time the first in
the search order.  What is skipped would have been dropped as a repeat of
that first member, so the levels, the representatives and their order are
those of the unpruned search.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from itertools import chain, product
from math import isqrt
from typing import ClassVar, Optional

from .cutrank import CutFunction
from .fields import Field, FieldError, Sesquimorphism, sigma_compatible_set
from .graphs import ColoredGraph, GraphError, SigmaGraph, _canonical_labelling, \
    _check_sigma_field, _components, _symmetric, digraph_gf2
from .layouts import _decided_tree
from .matrix import _require_tables

RELATIONS = ("sigma-vertex", "vertex", "pivot")
MAX_STATES = 200_000   # the default budget of the closure searches, in forms


def obstruction_size_bound(k: int) -> int:
    """Largest possible vertex count of a width-k obstruction: (6^(k+1)-1)/5."""
    return (6 ** (k + 1) - 1) // 5


class SearchBudgetError(RuntimeError):
    """A closure search ran out of its state budget before finishing."""


def local_complement(G: ColoredGraph, x, lam: int) -> ColoredGraph:
    """Lambda-local complementation at x, returned through `_graph`: a
    SigmaGraph exactly when G is one and the new matrix is sigma-symmetric.
    A sigma-symmetric input stays so when lambda is sigma-compatible, or
    when x has at most one neighbour (the move then changes nothing); any
    other move breaks the symmetry of the entries it changes."""
    F = G.field
    _require_tables(F)
    if F._check(lam) == 0:
        raise FieldError("lambda must be nonzero")
    [new] = _local_moves(G.codes, G.n, G.index(x), [F.MUL[lam]], F.ADD, F.MUL)
    return _graph(F, G.vertices, new, getattr(G, "sigma", None), None)


def pivot_complement(G: SigmaGraph, x, y) -> SigmaGraph:
    """Pivot complementation at the edge xy (requires adj[x][y] != 0)."""
    if not isinstance(G, SigmaGraph):
        raise GraphError("pivot complementation needs a sigma-symmetric graph")
    F = G.field
    _require_tables(F)
    i, j = G.index(x), G.index(y)
    if G.codes[i * G.n + j] == 0:
        raise GraphError(f"pivot needs an edge: adj[{x!r}][{y!r}] = 0")
    return SigmaGraph(F, G.vertices, _pivot(G.codes, G.n, i, j, F, G.sigma.one),
                      G.sigma)


# -- the closure engine on packed states ----------------------------------------

def _local_moves(s: tuple, n: int, x: int, lam_rows, ADD, MUL) -> list:
    """The lambda-local complementations of s at x, one per row MUL[lambda]
    in lam_rows.  Only rows z with M[z][x] != 0 and columns t with
    M[x][t] != 0 change; the zero diagonal keeps x out of both."""
    row_x = s[x * n:x * n + n]
    cols = [(t, e) for t, e in enumerate(row_x) if e]
    rows = [(z * n, z, c) for z, c in enumerate(s[x::n]) if c]
    out = []
    for lam_row in lam_rows:
        new = list(s)
        for b, z, c in rows:
            m = MUL[lam_row[c]]
            for t, e in cols:
                if t != z:
                    new[b + t] = ADD[new[b + t]][m[e]]
        out.append(tuple(new))
    return out


def _pivot(s: tuple, n: int, i: int, j: int, F: Field, s1: int) -> tuple:
    """Pivot complementation of s at the edge ij over F, sigma(1) = s1:
    M'[z][t] = M[z][t] - M[z][x] M[y][t] / M[y][x] - M[z][y] M[x][t] / M[x][y]
    inside, then the i/j rows and columns overwrite whatever it wrote
    there.

    With s1 = 1 the pivots at ij and at ji are equal, on any matrix.  Write
    a = M[x][y] and b = M[y][x].  The interior formula is symmetric in x
    and y.  The pivot at ij sets row i, column j and M'[x][y] to
    M[y][.] / b, M[.][x] / b and -1 / b, and row j, column i and M'[y][x]
    to s1 M[x][.] / a, s1 M[.][y] / a and -s1^2 / a.  The pivot at ji sets
    the same six to s1 M[y][.] / b, s1 M[.][x] / b, -s1^2 / b, M[x][.] / a,
    M[.][y] / a and -1 / a: each pair differs by a factor s1 or s1^2."""
    SUB, MUL, INV, NEG = F.SUB, F.MUL, F.INV, F.NEG
    inv_yx = INV[s[j * n + i]]
    inv_xy = INV[s[i * n + j]]
    m_yx = MUL[inv_yx]
    m_xy = MUL[inv_xy]
    m_a = MUL[MUL[s1][inv_xy]]          # times sigma(1) / M[x][y]
    row_i, row_j = s[i * n:i * n + n], s[j * n:j * n + n]
    cols_i = [(t, e) for t, e in enumerate(row_i) if e]
    cols_j = [(t, e) for t, e in enumerate(row_j) if e]
    new = list(s)
    for z in range(n):
        if z == i or z == j:
            continue
        b = z * n
        zi, zj = s[b + i], s[b + j]
        if zi:
            m = MUL[m_yx[zi]]
            for t, e in cols_j:
                if t != z:
                    new[b + t] = SUB[new[b + t]][m[e]]
        if zj:
            m = MUL[m_xy[zj]]
            for t, e in cols_i:
                if t != z:
                    new[b + t] = SUB[new[b + t]][m[e]]
        new[b + i] = m_a[zj]
        new[b + j] = m_yx[zi]
    new[i * n:i * n + n] = [m_yx[e] for e in row_j]
    new[j * n:j * n + n] = [m_a[e] for e in row_i]
    new[i * n + i] = new[j * n + j] = 0
    new[i * n + j] = NEG[inv_yx]
    new[j * n + i] = NEG[m_a[s1]]
    return tuple(new)


def _delete(s: tuple, n: int, d: int) -> tuple:
    """s without vertex d."""
    return tuple(chain.from_iterable(s[b:b + d] + s[b + d + 1:b + n]
                                     for b in range(0, n * n, n) if b != d * n))


def _firsts(items, gens, image):
    """The items, in their order, that come first in their orbit under the
    group that the permutations in gens generate; image(item, g) is the image
    of an item under g, and every orbit lies inside items."""
    if not gens:
        yield from items
        return
    done = set()
    for x in items:
        if x in done:
            continue
        yield x
        done.add(x)
        stack = [x]
        while stack:
            u = stack.pop()
            for g in gens:
                w = image(u, g)
                if w not in done:
                    done.add(w)
                    stack.append(w)


def _vertex_image(v: int, g) -> int:
    return g[v]


def _successors(field: Field, relation: str, sigma):
    """The relation's moves on code tuples: a function from (codes, n, gens)
    to the list of successor code tuples, in the order of vertex index, then
    lambda code (local moves) or edge (i, j) in row-major order (pivots).
    gens are automorphisms of the matrix; only the first vertex (local
    moves) or edge (pivots) of each of their orbits is moved at.  sigma is
    the start graph's sesqui-morphism, or None; it picks the lambdas of
    "sigma-vertex" and sigma(1) of the pivots, never a state's class.

    Only with sigma(1) = 1 are the pivots at ij and ji equal, and then only
    the edges with i < j are pivoted at, and an edge's image (g[i], g[j]) is
    read as (min, max).  The earliest ordered edge of an orbit together with
    its reversal is such an edge, and the later ones give that edge's graph
    or an isomorphic one, so the new forms and their order stay the same."""
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    if sigma is None and relation != "vertex":
        raise GraphError(f"{relation} relation needs sigma-symmetric graphs")
    _require_tables(field)
    if relation == "pivot":
        s1 = sigma.one

        def pivot_moves(s, n, gens):
            def image(k, g):
                a, b = g[k // n], g[k % n]
                return b * n + a if s1 == 1 and b < a else a * n + b
            edges = [k for k, e in enumerate(s) if e and (s1 != 1 or k // n < k % n)]
            return [_pivot(s, n, *divmod(k, n), field, s1)
                    for k in _firsts(edges, gens, image)]
        return pivot_moves
    lams = sigma_compatible_set(sigma) if relation == "sigma-vertex" else field.units()
    ADD, MUL = field.ADD, field.MUL
    lam_rows = [MUL[lam] for lam in lams]

    def local_moves(s, n, gens):
        out = []
        for x in _firsts(range(n), gens, _vertex_image):
            out += _local_moves(s, n, x, lam_rows, ADD, MUL)
        return out
    return local_moves


def _closure(q: int, start: tuple, start_lab, successors):
    """Breadth-first closure from the code tuple start, whose labelling is
    start_lab, to its end.  Yields (codes, labelling) for each code tuple of
    a new canonical form, in first-reached order; codes handled before are
    skipped without labelling.  Each state keeps the automorphisms of its
    labelling for its expansion, so successors(codes, n, gens) makes one
    move per orbit: the others give forms that the first has put in seen.
    There is no budget: the caller ends the search by no longer iterating."""
    seen = {start_lab[0]}
    handled = {start}
    frontier = [(start, start_lab[2])]
    while frontier:
        nxt = []
        for s, gens in frontier:
            for codes in successors(s, isqrt(len(s)), gens):
                if codes in handled:
                    continue
                handled.add(codes)
                lab = _canonical_labelling(q, isqrt(len(codes)), codes)
                if lab[0] in seen:
                    continue
                seen.add(lab[0])
                yield codes, lab
                nxt.append((codes, lab[2]))
        frontier = nxt


def _orbit(q: int, start: tuple, start_lab, successors, max_states: int) -> list:
    """The (codes, labelling) pairs of the orbit members other than start;
    SearchBudgetError at the (max_states + 1)-th form, the start counted."""
    members = []
    for member in _closure(q, start, start_lab, successors):
        if len(members) + 1 >= max_states:
            raise SearchBudgetError(f"orbit exceeded {max_states} states")
        members.append(member)
    return members


def _graph(field: Field, vertices, codes: tuple, sigma, lab) -> ColoredGraph:
    """The graph of a code tuple, keeping lab, its labelling (None if not
    yet computed).  Its class comes from the matrix: a SigmaGraph when sigma
    is given and the matrix is sigma-symmetric, else a ColoredGraph."""
    if sigma is not None and _symmetric(len(vertices), codes, sigma):
        G = SigmaGraph(field, vertices, codes, sigma)
    else:
        G = ColoredGraph(field, vertices, codes)
    G._canon = lab
    return G


def equivalence_orbit_graphs(G: ColoredGraph, relation: str,
                             max_states: int = MAX_STATES) -> list[ColoredGraph]:
    """BFS closure of G under the relation's moves, one representative per
    isomorphism class, in first-reached order (SearchBudgetError past
    max_states).  The class comes from the matrix, not from the path: a
    representative of a graph with a sigma is a SigmaGraph exactly when its
    matrix is sigma-symmetric (always, except under "vertex")."""
    if G.n > 10:
        raise GraphError("orbit search limited to n <= 10")
    sigma = getattr(G, "sigma", None)
    successors = _successors(G.field, relation, sigma)
    members = _orbit(G.field.q, G.codes, G._labelling(), successors, max_states)
    return [G] + [_graph(G.field, G.vertices, codes, sigma, lab)
                  for codes, lab in members]


def equivalence_orbit(G: ColoredGraph, relation: str,
                      max_states: int = MAX_STATES) -> set:
    """Canonical forms of the orbit members."""
    return {H.canonical_form() for H in
            equivalence_orbit_graphs(G, relation, max_states)}


@dataclass(frozen=True)
class MinorSearchResult:
    """states counts the distinct forms reached, the start included."""
    found: bool
    complete: bool        # False only for a negative cut off by the budget
    states: int           # at most max_states + 1

    def __bool__(self) -> bool:
        return self.found


def _minor_successors(field: Field, relation: str, sigma, top: int, bottom: int):
    """The successors of `is_minor`'s search: the relation's moves on states
    of top vertices, then the deletions of one vertex per orbit of gens on
    states of more than bottom vertices."""
    moves = _successors(field, relation, sigma)

    def successors(s, n, gens):
        out = moves(s, n, gens) if n == top else []
        if n > bottom:
            out += [_delete(s, n, d) for d in _firsts(range(n), gens, _vertex_image)]
        return out
    return successors


def is_minor(H: ColoredGraph, G: ColoredGraph, relation: str,
             max_states: int = MAX_STATES) -> MinorSearchResult:
    """Does some graph reachable from G by moves and vertex deletions contain
    an induced subgraph isomorphic to H?  A move and the deletion of another
    vertex commute, so every such minor is an induced subgraph of a member of
    G's orbit: the search applies moves to graphs of G's size only and
    deletions down to H's size, breadth-first with canonical-form
    deduplication.  Reaching max_states + 1 forms (the start is one) without
    H ends the search with complete=False: only the budget ran out."""
    if G.field != H.field:
        raise GraphError("graphs live over different fields")
    if H.n > G.n or G.n > 10:
        if G.n > 10:
            raise GraphError("minor search limited to n <= 10")
        return MinorSearchResult(False, True, 0)
    target = H.canonical_form()
    start_lab = G._labelling()
    if G.n == H.n and start_lab[0] == target:
        return MinorSearchResult(True, True, 1)
    sigma = getattr(G, "sigma", None)
    successors = _minor_successors(G.field, relation, sigma, G.n, H.n)
    states = 1
    for _, lab in _closure(G.field.q, G.codes, start_lab, successors):
        states += 1
        if lab[0] == target:
            return MinorSearchResult(True, True, states)
        if states > max_states:
            return MinorSearchResult(False, False, states)
    return MinorSearchResult(False, True, states)


# -- isomorph-free generation of sigma-symmetric graphs ------------------------

def _extend(field: Field, sigma: Sesquimorphism, bases, m: int):
    """Yield the code tuples of the extensions by a last vertex of the bases,
    (codes, labelling) pairs on m - 1 vertices, base by base: the base's
    matrix with a last column c (entry 0 varying fastest) and sigma(c) as
    last row.  The first extension of each base is by the zero column.  For an
    automorphism g of the base, the extensions by c and by c o g (entry i is
    c[g[i]]) are isomorphic, so only the first column of each orbit of the
    base's automorphisms is made."""
    q, sig = field.q, sigma.table
    for base, (_, _, autos) in bases:
        rows = [base[i:i + m - 1] for i in range(0, (m - 1) ** 2, m - 1)]
        cols = (digits[::-1] for digits in product(range(q), repeat=m - 1))
        for col in _firsts(cols, autos, lambda c, g: tuple(map(c.__getitem__, g))):
            yield tuple(chain.from_iterable(
                [r + (e,) for r, e in zip(rows, col)]
                + [[sig[e] for e in col], (0,)]))


def _generate(field: Field, sigma: Sesquimorphism, n: int):
    """Yield the levels m = 1..n of the vertex-extension search: each is a
    list of (codes, labelling), one per isomorphism class, in first-reached
    order; level m labels the extensions of every graph of level m - 1."""
    q = field.q
    level = [((0,), _canonical_labelling(q, 1, (0,)))]
    yield level
    for m in range(2, n + 1):
        nxt: dict = {}
        for codes in _extend(field, sigma, level, m):
            lab = _canonical_labelling(q, m, codes)
            if lab[0] not in nxt:
                nxt[lab[0]] = (codes, lab)
        level = list(nxt.values())
        yield level


def sigma_symmetric_graphs(field: Field, sigma: Sesquimorphism,
                           n: int) -> list[SigmaGraph]:
    """All sigma-symmetric graphs on n >= 0 vertices up to isomorphism, grown
    by vertex extension with canonical-form rejection.  Vertices are 0..n-1."""
    _check_sigma_field(sigma, field)
    if n < 0:
        raise GraphError(f"graph size n = {n} must be >= 0")
    if n == 0:
        return [SigmaGraph(field, (), (), sigma)]
    *_, level = _generate(field, sigma, n)
    return [_graph(field, range(n), codes, sigma, lab) for codes, lab in level]


# -- obstructions ---------------------------------------------------------------

@dataclass(frozen=True)
class Obstruction:
    graph: SigmaGraph
    relation: str
    k: int


@dataclass
class ObstructionStats:
    """Counters of an obstruction search, plain ints in one dict per count,
    keyed by the vertex count n of a level: the extensions labelled, the
    distinct connected graphs among them, the width decisions, the class
    size (connected graphs of width <= k), the candidates (graphs of width
    > k that needed a minimality verdict), and among those, the ones whose
    orbit search made the verdict and the ones that reused the verdict of an
    earlier search.  `per` names the key in the CLI's `stats:` lines."""
    per: ClassVar[str] = "n"
    extensions_labelled: dict[int, int] = dataclass_field(default_factory=dict)
    connected_graphs: dict[int, int] = dataclass_field(default_factory=dict)
    width_decisions: dict[int, int] = dataclass_field(default_factory=dict)
    class_size: dict[int, int] = dataclass_field(default_factory=dict)
    candidates: dict[int, int] = dataclass_field(default_factory=dict)
    orbit_searches: dict[int, int] = dataclass_field(default_factory=dict)
    verdicts_reused: dict[int, int] = dataclass_field(default_factory=dict)


def find_obstructions(field: Field, sigma: Sesquimorphism, relation: str,
                      k: int, max_n: int,
                      stats: Optional[ObstructionStats] = None) -> list[Obstruction]:
    """All sigma-symmetric graphs on <= max_n vertices (up to isomorphism)
    whose width exceeds k while every proper minor has width at most k, in
    the order of their canonical forms; each graph is its canonical matrix.

    Minimality reduces to co-dimension 1: moves at surviving vertices commute
    with a deletion, so a proper minor of width > k forces a one-vertex-deleted
    minor of width > k.  Orbits share a width, so each orbit member is checked
    against its single-vertex deletions only, and orbits share minimality:
    each orbit is searched once, and its verdict holds for every later
    candidate whose form lies in it.

    The search grows only the class of connected graphs of width <= k.  A
    connected graph has a vertex whose deletion leaves it connected (a leaf
    of a spanning tree), and a deletion never raises the width, so each
    connected graph of width <= k extends one of the class a level below;
    so does each obstruction, which is connected and has only deletions of
    width <= k.  A graph's width is the largest of its components', so a
    deletion has width <= k exactly when the form of each of its components
    is in the class.  An ObstructionStats passed as stats receives the
    counters of each level.

    The "vertex" relation needs every unit to be sigma-compatible, so that
    its moves keep the graphs sigma-symmetric (cut-rank is defined on those
    only).
    """
    if relation not in RELATIONS:
        raise ValueError(f"relation must be one of {RELATIONS}")
    if max_n > 8:
        raise GraphError("obstruction search limited to max_n <= 8")
    if k < 0:
        raise GraphError(f"width bound k = {k} must be >= 0")
    _check_sigma_field(sigma, field)
    if relation == "vertex" and len(sigma_compatible_set(sigma)) != field.q - 1:
        raise GraphError("the vertex relation needs every unit to be "
                         "sigma-compatible (sigma(l) = l * sigma(1)^2); use "
                         "sigma-vertex")
    q = field.q
    successors = _successors(field, relation, sigma)
    stats = ObstructionStats() if stats is None else stats
    # a form is kept as the bytes of its certificate (codes < q <= 256, as
    # _successors checked): a level's seen set, one form per connected
    # graph, is the search's largest store
    level = [((0,), _canonical_labelling(q, 1, (0,)))]
    narrow = {bytes(lab[0][2]) for _, lab in level}   # the class's forms

    # is_narrow is asked about graphs a vertex smaller than the level, whose
    # class is complete, so its answers stay right.  Extensions by columns
    # that differ in entry d share their deletion of vertex d, and entry 0
    # varies fastest: a small cache catches most repeats.
    @lru_cache(maxsize=4096)
    def is_narrow(codes: tuple, m: int) -> bool:
        """Is the graph's width <= k: is each component's form in the class?"""
        for comp in _components(m, codes):
            part = codes if len(comp) == m else \
                tuple([codes[i * m + j] for i in comp for j in comp])
            if bytes(_canonical_labelling(q, len(comp), part)[0][2]) not in narrow:
                return False
        return True

    def deletions_narrow(codes: tuple, n: int) -> bool:
        return all(is_narrow(_delete(codes, n, d), n - 1) for d in range(n))

    verdicts: dict = {}   # form -> is its orbit minimal
    found: dict = {}
    for n in range(2, max_n + 1):
        seen: set = set()
        nxt = []
        labelled = decisions = size = searches = reused = 0
        for codes in _extend(field, sigma, level, n):
            if not any(codes[n * n - n:]):
                continue  # the new vertex is isolated
            labelled += 1
            lab = _canonical_labelling(q, n, codes)
            form = bytes(lab[0][2])
            if form in seen:
                continue
            seen.add(form)
            minimal = verdicts.get(form)
            if minimal is None:
                decisions += 1
                G = SigmaGraph(field, range(n), codes, sigma)
                if _decided_tree(G, CutFunction(G, "cutrk"), k) is not None:
                    size += 1
                    if n < max_n:
                        nxt.append((codes, lab))
                    continue
                if not deletions_narrow(codes, n):
                    continue
                searches += 1
                members = _orbit(q, codes, lab, successors, MAX_STATES)
                minimal = all(deletions_narrow(c, n) for c, _ in members)
                verdicts[form] = minimal
                for _, member_lab in members:
                    verdicts[bytes(member_lab[0][2])] = minimal
            else:
                reused += 1
            if minimal:
                found[lab[0]] = Obstruction(
                    SigmaGraph(field, range(n), lab[0][2], sigma), relation, k)
        narrow.update(bytes(lab[0][2]) for _, lab in nxt)
        level = nxt
        for counts, value in ((stats.extensions_labelled, labelled),
                              (stats.connected_graphs, len(seen)),
                              (stats.width_decisions, decisions),
                              (stats.class_size, size),
                              (stats.candidates, searches + reused),
                              (stats.orbit_searches, searches),
                              (stats.verdicts_reused, reused)):
            counts[n] = value
    return [found[c] for c in sorted(found)]


def const_graph(field: Field, sigma: Sesquimorphism, a: int) -> SigmaGraph:
    """The two-vertex graph with one edge colored a (and sigma(a) back)."""
    if field._check(a) == 0:
        raise FieldError("const graphs need a nonzero color")
    return SigmaGraph(field, (0, 1), (0, a, sigma(a), 0), sigma)


def ec_cycle(m: int) -> ColoredGraph:
    """The directed even cycle on m vertices whose orientation alternates, so
    every vertex has in-degree 2 or out-degree 2; returned in the plain GF(2)
    digraph representation."""
    if m < 4 or m % 2 != 0:
        raise GraphError("alternating cycles need an even length >= 4")
    arcs = []
    for i in range(0, m, 2):
        arcs.append((i, (i + 1) % m))
        arcs.append((i, (i - 1) % m))
    return digraph_gf2(arcs, vertices=range(m))

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
search run on it, and generation grows its extension rows as tuples too.  A
graph object (and its validation) is made only for a graph that is
returned, or when the obstruction search computes a width it has not
cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import isqrt

from .cutrank import CutFunction
from .fields import Field, FieldError, Sesquimorphism, sigma_compatible, \
    sigma_compatible_set
from .graphs import ColoredGraph, GraphError, SigmaGraph, _canonical_labelling, \
    _components, digraph_gf2
from .layouts import width_exact
from .matrix import _require_tables

RELATIONS = ("sigma-vertex", "vertex", "pivot")


def obstruction_size_bound(k: int) -> int:
    """Largest possible vertex count of a width-k obstruction: (6^(k+1)-1)/5."""
    return (6 ** (k + 1) - 1) // 5


class SearchBudgetError(RuntimeError):
    """A closure search ran out of its state budget before finishing."""


def local_complement(G: ColoredGraph, x, lam: int) -> ColoredGraph:
    """Lambda-local complementation at x.  Sigma-symmetric inputs stay
    sigma-symmetric exactly when lambda is sigma-compatible; the result is
    returned as a SigmaGraph in that case and as a plain ColoredGraph
    otherwise."""
    F = G.field
    _require_tables(F)
    if F._check(lam) == 0:
        raise FieldError("lambda must be nonzero")
    [new] = _local_moves(G.codes, G.n, G.index(x), [F.MUL[lam]], F.ADD, F.MUL)
    sigma = getattr(G, "sigma", None)
    if sigma is not None and sigma_compatible(sigma, lam):
        return SigmaGraph(F, G.vertices, new, sigma)
    return ColoredGraph(F, G.vertices, new)


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
#
# A state is (codes, sym): codes is the row-major tuple of the n*n element
# codes, sym says whether the state is still sigma-symmetric (it turns false
# for good after a move with a lambda that is not sigma-compatible).

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
    there."""
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


def _successors(field: Field, relation: str, sigma):
    """The relation's moves on packed states: a function from (codes, n, sym)
    to the list of successor states, in the order of vertex index, then
    lambda code (local moves) or edge (i, j) in row-major order (pivots).
    sigma is the start graph's sesqui-morphism, or None."""
    if relation == "pivot":
        if sigma is None:
            raise GraphError("pivot relation needs sigma-symmetric graphs")
        _require_tables(field)
        s1 = sigma.one

        def pivot_moves(s, n, sym):
            return [(_pivot(s, n, *divmod(k, n), field, s1), True)
                    for k, e in enumerate(s) if e]
        return pivot_moves
    if relation == "sigma-vertex":
        if sigma is None:
            raise GraphError("sigma-vertex relation needs sigma-symmetric graphs")
        lams = sigma_compatible_set(sigma)
    elif relation == "vertex":
        lams = list(field.units())
    else:
        raise ValueError(f"unknown relation {relation!r}")
    _require_tables(field)
    ADD, MUL = field.ADD, field.MUL
    lam_rows = [MUL[lam] for lam in lams]
    keeps = [sigma is not None and sigma_compatible(sigma, lam) for lam in lams]

    def local_moves(s, n, sym):
        out = []
        for x in range(n):
            out += zip(_local_moves(s, n, x, lam_rows, ADD, MUL),
                       [sym and keep for keep in keeps])
        return out
    return local_moves


def _closure(q: int, start, start_form, successors, max_states: int):
    """Breadth-first closure from the state start, whose canonical form is
    start_form.  Yields (state, labelling) for each state of a new canonical
    form, in first-reached order; codes handled before are skipped without
    labelling.  A state that is the max_states-th or later (start = 1) is
    not expanded, and the search then ends with its level."""
    seen = {start_form}
    handled = {start[0]}
    frontier = [start]
    truncated = False
    while frontier and not truncated:
        nxt = []
        for s, sym in frontier:
            for state in successors(s, isqrt(len(s)), sym):
                codes = state[0]
                if codes in handled:
                    continue
                handled.add(codes)
                lab = _canonical_labelling(q, isqrt(len(codes)), codes)
                if lab[0] in seen:
                    continue
                seen.add(lab[0])
                yield state, lab
                if len(seen) < max_states:
                    nxt.append(state)
                else:
                    truncated = True
        frontier = nxt


def _orbit(q: int, start, start_form, successors, max_states: int) -> list:
    """The (state, labelling) pairs of the orbit members other than start;
    SearchBudgetError when the orbit has more than max_states forms."""
    members = []
    for member in _closure(q, start, start_form, successors, max_states + 1):
        if len(members) + 1 >= max_states:
            raise SearchBudgetError(f"orbit exceeded {max_states} states")
        members.append(member)
    return members


def _graph(field: Field, vertices, codes: tuple, sigma, lab) -> ColoredGraph:
    """The graph of a packed state (a SigmaGraph when sigma is given), with
    the labelling already computed for its codes."""
    if sigma is None:
        G = ColoredGraph(field, vertices, codes)
    else:
        G = SigmaGraph(field, vertices, codes, sigma)
    G._canon = lab
    return G


def equivalence_orbit_graphs(G: ColoredGraph, relation: str,
                             max_states: int = 200_000) -> list[ColoredGraph]:
    """BFS closure of G under the relation's moves, one representative per
    isomorphism class, in first-reached order.  A representative is a
    SigmaGraph exactly when every move on the path to it kept sigma-symmetry
    (always, except under the "vertex" relation)."""
    if G.n > 10:
        raise GraphError("orbit search limited to n <= 10")
    sigma = getattr(G, "sigma", None)
    successors = _successors(G.field, relation, sigma)
    members = _orbit(G.field.q, (G.codes, sigma is not None), G.canonical_form(),
                     successors, max_states)
    return [G] + [_graph(G.field, G.vertices, codes, sigma if sym else None, lab)
                  for (codes, sym), lab in members]


def equivalence_orbit(G: ColoredGraph, relation: str, max_states: int = 200_000) -> set:
    """Canonical forms of the orbit members."""
    return {H.canonical_form() for H in
            equivalence_orbit_graphs(G, relation, max_states)}


@dataclass(frozen=True)
class MinorSearchResult:
    found: bool
    complete: bool        # True when the full closure was explored
    states: int

    def __bool__(self) -> bool:
        return self.found


def is_minor(H: ColoredGraph, G: ColoredGraph, relation: str,
             max_states: int = 200_000) -> MinorSearchResult:
    """Does some graph reachable from G by moves and vertex deletions contain
    an induced subgraph isomorphic to H?  A move and the deletion of another
    vertex commute, so every such minor is an induced subgraph of a member of
    G's orbit: the search applies moves to graphs of G's size only and
    deletions down to H's size, breadth-first with canonical-form
    deduplication; a negative with complete=False only means the budget ran
    out."""
    if G.field != H.field:
        raise GraphError("graphs live over different fields")
    if H.n > G.n or G.n > 10:
        if G.n > 10:
            raise GraphError("minor search limited to n <= 10")
        return MinorSearchResult(False, True, 0)
    target = H.canonical_form()
    start = G.canonical_form()
    if G.n == H.n and start == target:
        return MinorSearchResult(True, True, 1)
    sigma = getattr(G, "sigma", None)
    moves = _successors(G.field, relation, sigma)

    def successors(s, n, sym):
        out = moves(s, n, sym) if n == G.n else []
        if n > H.n:
            out += [(_delete(s, n, d), sym) for d in range(n)]
        return out

    states = 1
    for _, lab in _closure(G.field.q, (G.codes, sigma is not None), start,
                           successors, max_states):
        states += 1
        if lab[0] == target:
            return MinorSearchResult(True, True, states)
    # a state past the budget is left unexpanded, which ends the search
    return MinorSearchResult(False, states == 1 or states < max_states, states)


# -- isomorph-free generation of sigma-symmetric graphs ------------------------

def _generate(field: Field, sigma: Sesquimorphism, n: int):
    """Yield the levels m = 1..n of the vertex-extension search: each is a
    list of (codes, labelling), one per isomorphism class, in first-reached
    order.  Level m extends each graph of level m-1 by a last vertex, once
    per last column c (entry 0 varying fastest), with sigma(c) as last row."""
    q = field.q
    sig = sigma.table
    level = [((0,), _canonical_labelling(q, 1, (0,)))]
    yield level
    for m in range(2, n + 1):
        nxt: dict = {}
        for base, _ in level:
            rows = [base[i:i + m - 1] for i in range(0, (m - 1) ** 2, m - 1)]
            for digits in product(range(q), repeat=m - 1):
                col = digits[::-1]
                codes = tuple(chain.from_iterable(
                    [r + (e,) for r, e in zip(rows, col)]
                    + [[sig[e] for e in col], (0,)]))
                lab = _canonical_labelling(q, m, codes)
                if lab[0] not in nxt:
                    nxt[lab[0]] = (codes, lab)
        level = list(nxt.values())
        yield level


def sigma_symmetric_graphs(field: Field, sigma: Sesquimorphism, n: int,
                           connected_only: bool = False) -> list[SigmaGraph]:
    """All sigma-symmetric graphs on n vertices up to isomorphism, grown by
    vertex extension with canonical-form rejection.  Vertices are 0..n-1."""
    if sigma.field != field:
        raise GraphError("sesqui-morphism is over a different field")
    *_, level = _generate(field, sigma, n)
    m = max(n, 1)
    return [_graph(field, range(m), codes, sigma, lab) for codes, lab in level
            if not connected_only or len(_components(m, codes)) <= 1]


# -- obstructions ---------------------------------------------------------------

@dataclass(frozen=True)
class Obstruction:
    graph: SigmaGraph
    relation: str
    k: int


def find_obstructions(field: Field, sigma: Sesquimorphism, relation: str,
                      k: int, max_n: int,
                      orbit_budget: int = 200_000) -> list[Obstruction]:
    """All sigma-symmetric graphs on <= max_n vertices (up to isomorphism)
    whose width exceeds k while every proper minor has width at most k.

    Minimality reduces to co-dimension 1: moves at surviving vertices commute
    with a deletion, so a proper minor of width > k forces a one-vertex-deleted
    minor of width > k.  Orbits share a width, so each orbit member is checked
    against its single-vertex deletions only, and orbits share minimality:
    each orbit is searched once, and its verdict holds for every later
    candidate whose form lies in it.

    The "vertex" relation needs every unit to be sigma-compatible, so that
    its moves keep the graphs sigma-symmetric (cut-rank is defined on those
    only).
    """
    if relation not in RELATIONS:
        raise ValueError(f"relation must be one of {RELATIONS}")
    if max_n > 8:
        raise GraphError("obstruction search limited to max_n <= 8")
    if sigma.field != field:
        raise GraphError("sesqui-morphism is over a different field")
    if relation == "vertex" and len(sigma_compatible_set(sigma)) != field.q - 1:
        raise GraphError("the vertex relation needs every unit to be "
                         "sigma-compatible (sigma(l) = l * sigma(1)^2); use "
                         "sigma-vertex")
    q = field.q
    successors = _successors(field, relation, sigma)
    widths: dict = {}     # canonical form -> width
    forms: dict = {}      # codes -> canonical form, in front of widths

    def width_of(codes: tuple, n: int) -> int:
        form = forms.get(codes)
        if form is None:
            form = forms[codes] = _canonical_labelling(q, n, codes)[0]
        w = widths.get(form)
        if w is None:
            G = SigmaGraph(field, range(n), codes, sigma)
            w = widths[form] = width_exact(G, CutFunction(G, "cutrk")).width
        return w

    def minor_too_wide(codes: tuple, n: int) -> bool:
        return any(width_of(_delete(codes, n, d), n - 1) > k for d in range(n))

    verdicts: dict = {}   # canonical form -> is its orbit minimal
    found: dict = {}
    for n, level in enumerate(_generate(field, sigma, max_n), 1):
        if n < 2:
            continue
        for codes, lab in level:
            form = lab[0]
            if len(_components(n, codes)) > 1:
                continue
            minimal = verdicts.get(form)
            if minimal is None:
                forms[codes] = form
                # cheap pre-filter: the candidate's own single-vertex deletions
                if width_of(codes, n) <= k or minor_too_wide(codes, n):
                    continue
                members = _orbit(q, (codes, True), form, successors, orbit_budget)
                minimal = not any(minor_too_wide(c, n) for (c, _), _ in members)
                verdicts[form] = minimal
                for _, member_lab in members:
                    verdicts[member_lab[0]] = minimal
            if minimal:
                found[form] = Obstruction(_graph(field, range(n), codes, sigma, lab),
                                          relation, k)
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

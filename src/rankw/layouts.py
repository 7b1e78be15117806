"""Layouts (sub-cubic trees with leaves labeled by vertices), f-width
evaluation, exact width computation, and the rank-width / bi-rank-width
wrappers.

Exact computation is one bounded search over recursive canonical splits, an
O*(2^n) subset search in the manner of S. Oum, "Computing rank-width exactly"
(IPL 2009): rooting at the first vertex's leaf edge makes every subtree's leaf
set a committed cut, so a subset is feasible under a bound independently of
its surroundings and the search memoizes by subset.  The width deepens the
bound from the singleton floor until a tree fits.  Graphs above BNB_BOUND
vertices need force=True.

`enumerate_layouts` lists all (2n-5)!! cubic leaf-tree shapes; the search does
not use it, and it serves as the oracle of the tests and of `rankw selfcheck`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .cutrank import CutFunction
from .graphs import ColoredGraph, SigmaGraph

BNB_BOUND = 12


class LayoutError(ValueError):
    """Invalid layout or width query."""


class SizeBoundError(LayoutError):
    """Graph too large for exact search without force=True."""


class Layout:
    """A sub-cubic tree with a bijection from vertices to its leaves.

    Nodes are opaque ints; ``leaves`` maps node -> vertex label.  Internal
    nodes of enumerated layouts have degree exactly 3; parsed layouts may be
    any sub-cubic tree.
    """

    __slots__ = ("edges", "leaves", "_adj")

    def __init__(self, edges: Sequence[tuple[int, int]], leaves: dict):
        self.edges = tuple((int(u), int(v)) for u, v in edges)
        self.leaves = dict(leaves)
        adj: dict[int, list[int]] = {}
        for u, v in self.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        for leaf in self.leaves:
            adj.setdefault(leaf, [])
        self._adj = adj
        self._validate()

    def _validate(self):
        nodes = set(self._adj)
        if len(self.leaves) != len(set(self.leaves.values())):
            raise LayoutError("leaf labels must be distinct")
        if not self.leaves:
            raise LayoutError("a layout needs at least one leaf")
        for node, nbrs in self._adj.items():
            if len(nbrs) > 3:
                raise LayoutError(f"node {node} has degree {len(nbrs)} > 3")
            if node in self.leaves and len(nbrs) > 1:
                raise LayoutError(f"leaf {node} has degree {len(nbrs)}")
        if len(self.edges) != len(nodes) - 1:
            raise LayoutError("layout tree must be acyclic and connected")
        if nodes - set(self.leaves):
            # connectivity: walk from any node
            start = next(iter(nodes))
            seen = {start}
            stack = [start]
            while stack:
                for w in self._adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if seen != nodes:
                raise LayoutError("layout tree must be connected")
        for node in nodes - set(self.leaves):
            if len(self._adj[node]) < 2:
                raise LayoutError(f"internal node {node} of degree < 2")

    @property
    def vertices(self) -> tuple:
        return tuple(self.leaves.values())

    @property
    def n(self) -> int:
        return len(self.leaves)

    def edge_sides(self) -> list[tuple[tuple[int, int], frozenset]]:
        """All tree edges with their first-endpoint vertex sides, computed in
        one rooted traversal."""
        if not self.edges:
            return []
        root = self.edges[0][0]
        order: list[tuple[int, int]] = []   # (node, parent)
        stack = [(root, -1)]
        while stack:
            x, p = stack.pop()
            order.append((x, p))
            for w in self._adj[x]:
                if w != p:
                    stack.append((w, x))
        below: dict[int, set] = {}
        for x, p in reversed(order):
            s = {self.leaves[x]} if x in self.leaves else set()
            for w in self._adj[x]:
                if w != p:
                    s |= below[w]
            below[x] = s
        out = []
        parent = {x: p for x, p in order}
        for u, v in self.edges:
            if parent.get(u) == v:
                out.append(((u, v), frozenset(below[u])))
            else:
                out.append(((u, v), frozenset(self.leaves.values()) - frozenset(below[v])))
        return out

    def relabel_leaves(self, mapping: dict) -> "Layout":
        return Layout(self.edges, {node: mapping[lbl] for node, lbl in self.leaves.items()})

    def __repr__(self):
        return f"Layout(n={self.n})"

    # Newick serialization ----------------------------------------------------

    def to_newick(self) -> str:
        if self.n == 1:
            return f"{next(iter(self.leaves.values()))};"
        # root at the edge incident to the first-listed vertex's leaf
        first_leaf = next(iter(self.leaves))
        nbr = self._adj[first_leaf][0]

        def write(node: int, parent: int) -> str:
            if node in self.leaves:
                return str(self.leaves[node])
            kids = [write(w, node) for w in self._adj[node] if w != parent]
            return "(" + ",".join(kids) + ")"

        return f"({self.leaves[first_leaf]},{write(nbr, first_leaf)});"


def parse_newick(text: str, width_hint: Optional[int] = None) -> Layout:
    """Parse nested-parenthesis layouts, e.g. ((v1,v2),(v3,(v4,v5)));
    An optional `# width <k>` trailer (and # comments generally) is ignored;
    degree-2 interior nodes (including a binary root) are suppressed."""
    text = " ".join(line.split("#", 1)[0] for line in text.splitlines()).strip()
    if text.endswith(";"):
        text = text[:-1]
    pos = 0
    counter = [0]
    edges: list[tuple[int, int]] = []
    leaves: dict[int, str] = {}

    def new_node() -> int:
        counter[0] += 1
        return counter[0] - 1

    def parse() -> int:
        nonlocal pos
        if pos >= len(text):
            raise LayoutError("unexpected end of layout text")
        if text[pos] == "(":
            pos += 1
            node = new_node()
            while True:
                child = parse()
                edges.append((node, child))
                if pos >= len(text):
                    raise LayoutError("unbalanced parentheses")
                if text[pos] == ",":
                    pos += 1
                    continue
                if text[pos] == ")":
                    pos += 1
                    return node
                raise LayoutError(f"unexpected character {text[pos]!r}")
        start = pos
        while pos < len(text) and text[pos] not in "(),;":
            pos += 1
        label = text[start:pos].strip()
        if not label:
            raise LayoutError("empty leaf label")
        node = new_node()
        leaves[node] = label
        return node

    try:
        parse()
    except RecursionError:
        raise LayoutError("nesting too deep") from None
    while pos < len(text) and text[pos] in "; \t\n":
        pos += 1
    if pos != len(text):
        raise LayoutError("trailing characters after layout")
    # suppress degree-2 nodes
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    for node in list(adj):
        if node not in leaves and len(adj[node]) == 2:
            a, b = adj[node]
            adj[a].discard(node)
            adj[b].discard(node)
            adj[a].add(b)
            adj[b].add(a)
            del adj[node]
    final_edges = {tuple(sorted((u, v))) for u, nbrs in adj.items() for v in nbrs}
    if not final_edges and len(leaves) == 1:
        return Layout([], leaves)
    return Layout(sorted(final_edges), leaves)


@dataclass
class WidthResult:
    width: int
    witness: Layout
    cut_values: dict[tuple[int, int], int]
    cut_sides: dict[tuple[int, int], frozenset]

    def __repr__(self):
        return f"WidthResult(width={self.width}, n={self.witness.n})"


def layout_width(G: ColoredGraph, f: CutFunction, L: Layout) -> WidthResult:
    """Evaluate f on one side of every tree-edge bipartition; max reported."""
    if f.graph is not G and f.graph != G:
        raise LayoutError("cut function belongs to a different graph")
    if set(L.leaves.values()) != set(G.vertices):
        raise LayoutError("layout leaves do not match the graph's vertices")
    cut_values: dict[tuple[int, int], int] = {}
    cut_sides: dict[tuple[int, int], frozenset] = {}
    width = 0
    for edge, side in L.edge_sides():
        v = f(side)
        cut_values[edge] = v
        cut_sides[edge] = side
        if v > width:
            width = v
    return WidthResult(width, L, cut_values, cut_sides)


# -- exhaustive enumeration of leaf-tree shapes --------------------------------

def enumerate_layouts(n: int, labels: Optional[Sequence] = None) -> Iterator[Layout]:
    """All cubic leaf-tree shapes on n labeled leaves, each exactly once,
    built by inserting leaves in label order onto every existing edge.
    Count is (2n-5)!! for n >= 3 and 1 for n in {1, 2}."""
    if n < 1:
        raise LayoutError("a layout needs at least one leaf")
    labels = tuple(labels) if labels is not None else tuple(range(n))
    if len(labels) != n:
        raise LayoutError("label count must equal n")
    if n == 1:
        yield Layout([], {0: labels[0]})
        return
    # leaves are nodes 0..n-1, internal nodes n..2n-3
    def grow(edges: list[tuple[int, int]], next_leaf: int, next_internal: int):
        if next_leaf == n:
            yield Layout(edges, {i: labels[i] for i in range(n)})
            return
        for k in range(len(edges)):
            u, v = edges[k]
            w = next_internal
            new_edges = edges[:k] + edges[k + 1:] + [(u, w), (w, v), (w, next_leaf)]
            yield from grow(new_edges, next_leaf + 1, next_internal + 1)

    yield from grow([(0, 1)], 2, n)


def _singleton_floor(f: CutFunction, n: int) -> int:
    """max_x f({x}): a lower bound attained by every layout (n >= 2)."""
    return max(f(1 << i) for i in range(n)) if n >= 2 else 0


# -- bounded search over recursive canonical splits ----------------------------

def _splits(mask: int):
    """Proper splits (A, B) of mask with the lowest set bit kept in A."""
    low = mask & -mask
    others = mask ^ low
    sub = others
    while True:
        a = low | (others ^ sub)
        b = mask ^ a
        if b:
            yield a, b
        if sub == 0:
            break
        sub = (sub - 1) & others


def _feasible_tree(G: ColoredGraph, f: CutFunction, k: int):
    """A rooted split tree (nested index pairs; the leaf index 0 when n = 1)
    whose every cut is <= k, or None.  Rooted at the first vertex's leaf
    edge; feasibility of a subset is independent of its surroundings, so
    results memoize by mask."""
    n = G.n
    full = (1 << n) - 1
    if _singleton_floor(f, n) > k:
        return None
    if n == 1:
        return 0
    memo: dict[int, object] = {}

    def feasible(mask: int):
        if mask & (mask - 1) == 0:
            return mask.bit_length() - 1
        hit = memo.get(mask, False)
        if hit is not False:
            return hit
        result = None
        for a, b in _splits(mask):
            if f(a) > k or f(b) > k:
                continue
            ta = feasible(a)
            if ta is None:
                continue
            tb = feasible(b)
            if tb is None:
                continue
            result = (ta, tb)
            break
        memo[mask] = result
        return result

    rest = full & ~1
    t = feasible(rest)  # f(rest) = f({v0}) <= floor <= k already
    return None if t is None else (0, t)


def _tree_to_layout(tree, vertices) -> Layout:
    """Nested index pair tree -> Layout; the root pair's two sides join by a
    single tree edge."""
    n = len(vertices)
    if n == 1:
        return Layout([], {0: vertices[0]})
    edges: list[tuple[int, int]] = []
    counter = [n]

    def realize(t) -> int:
        if isinstance(t, int):
            return t
        node = counter[0]
        counter[0] += 1
        a, b = t
        edges.append((node, realize(a)))
        edges.append((node, realize(b)))
        return node

    a, b = tree
    edges.append((realize(a), realize(b)))
    return Layout(edges, {i: vertices[i] for i in range(n)})


def _check_size(n: int, force: bool) -> None:
    if n == 0:
        raise LayoutError("width of the empty vertex set is undefined")
    if n > BNB_BOUND and not force:
        raise SizeBoundError(
            f"n={n} exceeds the exact-search bound {BNB_BOUND}; pass force=True")


def width_exact(G: ColoredGraph, f: CutFunction, *, force: bool = False) -> WidthResult:
    """Minimal f-width over all layouts with a witness layout.  The bound
    deepens from the singleton floor; it needs no ceiling, since every split
    is feasible once it reaches the largest cut value."""
    _check_size(G.n, force)
    k = _singleton_floor(f, G.n)
    while (t := _feasible_tree(G, f, k)) is None:
        k += 1
    return layout_width(G, f, _tree_to_layout(t, G.vertices))


def decide_width_at_most(G: ColoredGraph, f: CutFunction, k: int, *,
                         force: bool = False) -> Optional[Layout]:
    """A witness layout of f-width <= k, or None."""
    _check_size(G.n, force)
    t = _feasible_tree(G, f, k)
    return None if t is None else _tree_to_layout(t, G.vertices)


def rankwidth(G: SigmaGraph, *, force: bool = False) -> WidthResult:
    """F-rank-width with witness (sigma-symmetric graphs only)."""
    return width_exact(G, CutFunction(G, "cutrk"), force=force)


def birankwidth(G: ColoredGraph, *, force: bool = False) -> WidthResult:
    """F-bi-rank-width with witness (any F*-graph)."""
    return width_exact(G, CutFunction(G, "bicutrk"), force=force)

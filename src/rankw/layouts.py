"""Layouts (sub-cubic trees with leaves labeled by vertices), f-width
evaluation, exact width computation, and the rank-width / bi-rank-width
wrappers.

Exact computation is one bounded search over recursive canonical splits, an
O*(2^n) subset search in the manner of S. Oum, "Computing rank-width exactly"
(IPL 2009): rooting at the first vertex's leaf edge makes every subtree's leaf
set a committed cut, so a subset is feasible under a bound independently of
its surroundings.  The search runs on one explicit stack, reads cut values
straight from the CutFunction's memo (which `layout_width` reuses) and keeps
each subset's verdict across the bounds, which deepen from the singleton
floor until a tree fits.  Graphs above BNB_BOUND vertices need force=True.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from operator import is_
from typing import Optional, Sequence

from .cutrank import CutFunction
from .graphs import ColoredGraph, SigmaGraph

BNB_BOUND = 14
# a separator, or a label stripped of the spaces around it
_newick_tokens = re.compile(r"[(),;]|[^(),;\s](?:[^(),;]*[^(),;\s])?").findall


class LayoutError(ValueError):
    """Invalid layout or width query."""


class SizeBoundError(LayoutError):
    """Graph too large for exact search without force=True."""


class Layout:
    """A sub-cubic tree with a bijection from vertices to its leaves.

    Nodes are opaque ints; ``leaves`` maps node -> vertex label.  Internal
    nodes of enumerated, searched and parsed layouts have degree exactly 3;
    hand-built layouts may be any sub-cubic tree.
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
        if (len(self.edges) != len(nodes) - 1
                or len(self._walk(next(iter(nodes)))) != len(nodes)):
            raise LayoutError("layout tree must be acyclic and connected")
        for node in nodes - set(self.leaves):
            if len(self._adj[node]) < 2:
                raise LayoutError(f"internal node {node} of degree < 2")

    @property
    def vertices(self) -> tuple:
        return tuple(self.leaves.values())

    @property
    def n(self) -> int:
        return len(self.leaves)

    def _walk(self, root: int) -> list[tuple[int, Optional[int]]]:
        """(node, parent) pairs of a depth-first walk from root, without
        recursion: each reached node once, after its parent, and the subtrees
        of a node's children in reverse adjacency order, so that the reversed
        list is a post-order with children in adjacency order."""
        order, stack, seen = [], [(root, None)], {root}
        while stack:
            x, p = stack.pop()
            order.append((x, p))
            for w in self._adj[x]:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, x))
        return order

    def edge_sides(self) -> list[tuple[tuple[int, int], frozenset]]:
        """All tree edges with their first-endpoint vertex sides, computed in
        one rooted traversal."""
        order = self._walk(next(iter(self._adj)))
        below: dict[int, set] = {x: set() for x, _ in order}
        for x, p in reversed(order):
            if x in self.leaves:
                below[x].add(self.leaves[x])
            if p is not None:
                below[p] |= below[x]
        parent = dict(order)
        everything = frozenset(self.leaves.values())
        return [((u, v), frozenset(below[u]) if parent[u] == v
                 else everything - below[v]) for u, v in self.edges]

    def rooted(self, vertex) -> list[Optional[int]]:
        """The layout rooted by subdividing the edge at vertex's leaf, as a
        post-order stream: each leaf node in turn, and None wherever the two
        subtrees before it join (see `fold`).  The leaf of vertex comes
        first and the root join last; degree-2 nodes join nothing.  The
        stream is a depth-first walk from that leaf, reversed, so children
        come in adjacency order; a layout is a tree, so the walk only skips
        each node's parent (`_walk` keeps a seen set for `_validate`)."""
        leaves, adj = self.leaves, self._adj
        for start, v in leaves.items():
            if v == vertex:
                break
        else:
            raise LayoutError(f"{vertex!r} is not a leaf label of the layout")
        walk, stack = [], [(start, None)]
        while stack:
            x, p = stack.pop()
            if x in leaves:
                walk.append(x)
            elif len(adj[x]) == 3:
                walk.append(None)
            for w in adj[x]:
                if w != p:
                    stack.append((w, x))
        return [start, *walk[:0:-1], None] if len(walk) > 1 else [start]

    def relabel_leaves(self, mapping: dict) -> "Layout":
        return Layout(self.edges, {node: mapping[lbl] for node, lbl in self.leaves.items()})

    def __repr__(self):
        return f"Layout(n={self.n})"

    # Newick serialization ----------------------------------------------------

    def to_newick(self) -> str:
        """Nested groups rooted at the first-listed vertex's leaf edge."""
        first = next(iter(self.leaves.values()))
        return joined(fold(self.rooted(first), lambda x: str(self.leaves[x]),
                           lambda _, a, b: ("(", a, ",", b, ")"))) + ";"


def fold(stream, leaf, join, is_join=partial(is_, None)):
    """Evaluate a post-order stream bottom-up on one value stack, without
    recursion: a join item x replaces the last two values a, b by
    join(x, a, b), and any other item x pushes leaf(x).  The join items are
    the Nones of `Layout.rooted` unless is_join says otherwise."""
    values = []
    for x in stream:
        if is_join(x):
            b = values.pop()
            values[-1] = join(x, values[-1], b)
        else:
            values.append(leaf(x))
    return values[0]


def joined(text) -> str:
    """The text of a tree of (prefix, left, sep, right, suffix) tuples over
    strings, concatenated once and without recursion.  Writers fold to such
    trees, so that no join copies the text below it."""
    out, stack = [], [text]
    while stack:
        x = stack.pop()
        while x.__class__ is tuple:
            prefix, x, sep, right, suffix = x
            out.append(prefix)
            stack += suffix, right, sep
        out.append(x)
    return "".join(out)


def build_layout(tree, labels: Sequence) -> Layout:
    """The layout of a nested tree, built without recursion.  Tuples are
    groups and ints index `labels`; leaf i is node i and groups become nodes
    len(labels), len(labels) + 1, ... in pre-order.  A group of one member
    below the root is that member, and a root group of two joins its members
    by one edge (degree-2 nodes are suppressed); other groups are nodes."""
    n = len(labels)
    edges: list[tuple[int, int]] = []
    pair_root = isinstance(tree, tuple) and len(tree) == 2
    stack = [(t, None) for t in reversed(tree)] if pair_root else [(tree, None)]
    first = None
    while stack:
        t, p = stack.pop()
        while (p is not None or pair_root) and isinstance(t, tuple) and len(t) == 1:
            t = t[0]
        if isinstance(t, tuple):
            x = n
            n += 1
            stack += [(c, x) for c in reversed(t)]
        else:
            x = t
        if p is not None:
            edges.append((p, x))
        elif first is None:
            first = x
        else:
            edges.append((first, x))
    return Layout(edges, dict(enumerate(labels)))


def read_nested(tokens, leaf, node):
    """Read a token stream of either file format on one explicit stack, without
    recursion: "(" opens a group, its ")" replaces it by node(items, at), at[j]
    the index of the token that starts items[j] and at[-1] that of the ")",
    and any other token (an unmatched ")" too) is leaf(token).  Returns the
    top-level items and the innermost open group's items (None if none)."""
    stack, items, at = [], [], []
    for i, tok in enumerate(tokens):
        if tok == "(":
            stack.append((items, at, i))
            items, at = [], []
        elif tok == ")" and stack:
            at.append(i)
            x = node(items, at)
            items, at, i = stack.pop()
            items.append(x)
            at.append(i)
        else:
            items.append(leaf(tok))
            at.append(i)
    return (stack[0][0], items) if stack else (items, None)


def parse_newick(text: str) -> Layout:
    """Parse nested-parenthesis layouts, e.g. ((v1,v2),(v3,(v4,v5)));
    An optional `# width <k>` trailer (and # comments generally) is ignored;
    degree-2 interior nodes (including a binary root) are suppressed."""
    text = " ".join(line.split("#", 1)[0] for line in text.splitlines())
    labels: list[str] = []

    def leaf(tok):  # a label's index; the separators , ; ) stay strings
        if tok in ",;)":
            return tok
        labels.append(tok)
        return len(labels) - 1

    def members(items, _at):  # with a comma between each two
        for j, x in enumerate(items):
            if not j & 1 and x.__class__ is str:
                raise LayoutError("empty leaf label")
            if j & 1 and x != ",":
                c = x if x.__class__ is str else labels[x][0] if x.__class__ is int else "("
                raise LayoutError(f"unexpected character {c!r}")
        if not len(items) & 1:  # empty, or ending in a comma
            raise LayoutError("empty leaf label")
        return tuple(items[::2])

    tokens = _newick_tokens(text)
    while tokens and tokens[-1] == ";":
        tokens.pop()
    items, unclosed = read_nested(tokens, leaf, members)
    if unclosed is not None or not items:
        after_member = unclosed and unclosed[-1].__class__ is not str
        raise LayoutError("unbalanced parentheses" if after_member
                          else "unexpected end of layout text")
    if len(items) > 1 or items[0].__class__ is str:
        raise LayoutError("empty leaf label" if items[0].__class__ is str
                          else "trailing characters after layout")
    return build_layout(items[0], labels)


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


def _singleton_floor(f: CutFunction, n: int) -> int:
    """max_x f({x}): a lower bound attained by every layout (n >= 2)."""
    return max(f(1 << i) for i in range(n)) if n >= 2 else 0


# -- bounded search over recursive canonical splits ----------------------------

def _feasible_tree(G: ColoredGraph, f: CutFunction, k: int, seen: dict):
    """A rooted split tree (nested index pairs; the leaf index 0 when n = 1)
    whose every cut is <= k, or None.  seen, shared over increasing bounds,
    keeps verdicts by mask: a tree (valid at every larger bound) or the
    largest bound found infeasible.  A frame (mask, others, sub, left) tries
    the splits (mask ^ sub, sub), sub a nonempty subset of mask less its
    lowest bit, in decreasing order: it asks for the tree of mask ^ sub,
    then of sub; a None moves it on."""
    if _singleton_floor(f, G.n) > k:
        return None
    if G.n <= 2:
        return 0 if G.n == 1 else (0, 1)
    memo, full, evaluate = f.memo, f._full, f._evaluate
    stack, mask = [], full ^ 1  # f(rest) = f({v0}) <= floor <= k already
    others, sub, left, t = mask & (mask - 1), 0, None, None
    while True:
        if t is None:  # the next split whose cuts, read from f.memo, are <= k
            sub = (sub - 1) & others  # from 0, the first split
            while sub:
                x = mask ^ sub
                if x > full ^ x:
                    x ^= full
                v = memo.get(x)
                if v is None:
                    v = memo[x] = evaluate(x)
                if v <= k:
                    x = sub if sub < full ^ sub else full ^ sub
                    v = memo.get(x)
                    if v is None:
                        v = memo[x] = evaluate(x)
                    if v <= k:
                        break
                sub = (sub - 1) & others
            left, child = None, mask ^ sub if sub else 0
            if not child:
                seen[mask] = k
        elif left is None:
            left, child = t, sub
        else:
            t = seen[mask] = (left, t)
            child = 0
        if not child:  # the frame is done: hand t to the frame below
            if not stack:
                return None if t is None else (0, t)
            mask, others, sub, left = stack.pop()
        elif child & (child - 1) == 0:
            t = child.bit_length() - 1
        else:
            t = seen.get(child, -1)
            if t.__class__ is int:  # not a tree
                if t < k:  # not known infeasible at k: a frame of its own
                    stack.append((mask, others, sub, left))
                    mask, others, sub, left = child, child & (child - 1), 0, None
                t = None


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
    k, seen = _singleton_floor(f, G.n), {}
    while (t := _feasible_tree(G, f, k, seen)) is None:
        k += 1
    return layout_width(G, f, build_layout(t, G.vertices))


def decide_width_at_most(G: ColoredGraph, f: CutFunction, k: int, *,
                         force: bool = False) -> Optional[Layout]:
    """A witness layout of f-width <= k, or None."""
    _check_size(G.n, force)
    t = _feasible_tree(G, f, k, {})
    return None if t is None else build_layout(t, G.vertices)


def rankwidth(G: SigmaGraph, *, force: bool = False) -> WidthResult:
    """F-rank-width with witness (sigma-symmetric graphs only)."""
    return width_exact(G, CutFunction(G, "cutrk"), force=force)


def birankwidth(G: ColoredGraph, *, force: bool = False) -> WidthResult:
    """F-bi-rank-width with witness (any F*-graph)."""
    return width_exact(G, CutFunction(G, "bicutrk"), force=force)

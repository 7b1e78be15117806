"""The three workloads: seeded inputs, the operations of one pass, and the
checks of every output against `oracle`.

An operation goes through an entry point a user calls: `rankw.cli.main` for
`width`, `width --k` and `obstructions` (stdout captured, `--json` parsed),
and `equivalence_orbit_graphs` / `is_minor` for closure queries, which have
no subcommand.  Every module is reached through the namespace `m`, looked up
at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

# family -> (field name, oracle field order, field p k, sigma spec, width kind)
FAMILIES = {
    "gf2": ("gf2", 2, (2, 1), "id", "rank"),        # undirected graphs
    "bi2": ("gf2", 2, (2, 1), None, "birank"),      # GF(2) digraphs
    "gf4": ("gf4", 4, (2, 2), "frob-inv", "rank"),  # directed graphs
    "gf3": ("gf3", 3, (3, 1), "neg", "rank"),       # oriented graphs
}
FIELD_OF_Q = {2: "gf2", 3: "gf3", 4: "gf4"}


def cut_kind(family: str) -> str:
    return "cutrk" if FAMILIES[family][4] == "rank" else "bicutrk"
REFERENCE = Path(__file__).with_name("reference.json")


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's own check."""


class OperationFailed(RuntimeError):
    """The command line returned a nonzero exit code."""


def require(cond, msg: str):
    if not cond:
        raise CheckError(msg)


# -- inputs ---------------------------------------------------------------------------

def random_adj(family: str, rng: random.Random, n: int):
    """Seeded random adjacency of one family, as row lists of element codes."""
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if family == "gf2":
                if rng.random() < 0.5:
                    a[i][j] = a[j][i] = 1
            elif family == "gf3":
                if rng.random() < 0.5:
                    a[i][j], a[j][i] = (1, 2) if rng.random() < 0.5 else (2, 1)
            else:                                   # arcs each way, p = 0.35
                fwd, back = rng.random() < 0.35, rng.random() < 0.35
                if family == "bi2":
                    a[i][j], a[j][i] = int(fwd), int(back)
                elif fwd and back:
                    a[i][j] = a[j][i] = 1
                elif fwd or back:
                    a[i][j], a[j][i] = (2, 3) if fwd else (3, 2)
    return a


def random_tree(rng: random.Random, n: int):
    a = [[0] * n for _ in range(n)]
    for i in range(1, n):
        j = rng.randrange(i)
        a[i][j] = a[j][i] = 1
    return a


def path_adj(n: int, cycle: bool = False):
    a = [[0] * n for _ in range(n)]
    for i in range(n - 1 + cycle):
        j = (i + 1) % n
        a[i][j] = a[j][i] = 1
    return a


def grid_adj(r: int, c: int):
    n = r * c
    a = [[0] * n for _ in range(n)]
    for i in range(r):
        for j in range(c):
            for di, dj in ((0, 1), (1, 0)):
                if i + di < r and j + dj < c:
                    u, v = i * c + j, (i + di) * c + j + dj
                    a[u][v] = a[v][u] = 1
    return a


def decode_rows(rows):
    return [[int(ch) for ch in r] for r in rows]


def encode_rows(adj):
    return ["".join(str(x) for x in r) for r in adj]


def load_reference():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def pool_graph(ref, section: str, **key):
    for entry in ref[section]:
        if all(entry[k] == v for k, v in key.items()):
            return entry
    raise KeyError(f"no {section} reference entry for {key}")


def graph_text(family: str, adj) -> str:
    """The graph file for an adjacency, vertices v0..v{n-1}."""
    _, _, (p, k), sigma, _ = FAMILIES[family]
    n = len(adj)
    lines = [f"field {p} {k}"]
    if sigma:
        lines.append(f"sigma {sigma}")
    lines.append("vertices " + " ".join(f"v{i}" for i in range(n)))
    for i in range(n):
        for j in range(n):
            if adj[i][j]:
                lines.append(f"edge v{i} v{j} {adj[i][j]}")
    return "\n".join(lines) + "\n"


def parse_graph_file(text: str):
    """(field order, vertex labels, adjacency) of a graph file."""
    q, verts, edges = None, None, []
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "field":
            q = int(parts[1]) ** int(parts[2])
        elif parts[0] == "vertices":
            verts = parts[1:]
        elif parts[0] == "edge":
            edges.append((parts[1], parts[2], int(parts[3])))
    idx = {v: i for i, v in enumerate(verts)}
    adj = [[0] * len(verts) for _ in verts]
    for u, v, c in edges:
        adj[idx[u]][idx[v]] = c
    return q, verts, adj


def symmetric(adj, q: int) -> bool:
    sig = oracle.FIELDS[q].sigma
    n = len(adj)
    return all(adj[j][i] == sig[adj[i][j]] for i in range(n) for j in range(n))


def mask_of(labels, index) -> int:
    m = 0
    for x in labels:
        m |= 1 << index[x]
    return m


# -- operations ------------------------------------------------------------------------

@dataclass
class Op:
    """One timed operation: `prepare` (untimed) builds fresh arguments, `run`
    is the timed call, `check` verifies its output and `digest` fingerprints
    it, so later passes compare against an output already verified."""
    name: str
    field: str
    run: Callable
    check: Callable
    digest: Callable
    prepare: Callable = lambda: ()


def digest_of(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


class Context:
    """Modules under test, the work directory, and the input writer."""

    def __init__(self, m, workdir: Path):
        self.m = m
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, family: str, adj) -> str:
        path = self.workdir / f"{name.replace('/', '_')}.rg"
        path.write_text(graph_text(family, adj), encoding="utf-8")
        return str(path)

    def graph(self, family: str, adj):
        return self.m.graphs.parse_graph(graph_text(family, adj))

    def cli(self, argv) -> str:
        """stdout of `rankw.cli.main(argv)`; a nonzero exit code raises."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.m.cli.main(argv)
        if code != 0:
            raise OperationFailed(f"rankw {' '.join(argv)}: exit code {code}: "
                                  f"{err.getvalue().strip()}")
        return out.getvalue()


def check_witness(cuts: oracle.Cuts, labels, newick: str, width: int):
    """Recompute every cut of a witness layout; returns its cut masks."""
    leaves, sides = oracle.newick_cuts(newick)
    require(sorted(leaves) == sorted(labels), "witness leaves are not the vertices")
    index = {v: i for i, v in enumerate(labels)}
    masks = {min(mask_of(s, index), cuts.full ^ mask_of(s, index)) for s in sides}
    got = max((cuts(x) for x in masks), default=0)
    require(got == width, f"witness has width {got}, reported {width}")
    return masks


def exact_op(ctx: Context, name: str, family: str, adj, width) -> Op:
    """`rankw width --json`, then the witness compiled into a term.  `width`
    is the expected width or a callable computing it on first check."""
    m = ctx.m
    fname, q, _, _, param = FAMILIES[family]
    n = len(adj)
    labels = [f"v{i}" for i in range(n)]
    argv = ["width", "--input", ctx.write(name, family, adj), "--param", param,
            "--json"] + (["--force"] if n > 12 else [])
    G = ctx.graph(family, adj)
    cuts = oracle.Cuts(q, adj, cut_kind(family))

    def run():
        res = json.loads(ctx.cli(argv))
        L = m.layouts.parse_newick(res["witness"])
        compile_ = (m.terms.term_from_layout_rank if param == "rank"
                    else m.terms.term_from_layout_birank)
        return res, L, compile_(G, L)

    def check(out):
        res, L, term = out
        w = width() if callable(width) else width
        require(res["width"] == w, f"width {res['width']}, expected {w}")
        masks = check_witness(cuts, labels, res["witness"], w)
        index = {v: i for i, v in enumerate(labels)}
        reported = set()
        for c in res["cuts"]:
            x = mask_of(c["side"], index)
            require(cuts(x) == c["value"], f"cut {c['side']} is {cuts(x)}, "
                                           f"reported {c['value']}")
            reported.add(min(x, cuts.full ^ x))
        require(reported == masks, "reported cuts are not the witness's cuts")
        cap = max(w, 1) if param == "rank" else w
        require(oracle.term_width(term) <= cap,
                f"term width {oracle.term_width(term)} exceeds {cap}")
        if param == "rank":
            ev = oracle.eval_rank_term(term, q)[0]
        else:
            ev = oracle.eval_birank_term(term, q)[0]
        order = [index[v] for v in m.terms.compiled_leaf_order(G, L)]
        require(sorted(order) == list(range(n)), "term leaves are not the vertices")
        require(all(ev[i][j] == adj[order[i]][order[j]]
                    for i in range(n) for j in range(n)),
                "term does not evaluate to the input graph")

    return Op(name, fname, run, check, lambda out: digest_of(out[0], repr(out[2])))


def decide_op(ctx: Context, name: str, family: str, adj, k: int, width: int) -> Op:
    """`rankw width --k K --json --force`; the answer is yes iff width <= k."""
    fname, q, _, _, param = FAMILIES[family]
    labels = [f"v{i}" for i in range(len(adj))]
    argv = ["width", "--input", ctx.write(f"{name}", family, adj), "--param",
            param, "--k", str(k), "--json", "--force"]
    cuts = oracle.Cuts(q, adj, cut_kind(family))

    def check(text):
        res = json.loads(text)
        require(res["at_most"] == k, "answer is for another k")
        if width > k:
            require(res["witness"] is None, f"yes at k={k} below width {width}")
        else:
            require(res["witness"] is not None, f"no at k={k}, width is {width}")
            leaves, sides = oracle.newick_cuts(res["witness"])
            require(sorted(leaves) == sorted(labels), "witness leaves are not the vertices")
            index = {v: i for i, v in enumerate(labels)}
            require(all(cuts(mask_of(s, index)) <= k for s in sides),
                    f"witness has a cut above k={k}")

    return Op(name, fname, lambda: ctx.cli(argv), check, digest_of)


def orbit_op(ctx: Context, name: str, family: str, relation: str, adj, size: int) -> Op:
    """`equivalence_orbit_graphs`: every member keeps the start graph's
    cut-rank function on all subsets, and the orbit has its reference size."""
    m = ctx.m
    fname, q, _, _, _ = FAMILIES[family]
    G = ctx.graph(family, adj)
    start = oracle.Cuts(q, adj, "cutrk")
    n = len(adj)

    def check(orbit):
        require(len(orbit) == size, f"orbit size {len(orbit)}, reference {size}")
        for H in orbit:
            require(H.vertices == G.vertices, "orbit member changed the vertices")
            b = H.adj.tolist()
            require(symmetric(b, q), "orbit member is not sigma-symmetric")
            cuts = oracle.Cuts(q, b, "cutrk")
            require(all(cuts(x) == start(x) for x in range(1 << (n - 1))),
                    "orbit member changed a cut-rank")

    return Op(name, fname,
              lambda G: m.transform.equivalence_orbit_graphs(G, relation),
              check, lambda orbit: digest_of([H.adj.tobytes() for H in orbit]),
              prepare=lambda: (G.with_adj(G.adj),))


def minor_op(ctx: Context, name: str, adj) -> Op:
    """Is C5 a vertex-minor?  By Bouchet's theorem exactly when the graph has
    rank-width >= 2; a negative answer must come from a complete search."""
    m = ctx.m
    G = ctx.graph("gf2", adj)
    C5 = ctx.graph("gf2", path_adj(5, cycle=True))

    def check(res):
        rw = oracle.exact_width(oracle.Cuts(2, adj, "cutrk"))
        require(res.found == (rw >= 2),
                f"C5 found={res.found} on a graph of rank-width {rw}")
        require(res.found or res.complete, "negative answer from an incomplete search")

    return Op(name, "gf2",
              lambda H, K: m.transform.is_minor(H, K, "sigma-vertex"),
              check, lambda r: digest_of(r.found, r.complete, r.states),
              prepare=lambda: (C5.with_adj(C5.adj), G.with_adj(G.adj)))


def obstruction_op(ctx: Context, name: str, q: int, relation: str, max_n: int,
                   gf2_class_of=None) -> Op:
    """`rankw obstructions --k 1`: each obstruction has width 2, each
    one-vertex deletion width <= 1, n <= (6^2 - 1)/5, and no two are
    isomorphic.  Over GF(2) the list must be the class, under the relation,
    of the graphs in `gf2_class_of`."""
    p, k = {2: (2, 1), 3: (3, 1), 4: (2, 2)}[q]
    sigma = {2: "id", 3: "neg", 4: "frob-inv"}[q]
    outdir = ctx.workdir / name.replace("/", "_")
    argv = ["obstructions", "--field", str(p), str(k), "--sigma", sigma,
            "--relation", relation, "--k", "1", "--max-n", str(max_n),
            "--out", str(outdir), "--json"]

    def run():
        text = ctx.cli(argv)
        return text, (outdir / "index.txt").read_text(encoding="utf-8")

    def check(out):
        res = json.loads(out[0])
        require(res["count"] == len(res["files"]), "count does not match the files")
        forms = set()
        for fname in res["files"]:
            fq, _, adj = parse_graph_file((outdir / fname).read_text(encoding="utf-8"))
            n = len(adj)
            require(fq == q, "obstruction over another field")
            require(symmetric(adj, q), "obstruction is not sigma-symmetric")
            require(n <= (6 ** 2 - 1) // 5, f"obstruction on {n} vertices")
            require(oracle.exact_width(oracle.Cuts(q, adj, "cutrk")) == 2,
                    "obstruction width is not 2")
            for d in range(n):
                keep = [i for i in range(n) if i != d]
                sub = [[adj[i][j] for j in keep] for i in keep]
                require(oracle.exact_width(oracle.Cuts(q, sub, "cutrk")) <= 1,
                        "a one-vertex deletion keeps width 2")
            forms.add(oracle.canonical(adj))
        require(len(forms) == len(res["files"]), "two obstructions are isomorphic")
        if gf2_class_of is not None:
            require(forms == oracle.gf2_class(gf2_class_of, relation),
                    "GF(2) obstructions differ from the known class")

    return Op(name, FIELD_OF_Q[q], run, check, digest_of)


# -- workloads ---------------------------------------------------------------------------

def known_widths():
    """Families whose widths are known in closed form."""
    tree = random_tree(random.Random("known:tree12"), 12)
    return [
        ("known/path12", "gf2", path_adj(12), 1),
        ("known/cycle11", "gf2", path_adj(11, cycle=True), 2),
        ("known/tree12", "gf2", tree, 1),
        # a symmetric digraph has twice the rank-width of its graph
        ("known/symcycle11", "bi2", path_adj(11, cycle=True), 4),
        ("known/symtree12", "bi2", tree, 2),
    ]


def full_enumeration_graph(family: str, rng: random.Random, n: int):
    """A random graph whose width exceeds its largest single-vertex cut, so
    layout enumeration runs to its end; returns (adjacency, width)."""
    while True:
        adj = random_adj(family, rng, n)
        cuts = oracle.Cuts(FAMILIES[family][1], adj, cut_kind(family))
        w = oracle.exact_width(cuts)
        if w > max(cuts(1 << i) for i in range(n)):
            return adj, w


# exact-width sizes per family: n <= 9 takes the layout enumeration path,
# n >= 10 the subset search, n > 12 needs --force
EXACT_SIZES = {"gf2": (7, 8, 10, 12, 13), "bi2": (7, 7, 10, 12),
               "gf4": (7, 7, 10, 12), "gf3": (7, 7, 10, 12)}


def build_exact(ctx: Context, seed: int):
    ref = load_reference()
    rng = random.Random(f"exact:{seed}")
    ops = []
    for family, sizes in EXACT_SIZES.items():
        for i, n in enumerate(sizes):
            name = f"exact/{family}/n{n}.{i}"
            if n <= 9:
                adj, w = full_enumeration_graph(family, rng, n)
            elif n == 10:
                adj = random_adj(family, rng, n)
                w = functools.partial(oracle.exact_width,
                                      oracle.Cuts(FAMILIES[family][1], adj, cut_kind(family)))
            else:
                e = pool_graph(ref, "widths", family=family, n=n)
                adj, w = decode_rows(e["rows"]), e["width"]
            ops.append(exact_op(ctx, name, family, adj, w))
    for name, family, adj, w in known_widths():
        ops.append(exact_op(ctx, f"exact/{name}", family, adj, w))
    return ops


def build_decide(ctx: Context, seed: int):
    """Fixed inputs: the seed is unused (see README.md, Workloads)."""
    ref = load_reference()
    ops = []
    graphs = [("grid4x4", "gf2", grid_adj(4, 4), 3)]
    for family in FAMILIES:
        e = pool_graph(ref, "widths", family=family, n=13)
        graphs.append((f"{family}/n13", family, decode_rows(e["rows"]), e["width"]))
    for name, family, adj, w in graphs:
        for k in (w - 1, w):
            ops.append(decide_op(ctx, f"decide/{name}/k{k}", family, adj, k, w))
    return ops


ORBITS = [("gf2", "sigma-vertex", 8), ("gf2", "pivot", 9), ("gf4", "sigma-vertex", 6),
          ("gf4", "pivot", 6), ("gf3", "pivot", 6)]
MINORS = [("random", 7), ("tree", 7), ("tree", 8)]


def build_closure(ctx: Context, seed: int):
    """Fixed inputs: the seed is unused (see README.md, Workloads)."""
    ref = load_reference()
    ops = []
    for family, relation, n in ORBITS:
        e = pool_graph(ref, "orbits", family=family, relation=relation, n=n)
        ops.append(orbit_op(ctx, f"closure/orbit/{family}/{relation}/n{n}", family,
                            relation, decode_rows(e["rows"]), e["size"]))
    for kind, n in MINORS:
        e = pool_graph(ref, "minors", kind=kind, n=n)
        ops.append(minor_op(ctx, f"closure/minor/{kind}/n{n}", decode_rows(e["rows"])))
    c5 = path_adj(5, cycle=True)
    c6 = path_adj(6, cycle=True)
    ops += [
        # rank-width 1 obstructions: the graphs locally equivalent to C5, and
        # the graphs pivot-equivalent to C5 or C6
        obstruction_op(ctx, "closure/obstructions/gf2/sigma-vertex", 2, "sigma-vertex", 6,
                       [c5]),
        obstruction_op(ctx, "closure/obstructions/gf2/pivot", 2, "pivot", 6, [c5, c6]),
        obstruction_op(ctx, "closure/obstructions/gf3/pivot", 3, "pivot", 4),
        obstruction_op(ctx, "closure/obstructions/gf4/sigma-vertex", 4, "sigma-vertex", 4),
    ]
    return ops


WORKLOADS = {"exact": build_exact, "decide": build_decide, "closure": build_closure}


def warmup_op(ctx: Context, workload: str) -> Op:
    """A small operation of the workload's kind on C5, run once in set-up."""
    c5 = path_adj(5, cycle=True)
    if workload == "exact":
        return exact_op(ctx, "warmup", "gf2", c5, 2)
    if workload == "decide":
        return decide_op(ctx, "warmup", "gf2", c5, 2, 2)
    return orbit_op(ctx, "warmup", "gf2", "sigma-vertex", c5, 3)

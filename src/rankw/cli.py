"""The `rankw` command line: width, cut, transform, encode, term and
obstructions subcommands over the text formats declared by the library (graph
files, Newick layouts, s-expression terms).

Exit codes: 0 success, 1 domain error (message names the violated
precondition), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .cutrank import CutFunction
from .fields import FieldError, field_make, parse_sigma, plain_int
from .graphs import (ColoredGraph, GraphError, SigmaGraph, emit_dot,
                     emit_graph, encode_directed, encode_oriented,
                     encode_undirected, parse_graph)
from .layouts import (Layout, LayoutError, decide_width_at_most, parse_newick,
                      width_exact)
from .matrix import MatrixError
from .terms import (RankConst, RankProd, TermError, emit_term,
                    eval_birank_term, eval_rank_term, parse_term,
                    term_from_layout_birank, term_from_layout_rank)
from .transform import (RELATIONS, SearchBudgetError, find_obstructions,
                        local_complement, pivot_complement)

DOMAIN_ERRORS = (FieldError, GraphError, MatrixError, LayoutError, TermError,
                 SearchBudgetError, ValueError)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path, text: str):
    Path(path).write_text(text, encoding="utf-8")


def _output(args, text: str, doc: dict, graph=None) -> int:
    """Write text to --out and the graph's DOT to --emit-dot; print doc as
    JSON with --json, else the text unless --out took it."""
    if args.out:
        _write(args.out, text)
    if graph is not None and args.emit_dot:
        _write(args.emit_dot, emit_dot(graph))
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    elif not args.out:
        sys.stdout.write(text)
    return 0


def _load_graph(path: str) -> ColoredGraph:
    return parse_graph(_read(path))


def _cut_function(G: ColoredGraph, param: str) -> CutFunction:
    if param == "rank":
        if not isinstance(G, SigmaGraph):
            raise GraphError("rank widths need a sigma declaration in the "
                             "graph file (cutrk is defined on sigma-symmetric "
                             "graphs)")
        return CutFunction(G, "cutrk")
    return CutFunction(G, "bicutrk")


def _load_layout(path: str, G: ColoredGraph) -> Layout:
    L = parse_newick(_read(path))
    labels = {str(v): v for v in G.vertices}
    try:
        return L.relabel_leaves({lbl: labels[str(lbl)] for lbl in L.leaves.values()})
    except KeyError as exc:
        raise LayoutError(f"layout leaf {exc.args[0]!r} is not a graph vertex") \
            from None


def _emit_result_json(res) -> dict:
    return {
        "width": res.width,
        "witness": res.witness.to_newick(),
        "cuts": [
            {"side": sorted(str(v) for v in res.cut_sides[e]),
             "value": res.cut_values[e]}
            for e in sorted(res.cut_values)
        ],
    }


def cmd_width(args) -> int:
    G = _load_graph(args.input)
    f = _cut_function(G, args.param)
    if args.k is not None:
        L = decide_width_at_most(G, f, args.k, force=args.force)
        if args.json:
            payload = {"at_most": args.k,
                       "witness": None if L is None else L.to_newick()}
            print(json.dumps(payload, sort_keys=True))
        else:
            if L is None:
                print(f"width > {args.k}")
            else:
                print(f"width <= {args.k}")
                print(L.to_newick())
        if L is not None and args.emit_layout:
            _write(args.emit_layout, L.to_newick() + "\n")
        return 0
    res = width_exact(G, f, force=args.force)
    if args.json:
        print(json.dumps(_emit_result_json(res), sort_keys=True))
    else:
        print(f"width {res.width}")
        print(res.witness.to_newick())
    if args.emit_layout:
        _write(args.emit_layout,
               res.witness.to_newick() + f"\n# width {res.width}\n")
    return 0


def cmd_cut(args) -> int:
    G = _load_graph(args.input)
    X = [v for v in args.set.split(",") if v]
    labels = {str(v): v for v in G.vertices}
    try:
        X = [labels[x] for x in X]
    except KeyError as exc:
        raise GraphError(f"unknown vertex {exc.args[0]!r}") from None
    value = CutFunction(G, args.kind)(X)
    if args.json:
        print(json.dumps({"kind": args.kind, "set": sorted(map(str, X)),
                          "value": value}, sort_keys=True))
    else:
        print(value)
    return 0


def cmd_transform(args) -> int:
    G = _load_graph(args.input)
    labels = {str(v): v for v in G.vertices}
    if args.local is not None:
        if args.lam is None:
            raise GraphError("--local needs --lambda <code>")
        H = local_complement(G, labels.get(args.local, args.local), args.lam)
    else:
        try:
            x, y = args.pivot.split(",")
        except ValueError:
            raise GraphError("--pivot expects x,y") from None
        if not isinstance(G, SigmaGraph):
            raise GraphError("pivot complementation needs a sigma-symmetric "
                             "graph (declare sigma in the file)")
        H = pivot_complement(G, labels.get(x, x), labels.get(y, y))
    text = emit_graph(H)
    return _output(args, text, {"graph": text}, H)


def _parse_pairs(text: str, sep: str) -> list[tuple[str, str]]:
    pairs = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if sep not in item:
            raise GraphError(f"bad pair {item!r}; expected u{sep}v")
        u, v = item.split(sep, 1)
        pairs.append((u.strip(), v.strip()))
    return pairs


def cmd_encode(args) -> int:
    if args.source == "undirected":
        if not args.edges:
            raise GraphError("--from undirected needs --edges \"u-v,...\"")
        G = encode_undirected(_parse_pairs(args.edges, "-"),
                              vertices=args.vertices.split(",") if args.vertices else None)
    else:
        if not args.arcs:
            raise GraphError(f"--from {args.source} needs --arcs \"u>v,...\"")
        pairs = _parse_pairs(args.arcs, ">")
        verts = args.vertices.split(",") if args.vertices else None
        G = (encode_directed if args.source == "directed" else encode_oriented)(
            pairs, vertices=verts)
    text = emit_graph(G)
    return _output(args, text, {"graph": text}, G)


def cmd_term_eval(args) -> int:
    t = parse_term(_read(args.input))
    p, k = args.field
    field = field_make(p, k)
    if isinstance(t, (RankConst, RankProd)):
        if not args.sigma:
            raise TermError("rank terms need --sigma <spec>")
        sigma = parse_sigma(field, args.sigma)
        G = eval_rank_term(t, sigma).graph
    else:
        G = eval_birank_term(t, field).graph
    text = emit_graph(G)
    return _output(args, text, {"graph": text})


def cmd_term_compile(args) -> int:
    G = _load_graph(args.input)
    if args.layout:
        L = _load_layout(args.layout, G)
    else:
        L = width_exact(G, _cut_function(G, args.param), force=args.force).witness
    if args.param == "rank":
        if not isinstance(G, SigmaGraph):
            raise GraphError("rank terms need a sigma declaration in the file")
        t = term_from_layout_rank(G, L)
    else:
        t = term_from_layout_birank(G, L)
    text = emit_term(t)
    return _output(args, text + "\n", {"term": text})


def cmd_obstructions(args) -> int:
    p, k = args.field
    field = field_make(p, k)
    sigma = parse_sigma(field, args.sigma)
    obs = find_obstructions(field, sigma, args.relation, args.k, args.max_n)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    index_lines = []
    names = []
    for i, o in enumerate(obs):
        name = f"obstruction_{i:03d}.rg"
        _write(outdir / name, emit_graph(o.graph))
        digest = hashlib.sha256(repr(o.graph.canonical_form()).encode()).hexdigest()
        index_lines.append(f"{name} n={o.graph.n} canonical={digest}")
        names.append(name)
    _write(outdir / "index.txt", "\n".join(index_lines) + ("\n" if index_lines else ""))
    if args.json:
        print(json.dumps({"count": len(obs), "files": names}, sort_keys=True))
    else:
        print(f"{len(obs)} obstruction(s) written to {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rankw",
        description="Rank-width and bi-rank-width of edge-colored graphs "
                    "over finite fields")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="emit a JSON document instead of plain text")

    pw = sub.add_parser("width", help="exact rank-/bi-rank-width")
    pw.add_argument("--input", required=True)
    pw.add_argument("--param", choices=("rank", "birank"), default="rank")
    pw.add_argument("--k", type=plain_int, default=None,
                    help="decide width <= k instead of computing the optimum")
    pw.add_argument("--emit-layout", default=None)
    pw.add_argument("--force", action="store_true",
                    help="search beyond the n=14 exact-search bound")
    add_json(pw)
    pw.set_defaults(fn=cmd_width)

    pc = sub.add_parser("cut", help="evaluate one cut")
    pc.add_argument("--input", required=True)
    pc.add_argument("--set", required=True, help="comma-separated vertices")
    pc.add_argument("--kind", choices=("cutrk", "bicutrk", "lambda"),
                    default="cutrk")
    add_json(pc)
    pc.set_defaults(fn=cmd_cut)

    pt = sub.add_parser("transform", help="local or pivot complementation")
    pt.add_argument("--input", required=True)
    pt.add_argument("--local", default=None, metavar="X")
    pt.add_argument("--lambda", dest="lam", type=plain_int, default=None)
    pt.add_argument("--pivot", default=None, metavar="X,Y")
    pt.add_argument("--out", default=None)
    pt.add_argument("--emit-dot", default=None)
    add_json(pt)
    pt.set_defaults(fn=cmd_transform)

    pe = sub.add_parser("encode", help="encode plain graphs as field graphs")
    pe.add_argument("--from", dest="source", required=True,
                    choices=("undirected", "directed", "oriented"))
    pe.add_argument("--edges", default=None, help='e.g. "a-b,b-c"')
    pe.add_argument("--arcs", default=None, help='e.g. "a>b,b>c"')
    pe.add_argument("--vertices", default=None,
                    help="comma-separated vertex order (optional)")
    pe.add_argument("--out", default=None)
    pe.add_argument("--emit-dot", default=None)
    add_json(pe)
    pe.set_defaults(fn=cmd_encode)

    ptm = sub.add_parser("term", help="evaluate or compile bilinear-product terms")
    tsub = ptm.add_subparsers(dest="term_command", required=True)
    te = tsub.add_parser("eval", help="term file -> graph file")
    te.add_argument("--input", required=True)
    te.add_argument("--field", nargs=2, type=plain_int, required=True,
                    metavar=("P", "K"))
    te.add_argument("--sigma", default=None)
    te.add_argument("--out", default=None)
    add_json(te)
    te.set_defaults(fn=cmd_term_eval)
    tc = tsub.add_parser("compile", help="graph file -> term file")
    tc.add_argument("--input", required=True)
    tc.add_argument("--param", choices=("rank", "birank"), default="rank")
    tc.add_argument("--layout", default=None,
                    help="Newick layout file (default: an optimal layout)")
    tc.add_argument("--out", default=None)
    tc.add_argument("--force", action="store_true")
    add_json(tc)
    tc.set_defaults(fn=cmd_term_compile)

    po = sub.add_parser("obstructions", help="minimal width-k obstructions")
    po.add_argument("--field", nargs=2, type=plain_int, required=True,
                    metavar=("P", "K"))
    po.add_argument("--sigma", required=True)
    po.add_argument("--relation", choices=RELATIONS, required=True)
    po.add_argument("--k", type=plain_int, required=True)
    po.add_argument("--max-n", type=plain_int, required=True)
    po.add_argument("--out", required=True)
    add_json(po)
    po.set_defaults(fn=cmd_obstructions)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

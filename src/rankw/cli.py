"""The `rankw` command line: width, cut, transform, encode, term and
obstructions subcommands over the text formats declared by the library (graph
files, Newick layouts, s-expression terms).

Each `cmd_*` returns its plain text and its JSON document; `main` writes the
text to --out, if given, and prints the document with --json, else the text
unless --out took it.  The `stats` entry of a document is the search's
counters object; `width` and `obstructions` print it as JSON with --json
and as `stats:` lines on stderr with --stats.  Side files are written by
the command that makes them.  The parser is built once per process, so that
repeated calls of `main` parse only.

Exit codes: 0 success, 1 domain error (message names the violated
precondition) or a file that cannot be read or written, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .cutrank import CutFunction
from .fields import field_make, parse_sigma, plain_int
from .graphs import (ColoredGraph, GraphError, SigmaGraph, emit_dot,
                     emit_graph, encode_directed, encode_oriented,
                     encode_undirected, parse_graph)
from .layouts import (BNB_BOUND, SearchStats, decide_width_at_most,
                      parse_newick, width_exact)
from .terms import (RankConst, RankProd, TermError, emit_term,
                    eval_birank_term, eval_rank_term, parse_term,
                    term_from_layout_birank, term_from_layout_rank)
from .transform import (RELATIONS, ObstructionStats, SearchBudgetError,
                        find_obstructions, local_complement, pivot_complement)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path, text: str):
    Path(path).write_text(text, encoding="utf-8")


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


def _graph_output(args, G: ColoredGraph) -> tuple[str, dict]:
    """The graph file text and its JSON document; writes --emit-dot."""
    text = emit_graph(G)
    if args.emit_dot:
        _write(args.emit_dot, emit_dot(G))
    return text, {"graph": text}


def cmd_width(args) -> tuple[str, dict]:
    G = _load_graph(args.input)
    f = _cut_function(G, args.param)
    if args.k is not None:
        stats = SearchStats()
        L = decide_width_at_most(G, f, args.k, force=args.force, stats=stats)
        newick = None if L is None else L.to_newick()
        doc = {"at_most": args.k, "witness": newick, "stats": stats}
        if newick is None:
            return f"width > {args.k}\n", doc
        if args.emit_layout:
            _write(args.emit_layout, newick + "\n")
        return f"width <= {args.k}\n{newick}\n", doc
    res = width_exact(G, f, force=args.force)
    newick = res.witness.to_newick()
    if args.emit_layout:
        _write(args.emit_layout, f"{newick}\n# width {res.width}\n")
    doc = {"width": res.width, "witness": newick, "stats": res.stats}
    if args.json:  # sorting every cut side is a cost the text output skips
        doc["cuts"] = [{"side": sorted(res.cut_sides[e]), "value": res.cut_values[e]}
                       for e in sorted(res.cut_values)]
    return f"width {res.width}\n{newick}\n", doc


def cmd_cut(args) -> tuple[str, dict]:
    G = _load_graph(args.input)
    X = [v for v in args.set.split(",") if v]
    for v in X:  # an unknown name is reported before a kind the graph lacks
        G.index(v)
    value = CutFunction(G, args.kind)(X)
    return f"{value}\n", {"kind": args.kind, "set": sorted(X), "value": value}


def cmd_transform(args) -> tuple[str, dict]:
    G = _load_graph(args.input)
    if args.local is not None:
        if args.lam is None:
            raise GraphError("--local needs --lambda <code>")
        H = local_complement(G, args.local, args.lam)
    else:
        try:
            x, y = args.pivot.split(",")
        except ValueError:
            raise GraphError("--pivot expects x,y") from None
        H = pivot_complement(G, x, y)
    return _graph_output(args, H)


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


def cmd_encode(args) -> tuple[str, dict]:
    verts = args.vertices.split(",") if args.vertices else None
    if args.source == "undirected":
        if not args.edges:
            raise GraphError("--from undirected needs --edges \"u-v,...\"")
        G = encode_undirected(_parse_pairs(args.edges, "-"), vertices=verts)
    else:
        if not args.arcs:
            raise GraphError(f"--from {args.source} needs --arcs \"u>v,...\"")
        encode = encode_directed if args.source == "directed" else encode_oriented
        G = encode(_parse_pairs(args.arcs, ">"), vertices=verts)
    return _graph_output(args, G)


def cmd_term_eval(args) -> tuple[str, dict]:
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
    return text, {"graph": text}


def cmd_term_compile(args) -> tuple[str, dict]:
    G = _load_graph(args.input)
    if args.layout:
        L = parse_newick(_read(args.layout))
    else:
        L = width_exact(G, _cut_function(G, args.param), force=args.force).witness
    if args.param == "rank":
        t = term_from_layout_rank(G, L)
    else:
        t = term_from_layout_birank(G, L)
    text = emit_term(t)
    return text + "\n", {"term": text}


def cmd_obstructions(args) -> tuple[str, dict]:
    p, k = args.field
    field = field_make(p, k)
    sigma = parse_sigma(field, args.sigma)
    stats = ObstructionStats()
    obs = find_obstructions(field, sigma, args.relation, args.k, args.max_n,
                            stats=stats)
    outdir = Path(args.outdir)
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
    return (f"{len(obs)} obstruction(s) written to {outdir}\n",
            {"count": len(obs), "files": names, "stats": stats})


def _stats_lines(stats) -> list[str]:
    """One `stats:` line per counter of a search's stats object, and one per
    level of a counter kept per level (a dict), the level named by the
    object's `per`."""
    lines = []
    for name, value in asdict(stats).items():
        if isinstance(value, dict):
            lines += [f"stats: {name} {stats.per}={key} {count}"
                      for key, count in value.items()]
        else:
            lines.append(f"stats: {name} {value}")
    return lines


@functools.cache  # one parser per process: building it costs 30x parsing
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rankw",
        description="Rank-width and bi-rank-width of edge-colored graphs "
                    "over finite fields")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="emit a JSON document instead of plain text")

    def add_stats(p):
        p.add_argument("--stats", action="store_true",
                       help="print the search's counters on stderr")

    pw = sub.add_parser("width", help="exact rank-/bi-rank-width")
    pw.add_argument("--input", required=True)
    pw.add_argument("--param", choices=("rank", "birank"), default="rank")
    pw.add_argument("--k", type=plain_int, default=None,
                    help="decide width <= k instead of computing the optimum")
    pw.add_argument("--emit-layout", default=None)
    pw.add_argument("--force", action="store_true",
                    help=f"search beyond the n={BNB_BOUND} exact-search bound")
    add_stats(pw)
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
    po.add_argument("--out", dest="outdir", metavar="OUT", required=True)
    add_stats(po)
    add_json(po)
    po.set_defaults(fn=cmd_obstructions)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)  # transform, encode and term have --out
    try:
        text, doc = args.fn(args)
        if out:
            _write(out, text)
    except (ValueError, SearchBudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "stats", False):  # width and obstructions have --stats
        for line in _stats_lines(doc["stats"]):
            print(line, file=sys.stderr)
    if args.json:
        print(json.dumps(doc, sort_keys=True, default=asdict))
    elif not out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

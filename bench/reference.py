"""Regenerate bench/reference.json, the fixed graph pool of the benchmark.

    python3 bench/reference.py

The pool holds the graphs above n = 10 with their widths, the orbit start
graphs with their orbit sizes, and the minor query graphs.  Every run uses
them as they are, in a fixed vertex order (see README.md, Workloads).

- Widths come from the benchmark's own subset DP (`oracle.exact_width`),
  independent of the program.
- Orbit sizes come from `rankw.transform.equivalence_orbit_graphs`; every
  run rechecks each orbit member's cut-rank function independently.
- Orbit and minor graphs are the first seeded candidates whose orbit size or
  search-state count falls in a window, so that one pass stays a few seconds.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
from workloads import (FAMILIES, MINORS, ORBITS, REFERENCE,  # noqa: E402
                       cut_kind, encode_rows, graph_text, path_adj, random_adj,
                       random_tree)

WIDTH_SIZES = (12, 13)
ORBIT_WINDOW = {("gf2", "sigma-vertex"): (40, 150), ("gf2", "pivot"): (20, 30),
                ("gf4", "sigma-vertex"): (30, 150), ("gf4", "pivot"): (30, 60),
                ("gf3", "pivot"): (150, 320)}
MINOR_WINDOW = {("random", 7): (50, 150), ("tree", 7): (40, 100),
                ("tree", 8): (60, 100)}


def widths():
    out = []
    for family, (_, q, _, _, _) in FAMILIES.items():
        for n in WIDTH_SIZES:
            adj = random_adj(family, random.Random(f"pool:{family}:{n}"), n)
            t = time.perf_counter()
            w = oracle.exact_width(oracle.Cuts(q, adj, cut_kind(family)))
            print(f"width {family} n={n}: {w} ({time.perf_counter() - t:.1f} s)",
                  flush=True)
            out.append({"family": family, "n": n, "rows": encode_rows(adj), "width": w})
    return out


def orbits(rankw):
    out = []
    for family, relation, n in ORBITS:
        lo, hi = ORBIT_WINDOW[family, relation]
        for i in range(1000):
            adj = random_adj(family, random.Random(f"pool:orbit:{family}:{relation}:{n}:{i}"), n)
            G = rankw.parse_graph(graph_text(family, adj))
            if not G.is_connected():
                continue
            size = len(rankw.equivalence_orbit_graphs(G, relation))
            if lo <= size <= hi:
                break
        print(f"orbit {family} {relation} n={n}: {size}", flush=True)
        out.append({"family": family, "relation": relation, "n": n,
                    "rows": encode_rows(adj), "size": size})
    return out


def minors(rankw):
    out = []
    C5 = rankw.parse_graph(graph_text("gf2", path_adj(5, cycle=True)))
    for kind, n in MINORS:
        lo, hi = MINOR_WINDOW[kind, n]
        for i in range(1000):
            rng = random.Random(f"pool:minor:{kind}:{n}:{i}")
            adj = random_tree(rng, n) if kind == "tree" else random_adj("gf2", rng, n)
            res = rankw.is_minor(C5, rankw.parse_graph(graph_text("gf2", adj)),
                                 "sigma-vertex")
            if lo <= res.states <= hi:
                break
        print(f"minor {kind} n={n}: found={res.found} states={res.states}", flush=True)
        out.append({"kind": kind, "n": n, "rows": encode_rows(adj)})
    return out


def main():
    import rankw
    ref = {"widths": widths(), "orbits": orbits(rankw), "minors": minors(rankw)}
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()

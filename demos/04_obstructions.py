"""Minimal obstructions for bounded rank-width.

A width-k obstruction exceeds width k while every proper minor stays within
it; the theory bounds their size by (6^(k+1)-1)/5.  At k = 0 the obstructions
are exactly the one-edge graphs const_a, one per color up to isomorphism.
"""

from collections import Counter

from rankw import (ObstructionStats, emit_graph, field_make, find_obstructions,
                   obstruction_size_bound, rankwidth, sigma_frobenius_conj,
                   sigma_identity, sigma_negation)

print("size bound (6^(k+1)-1)/5 for k = 0..3:",
      [obstruction_size_bound(k) for k in range(4)])

cases = [
    ("GF(2), identity", field_make(2, 1), sigma_identity(field_make(2, 1))),
    ("GF(3), negation", field_make(3, 1), sigma_negation(field_make(3, 1))),
    ("GF(4), sigma4", field_make(2, 2), sigma_frobenius_conj(field_make(2, 2))),
]
for name, F, s in cases:
    obs = find_obstructions(F, s, "pivot", 0, 3)
    print(f"{name}: {len(obs)} width-0 obstruction(s) "
          f"(|F*| = {F.q - 1}, const_a ~ const_sigma(a))")

# Width-1 obstructions of undirected graphs under the vertex-minor relation:
# the search over n <= 6 returns three 5-vertex graphs, the local-equivalence
# class of the 5-cycle (C5 itself, the house, the gem).
F2, s2 = field_make(2, 1), sigma_identity(field_make(2, 1))
obs1 = find_obstructions(F2, s2, "sigma-vertex", 1, 6)
print(f"\nGF(2) width-1 vertex-minor obstructions: {len(obs1)}, sizes",
      [o.graph.n for o in obs1])
for o in obs1:
    edges = int((o.graph.adj != 0).sum()) // 2
    print(f"  n={o.graph.n}, edges={edges}, width={rankwidth(o.graph).width}")
print("\none of them, as a graph file:")
print(emit_graph(obs1[0].graph))

# Over GF(3) with negation no unit is sigma-compatible, so pivots are the
# moves.  The search grows only the connected graphs of width <= 1; its
# counters show how small that class stays.  Up to the size bound n = 7 the
# list has 57 graphs (14 more on 6 vertices, none on 7; about 5 minutes).
F3 = field_make(3, 1)
stats = ObstructionStats()
obs3 = find_obstructions(F3, sigma_negation(F3), "pivot", 1, 5, stats=stats)
print(f"\nGF(3) width-1 pivot-minor obstructions up to 5 vertices: {len(obs3)},",
      "by size", dict(sorted(Counter(o.graph.n for o in obs3).items())))
print("  connected graphs per n:", stats.connected_graphs)
print("  of width <= 1 (the class):", stats.class_size)

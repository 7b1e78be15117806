"""Encoding plain graphs and computing their exact widths.

Undirected graphs live over GF(2) with the identity; directed graphs over
GF(4) with sigma4 (arc = a one way, a^2 back); oriented graphs over GF(3)
with negation.  Widths are exact: one subset-memoized search over canonical
splits finds the optimum and a witness layout.
"""

from rankw import (CutFunction, birankwidth, digraph_gf2, encode_directed,
                   encode_oriented, encode_undirected, layout_width, rankwidth)

# The 5-cycle: the smallest undirected graph of rank-width 2.
C5 = encode_undirected([(i, (i + 1) % 5) for i in range(5)])
res = rankwidth(C5)
print("C5 rank-width:", res.width)
print("witness layout:", res.witness.to_newick())
print("cut values:", sorted(res.cut_values.values()))

# For sigma-symmetric graphs the bi-rank-width is exactly twice the
# rank-width, with the same witness.
print("C5 bi-rank-width:", birankwidth(C5).width)
shared = layout_width(C5, CutFunction(C5, "bicutrk"), res.witness)
print("bicutrk width of the rank witness:", shared.width)

# Any complete graph has rank-width 1: every cut block is all-ones.
K6 = encode_undirected([(i, j) for i in range(6) for j in range(i + 1, 6)])
print("\nK6 rank-width:", rankwidth(K6).width)

# A directed 3-cycle, GF(4) encoding.
T3 = encode_directed([(0, 1), (1, 2), (2, 0)])
print("\ndirected triangle over GF(4):")
print(T3.adj)
print("GF(4) rank-width:", rankwidth(T3).width)

# The same orientation seen as an oriented graph over GF(3).
O3 = encode_oriented([(0, 1), (1, 2), (2, 0)])
print("GF(3) rank-width:", rankwidth(O3).width)

# Bi-rank-width works on the raw (non-symmetric) GF(2) representation.
D = digraph_gf2([(0, 1), (1, 2), (2, 0), (0, 3), (3, 0)])
print("\ndigraph bi-rank-width:", birankwidth(D).width)

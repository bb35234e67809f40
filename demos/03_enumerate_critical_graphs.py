"""Exhaustively generate 5-vertex-critical {P5, H}-free graphs.

The generator grows graphs one vertex at a time from the built-in seeds
(exhaustive whenever P5 is forbidden), prunes extensions that cannot lead to
a critical graph, deduplicates by canonical key, and emits exactly the
critical ones.  For the three named H the per-order counts up to the cap
match the published tables.
"""

import time

from critenum import (
    canonical_form,
    encode_graph6,
    enumerate_5vc,
    find_xy_obstruction,
    is_family_free,
    is_k_vertex_critical,
    parse_pattern,
)

h = parse_pattern("co(k3+2p1)")
family = (parse_pattern("p5"), h)

t0 = time.time()
result = enumerate_5vc(h, max_order=9)
print(f"enumerated to order 9 in {time.time() - t0:.1f}s; "
      f"{result.nodes_visited} nodes visited")
print("per-order counts:", result.per_order_counts)
print("complete below the cap:", result.complete)

# The first few graphs, already sorted by (order, canonical form):
for g in result.graphs[:5]:
    print(" ", encode_graph6(g))

# Everything the search emits re-verifies independently.
assert all(is_family_free(g, family) for g in result.graphs)
assert all(is_k_vertex_critical(g, 5).is_vertex_critical for g in result.graphs)
assert all(find_xy_obstruction(g) is None for g in result.graphs)
assert len({canonical_form(g) for g in result.graphs}) == len(result.graphs)
print("re-verified: family-free, 5-vertex-critical, no (X, Y) obstruction, "
      "pairwise non-isomorphic")

# Pruning is sound: with the rules disabled the same set comes out, slower.
t0 = time.time()
unpruned = enumerate_5vc(h, max_order=8, pruning=False)
pruned = enumerate_5vc(h, max_order=8)
same = {canonical_form(g) for g in unpruned.graphs} == {canonical_form(g) for g in pruned.graphs}
print(f"pruning differential at order 8: identical={same} "
      f"({pruned.nodes_visited} vs {unpruned.nodes_visited} nodes)")

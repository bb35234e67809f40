"""Build graphs, speak the pattern DSL, and search for induced subgraphs.

Graphs are immutable values over at most 64 vertices; adjacency lives in one
bitmask per vertex, so structural operations are cheap integer arithmetic.
"""

from critenum import (
    complement,
    complete,
    cycle,
    degree,
    encode_graph6,
    find_induced,
    is_family_free,
    is_k_vertex_critical,
    parse_pattern,
    path,
    seeds_for,
)

# The basic constructors mirror the usual notation: P5, C5, K5, K{1,4}.
p5 = path(5)
c5 = cycle(5)
print("P5:", p5)
print("C5 has", c5.edge_count(), "edges; every degree is",
      {degree(c5, v) for v in range(5)})

# C5 is self-complementary; complements are one-liners.
print("complement(C5):", complement(c5))

# The pattern DSL composes constructors: '+' is disjoint union, 'co(...)'
# complement, a leading integer repeats a term.
for text in ["k1,3+p1", "k1,4+p1", "co(k3+2p1)", "2p1+c5"]:
    g = parse_pattern(text)
    print(f"{text!r} -> {g.n} vertices, {g.edge_count()} edges, graph6 {encode_graph6(g)}")

# Induced containment: edges AND non-edges must match.  C6 contains an
# induced P5 (five consecutive vertices), but C5 has no triangle.
print("P5 inside C6:", find_induced(cycle(6), p5))
print("K3 inside C5:", find_induced(c5, complete(3)))

# A graph is family-free when no member of the family embeds.  The complement
# of C9 avoids both P5 and co(K3+2P1) - it will matter later: it is one of the
# odd antiholes that seeds_for(5, ...) returns to start the search from, and
# is itself 5-vertex-critical.
family = [parse_pattern("p5"), parse_pattern("co(k3+2p1)")]
c9bar = complement(cycle(9))
print("complement(C9) is {p5, co(k3+2p1)}-free:", is_family_free(c9bar, family))
print("complement(C9) is a k = 5 seed:", c9bar in seeds_for(5, tuple(family)),
      "and 5-vertex-critical:", is_k_vertex_critical(c9bar, 5).is_vertex_critical)

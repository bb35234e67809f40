"""Exact coloring, chromatic numbers, and what makes a graph vertex-critical.

Every answer here is a checkable object: colorings carry the assignment,
criticality reports carry the failing vertex when there is one.
"""

from critenum import (
    chromatic_number,
    clique_number,
    complement,
    complete,
    cycle,
    disjoint_union,
    find_comparable_pair,
    find_xy_obstruction,
    is_k_colorable,
    is_k_vertex_critical,
    path,
)

# The odd cycle C5 needs three colors; the witness is a proper assignment.
c5 = cycle(5)
print("C5 with 2 colors:", is_k_colorable(c5, 2))
print("C5 with 3 colors:", is_k_colorable(c5, 3))

# Complements of odd cycles are the classic gap between clique number and
# chromatic number.
for t in (7, 9):
    g = complement(cycle(t))
    print(f"complement(C{t}): omega={clique_number(g)} chi={chromatic_number(g)}")

# K5 is 5-vertex-critical: chi drops to 4 whichever vertex goes.
print("K5:", is_k_vertex_critical(complete(5), 5))

# Add an isolated vertex and criticality dies - deleting it changes nothing.
spoiled = disjoint_union(complete(5), path(1))
print("K5 + isolated vertex:", is_k_vertex_critical(spoiled, 5))

# Structural obstructions: a vertex-critical graph can contain no comparable
# pair (nonadjacent u, v with N(u) inside N(v)) and, more generally, no
# anticomplete X, Y with chi(G[X]) <= chi(G[Y]) and Y complete to N(X).
from critenum import complete_bipartite

claw = complete_bipartite(1, 3)
print("comparable pair in the claw:", find_comparable_pair(claw))
print("comparable pair in C5:", find_comparable_pair(c5))
print("small obstruction in K5 + K1:",
      find_xy_obstruction(disjoint_union(complete(5), path(1))))

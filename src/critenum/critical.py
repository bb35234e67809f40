"""Vertex-criticality, in-class criticality and structural obstructions.

A graph is k-vertex-critical when chi(G) = k and deleting any single vertex
drops the chromatic number.  The in-class notion is stricter: no proper
subgraph (vertices and/or edges removed) that still avoids the forbidden
family may keep chromatic number k.  Criticality forbids comparable
vertices, and more generally the disjoint-subset obstruction checked by
:func:`find_xy_obstruction`; both double as pruning tests for the
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .canon import canonical_key
from .coloring import chromatic_number, is_k_colorable
from .graphs import Graph, VertexSet, bits, delete_edge, delete_vertex
from .patterns import is_family_free


@dataclass(frozen=True)
class CriticalityReport:
    chi: int
    is_vertex_critical: bool
    failing_vertex: int | None  # some vertex whose deletion keeps chi >= k


def is_k_vertex_critical(g: Graph, k: int) -> CriticalityReport:
    """Decide whether chi(g) = k and every vertex deletion drops chi below k."""
    if k < 1:
        raise ValueError("k must be positive")
    chi = chromatic_number(g)
    if chi != k:
        return CriticalityReport(chi, False, None)
    v = noncritical_vertex(g, k)
    return CriticalityReport(chi, v is None, v)


def noncritical_vertex(g: Graph, k: int) -> int | None:
    """A vertex whose deletion keeps chi >= k, trying low degrees first, else None.

    ``g`` must have chi >= k; then None means exactly that g is
    k-vertex-critical.  A vertex of degree below k - 1 can always be
    deleted: any (k-1)-coloring of g - v would extend to v.  So the first
    vertex in degree order is returned untested when its degree is below
    k - 1.  The enumeration calls this only on seeds and, without pruning,
    on every node of chromatic number k; with pruning, a parent decides
    its children's criticality itself.
    """
    order = sorted(range(g.n), key=lambda u: g.rows[u].bit_count())
    if order and g.rows[order[0]].bit_count() < k - 1:
        return order[0]
    for v in order:
        if is_k_colorable(delete_vertex(g, v), k - 1) is None:
            return v
    return None


def _candidates(rows: tuple[int, ...], xmask: VertexSet) -> VertexSet:
    """The vertices y that avoid X and N(X) and are adjacent to all of N(X)."""
    nx = 0
    for v in bits(xmask):
        nx |= rows[v]
    nx &= ~xmask
    cand = (1 << len(rows)) - 1 & ~xmask & ~nx
    for u in bits(nx):
        cand &= rows[u]
    return cand


def find_xy_obstruction(g: Graph) -> tuple[VertexSet, VertexSet] | None:
    """Disjoint X, Y of one or two vertices violating criticality, as bitmasks, else None.

    The conditions: X and Y anticomplete, chi(G[X]) <= chi(G[Y]), and Y
    complete to N(X).  The first pair in this order is returned: stages
    (1, 1), (1, 2), (2, 1), (2, 2) by (|X|, |Y|), then X, then Y, each in
    lexicographic order of the sorted vertex tuple.

    If (X, Y) qualifies and X is not an edge, so does ({x}, {y}) for any x
    in X and y in Y: a single vertex has chi 1, and N(x) lies inside N(X)
    since x has no neighbor in X.  An edge X has chi 2, so its Y must be an
    edge too.  The first pair is therefore the first comparable pair (the
    (1, 1) stage: the least u, then the least v, nonadjacent with N(u)
    inside N(v)), else the first edge X with an edge Y among the
    candidates of X.
    """
    rows = g.rows
    for u in range(g.n):
        cand = _candidates(rows, 1 << u)
        if cand:
            return (1 << u, cand & -cand)
    for a, b in g.edges():
        xmask = 1 << a | 1 << b
        cand = _candidates(rows, xmask)
        for y in bits(cand):
            later = rows[y] & cand & ~((2 << y) - 1)  # the neighbors of y after it
            if later:
                return (xmask, 1 << y | (later & -later))
    return None


def is_k_critical_in_class(g: Graph, k: int, family: Iterable[Graph]) -> bool:
    """In-class criticality: no family-free proper subgraph keeps chi >= k.

    g must first be k-vertex-critical.  Then only spanning subgraphs x of g
    (edges deleted, no vertex deleted) need a search: for any vertex v,
    x - v is a subgraph of g - v, so chi(x - v) < k, and every proper
    subgraph with a vertex deleted is already ruled out.  The recursion
    deletes one edge at a time; a branch stays alive only while its
    chromatic number is still >= k, and succeeds as soon as it is
    family-free.  Memoized on canonical keys: every graph in the memo is a
    spanning subgraph of g, so all have one order and the key is injective
    among them.
    """
    family = tuple(family)
    if not is_family_free(g, family):
        raise ValueError("graph is not family-free")
    report = is_k_vertex_critical(g, k)
    if not report.is_vertex_critical:
        return False
    memo: dict[int, bool] = {}
    return not any(_has_chi_k_free_subgraph(delete_edge(g, u, v), k, family, memo)
                   for u, v in g.edges())


def _has_chi_k_free_subgraph(x: Graph, k: int, family, memo: dict[int, bool]) -> bool:
    """Whether x or a spanning subgraph of x is family-free with chi >= k."""
    if is_k_colorable(x, k - 1) is not None:
        return False
    key = canonical_key(x)[0]
    if key not in memo:
        memo[key] = is_family_free(x, family) or any(
            _has_chi_k_free_subgraph(delete_edge(x, u, v), k, family, memo)
            for u, v in x.edges())
    return memo[key]

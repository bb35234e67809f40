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
from itertools import combinations
from typing import Iterable, Sequence

from .canon import canonical_form
from .coloring import chromatic_number, is_k_colorable
from .graphs import Graph, VertexSet, bits, delete_edge, delete_vertex
from .patterns import PatternLike, is_family_free


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
    k - 1, and on the non-critical graphs the enumeration meets, the first
    vertex tested is usually the answer.
    """
    order = sorted(range(g.n), key=lambda u: g.rows[u].bit_count())
    if order and g.rows[order[0]].bit_count() < k - 1:
        return order[0]
    for v in order:
        if is_k_colorable(delete_vertex(g, v), k - 1) is None:
            return v
    return None


def find_comparable_pair(g: Graph) -> tuple[int, int] | None:
    """A nonadjacent ordered pair (u, v) with N(u) subset of N(v), else None."""
    ob = find_xy_obstruction(g, 1)  # its (1, 1) stage tries u, then v, ascending
    return None if ob is None else (ob[0].bit_length() - 1, ob[1].bit_length() - 1)


def _chi_upto3(rows: Sequence[int], members: tuple[int, ...]) -> int:
    # chromatic number of an induced set of at most 3 vertices
    edges = 0
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            edges += (rows[u] >> v) & 1
    if edges == 0:
        return 1
    if len(members) == 3 and edges == 3:
        return 3
    return 2


def find_xy_obstruction(g: Graph, max_size: int = 3) -> tuple[VertexSet, VertexSet] | None:
    """Disjoint nonempty X, Y violating criticality, as bitmasks, else None.

    The conditions: X and Y anticomplete, chi(G[X]) <= chi(G[Y]), and Y
    complete to N(X).  Subset sizes are capped by ``max_size`` (at most 3);
    the (1, 1) case is exactly a comparable pair.

    The first pair in this order is returned: stages by (|X| + |Y|, |X|),
    then X, then Y, each in lexicographic order of the sorted vertex tuple.
    The first two conditions and half of the third are per-vertex: y must
    avoid X and N(X) and be adjacent to every vertex of N(X).  So for each
    X the vertices that may go into Y form one candidate set, and the
    lexicographic combinations of the candidates are exactly the
    combinations of all vertices, in the same order, less those with a
    vertex outside it.  Scanning only them and testing chromatic numbers
    finds the same first pair.
    """
    if not 1 <= max_size <= 3:
        raise ValueError("max_size must be 1, 2 or 3")
    n = g.n
    rows = g.rows
    full = (1 << n) - 1
    stages = sorted(
        ((sx, sy) for sx in range(1, max_size + 1) for sy in range(1, max_size + 1)),
        key=lambda p: (p[0] + p[1], p[0]),
    )
    for sx, sy in stages:
        for xs in combinations(range(n), sx):
            xmask = 0
            nx = 0
            for v in xs:
                xmask |= 1 << v
                nx |= rows[v]
            nx &= ~xmask
            cand = full & ~xmask & ~nx  # Y must avoid X and N(X): anticomplete
            for u in bits(nx):  # and be complete to N(X)
                cand &= rows[u]
            if cand.bit_count() < sy:
                continue
            chi_x = _chi_upto3(rows, xs)
            for ys in combinations(bits(cand), sy):
                if chi_x <= _chi_upto3(rows, ys):
                    return (xmask, sum(1 << y for y in ys))
    return None


def is_k_critical_in_class(g: Graph, k: int, family: Iterable[PatternLike]) -> bool:
    """In-class criticality: no family-free proper subgraph keeps chi >= k.

    g must first be k-vertex-critical.  Then only spanning subgraphs x of g
    (edges deleted, no vertex deleted) need a search: for any vertex v,
    x - v is a subgraph of g - v, so chi(x - v) < k, and every proper
    subgraph with a vertex deleted is already ruled out.  The recursion
    deletes one edge at a time; a branch stays alive only while its
    chromatic number is still >= k, and succeeds as soon as it is
    family-free.  Memoized on canonical forms.
    """
    family = tuple(family)
    if not is_family_free(g, family):
        raise ValueError("graph is not family-free")
    report = is_k_vertex_critical(g, k)
    if not report.is_vertex_critical:
        return False
    memo: dict[bytes, bool] = {}
    return not any(_has_chi_k_free_subgraph(delete_edge(g, u, v), k, family, memo)
                   for u, v in g.edges())


def _has_chi_k_free_subgraph(x: Graph, k: int, family, memo: dict[bytes, bool]) -> bool:
    """Whether x or a spanning subgraph of x is family-free with chi >= k."""
    if is_k_colorable(x, k - 1) is not None:
        return False
    key = canonical_form(x)
    if key not in memo:
        memo[key] = is_family_free(x, family) or any(
            _has_chi_k_free_subgraph(delete_edge(x, u, v), k, family, memo)
            for u, v in x.edges())
    return memo[key]

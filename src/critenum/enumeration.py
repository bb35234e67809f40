"""Exhaustive generation of k-vertex-critical family-free graphs.

The search grows graphs one vertex at a time from seed graphs.  A graph
whose chromatic number is still below k is extended by a new vertex with
every allowed neighborhood; a graph that reached chromatic number k is
emitted iff it is k-vertex-critical, and never extended (no supergraph of a
non-critical chi >= k graph can be vertex-critical).

One level-synchronous driver, :func:`recursively_enumerate`, runs the whole
search, one pass over each level.  A node's worker labels every child it
builds with its canonical key (:func:`canon.canonical_key`), and the driver
merges the children into the next level, a dict keyed by canonical key, as
each parent's result arrives, in parent order; the seeds of order n are
merged after the children of level n - 1.  A child always has one vertex
more than its parent, so this one dict per level removes every duplicate,
whichever seed or path reached it, and keeps the first graph of each class.

The children of a parent are filtered for all 2^n candidate neighborhoods
at once, and every rule enters the filter the same way: as forbidden
traces.  A trace (C, A) forbids the neighborhoods s with ``s & C == A``.
Freeness gives the traces of :func:`patterns.forbidden_traces`; the two
pruning rules below add theirs.  :func:`patterns.forbidden_bitmap` holds
a set of neighborhoods as an int of 2^n bits, bit s standing for s, so
the cube a trace forbids is an AND of |C| per-vertex bitmaps ("s contains
v", or its complement) and the forbidden set is the OR of the cubes.  The
allowed masks are the clear bits of the result, read in ascending order by
:func:`patterns.set_bits`: the list the per-mask test gave.

A node's freeness bitmap F, the neighborhoods that the family (with K_k,
see below) forbids, is built on its parent's, which the node carries.  A
child g of order n is its parent p plus vertex n - 1, and p is g less
that vertex, so the traces of g are those of p and those through n - 1
(:func:`patterns.traces_through`).  A trace (C, A) of p has C below n - 1,
so whether s & C == A does not depend on bit n - 1 of s: its cube in 2^n
bits is its cube in 2^(n-1) bits twice over, and F of p becomes
``F | F << 2^(n-1)`` exactly.  The obligation traces of a node belong to
that node alone: they are ORed into what it filters with, never into the
F its children inherit.  Seeds have no parent and compute F from scratch,
and so does a node of order k under pruning, because K_k joins the family
there and its parent's F, of order k - 1, lacks the K_k traces.  Each
expanded node returns its F once, and the next level holds it by
reference in every child's entry, so a level keeps one int of 2^(n-1)
bits per distinct parent: 512 bytes at n = 13, 256 KB at n = 22.

Pruning rests on one fact about any vertex-critical completion G of the
working graph I: G contains no comparable vertices and, more generally, no
disjoint nonempty X, Y that are anticomplete with chi(G[X]) <= chi(G[Y])
and Y complete to N(X).  If I currently contains such a pair (X, Y), some
future vertex must be adjacent to X while missing part of Y, and it may as
well be the next one: extensions that do not repair the recorded
obstruction are skipped.  "s meets X and misses part of Y" says exactly
that s avoids the traces (X, 0) and (Y, Y), so the rule adds those two.
Every vertex-critical supergraph survives some addition order, so the
output set is unchanged (the no-pruning run is the differential oracle for
this).

Pruning also never builds a child that contains K_k.  A new vertex whose
neighborhood holds a (k-1)-clique of a parent with at least k vertices
closes a K_k inside a child of at least k + 1 vertices.  Deleting a vertex
outside that K_k keeps chi >= k, so the child is not critical, and the
search would only classify it dead; no supergraph of it can be critical
either.  The rule needs ``g.n >= k``: a parent of k - 1 vertices (K_{k-1}
itself) has K_k as a child, and K_k is critical and must be emitted.  The
rule adds K_k to the family whose traces are taken: K_k minus a vertex is
K_{k-1}, all of it adjacent to the removed vertex, so its traces are the
(C, C) of every (k-1)-clique C, each found once since the vertices of K_k
are twins.  The traces are exact only for a parent free of every pattern,
K_k included, and that holds: only parents of chromatic number below k are
expanded.  It leaves the output bytes unchanged: containing K_k is an
isomorphism invariant, so every copy of a dropped class is dropped, the
children that remain keep their relative order, and each surviving class
keeps the same first representative.  Only the count of nodes visited
falls.

A node's children are also deduplicated before they are built.  The
canonical search that admitted the node found automorphisms of it, and
they generate a group A of automorphisms of the parent.  Its allowed masks
are walked in ascending order, and a mask is kept unless A maps an
already kept mask onto it, so exactly the least allowed mask of each
A-orbit is kept.  A mask s and its image a(s) give isomorphic children (a,
extended to fix the new vertex, is an isomorphism), so every dropped
child is a duplicate of a kept one.  The output bytes do not change: the
first child of a class in level order comes from the first parent with an
allowed child in that class, with the least such mask m of that parent.
The allowed masks of the A-orbit of m all give children of that class, so
none is below m, m is the least allowed mask of its orbit and is kept.
Each level thus keeps the same first graph of every class in the same
order, so ``nodes_visited``, ``complete`` and the emitted graphs are as
without the step.  This holds for any allowed set, including the
obligation filter, which is not invariant under A, and for any subgroup of
the automorphism group.  It is deduplication, not pruning, and runs with
``pruning=False`` too.

One process pool serves the whole run, and results are merged in
submission order, so output is byte-identical for any job count.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .canon import CanonicalForm, canonical_form, canonical_key, form_of_key
from .coloring import is_k_colorable
from .critical import find_xy_obstruction, noncritical_vertex
from .graph6 import encode_graph6
from .graphs import (
    MAX_ORDER,
    Graph,
    VertexSet,
    add_vertex_with_neighborhood,
    complement,
    complete,
    cycle,
)
from .patterns import (
    Pattern,
    forbidden_bitmap,
    forbidden_traces,
    free_after_extension,  # not called here; the benchmark's tracer patches this name
    is_family_free,
    parse_pattern,
    set_bits,
    traces_through,
)


@dataclass(frozen=True)
class SearchConfig:
    k: int
    family: tuple[Pattern, ...]
    max_order: int
    seeds: tuple[Graph, ...] = ()
    pruning: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if not 1 <= self.max_order <= MAX_ORDER:
            raise ValueError(f"max_order must be within 1..{MAX_ORDER}")


@dataclass
class EnumerationResult:
    graphs: list[Graph]
    per_order_counts: dict[int, int]
    nodes_visited: int
    open_nodes: int  # graphs still extendable at the order cap

    @property
    def complete(self) -> bool:
        return self.open_nodes == 0


def find_obligations(g: Graph) -> tuple[VertexSet, VertexSet] | None:
    """The obstruction ``(x, y)`` the next added vertex must repair, or None.

    ``x`` and ``y`` are vertex bitmasks of ``g``; a new vertex is allowed
    only if it is adjacent to some vertex of ``x`` and nonadjacent to some
    vertex of ``y``.  Comparable pairs are the (1, 1) case.
    """
    return find_xy_obstruction(g)


# Node outcomes for the search driver.
_OUT = 0        # emitted as k-vertex-critical
_DEAD = 1       # chi >= k but not critical: no supergraph can be critical
_TRUNCATED = 2  # chi < k at the order cap: open branch
_EXPAND = 3


def _process_node(node: tuple[Graph, list[bytes], int | None], cfg: SearchConfig):
    """The node's outcome, and for ``_EXPAND`` its children, each with its
    canonical key, and the node's freeness bitmap, which they inherit."""
    g, autos, inherited = node
    k = cfg.k
    if is_k_colorable(g, k - 1) is None:
        return (_OUT, None, None) if noncritical_vertex(g, k) is None else (_DEAD, None, None)
    if g.n >= cfg.max_order:
        return (_TRUNCATED, None, None)
    free = _freeness_bitmap(g, cfg, inherited)
    children = _allowed_free_extensions(g, cfg, autos, free)
    return (_EXPAND, [(c, *canonical_key(c)) for c in children], free)


def _freeness_bitmap(g: Graph, cfg: SearchConfig, inherited: int | None) -> int:
    """The neighborhoods of a new vertex that the family forbids, as a bitmap.

    With pruning on and ``g.n >= k``, K_k is in the family.  ``inherited``
    is the bitmap of the parent, g less its last vertex, or None to
    compute the bitmap from scratch.
    """
    family = cfg.family
    n = g.n
    if cfg.pruning and n >= cfg.k:  # a child on a (k-1)-clique properly contains K_k
        family += (complete(cfg.k),)
        if n == cfg.k:  # K_k was not in the parent's family
            inherited = None
    if inherited is None:
        return forbidden_bitmap(forbidden_traces(g, family), n)
    through: dict[VertexSet, set[VertexSet]] = {}
    traces_through(g, family, n - 1, through)
    return inherited | inherited << (1 << (n - 1)) | forbidden_bitmap(through, n)


def _allowed_free_extensions(g: Graph, cfg: SearchConfig, autos: list[bytes],
                             free: int) -> list[Graph]:
    """The children of ``g`` to search: allowed, and one per orbit of ``autos``.

    ``free`` is the freeness bitmap of ``g`` (:func:`_freeness_bitmap`).
    """
    forbidden = free
    ob = find_obligations(g) if cfg.pruning else None
    if ob is not None:  # the new vertex meets x: not (x, 0); it misses part of y: not (y, y)
        x, y = ob
        forbidden |= forbidden_bitmap({x: {0}, y: {y}}, g.n)
    allowed = set_bits(((1 << (1 << g.n)) - 1) ^ forbidden)
    return [add_vertex_with_neighborhood(g, s) for s in _orbit_least(allowed, autos)]


def _orbit_least(masks: list[VertexSet], autos: list[bytes]) -> list[VertexSet]:
    """The least of the ascending ``masks`` in each orbit of the group ``autos`` generate.

    A mask is dropped when some automorphism maps an already kept mask onto
    it; the orbits are closed under the generators, so under the group.
    """
    if not autos:
        return masks
    kept: list[VertexSet] = []
    seen: set[VertexSet] = set()
    for s in masks:
        if s in seen:
            continue
        kept.append(s)
        seen.add(s)
        stack = [s]
        while stack:
            t = stack.pop()
            for a in autos:
                image = 0
                rest = t
                while rest:
                    b = rest & -rest
                    image |= 1 << a[b.bit_length() - 1]
                    rest ^= b
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
    return kept


def recursively_enumerate(
    cfg: SearchConfig,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> EnumerationResult:
    """All k-vertex-critical family-free graphs above the seeds of ``cfg``.

    Every such graph of order <= max_order that contains some seed as an
    induced subgraph is returned once, sorted by :func:`sort_graphs`.  A
    seed above the order cap is skipped; a seed that is not family-free is
    an error naming its position in ``cfg.seeds`` and its graph6.  Each
    level is one pass of :func:`_process_node` over its distinct graphs;
    their labelled children are merged into the next level as each result
    arrives, in submission order.  ``progress(order, count)`` is called
    once per order with the count of that pass.  Truncation (an extendable
    graph stopped by the order cap) is counted in ``open_nodes``, and
    ``complete`` is False then, never silently.  ``jobs`` must be at least
    1; at most ``os.cpu_count()`` worker processes are started.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    seeds_at: dict[int, list[Graph]] = {}
    for i, seed in enumerate(cfg.seeds, 1):
        if not is_family_free(seed, cfg.family):
            raise ValueError(f"seed {i} of {len(cfg.seeds)} ({encode_graph6(seed)}) "
                             "is not family-free")
        if seed.n <= cfg.max_order:
            seeds_at.setdefault(seed.n, []).append(seed)
    visited = open_nodes = 0
    emitted: list[tuple[Graph, CanonicalForm]] = []
    pool = None
    if jobs > 1:
        import multiprocessing

        pool = multiprocessing.get_context("fork").Pool(jobs)
    process = partial(_process_node, cfg=cfg)
    try:
        # the first graph of each class, with the automorphisms its search found
        # and its parent's freeness bitmap, shared by its siblings
        level: dict[int, tuple[Graph, list[bytes], int | None]] = {}
        for order in range(min(seeds_at, default=1), cfg.max_order + 1):
            for seed in seeds_at.get(order, []):
                key, autos = canonical_key(seed)
                level.setdefault(key, (seed, autos, None))
            if not level:
                continue
            outcomes = (map(process, level.values()) if pool is None else
                        pool.imap(process, level.values(), max(1, len(level) // (jobs * 4))))
            visited += len(level)
            upper: dict[int, tuple[Graph, list[bytes], int | None]] = {}
            for (key, (g, _, _)), (kind, children, free) in zip(level.items(), outcomes):
                if kind == _OUT:
                    emitted.append((g, form_of_key(order, key)))
                elif kind == _TRUNCATED:
                    open_nodes += 1
                elif kind == _EXPAND:
                    for child, child_key, child_autos in children:
                        upper.setdefault(child_key, (child, child_autos, free))
            if progress is not None:
                progress(order, len(level))
            level = upper
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    emitted.sort(key=lambda e: (e[0].n, e[1]))  # the order of sort_graphs
    return EnumerationResult(
        graphs=[g for g, _ in emitted],
        per_order_counts=dict(sorted(Counter(g.n for g, _ in emitted).items())),
        nodes_visited=visited,
        open_nodes=open_nodes,
    )


# Defaults for the three named companions of P5.  Every 5-vertex-critical
# P5-free graph is K5 or the complement of C9, or contains the complement of
# C5 or of C7 as an induced subgraph, and the largest critical graphs in
# these three classes are known to have the orders below.
NAMED_H_MAX_ORDER = {
    "k1,3+p1": 13,
    "k1,4+p1": 17,
    "co(k3+2p1)": 23,
}


def default_max_order_for(h: Pattern) -> int | None:
    """Known maximum critical order when ``h`` is one of the named companions."""
    from .canon import are_isomorphic

    for name, cap in NAMED_H_MAX_ORDER.items():
        if are_isomorphic(h.graph, parse_pattern(name).graph):
            return cap
    return None


def seed_graphs() -> list[Graph]:
    return [complement(cycle(5)), complement(cycle(7))]


def sporadic_graphs() -> list[Graph]:
    return [complete(5), complement(cycle(9))]


def enumerate_5vc(
    h: Pattern,
    max_order: int | None = None,
    pruning: bool = True,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> EnumerationResult:
    """All 5-vertex-critical {P5, h}-free graphs up to ``max_order``.

    One search seeded with the two sporadic graphs and the complements of
    C5 and C7, less those that contain ``h`` (no graph of the class can
    contain them).  A sporadic seed is critical itself, so the search emits
    it.  Exhaustiveness of the seed set is guaranteed whenever P5 is in the
    family; the three named companions additionally have known maximum
    orders (the defaults).
    """
    family = (parse_pattern("p5"), h)
    if max_order is None:
        max_order = default_max_order_for(h)
        if max_order is None:
            raise ValueError(f"no default max_order for pattern {h.name!r}; pass one")
    seeds = [g for g in sporadic_graphs() + seed_graphs() if is_family_free(g, family)]
    cfg = SearchConfig(k=5, family=family, max_order=max_order,
                       seeds=tuple(seeds), pruning=pruning)
    return recursively_enumerate(cfg, jobs=jobs, progress=progress)


def sort_graphs(graphs: list[Graph]) -> list[Graph]:
    """Deterministic output order: by order, then canonical form bytes."""
    return sorted(graphs, key=lambda g: (g.n, canonical_form(g)))


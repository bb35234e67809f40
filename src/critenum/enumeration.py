"""Exhaustive generation of k-vertex-critical family-free graphs.

The search grows graphs one vertex at a time from seed graphs.  A graph
whose chromatic number is still below k is extended by a new vertex with
every allowed neighborhood; a graph that reached chromatic number k is
emitted iff it is k-vertex-critical, and never extended (no supergraph of a
non-critical chi >= k graph can be vertex-critical).

One level-synchronous driver, :func:`recursively_enumerate`, runs the whole
search, one pass over each level.  One worker, :func:`_process_node`,
does all of a node's work: it filters its children, decides their kinds
under pruning, and labels every child it builds with its canonical key
(:func:`canon.canonical_key`).  The driver merges the children into the
next level, a dict keyed by canonical key, as each parent's result
arrives, in parent order; the seeds of order n are
merged after the children of level n - 1.  A child always has one vertex
more than its parent, so this one dict per level removes every duplicate,
whichever seed or path reached it, and keeps the first graph of each class.

The children of a parent are filtered for all 2^n candidate neighborhoods
at once, and every rule enters the filter the same way: as forbidden
traces.  A trace (C, A) forbids the neighborhoods s with ``s & C == A``.
A set of neighborhoods is an int of 2^n bits, bit s standing for s, so the
cube a trace forbids is an AND of |C| per-vertex bitmaps ("s contains v",
or its complement) and the forbidden set is the OR of the cubes.
Freeness gives the cubes of :func:`patterns.forbidden_through`, which ORs
them as its trace search reaches them; the pruning rule below adds two
more.  The allowed masks are the clear bits of the result, read in
ascending order by :func:`patterns.set_bits`: the list the per-mask test
gave.

A node's freeness bitmap F, the neighborhoods that the family forbids, is
built one vertex at a time.  Adding vertex v to a graph p on the vertices
below v gives the traces of p and those through v
(:func:`patterns.forbidden_through`).  A trace (C, A) of p has C below v,
so whether s & C == A does not depend on bit v of s: its cube in 2^(v+1)
bits is its cube in 2^v bits twice over, and the step is
``F | F << 2^v | forbidden_through(g, family, v)`` exactly.  A child, its
parent plus its last vertex, runs the step once on the F it inherits; a
seed runs the same step for each vertex, starting from the empty graph,
whose one neighborhood is forbidden iff some pattern is P1.  The
obligation cubes of a node belong to that node alone: they are ORed into
what it filters with, never into the F its children inherit.  Each
expanded node returns its F, with its dead ends (below) under pruning,
once, boxed in a tuple that every child's entry in the next level holds by
reference, so a level keeps one int of 2^(n-1) bits per distinct parent:
512 bytes at n = 13, 256 KB at n = 22.
The box also makes pickle send F once per chunk of the level under
``jobs > 1``, where a bare int would be copied into every child's entry.

Pruning rests on one fact about any vertex-critical completion G of the
working graph I: G contains no comparable vertices and, more generally, no
disjoint nonempty X, Y that are anticomplete with chi(G[X]) <= chi(G[Y])
and Y complete to N(X).  If I currently contains such a pair (X, Y), some
future vertex must be adjacent to X while missing part of Y, and it may as
well be the next one: extensions that do not repair the recorded
obstruction are skipped.  "s meets X and misses part of Y" says exactly
that s avoids the traces (X, 0) and (Y, Y), so the rule forbids their
cubes, the s that miss X and the s that contain Y.  Every vertex-critical
supergraph survives some addition order, so the output set is unchanged
(the no-pruning run is the differential oracle for this).

Pruning also decides the kind of each kept child at its parent g, which
is (k-1)-colorable, and never builds a dead child.  Let V be the vertices
of g, I range over the independent sets of g (the empty one too), D(I) be
the bitmap of the neighborhoods disjoint from I, and T the bitmap of the
W within V with chi(g[W]) <= k - 2: T starts as the empty set alone, and
each of k - 2 rounds sets ``T = OR over I of (T & D(I)) << I``, since a
set colored with one more color is a colored set plus a disjoint
independent set.

* g + s, the child whose new vertex v has neighborhood s, is
  (k-1)-colorable iff some I has ``I & s == 0`` and V - I in T.  Given a
  coloring, I is the class of v less v, independent and disjoint from s,
  and the other k - 2 classes color V - I.  Conversely v joins I and V - I
  takes k - 2 other colors.  So the colorable children are the s in the
  OR of D(I) over the I with V - I in T.
* Otherwise g + s has chi = k (g is (k-1)-colorable and v takes one more
  color).  It is critical iff g + s - x is (k-1)-colorable for every x.
  For x = v that is g itself.  For u in V, the same argument in g - u:
  g + s - u is (k-1)-colorable iff some I not containing u has
  ``I & s == 0`` and V - u - I in T.  This is tested only for the kept
  masks that are not colorable, few per parent, looping over the I
  disjoint from s.

A critical child is emitted without another test and a colorable one is
expanded without a coloring search; a dead child (chi = k, not critical)
is dropped before it is built, as no supergraph of it can be critical.
Children that properly contain K_k are among the dead.  Seeds, and every
node without pruning, are still classified at their node by the exact
colorings, so the no-pruning run stays an independent oracle.  The
output bytes are unchanged: deadness is an isomorphism invariant, so
every copy of a dead class is dropped, the children that remain keep
their relative order, and each surviving class keeps its first
representative.  Only the count of nodes visited falls.

A parent's classification also settles masks of its descendants.  Its
dead ends NC are the s, over all 2^n, with g + s not (k-1)-colorable: the
complement of the colorable bitmap above.  An expanded node ORs NC into the freeness
bitmap its children inherit, never into its own filter, as NC holds its
critical children too.  The inherited bitmap is read as traces on V(g),
so a descendant h of g keeps NC in the bitmap it filters with, and a mask
t of h with ``t & V(g)`` in NC gives a child containing g + s, s = t &
V(g), as a proper induced subgraph (the vertices of g and the new one).
That child has chi >= k and is not critical: it is dead, and h's
classification would drop it anyway, so every mask NC removes is dead.
The output bytes and nodes visited do not change: deadness is an
isomorphism invariant, so each orbit of h's automorphisms is all dead or
all alive.  A live orbit loses no mask, so its least allowed mask is kept
as before; a dead orbit may be represented by another of its masks, which
is dropped as dead too.  Only fewer masks are classified.  Like the
dead-child rule this is pruning, so without it nothing is ORed in.

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

A child's canonical search starts from automorphisms its parent knows.  An
automorphism a of g with a(s) = s, extended by v -> v for the new vertex
v, is an automorphism of g + s.  :func:`_orbit_least` maps each kept mask
s under every generator of A, and the generators that fix s seed the
child's :func:`canon.canonical_key`, which prunes with any known
automorphism.  Transpositions are left out: an automorphism that swaps
two vertices swaps twins, which stay twins in the child when the swap
fixes s, and the child's own twin table finds the swap again.  The key
does not change, since pruning by a true automorphism skips only subtrees
whose leaf codes equal those of searched ones, and the least leaf stays.
The seeds are returned with the automorphisms the search finds, and the
deduplication above holds for any subgroup of the automorphism group, so
the output bytes stay the same whatever group they generate; the
unchanged count of canonical searches shows it stays the group the
unseeded search finds.  Seeding is not pruning of the enumeration and
runs with ``pruning=False`` too.

One process pool serves the whole run, and results are merged in
submission order, so output is byte-identical for any job count.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .canon import CanonicalForm, are_isomorphic, canonical_form, canonical_key, form_of_key
from .coloring import is_k_colorable
from .critical import find_xy_obstruction, noncritical_vertex
from .graph6 import encode_graph6
from .graphs import (
    MAX_ORDER,
    Graph,
    VertexSet,
    add_vertex_with_neighborhood,
    bits,
    complement,
    complete,
    cycle,
    path,
)
from .patterns import (
    _vertex_bitmaps,
    forbidden_through,
    free_after_extension,  # not called here; the benchmark's tracer patches this name
    is_family_free,
    set_bits,
)


@dataclass(frozen=True)
class SearchConfig:
    k: int
    family: tuple[Graph, ...]
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
    open_nodes: int  # graphs still extendable at the order cap, and seeds above it

    @property
    def complete(self) -> bool:
        return self.open_nodes == 0


find_obligations = find_xy_obstruction  # the benchmark's tracer patches this name


# Node outcomes for the search driver.
_OUT = 0        # emitted as k-vertex-critical
_DEAD = 1       # chi >= k but not critical: no supergraph can be critical
_TRUNCATED = 2  # chi < k at the order cap: open branch
_EXPAND = 3     # chi < k: expanded unless at the order cap


# A node of a level: the first graph of its class, the automorphisms its
# canonical search returned, its parent's freeness bitmap with the parent's
# dead ends in a 1-tuple shared by its siblings (None for a seed), and the
# kind its parent found for it (None: classified at the node).
_Node = tuple[Graph, list[bytes], tuple[int] | None, int | None]


def _process_node(node: _Node, cfg: SearchConfig):
    """The node's outcome, and for ``_EXPAND`` its children as ``(canonical key, node)``.

    An expanded node g filters the 2^n neighborhoods of a new vertex with
    its freeness bitmap, ORed under pruning with the cubes (X, 0) and
    (Y, Y) of its obstruction, and keeps the least allowed mask of each
    orbit of ``autos`` (:func:`_orbit_least`).  Under pruning the kept
    masks get their kinds from :func:`_child_kinds` and dead ones are not
    built; without it every kind is None, left to the child.  Each child
    is labelled by :func:`canon.canonical_key`, seeded with the
    automorphisms of ``autos`` that fix its neighborhood, extended by
    n -> n.  The children share one box holding the node's freeness bitmap
    ORed, under pruning, with its dead ends (the s with g + s not
    (k-1)-colorable), which never enter the node's own filter.  Pickle,
    which copies a repeated int each time but a repeated tuple once, then
    sends the bitmap once per chunk of the next level under ``jobs > 1``.
    """
    g, autos, inherited, kind = node
    if kind is None:  # a seed, or any node without pruning: classified here
        if is_k_colorable(g, cfg.k - 1) is not None:
            kind = _EXPAND
        else:
            kind = _OUT if noncritical_vertex(g, cfg.k) is None else _DEAD
    if kind != _EXPAND:
        return (kind, None)
    if g.n >= cfg.max_order:
        return (_TRUNCATED, None)
    free = _freeness_bitmap(g, cfg.family, None if inherited is None else inherited[0])
    ones = (1 << (1 << g.n)) - 1
    forbidden = free
    ob = find_obligations(g) if cfg.pruning else None
    if ob is not None:  # the new vertex meets x and misses part of y
        x, y = ob
        sides = _vertex_bitmaps(g.n)
        misses_x = contains_y = ones
        for v in bits(x):
            misses_x &= sides[v][0]
        for v in bits(y):
            contains_y &= sides[v][1]
        forbidden |= misses_x | contains_y
    kept, stabilizers = _orbit_least(set_bits(ones ^ forbidden), autos)
    if cfg.pruning:
        kinds, colorable = _child_kinds(g, cfg.k, kept)
        box = (free | ones ^ colorable,)
    else:
        kinds, box = [None] * len(kept), (free,)
    fix_new = bytes([g.n])
    children = []
    for s, c_kind, stabilizer in zip(kept, kinds, stabilizers):
        if c_kind != _DEAD:
            c = add_vertex_with_neighborhood(g, s)
            key, c_autos = canonical_key(c, [a + fix_new for a in stabilizer])
            children.append((key, (c, c_autos, box, c_kind)))
    return (_EXPAND, children)


def _freeness_bitmap(g: Graph, family: tuple[Graph, ...], inherited: int | None) -> int:
    """The neighborhoods of a new vertex that ``family`` forbids, as a bitmap.

    ``inherited`` is the bitmap that the parent, g less its last vertex,
    passed down (with its dead ends under pruning), or None for a seed,
    which starts from the empty graph (see the module docstring).
    """
    if inherited is None:
        first, free = 0, int(any(p.n == 1 for p in family))
    else:
        first, free = g.n - 1, inherited
    for v in range(first, g.n):
        free |= free << (1 << v) | forbidden_through(g, family, v)
    return free


def _child_kinds(g: Graph, k: int, masks: list[VertexSet]) -> tuple[list[int], int]:
    """The outcome of g plus a vertex adjacent to s, for each s in ``masks``,
    and the bitmap of the s, over all 2^n, with g + s (k-1)-colorable.

    ``g`` must be (k-1)-colorable.  ``_EXPAND`` when the child is
    (k-1)-colorable, else ``_OUT`` when it is k-vertex-critical, else
    ``_DEAD``.  Decided from two tables of g by bit operations, with no
    coloring search (see the module docstring).
    """
    n = g.n
    full = (1 << n) - 1
    sides = _vertex_bitmaps(n)
    # Each independent set I with D(I), built one vertex at a time as the
    # freeness bitmap is: vertex v adds I + v for each listed I missing N(v).
    indep: list[tuple[VertexSet, int]] = [(0, (1 << (1 << n)) - 1)]
    for v, r in enumerate(g.rows):
        indep += [(i | 1 << v, d & sides[v][0]) for i, d in indep if not i & r]
    t = 1 if k >= 2 else 0  # T: the W with chi(g[W]) <= k - 2; none when k = 1
    for _ in range(k - 2):
        grown = 0
        for i, d in indep:
            grown |= (t & d) << i
        t = grown
    colorable = 0  # the s with g + s (k-1)-colorable
    for i, d in indep:
        if t >> (full ^ i) & 1:
            colorable |= d
    kinds = []
    for s in masks:
        if colorable >> s & 1:
            kinds.append(_EXPAND)
            continue
        need = full  # the u for which g + s - u is not yet shown (k-1)-colorable
        for i, _ in indep:
            if i & s:
                continue
            rest = full ^ i
            u_set = need & rest
            while u_set:
                b = u_set & -u_set
                u_set ^= b
                if t >> (rest ^ b) & 1:
                    need ^= b
            if not need:
                break
        kinds.append(_DEAD if need else _OUT)
    return kinds, colorable


def _orbit_least(masks: list[VertexSet],
                 autos: list[bytes]) -> tuple[list[VertexSet], list[list[bytes]]]:
    """The least of the ascending ``masks`` in each orbit of the group ``autos``
    generate, and for each the generators that fix it, transpositions left out.

    A mask is dropped when some automorphism maps an already kept mask onto
    it; the orbits are closed under the generators, so under the group.  A
    transposition automorphism swaps twins, and the child's own twin table
    finds the swap again.
    """
    if not autos:
        return masks, [[] for _ in masks]
    swaps = {a for a in autos if sum(v != w for v, w in enumerate(a)) == 2}
    kept: list[VertexSet] = []
    stabilizers: list[list[bytes]] = []
    seen: set[VertexSet] = set()
    for s in masks:
        if s in seen:
            continue
        kept.append(s)
        seen.add(s)
        fixing: list[bytes] = []
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
                elif image == t == s and a not in swaps:
                    fixing.append(a)
        stabilizers.append(fixing)
    return kept, stabilizers


def recursively_enumerate(
    cfg: SearchConfig,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> EnumerationResult:
    """All k-vertex-critical family-free graphs above the seeds of ``cfg``.

    Every such graph of order <= max_order that contains some seed as an
    induced subgraph is returned once, sorted by :func:`sort_graphs`.  A
    seed that is not family-free is an error naming its position in
    ``cfg.seeds`` and its graph6.  Each level is one pass of
    :func:`_process_node` over its distinct graphs.  Their labelled
    children, each with the kind its parent decided under pruning, the
    automorphisms of its seeded canonical search and its parent's box (the
    parent's freeness bitmap, with its dead ends under pruning), are merged
    into the next level as each result arrives, in submission order.
    ``progress(order, count)`` is called once per order with the
    count of that pass.  Truncation (an extendable graph stopped by the
    order cap, or a seed above the cap, which is never searched) is counted
    in ``open_nodes``, and ``complete`` is False then, never silently.
    ``jobs`` must be at least 1; at most ``os.cpu_count()`` worker
    processes are started.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    seeds_at: dict[int, list[Graph]] = {}
    visited = open_nodes = 0
    for i, seed in enumerate(cfg.seeds, 1):
        if not is_family_free(seed, cfg.family):
            raise ValueError(f"seed {i} of {len(cfg.seeds)} ({encode_graph6(seed)}) "
                             "is not family-free")
        if seed.n <= cfg.max_order:
            seeds_at.setdefault(seed.n, []).append(seed)
        else:  # the cap stopped it before it was searched
            open_nodes += 1
    emitted: list[tuple[Graph, CanonicalForm]] = []
    pool = None
    if jobs > 1:
        import multiprocessing
        import signal

        # Workers ignore Ctrl-C, or one could die holding the lock of the
        # task queue; leaving the block terminates them instead.
        pool = multiprocessing.get_context("fork").Pool(
            jobs, signal.signal, (signal.SIGINT, signal.SIG_IGN))
    process = partial(_process_node, cfg=cfg)
    with pool or nullcontext():
        level: dict[int, _Node] = {}
        for order in range(min(seeds_at, default=1), cfg.max_order + 1):
            for seed in seeds_at.get(order, []):
                key, autos = canonical_key(seed)
                level.setdefault(key, (seed, autos, None, None))
            if not level:
                continue
            outcomes = (map(process, level.values()) if pool is None else
                        pool.imap(process, level.values(), max(1, len(level) // (jobs * 4))))
            visited += len(level)
            upper: dict[int, _Node] = {}
            for (key, (g, _, _, _)), (kind, children) in zip(level.items(), outcomes):
                if kind == _OUT:
                    emitted.append((g, form_of_key(order, key)))
                elif kind == _TRUNCATED:
                    open_nodes += 1
                elif kind == _EXPAND:
                    for child_key, child in children:
                        upper.setdefault(child_key, child)
            if progress is not None:
                progress(order, len(level))
            level = upper
    emitted.sort(key=lambda e: (e[0].n, e[1]))  # the order of sort_graphs
    return EnumerationResult(
        graphs=[g for g, _ in emitted],
        per_order_counts=dict(sorted(Counter(g.n for g, _ in emitted).items())),
        nodes_visited=visited,
        open_nodes=open_nodes,
    )


def seeds_for(k: int, family: tuple[Graph, ...]) -> list[Graph]:
    """K_k, then the odd antiholes co-C_(2t+1), t = 2 ... k - 1, that are family-free.

    Every k-vertex-critical family-free graph contains one of them when some
    member of ``family`` is P5.  Let G be such a graph.  If G is perfect,
    chi(G) = omega(G) = k, so G contains K_k, and G is K_k since no proper
    induced subgraph of G has chromatic number k.  Otherwise, by the strong
    perfect graph theorem, G contains an odd hole or an odd antihole.  Odd
    holes longer than C5 contain P5, and C5 is co-C5, so G contains some
    co-C_(2t+1) with t >= 2, of chromatic number t + 1 <= k.  When t = k - 1
    it is no proper induced subgraph, as those have chromatic number below
    k, so G is that antihole.  Seeds above ``MAX_ORDER`` are dropped.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not any(are_isomorphic(p, path(5)) for p in family):
        raise ValueError("the seed theorem needs p5 in the family")
    seeds = [complete(k)] if k <= MAX_ORDER else []
    seeds += [complement(cycle(2 * t + 1)) for t in range(2, min(k, (MAX_ORDER + 1) // 2))]
    return [g for g in seeds if is_family_free(g, family)]


def enumerate_5vc(
    h: Graph,
    max_order: int,
    pruning: bool = True,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> EnumerationResult:
    """All 5-vertex-critical {P5, h}-free graphs up to ``max_order``.

    One search from ``seeds_for(5, (P5, h))``.  ``max_order`` is required:
    the known maximum critical orders of the named companions are results
    to check, not caps to assume.
    """
    family = (path(5), h)
    cfg = SearchConfig(5, family, max_order, tuple(seeds_for(5, family)), pruning)
    return recursively_enumerate(cfg, jobs=jobs, progress=progress)


def sort_graphs(graphs: list[Graph]) -> list[Graph]:
    """Deterministic output order: by order, then canonical form bytes."""
    return sorted(graphs, key=lambda g: (g.n, canonical_form(g)))


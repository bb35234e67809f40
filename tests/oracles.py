"""Independent brute-force oracles that the fast implementations are tested against.

Nothing here may call the code path it is used to check: isomorphism is a
direct backtracking bijection search, chromatic numbers try raw color
assignments, induced containment scans all vertex subsets, in-class
criticality enumerates every proper subgraph, and the canonical form
explores every branch of the individualization-refinement tree.
Automorphisms are found by trying every permutation.  Forbidden traces come
from every induced embedding of P - r for every vertex r, found by plain
backtracking, and extension masks are filtered one mask at a time.  Pinned
searches are checked against the same embeddings of P.  The reference
generator extends every graph by every neighborhood; it dedups with the
canonical form, so it checks the search, not canon.  :func:`cyclic_garbage`
counts what a call leaves for the cyclic collector.
"""

from __future__ import annotations

import gc
import itertools
import random
from typing import Iterator

from critenum import (
    Graph,
    add_vertex_with_neighborhood,
    canonical_form,
    chromatic_number,
    delete_vertex,
    induced_subgraph,
    is_family_free,
)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, rows)


def cyclic_garbage(run) -> int:
    """The unreachable objects ``run()`` leaves for the cyclic collector.

    Reference counting frees everything else as soon as it is dropped, so
    the collector is switched off while ``run`` runs, and on again after.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def permuted(g: Graph, perm: list[int]) -> Graph:
    """Relabel ``g`` by ``perm`` (old index -> new index)."""
    rows = [0] * g.n
    for i in range(g.n):
        for j in range(g.n):
            if (g.rows[i] >> j) & 1:
                rows[perm[i]] |= 1 << perm[j]
    return Graph(g.n, rows)


def full_tree_canonical_rows(g: Graph) -> tuple[int, ...]:
    """Least leaf code of the whole individualization-refinement tree.

    Refinement splits, round by round, the first cell whose vertices differ
    in their edge counts into the cells, into pieces sorted by that count
    profile; a node branches on every vertex of its first non-singleton
    cell; a leaf's code is the rows relabeled by its vertex order.  No
    branch is pruned, so the cost grows with the automorphism group.
    """
    n, rows = g.n, g.rows
    if n <= 1:
        return rows

    def refined(cells):
        while True:
            masks = [sum(1 << v for v in cell) for cell in cells]
            for ci, cell in enumerate(cells):
                groups: dict[tuple[int, ...], list[int]] = {}
                for v in cell:
                    profile = tuple(bin(rows[v] & m).count("1") for m in masks)
                    groups.setdefault(profile, []).append(v)
                if len(groups) > 1:
                    cells = cells[:ci] + [groups[p] for p in sorted(groups)] + cells[ci + 1:]
                    break
            else:
                return cells

    def leaf_codes(cells):
        target = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            order = [cell[0] for cell in cells]
            position = {v: i for i, v in enumerate(order)}
            yield tuple(sum(1 << position[u] for u in range(n) if (rows[v] >> u) & 1)
                        for v in order)
            return
        cell = cells[target]
        for v in cell:
            rest = [w for w in cell if w != v]
            yield from leaf_codes(refined(cells[:target] + [[v], rest] + cells[target + 1:]))

    return min(leaf_codes(refined([list(range(n))])))


def one_vertex_extensions(g: Graph) -> Iterator[Graph]:
    """All 2^n one-vertex extensions, in ascending neighborhood-mask order."""
    for s in range(1 << g.n):
        yield add_vertex_with_neighborhood(g, s)


def all_graphs(max_order: int) -> dict[int, list[Graph]]:
    """Every isomorphism class of order 1..max_order, one representative each.

    Brute-force reference generator: canonical-form-deduplicated exhaustive
    one-vertex extension, no pruning of any kind.  Exponential; meant for
    small orders where it serves as the completeness oracle for the pruned
    search.
    """
    levels: dict[int, list[Graph]] = {1: [Graph(1, (0,))]}
    for n in range(1, max_order):
        seen: set[bytes] = set()
        nxt: list[Graph] = []
        for g in levels[n]:
            for child in one_vertex_extensions(g):
                cf = canonical_form(child)
                if cf not in seen:
                    seen.add(cf)
                    nxt.append(child)
        levels[n + 1] = nxt
    return levels


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking bijection search, independent of canonical labeling."""
    if g.n != h.n:
        return False
    n = g.n
    gdeg = sorted(r.bit_count() for r in g.rows)
    hdeg = sorted(r.bit_count() for r in h.rows)
    if gdeg != hdeg:
        return False
    image = [-1] * n

    def extend(v: int, used: int) -> bool:
        if v == n:
            return True
        dv = g.rows[v].bit_count()
        for w in range(n):
            if (used >> w) & 1 or h.rows[w].bit_count() != dv:
                continue
            if all(((g.rows[v] >> u) & 1) == ((h.rows[w] >> image[u]) & 1) for u in range(v)):
                image[v] = w
                if extend(v + 1, used | (1 << w)):
                    return True
        image[v] = -1
        return False

    return extend(0, 0)


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every automorphism of ``g`` as a tuple of images, by trying all n! permutations."""
    return [p for p in itertools.permutations(range(g.n)) if permuted(g, list(p)) == g]


def naive_chromatic(g: Graph) -> int:
    """Least k such that some of the k^n raw assignments is proper."""
    n = g.n
    if n == 0:
        return 0
    edges = list(g.edges())
    for k in range(1, n + 1):
        for assignment in itertools.product(range(k), repeat=n):
            if all(assignment[u] != assignment[v] for u, v in edges):
                return k
    raise AssertionError("n colors always suffice")


def scan_induced(host: Graph, pattern: Graph) -> bool:
    """Exhaustive check over all |pattern|-subsets and all their orderings.

    Orderings are tried only for subsets whose induced degree sequence is
    the pattern's, which no induced copy can fail.
    """
    pn = pattern.n
    if pn > host.n:
        return False
    pdegs = sorted(r.bit_count() for r in pattern.rows)
    for subset in itertools.combinations(range(host.n), pn):
        inside = sum(1 << u for u in subset)
        if sorted((host.rows[u] & inside).bit_count() for u in subset) != pdegs:
            continue
        for perm in itertools.permutations(subset):
            if all(
                pattern.has_edge(a, b) == host.has_edge(perm[a], perm[b])
                for a in range(pn)
                for b in range(a + 1, pn)
            ):
                return True
    return False


def all_proper_subgraphs(g: Graph):
    """Every proper subgraph: drop any vertex subset, then any edge subset."""
    full = (1 << g.n) - 1
    for kept in range(full, 0, -1):
        sub = induced_subgraph(g, kept)
        edges = list(sub.edges())
        for drop in range(1 << len(edges)):
            if kept == full and drop == 0:
                continue
            yield Graph(sub.n, _rows_without(sub, edges, drop))
    if g.n:
        yield Graph(0, ())


def _rows_without(sub: Graph, edges, drop: int) -> list[int]:
    rows = list(sub.rows)
    for idx, (u, v) in enumerate(edges):
        if (drop >> idx) & 1:
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
    return rows


def naive_in_class_critical(g: Graph, k: int, family) -> bool:
    """Direct definition: family-free, chi = k, and no family-free proper
    subgraph keeps chromatic number >= k."""
    if not is_family_free(g, family):
        return False
    if chromatic_number(g) != k:
        return False
    full = (1 << g.n) - 1
    for kept in range(full, 0, -1):
        sub = induced_subgraph(g, kept)
        if chromatic_number(sub) < k:
            continue
        edges = list(sub.edges())
        for drop in range(1 << len(edges)):
            if kept == full and drop == 0:
                continue
            cand = Graph(sub.n, _rows_without(sub, edges, drop))
            if chromatic_number(cand) >= k and is_family_free(cand, family):
                return False
    return True


def brute_forbidden_traces(host: Graph, family) -> dict[int, set[int]]:
    """``{C: {A, ...}}`` over every vertex r of every pattern P and every
    induced embedding of P - r into ``host``: C its image, A the image of
    N_P(r).  No orbit representatives and no symmetry breaking."""
    out: dict[int, set[int]] = {}
    for pg in family:
        for r in range(pg.n):
            rest = delete_vertex(pg, r)
            nbrs = [u if u < r else u + 1 for u in range(rest.n)]  # P - r vertex -> P vertex
            for emb in _induced_embeddings(host, rest):
                c = sum(1 << h for h in emb)
                a = sum(1 << h for u, h in enumerate(emb) if pg.has_edge(r, nbrs[u]))
                out.setdefault(c, set()).add(a)
    return out


def pinned_images(host: Graph, pattern: Graph) -> set[tuple[int, int]]:
    """Every (a, h) such that some induced embedding of ``pattern`` maps a to h,
    read off every embedding found by plain backtracking."""
    return {(a, h) for emb in _induced_embeddings(host, pattern) for a, h in enumerate(emb)}


def _induced_embeddings(host: Graph, pattern: Graph):
    """Every injective map of pattern vertex u -> host vertex preserving edges and non-edges."""
    image: list[int] = []

    def extend():
        u = len(image)
        if u == pattern.n:
            yield tuple(image)
            return
        for h in range(host.n):
            if h in image:
                continue
            if all(pattern.has_edge(u, w) == host.has_edge(h, image[w]) for w in range(u)):
                image.append(h)
                yield from extend()
                image.pop()

    yield from extend()


def scan_extension_masks(traces: dict[int, set[int]], n: int) -> list[int]:
    """The s < 2^n, ascending, with ``s & C`` outside ``traces[C]`` for every C:
    one mask at a time."""
    return [s for s in range(1 << n)
            if all(s & c not in images for c, images in traces.items())]

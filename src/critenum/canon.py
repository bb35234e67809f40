"""Canonical labeling and isomorphism testing.

The canonical form is defined by an individualization-refinement tree:

- :func:`_refine` refines an ordered partition of the vertices, a list of
  cell masks, to an equitable one.  Every step depends only on adjacency
  and on the order of the cells, never on vertex names, so refinement is
  equivariant: for any relabeling s, refining the relabeled partition of
  the relabeled graph gives the relabeled result.
- The root is the refinement of the one-cell partition.  The children of a
  node are obtained by individualizing each vertex v of its first cell with
  more than one vertex (the target cell: ``{v}`` is put in front of the rest
  of the cell) and refining again.  The individualized vertices of a node
  are its path.
- A leaf is a partition into singletons, read as a vertex order.  Its code
  is the adjacency rows of the graph relabeled by that order, packed into
  one int with row 0 in the highest n bits, so that codes compare as their
  tuples of rows do.

The canonical form is the least leaf code of the full tree.  Relabeling
the graph relabels the tree and leaves the set of leaf codes as it is, so
the form is an isomorphism invariant, and it is a graph isomorphic to the
input.

If an automorphism s fixes every vertex of a node's path, equivariance
maps the node onto itself and the subtree below child v onto the subtree
below child s(v), leaf for leaf with equal codes.  The search skips child
v when such an s maps v onto a lower vertex of the target cell.  That
child is searched or skipped in turn, so following the images downward
ends at a searched child, whose subtree the composed automorphism maps onto
v's; the argument does not depend on the order the children are taken in:

- **Twins.**  If u and v have equal neighborhoods apart from each other,
  the transposition (u v) is an automorphism.  It fixes the path, whose
  vertices are singletons and so neither u nor v.  A table of each
  vertex's lower twins makes the test one AND.
- **Stored automorphisms.**  Two leaves with equal codes give the
  automorphism that maps one vertex order onto the other; v is skipped if a
  stored one fixes the path and maps v onto a lower vertex of the cell.
  The caller may also pass automorphisms it already knows, which start the
  store (McKay and Piperno, "Practical graph isomorphism, II", 2014: any
  known automorphism prunes the tree).  The enumeration passes a child the
  automorphisms of its parent that fix the child's new neighborhood.
- **Return on automorphism.**  Let a leaf at path p have the code of an
  earlier leaf at path q, and let l be the first level where they differ.
  The automorphism s taking the leaf of p to the leaf of q maps p onto q
  (each individualized vertex sits at the start of its target cell in the
  vertex order), so it fixes ``p[:l]`` and maps child ``p[l]`` onto child
  ``q[l]`` of the same node, which was searched first since the search is
  depth first.  The rest of the subtree below ``p[:l + 1]`` is skipped.

The search also returns automorphisms: the stored ones, the caller's
first, and the swap of each vertex that has a twin with its least twin.  A
vertex has false twins (equal open neighborhoods) or true twins (equal
closed ones), never both, so a twin class of m vertices gives m - 1 swaps,
which generate all its permutations.  The enumeration uses the automorphisms to skip
children that are automorphic images of a sibling.

The search is two module functions, :func:`_descend` and :func:`_visit_leaf`,
that take its state as arguments: a nested function that calls itself holds
its own closure cell, a reference cycle that would keep each search's state
alive until the cyclic garbage collector ran.

:func:`canonical_form` is the graph6 encoding of the canonically relabeled
graph, so it doubles as a ready-to-write output line.  The enumeration
does not dedup on it: its key is :func:`canonical_key`, the least leaf
code itself, which needs no encoding and identifies a class among graphs
of one order.  Only emitted graphs are encoded, from their key by
:func:`form_of_key`, which :func:`canonical_form` calls too.
"""

from __future__ import annotations

from typing import Iterable

from .graph6 import encode_graph6
from .graphs import Graph, _graph, bits

CanonicalForm = bytes


def _refine(rows, cells, stale) -> None:
    """Refine an ordered partition, a list of cell masks, to equitability, in place.

    Each round splits the first cell whose vertices differ in their edge
    counts into the cells of the partition.  The pieces replace it in
    place, ordered by that count profile, which is relabeling-invariant.

    ``stale[i]`` is the union of the cells that split since cell i was last
    found uniform, 0 if none.  It is a union of cells that cell i was
    uniform against, so the vertices of cell i agree in their counts into
    every cell outside it and in their count into all of it: their profiles
    differ, if at all, in the counts into the cells inside it but the last,
    and sort in that order.
    """
    ci = 0
    while ci < len(cells):
        cell = cells[ci]
        stale_mask = stale[ci]
        size = cell.bit_count()
        if not stale_mask or size == 1:
            ci += 1
            continue
        stale[ci] = 0
        # Two vertices of a cell count their own edge into it alike, so
        # equal rows on the rest of the stale mask make their profiles equal.
        if size == 2 and not (rows[(cell & -cell).bit_length() - 1]
                              ^ rows[cell.bit_length() - 1]) & stale_mask & ~cell:
            ci += 1
            continue
        inside = [m for m in cells if m & stale_mask]
        inside.pop()
        groups: dict[tuple[int, ...], int] = {}
        rest = cell
        while rest:
            b = rest & -rest
            rest ^= b
            rv = rows[b.bit_length() - 1]
            profile = tuple([(rv & m).bit_count() for m in inside])
            groups[profile] = groups.get(profile, 0) | b
        if len(groups) == 1:
            ci += 1
            continue
        stale[:] = [s | cell for s in stale]
        cells[ci : ci + 1] = [groups[p] for p in sorted(groups)]
        stale[ci : ci + 1] = [cell] * len(groups)
        ci = 0


def _relabeled(rows, order) -> int:
    """The leaf code of ``order``: the rows relabeled so that ``order[i]`` is vertex i."""
    n = len(order)
    bit = [0] * n
    for i, v in enumerate(order):
        bit[v] = 1 << i
    code = 0
    for v in order:
        r = rows[v]
        m = 0
        while r:
            b = r & -r
            m |= bit[b.bit_length() - 1]
            r ^= b
        code = code << n | m
    return code


def canonical_form(g: Graph) -> CanonicalForm:
    """Order-prefixed byte fingerprint of the isomorphism class of ``g``."""
    return form_of_key(g.n, canonical_key(g)[0])


def _visit_leaf(rows, autos, leaf_seen, cells, path) -> int:
    """Record a leaf; return the level to abandon, or ``n`` for none.

    ``leaf_seen`` maps each leaf code to the vertex order and path it was
    first met at; a code met again appends an automorphism to ``autos``.
    """
    perm = [m.bit_length() - 1 for m in cells]
    code = _relabeled(rows, perm)
    seen = leaf_seen.get(code)
    if seen is None:
        leaf_seen[code] = (perm, path)
        return len(rows)
    seen_perm, seen_path = seen
    sigma = [0] * len(rows)
    for v, w in zip(seen_perm, perm):
        sigma[v] = w
    autos.append(bytes(sigma))
    level = 0
    while path[level] == seen_path[level]:
        level += 1
    return level


def _descend(rows, twins_below, autos, leaf_seen, cells, path) -> int:
    """Search below the node ``cells`` at ``path``; return the level to abandon, or ``n``."""
    for ci, cmask in enumerate(cells):
        if cmask.bit_count() > 1:
            break
    else:
        return _visit_leaf(rows, autos, leaf_seen, cells, path)
    depth = len(path)
    for v in bits(cmask):
        bit = 1 << v
        done = cmask & (bit - 1)
        if done and (twins_below[v] & done
                     or any(done >> s[v] & 1 and all(s[f] == f for f in path)
                            for s in autos)):
            continue
        rv = rows[v]
        sub = cells[:ci] + [bit, cmask ^ bit] + cells[ci + 1 :]
        # The first round of refinement after individualizing v in an
        # equitable partition can only split by adjacency to v: it
        # splits the first cell holding both neighbors and non-neighbors
        # of v, non-neighbors first.
        for xi, xm in enumerate(sub):
            adj = rv & xm
            if adj and adj != xm:
                sub[xi : xi + 1] = [xm ^ adj, adj]
                # Cells up to the new pieces are uniform against all but
                # the split cell; later ones were not checked against
                # the individualized cell either.
                stale = [xm] * (xi + 2) + [cmask | xm] * (len(sub) - xi - 2)
                _refine(rows, sub, stale)
                break
        back = _descend(rows, twins_below, autos, leaf_seen, sub, path + (v,))
        if back < depth:
            return back
    return len(rows)


def canonical_key(g: Graph, automorphisms: Iterable[bytes] = ()) -> tuple[int, list[bytes]]:
    """The key, which is the least leaf code, and the automorphisms found.

    Row i of the canonical rows takes bits ``(n - 1 - i) * n`` on, so the
    key identifies the class among graphs of one order only;
    :func:`form_of_key` turns it into the canonical form.  Each automorphism
    s is a ``bytes`` of length ``g.n`` with ``s[v]`` the image of v, each
    listed once.  ``automorphisms`` are known automorphisms of g, in the
    same form, that start the stored ones; they prune the search and are
    returned with the ones it finds.  They must be automorphisms of g: any
    other permutation can prune the least leaf and give a wrong key.
    """
    n = g.n
    rows = g.rows
    autos: list[bytes] = list(automorphisms)
    leaf_seen: dict[int, tuple[list[int], tuple[int, ...]]] = {}
    # The first round on the one-cell partition splits it by degree; each
    # degree class is then uniform against the whole vertex set.
    degree_cells: dict[int, int] = {}
    for v in range(n):
        d = rows[v].bit_count()
        degree_cells[d] = degree_cells.get(d, 0) | 1 << v
    cells = [degree_cells[d] for d in sorted(degree_cells)]
    _refine(rows, cells, [(1 << n) - 1] * len(cells))
    # twins_below[v] is the mask of v's twins below v, which share its root
    # cell.  False twins share open rows, true twins closed rows.  One dict
    # holds both, as rows[u] == rows[w] | 1 << w would put w in rows[u], so
    # u in rows[w], a subset of rows[u], which has no bit u.
    twins_below = [0] * n
    below: dict[int, int] = {}
    for cell in cells:
        if cell.bit_count() > 1:
            for v in bits(cell):
                for twin_key in (rows[v], rows[v] | 1 << v):
                    twins_below[v] |= below.get(twin_key, 0)
                    below[twin_key] = below.get(twin_key, 0) | 1 << v
    _descend(rows, twins_below, autos, leaf_seen, cells, ())
    for v, tb in enumerate(twins_below):
        if tb:
            swap = list(range(n))
            u = (tb & -tb).bit_length() - 1
            swap[u], swap[v] = v, u
            autos.append(bytes(swap))
    return min(leaf_seen), list(dict.fromkeys(autos))


def form_of_key(n: int, key: int) -> CanonicalForm:
    """The canonical form of the order-``n`` class with :func:`canonical_key` ``key``."""
    full = (1 << n) - 1
    rows = tuple(key >> i * n & full for i in reversed(range(n)))  # row 0 highest
    return encode_graph6(_graph(n, rows)).encode("ascii")


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    return canonical_key(g)[0] == canonical_key(h)[0]

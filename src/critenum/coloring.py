"""Exact k-colorability, chromatic number and clique number.

The colorability search backtracks over vertices in dynamic
saturation-degree order with color-symmetry breaking: a new color index may
only be opened as the next unused index.  Exponential in the worst case,
fast at the orders this package works at (n <= 23 critical graphs).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class Coloring:
    """A proper coloring witness; color indices are 0..colors_used-1."""

    assignment: tuple[int, ...]
    colors_used: int

    def is_proper_for(self, g: Graph) -> bool:
        if len(self.assignment) != g.n:
            return False
        used = set(self.assignment)
        if self.colors_used != len(used) or used != set(range(self.colors_used)):
            return False
        return all(self.assignment[u] != self.assignment[v] for u, v in g.edges())


def _color_assignment(rows: tuple[int, ...], n: int, k: int) -> list[int] | None:
    """Backtracking core; returns a proper assignment with colors < k, or None."""
    colors = [-1] * n
    adj_mask = [0] * n  # colors already present in each vertex's neighborhood
    degs = [r.bit_count() for r in rows]
    full = (1 << k) - 1

    def bt(colored: int, used: int) -> bool:
        if colored == n:
            return True
        v = -1
        best = (-1, -1)
        for u in range(n):
            if colors[u] < 0:
                key = (adj_mask[u].bit_count(), degs[u])
                if key > best:
                    best = key
                    v = u
        avail = ~adj_mask[v] & full & ((1 << min(used + 1, k)) - 1)
        while avail:
            cbit = avail & -avail
            avail ^= cbit
            colors[v] = cbit.bit_length() - 1
            changed = []
            dead = False
            r = rows[v]
            while r:
                b = r & -r
                r ^= b
                u = b.bit_length() - 1
                if colors[u] < 0 and not adj_mask[u] & cbit:
                    adj_mask[u] |= cbit
                    changed.append(u)
                    if adj_mask[u] == full:
                        dead = True
            if not dead and bt(colored + 1, max(used, colors[v] + 1)):
                return True
            colors[v] = -1
            for u in changed:
                adj_mask[u] ^= cbit
        return False

    return colors if bt(0, 0) else None


def is_k_colorable(g: Graph, k: int) -> Coloring | None:
    """A proper coloring with at most ``k`` colors, or None if impossible."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if g.n == 0:
        return Coloring((), 0)
    if k == 0:
        return None
    assignment = _color_assignment(g.rows, g.n, k)
    if assignment is None:
        return None
    return _normalized(assignment)


def _normalized(assignment: list[int]) -> Coloring:
    remap: dict[int, int] = {}
    out = []
    for c in assignment:
        if c not in remap:
            remap[c] = len(remap)
        out.append(remap[c])
    return Coloring(tuple(out), len(remap))


def _largest_clique(rows: tuple[int, ...], cand: int, size: int, best: int) -> int:
    """The larger of ``best`` and the largest clique of ``size`` vertices plus some of ``cand``.

    The ``size`` vertices form a clique adjacent to every vertex of ``cand``.
    """
    while cand:
        if size + cand.bit_count() <= best:
            return best
        b = cand & -cand
        sub = cand & rows[b.bit_length() - 1]
        if size + 1 > best:
            best = size + 1
        if sub:
            best = _largest_clique(rows, sub, size + 1, best)
        cand ^= b
    return best


def clique_number(g: Graph) -> int:
    """Maximum clique size by branch and bound over bitset candidate sets."""
    return _largest_clique(g.rows, (1 << g.n) - 1, 0, 0)


def chromatic_number(g: Graph) -> int:
    """Least k admitting a proper k-coloring; 0 for the empty graph.

    The exact search runs at k = omega(g), omega(g) + 1, ... (chi >= omega)
    and the first k it colors is the answer; it succeeds by k = n at the
    latest.
    """
    if g.n == 0:
        return 0
    k = clique_number(g)
    while _color_assignment(g.rows, g.n, k) is None:
        k += 1
    return k

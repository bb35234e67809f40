"""Immutable bitset-backed graphs and the basic structural operations.

Vertices are integers ``0..n-1`` with ``n <= 64``, so every adjacency row
fits in one machine word and neighborhood algebra is plain integer bit
arithmetic.  All operations return new graphs; nothing here mutates.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_ORDER = 64

# A vertex set is a plain int bitmask over the host graph's vertices.
VertexSet = int


def mask_of(vertices: Iterable[int]) -> VertexSet:
    """Build a vertex-set bitmask from an iterable of vertex indices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _check_order(n: int) -> None:
    if not 0 <= n <= MAX_ORDER:
        raise ValueError(f"order {n} outside 0..{MAX_ORDER}")


def _as_mask(n: int, s: VertexSet | Iterable[int]) -> int:
    m = s if isinstance(s, int) else mask_of(s)
    if m < 0 or m >> n:
        raise ValueError(f"vertex set {bin(m)} out of range for order {n}")
    return m


class Graph:
    """Immutable simple undirected graph with per-vertex adjacency bitsets.

    Bit ``j`` of ``rows[i]`` is set iff ``{i, j}`` is an edge.  Instances
    are value objects: hashable, comparable by content and safe to share.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[int]):
        rows = tuple(rows)
        _check_order(n)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        for i, r in enumerate(rows):
            if r < 0 or r >> n:
                raise ValueError(f"row {i} has bits outside 0..{n - 1}")
            if (r >> i) & 1:
                raise ValueError(f"row {i} has a self-loop")
        for i in range(n):
            for j in bits(rows[i]):
                if not (rows[j] >> i) & 1:
                    raise ValueError(f"asymmetric adjacency between {i} and {j}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Graph({self.n}, edges={list(self.edges())})"

    def __reduce__(self):
        return (_graph, (self.n, self.rows))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            r = self.rows[u] >> (u + 1)
            while r:
                b = r & -r
                yield (u, u + 1 + b.bit_length() - 1)
                r ^= b

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self.rows[u] >> v) & 1)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for order {self.n}")


def _graph(n: int, rows: tuple[int, ...]) -> Graph:
    # Fast path for operations that produce structurally valid rows.
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "rows", rows)
    return g


def path(t: int) -> Graph:
    """The path on ``t`` vertices with edges {i, i+1}."""
    if t < 1:
        raise ValueError("path needs at least one vertex")
    _check_order(t)
    rows = [0] * t
    for i in range(t - 1):
        rows[i] |= 1 << (i + 1)
        rows[i + 1] |= 1 << i
    return Graph(t, rows)


def cycle(t: int) -> Graph:
    """The cycle on ``t >= 3`` vertices."""
    if t < 3:
        raise ValueError("cycle needs at least three vertices")
    _check_order(t)
    rows = [0] * t
    for i in range(t):
        j = (i + 1) % t
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(t, rows)


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("negative order")
    _check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << i) for i in range(n)))


def complete_bipartite(r: int, s: int) -> Graph:
    if r < 1 or s < 1:
        raise ValueError("both parts need at least one vertex")
    _check_order(r + s)
    left = (1 << r) - 1
    right = ((1 << s) - 1) << r
    rows = [right] * r + [left] * s
    return Graph(r + s, rows)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return _graph(g.n, tuple((full ^ r) & ~(1 << i) for i, r in enumerate(g.rows)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """``g`` followed by ``h`` with ``h``'s vertices shifted past ``g``'s."""
    n = g.n + h.n
    if n > MAX_ORDER:
        raise ValueError(f"combined order {n} exceeds {MAX_ORDER}")
    return _graph(n, g.rows + tuple(r << g.n for r in h.rows))


def induced_subgraph(g: Graph, s: VertexSet | Iterable[int]) -> Graph:
    """Subgraph induced by ``s`` under the order-preserving relabeling."""
    m = _as_mask(g.n, s)
    kept = list(bits(m))
    pos = {v: i for i, v in enumerate(kept)}
    rows = []
    for v in kept:
        r = g.rows[v] & m
        rows.append(sum(1 << pos[w] for w in bits(r)))
    return _graph(len(kept), tuple(rows))


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove ``v``; vertices above ``v`` shift down by one."""
    g._check_vertex(v)
    low = (1 << v) - 1
    rows = []
    for i in range(g.n):
        if i == v:
            continue
        r = g.rows[i]
        rows.append((r & low) | ((r >> (v + 1)) << v))
    return _graph(g.n - 1, tuple(rows))


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    rows = list(g.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return _graph(g.n, tuple(rows))


def add_vertex_with_neighborhood(g: Graph, nbrs: VertexSet | Iterable[int]) -> Graph:
    """Append vertex ``n`` adjacent exactly to ``nbrs``."""
    if g.n >= MAX_ORDER:
        raise ValueError(f"order {MAX_ORDER} reached, cannot add a vertex")
    m = _as_mask(g.n, nbrs)
    newbit = 1 << g.n
    rows = tuple(r | newbit if (m >> i) & 1 else r for i, r in enumerate(g.rows))
    return _graph(g.n + 1, rows + (m,))


def degree(g: Graph, v: int) -> int:
    g._check_vertex(v)
    return g.rows[v].bit_count()


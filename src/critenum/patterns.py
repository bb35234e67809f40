"""Forbidden patterns: a small construction DSL and induced-subgraph search.

Pattern grammar (case-insensitive, spaces ignored)::

    expr := term ("+" term)*          disjoint union
    term := [multiplier] atom         "2p1" = two isolated vertices
    atom := "p"N                      path on N vertices
          | "c"N                      cycle on N vertices
          | "k"N                      complete graph
          | "k"R","S                  complete bipartite
          | "co(" expr ")"            complement

Containment is always *induced*: a pattern embeds only if edges and
non-edges are both preserved.

Freeness of one-vertex extensions is decided once per parent.  For a
family-free g, a pattern P and one representative r of each automorphism
orbit of P, every induced copy of P - r in g is a trace (C, A): its image C
and the image A of N_P(r).  g plus a new vertex with neighborhood s is
family-free iff s & C != A for every trace (:func:`forbidden_traces` says
why); :func:`free_extension_masks` applies the traces to candidate
neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

from .graphs import (
    MAX_ORDER,
    Graph,
    VertexSet,
    complement,
    complete,
    complete_bipartite,
    cycle,
    delete_vertex,
    disjoint_union,
    path,
)


class PatternSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Pattern:
    """A named forbidden graph built from the DSL."""

    def __init__(self, name: str, graph: Graph):
        self.name = name
        self.graph = graph

    def __repr__(self):
        return f"Pattern({self.name!r}, n={self.graph.n})"

    def __eq__(self, other):
        return isinstance(other, Pattern) and self.name == other.name and self.graph == other.graph

    def __hash__(self):
        return hash((self.name, self.graph))


PatternLike = Union[Pattern, Graph]


def _pattern_graph(p: PatternLike) -> Graph:
    return p.graph if isinstance(p, Pattern) else p


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def error(self, message: str):
        raise PatternSyntaxError(message, self.i)

    def peek(self) -> str:
        return self.text[self.i] if self.i < len(self.text) else ""

    def integer(self) -> int:
        start = self.i
        while self.i < len(self.text) and self.text[self.i].isdigit():
            self.i += 1
        if self.i == start:
            self.error("expected a number")
        return int(self.text[start : self.i])

    def expr(self) -> Graph:
        g = self.term()
        while self.peek() == "+":
            self.i += 1
            g = self._union(g, self.term())
        return g

    def term(self) -> Graph:
        mult = 1
        if self.peek().isdigit():
            mult = self.integer()
            if mult < 1:
                self.error("multiplier must be positive")
        g = self.atom()
        out = g
        # More than MAX_ORDER + 1 copies add nothing (an empty atom) or overflow.
        for _ in range(min(mult, MAX_ORDER + 1) - 1):
            out = self._union(out, g)
        return out

    def _union(self, a: Graph, b: Graph) -> Graph:
        try:
            return disjoint_union(a, b)
        except ValueError as exc:
            self.error(str(exc))

    def atom(self) -> Graph:
        start = self.i
        ch = self.peek()
        if self.text.startswith("co(", self.i):
            self.i += 3
            g = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.i += 1
            return complement(g)
        if ch not in ("p", "c", "k"):
            self.error("expected 'p', 'c', 'k' or 'co('")
        self.i += 1
        first = self.integer()
        second = None
        if ch == "k" and self.peek() == ",":
            self.i += 1
            second = self.integer()
        try:
            if ch == "p":
                return path(first)
            if ch == "c":
                return cycle(first)
            if second is not None:
                return complete_bipartite(first, second)
            return complete(first)
        except ValueError as exc:
            self.i = start
            self.error(str(exc))


def parse_pattern(text: str) -> Pattern:
    """Parse a DSL string into a named Pattern."""
    normalized = "".join(text.split()).lower()
    parser = _Parser(normalized)
    try:
        g = parser.expr()
    except RecursionError:
        raise PatternSyntaxError("pattern nested too deeply", parser.i) from None
    if parser.i != len(normalized):
        parser.error("unexpected trailing input")
    if g.n < 1:
        parser.error("pattern must have at least one vertex")
    return Pattern(normalized, g)


@dataclass(frozen=True)
class Embedding:
    """Injective map pattern vertex -> host vertex preserving (non-)edges."""

    map: tuple[int, ...]


def embedding_is_induced(host: Graph, pattern: PatternLike, emb: Embedding) -> bool:
    """Independent re-check that ``emb`` is a valid induced embedding."""
    pg = _pattern_graph(pattern)
    m = emb.map
    if len(m) != pg.n or len(set(m)) != pg.n:
        return False
    if any(not 0 <= h < host.n for h in m):
        return False
    for a in range(pg.n):
        for b in range(a + 1, pg.n):
            if pg.has_edge(a, b) != host.has_edge(m[a], m[b]):
                return False
    return True


def _match_order(pg: Graph, anchor: int | None) -> tuple[int, ...]:
    """Assignment order: anchor first, then by placed-neighbor count and degree."""
    order = []
    placed = 0
    if anchor is not None:
        order.append(anchor)
        placed = 1 << anchor
    while len(order) < pg.n:
        pick = -1
        best = (-1, -1)
        for v in range(pg.n):
            if (placed >> v) & 1:
                continue
            key = ((pg.rows[v] & placed).bit_count(), pg.rows[v].bit_count())
            if key > best:
                best = key
                pick = v
        order.append(pick)
        placed |= 1 << pick
    return tuple(order)


@lru_cache(maxsize=512)
def _match_plan(pg: Graph, anchor: int | None):
    order = _match_order(pg, anchor)
    prev = []
    for s, v in enumerate(order):
        prev.append(tuple((t, bool((pg.rows[v] >> order[t]) & 1)) for t in range(s)))
    degs = tuple(pg.rows[v].bit_count() for v in order)
    return order, tuple(prev), degs


def _degree_masks(host: Graph, thresholds: tuple[int, ...]) -> list[int]:
    hdegs = [r.bit_count() for r in host.rows]
    out = []
    for d in thresholds:
        m = 0
        for v, hd in enumerate(hdegs):
            if hd >= d:
                m |= 1 << v
        out.append(m)
    return out


def _search(host: Graph, pg: Graph, anchor_pvert: int | None, anchor_hvert: int | None):
    if pg.n > host.n:
        return None
    order, prev, degs = _match_plan(pg, anchor_pvert)
    degmasks = _degree_masks(host, degs)
    if anchor_hvert is not None:
        if not (degmasks[0] >> anchor_hvert) & 1:
            return None
        degmasks[0] = 1 << anchor_hvert
    hrows = host.rows
    pn = pg.n
    assigned = [-1] * pn

    def dfs(s: int, used: int) -> bool:
        if s == pn:
            return True
        cand = degmasks[s] & ~used
        for t, is_edge in prev[s]:
            h = assigned[t]
            cand &= hrows[h] if is_edge else ~hrows[h]
            if not cand:
                return False
        while cand:
            b = cand & -cand
            cand ^= b
            assigned[s] = b.bit_length() - 1
            if dfs(s + 1, used | b):
                return True
        assigned[s] = -1
        return False

    if not dfs(0, 0):
        return None
    emb = [0] * pn
    for s, v in enumerate(order):
        emb[v] = assigned[s]
    return Embedding(tuple(emb))


def find_induced(host: Graph, pattern: PatternLike) -> Embedding | None:
    """Some induced embedding of ``pattern`` into ``host``, or None."""
    return _search(host, _pattern_graph(pattern), None, None)


def is_family_free(host: Graph, family: Iterable[PatternLike]) -> bool:
    """True iff no family member occurs in ``host`` as an induced subgraph."""
    return all(find_induced(host, p) is None for p in family)


@lru_cache(maxsize=512)
def _anchor_roles(pg: Graph) -> tuple[int, ...]:
    """The least vertex of each automorphism orbit of the pattern.

    An induced embedding of P into itself is an automorphism, so v lies in
    the orbit of r exactly when the search anchored at r -> v succeeds.
    """
    roles: list[int] = []
    for v in range(pg.n):
        if all(_search(pg, pg, r, v) is None for r in roles):
            roles.append(v)
    return tuple(roles)


def free_after_extension(host: Graph, family: Iterable[PatternLike], new_vertex: int) -> bool:
    """Freeness of ``host`` given it was family-free before ``new_vertex`` was added.

    Only embeddings through the new vertex can exist, so each pattern is
    searched anchored at one representative of every automorphism orbit.
    """
    for p in family:
        pg = _pattern_graph(p)
        for role in _anchor_roles(pg):
            if _search(host, pg, role, new_vertex) is not None:
                return False
    return True


@lru_cache(maxsize=512)
def _trace_plans(pg: Graph) -> tuple[tuple[Graph, VertexSet], ...]:
    """P - r and N_P(r), renumbered as in P - r, for each orbit representative r."""
    plans = []
    for r in _anchor_roles(pg):
        nbrs = pg.rows[r]
        low = (1 << r) - 1
        plans.append((delete_vertex(pg, r), (nbrs & low) | ((nbrs >> (r + 1)) << r)))
    return tuple(plans)


def _collect_traces(host: Graph, pg: Graph, nbrs: VertexSet,
                    out: dict[VertexSet, set[VertexSet]]) -> None:
    """Add (image, image of ``nbrs``) of every induced embedding of ``pg`` into ``host``."""
    pn = pg.n
    if pn > host.n:
        return
    if pn == 0:
        out.setdefault(0, set()).add(0)
        return
    order, prev, degs = _match_plan(pg, None)
    degmasks = _degree_masks(host, degs)
    marked = [(nbrs >> v) & 1 for v in order]
    hrows = host.rows
    placed = [0] * pn  # host row of the vertex placed at each step
    last = pn - 1

    def dfs(s: int, used: int, a: int) -> None:
        cand = degmasks[s] & ~used
        for t, is_edge in prev[s]:
            cand &= placed[t] if is_edge else ~placed[t]
            if not cand:
                return
        mark = marked[s]
        if s == last:
            while cand:
                b = cand & -cand
                cand ^= b
                out.setdefault(used | b, set()).add(a | b if mark else a)
            return
        while cand:
            b = cand & -cand
            cand ^= b
            placed[s] = hrows[b.bit_length() - 1]
            dfs(s + 1, used | b, a | b if mark else a)

    dfs(0, 0, 0)


def forbidden_traces(g: Graph, family: Iterable[PatternLike]) -> dict[VertexSet, set[VertexSet]]:
    """Every forbidden trace of the family-free graph ``g``, as ``{C: {A, ...}}``.

    For each pattern P and each orbit representative r of Aut(P), every
    induced embedding of P - r into ``g`` gives the trace (C, A): C is its
    image and A the image of N_P(r).  Adding a vertex v with neighborhood s
    to ``g`` keeps it family-free iff ``s & C not in traces[C]`` for every
    C.  This is exact, not a filter:

    * ``g`` is family-free, so every copy of P in the extension uses v;
    * an automorphism of P maps the role v plays to its orbit's
      representative r, so v may be taken to play r;
    * the rest of the copy is an induced copy of P - r with some image C,
      and v extends it to an induced P exactly when ``s & C == A``.
    """
    out: dict[VertexSet, set[VertexSet]] = {}
    for p in family:
        for rest, nbrs in _trace_plans(_pattern_graph(p)):
            _collect_traces(g, rest, nbrs, out)
    return out


def free_extension_masks(traces: dict[VertexSet, set[VertexSet]],
                         masks: Iterable[VertexSet]) -> list[VertexSet]:
    """The neighborhoods in ``masks`` that no trace of :func:`forbidden_traces` forbids."""
    # Image sets that forbid the largest share of masks are tried first.
    groups = sorted(traces.items(), key=lambda ca: -len(ca[1]) / (1 << ca[0].bit_count()))
    allowed = []
    for s in masks:
        for c, forbidden in groups:
            if s & c in forbidden:
                break
        else:
            allowed.append(s)
    return allowed

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
family-free iff s & C != A for every trace (:func:`traces_through` says
why).

There is one trace search, anchored at a host vertex v:
:func:`traces_through` finds the traces whose image contains v and lies
in the vertices <= v.  So the traces of g are the union over its
vertices, and g plus a new highest vertex v has the traces of g and the
traces through v.  P1 - r is empty: its one trace (0, 0) has no vertex,
so no search finds it, and the caller adds it (P1 forbids every extension).
The search places one vertex a of P - r at v first.  One a per orbit of
the stabilizer of r in Aut(P) is enough, since such an automorphism keeps
every trace, and the embeddings are enumerated up to swaps of twins of P,
each twin class mapped to decreasing host vertices.  For P5, K1,3+P1,
K1,4+P1 and co(K3+2P1) each trace then comes from exactly one embedding.

:func:`forbidden_bitmap` applies traces to all 2^n candidate
neighborhoods at once, as a bitmap indexed by the neighborhood, and
:func:`set_bits` reads the neighborhoods back in ascending order.
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
        while self.i < len(self.text) and self.text[self.i].isdecimal():
            self.i += 1
        if self.i == start:
            self.error("expected a number")
        try:
            return int(self.text[start : self.i])
        except ValueError:  # more digits than int() converts
            self.i = start
            self.error("number too large")

    def expr(self) -> Graph:
        g = self.term()
        while self.peek() == "+":
            self.i += 1
            g = self._union(g, self.term())
        return g

    def term(self) -> Graph:
        mult = 1
        if self.peek().isdecimal():
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


def _match_order(pg: Graph, pinned: tuple[int, ...]) -> tuple[int, ...]:
    """Assignment order: the pinned vertices first, then by placed-neighbor count and degree."""
    order = list(pinned)
    placed = 0
    for v in pinned:
        placed |= 1 << v
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
def _match_plan(pg: Graph, pinned: tuple[int, ...]):
    order = _match_order(pg, pinned)
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


def _search(host: Graph, pg: Graph, pinned: tuple[int, ...], images: tuple[int, ...]):
    """The first induced embedding of ``pg`` into ``host`` that maps ``pinned`` onto ``images``."""
    if pg.n > host.n:
        return None
    order, prev, degs = _match_plan(pg, pinned)
    degmasks = _degree_masks(host, degs)
    for s, h in enumerate(images):
        if not (degmasks[s] >> h) & 1:
            return None
        degmasks[s] = 1 << h
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
    return _search(host, _pattern_graph(pattern), (), ())


def is_family_free(host: Graph, family: Iterable[PatternLike]) -> bool:
    """True iff no family member occurs in ``host`` as an induced subgraph."""
    return all(find_induced(host, p) is None for p in family)


@lru_cache(maxsize=512)
def _orbit_leasts(pg: Graph, fixed: tuple[int, ...]) -> tuple[int, ...]:
    """The least vertex of each orbit outside ``fixed`` of the automorphisms of P fixing ``fixed``.

    An induced embedding of P into itself is an automorphism, so one that
    fixes ``fixed`` pointwise maps a to u exactly when the search pinned at
    ``fixed`` -> ``fixed`` and a -> u succeeds.
    """
    leasts: list[int] = []
    for u in range(pg.n):
        if u not in fixed and all(_search(pg, pg, fixed + (a,), fixed + (u,)) is None
                                  for a in leasts):
            leasts.append(u)
    return tuple(leasts)


def free_after_extension(host: Graph, family: Iterable[PatternLike], new_vertex: int) -> bool:
    """Freeness of ``host`` given it was family-free before ``new_vertex`` was added.

    Only embeddings through the new vertex can exist, so each pattern is
    searched pinned at one representative of every automorphism orbit.
    """
    for p in family:
        pg = _pattern_graph(p)
        for role in _orbit_leasts(pg, ()):
            if _search(host, pg, (role,), (new_vertex,)) is not None:
                return False
    return True


@lru_cache(maxsize=512)
def _anchored_plans(pg: Graph) -> tuple[tuple[tuple, tuple[int, ...], tuple[int, ...]], ...]:
    """One search plan of P - r per orbit representative r and anchor a of its stabilizer.

    Each plan follows the match order of P - r that places a first and
    gives, per step: the earlier steps with whether they are adjacent, whether
    the vertex is in N_P(r), and the latest earlier step that places a twin
    in P of the same vertex (see :func:`traces_through`), or -1.
    """
    plans = []
    for r in _orbit_leasts(pg, ()):
        rest = delete_vertex(pg, r)  # vertices above r shift down by one
        nbrs = pg.rows[r]
        nbrs = (nbrs & ((1 << r) - 1)) | ((nbrs >> (r + 1)) << r)
        rows = rest.rows
        for a in _orbit_leasts(pg, (r,)):
            order, prev, _ = _match_plan(rest, (a - (a > r),))
            before = []
            for s, u in enumerate(order):
                twins = [t for t in range(s)
                         if rows[u] & ~(1 << order[t]) == rows[order[t]] & ~(1 << u)
                         and (nbrs >> u & 1) == (nbrs >> order[t] & 1)]
                before.append(twins[-1] if twins else -1)
            plans.append((prev, tuple(nbrs >> u & 1 for u in order), tuple(before)))
    return tuple(plans)


def _collect_through(host: Graph, v: int, plan, out: dict[VertexSet, set[VertexSet]]) -> None:
    """Add the trace of each embedding of the plan whose anchor maps to v and the rest below v.

    Only the embeddings that map each step s below the host vertex of step
    ``before[s]`` are enumerated.
    """
    prev, marked, before = plan
    pn = len(prev)
    if pn > v + 1:
        return
    top = 1 << v
    below = top - 1
    hrows = host.rows
    placed = [hrows[v]] * pn  # host row of the vertex placed at each step
    chosen = [top] * pn  # its bit
    last = pn - 1

    def dfs(s: int, used: int, a: int) -> None:  # used: the image below v
        cand = below ^ used
        t = before[s]
        if t >= 0:  # below the twin placed at step t
            cand &= chosen[t] - 1
        for t, is_edge in prev[s]:
            cand &= placed[t] if is_edge else ~placed[t]
            if not cand:
                return
        mark = marked[s]
        if s == last:
            while cand:
                b = cand & -cand
                cand ^= b
                out.setdefault(used | b | top, set()).add(a | b if mark else a)
            return
        while cand:
            b = cand & -cand
            cand ^= b
            placed[s] = hrows[b.bit_length() - 1]
            chosen[s] = b
            dfs(s + 1, used | b, a | b if mark else a)

    a = top if marked[0] else 0
    if pn == 1:
        out.setdefault(top, set()).add(a)
    else:
        dfs(1, 0, a)


def traces_through(g: Graph, family: Iterable[PatternLike], v: int,
                   out: dict[VertexSet, set[VertexSet]]) -> None:
    """Add to ``out`` the forbidden traces (C, A) of ``g`` with v in C and C within 0..v.

    These are the traces that ``g`` has and ``g`` less the vertices above v
    lacks.  The traces decide freeness exactly, not as a filter, when a
    vertex w with neighborhood s is added to the family-free ``g``:

    * every copy of P in the extension uses w;
    * an automorphism of P maps the role w plays to its orbit's
      representative r, so w may be taken to play r;
    * the rest of the copy is an induced copy of P - r with some image C,
      and w extends it to an induced P exactly when ``s & C == A``.

    An automorphism of P that fixes r keeps every trace, so the search need
    not try every vertex of P - r at v: the least vertex a of each orbit of
    the stabilizer of r, placed first, is enough (f composed with the
    automorphism that takes a to f^-1(v) maps a to v).  For P5 minus its
    middle vertex, 2P2, that is 2 anchors against 4 twin classes: the
    reflection fixes r and swaps the two end pairs.

    Within a plan, not every embedding is enumerated either.  Call u, x in
    P - r twins when they are twins in P: N_P(u) - x = N_P(x) - u, so both
    are in N_P(r) or both are not.  Then the swap (u x) is an automorphism
    of P that fixes r, and an embedding f and f composed with (u x) have
    the same image and the same image of N_P(r): the same trace.  Being
    twins is an equivalence relation, and the swaps within its classes
    generate every permutation of each class, so each embedding has an
    equivalent one that maps each class to decreasing host vertices, in
    the order the search places them.  Sorting keeps a at v, since the
    anchor is placed first and v is the highest vertex of the image.  Only
    those embeddings are enumerated, and the traces are the same sets.
    """
    for p in family:
        for plan in _anchored_plans(_pattern_graph(p)):
            _collect_through(g, v, plan, out)


@lru_cache(maxsize=1)
def _vertex_bitmaps(n: int) -> tuple[tuple[int, int], ...]:
    """``(~X_v, X_v)`` for every v < n, where bit s of X_v is set iff s contains v.

    Indexed by whether s contains v.  Only the last order is kept: 2n ints
    of 2^n bits, 22 MB at n = 22.
    """
    ones = (1 << (1 << n)) - 1
    sides = []
    for v in range(n):
        half = 1 << v  # X_v repeats 2^v clear bits, then 2^v set bits
        xv = ones // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half)
        sides.append((ones ^ xv, xv))
    return tuple(sides)


def forbidden_bitmap(traces: dict[VertexSet, set[VertexSet]], n: int) -> int:
    """The neighborhoods s < 2^n that some trace ``(C, A)`` forbids, as a bitmap.

    Sets of neighborhoods are ints whose bit s stands for s, and X_v is the
    set of the s that contain v.  The trace (C, A) forbids the cube of the
    s with ``s & C == A``: the AND over v in C of X_v when v is in A, else
    of its complement.
    """
    sides = _vertex_bitmaps(n)
    ones = (1 << (1 << n)) - 1
    forbidden = 0
    for c, images in traces.items():
        members = []  # bits(c), inlined: this runs once per image set
        while c:
            b = c & -c
            c ^= b
            members.append(b.bit_length() - 1)
        for a in images:
            cube = ones
            for v in members:
                cube &= sides[v][a >> v & 1]
            forbidden |= cube
    return forbidden


def set_bits(bitmap: int) -> list[int]:
    """The positions of the set bits of ``bitmap``, ascending."""
    text = bin(bitmap)[:1:-1]  # text[s] is bit s
    out = []
    s = text.find("1")
    while s >= 0:
        out.append(s)
        s = text.find("1", s + 1)
    return out

"""Forbidden patterns: a small construction DSL and induced-subgraph search.

A pattern is a plain :class:`Graph`, from the constructors of
:mod:`critenum.graphs` or from :func:`parse_pattern`, which reads this
grammar (case-insensitive, spaces ignored)::

    expr := term ("+" term)*          disjoint union
    term := [multiplier] atom         "2p1" = two isolated vertices
    atom := "p"N                      path on N vertices
          | "c"N                      cycle on N vertices
          | "k"N                      complete graph
          | "k"R","S                  complete bipartite
          | "co(" expr ")"            complement

Containment is always *induced*: a pattern embeds only if edges and
non-edges are both preserved.

The induced-subgraph search finds each copy of P once, not once per
automorphism of P, by symmetry-breaking conditions f(a) < f(b) read off
Aut(P) (Grochow and Kellis, "Network motif discovery using subgraph
enumeration and symmetry-breaking", RECOMB 2007).  Each step of the match
order is kept below the later steps that an automorphism fixing the
earlier steps can map it to, so every embedding has an automorphic image
that meets the conditions (:func:`_search` gives the argument).  For P5
that is one condition, the reflection; for K1,3+P1 and K1,4+P1 a chain on
the leaves; for co(K3+2P1) a chain on each class of twins.

Freeness of one-vertex extensions is decided once per parent.  For a
family-free g, a pattern P and one representative r of each automorphism
orbit of P, every induced copy of P - r in g is a trace (C, A): its image C
and the image A of N_P(r).  g plus a new vertex with neighborhood s is
family-free iff s & C != A for every trace (:func:`forbidden_through` says
why).

There is one trace search, anchored at a host vertex v:
:func:`forbidden_through` finds the traces whose image contains v and lies
in the vertices <= v.  So the traces of g are the union over its
vertices, and g plus a new highest vertex v has the traces of g and the
traces through v.  P1 - r is empty: its one trace (0, 0) has no vertex,
so no search finds it, and the caller adds it (P1 forbids every extension).
The search places one vertex a of P - r at v first.  One a per orbit of
the stabilizer of r in Aut(P) is enough, since such an automorphism keeps
every trace, and the embeddings are enumerated under the conditions of
the induced-subgraph search pinned at r and a.  So one table of
conditions serves both searches, and each trace of any P comes from
exactly one embedding.

The search keeps no traces: it applies each one to all 2^(v+1) candidate
neighborhoods at once, as a bitmap indexed by the neighborhood, and
returns the bitmap of the forbidden ones.  :func:`set_bits` reads
neighborhoods back in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .graphs import (
    MAX_ORDER,
    Graph,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    path,
)


class PatternSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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


def parse_pattern(text: str) -> Graph:
    """Parse a DSL string into the graph it builds, ignoring case and whitespace."""
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
    return g


@dataclass(frozen=True)
class Embedding:
    """Injective map pattern vertex -> host vertex preserving (non-)edges."""

    map: tuple[int, ...]


def embedding_is_induced(host: Graph, pattern: Graph, emb: Embedding) -> bool:
    """Independent re-check that ``emb`` is a valid induced embedding."""
    m = emb.map
    if len(m) != pattern.n or len(set(m)) != pattern.n:
        return False
    if any(not 0 <= h < host.n for h in m):
        return False
    for a in range(pattern.n):
        for b in range(a + 1, pattern.n):
            if pattern.has_edge(a, b) != host.has_edge(m[a], m[b]):
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


@lru_cache(maxsize=None)  # keyed on patterns and list members only: a whole list stays cached
def _match_plan(pg: Graph, pinned: tuple[int, ...]):
    """The match order of ``pg`` with ``pinned`` first, and the plan :func:`_embed` runs.

    The plan gives per step the earlier steps with whether they are
    adjacent, the degree, and ``above``: the earlier unpinned steps s whose
    host vertex must lie below this step's, those such that an automorphism
    of P fixing ``order[:s]`` pointwise maps ``order[s]`` to this step's
    vertex (:func:`_search` says why).  The table is built downward over s.
    Whether such an automorphism maps ``order[s]`` to ``order[t]`` is one
    run of the plan from P into P, with steps 0..s pinned at
    ``order[:s] + (order[t],)``: the greedy order continues every prefix of
    itself, so that run's plan is this one with the conditions of the
    steps above s, the ones found so far.  A step's hits are added only
    after all of its runs.  A condition that two others already imply,
    through a later step of the same orbit, is left out.
    """
    order = _match_order(pg, pinned)
    prev = tuple(tuple((t, bool(pg.rows[v] >> order[t] & 1)) for t in range(s))
                 for s, v in enumerate(order))
    degs = tuple(pg.rows[v].bit_count() for v in order)
    above: list[tuple[int, ...]] = [()] * pg.n
    plan = (prev, degs, above)
    for s in range(pg.n - 2, len(pinned) - 1, -1):
        fixed = order[:s]
        hits = [t for t in range(s + 1, pg.n) if _embed(pg, plan, fixed + (order[t],))]
        for t in hits:
            if not any(u in hits for u in above[t]):
                above[t] = (s,) + above[t]
    return order, (prev, degs, tuple(above))


def _degree_masks(host: Graph, thresholds: tuple[int, ...]) -> list[int]:
    """Per threshold d, the host vertices of degree at least d."""
    top = max(thresholds, default=0)
    at_least = [0] * (top + 1)  # at first: the vertices of degree d, or of top and more
    bit = 1
    for r in host.rows:
        d = r.bit_count()
        at_least[d if d < top else top] |= bit
        bit <<= 1
    for d in range(top - 1, -1, -1):
        at_least[d] |= at_least[d + 1]
    return [at_least[d] for d in thresholds]


def _embed(host: Graph, plan, images: tuple[int, ...]) -> list[int] | None:
    """The host vertex of each step of the first embedding the plan finds, the first steps at ``images``."""
    prev, degs, above = plan
    pn = len(prev)
    if pn > host.n:
        return None
    degmasks = _degree_masks(host, degs)
    for s, h in enumerate(images):
        if not (degmasks[s] >> h) & 1:
            return None
        degmasks[s] = 1 << h
    hrows = host.rows
    assigned = [-1] * pn

    def dfs(s: int, used: int) -> bool:
        if s == pn:
            return True
        cand = degmasks[s] & ~used
        for t in above[s]:
            cand &= -2 << assigned[t]  # the host vertices above step t's
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
        return False

    return assigned if dfs(0, 0) else None


def _search(host: Graph, pg: Graph, pinned: tuple[int, ...], images: tuple[int, ...]):
    """The first induced embedding of ``pg`` into ``host`` that maps ``pinned`` onto ``images``.

    Only one embedding per copy of P is enumerated, the least in the match
    order (Grochow and Kellis, "Network motif discovery using subgraph
    enumeration and symmetry-breaking", RECOMB 2007): each unpinned step s
    gets the condition f(order[s]) < f(order[t]) for every later step t
    whose vertex an automorphism of P fixing ``order[:s]`` pointwise maps
    ``order[s]`` to.  Call G_s those automorphisms, and O_s the orbit of
    ``order[s]`` under G_s.

    No copy is lost.  Take any embedding f that respects the pins and, for
    s from the first unpinned step up, replace f by f composed with the
    element of G_s that sends ``order[s]`` to the member of O_s with the
    least image.  Then f maps ``order[s]`` to the least image on O_s, as
    the condition of step s asks.  The composition keeps the earlier
    steps' conditions: an element of G_s fixes ``order[:s]`` and, as G_s
    lies in each earlier G_r, maps each earlier O_r onto itself, so the
    least image on O_r stays at ``order[r]``.  It keeps the pins too, as
    G_s fixes them; a pinned step gets no condition, since moving it would
    break its pin.  No copy is met twice either: if f and f composed with
    g meet the conditions, g != 1, the first step s that g moves has g in
    G_s, and the conditions of step s contradict.  So a failing search walks
    each copy once, not once per automorphism: 2 times fewer for P5, 6 for
    K1,3+P1, 12 for co(K3+2P1).  Which copy a successful search returns
    first can depend on the conditions.
    """
    order, plan = _match_plan(pg, pinned)
    assigned = _embed(host, plan, images)
    if assigned is None:
        return None
    emb = [0] * pg.n
    for s, v in enumerate(order):
        emb[v] = assigned[s]
    return Embedding(tuple(emb))


def find_induced(host: Graph, pattern: Graph) -> Embedding | None:
    """Some induced embedding of ``pattern`` into ``host``, or None.

    Whether one exists is decided exactly; which copy comes back is the
    first the symmetry-broken search meets, and is not specified.
    """
    return _search(host, pattern, (), ())


def is_family_free(host: Graph, family: Iterable[Graph]) -> bool:
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


def free_after_extension(host: Graph, family: Iterable[Graph], new_vertex: int) -> bool:
    """Freeness of ``host`` given it was family-free before ``new_vertex`` was added.

    Only embeddings through the new vertex can exist, so each pattern is
    searched pinned at one representative of every automorphism orbit.
    """
    for pg in family:
        for role in _orbit_leasts(pg, ()):
            if _search(host, pg, (role,), (new_vertex,)) is not None:
                return False
    return True


@lru_cache(maxsize=512)
def _anchored_plans(pg: Graph) -> tuple[tuple[tuple, tuple[bool, ...], tuple], ...]:
    """One search plan of P - r per orbit representative r and anchor a of its stabilizer.

    Each plan is the plan of P pinned at (r, a) less r's step: per step of
    P - r, the earlier steps with whether they are adjacent, whether the
    vertex is in N_P(r), and the earlier steps whose host vertex must lie
    below this step's (see :func:`forbidden_through`).
    """
    plans = []
    for r in _orbit_leasts(pg, ()):
        for a in _orbit_leasts(pg, (r,)):
            _, (prev, _, above) = _match_plan(pg, (r, a))
            plans.append((tuple(tuple((t - 1, e) for t, e in steps[1:]) for steps in prev[1:]),
                          tuple(steps[0][1] for steps in prev[1:]),
                          tuple(tuple(t - 1 for t in steps) for steps in above[1:])))
    return tuple(plans)


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


def _forbidden_by_plan(host: Graph, v: int, plan, sides) -> int:
    """The cubes of the embeddings of the plan whose anchor maps to v and the rest below v, ORed.

    Only the embeddings that map each step above the host vertices of the
    steps in its ``above`` are enumerated.  Each path of the search carries
    the cube of the vertices it has placed, so a step costs one AND.  A step
    works out the candidates of the next one for each vertex it places, and
    when the next one is the last, ORs their sides before the one AND with
    the cube instead of going deeper.  The search is one loop over per-step
    lists, not a nested function that calls itself: that would hold its own
    closure cell, a reference cycle that keeps the search's state alive until
    the cyclic garbage collector runs.
    """
    prev, marked, above = plan
    pn = len(prev)
    if pn > v + 1:
        return 0
    if pn == 1:
        return sides[v][marked[0]]
    below = (1 << v) - 1
    hrows = host.rows
    placed = [0] * pn  # host row of the vertex placed at each step
    chosen = [0] * pn  # its bit
    # Per step below the current one, saved when the search went on from it:
    # its candidates not yet tried, and the image and the cube it started from.
    cands = [0] * pn
    useds = [0] * pn
    cubes = [0] * pn
    last = pn - 1
    forbidden = 0
    s, cand, used, cube = 0, 1 << v, 0, -1  # -1: every bit set, the cube of no vertex
    while True:
        mark = marked[s]
        nxt = s + 1
        nprev, nabove, nmark = prev[nxt], above[nxt], marked[nxt]
        while cand:
            b = cand & -cand
            cand ^= b
            h = b.bit_length() - 1
            placed[s] = hrows[h]
            chosen[s] = b
            c = below & ~(used | b)
            if nabove:  # the loop alone costs an iterator per placement
                for t in nabove:  # above the host vertex of step t
                    c &= -(chosen[t] << 1)
            for t, is_edge in nprev:
                c &= placed[t] if is_edge else ~placed[t]
                if not c:
                    break
            else:
                if nxt < last:
                    cands[s], useds[s], cubes[s] = cand, used, cube
                    s, cand, used, cube = nxt, c, used | b, cube & sides[h][mark]
                    break
                either = 0
                while c:
                    b = c & -c
                    c ^= b
                    either |= sides[b.bit_length() - 1][nmark]
                forbidden |= cube & sides[h][mark] & either
        else:  # step s has no candidate left: back to the step below
            if not s:
                return forbidden
            s -= 1
            cand, used, cube = cands[s], useds[s], cubes[s]


def forbidden_through(g: Graph, family: Iterable[Graph], v: int) -> int:
    """The neighborhoods s < 2^(v+1) that a trace (C, A) of ``g`` with v in C
    and C within 0..v forbids, as a bitmap.

    These are the traces that ``g`` has and ``g`` less the vertices above v
    lacks.  The traces decide freeness exactly, not as a filter, when a
    vertex w with neighborhood s is added to the family-free ``g``:

    * every copy of P in the extension uses w;
    * an automorphism of P maps the role w plays to its orbit's
      representative r, so w may be taken to play r;
    * the rest of the copy is an induced copy of P - r with some image C,
      and w extends it to an induced P exactly when ``s & C == A``.

    Bit s of the result stands for s.  With X_u the set of the s that
    contain u, the trace (C, A) forbids the cube of the s with
    ``s & C == A``: the AND over u in C of X_u when u is in A, else of its
    complement.  The search builds that AND one placed vertex at a time
    and ORs the cube of every embedding it reaches into the result.

    An automorphism of P that fixes r keeps every trace, so the search need
    not try every vertex of P - r at v: the least vertex a of each orbit of
    the stabilizer of r, placed first, is enough (f composed with the
    automorphism that takes a to f^-1(v) maps a to v).  For P5 minus its
    middle vertex, 2P2, that is 2 anchors against 4 vertices: the
    reflection fixes r and swaps the two end pairs.

    Within a plan, not every embedding is enumerated either: the plan keeps
    the conditions that :func:`_search` reads off Aut(P) with r and a
    pinned.  Two embeddings with the same trace, one of P - r and one of
    P - r', extend to two copies of P on the same vertices with w in role
    r and r', so an automorphism of P maps r to r': they share an orbit,
    and r = r'.  If both put an anchor at v, that automorphism, which fixes
    r, maps one anchor to the other, so the anchors share an orbit of the
    stabilizer of r and are the same a, and it fixes a too.  By the
    argument of :func:`_search` with r and a pinned, the conditions keep
    exactly one embedding of each such class, and it has the same image,
    so a stays at v and the rest below v.  So each trace through v is
    reached exactly once, for any P.
    """
    sides = _vertex_bitmaps(v + 1)
    forbidden = 0
    for p in family:
        for plan in _anchored_plans(p):
            forbidden |= _forbidden_by_plan(g, v, plan, sides)
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

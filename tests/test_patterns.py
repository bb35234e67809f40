import itertools
import random

import pytest

from critenum import (
    Graph,
    PatternSyntaxError,
    add_vertex_with_neighborhood,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    embedding_is_induced,
    find_induced,
    free_after_extension,
    induced_subgraph,
    is_family_free,
    parse_pattern,
    path,
)
import critenum.patterns
from critenum.patterns import (
    _anchored_plans,
    _match_plan,
    _orbit_leasts,
    _search,
    _vertex_bitmaps,
    forbidden_through,
    set_bits,
)
from oracles import (
    brute_forbidden_traces,
    pinned_images,
    random_graph,
    scan_extension_masks,
    scan_induced,
)


def test_parse_basic_atoms():
    assert parse_pattern("p5") == path(5)
    assert parse_pattern("c5") == cycle(5)
    assert parse_pattern("k4") == complete(4)
    assert parse_pattern("k1,4") == complete_bipartite(1, 4)


def test_parse_compositions():
    g = parse_pattern("k1,4+p1")
    assert g.n == 6 and g.edge_count() == 4
    co = parse_pattern("co(k3+2p1)")
    assert co.n == 5 and co.edge_count() == 7
    assert parse_pattern("2p1").n == 2
    assert parse_pattern("CO( K3 + 2 P1 )") == parse_pattern("co(k3+2p1)")
    # copies of an empty atom add nothing, however many are asked for
    assert parse_pattern("1000000000000k0+p1") == path(1)


def test_parse_errors_carry_position():
    deep = "co(" * 400 + "p1" + ")" * 400
    for text in ["", "p", "q5", "k1,", "co(p5", "p5+", "p5)", "c2", "p0", "0p1", "co(p70)",
                 "p1000000000000", "k1,1000000000000", "p" + "9" * 5000, "p\u00b2", deep]:
        with pytest.raises(PatternSyntaxError) as info:
            parse_pattern(text)
        assert str(info.value).count("(at position") == 1, text[:20]
    with pytest.raises(PatternSyntaxError) as info:
        parse_pattern("k1,")
    assert info.value.position == 3
    with pytest.raises(PatternSyntaxError, match="outside 0..64"):
        parse_pattern("k1,1000000000000")
    with pytest.raises(PatternSyntaxError, match="number too large") as info:
        parse_pattern("p" + "9" * 5000)
    assert info.value.position == 1
    with pytest.raises(PatternSyntaxError, match="expected a number"):
        parse_pattern("p\u00b2")
    with pytest.raises(PatternSyntaxError, match="nested too deeply"):
        parse_pattern(deep)
    try:
        parse_pattern("p5+q3")
    except PatternSyntaxError as exc:
        assert exc.position == 3


def test_find_induced_examples():
    emb = find_induced(cycle(6), parse_pattern("p5"))
    assert emb is not None
    assert embedding_is_induced(cycle(6), path(5), emb)
    assert find_induced(cycle(5), complete(3)) is None
    # C7 complement against C5: agree with the exhaustive subset scan
    host = complement(cycle(7))
    assert (find_induced(host, cycle(5)) is not None) == scan_induced(host, cycle(5))


def test_find_induced_agrees_with_scan():
    rng = random.Random(37)
    patterns = [path(5), cycle(4), cycle(5), complete(3), complete_bipartite(1, 3),
                parse_pattern("k1,3+p1"), parse_pattern("co(k3+2p1)")]
    for _ in range(300):
        host = random_graph(rng, rng.randint(1, 8), rng.random())
        pat = rng.choice(patterns)
        emb = find_induced(host, pat)
        assert (emb is not None) == scan_induced(host, pat)
        if emb is not None:
            assert embedding_is_induced(host, pat, emb)


@pytest.mark.parametrize("name", ["p5", "c5", "c4", "k4", "3p1", "k1,3+p1", "k1,4+p1",
                                  "co(k3+2p1)"])
def test_pinned_search_agrees_with_all_embeddings(name):
    # pinned at any vertex a of P: the symmetry-breaking conditions start after the pin
    rng = random.Random(20261019)
    pg = parse_pattern(name)
    found = missed = 0
    for _ in range(40):
        host = random_graph(rng, rng.randint(pg.n, 9), rng.random())
        if rng.random() < 0.5:  # plant a copy of P on random vertices
            where = rng.sample(range(host.n), pg.n)
            rows = list(host.rows)
            for a, b in itertools.combinations(range(pg.n), 2):
                u, x = where[a], where[b]
                if pg.has_edge(a, b) != host.has_edge(u, x):
                    rows[u] ^= 1 << x
                    rows[x] ^= 1 << u
            host = Graph(host.n, rows)
        brute = pinned_images(host, pg)
        for a in range(pg.n):
            for h in range(host.n):
                emb = _search(host, pg, (a,), (h,))
                assert (emb is not None) == ((a, h) in brute), (name, host, a, h)
                if emb is not None:
                    assert emb.map[a] == h and embedding_is_induced(host, pg, emb)
                found += emb is not None
                missed += emb is None
    assert found > 50 and missed > 50


def _conditions(pg, pinned=()):
    """The (u, x) such that the search maps u below x, as vertices of P."""
    order, (_, _, above) = _match_plan(pg, pinned)
    return {(order[s], order[t]) for t, steps in enumerate(above) for s in steps}


def test_symmetry_conditions_of_the_named_patterns():
    # P5 0-1-2-3-4: its reflection; K1,3+P1 and K1,4+P1: center 0, isolated
    # vertex last; co(K3+2P1): the 3-class 0, 1, 2 and the 2-class 3, 4
    assert _conditions(path(5)) == {(1, 3)}
    assert _conditions(parse_pattern("k1,3+p1")) == {(1, 2), (2, 3)}
    assert _conditions(parse_pattern("k1,4+p1")) == {(1, 2), (2, 3), (3, 4)}
    assert _conditions(parse_pattern("co(k3+2p1)")) == {(0, 1), (1, 2), (3, 4)}
    # a pinned vertex gets no condition, and those after it only the stabilizer's
    assert _conditions(path(5), (1,)) == set()
    assert _conditions(parse_pattern("k1,3+p1"), (1,)) == {(2, 3)}
    assert _conditions(cycle(5), (0,)) == {(1, 4)}


def _trace_conditions(pg):
    """Per representative r and anchor a, the (u, x) such that the trace search maps u below x."""
    plans = iter(_anchored_plans(pg))
    out = {}
    for r in _orbit_leasts(pg, ()):
        for a in _orbit_leasts(pg, (r,)):
            order, _ = _match_plan(pg, (r, a))  # the trace plan drops r's step
            above = next(plans)[2]
            out[r, a] = {(order[s + 1], order[t + 1])
                         for t, steps in enumerate(above) for s in steps}
    return out


def test_symmetry_conditions_of_the_trace_plans():
    # the plan of P pinned at r and a, less r: K1,3+P1 with its center removed and its
    # isolated vertex at v keeps the leaf chain; co(K3+2P1) with a vertex of the
    # 2-class removed and the other at v keeps the 3-class chain; C6 with the
    # antipode of r at v keeps the reflection, a swap of no twins
    assert _trace_conditions(parse_pattern("k1,3+p1"))[0, 4] == {(1, 2), (2, 3)}
    assert _trace_conditions(parse_pattern("co(k3+2p1)"))[3, 4] == {(0, 1), (1, 2)}
    assert set(map(frozenset, _trace_conditions(path(5)).values())) == {frozenset()}
    assert _trace_conditions(cycle(6)) == {(0, 1): set(), (0, 2): set(), (0, 3): {(1, 5)}}


def test_plans_of_a_long_list_stay_cached():
    # 600 distinct five-vertex graphs, more than a bounded cache of 512 plans holds
    pairs = list(itertools.combinations(range(5), 2))
    members = [Graph.from_edges(5, [e for i, e in enumerate(pairs) if m >> i & 1])
               for m in range(600)]
    host = cycle(6)
    first = [find_induced(host, h) for h in members]
    misses = _match_plan.cache_info().misses
    assert [find_induced(host, h) for h in members] == first
    assert _match_plan.cache_info().misses == misses


def test_is_family_free():
    family = [parse_pattern("p5"), parse_pattern("k1,4+p1")]
    assert is_family_free(complete(5), family)
    assert not is_family_free(path(6), [parse_pattern("p5")])
    c9bar = complement(cycle(9))
    assert is_family_free(c9bar, [parse_pattern("p5"), parse_pattern("co(k3+2p1)")])


def test_hereditarity():
    rng = random.Random(41)
    family = [parse_pattern("p5"), parse_pattern("k1,3+p1")]
    found = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        if not is_family_free(g, family):
            continue
        found += 1
        s = rng.getrandbits(g.n)
        assert is_family_free(induced_subgraph(g, s), family)
    assert found > 20


def test_free_after_extension_examples():
    # extending P4 by a pendant at an end creates a P5
    host = add_vertex_with_neighborhood(path(4), {3})
    assert not free_after_extension(host, [parse_pattern("p5")], 4)
    # an isolated extra vertex cannot create a path through itself
    host2 = add_vertex_with_neighborhood(path(4), 0)
    assert free_after_extension(host2, [parse_pattern("p5")], 4)


def test_free_after_extension_differential():
    rng = random.Random(43)
    family = [parse_pattern("p5"), parse_pattern("co(k3+2p1)")]
    checked = 0
    while checked < 1000:
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        if not is_family_free(g, family):
            continue
        ext = add_vertex_with_neighborhood(g, rng.getrandbits(g.n))
        assert free_after_extension(ext, family, g.n) == is_family_free(ext, family)
        checked += 1


def _random_free_graph(rng, n, family):
    while True:
        g = random_graph(rng, n, rng.random())
        if is_family_free(g, family):
            return g


def _forbidden(g, family):
    """The neighborhoods s < 2^n that a trace of ``g`` with a vertex forbids: one step per vertex."""
    forbidden = 0
    for v in range(g.n):
        forbidden |= forbidden << (1 << v) | forbidden_through(g, family, v)
    return forbidden


def _allowed(forbidden, n):
    """The neighborhoods s < 2^n clear in ``forbidden``, ascending."""
    return set_bits(((1 << (1 << n)) - 1) ^ forbidden)


class _Cubes:
    """A list of cubes, each a frozenset of (vertex, side) literals, standing in for a bitmap.

    Given as the per-vertex sides, these record the AND and OR of the trace
    search: a cube is the trace (C, A), C its vertices and A those on side
    1, and a cube appears once per embedding that reached it.  An int ANDed
    in is the all-ones bitmap -1 a search starts from; one ORed in is 0.
    """

    def __init__(self, cubes):
        self.cubes = cubes

    def __and__(self, other):
        if isinstance(other, int):
            return self
        return _Cubes([a | b for a in self.cubes for b in other.cubes])

    __rand__ = __and__

    def __or__(self, other):
        return self if isinstance(other, int) and other == 0 else _Cubes(self.cubes + other.cubes)

    __ror__ = __or__


def _reached(g, family, v, monkeypatch):
    """The trace (C, A) of every embedding ``forbidden_through(g, family, v)`` reaches, in order."""
    with monkeypatch.context() as m:
        m.setattr(critenum.patterns, "_vertex_bitmaps", lambda n: tuple(
            (_Cubes([frozenset({(u, 0)})]), _Cubes([frozenset({(u, 1)})])) for u in range(n)))
        out = forbidden_through(g, family, v)
    if isinstance(out, int):
        assert out == 0
        return []
    return [(sum(1 << u for u, _ in cube), sum(1 << u for u, side in cube if side))
            for cube in out.cubes]


def _traces(g, family, monkeypatch):
    """Every trace of ``g`` with a vertex: the union of the traces through each vertex."""
    out = {}
    for v in range(g.n):
        for c, a in _reached(g, family, v, monkeypatch):
            out.setdefault(c, set()).add(a)
    return out


def test_forbidden_traces_differential():
    rng = random.Random(53)
    for name in ["p5", "k1,3+p1", "k1,4+p1", "co(k3+2p1)", "c5", "2p2"]:
        family = [parse_pattern(name)]
        for n in range(10):
            g = _random_free_graph(rng, n, family)
            allowed = set(_allowed(_forbidden(g, family), n))
            for s in range(1 << n):
                child = add_vertex_with_neighborhood(g, s)
                free = is_family_free(child, family)
                assert (s in allowed) == free, (name, g, s)
                assert free != scan_induced(child, family[0]), (name, g, s)


def test_forbidden_traces_edge_cases():
    rng = random.Random(59)
    p1 = [parse_pattern("p1")]
    # P1 - r is empty: its one trace (0, 0) has no vertex, so no search reaches it
    # (the freeness bitmap starts from it, and it forbids every extension)
    big = [parse_pattern("k1,4+p1")]  # 6 vertices
    for n in range(5):
        g = random_graph(rng, n, rng.random())
        assert [forbidden_through(g, p1, v) for v in range(n)] == [0] * n
        assert _forbidden(g, p1) == 0
        g = _random_free_graph(rng, n, big)
        assert [forbidden_through(g, big, v) for v in range(n)] == [0] * n
        assert _allowed(_forbidden(g, big), n) == list(range(1 << n))


@pytest.mark.parametrize("name", ["p1", "p5", "k1,3+p1", "k1,4+p1", "co(k3+2p1)",
                                  "c4", "c5", "k4", "2p2"])
def test_forbidden_traces_equal_all_embeddings(name, monkeypatch):
    # the conditions of the search pinned at r and a, and one anchor per orbit,
    # lose no trace, and the bitmap through v forbids exactly what those traces
    # forbid, mask by mask
    rng = random.Random(20261020)
    family = [parse_pattern(name)]
    for _ in range(40):
        n = rng.randint(0, 10)
        # a graph with a vertex contains P1: any graph has the traces the search finds
        g = random_graph(rng, n, rng.random()) if name == "p1" else _random_free_graph(rng, n, family)
        brute = brute_forbidden_traces(g, family)
        assert _traces(g, family, monkeypatch) == {c: a for c, a in brute.items() if c}, (name, g)
        for v in range(g.n):
            through = {c: images for c, images in brute.items() if c.bit_length() - 1 == v}
            allowed = _allowed(forbidden_through(g, family, v), v + 1)
            assert allowed == scan_extension_masks(through, v + 1), (name, g, v)


@pytest.mark.parametrize("name", ["p5", "k1,3+p1", "k1,4+p1", "co(k3+2p1)",
                                  "c4", "c5", "k4", "2p2", "c6", "k2,3"])
def test_trace_search_reports_each_trace_once(name, monkeypatch):
    # one anchor per orbit of the stabilizer of r, and the conditions of the
    # search pinned at r and a: no trace is found twice, for any P (C6 needs
    # its reflection, which swaps no twins; P1 is left out, as a P1-free host
    # is empty)
    rng = random.Random(20261023)
    family = [parse_pattern(name)]
    total = 0
    for _ in range(30):
        g = _random_free_graph(rng, rng.randint(4, 10), family)
        union = {}
        for v in range(g.n):
            reached = _reached(g, family, v, monkeypatch)
            assert all(c.bit_length() - 1 == v for c, _ in reached), (name, g, v)  # v is C's highest
            assert len(set(reached)) == len(reached), (name, g, v)
            for c, a in reached:
                union.setdefault(c, set()).add(a)
            total += len(reached)
        assert union == brute_forbidden_traces(g, family), (name, g)
    assert total > 0


def _cube_bitmap(traces, n):
    """The s < 2^n that some trace (C, A) forbids, as the OR of the ANDs of the sides of C."""
    sides = _vertex_bitmaps(n)
    forbidden = 0
    for c, images in traces.items():
        for a in images:
            cube = (1 << (1 << n)) - 1
            for v in range(n):
                if c >> v & 1:
                    cube &= sides[v][a >> v & 1]
            forbidden |= cube
    return forbidden


def test_bitmap_filter_equals_per_mask_scan():
    # the per-vertex sides that every cube is built from, and set_bits that reads the result
    rng = random.Random(20261021)
    for _ in range(400):
        n = rng.randint(0, 7)
        traces = {}
        for _ in range(rng.randint(0, 12)):
            c = rng.getrandbits(n) if n else 0
            traces.setdefault(c, set()).add(rng.getrandbits(n) & c if n else 0)
        allowed = scan_extension_masks(traces, n)
        if n and rng.random() < 0.7:
            # an obligation (x, y) as traces: s meets x (not (x, 0)), misses part of y (not (y, y))
            x, y = rng.randint(1, (1 << n) - 1), rng.randint(1, (1 << n) - 1)
            traces.setdefault(x, set()).add(0)
            traces.setdefault(y, set()).add(y)
            allowed = [s for s in allowed if s & x and y & ~s]
            assert scan_extension_masks(traces, n) == allowed, (n, traces, x, y)
        assert _allowed(_cube_bitmap(traces, n), n) == allowed, (n, traces)
    assert _allowed(_cube_bitmap({}, 0), 0) == [0] and _allowed(_cube_bitmap({0: {0}}, 1), 1) == []
    assert _allowed(_cube_bitmap({1: {1}}, 1), 1) == [0]
    assert _allowed(_cube_bitmap({1: {0, 1}}, 1), 1) == []  # s must meet and miss vertex 0


def _brute_orbit_minima(autos, n, fixed):
    """The least vertex of each orbit outside ``fixed`` of the ``autos`` that fix it."""
    stab = [perm for perm in autos if all(perm[f] == f for f in fixed)]
    return tuple(v for v in range(n) if v not in fixed and min(perm[v] for perm in stab) == v)


def test_anchor_roles_against_brute_force_orbits():
    # the roles r (orbits of Aut(P)) and the anchors of each r (orbits of its stabilizer)
    rng = random.Random(71)
    graphs = [random_graph(rng, rng.randint(0, 6), rng.random()) for _ in range(150)]
    graphs += [parse_pattern(name)
               for name in ["p5", "k1,3+p1", "k1,4+p1", "co(k3+2p1)", "k5", "3p3"]]
    for g in graphs:
        edges = list(g.edges())
        autos = [perm for perm in itertools.permutations(range(g.n))
                 if all((g.rows[perm[u]] >> perm[v]) & 1 for u, v in edges)]
        assert _orbit_leasts(g, ()) == _brute_orbit_minima(autos, g.n, ()), g
        for r in range(g.n):
            assert _orbit_leasts(g, (r,)) == _brute_orbit_minima(autos, g.n, (r,)), (g, r)


def test_pattern_graph_accepted_directly():
    # a graph from the constructors serves as a pattern as it is, no parsing needed
    assert find_induced(cycle(6), path(5)) is not None
    assert is_family_free(complete(4), [path(5), cycle(4)])


def test_disconnected_pattern():
    two_triangles = disjoint_union(complete(3), complete(3))
    host = disjoint_union(complete(4), complete(3))
    assert find_induced(host, two_triangles) is not None
    assert find_induced(complete(6), two_triangles) is None

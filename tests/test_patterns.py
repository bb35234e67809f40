import itertools
import random

import pytest

from critenum import (
    Graph,
    PatternSyntaxError,
    add_vertex_with_neighborhood,
    are_isomorphic,
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
from critenum.patterns import (
    _orbit_leasts,
    forbidden_bitmap,
    set_bits,
    traces_through,
)
from oracles import brute_forbidden_traces, random_graph, scan_extension_masks, scan_induced


def test_parse_basic_atoms():
    assert parse_pattern("p5").graph == path(5)
    assert parse_pattern("c5").graph == cycle(5)
    assert parse_pattern("k4").graph == complete(4)
    assert parse_pattern("k1,4").graph == complete_bipartite(1, 4)


def test_parse_compositions():
    g = parse_pattern("k1,4+p1").graph
    assert g.n == 6 and g.edge_count() == 4
    co = parse_pattern("co(k3+2p1)").graph
    assert co.n == 5 and co.edge_count() == 7
    assert parse_pattern("2p1").graph.n == 2
    assert parse_pattern("CO( K3 + 2 P1 )").name == "co(k3+2p1)"
    # copies of an empty atom add nothing, however many are asked for
    assert parse_pattern("1000000000000k0+p1").graph == path(1)


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


def test_name_roundtrip():
    for name in ["p5", "k1,3+p1", "k1,4+p1", "co(k3+2p1)", "2k3+c5", "k2,3"]:
        p = parse_pattern(name)
        assert are_isomorphic(parse_pattern(p.name).graph, p.graph)


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
    patterns = [path(5), cycle(4), complete(3), complete_bipartite(1, 3),
                parse_pattern("k1,3+p1").graph, parse_pattern("co(k3+2p1)").graph]
    for _ in range(300):
        host = random_graph(rng, rng.randint(1, 8), rng.random())
        pat = rng.choice(patterns)
        emb = find_induced(host, pat)
        assert (emb is not None) == scan_induced(host, pat)
        if emb is not None:
            assert embedding_is_induced(host, pat, emb)


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


def _traces(g, family):
    """Every trace of ``g`` with a vertex: the union of the traces through each vertex."""
    out = {}
    for v in range(g.n):
        traces_through(g, family, v, out)
    return out


def _allowed(traces, n):
    """The neighborhoods s < 2^n that no trace forbids, ascending."""
    return set_bits(((1 << (1 << n)) - 1) ^ forbidden_bitmap(traces, n))


def test_forbidden_traces_differential():
    rng = random.Random(53)
    for name in ["p5", "k1,3+p1", "k1,4+p1", "co(k3+2p1)", "c5", "2p2"]:
        family = [parse_pattern(name)]
        for n in range(10):
            g = _random_free_graph(rng, n, family)
            allowed = set(_allowed(_traces(g, family), n))
            for s in range(1 << n):
                child = add_vertex_with_neighborhood(g, s)
                free = is_family_free(child, family)
                assert (s in allowed) == free, (name, g, s)
                assert free != scan_induced(child, family[0].graph), (name, g, s)


def test_forbidden_traces_edge_cases():
    rng = random.Random(59)
    p1 = [parse_pattern("p1")]
    # P1 - r is empty: its one trace (0, 0) has no vertex, so no search reports it
    # (the freeness bitmap starts from it), and it forbids every extension
    assert _allowed({0: {0}}, 0) == []
    big = [parse_pattern("k1,4+p1")]  # 6 vertices
    for n in range(5):
        assert _traces(random_graph(rng, n, rng.random()), p1) == {}
        g = _random_free_graph(rng, n, big)
        assert _traces(g, big) == {}
        assert _allowed({}, n) == list(range(1 << n))


@pytest.mark.parametrize("name", ["k1,4+p1", "co(k3+2p1)", "c4", "k4", "2p2", "p5"])
def test_forbidden_traces_equal_all_embeddings(name):
    # one embedding per twin swap and one anchor per orbit lose no trace
    rng = random.Random(20261020)
    family = [parse_pattern(name)]
    for _ in range(40):
        g = _random_free_graph(rng, rng.randint(3, 10), family)
        assert _traces(g, family) == brute_forbidden_traces(g, family), (name, g)


class _CountingTraces(dict):
    """A trace dict that counts the embeddings the search reports into it."""

    embeddings = 0

    def setdefault(self, key, default=None):
        self.embeddings += 1
        return super().setdefault(key, default)


@pytest.mark.parametrize("name", ["p5", "k1,3+p1", "k1,4+p1", "co(k3+2p1)"])
def test_trace_search_reports_each_trace_once(name):
    # one anchor per orbit of the stabilizer of r and one embedding per twin
    # swap: no trace is found twice (P5 - middle vertex has one anchor per
    # end pair, not per twin class)
    rng = random.Random(20261023)
    family = [parse_pattern(name)]
    total = 0
    for _ in range(30):
        g = _random_free_graph(rng, rng.randint(4, 10), family)
        union = {}
        for v in range(g.n):
            out = _CountingTraces()
            traces_through(g, family, v, out)
            assert all(c.bit_length() - 1 == v for c in out), (name, g, v)  # v is C's highest
            assert out.embeddings == sum(len(images) for images in out.values()), (name, g, v)
            union.update(out)
            total += out.embeddings
        assert union == brute_forbidden_traces(g, family), (name, g)
    assert total > 0


def test_bitmap_filter_equals_per_mask_scan():
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
        assert _allowed(traces, n) == allowed, (n, traces)
    assert _allowed({}, 0) == [0] and _allowed({0: {0}}, 1) == []
    assert _allowed({1: {1}}, 1) == [0]
    assert _allowed({1: {0, 1}}, 1) == []  # s must meet and miss vertex 0


def _brute_orbit_minima(autos, n, fixed):
    """The least vertex of each orbit outside ``fixed`` of the ``autos`` that fix it."""
    stab = [perm for perm in autos if all(perm[f] == f for f in fixed)]
    return tuple(v for v in range(n) if v not in fixed and min(perm[v] for perm in stab) == v)


def test_anchor_roles_against_brute_force_orbits():
    # the roles r (orbits of Aut(P)) and the anchors of each r (orbits of its stabilizer)
    rng = random.Random(71)
    graphs = [random_graph(rng, rng.randint(0, 6), rng.random()) for _ in range(150)]
    graphs += [parse_pattern(name).graph
               for name in ["p5", "k1,3+p1", "k1,4+p1", "co(k3+2p1)", "k5", "3p3"]]
    for g in graphs:
        edges = list(g.edges())
        autos = [perm for perm in itertools.permutations(range(g.n))
                 if all((g.rows[perm[u]] >> perm[v]) & 1 for u, v in edges)]
        assert _orbit_leasts(g, ()) == _brute_orbit_minima(autos, g.n, ()), g
        for r in range(g.n):
            assert _orbit_leasts(g, (r,)) == _brute_orbit_minima(autos, g.n, (r,)), (g, r)


def test_pattern_graph_accepted_directly():
    # the graph variant of a pattern works anywhere a Pattern does
    assert find_induced(cycle(6), path(5)) is not None
    assert is_family_free(complete(4), [path(5), cycle(4)])


def test_disconnected_pattern():
    two_triangles = disjoint_union(complete(3), complete(3))
    host = disjoint_union(complete(4), complete(3))
    assert find_induced(host, two_triangles) is not None
    assert find_induced(complete(6), two_triangles) is None

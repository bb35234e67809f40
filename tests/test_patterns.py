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
from critenum.patterns import _anchor_roles, forbidden_traces, free_extension_masks
from oracles import random_graph, scan_induced


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
                 "p1000000000000", "k1,1000000000000", deep]:
        with pytest.raises(PatternSyntaxError) as info:
            parse_pattern(text)
        assert str(info.value).count("(at position") == 1, text[:20]
    with pytest.raises(PatternSyntaxError) as info:
        parse_pattern("k1,")
    assert info.value.position == 3
    with pytest.raises(PatternSyntaxError, match="outside 0..64"):
        parse_pattern("k1,1000000000000")
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


def test_forbidden_traces_differential():
    rng = random.Random(53)
    for name in ["p5", "k1,3+p1", "k1,4+p1", "co(k3+2p1)", "c5", "2p2"]:
        family = [parse_pattern(name)]
        for n in range(10):
            g = _random_free_graph(rng, n, family)
            allowed = set(free_extension_masks(forbidden_traces(g, family), range(1 << n)))
            for s in range(1 << n):
                child = add_vertex_with_neighborhood(g, s)
                free = is_family_free(child, family)
                assert (s in allowed) == free, (name, g, s)
                assert free != scan_induced(child, family[0].graph), (name, g, s)


def test_forbidden_traces_edge_cases():
    rng = random.Random(59)
    p1 = [parse_pattern("p1")]
    # P1 - r is empty: its one trace (0, 0) forbids every extension
    assert forbidden_traces(Graph(0, ()), p1) == {0: {0}}
    assert free_extension_masks(forbidden_traces(Graph(0, ()), p1), [0]) == []
    big = [parse_pattern("k1,4+p1")]  # 6 vertices
    for n in range(5):
        g = _random_free_graph(rng, n, big)
        assert forbidden_traces(g, big) == {}
        assert free_extension_masks({}, range(1 << n)) == list(range(1 << n))


def _brute_orbit_minima(g):
    edges = list(g.edges())
    autos = [perm for perm in itertools.permutations(range(g.n))
             if all((g.rows[perm[u]] >> perm[v]) & 1 for u, v in edges)]
    return tuple(v for v in range(g.n) if min(perm[v] for perm in autos) == v)


def test_anchor_roles_against_brute_force_orbits():
    rng = random.Random(71)
    graphs = [random_graph(rng, rng.randint(0, 6), rng.random()) for _ in range(150)]
    graphs += [parse_pattern(name).graph
               for name in ["p5", "k1,3+p1", "k1,4+p1", "co(k3+2p1)", "k5", "3p3"]]
    for g in graphs:
        assert _anchor_roles(g) == _brute_orbit_minima(g), g


def test_pattern_graph_accepted_directly():
    # the graph variant of a pattern works anywhere a Pattern does
    assert find_induced(cycle(6), path(5)) is not None
    assert is_family_free(complete(4), [path(5), cycle(4)])


def test_disconnected_pattern():
    two_triangles = disjoint_union(complete(3), complete(3))
    host = disjoint_union(complete(4), complete(3))
    assert find_induced(host, two_triangles) is not None
    assert find_induced(complete(6), two_triangles) is None

import random
from itertools import combinations

import pytest

from critenum import (
    chromatic_number,
    complement,
    complete,
    complete_bipartite,
    cycle,
    delete_vertex,
    disjoint_union,
    find_comparable_pair,
    find_xy_obstruction,
    induced_subgraph,
    is_family_free,
    is_k_critical_in_class,
    is_k_vertex_critical,
    mask_of,
    parse_pattern,
    path,
)
from critenum.critical import noncritical_vertex
from oracles import naive_in_class_critical, random_graph


def test_k5_is_critical():
    report = is_k_vertex_critical(complete(5), 5)
    assert report.chi == 5 and report.is_vertex_critical and report.failing_vertex is None


def test_c9_complement_is_critical():
    assert is_k_vertex_critical(complement(cycle(9)), 5).is_vertex_critical


def test_isolated_vertex_breaks_criticality():
    g = disjoint_union(cycle(5), path(1))
    report = is_k_vertex_critical(g, 3)
    assert not report.is_vertex_critical
    assert report.chi == 3 and report.failing_vertex == 5


def test_report_consistency_random():
    rng = random.Random(47)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        k = rng.randint(1, 5)
        report = is_k_vertex_critical(g, k)
        assert report.chi == chromatic_number(g)
        assert report.is_vertex_critical == (report.chi == k and report.failing_vertex is None)
        if report.failing_vertex is not None:
            from critenum import delete_vertex

            assert chromatic_number(delete_vertex(g, report.failing_vertex)) >= k


def test_noncritical_vertex_matches_full_test():
    # a vertex of degree below k - 1 is returned untested; it must be the vertex
    # that testing every deletion in ascending degree order finds first
    rng = random.Random(31)
    graphs = [(complete(5), 5), (complement(cycle(9)), 5), (cycle(5), 3)]
    while len(graphs) < 120:
        k = rng.randint(3, 5)
        g = random_graph(rng, rng.randint(k, k + 5), rng.uniform(0.3, 0.95))
        if chromatic_number(g) >= k:
            graphs.append((g, k))
    untested = 0
    for g, k in graphs:
        order = sorted(range(g.n), key=lambda u: g.rows[u].bit_count())
        full = next((v for v in order if chromatic_number(delete_vertex(g, v)) >= k), None)
        assert noncritical_vertex(g, k) == full
        untested += g.rows[order[0]].bit_count() < k - 1
    assert 0 < untested < len(graphs)


def test_critical_deletions_drop_chi_by_exactly_one():
    # chi falls by at most 1 per deleted vertex, so criticality forces
    # chi(g - v) = k - 1 exactly, for every v
    from critenum import delete_vertex

    for g, k in [(complete(5), 5), (complement(cycle(9)), 5), (cycle(5), 3)]:
        assert is_k_vertex_critical(g, k).is_vertex_critical
        for v in range(g.n):
            assert chromatic_number(delete_vertex(g, v)) == k - 1


def test_comparable_pairs():
    pair = find_comparable_pair(complete_bipartite(1, 3))
    assert pair is not None
    u, v = pair
    g = complete_bipartite(1, 3)
    assert not g.has_edge(u, v)
    assert g.rows[u] & ~g.rows[v] == 0
    assert find_comparable_pair(cycle(5)) is None
    assert find_comparable_pair(complete(5)) is None


def test_comparable_pair_is_xy_singleton():
    g = complete_bipartite(1, 3)
    ob = find_xy_obstruction(g)
    assert ob is not None
    x, y = ob
    assert x.bit_count() == 1 and y.bit_count() == 1


def _brute_xy(g, max_size):
    # literal scan of the three conditions over all small disjoint subsets, in the
    # documented order: stages by (|X| + |Y|, |X|), then X, then Y, lexicographic
    n = g.n
    stages = sorted(((sx, sy) for sx in range(1, max_size + 1) for sy in range(1, max_size + 1)),
                    key=lambda st: (st[0] + st[1], st[0]))
    for sx, sy in stages:
        for xs in combinations(range(n), sx):
            for ys in combinations(range(n), sy):
                if set(xs) & set(ys):
                    continue
                if any(g.has_edge(a, b) for a in xs for b in ys):
                    continue
                nx = {b for a in xs for b in range(n) if g.has_edge(a, b)} - set(xs)
                if not all(g.has_edge(y, b) for y in ys for b in nx):
                    continue
                cx = chromatic_number(induced_subgraph(g, mask_of(xs)))
                cy = chromatic_number(induced_subgraph(g, mask_of(ys)))
                if cx <= cy:
                    return (mask_of(xs), mask_of(ys))
    return None


def test_xy_obstruction_against_brute_force():
    # the exact first pair, which the enumeration's output bytes rest on
    assert find_xy_obstruction(cycle(5)) is None
    assert _brute_xy(cycle(5), 2) is None
    rng = random.Random(53)
    found = 0
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 11), rng.random())
        ob = find_xy_obstruction(g)
        assert ob == _brute_xy(g, 2), g
        found += ob is not None
        one = _brute_xy(g, 1)
        pair = None if one is None else (one[0].bit_length() - 1, one[1].bit_length() - 1)
        assert find_comparable_pair(g) == pair, g
    assert 700 < found < 900


def test_no_critical_graph_has_obstruction():
    # vertex-critical graphs contain no comparable pair and no small obstruction
    for g in [complete(5), complement(cycle(9)), cycle(5), complete(3)]:
        assert find_comparable_pair(g) is None
        assert find_xy_obstruction(g) is None


def test_in_class_criticality_examples():
    family13 = (parse_pattern("p5"), parse_pattern("k1,3+p1"))
    assert is_k_critical_in_class(complete(5), 5, family13)


def test_c9_complement_not_in_class_critical():
    # C9̄ minus any distance-3 edge stays family-free with chi = 5, so it is
    # 5-vertex-critical but not 5-critical within the class
    family_co = (parse_pattern("p5"), parse_pattern("co(k3+2p1)"))
    c9bar = complement(cycle(9))
    assert is_k_vertex_critical(c9bar, 5).is_vertex_critical
    assert not is_k_critical_in_class(c9bar, 5, family_co)
    from critenum import delete_edge

    sub = delete_edge(c9bar, 0, 3)
    assert is_family_free(sub, family_co)
    assert chromatic_number(sub) == 5


def test_in_class_requires_family_free():
    with pytest.raises(ValueError):
        is_k_critical_in_class(path(6), 3, (parse_pattern("p5"),))


def test_in_class_agrees_with_naive_oracle():
    rng = random.Random(59)
    family = (parse_pattern("p5"), parse_pattern("k1,3+p1"))
    checked = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 6), rng.random())
        if not is_family_free(g, family):
            continue
        k = chromatic_number(g)
        if k < 1:
            continue
        assert is_k_critical_in_class(g, k, family) == naive_in_class_critical(g, k, family)
        checked += 1
    assert checked > 50


def test_in_class_implies_vertex_critical():
    family = (parse_pattern("p5"), parse_pattern("k1,3+p1"))
    # K5 plus an isolated vertex: chi=5 but not vertex-critical, hence not critical
    g = disjoint_union(complete(5), path(1))
    assert is_family_free(g, family)
    assert not is_k_critical_in_class(g, 5, family)

import random

import pytest

from critenum import (
    Graph,
    add_vertex_with_neighborhood,
    complement,
    complete,
    complete_bipartite,
    cycle,
    degree,
    delete_edge,
    delete_vertex,
    disjoint_union,
    induced_subgraph,
    mask_of,
    path,
)
from oracles import random_graph


def test_path_constructions():
    assert path(1).n == 1 and path(1).edge_count() == 0
    assert path(2).edge_count() == 1 and path(2).has_edge(0, 1)
    p5 = path(5)
    assert p5.n == 5 and p5.edge_count() == 4
    assert sorted(degree(p5, v) for v in range(5)).count(1) == 2


def test_path_rejects_zero():
    with pytest.raises(ValueError):
        path(0)


def test_cycle_complete_bipartite():
    c5 = cycle(5)
    assert c5.edge_count() == 5
    assert all(degree(c5, v) == 2 for v in range(5))
    with pytest.raises(ValueError):
        cycle(2)
    assert complete(5).edge_count() == 10
    star = complete_bipartite(1, 4)
    assert star.edge_count() == 4 and degree(star, 0) == 4


def test_complement():
    assert complement(complete(5)).edge_count() == 0
    c5 = cycle(5)
    # C5 is self-complementary up to relabeling; same degree sequence here
    assert complement(c5).edge_count() == 5
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        assert complement(complement(g)) == g


def test_complement_edge_count_property():
    rng = random.Random(19)
    for _ in range(1000):
        n = rng.randint(0, 10)
        g = random_graph(rng, n, rng.random())
        assert complement(g).edge_count() == n * (n - 1) // 2 - g.edge_count()


def test_disjoint_union():
    claw_plus = disjoint_union(complete_bipartite(1, 3), path(1))
    assert claw_plus.n == 5 and claw_plus.edge_count() == 3
    co = complement(disjoint_union(complete(3), disjoint_union(path(1), path(1))))
    assert co.n == 5 and co.edge_count() == 7
    g = cycle(6)
    assert disjoint_union(g, Graph(0, ())) == g
    with pytest.raises(ValueError):
        disjoint_union(complete(40), complete(30))


def test_induced_subgraph():
    c5 = cycle(5)
    p3 = induced_subgraph(c5, {0, 1, 2})
    assert p3.edge_count() == 2 and p3.has_edge(0, 1) and p3.has_edge(1, 2)
    assert induced_subgraph(c5, mask_of(range(5))) == c5
    k3 = induced_subgraph(complete(5), {1, 3, 4})
    assert k3 == complete(3)
    with pytest.raises(ValueError):
        induced_subgraph(c5, {0, 7})


def test_delete_and_add():
    assert delete_vertex(complete(5), 0) == complete(4)
    assert delete_edge(complete(3), 0, 1).edge_count() == 2
    with pytest.raises(ValueError):
        delete_edge(cycle(5), 0, 2)
    closed = add_vertex_with_neighborhood(path(4), {0, 3})
    assert closed.edge_count() == 5 and all(degree(closed, v) == 2 for v in range(5))


def test_add_then_delete_roundtrip():
    rng = random.Random(23)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 9), rng.random())
        nbrs = rng.getrandbits(g.n) if g.n else 0
        assert delete_vertex(add_vertex_with_neighborhood(g, nbrs), g.n) == g


def test_neighborhood_and_degree():
    c5 = cycle(5)
    assert c5.rows[0] == mask_of([1, 4])
    assert degree(complete_bipartite(1, 4), 0) == 4
    with pytest.raises(ValueError):
        degree(c5, 5)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (1,))  # self-loop
    with pytest.raises(ValueError):
        Graph(1, (2,))  # bit beyond order
    with pytest.raises(ValueError):
        Graph(65, (0,) * 65)


def test_graphs_are_immutable_values():
    g = cycle(4)
    with pytest.raises(AttributeError):
        g.n = 3
    assert g == cycle(4)
    assert hash(g) == hash(cycle(4))
    assert g != path(4)

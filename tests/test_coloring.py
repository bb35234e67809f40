import random

import pytest

from critenum import (
    Graph,
    chromatic_number,
    clique_number,
    complement,
    complete,
    cycle,
    delete_edge,
    delete_vertex,
    is_k_colorable,
)
from oracles import cyclic_garbage, naive_chromatic, random_graph


def test_odd_cycle():
    assert is_k_colorable(cycle(5), 2) is None
    witness = is_k_colorable(cycle(5), 3)
    assert witness is not None and witness.is_proper_for(cycle(5))
    assert witness.colors_used == 3


def test_c9_complement_needs_five():
    c9bar = complement(cycle(9))
    assert is_k_colorable(c9bar, 4) is None
    assert chromatic_number(c9bar) == 5


def test_chromatic_examples():
    assert chromatic_number(complete(5)) == 5
    assert chromatic_number(complement(cycle(7))) == 4
    # C5 joined to K2: the unique 7-vertex graph of interest
    g = complement(cycle(5))
    rows = list(g.rows) + [0, 0]
    for v in range(5):
        rows[v] |= (1 << 5) | (1 << 6)
        rows[5] |= 1 << v
        rows[6] |= 1 << v
    rows[5] |= 1 << 6
    rows[6] |= 1 << 5
    join = Graph(7, rows)
    assert chromatic_number(join) == 5


def test_empty_conventions():
    assert chromatic_number(Graph(0, ())) == 0
    assert chromatic_number(Graph(5, (0,) * 5)) == 1
    assert is_k_colorable(Graph(0, ()), 0) is not None
    assert is_k_colorable(Graph(3, (0,) * 3), 0) is None


def test_clique_number():
    assert clique_number(cycle(5)) == 2
    assert clique_number(complement(cycle(9))) == 4
    assert clique_number(complete(5)) == 5
    assert clique_number(Graph(0, ())) == 0


def test_clique_bound_and_exactness():
    rng = random.Random(13)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        lo = clique_number(g)
        chi = chromatic_number(g)
        assert lo <= chi
        assert is_k_colorable(g, chi) is not None
        assert chi == 0 or is_k_colorable(g, chi - 1) is None


def test_clique_number_leaves_no_cyclic_garbage():
    # the search is a module function that calls itself, not a closure over
    # the best size so far, so reference counting frees it when it returns
    rng = random.Random(20261025)
    graphs = [complement(cycle(9)), complete(6)]
    graphs += [random_graph(rng, rng.randint(0, 14), rng.random()) for _ in range(50)]
    assert cyclic_garbage(lambda: [clique_number(g) for g in graphs]) == 0


def test_monotonicity_under_deletion():
    rng = random.Random(17)
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        chi = chromatic_number(g)
        v = rng.randrange(g.n)
        assert chromatic_number(delete_vertex(g, v)) in (chi - 1, chi)
        edges = list(g.edges())
        if edges:
            u, w = rng.choice(edges)
            assert chromatic_number(delete_edge(g, u, w)) in (chi - 1, chi)


def test_witness_validity_and_normal_form():
    rng = random.Random(29)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        k = rng.randint(1, g.n)
        witness = is_k_colorable(g, k)
        if witness is not None:
            assert witness.colors_used <= k
            assert witness.is_proper_for(g)


def test_agrees_with_naive_oracle_small():
    rng = random.Random(31)
    for _ in range(150):
        g = random_graph(rng, rng.randint(0, 5), rng.random())
        assert chromatic_number(g) == naive_chromatic(g)


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        is_k_colorable(cycle(3), -1)

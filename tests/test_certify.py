import random

import pytest

from critenum import (
    Certificate,
    Coloring,
    Embedding,
    Graph,
    IncompleteListError,
    NotInClassError,
    add_vertex_with_neighborhood,
    bits,
    canonical_form,
    certify_4_colorability,
    chromatic_number,
    complement,
    complete,
    cycle,
    delete_vertex,
    embedding_is_induced,
    enumerate_5vc,
    find_induced,
    induced_subgraph,
    is_family_free,
    parse_pattern,
    path,
)
from oracles import permuted, random_graph

P5 = parse_pattern("p5")
H13 = parse_pattern("k1,3+p1")
FAMILY = (P5, H13)


@pytest.fixture(scope="module")
def critical_list():
    return enumerate_5vc(H13, max_order=9).graphs


def test_colorable_graph_gets_coloring(critical_list):
    cert = certify_4_colorability(cycle(5), critical_list, FAMILY)
    assert cert.coloring is not None and cert.witness is None
    assert cert.coloring.colors_used == 3
    assert cert.coloring.is_proper_for(cycle(5))


def test_k5_is_its_own_witness(critical_list):
    cert = certify_4_colorability(complete(5), critical_list, FAMILY)
    assert cert.witness is not None
    assert cert.witness.vertices == 0b11111
    sub = induced_subgraph(complete(5), cert.witness.vertices)
    assert sub == complete(5)


def test_dominated_c9_complement_host(critical_list):
    # three vertices complete to the complement of C9 and to each other:
    # family-free, far from 4-colorable, witnessed by a small list entry
    host = complement(cycle(9))
    for _ in range(3):
        host = add_vertex_with_neighborhood(host, (1 << host.n) - 1)
    assert is_family_free(host, FAMILY)
    assert chromatic_number(host) >= 5
    cert = certify_4_colorability(host, critical_list, FAMILY)
    w = cert.witness
    assert w is not None
    entry = critical_list[w.list_index]
    assert entry.n <= 9
    sub = induced_subgraph(host, w.vertices)
    assert chromatic_number(sub) == 5
    assert embedding_is_induced(host, entry, w.embedding)


def test_not_in_class_rejected(critical_list):
    with pytest.raises(NotInClassError):
        certify_4_colorability(path(6), critical_list, FAMILY)


def test_incomplete_list_detected():
    with pytest.raises(IncompleteListError):
        certify_4_colorability(complete(5), [], FAMILY)
    with pytest.raises(IncompleteListError):
        # a list missing K5 cannot certify K5
        certify_4_colorability(complete(5), [complement(cycle(9))], FAMILY)


def test_witness_embedding_revalidates(critical_list):
    rng = random.Random(61)
    checked = 0
    for g in critical_list:
        cert = certify_4_colorability(g, critical_list, FAMILY)
        w = cert.witness
        assert w is not None
        # a critical graph is its own minimal certificate
        assert critical_list[w.list_index].n == g.n
        assert w.vertices == (1 << g.n) - 1
        assert embedding_is_induced(g, critical_list[w.list_index], w.embedding)
        checked += 1
        if checked >= 40:
            break


def test_vertex_deletion_flips_to_coloring(critical_list):
    g = complete(5)
    cert = certify_4_colorability(delete_vertex(g, 0), critical_list, FAMILY)
    assert cert.coloring is not None


def test_deleting_unused_vertex_keeps_witness(critical_list):
    # the certificate may flip to a coloring only if the deleted vertex was
    # part of the witness
    host = complement(cycle(9))
    for _ in range(3):
        host = add_vertex_with_neighborhood(host, (1 << host.n) - 1)
    cert = certify_4_colorability(host, critical_list, FAMILY)
    used = cert.witness.vertices
    unused = [v for v in range(host.n) if not (used >> v) & 1]
    assert unused
    again = certify_4_colorability(delete_vertex(host, unused[0]), critical_list, FAMILY)
    assert again.witness is not None


def test_random_colorable_certs(critical_list):
    rng = random.Random(67)
    done = 0
    attempts = 0
    while done < 60 and attempts < 20000:
        attempts += 1
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        if not is_family_free(g, FAMILY):
            continue
        from critenum import is_k_colorable

        if is_k_colorable(g, 4) is None:
            continue
        cert = certify_4_colorability(g, critical_list, FAMILY)
        assert cert.coloring is not None
        assert cert.coloring.colors_used <= 4
        assert cert.coloring.is_proper_for(g)
        done += 1
    assert done == 60


def _non_colorable_hosts(rng, critical_list, count):
    # a list member grown by up to three family-free vertices, relabelled
    hosts = []
    while len(hosts) < count:
        g = rng.choice(critical_list)
        for _ in range(rng.randint(0, 3)):
            child = add_vertex_with_neighborhood(g, rng.getrandbits(g.n))
            if is_family_free(child, FAMILY):
                g = child
        perm = list(range(g.n))
        rng.shuffle(perm)
        hosts.append(permuted(g, perm))
    return hosts


def test_shuffled_list_gives_least_order_witness(critical_list):
    rng = random.Random(73)
    shuffled = list(critical_list)
    rng.shuffle(shuffled)
    for host in _non_colorable_hosts(rng, critical_list, 30):
        w = certify_4_colorability(host, shuffled, FAMILY).witness
        assert w is not None
        member = shuffled[w.list_index]
        assert embedding_is_induced(host, member, w.embedding)
        # scan oracle: nothing smaller embeds, nor anything of the same
        # order earlier in the shuffled list
        for i, h in enumerate(shuffled):
            if h.n < member.n or (h.n == member.n and i < w.list_index):
                assert find_induced(host, h) is None, (host, i)


def test_critenum_list_keeps_canonical_scan_order(critical_list):
    # enumerate_5vc writes its list in (order, canonical form) order, so the
    # scan by order alone returns the same witness as the canonical order
    canonical = sorted(range(len(critical_list)),
                       key=lambda i: (critical_list[i].n, canonical_form(critical_list[i])))
    assert canonical == list(range(len(critical_list)))
    rng = random.Random(79)
    for host in _non_colorable_hosts(rng, critical_list, 30):
        w = certify_4_colorability(host, critical_list, FAMILY).witness
        first = next(i for i in canonical if find_induced(host, critical_list[i]) is not None)
        assert w.list_index == first


def test_certificate_exactly_one_variant():
    from critenum import CriticalWitness, Embedding

    with pytest.raises(ValueError):
        Certificate()
    w = CriticalWitness(vertices=1, list_index=0, embedding=Embedding((0,)))
    with pytest.raises(ValueError):
        Certificate(coloring=Coloring((0,), 1), witness=w)
    assert Certificate(coloring=Coloring((0,), 1)).coloring is not None
    assert Certificate(witness=w).witness is not None


def test_coloring_recheck_rejects_bad_colorings():
    # a certificate is re-checked before it is trusted, so each fault must fail it
    c5 = cycle(5)
    assert Coloring((0, 1, 0, 1, 2), 3).is_proper_for(c5)
    assert not Coloring((0, 1, 0, 1), 2).is_proper_for(c5)  # one vertex short
    assert not Coloring((0, 1, 0, 1, 2, 0), 3).is_proper_for(c5)  # one vertex too many
    assert not Coloring((0, 1, 0, 1, 0), 2).is_proper_for(c5)  # the edge 4-0 in one colour
    assert not Coloring((0, 1, 0, 1, 2), 4).is_proper_for(c5)  # colors_used too high
    assert not Coloring((0, 1, 0, 1, 2), 2).is_proper_for(c5)  # and too low
    assert not Coloring((0, 1, 0, 1, 3), 3).is_proper_for(c5)  # colour 2 unused
    empty = Graph(0, ())
    assert Coloring((), 0).is_proper_for(empty)
    assert not Coloring((), 1).is_proper_for(empty)
    assert not Coloring((), -1).is_proper_for(empty)


def test_embedding_recheck_rejects_bad_embeddings():
    # each map below breaks exactly one condition of an induced embedding
    p6 = path(6)
    assert embedding_is_induced(p6, P5, Embedding((0, 1, 2, 3, 4)))
    assert not embedding_is_induced(p6, P5, Embedding((0, 1, 2, 3)))  # the wrong length
    # a repeated image: the two isolated vertices of 2P1 both at vertex 1
    assert embedding_is_induced(p6, parse_pattern("2p1"), Embedding((1, 3)))
    assert not embedding_is_induced(p6, parse_pattern("2p1"), Embedding((1, 1)))
    for out in (6, -1):  # out of range
        assert not embedding_is_induced(p6, P5, Embedding((0, 1, 2, 3, out)))
    # the edge 3-4 of P5 onto the non-edge 3-5 of P6; every non-edge stays one
    assert not embedding_is_induced(p6, P5, Embedding((0, 1, 2, 3, 5)))
    # the non-edge 0-2 of P3 onto an edge of K3
    assert not embedding_is_induced(complete(3), path(3), Embedding((0, 1, 2)))

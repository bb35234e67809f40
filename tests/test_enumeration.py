import hashlib
import multiprocessing
import os
import pickle
import random
from collections import Counter
from pathlib import Path

import pytest

from critenum import (
    Graph,
    SearchConfig,
    add_vertex_with_neighborhood,
    are_isomorphic,
    canonical_form,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    enumerate_5vc,
    find_comparable_pair,
    find_xy_obstruction,
    induced_subgraph,
    is_family_free,
    is_k_colorable,
    is_k_vertex_critical,
    parse_pattern,
    path,
    recursively_enumerate,
    seeds_for,
    write_graph6_file,
)
import critenum.enumeration
from critenum.canon import canonical_key
from critenum.enumeration import (
    _DEAD,
    _EXPAND,
    _OUT,
    _allowed_free_extensions,
    _child_kinds,
    _freeness_bitmap,
    _process_node,
    find_obligations,
)
from oracles import (
    all_graphs,
    brute_automorphisms,
    one_vertex_extensions,
    permuted,
    random_graph,
)

P5 = parse_pattern("p5")
H13 = parse_pattern("k1,3+p1")
H14 = parse_pattern("k1,4+p1")
HCO = parse_pattern("co(k3+2p1)")
P6 = parse_pattern("p6")
C6 = parse_pattern("c6")


def _children(g, cfg, autos=(), inherited=None):
    """The children ``g`` gets in the search, its freeness bitmap built on ``inherited``."""
    free = _freeness_bitmap(g, cfg.family, inherited)
    return [c for c, _ in _allowed_free_extensions(g, cfg, autos, free)]


def test_one_vertex_extensions_counts():
    exts = list(one_vertex_extensions(complete(1)))
    assert len(exts) == 2
    assert exts[0].edge_count() == 0 and exts[1].edge_count() == 1
    exts2 = list(one_vertex_extensions(complete(2)))
    assert len(exts2) == 4
    assert len({canonical_form(g) for g in exts2}) == 3
    assert len(list(one_vertex_extensions(random_graph(random.Random(0), 5, 0.5)))) == 32


def test_extension_order_is_ascending_masks():
    for s, g in enumerate(one_vertex_extensions(cycle(4))):
        assert g.rows[4] == s


def test_seed_k5_outputs_itself():
    cfg = SearchConfig(k=5, family=(P5, H13), max_order=6, seeds=(complete(5),))
    res = recursively_enumerate(cfg)
    assert len(res.graphs) == 1 and are_isomorphic(res.graphs[0], complete(5))
    assert res.complete and res.per_order_counts == {5: 1}


def test_seed_must_be_family_free():
    cfg = SearchConfig(k=5, family=(P5,), max_order=7, seeds=(complete(5), path(6)))
    with pytest.raises(ValueError, match=r"^seed 2 of 2 \(EhCG\) is not family-free$"):
        recursively_enumerate(cfg)


def test_seed_above_cap_skipped():
    cfg = SearchConfig(k=5, family=(P5, H13), max_order=8,
                       seeds=(complete(5), complement(cycle(9))))
    res = recursively_enumerate(cfg)
    assert [g.n for g in res.graphs] == [5]
    assert res.nodes_visited == 1 and res.complete


def test_counts_to_order_8():
    for h, expected in [(H13, [1, 0, 1, 7]), (H14, [1, 0, 1, 7]), (HCO, [1, 0, 1, 6])]:
        res = enumerate_5vc(h, max_order=8)
        assert [res.per_order_counts.get(n, 0) for n in range(5, 9)] == expected
        assert not res.complete  # branches remain open at the cap


@pytest.mark.parametrize("h", [H13, HCO], ids=["k1,3+p1", "co(k3+2p1)"])
def test_outputs_reverify(h):
    res = enumerate_5vc(h, max_order=8)
    family = (P5, h)
    forms = set()
    for g in res.graphs:
        assert is_family_free(g, family)
        assert is_k_vertex_critical(g, 5).is_vertex_critical
        assert find_comparable_pair(g) is None
        assert find_xy_obstruction(g) is None
        forms.add(canonical_form(g))
    assert len(forms) == len(res.graphs)


def test_sporadics_present():
    res = enumerate_5vc(H13, max_order=9)
    forms = {canonical_form(g) for g in res.graphs}
    assert canonical_form(complete(5)) in forms
    assert canonical_form(complement(cycle(9))) in forms


def test_seeds_for():
    # K_k and co-C_(2k-1) are k-vertex-critical; the other antiholes have chi < k
    for k in range(1, 7):
        seeds = seeds_for(k, (P5,))
        assert [g.n for g in seeds] == [k] + list(range(5, 2 * k, 2))
        assert are_isomorphic(seeds[0], complete(k))
        for i, g in enumerate(seeds):
            if i:
                assert are_isomorphic(g, complement(cycle(g.n)))
            if i == 0 or g.n == 2 * k - 1:
                assert is_k_vertex_critical(g, k).is_vertex_critical
            else:
                assert is_k_colorable(g, k - 1) is not None
    assert [g.n for g in seeds_for(5, (P5,))] == [5, 5, 7, 9]
    c5 = parse_pattern("c5")
    assert [canonical_form(g) for g in seeds_for(4, (P5, c5))] == [
        canonical_form(complete(4)), canonical_form(complement(cycle(7)))]  # co-C5 is C5
    with pytest.raises(ValueError, match="positive"):
        seeds_for(0, (P5,))
    with pytest.raises(ValueError, match="p5"):
        seeds_for(5, (c5,))
    p5_relabelled = permuted(path(5), [2, 0, 4, 1, 3])  # P5 found up to isomorphism
    assert seeds_for(5, (p5_relabelled, H13)) == seeds_for(5, (P5, H13))


def _seeded(k, family, max_order):
    return recursively_enumerate(SearchConfig(k, family, max_order, tuple(seeds_for(k, family))))


def test_seeded_k3_emits_k3_and_c5():
    # the 3-vertex-critical graphs are the odd cycles, and C7 on contains P5
    res = _seeded(3, (P5,), 13)
    assert [canonical_form(g) for g in res.graphs] == [canonical_form(complete(3)),
                                                       canonical_form(cycle(5))]
    assert res.complete


def test_seeded_k4_emits_the_12_known_p5_free_graphs():
    res = _seeded(4, (P5,), 13)
    assert res.per_order_counts == {4: 1, 6: 1, 7: 7, 10: 2, 13: 1}


@pytest.mark.parametrize("h, count", [(H13, 11), (H14, 12), (HCO, 12)],
                         ids=["k1,3+p1", "k1,4+p1", "co(k3+2p1)"])
def test_seeded_k4_equals_search_from_k1(h, count):
    # the seed theorem checked against a search that does not use it
    seeded = _seeded(4, (P5, h), 13)
    from_k1 = recursively_enumerate(SearchConfig(4, (P5, h), 13, (complete(1),)))
    forms = {canonical_form(g) for g in seeded.graphs}
    assert forms == {canonical_form(g) for g in from_k1.graphs}
    assert len(forms) == count


def test_plain_graph_companion_equals_pattern():
    # any labelling of the companion gives the same search: K1,3+P1 with the
    # isolated vertex first and the center last is not the parsed graph
    claw_p1 = disjoint_union(complete(1), complete_bipartite(3, 1))
    assert claw_p1 != H13
    assert enumerate_5vc(claw_p1, max_order=8) == enumerate_5vc(H13, max_order=8)
    with pytest.raises(TypeError):  # the caller gives the cap; the paper's orders are results
        enumerate_5vc(H13)


def test_pruning_differential_small_cap():
    for h in (H13, HCO):
        on = enumerate_5vc(h, max_order=8)
        off = enumerate_5vc(h, max_order=8, pruning=False)
        assert {canonical_form(g) for g in on.graphs} == {canonical_form(g) for g in off.graphs}
        assert on.nodes_visited <= off.nodes_visited


def test_no_prune_nodes_and_bytes_to_order_9(tmp_path):
    on = enumerate_5vc(H13, max_order=9)
    off = enumerate_5vc(H13, max_order=9, pruning=False)
    assert off.nodes_visited == 6233
    out = tmp_path / "off.g6"
    write_graph6_file(out, off.graphs)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c2a320dec113faf28815b990e7cd72827cf21d478247c604e735047bae3ac046")
    assert {canonical_form(g) for g in on.graphs} == {canonical_form(g) for g in off.graphs}


def test_obligation_filters_children():
    from critenum import complete_bipartite

    host = complete_bipartite(1, 3)  # leaves are pairwise comparable
    ob = find_obligations(host)
    assert ob is not None
    x, y = ob
    assert x.bit_count() == 1 and y.bit_count() == 1
    u = x.bit_length() - 1
    v = y.bit_length() - 1
    fixing = add_vertex_with_neighborhood(host, {u})
    breaking = add_vertex_with_neighborhood(host, {v})
    neutral = add_vertex_with_neighborhood(host, 0)  # leaves the pair comparable
    family = (parse_pattern("k4"),)  # every one-vertex extension of K1,3 is K4-free
    pruned = _children(host, SearchConfig(k=5, family=family, max_order=5))
    assert fixing in pruned
    assert breaking not in pruned and neutral not in pruned
    assert all(c.rows[4] & x and y & ~c.rows[4] for c in pruned)
    unpruned = _children(host, SearchConfig(k=5, family=family, max_order=5, pruning=False))
    assert unpruned == list(one_vertex_extensions(host))


def test_determinism_across_runs_and_jobs():
    r1 = enumerate_5vc(HCO, max_order=8)
    r2 = enumerate_5vc(HCO, max_order=8)
    r3 = enumerate_5vc(HCO, max_order=8, jobs=2)
    lines = [[canonical_form(g) for g in r.graphs] for r in (r1, r2, r3)]
    assert lines[0] == lines[1] == lines[2]
    assert r1.nodes_visited == r2.nodes_visited == r3.nodes_visited


def test_jobs_capped_at_cpu_count(monkeypatch):
    cfg = SearchConfig(k=5, family=(P5, HCO), max_order=8, seeds=(complement(cycle(5)),))
    serial = recursively_enumerate(cfg)

    def no_pool(*args, **kwargs):
        raise AssertionError("no pool on a single CPU")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    capped = recursively_enumerate(cfg, jobs=4)
    assert capped.graphs == serial.graphs
    assert capped.nodes_visited == serial.nodes_visited


def test_isomorphic_seeds_searched_once():
    seed = complement(cycle(5))
    relabelled = permuted(seed, [0, 3, 1, 4, 2])
    assert seed != relabelled and are_isomorphic(seed, relabelled)
    one = recursively_enumerate(SearchConfig(k=5, family=(P5, HCO), max_order=8, seeds=(seed,)))
    two = recursively_enumerate(
        SearchConfig(k=5, family=(P5, HCO), max_order=8, seeds=(seed, relabelled)))
    assert two.nodes_visited == one.nodes_visited
    assert [canonical_form(g) for g in two.graphs] == [canonical_form(g) for g in one.graphs]


def test_children_merge_before_seeds_of_their_order():
    # Level n takes the children of level n - 1 first, then the seeds of
    # order n, so a seed isomorphic to a child changes neither the first
    # graph of its class nor anything searched from it.
    seed = complement(cycle(5))
    cfg = SearchConfig(k=5, family=(P5, HCO), max_order=9, seeds=(seed,))
    child = _children(seed, cfg, canonical_key(seed)[1])[3]
    relabelled = permuted(child, [5, 3, 0, 4, 1, 2])
    assert relabelled != child and are_isomorphic(relabelled, child)
    alone = recursively_enumerate(cfg)
    both = recursively_enumerate(
        SearchConfig(k=5, family=(P5, HCO), max_order=9, seeds=(seed, relabelled)))
    assert alone.nodes_visited == both.nodes_visited == 556
    assert both.graphs == alone.graphs


def test_nodes_visited_to_order_8():
    # every distinct graph processed, the seed K5 included (co-C9 is above the cap)
    for h, expected in [(H13, 226), (H14, 229), (HCO, 166)]:
        assert enumerate_5vc(h, max_order=8).nodes_visited == expected


def test_nodes_visited_to_order_9(tmp_path, monkeypatch):
    # dead children (chi 5, not critical; those that properly contain K5 among
    # them) are found dead by their parent and never built, so not counted.
    # Children that are automorphic images of a sibling are not built either.
    searches = 0

    def counted(g):
        nonlocal searches
        searches += 1
        return canonical_key(g)

    monkeypatch.setattr(critenum.enumeration, "canonical_key", counted)
    data = Path(__file__).resolve().parents[1] / "perfbench" / "data"
    for h, expected, dedup, recorded in [(H13, 1262, 2455, "k13p1-c10.g6"),
                                         (H14, 1335, 2536, None),
                                         (HCO, 572, 1298, "cok32p1-c11.g6")]:
        searches = 0
        res = enumerate_5vc(h, max_order=9)
        assert res.nodes_visited == expected
        assert searches == dedup
        if recorded is not None:
            out = tmp_path / recorded
            write_graph6_file(out, res.graphs)
            lines = (data / recorded).read_text().splitlines(keepends=True)
            prefix = [line for line in lines if ord(line[0]) - 63 <= 9]
            assert lines[:len(prefix)] == prefix  # the recorded lists are sorted by order
            assert out.read_text() == "".join(prefix)


def _repairs(s, ob):
    """Whether the neighborhood ``s`` meets x and misses part of y, for ``ob = (x, y)``."""
    return ob is None or bool(s & ob[0] and ob[1] & ~s)


def _oracle_kind(child, k):
    """The outcome of ``child`` from its own coloring searches."""
    report = is_k_vertex_critical(child, k)
    if report.chi < k:
        return _EXPAND
    return _OUT if report.is_vertex_critical else _DEAD


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_child_kinds_match_per_child_oracle(k):
    # every one-vertex extension of each parent, classified from the parent's
    # tables and by the child's own coloring searches
    rng = random.Random(20261019 + k)
    parents = [g for g in (complete(k - 1), complement(cycle(5)), complement(cycle(7)))
               if is_k_colorable(g, k - 1) is not None]
    while len(parents) < 24:
        g = random_graph(rng, rng.randint(1, k + 3), rng.uniform(0.2, 0.9))
        if is_k_colorable(g, k - 1) is not None:
            parents.append(g)
    seen = Counter()
    for g in parents:
        masks = range(1 << g.n)
        kinds = _child_kinds(g, k, masks)
        assert kinds == [_oracle_kind(add_vertex_with_neighborhood(g, s), k) for s in masks], g
        seen.update(kinds)
    assert seen[_EXPAND] and seen[_DEAD] and seen[_OUT]


def test_parent_classifies_k5_child_of_k4_seed():
    # the parent K_{k-1} finds its child K_k critical, and it is emitted untested
    cfg = SearchConfig(k=5, family=(P5, H13), max_order=5, seeds=(complete(4),))
    res = recursively_enumerate(cfg)
    assert [canonical_form(g) for g in res.graphs] == [canonical_form(complete(5))]


@pytest.mark.parametrize("k, counts, nodes", [(2, {2: 1}, 3),  # K2
                                              (3, {3: 1, 5: 1}, 11),  # K3 and C5
                                              (4, {4: 1, 6: 1, 7: 7}, 80)],
                         ids=["2", "3", "4"])
def test_parent_classification_small_k_matches_no_prune(k, counts, nodes):
    # with pruning, parents classify their children from k = 2 on, and the
    # children that properly contain K_k are among the dead ones never built
    on = recursively_enumerate(SearchConfig(k=k, family=(P5,), max_order=7,
                                            seeds=(complete(1),)))
    off = recursively_enumerate(SearchConfig(k=k, family=(P5,), max_order=7,
                                             seeds=(complete(1),), pruning=False))
    assert [canonical_form(g) for g in on.graphs] == [canonical_form(g) for g in off.graphs]
    assert on.per_order_counts == counts
    assert on.nodes_visited == nodes < off.nodes_visited


@pytest.mark.parametrize("pruning", [True, False], ids=["pruning", "no-prune"])
@pytest.mark.parametrize("k, family", [(5, (P5, H13)), (5, (P5, HCO)), (4, (P5,)), (3, (P5,)),
                                       (4, (P6, C6))],
                         ids=["k5-k1,3+p1", "k5-co(k3+2p1)", "k4-p5", "k3-p5", "k4-p6,c6"])
def test_child_filter_against_per_child_oracle(k, family, pruning):
    # freeness and the obstruction reach the filter as traces, and pruning drops the
    # dead children; each child is checked on its own here
    rng = random.Random(20261022 + k)
    cfg = SearchConfig(k=k, family=family, max_order=64, pruning=pruning)
    parents = [complete(k - 1)]
    # P5 with its middle vertex last, where it is allowed: C6 less a vertex r, with
    # r's antipode anchored there, is searched under the reflection, a swap of no twins
    p5_middle_last = Graph.from_edges(5, [(0, 1), (1, 4), (4, 2), (2, 3)])
    if is_family_free(p5_middle_last, family):
        parents.append(p5_middle_last)
    while len(parents) < 16:
        g = random_graph(rng, rng.randint(1, k + 3), rng.uniform(0.2, 0.8))
        if is_family_free(g, family) and is_k_colorable(g, k - 1) is not None:
            parents.append(g)
    for g in parents:
        ob = find_obligations(g)
        expected = []
        for s in range(1 << g.n):
            child = add_vertex_with_neighborhood(g, s)
            if not is_family_free(child, family):
                continue
            if pruning and (not _repairs(s, ob) or _oracle_kind(child, k) == _DEAD):
                continue
            expected.append(s)
        kept = [c.rows[g.n] for c in _children(g, cfg)]
        assert kept == expected, (g, ob)
        # g reached as its parent, g less its last vertex, plus that vertex
        parent = induced_subgraph(g, (1 << (g.n - 1)) - 1)
        inherited = _freeness_bitmap(parent, family, None)
        assert _freeness_bitmap(g, family, inherited) == _freeness_bitmap(g, family, None), g
        kept = [c.rows[g.n] for c in _children(g, cfg, inherited=inherited)]
        assert kept == expected, (g, ob)
    if pruning:  # the parents exercise each rule
        assert any(find_obligations(g) for g in parents)
        assert any(_oracle_kind(add_vertex_with_neighborhood(g, s), k) == _DEAD
                   for g in parents for s in range(1 << g.n))


def test_seed_freeness_with_p1_forbids_every_mask():
    # a seed starts from the empty graph, whose one neighborhood P1 forbids,
    # and every step keeps all 2^n neighborhoods forbidden
    rng = random.Random(20261024)
    p1 = parse_pattern("p1")
    assert _freeness_bitmap(Graph(0, ()), (P5,), None) == 0
    for n in range(5):
        g = random_graph(rng, n, rng.random())
        assert _freeness_bitmap(g, (p1,), None) == (1 << (1 << n)) - 1, g
        assert _freeness_bitmap(g, (P5, p1), None) == (1 << (1 << n)) - 1, g


def test_family_of_plain_graphs_equals_patterns():
    # any labelling of a family member gives the same search: a relabelled P5
    # is not the parsed one
    p5_relabelled = permuted(path(5), [2, 0, 4, 1, 3])
    assert p5_relabelled != P5
    results = [recursively_enumerate(SearchConfig(k=4, family=(h,), max_order=7,
                                                  seeds=(cycle(5),)))
               for h in (p5_relabelled, P5)]
    assert results[0] == results[1]
    assert results[0].per_order_counts == {6: 1, 7: 6} and results[0].nodes_visited == 23


def test_siblings_pickle_their_parents_bitmap_once():
    # under jobs > 1 a chunk of a level is pickled as one task: the siblings'
    # shared box sends the parent's 2^14-bit freeness bitmap once
    g = complete(2)
    for _ in range(6):
        g = disjoint_union(g, complete(2))
    cfg = SearchConfig(k=4, family=(P5,), max_order=64, pruning=False)
    kind, children = _process_node((g, canonical_key(g)[1], None, _EXPAND), cfg)
    assert kind == _EXPAND and len(children) >= 2
    (_, first), (_, second) = children[:2]
    assert first[2] is second[2] and first[2][0] == _freeness_bitmap(g, cfg.family, None)
    one = len(pickle.dumps([first]))
    assert len(pickle.dumps([first, second])) < 1.5 * one
    assert one > (1 << 14) // 8


@pytest.mark.parametrize("pruning", [True, False], ids=["pruning", "no-prune"])
def test_children_one_per_automorphism_orbit(pruning):
    # the kept masks are the least allowed mask of each orbit of Aut(parent),
    # with the orbits taken from every permutation
    rng = random.Random(20261019)
    family = (P5, H13)
    cfg = SearchConfig(k=5, family=family, max_order=64, pruning=pruning)
    parents = [complement(cycle(5)), complement(cycle(7)), complete(4), cycle(5)]
    while len(parents) < 24:
        g = random_graph(rng, rng.randint(4, 7), rng.uniform(0.3, 0.9))
        if is_family_free(g, family) and is_k_colorable(g, 4) is not None:
            parents.append(g)
    dropped = 0
    for g in parents:
        allowed = [c.rows[g.n] for c in _children(g, cfg)]
        autos = brute_automorphisms(g)
        orbits = [{sum(1 << a[v] for v in range(g.n) if s >> v & 1) for a in autos}
                  for s in allowed]
        least = [s for s, orbit in zip(allowed, orbits) if min(orbit & set(allowed)) == s]
        kept = [c.rows[g.n] for c in _children(g, cfg, canonical_key(g)[1])]
        assert kept == least
        dropped += len(allowed) - len(kept)
    assert dropped > 0


def test_all_graphs_counts():
    levels = all_graphs(6)
    assert [len(levels[n]) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


def test_truncation_reported():
    cfg = SearchConfig(k=5, family=(P5, HCO), max_order=5, seeds=(complement(cycle(5)),))
    res = recursively_enumerate(cfg)
    assert not res.complete  # the seed itself is an open branch at the cap
    assert res.open_nodes == 1
    assert enumerate_5vc(H13, max_order=8).open_nodes == 182

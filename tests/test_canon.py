import hashlib
import random
from functools import reduce
from itertools import combinations
from pathlib import Path

from critenum import (
    MAX_ORDER,
    Graph,
    are_isomorphic,
    canonical_form,
    complement,
    complete,
    complete_bipartite,
    cycle,
    decode_graph6,
    disjoint_union,
    encode_graph6,
    path,
    read_graph6_file,
)
from critenum.canon import canonical_key, form_of_key
from oracles import (
    all_graphs,
    brute_automorphisms,
    brute_isomorphic,
    cyclic_garbage,
    full_tree_canonical_rows,
    permuted,
    random_graph,
)


def _petersen():
    return Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                            + [(i, 5 + i) for i in range(5)])


def _hypercube(d):
    return Graph.from_edges(1 << d, [(i, i ^ (1 << b)) for i in range(1 << d)
                                     for b in range(d) if i < i ^ (1 << b)])


def _paley(q):
    squares = {x * x % q for x in range(1, q)}
    return Graph.from_edges(q, [(i, j) for i in range(q) for j in range(i + 1, q)
                                if (j - i) % q in squares])


def _twins(g, u, v):
    return not (g.rows[u] ^ g.rows[v]) & ~(1 << u | 1 << v)


def _twin_blowup(rng, base):
    """Repeat each vertex of ``base`` 1-3 times as true or false twins, then shuffle."""
    true_twins = [rng.random() < 0.5 for _ in range(base.n)]
    copies = [v for v in range(base.n) for _ in range(rng.randint(1, 3))]
    rows = [0] * len(copies)
    for i, v in enumerate(copies):
        for j, u in enumerate(copies):
            if i != j and (true_twins[v] if u == v else base.has_edge(u, v)):
                rows[i] |= 1 << j
    perm = list(range(len(copies)))
    rng.shuffle(perm)
    return permuted(Graph(len(copies), rows), perm)


def _all_labeled(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for idx, (i, j) in enumerate(pairs):
            if (mask >> idx) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield Graph(n, rows)


def test_relabelings_agree():
    c5a = cycle(5)
    c5b = Graph.from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
    assert canonical_form(c5a) == canonical_form(c5b)


def test_distinct_graphs_differ():
    assert canonical_form(path(4)) != canonical_form(complete_bipartite(1, 3))


def test_four_vertex_classes_all_distinct():
    # brute-force isomorphism partitions the 64 labeled 4-vertex graphs
    # into 11 classes; canonical forms must induce the same partition
    graphs = list(_all_labeled(4))
    reps: list[Graph] = []
    for g in graphs:
        if not any(brute_isomorphic(g, r) for r in reps):
            reps.append(g)
    assert len(reps) == 11
    assert len({canonical_form(g) for g in graphs}) == 11
    for g in graphs:
        matches = [r for r in reps if canonical_form(r) == canonical_form(g)]
        assert len(matches) == 1
        assert brute_isomorphic(g, matches[0])


def test_labeled_class_counts_small():
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    for n, count in expected.items():
        assert len({canonical_form(g) for g in _all_labeled(n)}) == count
        assert len({canonical_key(g)[0] for g in _all_labeled(n)}) == count


def test_permutation_invariance_random():
    rng = random.Random(3)
    for _ in range(1000):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.7, 0.85]))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(permuted(g, perm))


def test_decode_is_fixed_point():
    rng = random.Random(5)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 11), rng.random())
        form = canonical_form(g)
        back = decode_graph6(form.decode("ascii"))
        assert are_isomorphic(back, g)
        assert canonical_form(back) == form
        key, n = canonical_key(g)[0], g.n  # the rows the canonical search labels g with
        assert tuple(key >> (n - 1 - i) * n & ((1 << n) - 1) for i in range(n)) == back.rows


def test_highly_symmetric_graphs():
    # Q6, 12 C5 and 4 Petersen have no twins, so their searches branch above n = 16
    for g in [complete(8), complement(complete(8)), complete_bipartite(4, 4),
              cycle(8), disjoint_union(cycle(5), cycle(5)), _petersen(), _hypercube(4),
              _paley(13), _hypercube(6), reduce(disjoint_union, [cycle(5)] * 12),
              reduce(disjoint_union, [_petersen()] * 4)]:
        perm = list(range(g.n))
        random.Random(9).shuffle(perm)
        assert canonical_form(g) == canonical_form(permuted(g, perm))


def test_pruned_search_matches_full_tree():
    # The automorphism pruning may only skip leaves whose codes it has
    # already seen, so the least leaf code must equal the unpruned one.
    rng = random.Random(11)
    graphs = [random_graph(rng, rng.randint(0, 9), rng.choice([0.2, 0.4, 0.6, 0.8]))
              for _ in range(300)]
    while len(graphs) < 360:
        # Twin-free bases keep each twin class to one base vertex, so the
        # unpruned tree stays small enough to walk.
        base = random_graph(rng, rng.randint(4, 5), 0.5)
        if not any(_twins(base, u, v) for u, v in combinations(range(base.n), 2)):
            blown = _twin_blowup(rng, base)
            if blown.n <= 9:
                graphs.append(blown)
    three_c4 = disjoint_union(cycle(4), disjoint_union(cycle(4), cycle(4)))
    c5_k3_k2 = disjoint_union(cycle(5), disjoint_union(complete(3), complete(2)))
    graphs += [complete(6), complete_bipartite(3, 3), three_c4, _petersen(), _hypercube(3),
               complement(cycle(9)), c5_k3_k2]
    for g in graphs:
        assert decode_graph6(canonical_form(g).decode("ascii")).rows == full_tree_canonical_rows(g)


def _generated_group(n, autos):
    """Every permutation the automorphisms ``autos`` generate, as image tuples."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        p = todo.pop()
        for a in autos:
            q = tuple(a[v] for v in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


def test_search_returns_automorphisms_and_key():
    rng = random.Random(13)
    graphs = [random_graph(rng, rng.randint(0, 10), rng.choice([0.2, 0.4, 0.5, 0.6, 0.8]))
              for _ in range(300)]
    graphs += [_twin_blowup(rng, random_graph(rng, rng.randint(3, 5), 0.5)) for _ in range(40)]
    named = [(_petersen(), 120), (_hypercube(3), 48), (complement(cycle(9)), 18)]
    for g in graphs + [g for g, _ in named]:
        key, autos = canonical_key(g)
        assert form_of_key(g.n, key) == canonical_form(g)
        for a in autos:
            assert sorted(a) == list(range(g.n)) and permuted(g, list(a)) == g
    # here the automorphisms found generate the whole group; a smaller group
    # would stay correct for the enumeration but leave duplicate children
    for g, order in named:
        assert len(_generated_group(g.n, canonical_key(g)[1])) == order
    for g in graphs:
        if g.n <= 6:
            assert _generated_group(g.n, canonical_key(g)[1]) == set(brute_automorphisms(g))


def test_seeded_search_gives_the_key_and_group():
    # known automorphisms passed in prune the tree but change neither the key
    # nor the group the returned automorphisms generate
    rng = random.Random(29)
    cases = []
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 7), rng.choice([0.2, 0.4, 0.5, 0.6, 0.8]))
        cases.append((g, brute_automorphisms(g)))
    cases += [(_twin_blowup(rng, random_graph(rng, rng.randint(3, 4), 0.5)), None)
              for _ in range(10)]
    for g in (_petersen(), _hypercube(3), complement(cycle(9))):
        perm = list(range(g.n))
        rng.shuffle(perm)
        cases += [(g, None), (permuted(g, perm), None)]
    seeded_some = 0
    for g, group in cases:
        key, autos = canonical_key(g)
        if group is None:
            group = sorted(_generated_group(g.n, autos))
        assert _generated_group(g.n, autos) == set(group), g
        for _ in range(4):
            picked = rng.sample(group, min(len(group), rng.randint(0, 3)))
            seeds = list(dict.fromkeys(bytes(a) for a in picked))
            seeded_key, seeded_autos = canonical_key(g, seeds)
            assert seeded_key == key, (g, seeds)
            assert seeded_autos[:len(seeds)] == seeds
            assert _generated_group(g.n, seeded_autos) == set(group), (g, seeds)
            seeded_some += any(a != bytes(range(g.n)) for a in seeds)
    assert seeded_some > 100


def _kernel_cases(seed):
    """Seeded graphs to n = 14, twin blow-ups and the symmetric graphs, each
    with a few products of two of its automorphisms to seed the search with."""
    rng = random.Random(seed)
    graphs = [random_graph(rng, rng.randint(0, 14), rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
              for _ in range(150)]
    graphs += [_twin_blowup(rng, random_graph(rng, rng.randint(3, 5), 0.5)) for _ in range(20)]
    for g in (_petersen(), _hypercube(3), complement(cycle(9))):
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs += [g, permuted(g, perm)]
    cases = []
    for g in graphs:
        autos = canonical_key(g)[1]
        pairs = [rng.sample(autos, 2) for _ in range(rng.randint(0, 3))] if len(autos) > 1 else []
        seeds = list(dict.fromkeys(bytes(a[v] for v in b) for a, b in pairs))
        cases.append((g, seeds))
    return cases


def test_canonical_keys_and_automorphisms_are_pinned():
    # the key and the automorphisms, in their order, with and without seeds:
    # a change to the search that keeps the tree keeps every one of them
    digest = hashlib.sha256()
    seeded = 0
    for g, seeds in _kernel_cases(20261021):
        digest.update(repr((g.n, canonical_key(g), canonical_key(g, seeds))).encode())
        seeded += bool(seeds)
    assert seeded > 50
    assert digest.hexdigest() == "5daf6db54ec9305e3c81678fbf0ee287a85c24b274ae73983837b6e846577eee"


def test_canonical_search_leaves_no_cyclic_garbage():
    # everything a search allocates is freed by reference counting when it
    # returns, seeded or not, so the cyclic collector has nothing to sweep
    cases = _kernel_cases(20261022)
    assert cyclic_garbage(lambda: [(canonical_key(g), canonical_key(g, seeds))
                                   for g, seeds in cases]) == 0


def test_twin_partitions_match_full_tree_and_group():
    # Most of these graphs refine at the root to singletons and twin classes,
    # which the twin prune cuts to one child per level: the rows must be the
    # full tree's and the automorphisms found must generate the whole group.
    rng = random.Random(17)
    graphs = []
    while len(graphs) < 250:
        base = random_graph(rng, rng.randint(2, 6), rng.random())
        if not any(_twins(base, u, v) for u, v in combinations(range(base.n), 2)):
            blown = _twin_blowup(rng, base)
            if blown.n <= 12:
                graphs.append(blown)
    graphs += [random_graph(rng, rng.randint(0, 12), rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
               for _ in range(150)]
    for g in graphs:
        key, autos = canonical_key(g)
        assert decode_graph6(form_of_key(g.n, key).decode("ascii")).rows == \
            full_tree_canonical_rows(g), g
        if g.n <= 7:
            assert _generated_group(g.n, autos) == set(brute_automorphisms(g)), g


def _is_automorphism(g, a):
    """Whether the image tuple ``a`` maps g onto itself; the cost grows with
    the vertices ``a`` moves, not with the edges of g."""
    if sorted(a) != list(range(g.n)):
        return False
    moved = [v for v in range(g.n) if a[v] != v]
    mask = sum(1 << v for v in moved)
    for v in range(g.n):
        image = g.rows[v] & ~mask
        for u in moved:
            if g.rows[v] >> u & 1:
                image |= 1 << a[u]
        if image != g.rows[a[v]]:
            return False
    return True


def test_twin_heavy_graphs_at_max_order():
    # Empty, complete, K32,32, 32K2, 16K4 and its complement: large twin
    # classes, which the search cuts down to one child per level by the
    # twin prune.
    n = MAX_ORDER
    empty = Graph(n, (0,) * n)
    graphs = [empty, complete(n), complete_bipartite(n // 2, n // 2)]
    for part in (2, 4):
        g = complete(part)
        while g.n < n:
            g = disjoint_union(g, complete(part))
        graphs.append(g)
    graphs.append(complement(graphs[-1]))
    rng = random.Random(19)
    for g in graphs:
        perm = list(range(n))
        rng.shuffle(perm)
        key, autos = canonical_key(g)
        assert form_of_key(n, key) == canonical_form(permuted(g, perm))
        assert autos and all(_is_automorphism(g, a) for a in autos)
    # one twin class of 64: the 63 swaps (0 v) generate its group
    swaps = set()
    for v in range(1, n):
        swap = list(range(n))
        swap[0], swap[v] = v, 0
        swaps.add(bytes(swap))
    for g in (empty, complete(n)):
        assert canonical_form(g) == encode_graph6(g).encode("ascii")
        autos = canonical_key(g)[1]
        assert len(autos) == n - 1 and set(autos) == swaps


def test_are_isomorphic_examples():
    assert are_isomorphic(cycle(5), complement(cycle(5)))
    claw_p1 = disjoint_union(complete_bipartite(1, 3), path(1))
    p4_p1 = disjoint_union(path(4), path(1))
    assert not are_isomorphic(claw_p1, p4_p1)


def test_forms_of_all_graphs_to_order_7_are_pinned():
    # Canonical form bytes fix the output order of enumeration and the scan
    # order of certification, so any change to them must be deliberate.
    digest = hashlib.sha256()
    levels = all_graphs(7)
    for n in sorted(levels):
        for g in levels[n]:
            digest.update(canonical_form(g) + b"\n")
    assert sum(len(level) for level in levels.values()) == 1252
    assert digest.hexdigest() == "4d106f768af9276f363b9267c88821478a2b4a7e684dd5eedbff13c6d7c3f808"


def test_recorded_lists_are_in_form_order():
    data = Path(__file__).resolve().parents[1] / "perfbench" / "data"
    for name in ("k13p1-c10.g6", "cok32p1-c11.g6"):
        keys = [(g.n, canonical_form(g)) for g in read_graph6_file(str(data / name))]
        assert keys and all(a < b for a, b in zip(keys, keys[1:])), name


def test_empty_and_tiny():
    assert canonical_form(Graph(0, ())) == b"?"
    assert canonical_form(Graph(1, (0,))) == b"@"

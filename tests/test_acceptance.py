"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything runs by
default except criterion 3's full-enumeration tier: the first class takes
about a minute (gate with ``CRITENUM_FULL=1``), the other two exceed a
desk-scale budget by a wide margin, and the downgrade verification needs a
user-supplied published list (point ``CRITENUM_PUBLISHED_LIST_K13P1`` /
``_K14P1`` / ``_CO_K3_2P1`` at a graph6 file).  The skip reasons and the
ledger document the shortfall; a full run that does execute still checks
every stated assertion, including the ``complete`` flag.
"""

import os
import random
from collections import Counter
from itertools import combinations

import pytest

from critenum import (
    Graph,
    SearchConfig,
    canonical_form,
    certify_4_colorability,
    chromatic_number,
    complete,
    cycle,
    decode_graph6,
    encode_graph6,
    enumerate_5vc,
    is_family_free,
    is_k_colorable,
    is_k_critical_in_class,
    is_k_vertex_critical,
    parse_pattern,
    read_graph6_file,
    recursively_enumerate,
    seeds_for,
)
from oracles import all_graphs, brute_isomorphic, naive_chromatic, permuted, random_graph

H_NAMES = ["k1,3+p1", "k1,4+p1", "co(k3+2p1)"]
P5 = parse_pattern("p5")
PATTERNS = {name: parse_pattern(name) for name in H_NAMES}
FAMILIES = {name: (P5, PATTERNS[name]) for name in H_NAMES}

VC_COUNTS = {
    "k1,3+p1": {5: 1, 6: 0, 7: 1, 8: 7, 9: 198, 10: 16, 11: 24, 12: 57, 13: 40},
    "k1,4+p1": {5: 1, 6: 0, 7: 1, 8: 7, 9: 199, 10: 16, 11: 24, 12: 66, 13: 67,
                14: 35, 15: 71, 16: 24, 17: 23},
    "co(k3+2p1)": {5: 1, 6: 0, 7: 1, 8: 6, 9: 180, 10: 2, 11: 5, 12: 2, 13: 5,
                   14: 2, 15: 3, 16: 0, 17: 4, 18: 0, 19: 1, 20: 0, 21: 1, 22: 0, 23: 1},
}
VC_TOTALS = {"k1,3+p1": 344, "k1,4+p1": 534, "co(k3+2p1)": 214}
MAX_ORDERS = {"k1,3+p1": 13, "k1,4+p1": 17, "co(k3+2p1)": 23}
CRITICAL_COUNTS_TO_9 = {
    "k1,3+p1": [1, 0, 1, 2, 8],
    "k1,4+p1": [1, 0, 1, 2, 9],
    "co(k3+2p1)": [1, 0, 1, 1, 8],
}
CLASS_COUNTS = [1, 2, 4, 11, 34, 156]  # isomorphism classes for n = 1..6

PUBLISHED_LIST_ENV = {
    "k1,3+p1": "CRITENUM_PUBLISHED_LIST_K13P1",
    "k1,4+p1": "CRITENUM_PUBLISHED_LIST_K14P1",
    "co(k3+2p1)": "CRITENUM_PUBLISHED_LIST_CO_K3_2P1",
}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def classes_to_8():
    return all_graphs(8)


@pytest.fixture(scope="session")
def enum9():
    return {name: enumerate_5vc(PATTERNS[name], max_order=9) for name in H_NAMES}


@pytest.fixture(scope="session")
def enum10():
    return {name: enumerate_5vc(PATTERNS[name], max_order=10) for name in H_NAMES}


def test_criterion_1_brute_force_oracle_counts(classes_to_8):
    """All isomorphism classes to n=8, filtered by freeness and criticality."""
    got = {}
    for name in H_NAMES:
        family = FAMILIES[name]
        got[name] = [
            sum(
                1
                for g in classes_to_8[n]
                if is_family_free(g, family) and is_k_vertex_critical(g, 5).is_vertex_critical
            )
            for n in range(5, 9)
        ]
    expected = {name: [VC_COUNTS[name][n] for n in range(5, 9)] for name in H_NAMES}
    # cross-check: the pruned search finds exactly the same isomorphism classes
    for name in H_NAMES:
        family = FAMILIES[name]
        brute = {
            canonical_form(g)
            for n in range(5, 9)
            for g in classes_to_8[n]
            if is_family_free(g, family) and is_k_vertex_critical(g, 5).is_vertex_critical
        }
        searched = {canonical_form(g) for g in enumerate_5vc(PATTERNS[name], max_order=8).graphs}
        assert brute == searched
    # the seed theorem below k = 5: the search from seeds_for(k, {P5}) to n=8
    small = {}
    for k in (3, 4):
        brute = {
            canonical_form(g)
            for n in range(1, 9)
            for g in classes_to_8[n]
            if is_family_free(g, (P5,)) and is_k_vertex_critical(g, k).is_vertex_critical
        }
        cfg = SearchConfig(k, (P5,), 8, tuple(seeds_for(k, (P5,))))
        assert {canonical_form(g) for g in recursively_enumerate(cfg).graphs} == brute
        small[k] = len(brute)
    assert small == {3: 2, 4: 9}
    ok = got == expected
    _report(1, ok, f"brute-force counts n=5..8 {got}, k=3 and k=4 {{P5}}-free {small}; "
                   "pruned search emits identical classes")
    assert got == expected


def test_criterion_2_capped_enumeration_to_10(enum10):
    got = {name: [enum10[name].per_order_counts.get(n, 0) for n in range(5, 11)]
           for name in H_NAMES}
    expected = {name: [VC_COUNTS[name][n] for n in range(5, 11)] for name in H_NAMES}
    ok = got == expected
    _report(2, ok, f"enumeration counts n=5..10 {got}")
    assert got == expected


@pytest.mark.parametrize("name", ["k1,3+p1"])
def test_criterion_3_full_enumeration_k13p1(name):
    if not os.environ.get("CRITENUM_FULL"):
        pytest.skip(
            "full tier gated behind CRITENUM_FULL=1 (~1 min). Known outcome: all "
            "344 graphs and every per-order count reproduce exactly, but "
            "complete=False - the scoped pruning rules (comparable pair, "
            "|X|,|Y|<=2 obstruction, no dead child built) cannot close the search the way the "
            "original tooling's larger rule suite does; see the run report in "
            "the README and the decisions ledger."
        )
    res = enumerate_5vc(PATTERNS[name], max_order=MAX_ORDERS[name])
    got = {n: res.per_order_counts.get(n, 0) for n in VC_COUNTS[name]}
    counts_ok = got == VC_COUNTS[name] and len(res.graphs) == VC_TOTALS[name]
    print(
        f"run report {name}: total={len(res.graphs)} (expected {VC_TOTALS[name]}), "
        f"per-order match={counts_ok}, complete={res.complete}, "
        f"open nodes={res.open_nodes}, nodes visited={res.nodes_visited}"
    )
    _report(3, counts_ok and res.complete,
            f"full run {name}: total={len(res.graphs)} complete={res.complete}")
    assert got == VC_COUNTS[name]
    assert len(res.graphs) == VC_TOTALS[name]
    assert res.complete, (
        "search reached every published graph but could not close below the "
        "cap; the additional pruning rules needed for self-termination are "
        "out of the artifact's scope (see decisions ledger)"
    )


@pytest.mark.parametrize("name", ["k1,4+p1", "co(k3+2p1)"])
def test_criterion_3_full_enumeration_large(name):
    if not os.environ.get("CRITENUM_FULL_UNBOUNDED"):
        pytest.skip(
            f"full run for {name} to order {MAX_ORDERS[name]} exceeds the 24h "
            "desk-scale budget (frontier grows ~3x per order with per-node "
            "cost doubling; measured cap-13 data extrapolates to days/weeks). "
            "The criterion's downgrade tier applies: supply the published "
            f"list via {PUBLISHED_LIST_ENV[name]} to run the downgrade "
            "verification, or set CRITENUM_FULL_UNBOUNDED=1 to attempt the "
            "full run anyway."
        )
    res = enumerate_5vc(PATTERNS[name], max_order=MAX_ORDERS[name])
    got = {n: res.per_order_counts.get(n, 0) for n in VC_COUNTS[name]}
    _report(3, got == VC_COUNTS[name] and res.complete,
            f"full run {name}: total={len(res.graphs)} complete={res.complete}")
    assert got == VC_COUNTS[name]
    assert len(res.graphs) == VC_TOTALS[name]
    assert res.complete


@pytest.mark.parametrize("name", H_NAMES)
def test_criterion_3_downgrade_published_list(name, enum9):
    path = os.environ.get(PUBLISHED_LIST_ENV[name])
    if not path:
        pytest.skip(
            f"downgrade tier needs the user-supplied published list; set "
            f"{PUBLISHED_LIST_ENV[name]} to its graph6 file"
        )
    published = read_graph6_file(path)
    family = FAMILIES[name]
    for i, g in enumerate(published, 1):
        assert is_family_free(g, family), f"published line {i} not family-free"
        assert is_k_vertex_critical(g, 5).is_vertex_critical, f"published line {i} not critical"
    published_forms = Counter(canonical_form(g) for g in published)
    assert max(published_forms.values()) == 1, "published list has duplicates"
    ours = enum9[name]
    our_forms = [canonical_form(g) for g in ours.graphs]
    assert all(f in published_forms for f in our_forms)
    published_by_order = Counter(g.n for g in published)
    for n in range(5, 10):
        assert ours.per_order_counts.get(n, 0) == published_by_order.get(n, 0)
    _report(3, True, f"downgrade verification against published list for {name}")


def test_criterion_4_in_class_critical_counts(enum9):
    got = {}
    for name in H_NAMES:
        family = FAMILIES[name]
        counter: Counter[int] = Counter()
        for g in enum9[name].graphs:
            if is_k_critical_in_class(g, 5, family):
                counter[g.n] += 1
        got[name] = [counter.get(n, 0) for n in range(5, 10)]
    ok = got == CRITICAL_COUNTS_TO_9
    _report(4, ok, f"5-critical counts n=5..9 {got}")
    assert got == CRITICAL_COUNTS_TO_9


def test_criterion_5_pruning_soundness(enum9):
    results = {}
    for name in H_NAMES:
        off = enumerate_5vc(PATTERNS[name], max_order=9, pruning=False)
        on_set = {canonical_form(g) for g in enum9[name].graphs}
        off_set = {canonical_form(g) for g in off.graphs}
        results[name] = on_set == off_set
    ok = all(results.values())
    _report(5, ok, f"pruned vs unpruned set equality at order 9: {results}")
    assert ok


def test_criterion_6_coloring_exactness(classes_to_8):
    checked = 0
    for n in range(1, 8):
        for g in classes_to_8[n]:
            assert chromatic_number(g) == naive_chromatic(g), f"mismatch on {g!r}"
            checked += 1
    ok = checked == 1 + 2 + 4 + 11 + 34 + 156 + 1044
    _report(6, ok, f"chromatic number equals the naive oracle on {checked} graphs (n<=7)")
    assert ok


def _labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for idx, (i, j) in enumerate(pairs):
            if (mask >> idx) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield Graph(n, rows)


def test_criterion_7_canonical_form_correctness():
    rng = random.Random(20240)
    for _ in range(10000):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.1, 0.25, 0.5, 0.75, 0.9]))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(permuted(g, perm))

    # class counts for n <= 4 derived purely by the backtracking oracle
    for n in range(1, 5):
        reps = []
        for g in _labeled_graphs(n):
            if not any(brute_isomorphic(g, r) for r in reps):
                reps.append(g)
        assert len(reps) == CLASS_COUNTS[n - 1]

    # n = 5, 6: canonical buckets cross-validated by the oracle both ways
    for n in (5, 6):
        buckets: dict[bytes, list[Graph]] = {}
        for g in _labeled_graphs(n):
            buckets.setdefault(canonical_form(g), []).append(g)
        assert len(buckets) == CLASS_COUNTS[n - 1]
        reps = []
        for members in buckets.values():
            rep = members[0]
            for other in members[1:]:
                assert brute_isomorphic(rep, other)
            reps.append(rep)
        for a, b in combinations(reps, 2):
            assert not brute_isomorphic(a, b)
    _report(7, True,
            f"permutation invariance on 10000 pairs; class counts {CLASS_COUNTS} for n=1..6")


def test_criterion_8_certification_round_trip(enum9):
    for name in H_NAMES:
        family = FAMILIES[name]
        critical_list = enum9[name].graphs
        for g in critical_list:
            cert = certify_4_colorability(g, critical_list, family)
            w = cert.witness
            assert w is not None, f"{name}: critical graph certified colorable"
            assert w.vertices == (1 << g.n) - 1
            assert critical_list[w.list_index].n == g.n
            sub_chi = chromatic_number(g)
            assert sub_chi == 5

    rng = random.Random(4242)
    produced = 0
    attempts = 0
    while produced < 1000 and attempts < 200000:
        attempts += 1
        name = H_NAMES[produced % 3]
        family = FAMILIES[name]
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        if not is_family_free(g, family):
            continue
        if is_k_colorable(g, 4) is None:
            continue
        cert = certify_4_colorability(g, enum9[name].graphs, family)
        assert cert.coloring is not None
        assert cert.coloring.colors_used <= 4
        assert cert.coloring.is_proper_for(g)
        produced += 1
    ok = produced == 1000
    _report(8, ok, f"round-trip witnesses for all enumerated graphs; "
                   f"{produced} random colorable certificates")
    assert ok


def test_criterion_9_graph6_fidelity():
    rng = random.Random(77)
    for _ in range(10000):
        g = random_graph(rng, rng.randint(0, 20), rng.random())
        assert decode_graph6(encode_graph6(g)) == g
    fixed = {
        "@": complete(1),
        "A_": complete(2),
        "Dhc": cycle(5),
    }
    for text, graph in fixed.items():
        assert decode_graph6(text) == graph
        assert encode_graph6(graph) == text
    _report(9, True, "10000 round-trips (n<=20) and the fixed encodings @, A_, Dhc")

"""Seeded certify hosts: family-free graphs with a known 4-colorability outcome.

Hosts come from growths.  A growth starts from a random member of the
critical list and adds one family-free vertex at a time up to the largest
host order, and every graph it passes through in the order range is a
host:

* a non-colorable growth starts from the member itself, so that member is
  a guaranteed witness and the certify scan cannot run off the end of the
  list (no ``IncompleteListError``);
* a colorable growth starts from the subgraph induced by a random part of
  the member, which is 4-colorable because the member is 5-vertex-critical.
  A proper 4-coloring, found here by :func:`_four_coloring` rather than by
  critenum so that the hosts do not depend on which valid coloring the
  library under test returns, is kept alongside; every proposed neighbourhood
  misses one colour class entirely and the new vertex joins that class, so
  no extension can break 4-colorability.

A proposal is a uniformly random neighbourhood or a true or false twin of
an existing vertex with up to two adjacencies flipped.  A growth ends at
the first vertex that finds no family-free proposal within
``TRIES_PER_VERTEX`` tries, and at most ``MAX_GROWTHS_PER_HOST`` growths
are tried per host wanted, so set-up time stays bounded.  Keeping every
order a growth passes through makes a host a fraction of a growth's cost,
so a batch can be large enough for a steady p95.  Each host is randomly
relabelled so its base does not sit at vertices 0..m-1.

A colorable host with an isolated vertex certifies several times faster
than one without, so the latency percentiles move with how many of each
kind a seed draws.  A fixed share of each order's colorable hosts,
``ISOLATED_SHARE``, therefore has one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from critenum import (
    Graph,
    add_vertex_with_neighborhood,
    free_after_extension,
    induced_subgraph,
)

TRIES_PER_VERTEX = 20
MAX_GROWTHS_PER_HOST = 20
# Of each order's colorable hosts, the share that has an isolated vertex.
ISOLATED_SHARE = 0.4


@dataclass(frozen=True)
class Host:
    graph: Graph
    colorable: bool  # how the host was built: the certificate it must get


def _propose(rng: random.Random, g: Graph) -> int:
    n = g.n
    r = rng.random()
    if r < 1 / 3:
        return rng.getrandbits(n)
    u = rng.randrange(n)
    s = g.rows[u] | (1 << u if r < 2 / 3 else 0)  # a true or a false twin of u
    for _ in range(rng.randint(0, 2)):
        s ^= 1 << rng.randrange(n)
    return s


def _relabelled(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    rows = [0] * g.n
    for v, r in enumerate(g.rows):
        m = 0
        for w in range(g.n):
            if (r >> w) & 1:
                m |= 1 << perm[w]
        rows[perm[v]] = m
    return Graph(g.n, rows)


def _four_coloring(g: Graph) -> list[int]:
    """The lexicographically first proper 4-coloring of ``g``, by backtracking."""
    colors: list[int] = []

    def extend(v: int) -> bool:
        if v == g.n:
            return True
        for c in range(4):
            if all(colors[u] != c for u in range(v) if (g.rows[v] >> u) & 1):
                colors.append(c)
                if extend(v + 1):
                    return True
                colors.pop()
        return False

    if not extend(0):
        raise ValueError("graph is not 4-colorable")
    return colors


def _growth(rng: random.Random, critical_list: Sequence[Graph], family, colorable: bool,
            min_order: int, max_order: int) -> list[Graph]:
    """Hosts of every order in [min_order, max_order] met while growing one base.

    The growth stops at ``max_order`` or at the first vertex that finds no
    family-free proposal in ``TRIES_PER_VERTEX`` tries; every host it
    passed through of order at least ``min_order`` is kept.
    """
    member = rng.choice(critical_list)
    classes = None
    if colorable:
        g = induced_subgraph(member, rng.getrandbits(member.n - 1) or 1)
        classes = [0, 0, 0, 0]
        for v, c in enumerate(_four_coloring(g)):
            classes[c] |= 1 << v
    else:
        g = member
    out = [g] if g.n >= min_order else []
    while g.n < max_order:
        for _ in range(TRIES_PER_VERTEX):
            s = _propose(rng, g)
            if classes is not None:
                c = rng.randrange(4)
                s &= ~classes[c]
            child = add_vertex_with_neighborhood(g, s)
            if free_after_extension(child, family, g.n):
                if classes is not None:
                    classes[c] |= 1 << g.n
                g = child
                break
        else:
            break
        if g.n >= min_order:
            out.append(g)
    return [_relabelled(rng, h) for h in out]


def _quotas(want: int, orders: range, colorable: bool) -> dict[int, int]:
    """How many hosts of each order: a fixed profile, the same for every seed.

    Colorable growths stall more often the larger they get, so their quota
    falls with order, as 1/(i + 2) for the i-th order (close to what the
    k1,3+p1 growths yield); non-colorable hosts are spread evenly.
    """
    weights = [1 / (i + 2) if colorable else 1.0 for i in range(len(orders))]
    quota = {n: int(want * w / sum(weights)) for n, w in zip(orders, weights)}
    for n in list(orders)[: want - sum(quota.values())]:
        quota[n] += 1
    return quota


def make_hosts(seed: int, critical_list: Sequence[Graph], family, colorable: int,
               non_colorable: int, min_order: int, max_order: int) -> list[Host]:
    """The given numbers of colorable and non-colorable hosts, in a seeded order.

    Each kind is split over the orders by :func:`_quotas`, and colorable
    hosts further by whether they have an isolated vertex, so every seed
    gets the same mix and only the graphs themselves change with the seed.
    Growths continue until every share is filled; a growth's hosts of a
    share that is already full are dropped.
    """
    rng = random.Random(seed)
    orders = range(min_order, max_order + 1)
    hosts = []
    for want, kind in ((colorable, True), (non_colorable, False)):
        def stratum(g: Graph) -> tuple[int, bool]:
            return g.n, kind and 0 in g.rows

        quota = {}
        for n, q in _quotas(want, orders, kind).items():
            isolated = round(q * ISOLATED_SHARE) if kind else 0
            quota[n, True], quota[n, False] = isolated, q - isolated
        for _ in range(MAX_GROWTHS_PER_HOST * want):
            if not any(quota.values()):
                break
            for g in _growth(rng, critical_list, family, kind, min_order, max_order):
                if quota[stratum(g)]:
                    quota[stratum(g)] -= 1
                    hosts.append(Host(g, kind))
        if any(quota.values()):
            raise RuntimeError("host generation exhausted its retries")
    rng.shuffle(hosts)
    return hosts

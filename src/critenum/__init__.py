"""critenum: exhaustive enumeration and certification of vertex-critical graphs.

A bitset-backed toolkit for k-vertex-critical graphs in hereditary classes
defined by forbidden induced subgraphs: exact coloring, canonical labeling,
induced-pattern search, exhaustive level-by-level generation with
criticality-based pruning, and a certifying 4-colorability checker.
"""

from .canon import (
    CanonicalForm,
    are_isomorphic,
    canonical_form,
)
from .certify import (
    Certificate,
    CriticalWitness,
    IncompleteListError,
    NotInClassError,
    certify_4_colorability,
)
from .coloring import Coloring, chromatic_number, clique_number, is_k_colorable
from .critical import (
    CriticalityReport,
    find_xy_obstruction,
    is_k_critical_in_class,
    is_k_vertex_critical,
)
from .enumeration import (
    EnumerationResult,
    SearchConfig,
    enumerate_5vc,
    recursively_enumerate,
    seeds_for,
)
from .graph6 import (
    Graph6Error,
    decode_graph6,
    encode_graph6,
    read_graph6_file,
    write_graph6_file,
)
from .graphs import (
    MAX_ORDER,
    Graph,
    VertexSet,
    add_vertex_with_neighborhood,
    bits,
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
from .patterns import (
    Embedding,
    PatternSyntaxError,
    embedding_is_induced,
    find_induced,
    free_after_extension,
    is_family_free,
    parse_pattern,
)

__version__ = "0.1.0"

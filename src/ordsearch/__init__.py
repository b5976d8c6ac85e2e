"""Graph search on vertex-numbered graphs, traversal predicates and
enumeration oracles, order-type bounds in ordinal arithmetic, and the
finite witness constructions that realize those bounds."""

from .graph import (
    DisconnectedGraphError,
    GraphFormatError,
    NotATraversalError,
    OrderedGraph,
    Traversal,
    deserialize,
    dot_export,
    induced_subgraph,
    is_connected,
    random_connected_graph,
    reach,
    relabel,
    serialize,
)
from .ordinal import Ordinal, OrdinalParseError, cofinality, fundamental_sequence, omega_power, omega_quot_rem, zeta
from .predicates import (
    TraversalSet,
    closure_samples,
    enumerate_traversals,
    is_breadth_first,
    is_depth_first,
    is_traversal,
    level_decomposition,
    verify_colex_max,
    verify_identities,
    verify_lex_min,
    verify_quotient_stability,
    verify_stability,
    verify_subset_stability,
)
from .search import (
    BfsTrace,
    SearchTrace,
    alt_search_with_counts,
    bfs_search,
    deterministic_search,
    least_neighbor_map,
    traversal_tree,
)
from .witness import (
    WitnessBuild,
    build_bfs_tree_witness,
    build_zeta_witness,
    format_manifest,
    verify_witness,
)

__version__ = "0.1.0"

"""Kernel-based structure of trees, forests and unicyclic graphs.

The adjacency kernel of a forest splits the vertices into support, core
and N-vertices; the support is found in linear time as the vertices some
maximum matching misses, and the kernel, computed exactly over the
rationals, checks it.  The independence number and the matching number
then fall out by counting.  Graphs with
exactly one cycle reduce to the forest case through a two-way type split
keyed on whether some cycle vertex is saturated by every maximum
matching of its own pendant tree.  Everything ships with brute-force
oracles and seeded random sweeps that cross-check the closed formulas
instance by instance.
"""

from __future__ import annotations

from .errors import (
    BadChecksumChar,
    DuplicateEdge,
    EmptyGraph,
    MalformedLine,
    NotAForest,
    NotATree,
    NotUnicyclic,
    NullDecompError,
    ParseError,
    SelfLoop,
    TooLarge,
    TruncatedPayload,
    UnknownVertex,
)
from .graphs import (
    CycleInfo,
    Graph,
    PendantTree,
    Role,
    Shape,
    classify_shape,
    connected_components,
    export_dot,
    find_cycle,
    format_edge_list,
    induced_subgraph,
    parse_edge_list,
    parse_graph6,
    pendant_trees,
    remove_vertices,
    two_coloring,
)
from .linalg import (
    NullBasis,
    Rational,
    RationalMatrix,
    adjacency_matrix,
    kernel_basis,
    null_basis,
    nullity,
    rref,
    support,
)
from .oracles import (
    Matching,
    eg_set,
    has_augmenting_path,
    has_perfect_matching,
    max_independent_set,
    max_matching,
    mismatched_in,
    size_limit,
)
from .randgraphs import (
    random_simple_graph,
    random_tree,
    random_unicyclic,
    tree_corpus,
    unicyclic_corpus,
)
from .sweeps import (
    CYCLE_INVARIANTS,
    TREE_INVARIANTS,
    UNICYCLIC_INVARIANTS,
    SweepOutcome,
    check_cycle_instance,
    check_tree_instance,
    check_unicyclic_instance,
    cycle_graph,
    cycle_sweep,
    tree_sweep,
    unicyclic_sweep,
)
from .trees import (
    NullDecomposition,
    decompose,
    independent_set_certificate,
    matching_certificate,
    root_is_matched,
)
from .unicyclic import (
    PartAnalysis,
    TypeVerdict,
    UnicyclicAnalysis,
    analyze,
    classify_type,
)

__version__ = "0.1.0"

__all__ = [
    "BadChecksumChar",
    "CYCLE_INVARIANTS",
    "CycleInfo",
    "DuplicateEdge",
    "EmptyGraph",
    "Graph",
    "MalformedLine",
    "Matching",
    "NotAForest",
    "NotATree",
    "NotUnicyclic",
    "NullBasis",
    "NullDecompError",
    "NullDecomposition",
    "ParseError",
    "PartAnalysis",
    "PendantTree",
    "Rational",
    "RationalMatrix",
    "Role",
    "SelfLoop",
    "Shape",
    "SweepOutcome",
    "TREE_INVARIANTS",
    "TooLarge",
    "TruncatedPayload",
    "TypeVerdict",
    "UNICYCLIC_INVARIANTS",
    "UnicyclicAnalysis",
    "UnknownVertex",
    "adjacency_matrix",
    "analyze",
    "check_cycle_instance",
    "check_tree_instance",
    "check_unicyclic_instance",
    "classify_shape",
    "classify_type",
    "connected_components",
    "cycle_graph",
    "cycle_sweep",
    "decompose",
    "eg_set",
    "export_dot",
    "find_cycle",
    "format_edge_list",
    "has_augmenting_path",
    "has_perfect_matching",
    "independent_set_certificate",
    "induced_subgraph",
    "kernel_basis",
    "matching_certificate",
    "max_independent_set",
    "max_matching",
    "mismatched_in",
    "null_basis",
    "nullity",
    "parse_edge_list",
    "parse_graph6",
    "pendant_trees",
    "random_simple_graph",
    "random_tree",
    "random_unicyclic",
    "remove_vertices",
    "root_is_matched",
    "rref",
    "size_limit",
    "support",
    "tree_corpus",
    "tree_sweep",
    "two_coloring",
    "unicyclic_corpus",
    "unicyclic_sweep",
]

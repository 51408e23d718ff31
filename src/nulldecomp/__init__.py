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
    Role,
    Shape,
    classify_shape,
    export_dot,
    find_cycle,
    format_edge_list,
    parse_edge_list,
    parse_graph6,
)
from .linalg import NullBasis, null_basis
from .oracles import (
    Matching,
    eg_set,
    max_independent_set,
    max_matching,
)
from .randgraphs import (
    random_tree,
    random_unicyclic,
    tree_corpus,
    unicyclic_corpus,
)
from .sweeps import (
    SweepOutcome,
    cycle_sweep,
    tree_sweep,
    unicyclic_sweep,
)
from .trees import (
    NullDecomposition,
    decompose,
    independent_set_certificate,
    matching_certificate,
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
    "CycleInfo",
    "DuplicateEdge",
    "EmptyGraph",
    "Graph",
    "MalformedLine",
    "Matching",
    "NotAForest",
    "NotUnicyclic",
    "NullBasis",
    "NullDecompError",
    "NullDecomposition",
    "ParseError",
    "PartAnalysis",
    "Role",
    "SelfLoop",
    "Shape",
    "SweepOutcome",
    "TooLarge",
    "TruncatedPayload",
    "TypeVerdict",
    "UnicyclicAnalysis",
    "UnknownVertex",
    "analyze",
    "classify_shape",
    "classify_type",
    "cycle_sweep",
    "decompose",
    "eg_set",
    "export_dot",
    "find_cycle",
    "format_edge_list",
    "independent_set_certificate",
    "matching_certificate",
    "max_independent_set",
    "max_matching",
    "null_basis",
    "parse_edge_list",
    "parse_graph6",
    "random_tree",
    "random_unicyclic",
    "tree_corpus",
    "tree_sweep",
    "unicyclic_corpus",
    "unicyclic_sweep",
]

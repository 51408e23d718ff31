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

Each public name, and each submodule, is imported on its first use, so
`nulldecomp analyze` loads the formula path and nothing else.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it exports here.
_EXPORTS = {
    "cli": (),
    "errors": (
        "BadChecksumChar",
        "BadSizeGuard",
        "DuplicateEdge",
        "EmptyGraph",
        "MalformedLine",
        "NotAForest",
        "NotUnicyclic",
        "NullDecompError",
        "ParseError",
        "SelfLoop",
        "TooLarge",
        "TruncatedPayload",
        "UnknownVertex",
    ),
    "fixtures": (),
    "graphs": (
        "CycleInfo",
        "Graph",
        "Role",
        "Shape",
        "classify_shape",
        "export_dot",
        "find_cycle",
        "format_edge_list",
        "parse_edge_list",
        "parse_graph6",
    ),
    "linalg": ("NullBasis", "null_basis"),
    "oracles": ("Matching", "eg_set", "max_independent_set", "max_matching"),
    "randgraphs": ("random_tree", "random_unicyclic", "tree_corpus", "unicyclic_corpus"),
    "sweeps": ("SweepOutcome", "cycle_sweep", "tree_sweep", "unicyclic_sweep"),
    "trees": (
        "NullDecomposition",
        "decompose",
        "independent_set_certificate",
        "matching_certificate",
    ),
    "unicyclic": (
        "PartAnalysis",
        "TypeVerdict",
        "UnicyclicAnalysis",
        "analyze",
        "classify_type",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import a submodule, or the module that exports name, on first use."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})

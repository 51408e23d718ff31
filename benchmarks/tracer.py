"""Span tracer that measures nulldecomp's layers from outside the package.

Every public function of a layer module is wrapped, and the wrapper is
put in place in every nulldecomp module namespace that holds the
function.  A module that did `from .linalg import support` keeps its own
reference, so patching `nulldecomp.linalg` alone would miss its calls;
calls that go through a module's globals, such as `kernel_basis` calling
`rref`, are caught by the patch of that module.

Each call records a span (name, start, end, parent).  A span's self time
is its duration minus the time its child spans cover.  The spans stay in
memory until `fold` adds them to the per-function totals.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "graphs", "linalg", "trees", "unicyclic", "oracles", "sweeps", "randgraphs")

# Metric group -> the traced functions it sums over.  A group named
# after its layer alone ("cli.main") covers every function of the layer.
GROUPS = {
    "cli.main": ("cli.*",),
    "graphs.parse": ("graphs.parse_edge_list", "graphs.parse_graph6"),
    "graphs.classify_shape": ("graphs.classify_shape",),
    "graphs.find_cycle": ("graphs.find_cycle",),
    "graphs.pendant_trees": ("graphs.pendant_trees",),
    "graphs.subgraph": (
        "graphs.induced_subgraph",
        "graphs.remove_vertices",
        "graphs.connected_components",
    ),
    "linalg.rref": ("linalg.rref",),
    "linalg.null_basis": ("linalg.null_basis",),
    "linalg.support": ("linalg.support",),
    "linalg.nullity": ("linalg.nullity",),
    "trees.decompose": ("trees.decompose",),
    "trees.root_is_matched": ("trees.root_is_matched",),
    "trees.certificates": ("trees.independent_set_certificate", "trees.matching_certificate"),
    "unicyclic.analyze": ("unicyclic.analyze",),
    "oracles.max_independent_set": ("oracles.max_independent_set",),
    "oracles.max_matching": ("oracles.max_matching",),
    "oracles.has_augmenting_path": ("oracles.has_augmenting_path",),
    "oracles.has_perfect_matching": ("oracles.has_perfect_matching",),
    "oracles.eg_set": ("oracles.eg_set",),
    "oracles.mismatched_in": ("oracles.mismatched_in",),
    "sweeps.check": ("sweeps.check_tree_instance", "sweeps.check_unicyclic_instance"),
    "sweeps.kernel_vectors_exact": ("sweeps.kernel_vectors_exact",),
}


class Tracer:
    """Wraps the layers of an imported nulldecomp; off until `install`."""

    def __init__(self):
        self.spans = []
        self.per_function = defaultdict(lambda: [0, 0])
        self._stack = []
        self.rref_cells = 0
        self.rref_max_n = 0
        self.decompose_distinct = 0
        self._decomposed = set()
        self._patches = []
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"nulldecomp.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for name, mod in list(sys.modules.items()):
            if name != "nulldecomp" and not name.startswith("nulldecomp."):
                continue
            for attr, obj in vars(mod).items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj, hit[1]))

    def _note_rref(self, m, *args, **kwargs):
        self.rref_cells += m.rows * m.cols
        self.rref_max_n = max(self.rref_max_n, m.rows, m.cols)

    def _note_decompose(self, t, *args, **kwargs):
        if t not in self._decomposed:
            self._decomposed.add(t)
            self.decompose_distinct += 1

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        note = {"linalg.rref": self._note_rref, "trees.decompose": self._note_decompose}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                note(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def begin_call(self):
        """Start a new top-level call: distinct decompose inputs count per call."""
        self._decomposed.clear()

    def fold(self):
        """Add the spans so far to per_function {name: [calls, self_ns]}, and clear them."""
        child = defaultdict(int)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, _) in enumerate(self.spans):
            row = self.per_function[name]
            row[0] += 1
            row[1] += end - start - child[idx]
        self.spans.clear()

    def group_totals(self):
        """{group: (calls, self_ns)} over GROUPS."""
        totals = {}
        for group, members in GROUPS.items():
            calls = self_ns = 0
            for name, (c, s) in self.per_function.items():
                layer = name.split(".", 1)[0]
                if name in members or f"{layer}.*" in members:
                    calls += c
                    self_ns += s
            totals[group] = (calls, self_ns)
        return totals

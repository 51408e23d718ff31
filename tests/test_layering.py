"""The formula path stays apart from the oracles, and the package's
public surface holds only what some caller uses.

trees and unicyclic compute every count, verdict and certificate on
forests in the graph's own ids; the exact kernel (linalg) and the
brute-force oracles belong to the checks, and no module builds a
relabelled subgraph (the tests keep their own in refgraphs).  cli
reaches the checks only through sweeps, which holds each of them once.
Every public top-level function or class is exported, used by some
module of the package or named by the benchmark, so nothing is kept
for the tests alone.  No module keeps state between calls in a module
global, and none imports dataclasses.
"""

import ast
import re
from pathlib import Path

import pytest

import nulldecomp

SRC = Path(nulldecomp.__file__).parent
BENCHMARK = Path(__file__).resolve().parent.parent / "benchmarks" / "run.py"
ORACLE_MODULES = {"linalg", "oracles"}


def imports(module):
    """(module, name) for every import in a package module's source."""
    out = []
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rsplit(".", 1)[-1]
            out.extend((source, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.extend((alias.name.rsplit(".", 1)[-1], None) for alias in node.names)
    return out


@pytest.mark.parametrize("module", ["trees", "unicyclic"])
def test_formula_path_imports_no_oracle_and_no_subgraph_builder(module):
    found = imports(module)
    assert found  # the parse saw the imports at all
    for source, name in found:
        assert source not in ORACLE_MODULES, (module, source, name)
        assert name not in ORACLE_MODULES, (module, source, name)


def names_used(node):
    """Every name node reads: variables, attributes and imported names."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def test_every_public_name_has_a_caller():
    # A public function or class that no module, export or benchmark
    # names serves only the tests, which keep such helpers themselves.
    trees = {path: ast.parse(path.read_text()) for path in SRC.rglob("*.py")}
    benchmark = BENCHMARK.read_text()
    orphans = []
    for path, tree in trees.items():
        elsewhere = set()
        for other, other_tree in trees.items():
            if other != path:
                elsewhere |= names_used(other_tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in nulldecomp.__all__:
                continue
            own = set().union(*(names_used(n) for n in tree.body if n is not node))
            if node.name in elsewhere | own:
                continue
            if re.search(rf"\b{node.name}\b", benchmark) is None:
                orphans.append(f"{path.relative_to(SRC).as_posix()}: {node.name}")
    assert not orphans


def test_cli_reaches_the_checks_only_through_sweeps():
    found = imports("cli")
    assert ("oracles", "size_limit") in found
    for source, name in found:
        assert source != "linalg" and name != "linalg", (source, name)
        assert source != "oracles" or name == "size_limit", (source, name)
        assert name != "oracles", (source, name)


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: p.relative_to(SRC).as_posix()
)
def test_no_module_imports_dataclasses(path):
    # A dataclass is built at import, which every command would pay for;
    # the records are named tuples.
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "dataclasses", node.lineno
        elif isinstance(node, ast.Import):
            assert "dataclasses" not in {a.name for a in node.names}, node.lineno


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: p.relative_to(SRC).as_posix()
)
def test_no_module_rebinds_a_global(path):
    # A global statement is how an identity cache keeps the last graph
    # alive and makes a call's cost depend on the calls before it.
    tree = ast.parse(path.read_text())
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]

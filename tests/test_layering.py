"""The formula path stays apart from the oracles and from relabeled subgraphs.

trees and unicyclic compute every count, verdict and certificate on
forests in the graph's own ids; the exact kernel (linalg), the
brute-force oracles and the subgraph builders belong to the checks.
cli reaches the checks only through sweeps, which holds each of them once.
No module keeps state between calls in a module global.
"""

import ast
from pathlib import Path

import pytest

import nulldecomp

SRC = Path(nulldecomp.__file__).parent
ORACLE_MODULES = {"linalg", "oracles"}
SUBGRAPH_BUILDERS = {
    "induced_subgraph",
    "remove_vertices",
    "connected_components",
    "pendant_trees",
}


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
        assert name not in SUBGRAPH_BUILDERS, (module, source, name)


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
def test_no_module_rebinds_a_global(path):
    # A global statement is how an identity cache keeps the last graph
    # alive and makes a call's cost depend on the calls before it.
    tree = ast.parse(path.read_text())
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]

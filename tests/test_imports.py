"""What a fresh interpreter loads: `nulldecomp analyze` imports only the
formula path, --verify still loads every check, and the package
resolves its public names and submodules on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nulldecomp

SRC = Path(nulldecomp.__file__).resolve().parent.parent
FIXTURE = str(Path(nulldecomp.__file__).resolve().parent / "fixtures" / "fig1_T1.edges")
CHECK_MODULES = {"nulldecomp.sweeps", "nulldecomp.oracles", "nulldecomp.linalg"}
NOT_ON_THE_FORMULA_PATH = CHECK_MODULES | {
    "dataclasses",
    "importlib.resources",
    "random",
    "nulldecomp.fixtures",
    "nulldecomp.randgraphs",
}


def fresh(code, *args):
    """What code prints as JSON, run in a new interpreter without site
    packages, so only the package and the standard library load."""
    env = {k: v for k, v in os.environ.items() if k != "NULLDECOMP_MAX_N"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    return json.loads(done.stdout)


def modules_after_main(*argv):
    """The exit code of cli.main(argv) and the modules loaded after it."""
    run = """
import contextlib, io, json, sys
from nulldecomp import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""
    code, modules = fresh(run, *argv)
    return code, set(modules)


def test_analyze_loads_only_the_formula_path():
    code, modules = modules_after_main("analyze", FIXTURE)
    assert code == 0
    assert {m for m in modules if m.startswith("nulldecomp")} == {
        "nulldecomp",
        "nulldecomp.cli",
        "nulldecomp.errors",
        "nulldecomp.graphs",
        "nulldecomp.trees",
        "nulldecomp.unicyclic",
    }
    assert not modules & NOT_ON_THE_FORMULA_PATH


def test_analyze_verify_loads_every_check():
    code, modules = modules_after_main("analyze", "--verify", FIXTURE)
    assert code == 0
    assert CHECK_MODULES <= modules


def test_submodules_resolve_as_attributes_on_first_use():
    # benchmarks/run.py reads these off the package before anything
    # imports them.
    code = """
import json, sys, types
import nulldecomp
before = sorted(m for m in sys.modules if m.startswith("nulldecomp."))
found = [isinstance(nulldecomp.randgraphs, types.ModuleType), nulldecomp.sweeps.__name__]
print(json.dumps([before, found]))
"""
    before, found = fresh(code)
    assert before == []
    assert found == [True, "nulldecomp.sweeps"]


def test_every_public_name_resolves_and_star_binds_exactly_all():
    code = """
import json
import nulldecomp
missing = [name for name in nulldecomp.__all__ if getattr(nulldecomp, name, None) is None]
bound = {}
exec("from nulldecomp import *", bound)
bound.pop("__builtins__")
print(json.dumps([missing, sorted(bound), sorted(nulldecomp.__all__)]))
"""
    missing, bound, everything = fresh(code)
    assert missing == []
    assert bound == everything


def test_dir_covers_all_and_the_submodules():
    code = "import json, nulldecomp; print(json.dumps(dir(nulldecomp)))"
    listed = set(fresh(code))
    assert set(nulldecomp.__all__) <= listed
    assert {"cli", "fixtures", "sweeps", "randgraphs"} <= listed


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nulldecomp.no_such_name


def test_fixtures_reads_its_files_without_the_resource_reader():
    # importlib.resources would import tempfile and zipfile to read a
    # file that lies next to the package's __init__.py.
    code, modules = modules_after_main("fixtures")
    assert code == 0
    assert not modules & {"importlib.resources", "tempfile", "zipfile"}

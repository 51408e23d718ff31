"""Byte-for-byte golden outputs of the command line.

For every case below, tests/golden holds what `nulldecomp` wrote when the
files were frozen: <case>.out is stdout and <case>.err is stderr (each
absent when empty), and <case>.dot is the file `analyze --dot` wrote.
The inputs are the nine bundled fixtures and three seeded edge lists
with n = 300 kept next to the outputs: a forest, a type I and a type II
unicyclic graph.  Past the oracle size guard, `analyze --verify` on the
seeded inputs is one of the error paths.  The seeded inputs are also
encoded as graph6 (by networkx, in the test), and `analyze --format g6`
must print the edge list's report.

Run `PYTHONPATH=src python tests/test_golden.py` to rewrite the files,
and only when an output change is intended.
"""

import contextlib
import io
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from nulldecomp.cli import main
from nulldecomp.fixtures import expectations
from nulldecomp.graphs import parse_edge_list

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = resources.files("nulldecomp.fixtures")
SEEDED = ("forest_300", "unicyclic_I_300", "unicyclic_II_300")
INPUTS = {name: str(FIXTURES / e["file"]) for name, e in expectations().items()}
INPUTS.update((name, str(GOLDEN / f"{name}.edges")) for name in SEEDED)


def _cases():
    """{case: (argv, stdin text or None, NULLDECOMP_MAX_N or None, exit code)}."""
    cases = {}
    for name, path in sorted(INPUTS.items()):
        cases[name] = (["analyze", path, "--dot", "g.dot"], None, None, 0)
        verify_code = 3 if name in SEEDED else 0
        cases[f"{name}.verify"] = (["analyze", "--verify", path], None, None, verify_code)
    cases["fixtures.verbose"] = (["fixtures", "--verbose"], None, None, 0)
    for kind in ("tree", "unicyclic"):
        for seed in range(6):
            argv = ["verify", "--kind", kind, "--seed", str(seed)]
            cases[f"verify.{kind}.{seed}"] = (argv, None, None, 0)
    cases["verify.cycle"] = (["verify", "--kind", "cycle"], None, None, 0)
    errors = {
        "parse": (["analyze"], "0 1\n1 x\n", None, 2),
        "self_loop": (["analyze"], "0 0\n", None, 2),
        "duplicate_labels": (["analyze"], "labels=a,a,b\n0 1\n1 2\n", None, 2),
        "repeated_header": (["analyze"], "n=2\nn=3\n0 1\n", None, 2),
        "huge_header": (["analyze"], "n=100000000\n0 1\n", None, 2),
        "long_numeral": (["analyze"], "0 1\n1 " + "9" * 5000 + "\n", None, 2),
        "bad_graph6": (["analyze", "--format", "g6"], "C~~\n", None, 2),
        "multi_line_graph6": (["analyze", "--format", "g6"], "Bw\nBw\n", None, 2),
        "missing_file": (["analyze", "no/such/file.edges"], None, None, 2),
        "non_utf8": (["analyze", "bad.edges"], None, None, 2),
        "unwritable_dot": (["analyze", "--dot", "no/such/g.dot"], "0 1\n", None, 2),
        "bad_size_guard": (["analyze", "--verify"], "0 1\n", "abc", 2),
        "empty": (["analyze"], "n=0\n", None, 3),
        "unsupported_shape": (["analyze", "--format", "g6"], "C~\n", None, 3),
        "verify_bad_size_guard": (["verify", "--kind", "tree"], None, "abc", 2),
        "verify_past_guard": (["verify", "--kind", "tree", "--max-n", "40"], None, None, 3),
        "verify_bad_range": (["verify", "--kind", "unicyclic", "--min-n", "2"], None, None, 2),
        "verify_bad_int": (["verify", "--kind", "tree", "--min-n", "1_0"], None, None, 2),
        # one digit past int()'s default limit: named by length, not echoed
        "verify_long_numeral": (["verify", "--kind", "tree", "--count", "9" * 4301], None, None, 2),
        "verify_long_size_guard": (["verify", "--kind", "tree"], None, "9" * 4301, 2),
        "fixtures_bad_size_guard": (["fixtures"], None, "abc", 2),
        "fixtures_past_guard": (["fixtures"], None, "3", 3),
    }
    cases.update((f"error.{k}", v) for k, v in errors.items())
    return cases


CASES = _cases()


def run_case(argv, stdin, max_n, workdir):
    """(exit code, stdout, stderr, DOT text or None) of one in-process run in workdir."""
    out, err = io.StringIO(), io.StringIO()
    # COLUMNS fixes where argparse wraps a usage line, whatever the terminal.
    env = {"NULLDECOMP_MAX_N": max_n, "COLUMNS": "80"}
    saved = os.getcwd(), sys.stdin, {k: os.environ.get(k) for k in env}
    os.chdir(workdir)
    (Path(workdir) / "bad.edges").write_bytes(b"0 1\n\xff\n")
    sys.stdin = io.StringIO(stdin or "")
    _set_env(env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        dot = Path(workdir) / "g.dot"
        dot_text = dot.read_text(encoding="utf-8") if dot.exists() else None
        return code, out.getvalue(), err.getvalue(), dot_text
    finally:
        os.chdir(saved[0])
        sys.stdin = saved[1]
        _set_env(saved[2])


def _set_env(values):
    """Set each variable to its value, or unset it where the value is None."""
    for key, value in values.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


def _golden(case, suffix):
    path = GOLDEN / f"{case}.{suffix}"
    return path.read_text(encoding="utf-8") if path.exists() else None


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, tmp_path):
    argv, stdin, max_n, want_code = CASES[case]
    code, out, err, dot = run_case(argv, stdin, max_n, tmp_path)
    assert code == want_code
    assert out == (_golden(case, "out") or "")
    assert err == (_golden(case, "err") or "")
    assert dot == _golden(case, "dot")


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_plain_analyze_prints_the_dot_runs_report(name, tmp_path):
    code, out, err, dot = run_case(["analyze", INPUTS[name]], None, None, tmp_path)
    assert (code, err, dot) == (0, "", None)
    assert out == _golden(name, "out")


@pytest.mark.parametrize("name", SEEDED)
def test_graph6_input_prints_the_edge_list_report(name, tmp_path):
    nx = pytest.importorskip("networkx")
    g = parse_edge_list((GOLDEN / f"{name}.edges").read_text(encoding="utf-8"))
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    line = nx.to_graph6_bytes(h, header=False).decode("ascii")
    argv = ["analyze", "--format", "g6"]
    code, out, err, dot = run_case(argv, line, None, tmp_path)
    assert (code, err, dot) == (0, "", None)
    assert out == _golden(name, "out")


def regenerate():
    for stale in GOLDEN.glob("*"):
        if stale.suffix in (".out", ".err", ".dot"):
            stale.unlink()
    for case, (argv, stdin, max_n, want_code) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as workdir:
            code, out, err, dot = run_case(argv, stdin, max_n, workdir)
        if code != want_code:
            raise SystemExit(f"{case}: exit {code}, the table says {want_code}")
        for suffix, text in (("out", out), ("err", err), ("dot", dot)):
            if text:
                (GOLDEN / f"{case}.{suffix}").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()

"""Command line behavior: reports, exit codes, determinism."""

import argparse
import errno
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import nulldecomp.cli
import nulldecomp.graphs
import nulldecomp.linalg
import nulldecomp.sweeps
import nulldecomp.trees
import nulldecomp.unicyclic
from nulldecomp import (
    BadSizeGuard,
    Graph,
    NullDecompError,
    Shape,
    analyze,
    classify_shape,
    decompose,
    format_edge_list,
    independent_set_certificate,
    matching_certificate,
    random_tree,
    random_unicyclic,
    unicyclic_corpus,
)
from nulldecomp.cli import main
from nulldecomp.graphs import Role, _certificate_fault
from nulldecomp.oracles import size_limit
from nulldecomp.sweeps import (
    TREE_INVARIANTS,
    UNICYCLIC_INVARIANTS,
    _tree_checks,
    _unicyclic_checks,
)

FIG3 = str(resources.files("nulldecomp.fixtures") / "fig3.edges")
FIG1 = str(resources.files("nulldecomp.fixtures") / "fig1_T1.edges")
FIG6 = str(resources.files("nulldecomp.fixtures") / "fig6.edges")
GOLDEN = Path(__file__).parent / "golden"


def graph6_line(g):
    """g in graph6, written from its definition: the size header, then bit
    j(j-1)/2 + i for each edge (i, j), i < j, six bits a byte, plus 63."""
    n = g.n
    bits = bytearray((n * (n - 1) // 2 + 5) // 6)
    for i, j in g.edges:
        k = j * (j - 1) // 2 + i
        bits[k // 6] |= 32 >> k % 6
    head = [n] if n < 63 else [63, n >> 12, n >> 6 & 63, n & 63]
    return "".join(chr(63 + b) for b in [*head, *bits]) + "\n"


def set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_tree_report(self, capsys):
        code, out, err = run(capsys, "analyze", FIG1)
        assert code == 0 and not err
        report = json.loads(out)
        assert report["shape"] == "tree"
        assert report["alpha"] == 4 and report["nu"] == 2
        assert report["supp"] == ["v2", "v3", "v4"]
        assert report["singular"] is True

    def test_unicyclic_report(self, capsys):
        code, out, _ = run(capsys, "analyze", FIG3)
        assert code == 0
        report = json.loads(out)
        assert report["type"] == "I" and report["witness"] == "v"
        assert report["cycle"] == ["v", "u", "c", "w"]
        assert report["nullity"] == 5
        assert len(report["independent_set"]) == report["alpha"] == 9
        assert len(report["matching"]) == report["nu"] == 4

    def test_verify_flag_adds_passing_checks(self, capsys):
        code, out, _ = run(capsys, "analyze", "--verify", FIG3)
        assert code == 0
        report = json.loads(out)
        assert report["verification"] == dict.fromkeys(UNICYCLIC_INVARIANTS, True)

    def test_output_is_byte_deterministic(self, capsys):
        _, first, _ = run(capsys, "analyze", FIG3)
        _, second, _ = run(capsys, "analyze", FIG3)
        assert first == second

    def test_stdin_default(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n"))
        code, out, _ = run(capsys, "analyze")
        assert code == 0
        assert json.loads(out)["shape"] == "tree"

    def test_graph6_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
        code, out, _ = run(capsys, "analyze", "--format", "g6")
        assert code == 0
        report = json.loads(out)
        assert report["shape"] == "cycle" and report["type"] == "II"

    def test_dot_output(self, capsys, tmp_path):
        target = tmp_path / "g.dot"
        code, _, _ = run(capsys, "analyze", FIG1, "--dot", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith("graph nulldecomp {")
        assert "shape=box" in text  # support vertices present

    def test_forest_report_decomposes_once(self, capsys, monkeypatch):
        calls = []
        eliminate = nulldecomp.linalg._eliminate

        def counted(work, cols):
            calls.append(len(work))
            return eliminate(work, cols)

        monkeypatch.setattr(nulldecomp.linalg, "_eliminate", counted)
        code, _, _ = run(capsys, "analyze", FIG1)
        assert code == 0
        assert calls == []  # the matching DP needs no elimination

    @pytest.mark.parametrize(
        "edges, n, kind, walks",
        [
            ([(0, 1), (1, 2), (3, 4)], 5, "forest", 1),
            ([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)], 6, "II", 1),
            ([(i, (i + 1) % 7) for i in range(7)], 7, "II", 1),
            ([(0, 1), (1, 2), (2, 0), (0, 3)], 4, "I", 1),
        ],
    )
    def test_analyze_walks_each_graph_once(
        self, capsys, monkeypatch, tmp_path, edges, n, kind, walks
    ):
        # One walk of G, kept by G, serves the shape, the cycle and, for a
        # forest, the whole forest analysis; for a unicyclic graph the same
        # walk, re-rooted at the cycle, serves the type, the DP of the
        # forest either type splits off and its pieces.  No forest is
        # walked.  A later classify_type or unicyclic.analyze of G reads
        # G's walk; on an equal Graph each walks it once.
        searched = []
        search = nulldecomp.graphs._search

        def counted(g):
            if g._walk is None:
                searched.append(g)
            return search(g)

        # Wherever the name was imported.
        for module in (nulldecomp.graphs, nulldecomp.trees, nulldecomp.unicyclic):
            monkeypatch.setattr(module, "_search", counted)
        path = tmp_path / "g.edges"
        path.write_text(format_edge_list(Graph(n, edges)))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert json.loads(out).get("type", "forest") == kind
        assert len(searched) == walks
        assert all(g is searched[0] for g in searched)
        assert searched[0].n == n
        if kind != "forest":
            g = searched[0]
            for analysis in (nulldecomp.classify_type, nulldecomp.unicyclic.analyze):
                searched.clear()
                assert analysis(g).kind == kind
                assert searched == []
                h = Graph(g.n, sorted(g.edges))
                assert analysis(h).kind == kind
                assert len(searched) == 1 and searched[0] is h

    def test_role_map_is_built_only_for_dot(self, capsys, monkeypatch, tmp_path):
        # The map comes off the role array the analysis wrote, and only
        # for the DOT file: every vertex of the forest has its role, and
        # a type II cycle vertex, which has none, is drawn plain.
        calls = []
        export_dot = nulldecomp.cli.export_dot

        def counted(g, roles):
            calls.append(roles)
            return export_dot(g, roles)

        monkeypatch.setattr(nulldecomp.cli, "export_dot", counted)
        for path in (FIG1, FIG3):
            assert run(capsys, "analyze", path)[0] == 0
        assert calls == []
        paths = (FIG1, FIG3, str(resources.files("nulldecomp.fixtures") / "fig4.edges"))
        for path in paths:
            code, out, _ = run(capsys, "analyze", path, "--dot", str(tmp_path / "g.dot"))
            assert code == 0
            report = json.loads(out)
            pieces = report.get("parts", [report])
            roles = {"supp": Role.SUPPORT, "core": Role.CORE, "n_vertices": Role.N_VERTEX}
            want = {v: role for key, role in roles.items() for p in pieces for v in p[key]}
            got = calls.pop()
            g = nulldecomp.graphs.parse_edge_list(Path(path).read_text())
            assert {g.name_of(v): r for v, r in got.items() if r != Role.PLAIN} == want
        assert calls == []

    @pytest.mark.parametrize("n", [5, 8])
    def test_dot_draws_a_pure_cycle_plain(self, capsys, tmp_path, n):
        # A pure cycle has no part, so no vertex has a role to draw.
        path = tmp_path / "c.edges"
        path.write_text(format_edge_list(Graph(n, [(i, (i + 1) % n) for i in range(n)])))
        target = tmp_path / "c.dot"
        code, out, err = run(capsys, "analyze", str(path), "--dot", str(target))
        assert code == 0 and not err
        assert (0, out, "") == run(capsys, "analyze", str(path))
        assert json.loads(out)["parts"] == []
        nodes = [line for line in target.read_text().splitlines() if line.endswith("];")]
        assert nodes[0] == "  node [shape=circle];"
        assert nodes[1:] == [f'  {v} [label="{v}"];' for v in range(n)]

    def test_forest_verify_checks_the_kernel(self, capsys):
        code, out, _ = run(capsys, "analyze", "--verify", FIG1)
        assert code == 0
        checks = json.loads(out)["verification"]
        assert checks == dict.fromkeys(TREE_INVARIANTS, True)
        assert "support equals kernel support" in checks
        assert "nullity equals kernel nullity" in checks
        assert "certificates valid and sized" in checks

    @pytest.mark.parametrize(
        "path, unicyclic_analyses, forest_analyses", [(FIG1, 0, 1), (FIG6, 1, 0)]
    )
    def test_verify_checks_the_analysis_it_printed(
        self, capsys, monkeypatch, path, unicyclic_analyses, forest_analyses
    ):
        # Each analysis runs once, and the checks take the one printed: a
        # forest's decomposition is the one its analysis makes, and either
        # shape makes it in one top-down pass.
        calls = []
        analyses = {
            "forest": nulldecomp.trees._analyze,
            "unicyclic": nulldecomp.unicyclic.analyze,
            "top-down pass": nulldecomp.trees._decomposition,
        }
        for kind, real in analyses.items():

            def counted(*args, kind=kind, real=real):
                calls.append(kind)
                return real(*args)

            # Wherever the function is held, under whatever name.
            for module in (nulldecomp.cli, nulldecomp.sweeps, nulldecomp.trees):
                for name, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, name, counted)
        code, out, _ = run(capsys, "analyze", "--verify", path)
        assert code == 0 and all(json.loads(out)["verification"].values())
        assert calls.count("unicyclic") == unicyclic_analyses
        assert calls.count("forest") == forest_analyses
        assert calls.count("top-down pass") == 1

    def test_forest_verify_builds_each_certificate_once(self, capsys, monkeypatch):
        # The forest analysis builds both; the checks take the printed ones.
        calls = []
        for name in ("_independent_set", "_matching"):
            real = getattr(nulldecomp.trees, name)

            def counted(*args, real=real):
                calls.append(real.__name__)
                return real(*args)

            monkeypatch.setattr(nulldecomp.trees, name, counted)
        code, out, _ = run(capsys, "analyze", "--verify", FIG1)
        assert code == 0 and all(json.loads(out)["verification"].values())
        assert sorted(calls) == ["_independent_set", "_matching"]

    def test_failed_check_exits_1_with_the_report(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "nulldecomp.sweeps._grow", lambda g: ([-1] * g.n, frozenset())
        )
        code, out, err = run(capsys, "analyze", "--verify", FIG1)
        assert code == 1 and not err
        report = json.loads(out)
        assert report["alpha"] == 4
        assert report["verification"]["nu formula vs oracle"] is False

    def test_unwritable_dot_path_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "g.dot"
        code, out, err = run(capsys, "analyze", FIG1, "--dot", str(target))
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_duplicate_labels_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("labels=a,a,b\n0 1\n1 2\n"))
        code, out, err = run(capsys, "analyze")
        assert code == 2 and not out
        assert "duplicate vertex name" in err

    def test_repeated_header_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("n=2\nn=3\n0 1\n"))
        code, out, err = run(capsys, "analyze")
        assert code == 2 and not out
        assert err == "error: line 2: repeated n= header\n"

    def test_non_utf8_input_exits_2(self, capsys, tmp_path):
        target = tmp_path / "g.edges"
        target.write_bytes(b"0 1\n\xff\n")
        code, out, err = run(capsys, "analyze", str(target))
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_integer_size_guard_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("NULLDECOMP_MAX_N", "abc")
        code, out, err = run(capsys, "analyze", "--verify", FIG1)
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "NULLDECOMP_MAX_N" in err

    def test_parse_error_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n"))
        code, out, err = run(capsys, "analyze")
        assert code == 2 and not out
        assert "self-loop" in err

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("0 1\n1 {}\n", 2),  # the "u v" pattern
            ("0 1\n-0\t{}\n", 2),  # the token route
            ("# big\nn={}\n0 1\n", 2),  # the n= header
        ],
    )
    def test_numeral_past_the_int_digit_limit_exits_2(self, capsys, monkeypatch, text, lineno):
        digits = sys.get_int_max_str_digits() + 1
        monkeypatch.setattr("sys.stdin", io.StringIO(text.format("9" * digits)))
        code, out, err = run(capsys, "analyze")
        assert code == 2 and not out
        assert err == f"error: line {lineno}: numeral longer than {digits - 1} digits\n"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "no/such/file.edges")
        assert code == 2 and "error" in err

    def test_unsupported_shape_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("C~\n"))  # complete graph on 4
        code, _, err = run(capsys, "analyze", "--format", "g6")
        assert code == 3 and "one cycle" in err

    def test_graph6_past_n_edges_exits_3_with_the_shape_line(self, capsys, monkeypatch):
        # The decode stops past n edges; the error is the one a full
        # decode's shape check gives.
        bowtie = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        for line in ("C~\n", "D~{\n", graph6_line(bowtie)):
            g = nulldecomp.graphs.parse_graph6(line)
            assert g.m > g.n and classify_shape(g) == Shape.OTHER
            monkeypatch.setattr("sys.stdin", io.StringIO(line))
            code, out, err = run(capsys, "analyze", "--format", "g6")
            assert (code, out) == (3, "")
            assert err == "error: only forests and graphs with exactly one cycle are supported\n"

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "argv, text, want",
        [
            (["analyze"], "0 1\n1 2\n", 0),
            (["analyze", "--format", "g6"], "Bw\n", 0),
            (["analyze"], "0 0\n", 2),
            (["analyze", "--format", "g6"], "C~\n", 3),
            (["analyze"], "0 1\n1 2\n2 0\n0 3\n3 1\n", 3),
        ],
        ids=["tree", "cycle", "parse-error", "graph6-past-n-edges", "two-cycles"],
    )
    def test_leaves_the_collector_as_it_found_it(self, capsys, monkeypatch, enabled, argv, text, want):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        before = gc.isenabled()
        set_collector(enabled)
        try:
            code, _, _ = run(capsys, *argv)
            after = gc.isenabled()
        finally:
            set_collector(before)
        assert (code, after) == (want, enabled)

    def test_the_collector_is_paused_from_the_parse_to_the_report(self, monkeypatch):
        seen = []

        def spied(name, fn):
            def spy(*args):
                seen.append((name, gc.isenabled()))
                return fn(*args)

            return spy

        class Out(io.StringIO):
            def writelines(self, lines):
                seen.append(("writelines", gc.isenabled()))
                super().writelines(lines)

        for name in ("parse_edge_list", "_analyze_unicyclic", "_unicyclic_fields"):
            monkeypatch.setattr(nulldecomp.cli, name, spied(name, getattr(nulldecomp.cli, name)))
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n2 0\n2 3\n"))
        monkeypatch.setattr("sys.stdout", Out())
        assert gc.isenabled()
        assert main(["analyze"]) == 0
        assert gc.isenabled()
        assert seen == [
            ("parse_edge_list", False),
            ("_analyze_unicyclic", False),
            ("_unicyclic_fields", False),
            ("writelines", False),
        ]

    @pytest.mark.parametrize("fmt", ["edges", "g6"])
    def test_analyze_reads_the_edge_count_not_the_edge_set(self, capsys, monkeypatch, fmt):
        def unread(g):
            raise AssertionError("analyze read Graph.edges")

        write = format_edge_list if fmt == "edges" else graph6_line
        cases = [
            (write(g), g.m)
            for g in (random_tree(200, random.Random(5)), random_unicyclic(200, random.Random(5)))
        ]
        monkeypatch.setattr(nulldecomp.graphs.Graph, "edges", property(unread))
        for text, m in cases:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code, out, _ = run(capsys, "analyze", "--format", fmt)
            assert code == 0 and json.loads(out)["edge_count"] == m

    def test_empty_graph_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("n=0\n"))
        code, _, err = run(capsys, "analyze")
        assert code == 3

    def test_out_of_memory_exits_3_with_one_line(self, capsys, monkeypatch):
        # A hostile graph6 header can ask for more memory than the process
        # may take; that is unsupported input, not a failed check.
        def exhausted(text, **budget):
            raise MemoryError

        monkeypatch.setattr(nulldecomp.cli, "parse_graph6", exhausted)
        monkeypatch.setattr("sys.stdin", io.StringIO("C~\n"))
        code, out, err = run(capsys, "analyze", "--format", "g6")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_out_of_memory_mid_report_exits_3_after_a_prefix(self, capsys, monkeypatch):
        # The report is written as it is made, so memory that runs out
        # past its first piece leaves the part already written.
        _, full, _ = run(capsys, "analyze", FIG3)

        class Out(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes == 2:
                    raise MemoryError
                return super().write(text)

        stub = Out()
        monkeypatch.setattr("sys.stdout", stub)
        code, _, err = run(capsys, "analyze", FIG3)
        assert code == 3 and stub.writes == 2
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert "Traceback" not in err
        assert stub.getvalue() and full.startswith(stub.getvalue())

    def test_verify_over_size_guard_exits_3(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("NULLDECOMP_MAX_N", raising=False)
        lines = "\n".join(f"{i} {i + 1}" for i in range(40))
        target = tmp_path / "long_path.edges"
        target.write_text(lines + "\n")
        code, _, err = run(capsys, "analyze", "--verify", str(target))
        assert code == 3 and "NULLDECOMP_MAX_N" in err
        code, out, _ = run(capsys, "analyze", str(target))
        assert code == 0  # without --verify the formulas alone handle it
        assert json.loads(out)["alpha"] == 21

    def test_closed_stdout_exits_2_without_traceback(self, tmp_path):
        # The report of a 20,000-vertex path is far larger than a pipe
        # buffer, so the writer sees the reader go away mid-output.
        target = tmp_path / "path.edges"
        target.write_text("".join(f"{i} {i + 1}\n" for i in range(19_999)))
        env = dict(os.environ)
        src = str(Path(nulldecomp.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "nulldecomp.cli", "analyze", str(target)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerify:
    def test_tree_sweep_reports_tallies(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--kind", "tree", "--count", "30", "--seed", "1"
        )
        assert code == 0
        assert "30 random trees" in out
        assert "alpha formula vs oracle: 30 pass, 0 fail" in out

    def test_unicyclic_sweep_reports_stats(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--kind", "unicyclic", "--count", "30", "--seed", "1"
        )
        assert code == 0
        assert "type I:" in out and "type II:" in out

    def test_cycle_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--kind", "cycle")
        assert code == 0
        assert "singular iff length divisible by 4: 22 pass, 0 fail" in out

    @pytest.mark.parametrize("kind", ["tree", "unicyclic", "cycle"])
    def test_past_size_guard_exits_3(self, capsys, monkeypatch, kind):
        monkeypatch.delenv("NULLDECOMP_MAX_N", raising=False)
        code, out, err = run(
            capsys, "verify", "--kind", kind, "--min-n", "40", "--max-n", "40",
            "--count", "1",
        )
        assert code == 3 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "NULLDECOMP_MAX_N" in err

    def test_raised_size_guard_lets_cycles_run(self, capsys, monkeypatch):
        monkeypatch.setenv("NULLDECOMP_MAX_N", "40")
        code, out, _ = run(
            capsys, "verify", "--kind", "cycle", "--min-n", "40", "--max-n", "40"
        )
        assert code == 0
        assert "singular iff length divisible by 4: 1 pass, 0 fail" in out

    def test_failed_check_prints_first_failing_graph(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "nulldecomp.sweeps._grow", lambda g: ([-1] * g.n, frozenset())
        )
        code, out, _ = run(capsys, "verify", "--kind", "tree", "--count", "3")
        assert code == 1
        assert "nu formula vs oracle: 0 pass, 3 fail" in out
        header = "\nfirst failing graph for nu formula vs oracle:\nn="
        assert header in out

    def test_non_integer_size_guard_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("NULLDECOMP_MAX_N", "abc")
        code, out, err = run(capsys, "verify", "--kind", "tree", "--count", "3")
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "NULLDECOMP_MAX_N" in err

    @pytest.mark.parametrize(
        "option,text",
        [
            ("--count", "1_0"),
            ("--min-n", "1_0"),
            ("--max-n", "\u0662\u0660"),  # Arabic-Indic "20"
            ("--seed", "+7"),
            ("--seed", " 7"),
            ("--count", "\uff13"),  # fullwidth "3"
        ],
    )
    def test_integer_options_take_only_ascii_decimals(self, capsys, option, text):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--kind", "tree", option, text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: nulldecomp verify ")
        assert err.endswith(f"error: argument {option}: invalid int value: {text!r}\n")

    def test_negative_seed_is_an_integer(self, capsys):
        code, out, _ = run(capsys, "verify", "--kind", "tree", "--count", "2", "--seed", "-3")
        assert code == 0 and "seed -3" in out

    @pytest.mark.parametrize("raw", ["\u0663\u0663", "3_3", "+33", " 33"])
    def test_size_guard_takes_only_ascii_decimals(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("NULLDECOMP_MAX_N", raw)
        code, out, err = run(capsys, "verify", "--kind", "tree", "--count", "3")
        assert code == 2 and not out
        assert err == f"error: NULLDECOMP_MAX_N must be an integer, got {raw!r}\n"

    def test_numerals_past_the_int_digit_limit_exit_2_with_one_line(self, capsys, monkeypatch):
        big = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--kind", "tree", "--count", big])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: nulldecomp verify ") and "Traceback" not in err
        assert err.splitlines()[-1].startswith("nulldecomp verify: error: argument --count: ")
        monkeypatch.setenv("NULLDECOMP_MAX_N", big)
        code, out, err = run(capsys, "verify", "--kind", "tree", "--count", "3")
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_ranges_rejected(self, capsys):
        for argv in (
            ["--kind", "unicyclic", "--min-n", "2"],
            ["--kind", "tree", "--count", "0"],
            ["--kind", "tree", "--min-n", "9", "--max-n", "4"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(["verify", *argv])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: nulldecomp verify ")
            assert "\nnulldecomp verify: error: " in err


class TestParserOnce:
    def test_main_builds_one_parser_per_process(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        nulldecomp.cli.build_parser.cache_clear()
        assert run(capsys, "analyze", FIG1)[0] == 0
        assert run(capsys, "analyze", FIG3)[0] == 0
        # The root parser and its three subparsers, built in the first call only.
        assert len(built) == 4 and built[0] == "nulldecomp"

    def test_verify_flag_does_not_carry_over(self, capsys):
        code, out, _ = run(capsys, "analyze", "--verify", FIG1)
        assert code == 0 and "verification" in json.loads(out)
        code, out, _ = run(capsys, "analyze", FIG1)
        assert code == 0 and "verification" not in json.loads(out)

    def test_usage_error_does_not_carry_over(self, capsys):
        _, before, _ = run(capsys, "analyze", FIG1)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--kind", "tree", "--min-n", "5", "--max-n", "2"])
        assert exc.value.code == 2
        assert "--max-n must be at least --min-n" in capsys.readouterr().err
        assert run(capsys, "analyze", FIG1) == (0, before, "")


class TestFixturesCommand:
    def test_all_fixtures_pass(self, capsys):
        code, out, _ = run(capsys, "fixtures")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith(" ")]
        assert len(lines) == 9
        assert all(line.endswith("ok") for line in lines)

    def test_verbose_lists_rows(self, capsys):
        code, out, _ = run(capsys, "fixtures", "--verbose")
        assert code == 0
        assert "[ok] alpha" in out


COMMANDS = [
    ["analyze", FIG1],
    ["verify", "--kind", "cycle", "--max-n", "5"],
    ["fixtures"],
]


class TestExitTable:
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_full_disk_on_stdout_exits_2_with_one_line(self, capsys, monkeypatch, argv):
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr("sys.stdout", FullDisk())
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert "Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_full_disk_in_a_process_exits_2_without_a_second_error(self, argv):
        # Block-buffered stdout, as on a plain run: the interpreter's final
        # flush must find nothing left to write.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        src = str(Path(nulldecomp.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "nulldecomp.cli", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        err = proc.stderr.decode()
        assert proc.returncode == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_a_bad_size_guard_is_reported_before_a_missing_input(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("NULLDECOMP_MAX_N", "abc")
        code, out, err = run(capsys, "analyze", "--verify", "no/such/file.edges")
        assert code == 2 and out == ""
        assert err == "error: NULLDECOMP_MAX_N must be an integer, got 'abc'\n"

    def test_a_bad_size_guard_is_a_value_error_and_a_package_error(self, monkeypatch):
        assert issubclass(BadSizeGuard, ValueError)
        assert issubclass(BadSizeGuard, NullDecompError)
        assert nulldecomp.BadSizeGuard is nulldecomp.errors.BadSizeGuard
        monkeypatch.setenv("NULLDECOMP_MAX_N", "abc")
        with pytest.raises(BadSizeGuard):
            size_limit()


# The report as a dict, built the way cli built it before it wrote the
# JSON text straight from the analysis; json.dumps(report, indent=2,
# sort_keys=True) of it is what analyze must print.


def _names(g, ids):
    return list(map(str if g.labels is None else g.labels.__getitem__, sorted(ids)))


def _pairs(g, edge_set):
    name = str if g.labels is None else g.labels.__getitem__
    return [[name(u), name(v)] for u, v in sorted(edge_set)]


def _forest_report(g, shape, d, independent, matching):
    return {
        "shape": shape.value,
        "vertex_count": g.n,
        "edge_count": len(g.edges),
        "nullity": d.nullity,
        "singular": d.nullity > 0,
        "alpha": d.alpha,
        "nu": d.nu,
        "supp": _names(g, d.supp),
        "core": _names(g, d.core),
        "n_vertices": _names(g, d.n_forest_vertices),
        "independent_set": _names(g, independent),
        "matching": _pairs(g, matching),
    }


def _unicyclic_report(g, shape, a):
    parts = []
    for p in a.parts:
        entry = {
            "kind": p.kind,
            "vertices": _names(g, p.vertices),
            "supp": _names(g, p.supp),
            "core": _names(g, p.core),
            "n_vertices": _names(g, p.n_vertices),
        }
        if p.root is not None:
            entry["root"] = g.name_of(p.root)
        parts.append(entry)
    return {
        "shape": shape.value,
        "vertex_count": g.n,
        "edge_count": len(g.edges),
        "cycle": [g.name_of(v) for v in a.cycle.vertices],
        "type": a.kind,
        "witness": g.name_of(a.witness) if a.witness is not None else None,
        "singular": a.singular,
        "singular_reason": a.singular_reason,
        "nullity": a.nullity,
        "alpha": a.alpha,
        "nu": a.nu,
        "parts": parts,
        "independent_set": _names(g, a.independent_set),
        "matching": _pairs(g, a.matching),
    }


def reference_report(g, verify):
    shape = classify_shape(g)
    if shape in (Shape.TREE, Shape.FOREST):
        d = decompose(g)
        independent = independent_set_certificate(g, d)
        matching = matching_certificate(g)
        report = _forest_report(g, shape, d, independent, matching)
        if verify:
            report["verification"] = _tree_checks(g, (d, independent, matching))
    else:
        a = analyze(g)
        report = _unicyclic_report(g, shape, a)
        if verify:
            report["verification"] = _unicyclic_checks(g, a)
    return report


# Names that JSON escapes (quote, backslash, control characters, DEL and
# everything past ASCII), a space inside a name, and the empty name.  None
# holds a comma, starts or ends with what str.strip() removes, or holds
# what str.splitlines() breaks a line at.
AWKWARD_NAMES = [
    '"', "\\", 'a"b\\c', "\x00", "\x01\x1fz", "\x7f", "\u00e9", "a b", "\U0001f600", ""
]


def generated_graphs():
    """(graph, description) for random trees, forests and unicyclic graphs,
    and pure cycles, with n from 1 to 200; every fifth graph with at
    least as many vertices as AWKWARD_NAMES carries them as labels.  Then
    graphs past the writer's 4,096-pair matching chunks and 4,096-id
    parts: the paths P_8192 and P_8194 (4,096 and 4,097 matching pairs),
    the pendant paths graph with k = 4,097 (a k-cycle with a two-vertex
    path hung at each cycle vertex: type II, 4,097 parts, 6,145 pairs),
    and a type I graph whose "rest" part holds 5,002 ids (a triangle
    0 1 2 with the leaf 3 at 0, the witness, and a 5,000-vertex path
    hung at 1)."""
    rng = random.Random(4021)

    def size(lo):
        return rng.randint(lo, 30) if rng.random() < 0.5 else rng.randint(31, 200)

    def forest():
        t = random_tree(size(2), rng)
        return t.without_edges(rng.sample(sorted(t.edges), rng.randint(1, min(5, t.n - 1))))

    def cycle():
        n = size(3)
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])

    def type_ii():
        # A two-vertex path hung at some cycle vertices: every pendant
        # tree's root is missed by one of its maximum matchings.
        k = rng.randint(3, 66)
        hung = rng.sample(range(k), rng.randint(1, k))
        edges = [(i, (i + 1) % k) for i in range(k)]
        for j, v in enumerate(hung):
            edges += [(v, k + 2 * j), (k + 2 * j, k + 2 * j + 1)]
        n = k + 2 * len(hung)
        ids = rng.sample(range(n), n)
        return Graph(n, [(ids[u], ids[v]) for u, v in edges])

    makers = {
        "tree": lambda: random_tree(size(1), rng),
        "forest": forest,
        "unicyclic": lambda: random_unicyclic(size(3), rng),
        "type II unicyclic": type_ii,
        "cycle": cycle,
    }
    kinds = list(makers) + ["tree", "unicyclic"]
    out = []
    for i in range(336):
        kind = kinds[i % len(kinds)]
        g = makers[kind]()
        if i % 5 == 4 and g.n >= len(AWKWARD_NAMES):
            names = AWKWARD_NAMES + [f"v{v}" for v in range(len(AWKWARD_NAMES), g.n)]
            rng.shuffle(names)
            g = Graph(g.n, g.edges, labels=names)
        out.append((g, f"graph {i}: {kind}, n={g.n}, labeled={g.labels is not None}"))
    for n in (8192, 8194):
        out.append((Graph(n, [(i, i + 1) for i in range(n - 1)]), f"path, n={n}"))
    k = 4097
    hung = [(i, (i + 1) % k) for i in range(k)] + [(i, k + i) for i in range(k)]
    hung += [(k + i, 2 * k + i) for i in range(k)]
    out.append((Graph(3 * k, hung), f"pendant paths, k={k}"))
    long_rest = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)] + [(i, i + 1) for i in range(4, 5003)]
    out.append((Graph(5004, long_rest), "type I unicyclic with a 5002-id rest part"))
    return out


class TestReportWriter:
    """The analyze report against json.dumps(report, indent=2, sort_keys=True)."""

    @pytest.mark.parametrize(
        "path",
        [p for p in sorted(GOLDEN.glob("*.out")) if p.read_text(encoding="utf-8").startswith("{")],
        ids=lambda p: p.name,
    )
    def test_rewrites_every_golden_report(self, path):
        text = path.read_text(encoding="utf-8")
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    def test_equals_json_dumps_of_the_reference_on_generated_graphs(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        seen = {"types": set(), "labeled": 0, "verified": 0, "pairs": 0, "parts": 0, "ids": 0}
        for g, description in generated_graphs():
            path.write_text(format_edge_list(g), encoding="utf-8")
            verify = g.n <= 30
            code, out, err = run(capsys, "analyze", *(["--verify"] if verify else []), str(path))
            assert code == 0 and not err, description
            report = reference_report(g, verify)
            assert out == json.dumps(report, indent=2, sort_keys=True) + "\n", description
            seen["types"].add((report["shape"], report.get("type")))
            seen["labeled"] += g.labels is not None
            seen["verified"] += verify
            parts = report.get("parts", [])
            seen["pairs"] = max(seen["pairs"], len(report["matching"]))
            seen["parts"] = max(seen["parts"], len(parts))
            seen["ids"] = max([seen["ids"], *(len(p["vertices"]) for p in parts)])
        assert seen["types"] == {
            ("tree", None),
            ("forest", None),
            ("unicyclic", "I"),
            ("unicyclic", "II"),
            ("cycle", "II"),
        }
        assert seen["labeled"] >= 50 and seen["verified"] >= 100, seen
        assert min(seen["pairs"], seen["parts"], seen["ids"]) > nulldecomp.cli._CHUNK, seen


# report_digests() of frozen_corpus().  Without their "matching" key, the
# reports are those from before the unicyclic analysis read both types
# off one spanning forest each; the whole reports were frozen again when
# the matching came off the matching DP.
FROZEN_REPORT_DIGEST = "b87f9bb3346a4805e22945d90c7d3a5a42b80c98f8100f9fcf32a1e56c18b68e"
FROZEN_REPORT_DIGEST_WITHOUT_MATCHING = (
    "f46ce1fc46cb11b5575900c778c2129755cdd912b8cd58c0eccf5e0f2b8af0f1"
)


def frozen_corpus():
    """300 seeded forests (every fourth tree loses up to three edges) and
    the 300 graphs of a seeded unicyclic corpus (167 of type I, 133 of
    type II)."""
    rng = random.Random(2819)
    graphs = []
    for i in range(300):
        t = random_tree(rng.randrange(1, 60), rng)
        if i % 4 == 3 and t.edges:
            t = t.without_edges(rng.sample(sorted(t.edges), min(3, len(t.edges))))
        graphs.append(t)
    return graphs + unicyclic_corpus(300, 3, 60, 2819)


def frozen_reports(capsys, monkeypatch):
    """(graph, its `nulldecomp analyze` stdout) for each graph of
    frozen_corpus(), read as an edge list."""
    for g in frozen_corpus():
        monkeypatch.setattr(sys, "stdin", io.StringIO(format_edge_list(g)))
        code, out, err = run(capsys, "analyze", "-")
        assert code == 0 and not err
        yield g, out


def report_digests(capsys, monkeypatch):
    """sha256 over the reports of frozen_reports, and over the same
    reports without their "matching" key, each dumped as analyze does."""
    whole, rest = hashlib.sha256(), hashlib.sha256()
    for _, out in frozen_reports(capsys, monkeypatch):
        whole.update(out.encode())
        report = json.loads(out)
        del report["matching"]
        rest.update(json.dumps(report, indent=2, sort_keys=True).encode())
    return whole.hexdigest(), rest.hexdigest()


class TestFrozenReports:
    def test_reports_are_those_of_the_frozen_corpus(self, capsys, monkeypatch):
        # The whole report, not only the certificates: the parts with each
        # piece's Supp, Core and N-vertices, the reason, the witness and
        # the cycle, on every shape and both types.
        whole, rest = report_digests(capsys, monkeypatch)
        assert rest == FROZEN_REPORT_DIGEST_WITHOUT_MATCHING
        assert whole == FROZEN_REPORT_DIGEST

    def test_every_matching_is_maximum(self, capsys, monkeypatch):
        # The matching, the one field that moved, is a matching of the
        # graph of size nu, next to an independent set of size alpha.
        for g, out in frozen_reports(capsys, monkeypatch):
            report = json.loads(out)
            independent = {int(v) for v in report["independent_set"]}
            matching = [(int(u), int(v)) for u, v in report["matching"]]
            fault = _certificate_fault(g, independent, matching, report["alpha"], report["nu"])
            assert fault is None, sorted(g.edges)

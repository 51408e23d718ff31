"""Seeded end-to-end benchmark of nulldecomp, with a traced per-layer run.

    python3 benchmarks/run.py --workload analyze_tree --seed 1 --seconds 30 --trace 0

Runs from a checkout of the repository and imports the package from its
src/ directory.  Set-up imports the package, draws the workload's corpus
from the seed through the public randgraphs functions and writes the
input files; it is repeated SETUPS times and its median reported.  The
measurement then makes whole passes over the corpus, one call at a
time, for about --seconds seconds, and checks every output with the
benchmark's own code (checks.py).

With --trace 0 the last line of stdout carries the end-to-end metrics
named in BENCHMARK.json.  With --trace 1 untraced and traced passes
alternate, and the last line carries the per-layer metrics of the traced
passes, per pass, plus the tracing overhead.  The line before it, which
starts with "info", gives the machine, the commit, the tail percentile
with its sample count, failed_frac and the sha256 of the first pass's
reports.  --out FILE also appends both to FILE as one JSON record, for
compare.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "nulldecomp" / "__init__.py"
SETUPS = 3
PROBE_EVERY_S = 0.1
REFERENCE_PROBE_S = 0.007


def _ladder(lo, hi, count):
    """count sizes spread evenly over [lo, hi], so every seed gets the same sizes."""
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


class Case:
    __slots__ = ("n", "edges", "graph", "argv")

    def __init__(self, graph):
        self.graph = graph
        self.n = graph.n
        self.edges = sorted(graph.edges)
        self.argv = None


class Corpus:
    """Calls into randgraphs, timed apart from the rest of set-up."""

    def __init__(self, randgraphs, rng):
        self.rg = randgraphs
        self.rng = rng
        self.seconds = 0.0

    def _timed(self, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self.seconds += perf_counter() - t0
        return out

    def trees(self, n):
        return self._timed(self.rg.tree_corpus, 1, n, n, self.rng.getrandbits(32))

    def unicyclic_pair(self, n):
        """One graph aimed at type I and one at type II (the corpus alternates)."""
        return self._timed(self.rg.unicyclic_corpus, 2, n, n, self.rng.getrandbits(32))


class AnalyzeTree:
    """cli analyze on edge-list files of random trees, every fourth cut into a forest."""

    sizes = (32, 112)
    count = 80
    suffix = ".edges"

    def generate(self, corpus):
        cases = []
        for i, n in enumerate(_ladder(*self.sizes, self.count)):
            case = Case(corpus.trees(n)[0])
            if i % 4 == 3:
                drop = corpus.rng.sample(case.edges, 1 + corpus.rng.randrange(3))
                case.edges = [e for e in case.edges if e not in drop]
            cases.append(case)
        corpus.rng.shuffle(cases)
        return cases

    def write(self, cases, workdir):
        for i, case in enumerate(cases):
            path = workdir / f"g{i}{self.suffix}"
            path.write_text(self.encode(case), encoding="utf-8")
            case.argv = self.argv(path)

    def encode(self, case):
        return checks.edge_list_text(case.n, case.edges)

    def argv(self, path):
        return ["analyze", str(path)]

    def call(self, nd, case):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = nd.cli.main(case.argv)
        return code, out.getvalue(), err.getvalue()

    def text(self, raw):
        return raw[1]

    def check(self, case, raw):
        code, out, err = raw
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        return self.check_report(case, json.loads(out))

    def check_report(self, case, report):
        return checks.check_forest_report(case.n, case.edges, report)


class AnalyzeUnicyclic(AnalyzeTree):
    """cli analyze --format g6 on type-balanced random unicyclic graphs."""

    sizes = (48, 144)
    count = 80
    suffix = ".g6"

    def generate(self, corpus):
        cases = []
        for n in _ladder(*self.sizes, self.count // 2):
            cases.extend(Case(g) for g in corpus.unicyclic_pair(n))
        corpus.rng.shuffle(cases)
        return cases

    def encode(self, case):
        return checks.graph6_text(case.n, case.edges)

    def argv(self, path):
        return ["analyze", "--format", "g6", str(path)]

    def check_report(self, case, report):
        return checks.check_unicyclic_report(case.n, case.edges, report)


class VerifyMixed:
    """sweeps instance checks, alternating trees and unicyclic graphs, under the oracle guard."""

    sizes = (12, 30)
    count = 240

    def generate(self, corpus):
        trees = [Case(corpus.trees(n)[0]) for n in _ladder(*self.sizes, self.count // 2)]
        unicyclic = [
            Case(g) for n in _ladder(*self.sizes, self.count // 4) for g in corpus.unicyclic_pair(n)
        ]
        corpus.rng.shuffle(trees)
        corpus.rng.shuffle(unicyclic)
        return [case for pair in zip(trees, unicyclic) for case in pair]

    def write(self, cases, workdir):
        pass

    def call(self, nd, case):
        if len(case.edges) == case.n:
            return nd.sweeps.check_unicyclic_instance(case.graph)
        return nd.sweeps.check_tree_instance(case.graph)

    def text(self, raw):
        return json.dumps(raw, sort_keys=True) + "\n"

    def check(self, case, raw):
        return checks.check_invariants(raw)


WORKLOADS = {
    "analyze_tree": AnalyzeTree(),
    "analyze_unicyclic": AnalyzeUnicyclic(),
    "verify_mixed": VerifyMixed(),
}


class Package:
    """The modules a workload calls, freshly imported from src/."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "nulldecomp" or m.startswith("nulldecomp.")]:
            del sys.modules[name]
        pkg = importlib.import_module("nulldecomp")
        if Path(pkg.__file__).resolve() != PACKAGE_INIT.resolve():
            raise RuntimeError(f"imported nulldecomp from {pkg.__file__}, not {SRC}")
        self.cli = importlib.import_module("nulldecomp.cli")
        self.randgraphs = pkg.randgraphs
        self.sweeps = pkg.sweeps


def setup(workload, seed, workdir):
    """(seconds, randgraphs seconds, package, cases) for one full set-up."""
    t0 = perf_counter()
    nd = Package()
    corpus = Corpus(nd.randgraphs, random.Random(seed))
    cases = workload.generate(corpus)
    workdir.mkdir(parents=True)
    workload.write(cases, workdir)
    return perf_counter() - t0, corpus.seconds, nd, cases


class Measurement:
    def __init__(self, count):
        self.latencies = [[] for _ in range(count)]
        self.raw_latencies = [[] for _ in range(count)]
        self.first_text = [None] * count
        self.verdict = [None] * count
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, i, workload, case, raw):
        """Problems with call i's output; a repeat must match the first pass byte for byte."""
        text = workload.text(raw)
        if self.first_text[i] is None:
            try:
                self.verdict[i] = workload.check(case, raw)
            except (ValueError, KeyError, TypeError) as exc:
                self.verdict[i] = [f"malformed output: {exc!r}"]
            self.first_text[i] = text
        if text != self.first_text[i]:
            return ["output differs from the first pass"]
        return self.verdict[i]

    def record(self, i, scaled, raw, problems):
        self.latencies[i].append(scaled)
        self.raw_latencies[i].append(raw)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"graph {i}: {problems[0]}")


def probe():
    """Seconds taken by a fixed piece of pure-Python work.

    The hosts this runs on change speed by tens of percent over tens of
    seconds, which would swamp most changes to the package.  Each timing
    is therefore scaled by REFERENCE_PROBE_S over the probes taken around
    it, giving seconds at a fixed reference speed.  The work is Fraction
    sums and dict stores, as in the package's hot paths.
    """
    t0 = perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 1500):
        acc += Fraction(i, i + 1)
        seen[i] = acc.numerator % 97
    return perf_counter() - t0


def run_pass(workload, nd, cases, m, tracer=None):
    """One pass over the corpus; returns the (scaled, raw) seconds spent in the program."""
    probes = [probe()]
    calls = []
    since = 0.0
    for i, case in enumerate(cases):
        if since >= PROBE_EVERY_S:
            probes.append(probe())
            since = 0.0
        if tracer is not None:
            tracer.begin_call()
        t0 = perf_counter()
        try:
            raw = workload.call(nd, case)
            problems = None
        except (Exception, SystemExit) as exc:
            problems = [f"raised {exc!r}"]
        seconds = perf_counter() - t0
        since += seconds
        if problems is None:
            problems = m.check(i, workload, case, raw)
        calls.append((i, seconds, len(probes) - 1, problems))
    probes.append(probe())

    busy = raw_busy = 0.0
    for i, seconds, k, problems in calls:
        # Probes k and k + 1 bracket the call; one more on each side smooths them.
        scaled = seconds * REFERENCE_PROBE_S / statistics.fmean(probes[max(0, k - 1):k + 3])
        m.record(i, scaled, seconds, problems)
        busy += scaled
        raw_busy += seconds
    return busy, raw_busy


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def latency_summary(latencies):
    """(p50, tail percentile, tail value, samples): per graph the median over passes, then across graphs."""
    per_graph = sorted(statistics.median(xs) for xs in latencies)
    count = len(per_graph)
    # The highest whole percentile with at least ten graphs beyond it.
    tail_pct = max(50, math.floor(100 * (count - 10) / count))
    return statistics.median(per_graph), tail_pct, nearest_rank(per_graph, tail_pct), count


def end_to_end(m, busy, setups):
    p50, tail_pct, tail, count = latency_summary(m.latencies)
    raw_p50, _, raw_tail, _ = latency_summary(m.raw_latencies)
    metrics = {
        "graphs_per_s": m.attempted / sum(scaled for scaled, _ in busy),
        "latency_p50_ms": 1000 * p50,
        "latency_tail_ms": 1000 * tail,
        "setup_s": statistics.median(scaled for scaled, _, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "tail_pct": tail_pct,
        "tail_samples": count,
        "passes": len(busy),
        "unscaled": {
            "graphs_per_s": m.attempted / sum(raw for _, raw in busy),
            "latency_p50_ms": 1000 * raw_p50,
            "latency_tail_ms": 1000 * raw_tail,
            "setup_s": statistics.median(raw for _, raw, _ in setups),
        },
    }
    return metrics, info


def per_layer(tracer, traced_busy, plain_busy, setups):
    passes = len(traced_busy)
    # Self times get the traced passes' overall scaling to the reference speed.
    speed = sum(s for s, _ in traced_busy) / sum(r for _, r in traced_busy)
    metrics = {}
    for group, (calls, self_ns) in tracer.group_totals().items():
        metrics[f"{group}.calls"] = calls / passes
        metrics[f"{group}.self_s"] = self_ns / 1e9 * speed / passes
    decompose_calls = metrics["trees.decompose.calls"] * passes
    metrics["linalg.rref.cells"] = tracer.rref_cells / passes
    metrics["linalg.rref.max_n"] = tracer.rref_max_n
    metrics["trees.decompose.distinct_ratio"] = (
        tracer.decompose_distinct / decompose_calls if decompose_calls else 1.0
    )
    metrics["randgraphs.corpus_s"] = statistics.median(c for _, _, c in setups)
    metrics["trace.overhead_frac"] = (
        statistics.fmean(s for s, _ in traced_busy) / statistics.fmean(s for s, _ in plain_busy) - 1
    )
    return metrics, {"passes": passes + len(plain_busy), "traced_passes": passes}


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            )
            commit = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "nulldecomp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure(args, spec, workdir):
    workload = WORKLOADS[args.workload]
    setups = []
    for k in range(SETUPS):
        before = probe()
        seconds, corpus_s, nd, cases = setup(workload, args.seed, workdir / f"setup{k}")
        speed = REFERENCE_PROBE_S / statistics.fmean((before, probe()))
        setups.append((seconds * speed, seconds, corpus_s))

    m = Measurement(len(cases))
    tracer = Tracer() if args.trace else None
    plain_busy, traced_busy = [], []
    began = perf_counter()
    while True:
        traced = tracer is not None and len(plain_busy) > len(traced_busy)
        if traced:
            tracer.install()
            try:
                traced_busy.append(run_pass(workload, nd, cases, m, tracer))
            finally:
                tracer.uninstall()
            tracer.fold()
        else:
            plain_busy.append(run_pass(workload, nd, cases, m))
        passes = len(plain_busy) + len(traced_busy)
        elapsed = perf_counter() - began
        if passes >= (2 if tracer else 1) and elapsed * (passes + 1) / passes > args.seconds:
            break

    if tracer is None:
        computed, info = end_to_end(m, plain_busy, setups)
        wanted = spec["end_to_end"]
    else:
        computed, info = per_layer(tracer, traced_busy, plain_busy, setups)
        wanted = spec["per_layer"]
    metrics = {w["name"]: {"value": computed[w["name"]], "unit": w["unit"]} for w in wanted}
    sha = hashlib.sha256("".join(t or "" for t in m.first_text).encode()).hexdigest()
    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        graphs=len(cases),
        failed_frac=m.failed / m.attempted,
        report_sha256=sha,
        **environment(),
    )
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }
    return info, result, m.problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE", help="append the result record to FILE")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not PACKAGE_INIT.is_file():
        print(f"error: no nulldecomp package under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {spec_path}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        info, result, problems = measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for line in problems:
        print(f"failed: {line}", file=sys.stderr)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"info": info, "result": result}, sort_keys=True) + "\n")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

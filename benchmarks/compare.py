"""Compare two sets of benchmark results, workload by workload.

    python3 benchmarks/compare.py BASE NEW

BASE and NEW are result files written by `run.py --out` (one JSON record
a line) or directories holding such files.  Runs with --trace 0 give
the end-to-end rows, runs with --trace 1 the per-layer rows.  For each
workload and metric it prints both sides' median and quartiles and a
verdict, using the bounds and directions in BENCHMARK.json:

  better      NEW wins at least nine in ten runs paired by seed (ties
              count for neither) and the medians differ by more than
              BASE's quartile distance; where either side's spread is
              wider than the bound, only if every NEW run beats every
              BASE run
  worse       NEW's median is worse than BASE's by more than the bound
  unresolved  either side's quartile distance, as a share of its median,
              is wider than the bound
  unchanged   otherwise

Per-layer metrics have no bound: they are better or worse by the pair
rule alone, and unchanged otherwise.  Exits 1 when an end-to-end metric
is worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    if not records:
        raise SystemExit(f"error: no result records in {path}")
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base, new):
    """(base, new) value pairs, matched by seed when both sides ran the same seeds."""
    if sorted(s for s, _ in base) == sorted(s for s, _ in new):
        return list(zip((v for _, v in sorted(base)), (v for _, v in sorted(new))))
    return list(zip((v for _, v in base), (v for _, v in new)))


def verdict(base, new, better, bound):
    """base, new: lists of (seed, value)."""
    sign = 1 if better == "higher" else -1
    b_vals = [v for _, v in base]
    n_vals = [v for _, v in new]
    b1, b_med, b3 = quartiles(b_vals)
    n1, n_med, n3 = quartiles(n_vals)
    matched = pairs(base, new)
    wins = sum(1 for b, n in matched if sign * (n - b) > 0)
    losses = sum(1 for b, n in matched if sign * (n - b) < 0)
    moved = abs(n_med - b_med) > (b3 - b1)

    def share(lo, hi, med):
        return (hi - lo) / abs(med) if med else (0.0 if hi == lo else float("inf"))

    if bound is None:
        if matched and wins >= 0.9 * len(matched) and moved:
            return "better"
        if matched and losses >= 0.9 * len(matched) and moved:
            return "worse"
        return "unchanged"
    worse_by = -sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    if max(share(b1, b3, b_med), share(n1, n3, n_med)) > bound:
        if min(sign * v for v in n_vals) > max(sign * v for v in b_vals):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if matched and wins >= 0.9 * len(matched) and moved:
        return "better"
    return "unchanged"


def series(records, workload, trace, metric):
    return [
        (r["info"]["seed"], r["result"]["metrics"][metric]["value"])
        for r in records
        if r["info"]["workload"] == workload
        and r["info"]["trace"] == trace
        and metric in r["result"]["metrics"]
    ]


def cell(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def describe(records):
    keys = ("commit", "python", "nproc", "cpu")
    seen = sorted({tuple(str(r["info"].get(k)) for k in keys) for r in records})
    return "; ".join(
        f"commit {c[:12]}, python {p}, nproc {n}, {cpu}" for c, p, n, cpu in seen
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="result file or directory of the parent")
    parser.add_argument("new", help="result file or directory of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load(args.base), load(args.new)
    print(f"base: {describe(base)}")
    print(f"new:  {describe(new)}")

    any_worse = False
    for wl in spec["workloads"]:
        name = wl["name"]
        print(f"\n{name}")
        print(
            f"  {'metric':36s} {'unit':6s} {'base median [q1, q3]':>30s}"
            f" {'new median [q1, q3]':>30s} {'change':>8s}  verdict"
        )
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            for m in spec[kind]:
                b = series(base, name, trace, m["name"])
                n = series(new, name, trace, m["name"])
                if not b or not n:
                    continue
                bq = quartiles([v for _, v in b])
                nq = quartiles([v for _, v in n])
                change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
                v = verdict(b, n, m["better"], m.get("bound"))
                if v == "worse" and kind == "end_to_end":
                    any_worse = True
                tag = f"{v} (bound {m['bound']})" if "bound" in m else v
                print(
                    f"  {m['name']:36s} {m['unit']:6s} {cell(bq):>30s} {cell(nq):>30s}"
                    f" {change:+8.1%}  {tag}"
                )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())

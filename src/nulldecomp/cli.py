"""Command line interface.

Subcommands:

  analyze   read one graph, print its analysis as JSON; --verify adds the
            sweep checker's invariants for its shape, run on that same
            analysis and those certificates, under "verification"
  verify    run seeded random sweeps of the same invariant checks
  fixtures  recheck the bundled examples against their frozen values

Exit codes: 0 success, 1 a verification or fixture check failed, 2 the
input is not UTF-8 or did not parse, NULLDECOMP_MAX_N is not an
integer, the --dot file cannot be written, or stdout was closed before
all output was written (as by `| head`), 3 the input is unsupported
(wrong shape, no vertices, or past the size guard for oracle
cross-checks: the graph under analyze --verify, --max-n under verify).
main builds its argument parser once per process.  The analyze report
is written by _dumps, which prints exactly what json.dumps(report,
indent=2, sort_keys=True) would, with each list joined in one step.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, partial

from .errors import EmptyGraph, ParseError, TooLarge
from .fixtures import check_all
from .graphs import (
    Role,
    Shape,
    _decimal,
    classify_shape,
    export_dot,
    format_edge_list,
    parse_edge_list,
    parse_graph6,
)
from .oracles import size_limit
from .sweeps import _tree_checks, _unicyclic_checks
from .sweeps import cycle_sweep, tree_sweep, unicyclic_sweep
from .trees import (
    decompose,
    independent_set_certificate,
    matching_certificate,
)
from .unicyclic import analyze


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _names(g, ids):
    return list(map(str if g.labels is None else g.labels.__getitem__, sorted(ids)))


def _pairs(g, edge_set):
    name = str if g.labels is None else g.labels.__getitem__
    return [[name(u), name(v)] for u, v in sorted(edge_set)]


def _roles_from(pieces):
    """Vertex id -> Role over (supp, core, n_vertices) triples, in order."""
    roles = {}
    for supp, core, n_vertices in pieces:
        roles.update(dict.fromkeys(supp, Role.SUPPORT))
        roles.update(dict.fromkeys(core, Role.CORE))
        roles.update(dict.fromkeys(n_vertices, Role.N_VERTEX))
    return roles


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


_quote = json.encoder.encode_basestring_ascii


def _dumps(obj, indent="\n"):
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for the
    types a report holds: dicts with str keys, lists, str, int, bool and
    None.  Anything else raises TypeError.  indent is the line break and
    indentation that come before obj's closing bracket.

    Under indent, json.dumps runs the pure-Python encoder, one generator
    step per list item; here a list of strings is quoted by the C-level
    encode_basestring_ascii and joined in one str.join.
    """
    if type(obj) is str:
        return _quote(obj)
    if obj is None or type(obj) is bool:
        return "null" if obj is None else "true" if obj else "false"
    if type(obj) is int:
        return repr(obj)
    inner = indent + "  "
    if type(obj) is list:
        if not obj:
            return "[]"
        try:
            body = ("," + inner).join(map(_quote, obj))
        except TypeError:  # not a list of strings
            body = ("," + inner).join([_dumps(x, inner) for x in obj])
        return "[" + inner + body + indent + "]"
    if type(obj) is dict:
        if not obj:
            return "{}"
        # _quote raises TypeError on a key that is not a str.
        items = [_quote(k) + ": " + _dumps(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"a report holds no {type(obj).__name__}")


def _checked_size_limit():
    """The oracle size guard, or None after reporting a NULLDECOMP_MAX_N
    that is not an integer."""
    try:
        return size_limit()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_analyze(args):
    if args.verify and _checked_size_limit() is None:
        return 2
    try:
        text = _read_input(args.path)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        g = parse_edge_list(text) if args.format == "edges" else parse_graph6(text)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        shape = classify_shape(g)
    except EmptyGraph as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if shape == Shape.OTHER:
        print(
            "error: only forests and graphs with exactly one cycle are supported",
            file=sys.stderr,
        )
        return 3

    if shape in (Shape.TREE, Shape.FOREST):
        analysis = decompose(g)
        independent = independent_set_certificate(g, analysis)
        matching = matching_certificate(g)
        report = _forest_report(g, shape, analysis, independent, matching)
        pieces = [(analysis.supp, analysis.core, analysis.n_forest_vertices)]
        check = partial(_tree_checks, g, analysis, independent, matching)
    else:
        analysis = analyze(g)
        report = _unicyclic_report(g, shape, analysis)
        pieces = [(p.supp, p.core, p.n_vertices) for p in analysis.parts]
        check = partial(_unicyclic_checks, g, analysis)

    code = 0
    if args.verify:
        try:
            checks = check()
        except TooLarge as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        report["verification"] = checks
        if not all(checks.values()):
            code = 1

    if args.dot is not None:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(export_dot(g, _roles_from(pieces)))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    print(_dumps(report))
    return code


def _int_arg(text):
    """argparse type for integer options: the edge-list format's ASCII
    decimal numerals, where int() would also take "1_0", "+1" or
    non-ASCII digits.  A numeral past int()'s digit limit is named by
    its length, not echoed."""
    try:
        value = _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"numeral longer than {sys.get_int_max_str_digits()} digits"
        ) from None
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


_SWEEP_RANGES = {"tree": (2, 16), "unicyclic": (6, 16), "cycle": (3, 24)}
_SWEEP_FLOORS = {"tree": 1, "unicyclic": 3, "cycle": 3}


def cmd_verify(args):
    parser = args.parser  # the verify subparser, so errors show its usage
    kind = args.kind
    lo, hi = _SWEEP_RANGES[kind]
    min_n = args.min_n if args.min_n is not None else lo
    max_n = args.max_n if args.max_n is not None else hi
    if min_n < _SWEEP_FLOORS[kind]:
        parser.error(f"--min-n must be at least {_SWEEP_FLOORS[kind]} for {kind}")
    if max_n < min_n:
        parser.error("--max-n must be at least --min-n")
    if args.count < 1:
        parser.error("--count must be positive")
    limit = _checked_size_limit()
    if limit is None:
        return 2
    if max_n > limit:
        print(
            f"error: verify refuses --max-n {max_n} > {limit}; "
            "set NULLDECOMP_MAX_N to override",
            file=sys.stderr,
        )
        return 3

    if kind == "tree":
        outcome = tree_sweep(args.count, min_n, max_n, args.seed)
        print(f"{args.count} random trees, {min_n} <= n <= {max_n}, seed {args.seed}")
    elif kind == "unicyclic":
        outcome = unicyclic_sweep(args.count, min_n, max_n, args.seed)
        print(
            f"{args.count} random unicyclic graphs, {min_n} <= n <= {max_n}, "
            f"seed {args.seed}"
        )
    else:
        outcome = cycle_sweep(min_n, max_n)
        print(f"cycles C_n, {min_n} <= n <= {max_n}")

    for name, (passed, failed) in outcome.tallies.items():
        print(f"  {name}: {passed} pass, {failed} fail")
    for key in sorted(outcome.stats):
        print(f"  {key}: {outcome.stats[key]}")
    if not outcome.ok:
        for name in sorted(outcome.failures):
            print(f"\nfirst failing graph for {name}:")
            sys.stdout.write(format_edge_list(outcome.failures[name]))
        return 1
    return 0


def cmd_fixtures(args):
    failed = 0
    for rep in check_all():
        status = "ok" if rep.ok else "FAIL"
        print(f"{rep.fixture}: {len(rep.rows)} checks, {status}")
        if args.verbose or not rep.ok:
            for r in rep.rows:
                mark = "ok" if r.ok else "FAIL"
                line = f"  [{mark}] {r.label}"
                if not r.ok:
                    line += f": got {r.got}, want {r.want}"
                print(line)
        if not rep.ok:
            failed += 1
    return 0 if failed == 0 else 1


@cache  # parse_args leaves the parser as it was, so main builds it once
def build_parser():
    parser = argparse.ArgumentParser(
        prog="nulldecomp",
        description=(
            "Kernel-based analysis of trees, forests and unicyclic graphs: "
            "singularity, independence number, matching number, certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze one graph, print JSON")
    p_an.add_argument(
        "path",
        nargs="?",
        default="-",
        help="input file, or - for stdin (default)",
    )
    p_an.add_argument(
        "--format",
        choices=("edges", "g6"),
        default="edges",
        help="input format: edge list (default) or graph6",
    )
    p_an.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the closed formulas against brute-force oracles",
    )
    p_an.add_argument(
        "--dot",
        metavar="FILE",
        help="also write a DOT rendering with decomposition roles",
    )

    p_ver = sub.add_parser("verify", help="random sweeps of the invariant checks")
    p_ver.add_argument("--kind", choices=("tree", "unicyclic", "cycle"), required=True)
    p_ver.add_argument("--count", type=_int_arg, default=200, help="instances (default 200)")
    p_ver.add_argument("--min-n", type=_int_arg, default=None, dest="min_n")
    p_ver.add_argument("--max-n", type=_int_arg, default=None, dest="max_n")
    p_ver.add_argument("--seed", type=_int_arg, default=0)
    p_ver.set_defaults(parser=p_ver)

    p_fix = sub.add_parser("fixtures", help="recheck the bundled examples")
    p_fix.add_argument("--verbose", action="store_true", help="print every check row")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            code = cmd_analyze(args)
        elif args.command == "verify":
            code = cmd_verify(args)
        else:
            code = cmd_fixtures(args)
        # A reader that left early shows up here, not in the exit flush.
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # Whatever is still buffered goes to devnull, so the interpreter's
        # final flush cannot fail and print a second error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())

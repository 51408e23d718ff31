"""Command line interface.

Subcommands:

  analyze   read one graph, print its analysis as JSON; --verify adds the
            sweep checker's invariants for its shape, run on that same
            analysis and those certificates, under "verification"
  verify    run seeded random sweeps of the same invariant checks
  fixtures  recheck the bundled examples against their frozen values

Exit codes: 0 success, 1 a verification or fixture check failed, 2 the
input is not UTF-8 or did not parse, NULLDECOMP_MAX_N is not an
integer (under analyze --verify, verify or fixtures), the --dot file
cannot be written, or stdout could not be written (a closed pipe, as
by `| head`, or a full disk), 3 the input is unsupported (wrong shape,
no vertices, past the size guard for oracle cross-checks: the graph
under analyze --verify, --max-n under verify, a bundled example under
fixtures, or too large for the memory the process may use).  The
subcommands raise, and main alone turns an error into its exit code
and its one line on stderr.  analyze prints nothing before its checks
and its --dot file are done, so an exit of 2 or 3 after the output
began leaves a truncated report.
main builds its argument parser once per process.  Each subcommand
imports what it runs, and nothing else: analyze loads errors, graphs,
trees and unicyclic; --verify adds sweeps (with oracles, linalg and
randgraphs), as verify does; fixtures adds fixtures.  analyze walks the
graph once: the Graph keeps the walk that its shape reads, and the
analysis reads the same one.  It branches on the shape once, to pick
the analysis, its report fields, the records that hold its roles (the
decomposition of a forest, the parts of a unicyclic graph) and the
checker --verify runs.  Its report, the text json.dumps(report,
indent=2, sort_keys=True) would print, is one stream of pieces made
from the analysis as it is written: each list of names in one str.join,
the matching _CHUNK pairs at a time, each part in one str from one
template whose keys are already in sorted order.  The lists of Supp,
Core and N ids, and the role map behind --dot, are read through the
records of trees, in ascending order, off the roles each record took
once when it was made; a vertex of no record is drawn plain.  It
decodes a graph6 line only up to n + 1 edges, since it analyzes only
m <= n, and keeps the cyclic collector paused from the read until the
report is written.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from functools import cache

from .errors import BadSizeGuard, EmptyGraph, ParseError, TooLarge
from .graphs import Role, Shape, _decimal, classify_shape, export_dot
from .graphs import format_edge_list, parse_edge_list, parse_graph6
from .trees import _analyze as _analyze_forest
from .unicyclic import analyze as _analyze_unicyclic


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# The writers below print what json.dumps(report, indent=2, sort_keys=True)
# would, byte for byte, with no report dict and no pure-Python encoder.
# indent is the line break and indentation before the closing bracket.
_quote = json.encoder.encode_basestring_ascii
_BOOLS = {True: "true", False: "false"}
_CHUNK = 4096


def _name_table(g):
    """Vertex id -> its name as escaped inside a JSON string; ids are digits."""
    if g.labels is None:
        return str
    return [_quote(label)[1:-1] for label in g.labels].__getitem__


def _strings(name, ids, indent):
    """The list of the names of ids, in the order given."""
    if not ids:
        return "[]"
    inner = indent + "  "
    return "[" + inner + '"' + ('",' + inner + '"').join(map(name, ids)) + '"' + indent + "]"


def _role_lists(name, record, indent):
    """The lists of the Supp, Core and N ids of record, a decomposition
    or a part."""
    return [_strings(name, list(ids), indent) for ids in record._by_role()]


def _edges(name, pairs, indent):
    """The list of two-name lists, one per pair, in sorted order, as
    pieces of at most _CHUNK pairs: one join over every pair would hold
    a new str per pair at once."""
    inner, deep = indent + "  ", indent + "    "
    head, mid, tail = "[" + deep + '"', '",' + deep + '"', '"' + inner + "]"
    sep = "," + inner
    pairs = sorted(pairs)
    lead = "[" + inner
    for i in range(0, len(pairs), _CHUNK):
        yield lead
        yield sep.join([head + name(u) + mid + name(v) + tail for u, v in pairs[i : i + _CHUNK]])
        lead = sep
    yield indent + "]" if pairs else "[]"


def _object(fields, indent):
    """The pieces of the object of fields, keys sorted.  A value is its
    written text or an iterable of the pieces of it."""
    lead, inner = "{", indent + "  "
    for k, v in sorted(fields.items()):
        yield lead + inner + _quote(k) + ": "
        yield from (v,) if isinstance(v, str) else v
        lead = ","
    yield indent + "}"


def _shared_fields(g, shape, a, singular, independent, matching):
    """The vertex-name table and the fields of both report shapes; a is
    the decomposition of a forest or the analysis of a unicyclic graph."""
    name = _name_table(g)
    return name, {
        "shape": _quote(shape.value),
        "vertex_count": repr(g.n),
        "edge_count": repr(g.m),
        "nullity": repr(a.nullity),
        "singular": _BOOLS[singular],
        "alpha": repr(a.alpha),
        "nu": repr(a.nu),
        "independent_set": _strings(name, sorted(independent), "\n  "),
        "matching": _edges(name, matching, "\n  "),
    }


def _forest_fields(g, shape, d, independent, matching):
    name, fields = _shared_fields(g, shape, d, d.nullity > 0, independent, matching)
    fields.update(zip(("supp", "core", "n_vertices"), _role_lists(name, d, "\n  ")))
    return fields


def _parts(name, parts):
    """The list of the parts, each part's text in one str as it is made,
    from one template with its keys in sorted order."""
    lead, inner = "[\n    ", "\n      "
    for p in parts:
        # One str per part, not one for the whole list: a part can hold
        # most of the graph, and the parts are written as they are made.
        supp, core, n_vertices = _role_lists(name, p, inner)
        root = "" if p.root is None else f'{inner}"root": "{name(p.root)}",'
        yield (
            f'{lead}{{{inner}"core": {core},{inner}"kind": {_quote(p.kind)},'
            f'{inner}"n_vertices": {n_vertices},{root}{inner}"supp": {supp},'
            f'{inner}"vertices": {_strings(name, p._ids, inner)}\n    }}'
        )
        lead = ",\n    "
    yield "\n  ]" if parts else "[]"


def _unicyclic_fields(g, shape, a):
    name, fields = _shared_fields(g, shape, a, a.singular, a.independent_set, a.matching)
    fields.update(
        cycle=_strings(name, a.cycle.vertices, "\n  "),
        type=_quote(a.kind),
        witness='"' + name(a.witness) + '"' if a.witness is not None else "null",
        singular_reason=_quote(a.singular_reason),
        parts=_parts(name, a.parts),
    )
    return fields


_UNSUPPORTED = "error: only forests and graphs with exactly one cycle are supported"


def cmd_analyze(args):
    """analyze, with the cyclic collector paused from before the parse
    until the report is written.  At the vertex cap the parse and the
    analysis build millions of tuples, lists and sets, none of them in a
    reference cycle, which the collector would only rescan; it is left
    enabled or disabled as it was found."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        if args.verify:
            from .oracles import size_limit

            size_limit()  # a bad NULLDECOMP_MAX_N is reported before the read
        # The text is dropped once parsed, not held through the analysis.
        if args.format == "edges":
            g = parse_edge_list(_read_input(args.path))
        else:
            # Only m <= n is analyzed, so the decode may stop past n edges.
            g = parse_graph6(_read_input(args.path), _at_most_n_edges=True)
        shape = classify_shape(g) if g is not None else Shape.OTHER
        # The one branch on the shape: the analysis, its report fields,
        # the records that hold its roles, and the checker for --verify.
        if shape in (Shape.TREE, Shape.FOREST):
            analysis = _analyze_forest(g)
            fields = _forest_fields(g, shape, *analysis)
            records, checker = analysis[:1], "_tree_checks"
        elif shape != Shape.OTHER:
            analysis = _analyze_unicyclic(g)
            fields = _unicyclic_fields(g, shape, analysis)
            records, checker = analysis.parts, "_unicyclic_checks"
        else:
            print(_UNSUPPORTED, file=sys.stderr)
            return 3

        code = 0
        if args.verify:
            from . import sweeps

            checks = getattr(sweeps, checker)(g, analysis)
            verdicts = {k: _BOOLS[ok] for k, ok in checks.items()}
            fields["verification"] = _object(verdicts, "\n  ")
            if not all(checks.values()):
                code = 1

        if args.dot is not None:
            # A vertex of no record, as a cycle vertex of type II, is drawn plain.
            drawn = (Role.SUPPORT, Role.CORE, Role.N_VERTEX)
            roles = {v: r for rec in records for r, ids in zip(drawn, rec._by_role()) for v in ids}
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(export_dot(g, roles))

        del g  # the report, made as it is written, reads nothing of the graph
        sys.stdout.writelines(_object(fields, "\n"))
        sys.stdout.write("\n")
        return code
    finally:
        if enabled:
            gc.enable()


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
    from .oracles import size_limit

    limit = size_limit()
    if max_n > limit:
        raise TooLarge(
            f"verify refuses --max-n {max_n} > {limit}; set NULLDECOMP_MAX_N to override"
        )

    from .sweeps import cycle_sweep, tree_sweep, unicyclic_sweep

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
    from .oracles import size_limit

    size_limit()  # a bad NULLDECOMP_MAX_N is reported before any check
    from .fixtures import check_all

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
    p_an.set_defaults(run=cmd_analyze)

    p_ver = sub.add_parser("verify", help="random sweeps of the invariant checks")
    p_ver.add_argument("--kind", choices=("tree", "unicyclic", "cycle"), required=True)
    p_ver.add_argument("--count", type=_int_arg, default=200, help="instances (default 200)")
    p_ver.add_argument("--min-n", type=_int_arg, default=None, dest="min_n")
    p_ver.add_argument("--max-n", type=_int_arg, default=None, dest="max_n")
    p_ver.add_argument("--seed", type=_int_arg, default=0)
    p_ver.set_defaults(parser=p_ver, run=cmd_verify)

    p_fix = sub.add_parser("fixtures", help="recheck the bundled examples")
    p_fix.add_argument("--verbose", action="store_true", help="print every check row")
    p_fix.set_defaults(run=cmd_fixtures)

    return parser


def _unblock_stdout():
    """If stdout cannot take what it still buffers, send that to devnull,
    so the interpreter's final flush cannot fail and print a second error."""
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None):
    """Run one subcommand; the one place an error becomes an exit code and
    one line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        # A reader that left early shows up here, not in the exit flush.
        sys.stdout.flush()
    except BrokenPipeError as exc:
        _unblock_stdout()
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, ParseError, BadSizeGuard) as exc:
        _unblock_stdout()  # stdout may be what failed, as on a full disk
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EmptyGraph, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory: the input is too large for this process", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())

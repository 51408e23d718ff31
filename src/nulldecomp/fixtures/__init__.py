"""Bundled example graphs with frozen expected results.

Each fixture is an edge-list file plus an entry in expected.json holding
the values the analysis must reproduce: shape, nullity, the decomposition
by vertex name, alpha, nu, and for the unicyclic fixtures the cycle, the
type verdict, the singularity flag and the per-piece decompositions.
Some entries also carry known-good certificates (explicit maximum
independent sets or maximum matchings listed with the example) that are
validated against the graph.  check_fixture() recomputes everything and reports row by row;
the command line exposes it as `nulldecomp fixtures`.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from itertools import combinations

from ..graphs import Shape, _components, classify_shape, edge_inside, matching_defect
from ..graphs import parse_edge_list
from ..linalg import null_basis
from ..oracles import eg_set, max_independent_set
from ..trees import decompose
from ..unicyclic import analyze


def _read_text(filename):
    """A bundled file, read from this package's directory with plain open:
    importlib.resources would import tempfile and zipfile for it."""
    with open(os.path.join(os.path.dirname(__file__), filename), encoding="utf-8") as fh:
        return fh.read()


def expectations():
    """The frozen expected values, keyed by fixture name."""
    return json.loads(_read_text("expected.json"))


def fixture_names():
    return tuple(sorted(expectations()))


def load_fixture(name):
    """Parse one bundled fixture into a Graph (with vertex names attached)."""
    exp = expectations()
    if name not in exp:
        raise KeyError(f"unknown fixture {name!r}; have {', '.join(sorted(exp))}")
    return parse_edge_list(_read_text(exp[name]["file"]))


CheckRow = namedtuple("CheckRow", "label ok got want")


class FixtureReport(namedtuple("FixtureReport", "fixture rows")):
    __slots__ = ()

    @property
    def ok(self):
        return all(r.ok for r in self.rows)


def _names(g, ids):
    return sorted(g.name_of(v) for v in ids)


def _all_max_independent_sets(g):
    """Every maximum independent set: the alpha-subsets with no edge
    inside, alpha from the oracle.  Tiny graphs only."""
    alpha, _ = max_independent_set(g)
    return [s for s in combinations(range(g.n), alpha) if edge_inside(g, s) is None]


def _matching_rows(g, row, pairs, want_size, label):
    row(f"{label} is a matching", matching_defect(g, pairs) is None, True)
    row(f"{label} size", len(pairs), want_size)


def _independent_rows(g, row, chosen, want_size, label):
    row(f"{label} is independent", edge_inside(g, chosen) is None, True)
    row(f"{label} size", len(chosen), want_size)


def _decomposition_rows(g, row, label, got_supp, got_core, got_n, want):
    row(f"{label} supp", _names(g, got_supp), sorted(want.get("supp", [])))
    row(f"{label} core", _names(g, got_core), sorted(want.get("core", [])))
    row(f"{label} N-vertices", _names(g, got_n), sorted(want.get("n_vertices", [])))


def check_fixture(name):
    """Recompute everything for one fixture and compare to expected.json."""
    exp = expectations()[name]
    g = load_fixture(name)
    ids = {g.name_of(v): v for v in range(g.n)}
    rows = []

    def row(label, got, want):
        rows.append(CheckRow(label, got == want, str(got), str(want)))

    shape = classify_shape(g)
    row("shape", shape.value, exp["shape"])
    row("kernel dimension", null_basis(g).nullity, exp["nullity"])

    if shape == Shape.TREE:
        d = decompose(g)
        _decomposition_rows(
            g, row, "decomposition", d.supp, d.core, d.n_forest_vertices, exp
        )
        row("alpha", d.alpha, exp["alpha"])
        row("nu", d.nu, exp["nu"])
        if "eg" in exp:
            row("mismatched vertices", _names(g, eg_set(g)), sorted(exp["eg"]))
        if "max_independent_sets" in exp:
            got = {frozenset(_names(g, s)) for s in _all_max_independent_sets(g)}
            want = {frozenset(s) for s in exp["max_independent_sets"]}
            row(
                "all maximum independent sets",
                sorted(sorted(s) for s in got),
                sorted(sorted(s) for s in want),
            )
    else:
        a = analyze(g)
        row("cycle", [g.name_of(v) for v in a.cycle.vertices], exp["cycle"])
        row("type", a.kind, exp["type"])
        if exp["type"] == "I":
            row("witness", g.name_of(a.witness), exp["witness"])
        row("singular", a.singular, exp["singular"])
        row("composed nullity", a.nullity, exp["nullity"])
        row("alpha", a.alpha, exp["alpha"])
        row("nu", a.nu, exp["nu"])
        _independent_rows(
            g, row, a.independent_set, exp["alpha"], "computed independent set"
        )
        _matching_rows(g, row, a.matching, exp["nu"], "computed matching")
        if exp["type"] == "I":
            by_kind = {p.kind: p for p in a.parts}
            for kind in ("pendant", "rest"):
                p = by_kind[kind]
                _decomposition_rows(
                    g, row, kind, p.supp, p.core, p.n_vertices, exp[kind]
                )
        else:
            by_verts = {
                frozenset(_names(g, p.vertices)): p for p in a.parts
            }
            for want in exp["components"]:
                key = frozenset(want["vertices"])
                p = by_verts.get(key)
                label = "component {" + ",".join(sorted(want["vertices"])) + "}"
                if p is None:
                    row(label + " present", "missing", "present")
                    continue
                _decomposition_rows(
                    g, row, label, p.supp, p.core, p.n_vertices, want
                )
        if "pendant_supports" in exp:
            # The pendant trees are the components of G - E(C), and a
            # forest's kernel is the sum of its components' kernels, so one
            # kernel of the forest gives each tree's support.
            forest = g.without_edges(a.cycle.edges)
            support = null_basis(forest).support
            tree_of = {v: comp for comp in _components(forest) for v in comp}
            for root_name, want_supp in exp["pendant_supports"].items():
                got_supp = _names(g, [v for v in tree_of[ids[root_name]] if v in support])
                row(f"pendant tree at {root_name} supp", got_supp, sorted(want_supp))

    if "known_matching" in exp:
        pairs = [(ids[a], ids[b]) for a, b in exp["known_matching"]]
        _matching_rows(g, row, pairs, exp["nu"], "known matching")
    if "known_independent_set" in exp:
        chosen = {ids[x] for x in exp["known_independent_set"]}
        _independent_rows(g, row, chosen, exp["alpha"], "known independent set")
    return FixtureReport(fixture=name, rows=tuple(rows))


def check_all():
    """Check every bundled fixture; returns one report per fixture."""
    return tuple(check_fixture(name) for name in fixture_names())

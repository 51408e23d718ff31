"""Sweep plumbing: per-instance checkers and failure aggregation."""

import random
import sys
from dataclasses import replace

import pytest

from nulldecomp import Graph, SweepOutcome, analyze, decompose, graphs, random_tree
from nulldecomp.fixtures import load_fixture
from nulldecomp.randgraphs import random_unicyclic
from nulldecomp.sweeps import (
    CYCLE_INVARIANTS,
    TREE_INVARIANTS,
    UNICYCLIC_INVARIANTS,
    _certificates_valid,
    _tree_checks,
    _unicyclic_checks,
    check_cycle_instance,
    check_tree_instance,
    check_unicyclic_instance,
    cycle_graph,
    run_sweep,
)


def test_tree_checker_emits_every_invariant():
    t = Graph(4, [(0, 1), (0, 2), (0, 3)])
    checks = check_tree_instance(t)
    assert set(checks) == set(TREE_INVARIANTS)
    assert all(checks.values())
    # The kernel and the certificates are checked on forests as on unicyclic graphs.
    assert {
        "support equals kernel support",
        "nullity equals kernel nullity",
        "certificates valid and sized",
    } <= set(checks)


C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


@pytest.mark.parametrize(
    "independent, matching, alpha, nu, ok",
    [
        ({0, 2}, {(0, 1), (2, 3)}, 2, 2, True),
        ({0, 1}, {(0, 1), (2, 3)}, 2, 2, False),  # the set holds the edge 0-1
        ({0, 2}, {(0, 2), (3, 4)}, 2, 2, False),  # 0-2 is not an edge
        ({0, 2}, {(0, 1), (1, 2)}, 2, 2, False),  # vertex 1 is used twice
        ({0, 2}, {(0, 1), (2, 3)}, 3, 2, False),  # the set is not of size alpha
        ({0, 2}, {(0, 1), (2, 3)}, 2, 1, False),  # the matching is not of size nu
    ],
    ids=["valid", "edge-in-set", "non-edge", "reused-vertex", "alpha-size", "nu-size"],
)
def test_certificates_valid(independent, matching, alpha, nu, ok):
    assert _certificates_valid(C5, independent, matching, alpha, nu) is ok


def test_unicyclic_checker_emits_every_invariant():
    g = Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (0, 4)])
    checks = check_unicyclic_instance(g)
    assert set(checks) == set(UNICYCLIC_INVARIANTS)
    assert all(checks.values())


def test_cycle_checker():
    for n in (3, 4, 5, 8, 12):
        checks = check_cycle_instance(cycle_graph(n))
        assert set(checks) == set(CYCLE_INVARIANTS)
        assert all(checks.values())


def test_run_sweep_records_first_failure():
    corpus = [Graph(1), Graph(2, [(0, 1)]), Graph(3, [(0, 1), (1, 2)])]

    def checker(g):
        return {"always true": True, "two or more vertices": g.n >= 2}

    outcome = run_sweep(corpus, checker, ("always true", "two or more vertices"))
    assert outcome.tallies["always true"] == (3, 0)
    assert outcome.tallies["two or more vertices"] == (2, 1)
    assert not outcome.ok
    assert outcome.failures["two or more vertices"] == Graph(1)


def test_outcome_ok_when_no_failures():
    outcome = SweepOutcome(tallies={"x": (5, 0)}, failures={})
    assert outcome.ok


def test_checkers_build_at_most_two_subgraphs(monkeypatch):
    calls = {}
    for name in ("induced_subgraph", "remove_vertices", "connected_components", "pendant_trees"):
        real = getattr(graphs, name)

        def counted(*args, name=name, real=real):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        # Patch every module that holds the function, as the checkers
        # may reach it through their own imports.
        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("nulldecomp") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)

    rng = random.Random(71)
    trees = [random_tree(rng.randrange(1, 31), rng) for _ in range(30)]
    trees += [load_fixture(f) for f in ("fig1_T1", "fig1_T2", "fig2_tree")]
    unicyclic = [random_unicyclic(rng.randrange(3, 31), rng) for _ in range(30)]
    unicyclic += [load_fixture(f) for f in ("fig2_G", "fig2_H", "fig3", "fig4", "fig6", "fig7")]
    for g, checker in [(t, check_tree_instance) for t in trees] + [
        (g, check_unicyclic_instance) for g in unicyclic
    ]:
        calls.clear()
        assert all(checker(g).values())
        assert calls.get("induced_subgraph", 0) <= 2
        assert set(calls) <= {"induced_subgraph"}


def _corrupted_tree_checks(t, name, **fields):
    """The verdict on invariant name for t's decomposition with the given
    fields replaced, after checking that the true decomposition passes."""
    d = decompose(t)
    assert _tree_checks(t, d, frozenset(), frozenset())[name]
    return _tree_checks(t, replace(d, **fields), frozenset(), frozenset())[name]


P3 = Graph(3, [(0, 1), (1, 2)])  # Supp {0, 2}, Core {1}
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])  # every vertex an N-vertex


@pytest.mark.parametrize("t", [P3, P4])
def test_core_exclusion_fails_on_a_core_vertex_in_some_maximum_independent_set(t):
    # vertex 0 is in Supp of P3 and an N-vertex of P4
    assert not _corrupted_tree_checks(t, "core exclusion", core=frozenset({0}))


@pytest.mark.parametrize("moved", [1, 0])  # a Core vertex, a Supp vertex
def test_n_vertex_flexibility_fails_on_a_vertex_that_is_not_flexible(moved):
    n_part = frozenset({moved})
    assert not _corrupted_tree_checks(P3, "N-vertex flexibility", n_forest_vertices=n_part)


@pytest.mark.parametrize(
    "t, fields",
    [
        (P4, {"supp": frozenset({0}), "core": frozenset({1})}),  # S part has a perfect matching
        (  # odd N part
            P3,
            {"supp": frozenset(), "core": frozenset(), "n_forest_vertices": frozenset({0, 1, 2})},
        ),
        # the first S component is singular, the second is not
        (
            Graph(5, [(0, 1), (1, 2), (3, 4)]),
            {"supp": frozenset({0, 2, 3}), "core": frozenset({1, 4})},
        ),
    ],
    ids=["perfect-s-component", "unmatched-n-part", "second-s-component"],
)
def test_s_and_n_components_fail_on_the_wrong_matching(t, fields):
    assert not _corrupted_tree_checks(t, "S components singular, N components matched", **fields)


@pytest.mark.parametrize("name", ["fig6", "fig4"])
def test_type_witness_fails_on_the_wrong_verdict(name):
    g = load_fixture(name)
    a = analyze(g)
    assert _unicyclic_checks(g, a)["type witness agrees with matching oracle"]
    if a.kind == "I":
        # type II needs every root missable, and the witness is not
        wrong = [replace(a, kind="II")]
        # any other cycle vertex missable in its pendant tree as witness
        wrong += [
            replace(a, witness=v)
            for v in a.cycle.vertices
            if v != a.witness and g.degree(v) == 2
        ]
    else:
        wrong = [replace(a, kind="I", witness=v) for v in a.cycle.vertices]
    assert wrong
    for bad in wrong:
        assert not _unicyclic_checks(g, bad)["type witness agrees with matching oracle"]

"""Sweep plumbing: per-instance checkers and failure aggregation."""

import pytest

from nulldecomp import Graph, SweepOutcome
from nulldecomp.sweeps import (
    CYCLE_INVARIANTS,
    TREE_INVARIANTS,
    UNICYCLIC_INVARIANTS,
    _certificates_valid,
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

"""Metamorphic checks: renaming the vertices moves the answers with them."""

import random

import pytest

from nulldecomp import Graph, analyze, decompose, random_tree, random_unicyclic
from refgraphs import pendant_tree

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(max_examples=150, derandomize=True, deadline=None, database=None)


def relabel(g, p):
    """g with vertex v renamed p[v]."""
    return Graph(g.n, [(p[u], p[v]) for u, v in g.edges])


@st.composite
def forests_and_permutations(draw):
    n = draw(st.integers(1, 40))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    t = random_tree(n, rng)
    # Drop each edge with probability 1/4, so forests show up as well as trees.
    f = Graph(n, [e for e in sorted(t.edges) if rng.random() >= 0.25])
    return f, draw(st.permutations(range(n)))


@st.composite
def unicyclic_and_permutations(draw):
    n = draw(st.integers(3, 40))
    g = random_unicyclic(n, random.Random(draw(st.integers(0, 2**32 - 1))))
    return g, draw(st.permutations(range(n)))


@SETTINGS
@given(forests_and_permutations())
def test_forest_decomposition_moves_with_the_relabelling(case):
    f, p = case
    d = decompose(f)
    moved = decompose(relabel(f, p))
    assert moved.supp == {p[v] for v in d.supp}
    assert moved.core == {p[v] for v in d.core}
    assert moved.n_forest_vertices == {p[v] for v in d.n_forest_vertices}


@SETTINGS
@given(unicyclic_and_permutations())
def test_unicyclic_counts_survive_the_relabelling(case):
    g, p = case
    h = relabel(g, p)
    a = analyze(g)
    b = analyze(h)
    assert (b.kind, b.singular, b.nullity, b.alpha, b.nu, b.cycle.length) == (
        a.kind,
        a.singular,
        a.nullity,
        a.alpha,
        a.nu,
        a.cycle.length,
    )
    assert set(b.cycle.vertices) == {p[v] for v in a.cycle.vertices}
    moved = {p[r]: {p[v] for v in pendant_tree(g, a.cycle, r)[1]} for r in a.cycle.vertices}
    assert {r: set(pendant_tree(h, b.cycle, r)[1]) for r in b.cycle.vertices} == moved

"""Seeded generators: the linear non-edge walk keeps the listing's draws,
and the corpora keep their graphs."""

import hashlib
import random

import pytest

from nulldecomp import (
    Graph,
    Shape,
    classify_shape,
    randgraphs,
    random_tree,
    random_unicyclic,
    tree_corpus,
    unicyclic_corpus,
)
from nulldecomp.sweeps import cycle_graph, cycle_sweep


def listed_unicyclic(n, rng):
    """The quadratic reference: list every non-edge of the tree, pick one."""
    t = random_tree(n, rng)
    non_edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if v not in t.neighbors(u)
    ]
    extra = non_edges[rng.randrange(len(non_edges))]
    return Graph(n, list(t.edges) + [extra])


def test_random_unicyclic_matches_the_listing():
    # The same graphs, vertex by vertex, from the same draws.
    sizes = random.Random(3)
    walked, listed = random.Random(89), random.Random(89)
    for _ in range(3000):
        n = sizes.randrange(3, 40)
        g, want = random_unicyclic(n, walked), listed_unicyclic(n, listed)
        assert g == want
        assert g.m == want.m == n
        assert [set(s) for s in g._adj] == [set(s) for s in want._adj]
    assert walked.random() == listed.random()  # both streams drew the same


def test_unicyclic_corpus_builds_one_graph_per_graph_it_keeps(monkeypatch):
    # No Graph of a candidate's tree, and none of a rejected candidate.
    built, drawn = [], []
    fill, candidate = Graph._fill, randgraphs._candidate

    def counted_fill(g, n, pairs, *rest):
        built.append((n, len(pairs)))
        fill(g, n, pairs, *rest)

    def counted_candidate(n, rng):
        drawn.append(n)
        return candidate(n, rng)

    monkeypatch.setattr(Graph, "_fill", counted_fill)
    monkeypatch.setattr(randgraphs, "_candidate", counted_candidate)
    corpus = unicyclic_corpus(40, 20, 60, 5)
    assert built == [(g.n, g.n) for g in corpus]
    assert len(drawn) > 2 * len(corpus)  # type II is rare at these sizes


def test_random_unicyclic_at_100000_vertices():
    g = random_unicyclic(10**5, random.Random(97))
    assert len(g.edges) == g.n == 10**5
    assert classify_shape(g) == Shape.UNICYCLIC


def _digest(corpus):
    h = hashlib.sha256()
    for g in corpus:
        h.update(repr((g.n, sorted(g.edges))).encode())
    return h.hexdigest()


def test_corpora_keep_their_graphs():
    # Digests of the corpora as they were when the sweeps drew them as a
    # list; drawing them one at a time for the sweeps must not change them.
    assert _digest(tree_corpus(200, 1, 40, 11)) == (
        "6b3c68155a4ee537700b35246a521bdf1824813e9f47a2a7f7d92b128ca51df4"
    )
    assert _digest(unicyclic_corpus(200, 3, 40, 11)) == (
        "62baf48756e964fbde84f3d98ca14a580cf01bc85ece969655bbec5b3de798d7"
    )


def test_unicyclic_corpus_refuses_fewer_than_three_vertices():
    with pytest.raises(ValueError, match="at least three vertices"):
        unicyclic_corpus(1, 2, 5, 0)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_cycles_refuse_fewer_than_three_vertices(n):
    # Not SelfLoop at n = 1 or DuplicateEdge at n = 2 from a graph they built.
    with pytest.raises(ValueError, match="^cycles need at least three vertices$"):
        cycle_graph(n)
    with pytest.raises(ValueError, match="^cycles need at least three vertices$"):
        cycle_sweep(n, 5)
    assert cycle_graph(3).m == 3 and cycle_sweep(3, 5).ok

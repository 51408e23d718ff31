"""Seeded generators: the linear non-edge walk keeps the listing's draws."""

import random

from nulldecomp import Graph, Shape, classify_shape, random_tree, random_unicyclic


def listed_unicyclic(n, rng):
    """The quadratic reference: list every non-edge of the tree, pick one."""
    t = random_tree(n, rng)
    non_edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not t.has_edge(u, v)
    ]
    extra = non_edges[rng.randrange(len(non_edges))]
    return Graph(n, list(t.edges) + [extra])


def test_random_unicyclic_matches_the_listing():
    sizes = random.Random(3)
    walked, listed = random.Random(89), random.Random(89)
    for _ in range(3000):
        n = sizes.randrange(3, 40)
        assert random_unicyclic(n, walked) == listed_unicyclic(n, listed)
    assert walked.random() == listed.random()  # both streams drew the same


def test_random_unicyclic_at_100000_vertices():
    g = random_unicyclic(10**5, random.Random(97))
    assert len(g.edges) == g.n == 10**5
    assert classify_shape(g) == Shape.UNICYCLIC

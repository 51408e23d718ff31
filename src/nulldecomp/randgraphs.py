"""Seeded random trees and unicyclic graphs for sweeps and tests.

Trees are uniform over labeled trees (Pruefer sequences); a unicyclic
graph is a tree plus one uniformly chosen non-edge, which always closes
a single cycle of length at least three.  The corpus builder nudges the
type I / type II mix toward balance by rejection sampling on the type;
how far it gets depends on the sizes, since type II grows rare as n
grows.  The sweeps draw their graphs one at a time from the same seeded
stream that tree_corpus and unicyclic_corpus list.

A candidate stays edge lists until it is kept.  The Pruefer decoding
roots its tree at n - 1, which is a walk of the candidate, and its type
is read off that walk by graphs' cycle rule and unicyclic's re-rooting,
as classify_type reads it off its own walk.  Only the kept candidate
becomes a Graph; no Graph of a candidate's tree is built.
"""

from __future__ import annotations

import heapq
import random

from .graphs import Graph, _closed_cycle
from .unicyclic import _rooted

_TRIES = 25


def _pruefer_edges(n, rng):
    """The edges of a uniform labeled tree on n >= 2 vertices, decoded
    from a random Pruefer sequence, as (v, parent of v) pairs in a
    rooting at n - 1: each v is a leaf once the edges before it are
    gone, so the reversed list names each vertex after its parent."""
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
    v = heapq.heappop(leaves)  # n - 1, never the smaller of two leaves
    edges.append((u, v))
    return edges


def random_tree(n, rng):
    """Uniform labeled tree on n >= 1 vertices."""
    if n < 1:
        raise ValueError("trees need at least one vertex")
    if n == 1:
        return Graph(1)
    return Graph(n, _pruefer_edges(n, rng))


def _candidate(n, rng):
    """(tree, pairs, (u, v)): a random tree's edges as _pruefer_edges
    lists them, the same edges as a set of pairs a < b, and a uniform
    non-edge u < v: the k-th of the n(n-1)/2 - (n-1) non-edges in
    lexicographic order, found by walking the rows u, in linear time,
    off the pair set and each row's count of tree edges."""
    if n < 3:
        raise ValueError("unicyclic graphs need at least three vertices")
    tree = _pruefer_edges(n, rng)
    pairs = set()
    higher = [0] * n  # each vertex's tree neighbours above it
    for a, b in tree:
        key = (a, b) if a < b else (b, a)
        pairs.add(key)
        higher[key[0]] += 1
    k = rng.randrange(n * (n - 1) // 2 - (n - 1))
    for u in range(n):
        row = n - 1 - u - higher[u]
        if k < row:
            break
        k -= row
    for v in range(u + 1, n):
        if (u, v) not in pairs:
            if k == 0:
                break
            k -= 1
    return tree, pairs, (u, v)


def _unicyclic(n, pairs, extra):
    """The Graph of a candidate: the tree's pairs, then the non-edge."""
    return Graph._checked(n, [*pairs, extra])


def random_unicyclic(n, rng):
    """Random unicyclic graph: a tree with one extra uniform non-edge."""
    return _unicyclic(n, *_candidate(n, rng)[1:])


def _kind(n, tree, extra):
    """The type of a candidate, read off the rooting at n - 1 that the
    Pruefer decoding gives its tree."""
    parent = [-1] * n
    for v, p in tree:
        parent[v] = p
    order = [n - 1, *(v for v, _ in reversed(tree))]
    return _rooted(_closed_cycle(parent, *extra), (order, parent))[-1].kind


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
        want = "II" if i % 2 else "I"
        for _ in range(_TRIES):
            n = rng.randrange(n_min, n_max + 1)
            tree, pairs, extra = _candidate(n, rng)
            if _kind(n, tree, extra) == want:
                break
        yield _unicyclic(n, pairs, extra)


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

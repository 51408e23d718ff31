"""Brute-force combinatorial baselines, independent of the formula paths.

These exist to cross-check the closed formulas, so they avoid the null
decomposition machinery entirely: independence via branch-and-bound over
bitmasks, and matchings by Berge augmentation, which grows a matching
along augmenting paths until an exhaustive search finds none.  Whether
a set or a matching is valid for a graph is not judged here: that rule
is graphs.edge_inside and graphs.matching_defect.

The independence search reduces before it branches: a vertex with at
most one live neighbour is taken at once.  That rule holds on every
graph (it is not the forest theory under test), and it keeps forests
and unicyclic graphs cheap well past the size guard.

Everything here is desk-scale.  Instances above the size guard raise
TooLarge; set NULLDECOMP_MAX_N to lift the default of 32.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import NotATree, TooLarge, UnknownVertex
from .graphs import Shape, classify_shape, remove_vertices

_DEFAULT_MAX_N = 32


def size_limit():
    """The size guard; raises ValueError when NULLDECOMP_MAX_N is not an integer."""
    raw = os.environ.get("NULLDECOMP_MAX_N", str(_DEFAULT_MAX_N))
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"NULLDECOMP_MAX_N must be an integer, got {raw!r}") from None


def _guard(g, op):
    limit = size_limit()
    if g.n > limit:
        raise TooLarge(
            f"{op} refuses n={g.n} > {limit}; set NULLDECOMP_MAX_N to override"
        )


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges, stored as (u, v) tuples with u < v."""

    edges: frozenset

    @property
    def size(self):
        return len(self.edges)


def max_independent_set(g):
    """(size, one witness set), by branch and bound.

    Each search state first takes every vertex with at most one live
    neighbour and deletes that neighbour: some maximum independent set
    of any graph contains such a vertex (the degree <= 1 reduction), so
    a forest never branches.  What is left has minimum degree 2; the
    search branches on a maximum-degree vertex of it: either exclude it,
    or include it and delete its closed neighborhood.  The search is
    depth-first on an explicit stack, not recursive.
    """
    _guard(g, "max_independent_set")
    n = g.n
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best, best_set = 0, 0
    # Entries are (avail, size, chosen).  The include branch is pushed
    # last, so it is searched first; the witness depends on that order.
    stack = [((1 << n) - 1, 0, 0)]
    while stack:
        avail, size, chosen = stack.pop()
        # Scan until a pass takes no vertex: only then are its degrees,
        # and so its maximum-degree vertex, those of the final avail.
        taken = True
        while taken:
            taken = False
            v_best = -1
            d_best = -1
            a = avail
            while a:
                low = a & -a
                a ^= low
                v = low.bit_length() - 1
                live = adj[v] & avail
                d = live.bit_count()
                if d <= 1:
                    avail &= ~(low | live)
                    a &= ~live
                    chosen |= low
                    size += 1
                    taken = True
                elif d > d_best:
                    v_best, d_best = v, d
        if size + avail.bit_count() <= best:
            continue
        if not avail:
            best, best_set = size, chosen
            continue
        bit = 1 << v_best
        stack.append((avail & ~bit, size, chosen))
        stack.append((avail & ~(adj[v_best] | bit), size + 1, chosen | bit))
    witness = frozenset(v for v in range(n) if (best_set >> v) & 1)
    return best, witness


def augmenting_path(g, partner):
    """An augmenting path as a vertex list, or None if there is none.

    partner maps each matched vertex to its mate.  Every simple
    alternating path from each free vertex is explored with an explicit
    stack, so the search is exact on any graph.
    """
    for start in range(g.n):
        if start in partner:
            continue
        path = [start]
        visited = {start}
        stack = [iter(g.neighbors(start))]
        while stack:
            for w in stack[-1]:
                if w in visited:
                    continue
                x = partner.get(w)
                if x is None:
                    path.append(w)
                    return path
                path.append(w)
                path.append(x)
                visited.add(w)
                visited.add(x)
                stack.append(iter(g.neighbors(x)))
                break
            else:
                stack.pop()
                if stack:
                    visited.discard(path.pop())
                    visited.discard(path.pop())
    return None


def max_matching(g):
    """Maximum matching: augment until no augmenting path is left (Berge)."""
    _guard(g, "max_matching")
    partner = {}
    while (path := augmenting_path(g, partner)) is not None:
        for i in range(0, len(path), 2):
            u, v = path[i], path[i + 1]
            partner[u] = v
            partner[v] = u
    return Matching(frozenset((u, v) for u, v in partner.items() if u < v))


def eg_set(g):
    """Vertices missed by some maximum matching, via deletion: nu(G - v) = nu(G)."""
    _guard(g, "eg_set")
    base = max_matching(g).size
    out = set()
    for v in range(g.n):
        sub, _ = remove_vertices(g, {v})
        if max_matching(sub).size == base:
            out.add(v)
    return frozenset(out)


def mismatched_in(t, v):
    """True iff some maximum matching of the tree t misses v.

    A single-vertex tree is mismatched at its vertex.
    """
    if classify_shape(t) != Shape.TREE:
        raise NotATree("mismatched_in expects a tree")
    if not 0 <= v < t.n:
        raise UnknownVertex(f"vertex {v} outside 0..{t.n - 1}")
    sub, _ = remove_vertices(t, {v})
    return max_matching(sub).size == max_matching(t).size

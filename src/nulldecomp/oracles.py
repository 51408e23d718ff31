"""Brute-force combinatorial baselines, independent of the formula paths.

These exist to cross-check the closed formulas, so they avoid the null
decomposition machinery entirely: independence via branch-and-bound over
bitmasks, and matchings by Edmonds' blossom algorithm (Edmonds, "Paths,
trees, and flowers", 1965).  Whether a set or a matching is valid for a
graph is not judged here: that rule is graphs.edge_inside and
graphs.matching_defect.

The independence search reduces before it branches: a vertex with at
most one live neighbour is taken at once.  That rule holds on every
graph (it is not the forest theory under test), and it keeps forests
and unicyclic graphs cheap well past the size guard.

max_independent_set(g, removed) searches g with the removed vertices
taken out of the start mask, so alpha(G - S) and alpha(G - N[v]) need
no subgraph, and its witness is in g's own ids.  _max_independent_set
searches given bitmasks, so the many searches of one instance's checks,
all on the same graph, build them once.

max_matching grows a greedy maximal matching by Edmonds searches until
one finds no augmenting path; each search grows an alternating forest
from every free vertex and shrinks the odd cycles it closes into
blossoms, so it is polynomial on every graph.  The search that finds no
path also gives the EG set {v : nu(G - v) = nu(G)}: it is the set of
outer vertices of that search, blossom vertices included, which is the
Gallai-Edmonds set D(G) (Lovasz and Plummer, Matching Theory, 1986).
eg_set reads it off the last search of its own growth, and _grow, the
unguarded twin of max_matching and eg_set, returns both the matching
and that set.  Whether some maximum matching of a tree misses v is the
question v in eg_set(t).

Everything here is desk-scale.  Instances above the size guard raise
TooLarge; set NULLDECOMP_MAX_N to lift the default of 32.  Only the
independence search is exponential; the guard covers the matchings too.
A NULLDECOMP_MAX_N that is not an integer raises BadSizeGuard, which is
both a ValueError and a NullDecompError, on every read of the guard.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from itertools import compress

from .errors import BadSizeGuard, TooLarge, UnknownVertex
from .graphs import _decimal

_DEFAULT_MAX_N = 32


def size_limit():
    """The size guard; raises BadSizeGuard, a ValueError, when
    NULLDECOMP_MAX_N is not an integer, or is a numeral too long for
    int(), which is not echoed."""
    raw = os.environ.get("NULLDECOMP_MAX_N")
    if raw is None:
        return _DEFAULT_MAX_N
    try:
        limit = _decimal(raw)
    except ValueError:
        raise BadSizeGuard(
            "NULLDECOMP_MAX_N is a numeral longer than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    if limit is None:
        raise BadSizeGuard(f"NULLDECOMP_MAX_N must be an integer, got {raw!r}")
    return limit


def _guard(g, op):
    limit = size_limit()
    if g.n > limit:
        raise TooLarge(
            f"{op} refuses n={g.n} > {limit}; set NULLDECOMP_MAX_N to override"
        )


class Matching(namedtuple("Matching", "edges")):
    """A set of pairwise disjoint edges, stored as (u, v) tuples with u < v."""

    __slots__ = ()

    @property
    def size(self):
        return len(self.edges)


def _bitmasks(g):
    """g's adjacency as one bitmask per vertex, past the size guard."""
    _guard(g, "max_independent_set")
    return [sum(1 << w for w in nbrs) for nbrs in g._adj]


def max_independent_set(g, removed=()):
    """(size, one witness set) of g minus the vertices in removed, by
    branch and bound.  The witness is in g's ids.

    Each search state first takes every vertex with at most one live
    neighbour and deletes that neighbour: some maximum independent set
    of any graph contains such a vertex (the degree <= 1 reduction), so
    a forest never branches.  What is left has minimum degree 2; the
    search branches on a maximum-degree vertex of it: either exclude it,
    or include it and delete its closed neighborhood.  The search is
    depth-first on an explicit stack, not recursive.
    """
    return _max_independent_set(_bitmasks(g), removed)


def _max_independent_set(adj, removed=()):
    """max_independent_set of the graph with bitmask adjacency adj."""
    n = len(adj)
    start = (1 << n) - 1
    for v in removed:
        if not 0 <= v < n:
            raise UnknownVertex(f"vertex {v} outside 0..{n - 1}")
        start &= ~(1 << v)
    best, best_set = 0, 0
    # Entries are (avail, size, chosen).  The include branch is pushed
    # last, so it is searched first; the witness depends on that order.
    stack = [(start, 0, 0)]
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
    witness = []
    while best_set:
        low = best_set & -best_set
        best_set ^= low
        witness.append(low.bit_length() - 1)
    return best, frozenset(witness)


def _search(g, mate):
    """One Edmonds search for an augmenting path of the matching mate.

    mate[v] is v's mate, or -1 where the matching misses v.  The search
    grows an alternating forest from every free vertex at once: each is
    the outer root of its own tree, and a matched vertex that an outer
    vertex reaches becomes inner, its mate outer.  An edge between two
    outer vertices of one tree closes an odd cycle, which is shrunk into
    a blossom: base maps each of its vertices to the blossom's base, and
    every one of them is outer from then on.  An edge between two outer
    vertices of different trees closes an augmenting path: mate is
    flipped along it and the search returns None.  A search that finds
    no path returns the set of its outer vertices.
    """
    adj = g._adj
    n = g.n
    base = list(range(n))
    # parent: an inner vertex's outer predecessor; a blossom also sets it
    # on its outer vertices, so a path can run round the blossom either way.
    parent = [-1] * n
    root = [-1] * n  # the free vertex whose tree holds v; -1 outside the forest
    outer = [False] * n
    queue = [v for v, m in enumerate(mate) if m < 0]
    for v in queue:
        root[v] = v
        outer[v] = True
    for v in queue:  # blossoms and new outer vertices append to it
        for w in adj[v]:
            if root[w] < 0:  # matched, since every free vertex is a root
                x = mate[w]
                parent[w] = v
                root[w] = root[x] = root[v]
                outer[x] = True
                queue.append(x)
            elif not outer[w] or base[v] == base[w]:
                continue
            elif root[w] != root[v]:
                for x, y in ((v, w), (w, v)):
                    # Match x to y and flip the path from x to its root.
                    m = mate[x]
                    mate[x] = y
                    while m >= 0:
                        p = parent[m]
                        after = mate[p]
                        mate[m] = p
                        mate[p] = m
                        m = after
                return None
            else:
                b = _lowest_common_base(v, w, base, mate, parent)
                shrunk = set()
                for x, child in ((v, w), (w, v)):
                    while base[x] != b:
                        shrunk.add(base[x])
                        shrunk.add(base[mate[x]])
                        parent[x] = child
                        child = mate[x]
                        x = parent[child]
                for u in range(n):
                    if base[u] in shrunk:
                        base[u] = b
                        if not outer[u]:
                            outer[u] = True
                            queue.append(u)
    return frozenset(compress(range(n), outer))


def _lowest_common_base(v, w, base, mate, parent):
    """The base of the blossom where the tree paths from v and w to their
    common root meet."""
    seen = set()
    while True:
        v = base[v]
        seen.add(v)
        if mate[v] < 0:
            break
        v = parent[mate[v]]
    while (w := base[w]) not in seen:
        w = parent[mate[w]]
    return w


def _grow(g):
    """A maximum matching of g as a mate list, and the outer vertices of
    the search that found no augmenting path for it.

    Growth starts from the greedy maximal matching over the sorted
    edges, which leaves fewer augmentations to find; Berge's theorem
    certifies the result whatever the start.
    """
    mate = [-1] * g.n
    for u, v in sorted(g.edges):
        if mate[u] < 0 and mate[v] < 0:
            mate[u] = v
            mate[v] = u
    while (outer := _search(g, mate)) is None:
        pass
    return mate, outer


def max_matching(g):
    """Maximum matching: augment until a search finds no augmenting path."""
    _guard(g, "max_matching")
    mate, _ = _grow(g)
    return Matching(frozenset((u, v) for u, v in enumerate(mate) if u < v))


def eg_set(g):
    """Vertices missed by some maximum matching: those with nu(G - v) = nu(G).

    They are the outer vertices of the last search of max_matching's
    growth, the one that finds no augmenting path.
    """
    _guard(g, "eg_set")
    return _grow(g)[1]

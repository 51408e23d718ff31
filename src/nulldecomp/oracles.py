"""Brute-force combinatorial baselines, independent of the formula paths.

These exist to cross-check the closed formulas, so they avoid the null
decomposition machinery entirely: independence via branch-and-bound over
bitmasks, and matchings by Berge augmentation, which starts from a
greedy maximal matching and grows it along augmenting paths until an
exhaustive search finds none.  Whether a set or a matching is valid for
a graph is not judged here: that rule is graphs.edge_inside and
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

The deletion test nu(G - v) = nu(G), behind eg_set, takes one maximum
matching M of G and at most one alternating search per vertex: v passes
if M misses it, and otherwise iff M without v's edge has an augmenting
path in G - v, which by Berge's theorem can only start at v's former
mate.  No subgraph is built and no second matching is grown, and
_eg_set takes a maximum matching its caller already has.  Whether some
maximum matching of a tree misses v is the question v in eg_set(t).

Everything here is desk-scale.  Instances above the size guard raise
TooLarge; set NULLDECOMP_MAX_N to lift the default of 32.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

from .errors import TooLarge, UnknownVertex
from .graphs import _decimal

_DEFAULT_MAX_N = 32


def size_limit():
    """The size guard; raises ValueError when NULLDECOMP_MAX_N is not an
    integer, or is a numeral too long for int(), which is not echoed."""
    raw = os.environ.get("NULLDECOMP_MAX_N")
    if raw is None:
        return _DEFAULT_MAX_N
    try:
        limit = _decimal(raw)
    except ValueError:
        raise ValueError(
            "NULLDECOMP_MAX_N is a numeral longer than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    if limit is None:
        raise ValueError(f"NULLDECOMP_MAX_N must be an integer, got {raw!r}")
    return limit


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


def _augmenting_path_from(g, partner, start, visited):
    """An augmenting path from the free vertex start, or None.

    Every simple alternating path from start that avoids the vertices in
    visited (start among them) is explored with an explicit stack, so the
    search is exact on any graph.  The search marks its path in visited.
    """
    adj = g._adj
    path = [start]
    stack = [iter(adj[start])]
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
            stack.append(iter(adj[x]))
            break
        else:
            stack.pop()
            if stack:
                visited.discard(path.pop())
                visited.discard(path.pop())
    return None


def augmenting_path(g, partner):
    """An augmenting path as a vertex list, or None if there is none.

    partner maps each matched vertex to its mate.  Each free vertex in
    turn starts an exhaustive alternating-path search.
    """
    for start in range(g.n):
        if start not in partner:
            path = _augmenting_path_from(g, partner, start, {start})
            if path is not None:
                return path
    return None


def max_matching(g):
    """Maximum matching: augment until no augmenting path is left (Berge).

    The search starts from the greedy maximal matching over the sorted
    edges, which leaves fewer augmentations to find; Berge's theorem
    certifies the result whatever the start.
    """
    _guard(g, "max_matching")
    partner = {}
    for u, v in sorted(g.edges):
        if u not in partner and v not in partner:
            partner[u] = v
            partner[v] = u
    while (path := augmenting_path(g, partner)) is not None:
        for i in range(0, len(path), 2):
            u, v = path[i], path[i + 1]
            partner[u] = v
            partner[v] = u
    return Matching(frozenset((u, v) for u, v in partner.items() if u < v))


def _partner(matching):
    """The mate of each vertex a matching covers."""
    partner = {}
    for u, v in matching.edges:
        partner[u] = v
        partner[v] = u
    return partner


def _missable(g, partner, v):
    """nu(G - v) == nu(G), given a maximum matching of g as partner.

    If the matching misses v it is a matching of G - v.  Otherwise v's
    mate u loses its edge; what is left has size nu(G) - 1 in G - v, and
    it is maximum there unless an augmenting path exists (Berge).  Such
    a path ends at u: one between two other free vertices avoids v and
    u, so it would augment the maximum matching in G.  Its other end is
    a vertex the matching misses, so a perfect matching rules it out;
    otherwise one search, from u with v blocked, decides.  The search
    never reads the mates of u and v, which start out visited, so the
    edge uv need not be taken out of partner.
    """
    u = partner.get(v)
    if u is None:
        return True
    if len(partner) == g.n:
        return False
    return _augmenting_path_from(g, partner, u, {u, v}) is not None


def eg_set(g):
    """Vertices missed by some maximum matching: those with nu(G - v) = nu(G).

    One maximum matching M of g, then per vertex the test of _missable:
    a vertex M misses is in the set, and a matched one is in it iff an
    augmenting path for M minus its edge starts at its mate and avoids it.
    """
    _guard(g, "eg_set")
    return _eg_set(g, max_matching(g))


def _eg_set(g, matching):
    """eg_set, given a maximum matching of g."""
    partner = _partner(matching)
    return frozenset(v for v in range(g.n) if _missable(g, partner, v))


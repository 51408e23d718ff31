"""Brute-force combinatorial baselines, independent of the formula paths.

These exist to cross-check the closed formulas, so they avoid the null
decomposition machinery entirely: independence via branch-and-bound over
bitmasks, matchings via augmenting paths with an odd-cycle case split.

Everything here is desk-scale.  Instances above the size guard raise
TooLarge; set NULLDECOMP_MAX_N to lift the default of 32.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import NotATree, TooLarge, UnknownVertex
from .graphs import (
    Shape,
    classify_shape,
    connected_components,
    find_cycle,
    remove_vertices,
    two_coloring,
)

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

    def is_valid_for(self, g):
        seen = set()
        for u, v in self.edges:
            if not g.has_edge(u, v):
                return False
            if u in seen or v in seen:
                return False
            seen.add(u)
            seen.add(v)
        return True


def max_independent_set(g):
    """(size, one witness set), by branch and bound.

    Branches on a maximum-degree vertex: either exclude it, or include it
    and delete its closed neighborhood.  Isolated leftovers are taken
    wholesale.
    """
    _guard(g, "max_independent_set")
    n = g.n
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = [0, 0]  # size, chosen mask

    def expand(avail, size, chosen):
        if size + avail.bit_count() <= best[0]:
            return
        v_best = -1
        d_best = -1
        a = avail
        while a:
            low = a & -a
            v = low.bit_length() - 1
            a ^= low
            d = (adj[v] & avail).bit_count()
            if d > d_best:
                v_best, d_best = v, d
        if d_best <= 0:
            best[0] = size + avail.bit_count()
            best[1] = chosen | avail
            return
        bit = 1 << v_best
        expand(avail & ~(adj[v_best] | bit), size + 1, chosen | bit)
        expand(avail & ~bit, size, chosen)

    expand((1 << n) - 1 if n else 0, 0, 0)
    witness = frozenset(v for v in range(n) if (best[1] >> v) & 1)
    return best[0], witness


def _kuhn_matching(g, colors):
    """Maximum matching of a bipartite graph by augmenting-path search."""
    match = [-1] * g.n

    def try_augment(u, seen):
        for w in g.neighbors(u):
            if w in seen:
                continue
            seen.add(w)
            if match[w] == -1 or try_augment(match[w], seen):
                match[w] = u
                match[u] = w
                return True
        return False

    for u in range(g.n):
        if colors[u] == 0 and match[u] == -1:
            try_augment(u, set())
    return {(min(u, match[u]), max(u, match[u])) for u in range(g.n) if match[u] != -1}


def _exhaustive_matching(g):
    """Exact matching on arbitrary small graphs: branch on the lowest vertex."""
    n = g.n
    nbrs = [sorted(g.neighbors(v)) for v in range(n)]
    memo = {}

    def best(mask):
        if mask == 0:
            return 0
        got = memo.get(mask)
        if got is not None:
            return got[0]
        v = (mask & -mask).bit_length() - 1
        size = best(mask & ~(1 << v))
        choice = None
        for w in nbrs[v]:
            if (mask >> w) & 1:
                s = 1 + best(mask & ~(1 << v) & ~(1 << w))
                if s > size:
                    size, choice = s, w
        memo[mask] = (size, choice)
        return size

    full = (1 << n) - 1
    best(full)
    edges = set()
    mask = full
    while mask:
        v = (mask & -mask).bit_length() - 1
        _, choice = memo[mask]
        if choice is None:
            mask &= ~(1 << v)
        else:
            edges.add((v, choice))
            mask &= ~(1 << v) & ~(1 << choice)
    return edges


def _component_matching(comp):
    colors = two_coloring(comp)
    if colors is not None:
        return _kuhn_matching(comp, colors)
    if len(comp.edges) == comp.n:
        # Connected, one odd cycle.  Every matching omits at least one
        # cycle edge, so deleting each in turn and matching the tree is
        # exact; keep the best.
        cyc = find_cycle(comp)
        best = None
        verts = cyc.vertices
        for k in range(cyc.length):
            a, b = verts[k], verts[(k + 1) % cyc.length]
            tree = comp.without_edges([(a, b)])
            m = _kuhn_matching(tree, two_coloring(tree))
            if best is None or len(m) > len(best):
                best = m
        return best
    return _exhaustive_matching(comp)


def max_matching(g):
    """Maximum matching; certified by the absence of augmenting paths."""
    _guard(g, "max_matching")
    pairs = set()
    for comp, label_map in connected_components(g):
        for u, v in _component_matching(comp):
            a, b = label_map[u], label_map[v]
            pairs.add((min(a, b), max(a, b)))
    matching = Matching(frozenset(pairs))
    if has_augmenting_path(g, matching):
        raise AssertionError("matching is not maximum: augmenting path found")
    return matching


def has_augmenting_path(g, matching):
    """Exhaustive alternating-path search (Berge's criterion)."""
    partner = {}
    for u, v in matching.edges:
        partner[u] = v
        partner[v] = u
    free = [v for v in range(g.n) if v not in partner]

    def search(start):
        visited = {start}

        def step(u):
            for w in g.neighbors(u):
                if w in visited or partner.get(u) == w:
                    continue
                if w not in partner:
                    return True
                x = partner[w]
                if x in visited:
                    continue
                visited.add(w)
                visited.add(x)
                if step(x):
                    return True
                visited.discard(w)
                visited.discard(x)
            return False

        return step(start)

    return any(search(s) for s in free)


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

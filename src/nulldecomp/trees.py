"""Null decomposition of forests, and the closed counts it yields.

A forest splits along its adjacency kernel: Supp holds the vertices with
a nonzero coordinate in some kernel vector, Core their neighbors, and
what remains is the N-forest, whose components all have perfect
matchings.  Both the independence number and the matching number fall
out by counting:

    alpha(F) = |Supp| + |V(N-forest)| / 2
    nu(F)    = |Core| + |V(N-forest)| / 2

Both are additive over components, so everything here accepts arbitrary
forests, the empty graph included.  decompose raises NotAForest on a
graph with a cycle: the DP runs on graphs._walk, whose roots count the
components, and a forest has exactly n - components edges.
matching_certificate raises it when its leaf pairing cannot finish.

For a forest, Supp is exactly the set of vertices that some maximum
matching misses, so it is found by a linear-time matching DP with no
linear algebra; the nullity follows as |Supp| - |Core| = n - 2 nu.  The
exact kernel (null_basis) stays an independent check of both: the
sweeps, `analyze --verify` and the fixtures compare against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAForest
from .graphs import _walk


@dataclass(frozen=True)
class NullDecomposition:
    """Partition of a forest's vertices by kernel role.

    Supp together with Core always equals the closed neighborhood of
    Supp; n_forest_vertices is the rest and has even cardinality.
    nullity is the kernel dimension, counted as |Supp| - |Core|, which
    for a forest equals n - 2 nu; the sweeps, `analyze --verify` and the
    fixtures check it against the exact kernel.
    """

    supp: frozenset
    core: frozenset
    n_forest_vertices: frozenset
    nullity: int

    @property
    def alpha(self):
        """Independence number: |Supp| + |V(N-forest)| / 2."""
        return len(self.supp) + len(self.n_forest_vertices) // 2

    @property
    def nu(self):
        """Matching number: |Core| + |V(N-forest)| / 2."""
        return len(self.core) + len(self.n_forest_vertices) // 2


def _matching_support(t):
    """Vertices of the forest t that some maximum matching misses.

    Rerooting DP over graphs._walk; raises NotAForest when t has more
    than n - components edges.  Bottom-up, a vertex is missable in its
    own subtree iff none of its children is; missable_children counts the
    children that are.  Top-down, free_up[c] says whether c's parent p
    is missable in the tree with c's subtree cut off: p has no missable
    child besides c and free_up[p] is false.  v is missable in the whole
    tree, i.e. in Supp, iff it has no missable child and free_up[v] is
    false.
    """
    n = t.n
    order, parent = _walk(t)
    if len(t.edges) != n - parent.count(-1):
        raise NotAForest("decompose needs an acyclic graph")
    missable_children = [0] * n
    for v in reversed(order):
        if not missable_children[v] and parent[v] >= 0:
            missable_children[parent[v]] += 1
    free_up = [False] * n
    for v in order:
        p = parent[v]
        if p >= 0:
            others = missable_children[p] - (not missable_children[v])
            free_up[v] = not others and not free_up[p]
    return frozenset(v for v in range(n) if not missable_children[v] and not free_up[v])


def decompose(t):
    """Null decomposition of a forest; raises NotAForest on cycles.

    Supp comes from the linear-time matching DP (_matching_support),
    which walks t once and raises NotAForest unless t has n - c edges,
    c being the number of components the walk found.  Core is N(Supp),
    the N-vertices are the rest, and the nullity is |Supp| - |Core|; no
    elimination runs.  The sweeps, `analyze --verify` and the fixtures
    check Supp and the nullity against the exact kernel.  The structural
    facts the theory guarantees (Supp disjoint from Core, even N-part)
    are re-checked before returning; a violation would mean a bug in the
    DP.
    """
    supp = _matching_support(t)
    core = set()
    for v in supp:
        core.update(t.neighbors(v))
    core = frozenset(core)
    if core & supp:
        raise AssertionError("support touches itself: matching DP broken")
    s_part = supp | core
    n_part = frozenset(v for v in range(t.n) if v not in s_part)
    if len(n_part) % 2:
        raise AssertionError("N-forest has odd order: matching DP broken")
    return NullDecomposition(
        supp=supp,
        core=core,
        n_forest_vertices=n_part,
        nullity=len(supp) - len(core),
    )


def _n_component_sides(t, d):
    """Bipartition sides of each N-forest component, in t's vertex ids.

    Each component is 2-colored in place, starting from its smallest
    vertex, whose side comes first.
    """
    n_part = d.n_forest_vertices
    color = [-1] * t.n
    out = []
    for s in sorted(n_part):
        if color[s] >= 0:
            continue
        color[s] = 0
        sides = ([s], [])
        stack = [s]
        while stack:
            u = stack.pop()
            for w in t.neighbors(u):
                if color[w] < 0 and w in n_part:
                    color[w] = 1 - color[u]
                    sides[color[w]].append(w)
                    stack.append(w)
        if len(sides[0]) != len(sides[1]):
            raise AssertionError("N-component bipartition sides differ in size")
        out.append((frozenset(sides[0]), frozenset(sides[1])))
    return out


def independent_set_certificate(t, d, avoid=()):
    """A maximum independent set of a forest, built from its decomposition d.

    Takes all of Supp plus one bipartition side of each N-component (the
    sides tie in size, so either works): the side holding the
    component's smallest vertex, or the other one when that side holds a
    vertex of avoid.  The vertices in avoid are kept out of the result;
    this needs them outside Supp, since Supp lies in every maximum
    independent set, and on one side of each N-component.
    """
    avoid = frozenset(avoid)
    if avoid & d.supp:
        raise ValueError("cannot avoid a support vertex in a maximum independent set")
    chosen = set(d.supp)
    for first, second in _n_component_sides(t, d):
        chosen |= second if avoid & first else first
    if avoid & chosen:
        raise ValueError("cannot avoid both sides of an N-component")
    return frozenset(chosen)


def matching_certificate(t):
    """A maximum matching of a forest, by repeatedly pairing a leaf upward.

    Cycle vertices keep degree 2 until one of them is paired with a
    leaf, so on C_4 or a tree beside a triangle some outlive the pairing
    and NotAForest is raised.  Once all are gone, the leaves' partners
    cover every edge, one per pair, so the matching is maximum anyway.
    """
    n = t.n
    nbrs = [t.neighbors(v) for v in range(n)]
    deg = [len(s) for s in nbrs]  # live neighbours of each live vertex
    alive = [True] * n
    stack = [v for v in range(n) if deg[v] <= 1]
    edges = set()
    while stack:
        v = stack.pop()
        if not alive[v]:
            continue
        if deg[v] == 0:
            alive[v] = False  # stays unmatched
            continue
        for w in nbrs[v]:
            if alive[w]:
                break
        alive[v] = alive[w] = False
        edges.add((v, w) if v < w else (w, v))
        for x in nbrs[w]:
            if alive[x]:
                deg[x] -= 1
                if deg[x] <= 1:
                    stack.append(x)
    if any(alive):
        raise NotAForest("matching_certificate needs an acyclic graph")
    return frozenset(edges)

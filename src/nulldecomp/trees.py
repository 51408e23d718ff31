"""Null decomposition of forests, and the closed counts it yields.

A forest splits along its adjacency kernel: Supp holds the vertices with
a nonzero coordinate in some kernel vector, Core their neighbors, and
what remains is the N-forest, whose components all have perfect
matchings.  Both the independence number and the matching number fall
out by counting:

    alpha(F) = |Supp| + |V(N-forest)| / 2
    nu(F)    = |Core| + |V(N-forest)| / 2

Both are additive over components, so everything here accepts arbitrary
forests, the empty graph included.

For a forest, Supp is exactly the set of vertices that some maximum
matching misses, so it is found by a linear-time matching DP with no
linear algebra; the nullity follows as |Supp| - |Core| = n - 2 nu.  The
exact kernel (null_basis) stays an independent check of both: the
sweeps, `analyze --verify` and the fixtures compare against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotATree, UnknownVertex
from .graphs import (
    Shape,
    _require_forest,
    classify_shape,
    connected_components,
    induced_subgraph,
    remove_vertices,
    two_coloring,
)


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

    Rerooting DP, iterative, over each component rooted at its smallest
    vertex.  Bottom-up, a vertex is missable in its own subtree iff none
    of its children is; missable_children counts the children that are.
    Top-down, free_up[c] says whether c's parent p is missable in the
    tree with c's subtree cut off: p has no missable child besides c and
    free_up[p] is false.  v is missable in the whole tree, i.e. in Supp,
    iff it has no missable child and free_up[v] is false.
    """
    n = t.n
    parent = [-1] * n
    seen = [False] * n
    order = []  # every vertex after its parent
    for r in range(n):
        if seen[r]:
            continue
        seen[r] = True
        stack = [r]
        while stack:
            u = stack.pop()
            order.append(u)
            for w in t.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    stack.append(w)
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
    Core is N(Supp), the N-vertices are the rest, and the nullity is
    |Supp| - |Core|; no elimination runs.  The sweeps, `analyze
    --verify` and the fixtures check Supp and the nullity against the
    exact kernel.  The structural facts the theory guarantees (Supp
    disjoint from Core, even N-part) are re-checked before returning; a
    violation would mean a bug in the DP.
    """
    _require_forest(t, "decompose")
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


def root_is_matched(t, v):
    """True iff every maximum matching of the tree t saturates v.

    Equivalent to v lying outside Supp(t).  A single-vertex tree is
    mismatched at its vertex, so this returns False there.
    """
    if classify_shape(t) != Shape.TREE:
        raise NotATree("root_is_matched expects a tree")
    if not 0 <= v < t.n:
        raise UnknownVertex(f"vertex {v} outside 0..{t.n - 1}")
    return v not in decompose(t).supp


def _n_component_sides(t, d):
    """Bipartition sides of each N-forest component, in t's vertex ids."""
    sub, label_map = induced_subgraph(t, d.n_forest_vertices)
    out = []
    for comp, comp_map in connected_components(sub):
        colors = two_coloring(comp)
        side0 = frozenset(label_map[comp_map[i]] for i in range(comp.n) if colors[i] == 0)
        side1 = frozenset(label_map[comp_map[i]] for i in range(comp.n) if colors[i] == 1)
        if len(side0) != len(side1):
            raise AssertionError("N-component bipartition sides differ in size")
        out.append((side0, side1))
    return out


def independent_set_certificate(t, d, avoid=None):
    """A maximum independent set of a forest, built from its decomposition d.

    Takes all of Supp plus one bipartition side of each N-component (the
    sides tie in size, so either works).  With avoid set, that vertex is
    kept out of the result; this needs avoid outside Supp, since Supp
    lies in every maximum independent set.
    """
    if avoid is not None and avoid in d.supp:
        raise ValueError("cannot avoid a support vertex in a maximum independent set")
    chosen = set(d.supp)
    for side0, side1 in _n_component_sides(t, d):
        if avoid in side0:
            chosen |= side1
        elif avoid in side1:
            chosen |= side0
        else:
            chosen |= side0 if min(side0) < min(side1) else side1
    if avoid is not None and avoid in chosen:
        raise AssertionError("avoided vertex slipped into the certificate")
    return frozenset(chosen)


def _map_edges(edge_set, label_map):
    out = set()
    for u, v in edge_set:
        a, b = label_map[u], label_map[v]
        out.add((min(a, b), max(a, b)))
    return out


def _greedy_forest_matching(t):
    """Maximum matching of a forest by repeatedly pairing a leaf upward."""
    n = t.n
    deg = [t.degree(v) for v in range(n)]
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
        w = next(x for x in t.neighbors(v) if alive[x])
        alive[v] = alive[w] = False
        edges.add((min(v, w), max(v, w)))
        for x in t.neighbors(w):
            if alive[x]:
                deg[x] -= 1
                if deg[x] <= 1:
                    stack.append(x)
    return edges


def matching_certificate(t, d, avoid=None):
    """A maximum matching of a forest by the greedy leaf rule.

    With avoid set, returns a maximum matching of t leaving that vertex
    unsaturated; this needs avoid inside Supp of t's decomposition d,
    the vertices some maximum matching misses.
    """
    _require_forest(t, "matching_certificate")
    if avoid is None:
        return frozenset(_greedy_forest_matching(t))
    if avoid not in d.supp:
        raise ValueError("can only leave a support vertex unsaturated")
    sub, label_map = remove_vertices(t, {avoid})
    return frozenset(_map_edges(_greedy_forest_matching(sub), label_map))

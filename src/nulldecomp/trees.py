"""Null decomposition of forests, and the closed counts it yields.

A forest splits along its adjacency kernel: Supp holds the vertices with
a nonzero coordinate in some kernel vector, Core their neighbors, and
what remains is the N-forest, whose components all have perfect
matchings.  Both the independence number and the matching number fall
out by counting:

    alpha(F) = |Supp| + |V(N-forest)| / 2
    nu(F)    = |Core| + |V(N-forest)| / 2

Both are additive over components, so everything here accepts arbitrary
forests, the empty graph included.  The DP, the Core and N-vertex
reading and the independent set run over an (order, parent) pair that
roots the forest, whose parent edges are exactly its edges: the public
functions take the Graph's own walk (graphs._search), and
unicyclic.analyze passes the one spanning forest it cuts out of its
walk of a unicyclic graph.  A graph with a cycle raises NotAForest,
since the walk's roots count the components and a forest has exactly
n - components edges.  The leaf pairing behind
matching_certificate runs on neighbour tuples, and raises NotAForest
when it cannot finish.

One rule builds every independent set: Supp plus, in each N-component,
the side of its depth-parity colouring that holds the component's
smallest vertex, or the other side when that one holds a vertex to
avoid.  _analyze, independent_set_certificate and both unicyclic types
take their sets from it.  _analyze is the forest's whole analysis, as
unicyclic.analyze is a unicyclic graph's, both from the Graph's one
walk: the decomposition and both certificates, held to the certificate
rule of graphs before it returns.

For a forest, Supp is exactly the set of vertices that some maximum
matching misses, so it is found by a linear-time matching DP with no
linear algebra; the nullity follows as |Supp| - |Core| = n - 2 nu.  The
exact kernel (null_basis) stays an independent check of both: the
sweeps, `analyze --verify` and the fixtures compare against it.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from .errors import NotAForest
from .graphs import _certificate_fault, _search


class NullDecomposition(namedtuple("NullDecomposition", "supp core n_forest_vertices nullity")):
    """Partition of a forest's vertices by kernel role.

    Supp together with Core always equals the closed neighborhood of
    Supp; n_forest_vertices is the rest and has even cardinality.
    nullity is the kernel dimension, counted as |Supp| - |Core|, which
    for a forest equals n - 2 nu; the sweeps, `analyze --verify` and the
    fixtures check it against the exact kernel.
    """

    __slots__ = ()

    @property
    def alpha(self):
        """Independence number: |Supp| + |V(N-forest)| / 2."""
        return len(self.supp) + len(self.n_forest_vertices) // 2

    @property
    def nu(self):
        """Matching number: |Core| + |V(N-forest)| / 2."""
        return len(self.core) + len(self.n_forest_vertices) // 2


def _missable_children(order, parent, counts=None):
    """Bottom-up half of the matching DP over a rooted forest.

    order lists vertices each after its parent (parent[v] is -1 at a
    root); the pass runs over it backwards.  A vertex is missable in its
    own subtree iff none of its children is; counts[v] counts the
    children that are.  Given counts, the pass goes on from them, so a
    caller can hang more vertices under a finished forest and count
    only those.
    """
    if counts is None:
        counts = [0] * len(parent)
    for v in reversed(order):
        if not counts[v]:
            p = parent[v]
            if p >= 0:
                counts[p] += 1
    return counts


def _decomposition(order, parent, missable_children):
    """Null decomposition of the forest that (order, parent) roots.

    order lists the forest's vertices, each after its parent, and its
    edges are exactly their parent edges.  parent may index vertices
    that order leaves out, as the cycle of a type II unicyclic graph;
    they fall in no part.  missable_children is the bottom-up count over
    it.  Top-down, free_up[c] says whether c's parent p is missable in
    the forest with c's subtree cut off: p has no missable child besides
    c and free_up[p] is false.  v is missable in the whole forest, i.e.
    in Supp, iff it has no missable child and free_up[v] is false.  Core
    is N(Supp), read off the parent edges, the N-vertices are the rest,
    and the nullity is |Supp| - |Core|.
    The structural facts the theory guarantees (Supp disjoint from Core,
    even N-part) are re-checked; a violation would mean a bug in the DP.
    """
    n = len(parent)
    free_up = [False] * n
    for v in order:
        p = parent[v]
        if p >= 0:
            others = missable_children[p] - (not missable_children[v])
            free_up[v] = not others and not free_up[p]
    # Read off order, not range(n), so the sets hold the ints the graph holds.
    supp = frozenset([v for v in order if not missable_children[v] and not free_up[v]])
    core = set()
    for v in order:
        p = parent[v]
        if v in supp:
            if p >= 0:
                core.add(p)
        elif p in supp:
            core.add(v)
    core = frozenset(core)
    if core & supp:
        raise AssertionError("support touches itself: matching DP broken")
    n_part = frozenset([v for v in order if v not in supp and v not in core])
    if len(n_part) % 2:
        raise AssertionError("N-forest has odd order: matching DP broken")
    return NullDecomposition(
        supp=supp,
        core=core,
        n_forest_vertices=n_part,
        nullity=len(supp) - len(core),
    )


def decompose(t):
    """Null decomposition of a forest; raises NotAForest on cycles.

    Supp comes from the linear-time matching DP over one walk of t; t is
    a forest iff it has n - c edges, c being the number of components
    the walk found, and then the walk's parent edges are its edges.  No
    elimination runs.  The sweeps, `analyze --verify` and the fixtures
    check Supp and the nullity against the exact kernel.
    """
    order, parent = _search(t)
    if t.m != t.n - parent.count(-1):
        raise NotAForest("decompose needs an acyclic graph")
    return _decomposition(order, parent, _missable_children(order, parent))


def _analyze(t):
    """(decomposition, independent set, matching) of the forest t, as
    decompose, independent_set_certificate and matching_certificate give
    them.  Raises AssertionError naming what breaks the certificate
    rule, which would mean a bug here."""
    d = decompose(t)
    independent = independent_set_certificate(t, d)
    matching = matching_certificate(t)
    fault = _certificate_fault(t, independent, matching, d.alpha, d.nu)
    if fault is not None:
        raise AssertionError(fault)
    return d, independent, matching


def _independent_set(order, parent, d, avoid):
    """Supp plus one side of each N-component, keeping out avoid; see
    independent_set_certificate.

    (order, parent) roots the forest that d decomposes, as for
    _decomposition, so each N-component's edges are the parent edges
    with both ends in it.  One pass down them colours each component by
    depth parity below its first vertex in order; a second pass takes
    each component's side as that vertex comes up.
    """
    supp, n_part = d.supp, d.n_forest_vertices
    avoid = frozenset(avoid)
    if avoid & supp:
        raise ValueError("cannot avoid a support vertex in a maximum independent set")
    n = len(parent)
    top = [-1] * n  # each N-vertex's component, named by its first vertex in order
    odd = bytearray(n)  # depth parity below that first vertex
    low = [n] * n  # at a component's first vertex: its smallest vertex
    excess = [0] * n  # there: its odd side's size minus its even side's
    for v in order:
        if v in n_part:
            p = parent[v]
            if p in n_part:
                t = top[v] = top[p]
                odd[v] = not odd[p]
            else:
                t = top[v] = v
            if v < low[t]:
                low[t] = v
            excess[t] += 1 if odd[v] else -1
    hit = bytearray(n)  # bit 1 << parity for each side of a component that avoid hits
    for v in avoid:
        if v in n_part:
            hit[top[v]] |= 1 << odd[v]
    side = bytearray(n)  # the parity taken in each component
    taken = []
    for v in order:
        t = top[v]
        if t == v:
            if excess[t]:
                raise AssertionError("N-component bipartition sides differ in size")
            s = odd[low[t]]
            if hit[t] >> s & 1:
                s ^= 1
                if hit[t] >> s & 1:
                    raise ValueError("cannot avoid both sides of an N-component")
            side[t] = s
        if t >= 0 and odd[v] == side[t]:
            taken.append(v)
    return frozenset(chain(supp, taken))


def independent_set_certificate(t, d, avoid=()):
    """A maximum independent set of a forest, built from its decomposition d.

    Takes all of Supp plus one bipartition side of each N-component (the
    sides tie in size, so either works): the side holding the
    component's smallest vertex, or the other one when that side holds a
    vertex of avoid.  The vertices in avoid are kept out of the result;
    this needs them outside Supp, since Supp lies in every maximum
    independent set, and on one side of each N-component.
    """
    return _independent_set(*_search(t), d, avoid)


def _leaf_pairing(nbrs):
    """A maximum matching of the forest with neighbour tuples nbrs, by
    repeatedly pairing a leaf upward; see matching_certificate.  The
    vertices that pairing v with w pushes lie in different components
    of what remains, so the order of nbrs cannot change the result."""
    n = len(nbrs)
    deg = [len(s) for s in nbrs]  # live neighbours of each live vertex
    alive = [True] * n
    stack = [v for v in range(n) if deg[v] <= 1]
    edges = []
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
        edges.append((v, w) if v < w else (w, v))
        for x in nbrs[w]:
            if alive[x]:
                deg[x] -= 1
                if deg[x] <= 1:
                    stack.append(x)
    if any(alive):
        raise NotAForest("matching_certificate needs an acyclic graph")
    return frozenset(edges)


def matching_certificate(t):
    """A maximum matching of a forest, by repeatedly pairing a leaf upward.

    Cycle vertices keep degree 2 until one of them is paired with a
    leaf, so on C_4 or a tree beside a triangle some outlive the pairing
    and NotAForest is raised.  Once all are gone, the leaves' partners
    cover every edge, one per pair, so the matching is maximum anyway.
    """
    return _leaf_pairing(t._adj)

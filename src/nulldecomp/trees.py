"""Null decomposition of forests, and the closed counts it yields.

A forest splits along its adjacency kernel: Supp holds the vertices with
a nonzero coordinate in some kernel vector, Core their neighbors, and
what remains is the N-forest, whose components all have perfect
matchings.  Both the independence number and the matching number fall
out by counting:

    alpha(F) = |Supp| + |V(N-forest)| / 2
    nu(F)    = |Core| + |V(N-forest)| / 2

Both are additive over components, so everything here accepts arbitrary
forests, the empty graph included.  Every forest is analysed in one
bottom-up and one top-down pass over an (order, parent) pair that roots
it, whose parent edges are exactly its edges: the public functions take
the Graph's own walk (graphs._search), and unicyclic.analyze passes the
one spanning forest it cuts out of its walk of a unicyclic graph.  A
graph with a cycle raises NotAForest, since the walk's roots count the
components and a forest has exactly n - components edges.

The bottom-up pass counts each vertex's children that are missable in
their own subtrees and keeps the smallest of them: pairing each vertex
with that child is the greedy bottom-up matching of a rooted forest,
which is maximum, and it does not depend on the order of the walk.  The
top-down pass writes the decomposition as one role array, a byte per
vertex of the graph (0 off the forest, then Supp, Core and N).  Past
the passes here that write it and walk it, only the records on it
(NullDecomposition, unicyclic's PartAnalysis) read its bytes.  Each
record holds the roles of its own ids, read once when it is made (the
array itself for a decomposition), and _OnRoles._by_role lists its ids
of each role in ascending order from them: the records' vertex sets by
role (frozensets built on first read), cli's report fields and its DOT
map all come from it.

One rule builds every independent set: Supp plus, in each N-component,
the side of its depth-parity colouring that holds the component's
smallest vertex, or the other side when that one holds a vertex to
avoid.  _analyze, independent_set_certificate and both unicyclic types
take their sets from it.  One certified tail, _certified, ends every
analysis on the formula path: _analyze, the forest's whole analysis,
and unicyclic.analyze, a unicyclic graph's, both from the Graph's one
walk, hand it their rooted forest and its bottom-up count, and it
makes the decomposition and both certificates and holds them to the
certificate rule of graphs before they are returned.  A type II cycle
joins the forest's own arrays, its pairs in mate and its vertices as
the set's extra ids, so the tail builds one frozenset of each.

For a forest, Supp is exactly the set of vertices that some maximum
matching misses, so it is found by a linear-time matching DP with no
linear algebra; the nullity follows as |Supp| - |Core| = n - 2 nu.  The
exact kernel (null_basis) stays an independent check of both: the
sweeps, `analyze --verify` and the fixtures compare against it.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import attrgetter

from .errors import NotAForest
from .graphs import _certificate_fault, _search

# The roles of a role array; 0 marks a vertex outside the forest.
_S, _C, _N = 1, 2, 3
_ROLE_NAMES = ("no part", "Supp", "Core", "N")
# bytes.translate tables, one per role in the order Supp, Core, N: each
# maps its role to 1 and every other byte to 0.
_IS = tuple(bytes.maketrans(b"\1\2\3", m) for m in (b"\1\0\0", b"\0\1\0", b"\0\0\1"))


class _OnRoles:
    """A record read off a role array, shared by every record on it, over
    the vertices _ids lists in ascending order.  roles is that array: a byte
    per vertex of the graph, 0 off the forest, 1 Supp, 2 Core, 3 N.
    _local holds the roles of _ids, in order, set once when the record
    is made: the array itself for a record over every id of it, else one
    copy.  Outside this module the bytes are decoded only by _by_role,
    and the vertex sets by role are frozensets built from it on their
    first read and then kept.  Records compare and hash by _key()."""

    __slots__ = ("_roles", "_ids", "_local", "_supp", "_core", "_n")

    roles = property(attrgetter("_roles"))

    def _by_role(self):
        """The record's Supp, Core and N ids, each an iterator in
        ascending order."""
        return [compress(self._ids, self._local.translate(table)) for table in _IS]

    def _kept(self, slot, role):
        """The frozenset of the ids of role, or of every id for role 0."""
        found = getattr(self, slot, None)  # a slot is unset until its first read
        if found is None:
            found = frozenset(self._by_role()[role - 1] if role else self._ids)
            setattr(self, slot, found)
        return found

    supp = property(lambda self: self._kept("_supp", _S))
    core = property(lambda self: self._kept("_core", _C))

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}{self._key()!r}"


class NullDecomposition(_OnRoles):
    """Partition of a forest's vertices by kernel role, held as the
    immutable role array (bytes) it is built from.

    Supp together with Core always equals the closed neighborhood of
    Supp; n_forest_vertices is the rest and has even cardinality.
    nullity is the kernel dimension, counted as |Supp| - |Core|, which
    for a forest equals n - 2 nu; the sweeps, `analyze --verify` and the
    fixtures check it against the exact kernel.
    """

    __slots__ = ("_counts",)

    def __init__(self, roles):
        self._roles, self._ids, self._local = roles, range(len(roles)), roles
        self._counts = roles.count(_S), roles.count(_C), roles.count(_N)

    n_forest_vertices = property(lambda self: self._kept("_n", _N))
    nullity = property(lambda self: self._counts[0] - self._counts[1])

    @property
    def alpha(self):
        """Independence number: |Supp| + |V(N-forest)| / 2."""
        return self._counts[0] + self._counts[2] // 2

    @property
    def nu(self):
        """Matching number: |Core| + |V(N-forest)| / 2."""
        return self._counts[1] + self._counts[2] // 2

    def _key(self):
        return self._roles


def _missable_children(order, parent, counts=None, mate=None):
    """Bottom-up half of the matching DP over a rooted forest.

    order lists vertices each after its parent (parent[v] is -1 at a
    root); the pass runs over it backwards.  A vertex is missable in its
    own subtree iff none of its children is; counts[v] counts the
    children that are, and mate[v] is the smallest of them, or
    len(parent) when there is none.  Returns (counts, mate).  Given
    both, the pass goes on from them, so a caller can hang more vertices
    under a finished forest and count only those.
    """
    if counts is None:
        counts, mate = [0] * len(parent), [len(parent)] * len(parent)
    for v in reversed(order):
        if not counts[v]:
            p = parent[v]
            if p >= 0:
                counts[p] += 1
                if v < mate[p]:
                    mate[p] = v
    return counts, mate


def _matching(mate):
    """Each vertex paired with its smallest missable child, as pairs
    (u, v) with u < v: a maximum matching of the forest mate is from."""
    n = len(mate)
    return frozenset([(p, c) if p < c else (c, p) for p, c in enumerate(mate) if c < n])


def _decomposition(order, parent, missable_children):
    """Null decomposition of the forest that (order, parent) roots.

    order lists the forest's vertices, each after its parent, and its
    edges are exactly their parent edges.  parent may index vertices
    that order leaves out, as the cycle of a type II unicyclic graph;
    their role is 0.  missable_children is the bottom-up count over it.
    Top-down, free_up[c] says whether c's parent p is missable in the
    forest with c's subtree cut off: p has no missable child besides c
    and free_up[p] is false.  v is missable in the whole forest, i.e. in
    Supp, iff it has no missable child and free_up[v] is false.  Core is
    N(Supp): a vertex is Core once its parent or a child is in Supp, and
    N until then; the nullity is |Supp| - |Core|.
    The structural facts the theory guarantees (no edge inside Supp,
    even N-part) are re-checked; a violation would mean a bug in the DP.
    """
    free_up, roles = bytearray(len(parent)), bytearray(len(parent))
    for v in order:
        p = parent[v]
        up = 0
        if p >= 0:
            others = missable_children[p] - (not missable_children[v])
            free_up[v] = not others and not free_up[p]
            up = roles[p]
        if missable_children[v] or free_up[v]:
            roles[v] = _C if up == _S else _N
        elif up == _S:
            raise AssertionError("support touches itself: matching DP broken")
        else:
            roles[v] = _S
            if p >= 0:
                roles[p] = _C
    d = NullDecomposition(bytes(roles))
    if d._counts[2] % 2:
        raise AssertionError("N-forest has odd order: matching DP broken")
    return d


def _forest_walk(t, caller):
    """The walk (order, parent) of the forest t.  Raises NotAForest,
    naming caller, when t has a cycle: t is a forest iff it has n - c
    edges, c being the number of components the walk found, and then
    the walk's parent edges are its edges."""
    order, parent = _search(t)
    if t.m != t.n - parent.count(-1):
        raise NotAForest(f"{caller} needs an acyclic graph")
    return order, parent


def decompose(t):
    """Null decomposition of a forest; raises NotAForest on cycles.

    Supp comes from the linear-time matching DP over one walk of t.  No
    elimination runs.  The sweeps, `analyze --verify` and the fixtures
    check Supp and the nullity against the exact kernel.
    """
    order, parent = _forest_walk(t, "decompose")
    return _decomposition(order, parent, _missable_children(order, parent)[0])


def _analyze(t):
    """(decomposition, independent set, matching) of the forest t, as
    decompose, independent_set_certificate and matching_certificate give
    them, from one walk, one bottom-up and one top-down pass."""
    order, parent = _forest_walk(t, "decompose")
    counts, mate = _missable_children(order, parent)
    return _certified(t, order, parent, counts, mate, (), ())


def _certified(g, order, parent, counts, mate, avoid, extra):
    """(decomposition, independent set, matching) of g, read off the
    forest that (order, parent) roots and its bottom-up count (counts,
    mate).  The set keeps out avoid and takes the ids of extra too; the
    matching pairs each vertex with its mate.  g may be more than the
    forest: extra lists vertices off it for the set, and mate holds as
    many pairs off it, each adding one to alpha and to nu, as a type II
    cycle does.  Raises AssertionError naming what breaks the
    certificate rule of graphs, which would mean a bug here."""
    d = _decomposition(order, parent, counts)
    independent = _independent_set(order, parent, d, avoid, extra)
    matching = _matching(mate)
    fault = _certificate_fault(g, independent, matching, d.alpha + len(extra), d.nu + len(extra))
    if fault is not None:
        raise AssertionError(fault)
    return d, independent, matching


def _independent_set(order, parent, d, avoid, extra=()):
    """Supp plus one side of each N-component, keeping out avoid, and
    the ids of extra, in one frozenset; see independent_set_certificate.

    (order, parent) roots the forest that d decomposes, as for
    _decomposition, so each N-component's edges are the parent edges
    with both ends in it.  One pass down them colours each component by
    depth parity below its first vertex in order; a second pass takes
    each component's side as that vertex comes up.
    """
    roles, n = d.roles, len(parent)
    top = [-1] * n  # each N-vertex's component, named by its first vertex in order
    odd = bytearray(n)  # depth parity below that first vertex
    low = [n] * n  # at a component's first vertex: its smallest vertex
    excess = [0] * n  # there: its odd side's size minus its even side's
    for v in order:
        if roles[v] == _N:
            p = parent[v]
            if p >= 0 and roles[p] == _N:
                t = top[v] = top[p]
                odd[v] = not odd[p]
            else:
                t = top[v] = v
            if v < low[t]:
                low[t] = v
            excess[t] += 1 if odd[v] else -1
    hit = bytearray(n)  # bit 1 << parity for each side of a component that avoid hits
    for v in avoid:
        role = roles[v] if 0 <= v < n else 0
        if role == _S:
            raise ValueError("cannot avoid a support vertex in a maximum independent set")
        if role == _N:
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
    return frozenset(chain(d._by_role()[0], taken, extra))


def independent_set_certificate(t, d, avoid=()):
    """A maximum independent set of a forest, built from its decomposition d.

    Takes all of Supp plus one bipartition side of each N-component (the
    sides tie in size, so either works): the side holding the
    component's smallest vertex, or the other one when that side holds a
    vertex of avoid.  The vertices in avoid are kept out of the result;
    this needs them outside Supp, since Supp lies in every maximum
    independent set, and on one side of each N-component.  Raises
    NotAForest on a graph with a cycle, and ValueError when d has a role
    for other than t's n vertices or is not t's decomposition, which one
    run of the matching DP over the walk tells.
    """
    walk = _forest_walk(t, "independent_set_certificate")
    if len(d.roles) != t.n:
        raise ValueError(f"the decomposition has {len(d.roles)} vertices, the forest {t.n}")
    own = _decomposition(*walk, _missable_children(*walk)[0]).roles
    if d.roles != own:
        v = next(v for v, (a, b) in enumerate(zip(d.roles, own)) if a != b)
        raise ValueError(
            f"the decomposition is of another forest: it puts vertex {v} in"
            f" {_ROLE_NAMES[d.roles[v]]}, this forest's in {_ROLE_NAMES[own[v]]}"
        )
    return _independent_set(*walk, d, avoid)


def matching_certificate(t):
    """A maximum matching of a forest: each vertex of its walk paired with
    its smallest child that some maximum matching of the child's subtree
    misses, bottom-up.  Raises NotAForest on every graph with a cycle."""
    return _matching(_missable_children(*_forest_walk(t, "matching_certificate"))[1])

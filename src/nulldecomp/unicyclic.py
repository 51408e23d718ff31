"""Type classification, singularity, alpha and nu for unicyclic graphs.

A connected graph with exactly one cycle C splits into pendant trees,
one per cycle vertex.  The dichotomy: the graph is of type I when some
cycle vertex is matched inside its own pendant tree (saturated by every
maximum matching of it), type II when every cycle vertex is mismatched.
Pure cycles land in type II with nothing hanging off.

Everything is read off the one walk of G that found the cycle
(graphs._search, which G keeps), re-rooted at the cycle: it lists the
cycle vertices first, as roots, and hangs each pendant tree under its
cycle vertex, in G's own vertex ids.  One bottom-up pass of the
matching DP over it counts, for each vertex, its children that are
missable in their own subtrees, and keeps the smallest of them, the
vertex's mate; a cycle vertex is matched in its pendant tree iff that
count is positive, which gives the type, and the witness is the
smallest matched cycle vertex.  Swapping a few parent pointers then
roots the one spanning forest that the type calls for:

- type I: f, G minus the two cycle edges at the witness v, which is the
  pendant tree T_v rooted at v and the rest R = G - V(T_v) rooted at a,
  side by side.  The cycle path a ... b between v's cycle neighbours is
  hung under a, and only that path needs counting again, its mates
  kept as the first pass keeps them.  The set avoids v.
- type II: G - C, each tree rooted at its attach vertex, the one vertex
  with a cycle neighbour; the set avoids the attach vertices.  A type II
  graph behaves like the cycle plus G - C, so the cycle adds
  floor(L/2) to alpha and to nu, and 2 to the nullity when 4 divides L.
  Its terms enter the forest's own arrays: no cycle vertex has a mate,
  so every other cycle edge is written into mate, and every other cycle
  vertex is passed on as the set's extra ids.

After that the one certified tail of trees (_certified) serves both
types: the top-down pass writes the forest's role array, the one
independent-set rule builds the set, with the extra ids, in one
frozenset, the matching pairs each vertex with its mate, and both are
held to the certificate rule of graphs and to the sizes alpha and nu
before analyze() goes on; a break raises AssertionError naming the
offending id, edge or pair.  One pass down the forest gives each vertex
its part, named by the forest root above it, and one pass over the ids
lists each part's vertices in ascending order, in one array('i') per
part: the pendant tree and the rest for type I, and for type II the
trees of G - C by smallest vertex.  A part holds those ids, the forest's
shared role array and one copy of its own ids' roles, made with the
part; its vertex sets are built only when read.  No forest is copied and
no Graph is built.  Nullity, singularity, the independence number and
the matching number are read off the role counts plus the cycle's terms.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from operator import attrgetter

from .graphs import _search, find_cycle
from .trees import _N, _S, _OnRoles, _certified, _missable_children


class TypeVerdict(namedtuple("TypeVerdict", "kind witness")):
    """kind is "I" or "II"; witness is the smallest matched cycle vertex
    for type I, None for type II."""

    __slots__ = ()


class PartAnalysis(_OnRoles):
    """Null decomposition of one piece of the split, in the graph's ids.

    kind is "pendant" (the witness's tree, type I), "rest" (everything
    else, type I) or "component" (one tree of G minus the cycle, type
    II).  root is the cycle vertex the piece hangs from, when there is
    one.  The piece is its ascending ids read against the role array of
    the forest it lies in, whose bytes at those ids it copies once;
    vertices, supp, core and n_vertices are frozensets built on first
    read.
    """

    __slots__ = ("_kind", "_root", "_vertices")

    def __init__(self, kind, root, ids, roles):
        self._kind, self._root, self._ids, self._roles = kind, root, ids, roles
        self._local = bytes(map(roles.__getitem__, ids))

    kind = property(attrgetter("_kind"))
    root = property(attrgetter("_root"))
    vertices = property(lambda self: self._kept("_vertices", 0))
    n_vertices = property(lambda self: self._kept("_n", _N))

    def _key(self):
        return self._kind, self._root, tuple(self._ids), self._local


class UnicyclicAnalysis(
    namedtuple(
        "UnicyclicAnalysis",
        "cycle kind witness pure_cycle singular singular_reason nullity alpha nu parts"
        " independent_set matching",
    )
):
    """The whole analysis of a unicyclic graph; cycle is its CycleInfo."""

    __slots__ = ()


def _rooted(cycle, walk):
    """The walk that found cycle, re-rooted there, the bottom-up count
    over it, and the type.

    walk roots a spanning tree of the graph, each vertex listed after
    its parent, and the one edge off that tree closes cycle, as
    find_cycle reads it.  Off the cycle only the path from the walk's
    root to the topmost cycle vertex points away from the cycle, so
    re-rooting keeps every other parent, gives the cycle vertices -1 and
    reverses that path: the one parent array of the forest G minus the
    cycle edges rooted at the cycle.  The order lists the cycle
    vertices, the path outwards, then the rest in walk order.  A cycle
    vertex is matched in its pendant tree iff it has a child missable
    in its own subtree, and the witness is the smallest matched one.
    Returns (order, parent, counts, mate, verdict), counts and mate as
    _missable_children gives them; parent, the counts and mate are new
    lists, which analyze edits into its forest's.
    """
    walk_order, parent = walk
    parent = list(parent)
    listed = [False] * len(parent)
    for c in cycle.vertices:
        listed[c] = True
    top = next(c for c in cycle.vertices if parent[c] < 0 or not listed[parent[c]])
    path = []
    below, x = top, parent[top]
    while x >= 0:
        path.append(x)
        listed[x] = True
        up = parent[x]
        parent[x] = below
        below, x = x, up
    for c in cycle.vertices:
        parent[c] = -1
    order = [*cycle.vertices, *path, *(x for x in walk_order if not listed[x])]
    counts, mate = _missable_children(order, parent)
    matched = [c for c in cycle.vertices if counts[c]]
    verdict = TypeVerdict("I", min(matched)) if matched else TypeVerdict("II", None)
    return order, parent, counts, mate, verdict


def classify_type(g):
    """Type I with its smallest matched witness, or type II."""
    return _rooted(find_cycle(g), _search(g))[-1]


def _singularity(g, cycle, verdict, pendant_supp, supp):
    """Verdict and reason from |Supp| of the pendant tree at the witness
    (type I) and of the whole forest.

    A forest has a perfect matching exactly when its Supp is empty.
    Type I pieces are the pendant tree at the witness and the rest;
    type II pieces are the trees off the cycle.
    """
    if verdict.kind == "I":
        name = g.name_of(verdict.witness)
        pm_pendant, pm_rest = not pendant_supp, pendant_supp == supp
        if pm_pendant and pm_rest:
            return False, (
                f"type I at witness {name}: the pendant tree and the rest both "
                "have perfect matchings"
            )
        missing = []
        if not pm_pendant:
            missing.append(f"the pendant tree at {name} has no perfect matching")
        if not pm_rest:
            missing.append(
                f"the rest after removing the pendant tree at {name} has no perfect matching"
            )
        return True, "type I: " + "; ".join(missing)
    pm_forest = not supp
    div4 = cycle.length % 4 == 0
    if pm_forest and not div4:
        return False, (
            "type II: every tree off the cycle has a perfect matching and "
            f"the cycle length {cycle.length} is not divisible by 4"
        )
    reasons = []
    if not pm_forest:
        reasons.append("a tree off the cycle has no perfect matching")
    if div4:
        reasons.append(f"the cycle length {cycle.length} is divisible by 4")
    return True, "type II: " + "; ".join(reasons)


def analyze(g):
    """Full analysis of a unicyclic graph (pure cycles included).

    Reads the cycle off g's walk (graphs._search, which g keeps),
    re-roots the walk there, runs one bottom-up matching DP over it,
    re-rooted again to the forest the type calls for, and one top-down
    pass over that forest, and reads off the type, the composed nullity,
    the combinatorial singularity verdict, alpha and nu by the closed
    formulas, the null decomposition of every piece (in the graph's
    vertex ids), and explicit certificates: an independent set of size
    alpha and a matching of size nu, assembled from the same forest
    exactly as the formulas compose and validated against the graph
    before returning.
    """
    cycle = find_cycle(g)
    order, parent, counts, mate, verdict = _rooted(cycle, _search(g))
    hanging = order[cycle.length :]  # the vertices off the cycle, each after its parent
    half = cycle_nullity = 0  # the cycle's own terms, which only type II has
    if verdict.kind == "I":
        # f = G minus the two cycle edges at v: T_v rooted at v, and the
        # rest rooted at a with the cycle path a ... b hung under it.
        v = verdict.witness
        i = cycle.vertices.index(v)
        path = cycle.vertices[i + 1 :] + cycle.vertices[:i]
        for p, x in zip(path, path[1:]):
            parent[x] = p
        _missable_children(path, parent, counts, mate)
        order, avoid = (v, *path, *hanging), (v,)
        labels = {v: ("pendant", v), path[0]: ("rest", None)}
    else:
        # G - C, each tree rooted at its attach vertex, the one vertex
        # with a cycle neighbour.  No cycle vertex has a missable child,
        # so none has a mate, and every other cycle edge is written into
        # mate as a pair of the matching.
        avoid = attach = [x for x in hanging if parent[parent[x]] < 0]
        labels = {w: ("component", parent[w]) for w in attach}
        for w in attach:
            parent[w] = -1
        order = hanging
        half = cycle.length // 2
        cycle_nullity = 2 if cycle.length % 4 == 0 else 0
        for i in range(0, 2 * half, 2):
            mate[cycle.vertices[i]] = cycle.vertices[i + 1]

    extra = cycle.vertices[: 2 * half : 2]  # every other cycle vertex, for the set
    d, independent, matching = _certified(g, order, parent, counts, mate, avoid, extra)
    pieces = {r: array("i") for r in labels}  # each root of the forest -> the ids below it
    piece = [None] * g.n
    for x in order:
        piece[x] = pieces[x] if parent[x] < 0 else piece[parent[x]]
    for x, ids in enumerate(piece):
        if ids is not None:
            ids.append(x)
    roots = pieces  # the roots alone: a sorted list of pairs would live as long as analyze
    if verdict.kind == "II":
        roots = sorted(pieces, key=lambda r: pieces[r][0])  # by smallest vertex
    parts = tuple(PartAnalysis(*labels[r], pieces[r], d.roles) for r in roots)

    pendant = parts[0]._local.count(_S) if verdict.kind == "I" else 0
    singular, reason = _singularity(g, cycle, verdict, pendant, d._counts[0])
    return UnicyclicAnalysis(
        cycle=cycle,
        kind=verdict.kind,
        witness=verdict.witness,
        pure_cycle=cycle.length == g.n,
        singular=singular,
        singular_reason=reason,
        nullity=cycle_nullity + d.nullity,
        alpha=half + d.alpha,
        nu=half + d.nu,
        parts=parts,
        independent_set=independent,
        matching=matching,
    )

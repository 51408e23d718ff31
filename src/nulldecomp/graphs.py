"""Simple undirected graphs with dense integer vertex ids.

Vertices of an n-vertex graph are always 0..n-1, and every piece a
caller reads off a graph (a component, a pendant tree, the cycle) is
named in those ids; no subgraph is ever relabelled.  Optional display
names ride along for fixtures whose vertices carry names like "v1" or
"a".

A Graph holds its edge count m and one tuple of neighbours per vertex,
in the order the edges were given; its edge set is built on first read,
and the analyses never read it.  Neighbour order steers the walk and
the cycle's closing edge, but no report depends on it: every reported
list is sorted or canonical (the cycle's orientation, the smallest
witness, the N-side holding the smallest vertex, each vertex matched
to its smallest missable child), and a forest rooted at fixed vertices
has one parent array, whatever order the walk claims its vertices in.

_search is the one walk over a whole graph.  The Graph keeps it, built
on the first call like its edge set, so the components, the shape, the
cycle and every analysis of one Graph read the same walk, and it is
freed with the Graph; unicyclic re-roots it at the cycle to hang the
pendant trees from their cycle vertices.
parse_graph6 reads the set bits of each payload byte other than "?"
off a 64-entry table: its Python work is one step per edge.  Both
parsers check each edge once and build the Graph with Graph._checked,
which skips the checks of the public constructor; parse_edge_list reads
the common "u v" line with one compiled pattern and every other line
token by token, and both routes share one self-loop, duplicate and
range check.

edge_inside, foreign_id and matching_defect are the certificate rule
(an independent set, a matching) that the analyses, the sweeps and the
fixtures share, and _certificate_fault holds a pair of certificates to
it and to their sizes; an id outside 0..n-1 never passes as a vertex.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from enum import Enum
from itertools import islice
from math import isqrt

from .errors import (
    BadChecksumChar,
    DuplicateEdge,
    EmptyGraph,
    MalformedLine,
    NotUnicyclic,
    SelfLoop,
    TruncatedPayload,
    UnknownVertex,
)


class Shape(str, Enum):
    TREE = "tree"
    FOREST = "forest"
    CYCLE = "cycle"
    UNICYCLIC = "unicyclic"
    OTHER = "other"


class Role(str, Enum):
    """Vertex roles for DOT export, mirroring the null decomposition."""

    SUPPORT = "support"
    CORE = "core"
    N_VERTEX = "n_vertex"
    PLAIN = "plain"


class Graph:
    """Immutable simple undirected graph with m edges.

    edges is built on its first read and kept, and so is the walk that
    _search builds in _walk; neither can go stale, since nothing changes
    a Graph.
    """

    __slots__ = ("n", "m", "labels", "_adj", "_edges", "_walk")

    def __init__(self, n, edges=(), labels=None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        pairs = []
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise UnknownVertex(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdge(f"duplicate edge {key}")
            seen.add(key)
            pairs.append(key)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValueError(f"got {len(labels)} labels for {n} vertices")
        self._fill(n, pairs, labels)

    @classmethod
    def _checked(cls, n, pairs, labels=None):
        """The graph on edges its caller has already checked, built with
        no check of its own: pairs lists distinct (u, v), u < v < n;
        labels is None or a tuple of n names.  The result is
        Graph(n, pairs, labels), down to the order of every neighbour
        tuple."""
        g = object.__new__(cls)
        g._fill(n, pairs, labels)
        return g

    def _fill(self, n, pairs, labels):
        adj = [[] for _ in range(n)]
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        # In place, so each list is freed as its tuple is made.
        for v, nbrs in enumerate(adj):
            adj[v] = tuple(nbrs)
        self.n = n
        self.m = len(pairs)
        self._adj = tuple(adj)
        self._edges = None
        self._walk = None
        self.labels = labels

    @property
    def edges(self):
        """The edges as a frozenset of (u, v) with u < v."""
        if self._edges is None:
            self._edges = frozenset(
                [(u, v) for u, nbrs in enumerate(self._adj) for v in nbrs if u < v]
            )
        return self._edges

    def neighbors(self, v):
        """The neighbours of v as a tuple, in the order their edges were
        given; an id outside 0..n-1 raises UnknownVertex."""
        if not 0 <= v < self.n:
            raise UnknownVertex(f"vertex {v} outside 0..{self.n - 1}")
        return self._adj[v]

    def name_of(self, v):
        """v's display name; an id outside 0..n-1 raises UnknownVertex."""
        self.neighbors(v)
        return self.labels[v] if self.labels is not None else str(v)

    def without_edges(self, removed):
        """Copy with the given edges removed (vertex ids and labels unchanged).

        Edges may come in either endpoint order; one not in the graph
        raises UnknownVertex.  Only the touched vertices' neighbour
        tuples are rebuilt, in their order, and nothing is re-validated,
        since deleting edges keeps a valid graph valid.
        """
        gone = {}
        keys = set()
        for u, v in removed:
            key = (u, v) if u < v else (v, u)
            if key not in self.edges:
                raise UnknownVertex(f"edge {key} not in graph")
            keys.add(key)
            gone.setdefault(u, set()).add(v)
            gone.setdefault(v, set()).add(u)
        adj = list(self._adj)
        for v, ws in gone.items():
            adj[v] = tuple(w for w in adj[v] if w not in ws)
        out = object.__new__(Graph)
        out.n = self.n
        out.m = self.m - len(keys)
        out._adj = tuple(adj)
        out._edges = None
        out._walk = None
        out.labels = self.labels
        return out

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n, self.edges, self.labels) == (other.n, other.edges, other.labels)

    def __hash__(self):
        return hash((self.n, self.edges, self.labels))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class CycleInfo(namedtuple("CycleInfo", "vertices length")):
    """The unique cycle of a unicyclic graph, in canonical orientation.

    vertices starts at the smallest cycle vertex; its successor is the
    smaller of that vertex's two cycle neighbors.
    """

    __slots__ = ()

    def __new__(cls, vertices, length):
        if length != len(vertices):
            raise ValueError("cycle length disagrees with vertex tuple")
        if length < 3:
            raise ValueError("cycles have at least three vertices")
        if len(set(vertices)) != length:
            raise ValueError("cycle vertices must be distinct")
        return super().__new__(cls, vertices, length)

    @property
    def edges(self):
        """The cycle edges as (u, w) with u < w, in cycle order: edge i
        joins vertex i to vertex i + 1, and the last closes the cycle."""
        vs = self.vertices
        return tuple((min(u, w), max(u, w)) for u, w in zip(vs, vs[1:] + vs[:1]))


def _decimal(s):
    """The integer an ASCII decimal numeral with an optional leading minus
    sign spells, or None for anything else (int() would also take "1_0",
    "+1" and non-ASCII digits)."""
    digits = s[1:] if s.startswith("-") else s
    return int(s) if digits.isascii() and digits.isdigit() else None


# The most vertices an edge list may declare.  Graph holds one neighbour
# tuple per vertex, so a short "n=" line could otherwise ask for gigabytes.
# CI's "analyze at n = 10^6" step runs nulldecomp analyze at this cap and
# prints its wall time and peak RSS on every run.
MAX_EDGE_LIST_N = 10**6


# A "u v" line of ASCII decimal numerals, the common case.  Every other
# line (a header, a comment, "-0", other whitespace, an error) takes the
# token route.
_EDGE_LINE = re.compile(r"([0-9]+)[ \t]+([0-9]+)")


def parse_edge_list(text):
    """Parse the edge-list format into a Graph.

    Lines are "u v" pairs of ASCII decimal integers.  Blank lines and
    "#" comments are ignored.  Optional headers, each at most once:
    "n=<count>" fixes the vertex count (else max label + 1 is used) and
    "labels=a,b,c" attaches display names, which must be distinct.  A
    vertex count above MAX_EDGE_LIST_N, or a numeral longer than int()
    converts (sys.get_int_max_str_digits()), raises MalformedLine.
    Each edge is checked once, here, and the Graph is built without
    checking it again.
    """
    n_header = None
    labels = None
    edges = []
    seen = set()
    max_v = -1
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            m = _EDGE_LINE.fullmatch(line)
            if m is not None:
                u, v = int(m[1]), int(m[2])
            else:
                if not line or line.startswith("#"):
                    continue
                if line.startswith("n="):
                    if n_header is not None:
                        raise MalformedLine(f"line {lineno}: repeated n= header")
                    n_header = _decimal(line[2:].strip())
                    if n_header is None:
                        raise MalformedLine(f"line {lineno}: bad vertex count in {line!r}")
                    if n_header < 0:
                        raise MalformedLine(f"line {lineno}: negative vertex count")
                    continue
                if line.startswith("labels="):
                    if labels is not None:
                        raise MalformedLine(f"line {lineno}: repeated labels= header")
                    labels = tuple(s.strip() for s in line[len("labels="):].split(","))
                    if len(set(labels)) != len(labels):
                        raise MalformedLine(f"line {lineno}: duplicate vertex name in {line!r}")
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise MalformedLine(f"line {lineno}: expected 'u v', got {line!r}")
                u, v = _decimal(parts[0]), _decimal(parts[1])
                if u is None or v is None:
                    raise MalformedLine(f"line {lineno}: non-integer vertex in {line!r}")
                if u < 0 or v < 0:
                    raise MalformedLine(f"line {lineno}: negative vertex id in {line!r}")
            if u < v:
                key = (u, v)
            elif u > v:
                key = (v, u)
            else:
                raise SelfLoop(f"line {lineno}: self-loop at vertex {u}")
            if key in seen:
                raise DuplicateEdge(f"line {lineno}: duplicate edge {key}")
            seen.add(key)
            edges.append(key)
            if key[1] > max_v:
                max_v = key[1]
    except ValueError:
        # Only int() raises it here: a numeral past the interpreter's
        # digit limit, on either route.
        raise MalformedLine(
            f"line {lineno}: numeral longer than {sys.get_int_max_str_digits()} digits"
        ) from None
    n = n_header if n_header is not None else max_v + 1
    if n > MAX_EDGE_LIST_N:
        raise MalformedLine(f"n={n} is above the cap of {MAX_EDGE_LIST_N} vertices")
    if max_v >= n:
        raise MalformedLine(f"vertex {max_v} out of range for declared n={n}")
    if labels is not None and len(labels) != n:
        raise MalformedLine(f"labels= lists {len(labels)} names for {n} vertices")
    return Graph._checked(n, edges, labels)


def format_edge_list(g):
    """Inverse of parse_edge_list, deterministic line order.  Labels that
    would not read back as they are raise ValueError: one with a comma or
    a line break, one str.strip changes, a repeated one, or none at all."""
    lines = [f"n={g.n}"]
    if g.labels is not None:
        if not g.labels:
            raise ValueError("labels= cannot list the names of no vertices")
        seen = set()
        for label in g.labels:
            if "," in label or len(label.splitlines()) > 1 or label.strip() != label:
                raise ValueError(f"label {label!r} would not read back from labels=")
            if label in seen:
                raise ValueError(f"label {label!r} is repeated, which labels= does not allow")
            seen.add(label)
        lines.append("labels=" + ",".join(g.labels))
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


# graph6 byte -> offsets of its set bits, most significant first.
_SET_BITS = {chr(63 + v): tuple(b for b in range(6) if v >> 5 - b & 1) for v in range(64)}


def parse_graph6(line, _at_most_n_edges=False):
    """Decode one graph in graph6 format.

    Accepts the optional ">>graph6<<" prefix and all three size headers
    (1-, 4- and 8-byte).  Trailing bytes or a second line raise
    MalformedLine; bytes outside 63..126 raise BadChecksumChar; a payload
    shorter than n(n-1)/2 bits raises TruncatedPayload; set padding
    bits past n(n-1)/2 are ignored.

    With _at_most_n_edges, for a caller that reads only graphs with
    m <= n, a graph with more than n edges gives None.  The decode then
    stops after n + 1 payload bytes that carry an edge: every such byte
    carries at least one, and only the last byte can carry padding.
    """
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise TruncatedPayload("empty graph6 string")
    bad = re.search("[^?-~]", s)
    if bad:
        if "\n" in s:
            raise MalformedLine("input holds more than one graph6 line; analyze reads one graph")
        ch = bad.group()
        raise BadChecksumChar(f"byte {ord(ch)} ({ch!r}) outside graph6 range 63..126")
    head = [ord(ch) - 63 for ch in s[:8]]
    if head[0] < 63:
        n, start = head[0], 1
    elif len(head) >= 2 and head[1] < 63:
        if len(head) < 4:
            raise TruncatedPayload("long-form size header cut short")
        n, start = (head[1] << 12) | (head[2] << 6) | head[3], 4
    else:
        if len(head) < 8:
            raise TruncatedPayload("very-long-form size header cut short")
        n, start = 0, 8
        for v in head[2:8]:
            n = (n << 6) | v
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    got = len(s) - start
    if got < need_bytes:
        raise TruncatedPayload(f"need {need_bytes} payload bytes for n={n}, got {got}")
    if got > need_bytes:
        raise MalformedLine(f"{got - need_bytes} trailing bytes after graph6 payload")
    # Payload bit k is the pair (i, j), i < j, with k = j(j-1)/2 + i.
    edges = []
    marked = re.finditer("[^?]", s[start:])
    for m in islice(marked, n + 1) if _at_most_n_edges else marked:
        for b in _SET_BITS[m.group()]:
            k = 6 * m.start() + b
            if k < need_bits:
                j = (1 + isqrt(8 * k + 1)) // 2
                edges.append((k - j * (j - 1) // 2, j))
    if _at_most_n_edges and len(edges) > n:
        return None
    return Graph._checked(n, edges)


def _search(g):
    """(order, parent) of a walk over every component of g: a stack
    search from each start in turn.

    The smallest vertex not yet seen starts the next search, until none
    is left, so each component is rooted at its smallest vertex and
    listed after the components with smaller roots.  A vertex is listed
    when it is claimed, so order lists each vertex after its parent and
    each component's vertices together; a root's parent is -1.  The walk
    checks nothing: its callers read the components, the number of roots
    and the edges off the walk's tree from it.  It comes as tuples, kept
    in g._walk and returned unchanged by every later call on g.
    """
    if g._walk is not None:
        return g._walk
    n, adj = g.n, g._adj
    parent = [-1] * n
    seen = [False] * n
    order = []
    stack = []
    claim, push, pop = order.append, stack.append, stack.pop
    r = 0
    while True:
        while stack:
            u = pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    claim(w)
                    push(w)
        while r < n and seen[r]:
            r += 1
        if r == n:
            g._walk = tuple(order), tuple(parent)
            return g._walk
        seen[r] = True
        claim(r)
        push(r)


def _components(g):
    """Vertex lists of g's components, each sorted, by smallest member."""
    order, parent = _search(g)
    starts = [i for i, v in enumerate(order) if parent[v] < 0]
    return [sorted(order[a:b]) for a, b in zip(starts, starts[1:] + [g.n])]


def classify_shape(g):
    """Tree / forest / cycle / unicyclic / other, per component counting.

    A connected acyclic graph is a tree; "forest" is reserved for the
    disconnected acyclic case.  Raises EmptyGraph on zero vertices.
    """
    if g.n == 0:
        raise EmptyGraph("cannot classify a graph with no vertices")
    m = g.m
    comps = _search(g)[1].count(-1)
    connected = comps == 1
    acyclic = m == g.n - comps
    if connected and acyclic:
        return Shape.TREE
    if acyclic:
        return Shape.FOREST
    if connected and m == g.n:
        if all(len(nbrs) == 2 for nbrs in g._adj):
            return Shape.CYCLE
        return Shape.UNICYCLIC
    return Shape.OTHER


def find_cycle(g):
    """Locate the unique cycle of a unicyclic (or pure cycle) graph.

    g is connected with one cycle iff m = n and the walk has one root.
    Then exactly one edge (u, v) lies off the walk's tree, and the cycle
    is that edge closing the tree path from u up to the lowest common
    ancestor of u and v and down to v, read off the two parent chains.
    The orientation is canonical: start at the smallest cycle vertex,
    step first to the smaller of its two cycle neighbors.
    """
    parent = _search(g)[1]
    if g.m != g.n or parent.count(-1) != 1:
        shape = classify_shape(g).value if g.n else "empty"
        raise NotUnicyclic(f"graph is {shape}, expected exactly one cycle")
    u, v = next(
        (u, v) for u, nbrs in enumerate(g._adj) for v in nbrs if parent[u] != v and parent[v] != u
    )
    return _closed_cycle(parent, u, v)


def _closed_cycle(parent, u, v):
    """The cycle that the edge (u, v) closes on the tree that parent
    roots, in find_cycle's orientation."""
    up = [u]
    while parent[up[-1]] >= 0:
        up.append(parent[up[-1]])
    depth = {x: i for i, x in enumerate(up)}
    down = [v]
    while down[-1] not in depth:
        down.append(parent[down[-1]])
    ring = up[: depth[down[-1]]] + down[::-1]
    i = ring.index(min(ring))
    ring = ring[i:] + ring[:i]
    if ring[1] > ring[-1]:
        ring = ring[:1] + ring[:0:-1]
    return CycleInfo(tuple(ring), len(ring))


def edge_inside(g, vertices):
    """An edge of g with both ends in the set vertices, as (u, v) with
    u < v, or None when no edge of g has both ends there.  An id outside
    0..n-1 is no vertex of g and ends no edge; foreign_id finds it."""
    n, adj = g.n, g._adj
    for v in vertices:
        if 0 <= v < n:
            for w in adj[v]:
                if w in vertices:
                    return (min(v, w), max(v, w))
    return None


def foreign_id(g, ids):
    """The first id in ids that is no vertex of g (outside 0..n-1), or
    None when there is none."""
    n = g.n
    return next((v for v in ids if not 0 <= v < n), None)


def _certificate_fault(g, independent, matching, alpha, nu):
    """What breaks the certificate rule, or None: independent must be an
    independent set of g of size alpha, and matching a matching of g of
    size nu.  The text names the id outside the graph, the edge inside
    the set, the bad matching pair and the sizes."""
    stray, clash = foreign_id(g, independent), edge_inside(g, independent)
    defect = matching_defect(g, matching)
    if stray is None and clash is None and defect is None and (
        (len(independent), len(matching)) == (alpha, nu)
    ):
        return None
    return (
        f"certificates break the rule: id outside the graph {stray}, edge inside "
        f"the set {clash}, bad matching pair {defect}, sizes {len(independent)} "
        f"and {len(matching)} for alpha {alpha} and nu {nu}"
    )


def matching_defect(g, pairs):
    """The first pair that is not an edge of g (an end outside 0..n-1
    included) or shares a vertex with an earlier pair, or None when
    pairs is a matching of g."""
    n, adj = g.n, g._adj
    seen = bytearray(n)
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n and v in adj[u]) or seen[u] or seen[v]:
            return (u, v)
        seen[u] = seen[v] = 1
    return None


_ROLE_ATTRS = {
    Role.SUPPORT: "shape=box",
    Role.CORE: "shape=doublecircle",
    Role.N_VERTEX: "shape=star",
    Role.PLAIN: "shape=circle",
}


def export_dot(g, roles=None):
    """Render as DOT with decomposition roles mapped to node shapes.

    roles maps vertex id -> Role; missing vertices default to plain
    circles and entries for ids outside the graph are ignored.
    """
    roles = roles or {}
    lines = ["graph nulldecomp {", "  node [shape=circle];"]
    for v in range(g.n):
        name = g.name_of(v).replace("\\", "\\\\").replace('"', '\\"')
        attrs = [f'label="{name}"']
        role = roles.get(v)
        if role is not None and role != Role.PLAIN:
            attrs.append(_ROLE_ATTRS[Role(role)])
        lines.append(f'  {v} [{", ".join(attrs)}];')
    for u, v in sorted(g.edges):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"

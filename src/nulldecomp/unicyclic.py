"""Type classification, singularity, alpha and nu for unicyclic graphs.

A connected graph with exactly one cycle splits into pendant trees, one
per cycle vertex.  The dichotomy: the graph is of type I when some cycle
vertex is matched inside its own pendant tree (saturated by every
maximum matching of it), type II when every cycle vertex is mismatched.
Pure cycles land in type II with nothing hanging off.

Everything downstream keys off that split.  For type I with matched
witness v, the graph behaves like the disjoint union of the pendant tree
at v and the rest; for type II it behaves like the cycle plus the forest
left after deleting the cycle.  Nullity, singularity, the independence
number and the matching number all compose accordingly, and analyze()
returns explicit certificates built the same way the composition works,
then validates them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    CycleInfo,
    connected_components,
    find_cycle,
    pendant_trees,
    remove_vertices,
)
from .trees import (
    _map_edges,
    decompose,
    independent_set_certificate,
    matching_certificate,
)


@dataclass(frozen=True)
class TypeVerdict:
    """kind is "I" or "II"; witness is the smallest matched cycle vertex
    for type I, None for type II."""

    kind: str
    witness: object


@dataclass(frozen=True)
class PartAnalysis:
    """Null decomposition of one piece of the split, in parent-graph ids.

    kind is "pendant" (the witness's tree, type I), "rest" (everything
    else, type I) or "component" (one tree of G minus the cycle, type
    II).  root is the cycle vertex the piece hangs from, when there is
    one.
    """

    kind: str
    root: object
    vertices: frozenset
    supp: frozenset
    core: frozenset
    n_vertices: frozenset


@dataclass(frozen=True)
class UnicyclicAnalysis:
    cycle: CycleInfo
    kind: str
    witness: object
    pure_cycle: bool
    singular: bool
    singular_reason: str
    nullity: int
    alpha: int
    nu: int
    parts: tuple
    independent_set: frozenset
    matching: frozenset


def _classify(g, cycle):
    """Smallest-id matched cycle vertex, with the pendant trees and the
    decompositions of those tested (up to the witness) reused, by root."""
    pts = {pt.root: pt for pt in pendant_trees(g, cycle)}
    tested = {}
    for v in sorted(cycle.vertices):
        pt = pts[v]
        tested[v] = decompose(pt.tree)
        if pt.root_local not in tested[v].supp:
            return TypeVerdict("I", v), pts, tested
    return TypeVerdict("II", None), pts, tested


def classify_type(g):
    """Type I with its smallest matched witness, or type II."""
    return _classify(g, find_cycle(g))[0]


def _map_back(vertex_set, label_map):
    return frozenset(label_map[v] for v in vertex_set)


def _part_from(kind, root, d, label_map):
    return PartAnalysis(
        kind=kind,
        root=root,
        vertices=frozenset(label_map),
        supp=_map_back(d.supp, label_map),
        core=_map_back(d.core, label_map),
        n_vertices=_map_back(d.n_forest_vertices, label_map),
    )


def _singularity(g, cycle, verdict, pieces):
    """Verdict and reason from the pieces' decompositions.

    A forest has a perfect matching exactly when its Supp is empty.
    Type I pieces are the pendant tree at the witness and the rest;
    type II pieces are the trees off the cycle.
    """
    if verdict.kind == "I":
        name = g.name_of(verdict.witness)
        pm_pendant, pm_rest = (not d.supp for d in pieces)
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
    pm_forest = not any(d.supp for d in pieces)
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


def _cycle_alternating_vertices(cycle):
    verts = cycle.vertices
    return frozenset(verts[i] for i in range(0, 2 * (cycle.length // 2), 2))


def _cycle_alternating_edges(cycle):
    verts = cycle.vertices
    out = set()
    for k in range(cycle.length // 2):
        a, b = verts[2 * k], verts[2 * k + 1]
        out.add((min(a, b), max(a, b)))
    return frozenset(out)


def _attachment_vertex(g, comp_vertices, cycle_set):
    """The unique vertex of a cycle-deleted component adjacent to the cycle."""
    hits = []
    for u in comp_vertices:
        for w in g.neighbors(u):
            if w in cycle_set:
                hits.append((u, w))
    if len(hits) != 1:
        raise AssertionError("component attaches to the cycle more than once")
    return hits[0]


def _validate_certificates(g, independent, matching, alpha, nu):
    if len(independent) != alpha:
        raise AssertionError(
            f"independent-set certificate has size {len(independent)}, formula says {alpha}"
        )
    for u, v in g.edges:
        if u in independent and v in independent:
            raise AssertionError(f"certificate set contains the edge ({u}, {v})")
    if len(matching) != nu:
        raise AssertionError(
            f"matching certificate has size {len(matching)}, formula says {nu}"
        )
    seen = set()
    for u, v in matching:
        if not g.has_edge(u, v):
            raise AssertionError(f"certificate matching uses the non-edge ({u}, {v})")
        if u in seen or v in seen:
            raise AssertionError(f"certificate matching reuses a vertex of ({u}, {v})")
        seen.add(u)
        seen.add(v)


def analyze(g):
    """Full analysis of a unicyclic graph (pure cycles included).

    Decomposes each piece once and reads off the type, the composed
    nullity, the combinatorial singularity verdict, alpha and nu by the
    closed formulas, the null decomposition of every piece (in original
    vertex ids), and explicit certificates: an independent set of size
    alpha and a matching of size nu, assembled from the pieces exactly
    as the formulas compose and validated against the graph before
    returning.
    """
    cycle = find_cycle(g)
    pure = cycle.length == g.n
    verdict, pts, tested = _classify(g, cycle)

    if verdict.kind == "I":
        v = verdict.witness
        pt = pts[v]
        rest, rest_map = remove_vertices(g, pt.vertex_set())
        d_pt, d_rest = tested[v], decompose(rest)
        pieces = (d_pt, d_rest)
        parts = (
            _part_from("pendant", v, d_pt, pt.label_map),
            _part_from("rest", None, d_rest, rest_map),
        )
        cycle_alpha = cycle_nu = cycle_nullity = 0
        independent = _map_back(
            independent_set_certificate(pt.tree, d_pt, avoid=pt.root_local), pt.label_map
        ) | _map_back(independent_set_certificate(rest, d_rest), rest_map)
        matching = _map_edges(matching_certificate(pt.tree, d_pt), pt.label_map) | _map_edges(
            matching_certificate(rest, d_rest), rest_map
        )
    else:
        cycle_set = set(cycle.vertices)
        forest, fmap = remove_vertices(g, cycle.vertices)
        pieces = []
        parts = []
        independent = set(_cycle_alternating_vertices(cycle))
        for comp, cmap in connected_components(forest):
            full_map = tuple(fmap[x] for x in cmap)
            u_orig, v_orig = _attachment_vertex(g, full_map, cycle_set)
            d = decompose(comp)
            pieces.append(d)
            parts.append(_part_from("component", v_orig, d, full_map))
            u_local = full_map.index(u_orig)
            independent |= _map_back(
                independent_set_certificate(comp, d, avoid=u_local), full_map
            )
        cycle_alpha = cycle_nu = cycle.length // 2
        cycle_nullity = 2 if cycle.length % 4 == 0 else 0
        matching = set(_cycle_alternating_edges(cycle))
        for w in cycle.vertices:
            pt = pts[w]
            if pt.tree.n >= 2:
                matching |= _map_edges(
                    matching_certificate(pt.tree, tested[w], avoid=pt.root_local),
                    pt.label_map,
                )

    alpha = cycle_alpha + sum(d.alpha for d in pieces)
    nu = cycle_nu + sum(d.nu for d in pieces)
    nullity = cycle_nullity + sum(d.nullity for d in pieces)
    singular, reason = _singularity(g, cycle, verdict, pieces)
    independent = frozenset(independent)
    matching = frozenset(matching)
    _validate_certificates(g, independent, matching, alpha, nu)
    return UnicyclicAnalysis(
        cycle=cycle,
        kind=verdict.kind,
        witness=verdict.witness,
        pure_cycle=pure,
        singular=singular,
        singular_reason=reason,
        nullity=nullity,
        alpha=alpha,
        nu=nu,
        parts=tuple(parts),
        independent_set=independent,
        matching=matching,
    )

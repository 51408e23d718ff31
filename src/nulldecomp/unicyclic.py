"""Type classification, singularity, alpha and nu for unicyclic graphs.

A connected graph with exactly one cycle C splits into pendant trees,
one per cycle vertex.  The dichotomy: the graph is of type I when some
cycle vertex is matched inside its own pendant tree (saturated by every
maximum matching of it), type II when every cycle vertex is mismatched.
Pure cycles land in type II with nothing hanging off.

Everything is read off at most two spanning forests of G, both in G's
own vertex ids:

- off is G minus every edge at a cycle vertex, i.e. the forest G - C
  with the cycle vertices left isolated.  A cycle vertex is matched in
  its pendant tree iff one of its neighbors off the cycle lies in
  Supp(off), so one decomposition of off gives the type, and the
  witness is the smallest matched cycle vertex.  A type II graph
  behaves like the cycle plus G - C, so its counts and certificates
  all come from that same decomposition.
- f is G minus the two cycle edges at the type I witness v: the pendant
  tree T_v and G - T_v side by side, which is how a type I graph
  behaves.  One more decomposition covers both.

Each piece's part is the forest's decomposition restricted to the
piece.  Nullity, singularity, the independence number and the matching
number compose over the parts, and analyze() returns explicit
certificates built from the same forests.  Before it returns, it holds
them to the certificate rule of graphs (edge_inside, matching_defect)
and to the sizes alpha and nu, and raises AssertionError naming the
offending edge or pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import CycleInfo, _components, edge_inside, find_cycle, matching_defect
from .trees import decompose, independent_set_certificate, matching_certificate


@dataclass(frozen=True)
class TypeVerdict:
    """kind is "I" or "II"; witness is the smallest matched cycle vertex
    for type I, None for type II."""

    kind: str
    witness: object


@dataclass(frozen=True)
class PartAnalysis:
    """Null decomposition of one piece of the split, in the graph's ids.

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
    """Type verdict from one decomposition of off, with what analyze reuses.

    Returns (verdict, off, d_off, attach); attach maps each vertex off
    the cycle that has a cycle neighbor to that neighbor.
    """
    on = set(cycle.vertices)
    off = g.without_edges([(v, w) for v in cycle.vertices for w in g.neighbors(v)])
    d_off = decompose(off)
    attach = {w: v for v in cycle.vertices for w in g.neighbors(v) if w not in on}
    matched = [v for w, v in attach.items() if w in d_off.supp]
    verdict = TypeVerdict("I", min(matched)) if matched else TypeVerdict("II", None)
    return verdict, off, d_off, attach


def classify_type(g):
    """Type I with its smallest matched witness, or type II."""
    return _classify(g, find_cycle(g))[0]


def _part(kind, root, vertices, d):
    """The piece on vertices, with the decomposition d of its forest restricted to it."""
    vertices = frozenset(vertices)
    return PartAnalysis(
        kind=kind,
        root=root,
        vertices=vertices,
        supp=d.supp & vertices,
        core=d.core & vertices,
        n_vertices=d.n_forest_vertices & vertices,
    )


def _singularity(g, cycle, verdict, parts):
    """Verdict and reason from the parts.

    A forest has a perfect matching exactly when its Supp is empty.
    Type I pieces are the pendant tree at the witness and the rest;
    type II pieces are the trees off the cycle.
    """
    if verdict.kind == "I":
        name = g.name_of(verdict.witness)
        pm_pendant, pm_rest = (not p.supp for p in parts)
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
    pm_forest = not any(p.supp for p in parts)
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

    Decomposes off, and f for type I, once each and reads off the type,
    the composed nullity, the combinatorial singularity verdict, alpha
    and nu by the closed formulas, the null decomposition of every piece
    (in the graph's vertex ids), and explicit certificates: an
    independent set of size alpha and a matching of size nu, assembled
    from the same forests exactly as the formulas compose and validated
    against the graph before returning.
    """
    cycle = find_cycle(g)
    on = set(cycle.vertices)
    verdict, off, d_off, attach = _classify(g, cycle)

    if verdict.kind == "I":
        v = verdict.witness
        f = g.without_edges([(v, w) for w in g.neighbors(v) if w in on])
        d = decompose(f)
        a, b = _components(f)
        pendant, rest = (a, b) if v in a else (b, a)
        parts = (_part("pendant", v, pendant, d), _part("rest", None, rest, d))
        cycle_alpha = cycle_nu = cycle_nullity = 0
        independent = independent_set_certificate(f, d, avoid={v})
        matching = matching_certificate(f)
    else:
        parts = tuple(
            _part("component", attach[next(w for w in comp if w in attach)], comp, d_off)
            for comp in _components(off)
            if comp[0] not in on
        )
        cycle_alpha = cycle_nu = cycle.length // 2
        cycle_nullity = 2 if cycle.length % 4 == 0 else 0
        every_other = slice(0, 2 * cycle_alpha, 2)
        independent = frozenset(cycle.vertices[every_other]) | (
            independent_set_certificate(off, d_off, avoid=attach) - on
        )
        matching = frozenset(cycle.edges[every_other]) | matching_certificate(off)

    alpha = cycle_alpha + sum(len(p.supp) + len(p.n_vertices) // 2 for p in parts)
    nu = cycle_nu + sum(len(p.core) + len(p.n_vertices) // 2 for p in parts)
    nullity = cycle_nullity + sum(len(p.supp) - len(p.core) for p in parts)
    singular, reason = _singularity(g, cycle, verdict, parts)
    clash, defect = edge_inside(g, independent), matching_defect(g, matching)
    if clash or defect or (len(independent), len(matching)) != (alpha, nu):
        raise AssertionError(
            f"certificates break the rule: edge inside the set {clash}, bad matching "
            f"pair {defect}, sizes {len(independent)} and {len(matching)} for alpha "
            f"{alpha} and nu {nu}"
        )
    return UnicyclicAnalysis(
        cycle=cycle,
        kind=verdict.kind,
        witness=verdict.witness,
        pure_cycle=cycle.length == g.n,
        singular=singular,
        singular_reason=reason,
        nullity=nullity,
        alpha=alpha,
        nu=nu,
        parts=parts,
        independent_set=independent,
        matching=matching,
    )

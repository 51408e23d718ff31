"""Random-sweep invariant checks shared by the CLI and the test suite.

Each checker takes one instance and returns {invariant name: bool}.
_tree_checks and _unicyclic_checks also take its analysis, which
`analyze --verify` passes in: for a forest the (decomposition,
independent set, matching) that trees._analyze returns, for a unicyclic
graph its UnicyclicAnalysis.  The check_*_instance wrappers compute it.
run_sweep aggregates tallies and keeps the first offending graph per
invariant so failures can be echoed as edge lists and reproduced.  The
sweeps hand it randgraphs' seeded stream, the graphs of tree_corpus or
unicyclic_corpus one at a time, so a sweep holds one graph and its
checks, not the corpus, whatever the count.

The checkers ask the oracles in the instance's own ids and do only the
work their verdicts need.  Each reads the size guard once, in its first
oracle call; every later oracle runs on a graph of the same n, so it is
called through its unguarded twin (_max_independent_set on bitmasks
already built, _grow for max_matching and eg_set).  alpha(G - S) is a
search of g with S removed, not of a rebuilt G - S; a forest's searches
share one build of its bitmasks, and one growth of its maximum matching
serves the nu check and, off the last Edmonds search of that growth,
the EG set.  A set that checks out as a maximum independent set of the
forest (its ids vertices of t, no edge inside, and of the oracle's size)
is a witness and settles later questions: a Core vertex in one fails
core exclusion at once, an N-vertex in one needs no search of t - N[u],
and one left out of one no search of t - u.  The witnesses are the
first search's, the analysis's own independent set and its other
N-sides (Supp with the rest of the N-vertices), and those of the
searches the N-vertex loop still runs.  When the analysis is right its
two sets put every N-vertex in one and out of the other, so the
N-vertex loop runs no search (McConnell, Mehlhorn, Naeher and
Schweitzer's certifying algorithms: two checked sets prove what the
per-vertex searches would).  Core exclusion rests on the EG set of the
same growth, the set that "EG set equals support" reads: for s in it,
nu(t - s) = nu(t), so by Koenig's theorem (alpha = n - nu on a forest)
alpha(t - s) = alpha(t) - 1 and s lies in every maximum independent
set; a Core vertex next to s lies in none.  A Core vertex is still
searched when it has no neighbour in the EG set, so a correct analysis
costs one search in all.  Witnesses and the EG set are used only when
the decomposition's alpha is the oracle's, so every verdict is the one
the skipped searches would give.  A forest's S part (Supp and Core) and N
part are read off one cut forest, the forest without the edges between
them: one maximum matching of it restricts to a maximum matching of
each component, and the parts must partition the vertices.  The pendant
tree of cycle vertex v is v's component of G - E(C), so the EG set of
that forest answers the type witness check for every cycle vertex.  No
checker builds a relabelled subgraph.
"""

from __future__ import annotations

from collections import namedtuple

from .graphs import Graph, _certificate_fault, _components, edge_inside, foreign_id
from .linalg import null_basis
from .oracles import _bitmasks, _grow, _max_independent_set, max_independent_set
from .randgraphs import _trees, _unicyclic_graphs
from .trees import _analyze as _analyze_forest
from .unicyclic import analyze

TREE_INVARIANTS = (
    "alpha formula vs oracle",
    "nu formula vs oracle",
    "EG set equals support",
    "support equals kernel support",
    "nullity equals kernel nullity",
    "support is independent",
    "core exclusion",
    "N-vertex flexibility",
    "S components singular, N components matched",
    "alpha + nu = n",
    "certificates valid and sized",
)

UNICYCLIC_INVARIANTS = (
    "alpha formula vs oracle",
    "nu formula vs oracle",
    "singularity verdict vs nullity",
    "composed nullity vs direct nullity",
    "certificates valid and sized",
    "type witness agrees with matching oracle",
    "cycle neighbors avoid component support",
)

CYCLE_INVARIANTS = (
    "singular iff length divisible by 4",
    "nullity is 2 or 0 by the same rule",
    "alpha and nu are floor(n/2)",
    "certificates valid and sized",
)


class SweepOutcome(namedtuple("SweepOutcome", "tallies failures stats")):
    """Per invariant (passes, fails) and the first failing graph, and
    counts the sweep keeps besides: a new empty dict when none is given."""

    __slots__ = ()

    def __new__(cls, tallies, failures, stats=None):
        return super().__new__(cls, tallies, failures, {} if stats is None else stats)

    @property
    def ok(self):
        return all(fails == 0 for _, fails in self.tallies.values())


def _size(mate):
    """The number of edges in the matching that the mate list holds."""
    return (len(mate) - mate.count(-1)) // 2


def _tree_checks(t, analysis):
    d, independent, matching = analysis
    checks = {}
    masks = _bitmasks(t)  # the one read of the size guard
    oracle_alpha, found = _max_independent_set(masks)
    mate, missable = _grow(t)
    checks["alpha formula vs oracle"] = d.alpha == oracle_alpha
    checks["nu formula vs oracle"] = d.nu == _size(mate)
    checks["EG set equals support"] = missable == d.supp
    basis = null_basis(t)  # after the guard
    checks["support equals kernel support"] = basis.support == d.supp
    checks["nullity equals kernel nullity"] = basis.nullity == d.nullity
    checks["support is independent"] = edge_inside(t, d.supp) is None

    # fits: vertices in some maximum independent set of t seen so far;
    # avoidable: vertices that some such set leaves out.
    fits, avoidable = set(), set()
    everyone = frozenset(range(t.n))

    def note(found, removed=(), put_back=frozenset()):
        """Add found, a witness for t - removed, with put_back added, to
        fits and avoidable if it is a maximum independent set of t."""
        s = found | put_back
        if (
            d.alpha == oracle_alpha
            and len(s) == oracle_alpha
            and found.isdisjoint(removed)
            and foreign_id(t, s) is None
            and edge_inside(t, s) is None
        ):
            fits.update(s)
            avoidable.update(everyone - s)

    note(found)
    # The analysis's certificate and its other N-sides: when both are
    # maximum independent sets, every N-vertex is in one and out of the
    # other, and the N-vertex loop runs no search.
    note(independent)
    note(d.supp | (d.n_forest_vertices - independent))

    # Every vertex of the EG set lies in every maximum independent set of
    # a forest, so a Core vertex next to one lies in none.
    in_every = missable if d.alpha == oracle_alpha else frozenset()
    ok = True
    for c in d.core:
        if c in fits:  # c fits into some maximum independent set
            ok = False
            break
        if not in_every.isdisjoint(t.neighbors(c)):
            continue
        forced, _ = _max_independent_set(masks, {c, *t.neighbors(c)})
        if 1 + forced == d.alpha:
            ok = False
            break
    checks["core exclusion"] = ok

    ok = True
    for u in d.n_forest_vertices:
        if u not in avoidable:
            without, found = _max_independent_set(masks, (u,))
            if without != d.alpha:
                ok = False
                break
            note(found, (u,))
        if u not in fits:
            closed = {u, *t.neighbors(u)}
            with_u, found = _max_independent_set(masks, closed)
            if 1 + with_u != d.alpha:
                ok = False
                break
            note(found, closed, frozenset((u,)))
    checks["N-vertex flexibility"] = ok

    s_part = d.supp | d.core
    n_part = d.n_forest_vertices
    ok = s_part.isdisjoint(n_part) and len(s_part) + len(n_part) == t.n
    if ok:
        cut = t.without_edges([(u, v) for u, v in t.edges if (u in s_part) != (v in s_part)])
        mate, _ = _grow(cut)
        for comp in _components(cut):
            # An S component must not be fully covered, an N component must.
            if all(mate[v] >= 0 for v in comp) == (comp[0] in s_part):
                ok = False
                break
    checks["S components singular, N components matched"] = ok

    checks["alpha + nu = n"] = d.alpha + d.nu == t.n
    fault = _certificate_fault(t, independent, matching, d.alpha, d.nu)
    checks["certificates valid and sized"] = fault is None
    return checks


def check_tree_instance(t):
    return _tree_checks(t, _analyze_forest(t))


def _unicyclic_checks(g, analysis):
    checks = {}
    oracle_alpha, _ = max_independent_set(g)  # the one read of the size guard
    oracle_nu = _size(_grow(g)[0])
    direct = null_basis(g).nullity
    checks["alpha formula vs oracle"] = analysis.alpha == oracle_alpha
    checks["nu formula vs oracle"] = analysis.nu == oracle_nu
    checks["singularity verdict vs nullity"] = analysis.singular == (direct > 0)
    checks["composed nullity vs direct nullity"] = analysis.nullity == direct

    certificates = (analysis.independent_set, analysis.matching)
    fault = _certificate_fault(g, *certificates, analysis.alpha, analysis.nu)
    checks["certificates valid and sized"] = fault is None

    _, missable = _grow(g.without_edges(analysis.cycle.edges))
    if analysis.kind == "I":
        ok = analysis.witness not in missable
    else:
        ok = all(v in missable for v in analysis.cycle.vertices)
    checks["type witness agrees with matching oracle"] = ok

    ok = True
    if analysis.kind == "II":
        component_supp = set()
        for part in analysis.parts:
            component_supp |= part.supp
        on_cycle = set(analysis.cycle.vertices)
        for v in analysis.cycle.vertices:
            for u in g.neighbors(v):
                if u not in on_cycle and u in component_supp:
                    ok = False
    checks["cycle neighbors avoid component support"] = ok
    return checks


def check_unicyclic_instance(g):
    return _unicyclic_checks(g, analyze(g))


def check_cycle_instance(g):
    checks = {}
    n = g.n
    expect_singular = n % 4 == 0
    analysis = analyze(g)
    checks["singular iff length divisible by 4"] = analysis.singular == expect_singular
    checks["nullity is 2 or 0 by the same rule"] = null_basis(g).nullity == (
        2 if expect_singular else 0
    )
    checks["alpha and nu are floor(n/2)"] = (
        analysis.alpha == n // 2 and analysis.nu == n // 2
    )
    fault = _certificate_fault(g, analysis.independent_set, analysis.matching, n // 2, n // 2)
    checks["certificates valid and sized"] = fault is None
    return checks


def run_sweep(corpus, checker, invariant_names, stats=None):
    """The outcome of checker on each graph of corpus; stats, which the
    checker may fill as it goes, is handed on to the outcome."""
    tallies = {name: [0, 0] for name in invariant_names}
    failures = {}
    for g in corpus:
        result = checker(g)
        for name, passed in result.items():
            row = tallies[name]
            if passed:
                row[0] += 1
            else:
                row[1] += 1
                failures.setdefault(name, g)
    return SweepOutcome({k: (p, f) for k, (p, f) in tallies.items()}, failures, stats)


def tree_sweep(count, n_min, n_max, seed):
    corpus = _trees(count, n_min, n_max, seed)
    return run_sweep(corpus, check_tree_instance, TREE_INVARIANTS)


def unicyclic_sweep(count, n_min, n_max, seed):
    stats = {}

    def checker(g):
        analysis = analyze(g)
        kind = f"type {analysis.kind}"
        stats[kind] = stats.get(kind, 0) + 1
        verdict = "singular" if analysis.singular else "nonsingular"
        stats[verdict] = stats.get(verdict, 0) + 1
        return _unicyclic_checks(g, analysis)

    corpus = _unicyclic_graphs(count, n_min, n_max, seed)
    return run_sweep(corpus, checker, UNICYCLIC_INVARIANTS, stats)


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycles need at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def cycle_sweep(n_min=3, n_max=24):
    corpus = [cycle_graph(n) for n in range(n_min, n_max + 1)]
    return run_sweep(corpus, check_cycle_instance, CYCLE_INVARIANTS)

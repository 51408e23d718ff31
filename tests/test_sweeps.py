"""Sweep plumbing: per-instance checkers and failure aggregation."""

import random
import tracemalloc
from types import SimpleNamespace

import pytest

import nulldecomp.trees

from nulldecomp import (
    Graph,
    NullDecomposition,
    SweepOutcome,
    analyze,
    decompose,
    graphs,
    random_tree,
    sweeps,
)
from nulldecomp.fixtures import load_fixture
from nulldecomp.graphs import CycleInfo, _certificate_fault, _components
from nulldecomp.oracles import _max_independent_set, max_independent_set, max_matching
from nulldecomp.randgraphs import random_unicyclic
from nulldecomp.trees import _C, _N, _S
from nulldecomp.trees import _analyze as _analyze_forest
from nulldecomp.sweeps import (
    CYCLE_INVARIANTS,
    TREE_INVARIANTS,
    UNICYCLIC_INVARIANTS,
    _tree_checks,
    _unicyclic_checks,
    check_cycle_instance,
    check_tree_instance,
    check_unicyclic_instance,
    cycle_graph,
    run_sweep,
)
from refgraphs import induced_by_edge_scan


def test_tree_checker_emits_every_invariant():
    t = Graph(4, [(0, 1), (0, 2), (0, 3)])
    checks = check_tree_instance(t)
    assert set(checks) == set(TREE_INVARIANTS)
    assert all(checks.values())
    # The kernel and the certificates are checked on forests as on unicyclic graphs.
    assert {
        "support equals kernel support",
        "nullity equals kernel nullity",
        "certificates valid and sized",
    } <= set(checks)


C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


@pytest.mark.parametrize(
    "independent, matching, alpha, nu, ok",
    [
        ({0, 2}, {(0, 1), (2, 3)}, 2, 2, True),
        ({0, 1}, {(0, 1), (2, 3)}, 2, 2, False),  # the set holds the edge 0-1
        ({0, 2}, {(0, 2), (3, 4)}, 2, 2, False),  # 0-2 is not an edge
        ({0, 2}, {(0, 1), (1, 2)}, 2, 2, False),  # vertex 1 is used twice
        ({0, 2}, {(0, 1), (2, 3)}, 3, 2, False),  # the set is not of size alpha
        ({0, 2}, {(0, 1), (2, 3)}, 2, 1, False),  # the matching is not of size nu
        ({-1, 2}, {(0, 1), (2, 3)}, 2, 2, False),  # -1 is no vertex (it would index 4)
        ({5, 2}, {(0, 1), (2, 3)}, 2, 2, False),  # 5 is no vertex
        ({0, 2}, {(-1, 3), (0, 1)}, 2, 2, False),  # -1 is no vertex, though 4-3 is an edge
        ({0, 2}, {(5, 0), (2, 3)}, 2, 2, False),  # 5 is no vertex
    ],
    ids=[
        "valid",
        "edge-in-set",
        "non-edge",
        "reused-vertex",
        "alpha-size",
        "nu-size",
        "negative-id-in-set",
        "large-id-in-set",
        "negative-id-in-matching",
        "large-id-in-matching",
    ],
)
def test_certificates_valid(independent, matching, alpha, nu, ok):
    # The rule behind "certificates valid and sized" and the analyses' own check.
    assert (_certificate_fault(C5, independent, matching, alpha, nu) is None) is ok


def test_certificates_with_a_foreign_id_fail_on_a_path():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert _certificate_fault(g, {0, 2}, {(0, 1), (2, 3)}, 2, 2) is None
    assert "bad matching pair (-1, 2)" in _certificate_fault(g, {0, 2}, {(-1, 2), (0, 1)}, 2, 2)
    assert "id outside the graph -1" in _certificate_fault(g, {-1, 1}, {(0, 1), (2, 3)}, 2, 2)
    assert "bad matching pair (9, 0)" in _certificate_fault(g, {0, 2}, {(9, 0), (2, 3)}, 2, 2)


def test_unicyclic_checker_emits_every_invariant():
    g = Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (0, 4)])
    checks = check_unicyclic_instance(g)
    assert set(checks) == set(UNICYCLIC_INVARIANTS)
    assert all(checks.values())


def test_cycle_checker():
    for n in (3, 4, 5, 8, 12):
        checks = check_cycle_instance(cycle_graph(n))
        assert set(checks) == set(CYCLE_INVARIANTS)
        assert all(checks.values())


def test_run_sweep_records_first_failure():
    corpus = [Graph(1), Graph(2, [(0, 1)]), Graph(3, [(0, 1), (1, 2)])]

    def checker(g):
        return {"always true": True, "two or more vertices": g.n >= 2}

    outcome = run_sweep(corpus, checker, ("always true", "two or more vertices"))
    assert outcome.tallies["always true"] == (3, 0)
    assert outcome.tallies["two or more vertices"] == (2, 1)
    assert not outcome.ok
    assert outcome.failures["two or more vertices"] == Graph(1)


def test_outcome_ok_when_no_failures():
    outcome = SweepOutcome(tallies={"x": (5, 0)}, failures={})
    assert outcome.ok


def test_tree_sweep_holds_one_graph_at_a_time(monkeypatch):
    # The checks are stubbed so that what the sweep itself holds shows: a
    # list of the corpus would make the peak grow tenfold with the count.
    monkeypatch.setattr(
        sweeps, "check_tree_instance", lambda t: dict.fromkeys(sweeps.TREE_INVARIANTS, True)
    )

    def peak(count):
        tracemalloc.start()
        try:
            outcome = sweeps.tree_sweep(count, 3, 12, 5)
            held = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.tallies["alpha + nu = n"] == (count, 0)
        return held

    peak(4000)  # fills the interpreter's free lists, which tracemalloc counts
    assert peak(4000) <= 1.2 * peak(400)


def random_forest(n, rng):
    """A random tree on n vertices with about a quarter of its edges cut."""
    t = random_tree(n, rng)
    return t.without_edges(rng.sample(sorted(t.edges), len(t.edges) // 4))


# The per-vertex loops and the induced-subgraph check that _tree_checks
# replaced, kept here as the reference its three verdicts must equal.


def reference_core_exclusion(t, d):
    for c in d.core:
        forced, _ = max_independent_set(t, {c} | set(t.neighbors(c)))
        if 1 + forced == d.alpha:  # c would fit into some maximum independent set
            return False
    return True


def reference_n_vertex_flexibility(t, d):
    for u in d.n_forest_vertices:
        without, _ = max_independent_set(t, (u,))
        with_u, _ = max_independent_set(t, {u} | set(t.neighbors(u)))
        if without != d.alpha or 1 + with_u != d.alpha:
            return False
    return True


def reference_s_and_n_parts(t, d):
    ok = True
    s_part = d.supp | d.core
    if s_part:
        s_sub, _ = induced_by_edge_scan(t, s_part)
        covered = {v for edge in max_matching(s_sub).edges for v in edge}
        for comp in _components(s_sub):
            if all(v in covered for v in comp):
                ok = False  # S components are singular trees
    if ok and d.n_forest_vertices:
        n_sub, _ = induced_by_edge_scan(t, d.n_forest_vertices)
        ok = 2 * max_matching(n_sub).size == n_sub.n
    return ok


REFERENCES = {
    "core exclusion": reference_core_exclusion,
    "N-vertex flexibility": reference_n_vertex_flexibility,
    "S components singular, N components matched": reference_s_and_n_parts,
}


def shifted_alpha(d, by):
    """d with alpha off by `by` and every other field as it is."""
    return SimpleNamespace(
        supp=d.supp,
        core=d.core,
        n_forest_vertices=d.n_forest_vertices,
        nullity=d.nullity,
        alpha=d.alpha + by,
        nu=d.nu,
    )


def with_roles(n, supp=(), core=(), rest=()):
    """The decomposition whose role array gives the listed vertices of an
    n-vertex forest their roles, and every other vertex none."""
    roles = bytearray(n)
    for role, ids in ((_S, supp), (_C, core), (_N, rest)):
        for v in ids:
            roles[v] = role
    return NullDecomposition(bytes(roles))


def replaced(d, **sets):
    """d with the given sets replaced, where they may overlap, which no
    role array can hold: alpha and nu follow the sets, and the nullity
    stays d's."""
    sets = {"supp": d.supp, "core": d.core, "n_forest_vertices": d.n_forest_vertices, **sets}
    sets = {k: frozenset(v) for k, v in sets.items()}
    half = len(sets["n_forest_vertices"]) // 2
    return SimpleNamespace(
        **sets, nullity=d.nullity, alpha=len(sets["supp"]) + half, nu=len(sets["core"]) + half
    )


def moved(d, rng):
    """d with one to three vertices moved between Supp, Core and N; the
    three parts still partition the vertices, and alpha and nu follow."""
    parts = [set(d.supp), set(d.core), set(d.n_forest_vertices)]
    for _ in range(rng.randint(1, 3)):
        src = rng.choice([p for p in parts if p])
        v = rng.choice(sorted(src))
        src.remove(v)
        rng.choice([p for p in parts if p is not src]).add(v)
    return with_roles(len(d.roles), *parts)


def _cases(seed):
    """(forest, decomposition) pairs: true, with alpha off by one, and
    with vertices moved between the parts, on random trees and forests."""
    rng = random.Random(seed)
    cases = []
    for i in range(160):
        n = rng.randrange(1, 31)
        t = random_tree(n, rng) if i % 2 else random_forest(n, rng)
        d = decompose(t)
        cases += [(t, d), (t, shifted_alpha(d, 1)), (t, shifted_alpha(d, -1))]
        cases += [(t, moved(d, rng)) for _ in range(3)]
    return cases


def test_tree_checks_equal_the_per_vertex_reference():
    seen = {name: set() for name in REFERENCES}
    for t, d in _cases(83):
        checks = _tree_checks(t, (d, frozenset(), frozenset()))
        for name, reference in REFERENCES.items():
            want = reference(t, d)
            assert checks[name] == want, (name, t.edges, d)
            seen[name].add(want)
    # the corrupted decompositions make every reference verdict both ways
    assert all(verdicts == {True, False} for verdicts in seen.values())


@pytest.mark.parametrize(
    "bad", ["every-vertex", "empty", "one-short", "swapped", "ignores-removed"]
)
def test_tree_checks_distrust_a_bad_witness(monkeypatch, bad):
    # A witness steers which searches run, so one that is not a maximum
    # independent set of t must never be taken for one.  The sizes stay
    # the oracle's own, so the reference's verdicts do not change.
    def lying(adj, removed=()):
        size, witness = _max_independent_set(adj, removed)
        if bad == "every-vertex":
            witness = frozenset(range(len(adj)))
        elif bad == "empty":
            witness = frozenset()
        elif bad == "one-short" and witness:
            witness = witness - {min(witness)}
        elif bad == "swapped" and witness:
            v = min(witness)
            lowest = (adj[v] & -adj[v]).bit_length() - 1  # v's smallest neighbour
            witness = (witness - {v}) | {lowest if adj[v] else v}
        elif bad == "ignores-removed":
            witness = _max_independent_set(adj)[1]
        return size, witness

    monkeypatch.setattr(sweeps, "_max_independent_set", lying)
    for t, d in _cases(89)[::2]:
        checks = _tree_checks(t, (d, frozenset(), frozenset()))
        for name, reference in REFERENCES.items():
            assert checks[name] == reference(t, d), (name, t.edges, d)


def _counted_searches(monkeypatch):
    """The removed sets of every independence search _tree_checks runs
    from here on, in order."""
    calls = []

    def counted(adj, removed=()):
        calls.append(removed)
        return _max_independent_set(adj, removed)

    monkeypatch.setattr(sweeps, "_max_independent_set", counted)
    return calls


def test_tree_checks_search_once_per_correct_forest(monkeypatch):
    # The analysis's certificate and its other N-sides put every N-vertex
    # in one maximum independent set and out of another, and every Core
    # vertex has a neighbour in the EG set, which lies in every maximum
    # independent set: past the first search nothing is searched.
    calls = _counted_searches(monkeypatch)
    rng = random.Random(97)
    for i in range(200):
        n = rng.randrange(1, 31)
        t = random_tree(n, rng) if i % 2 else random_forest(n, rng)
        calls.clear()
        assert all(check_tree_instance(t).values())
        assert calls == [()]


def test_tree_checks_search_core_vertices_when_alpha_is_wrong(monkeypatch):
    # With the claimed alpha off, neither the witnesses nor the EG set
    # settle a Core vertex, so the core loop searches, and every verdict
    # is still the reference's.
    calls = _counted_searches(monkeypatch)
    rng = random.Random(107)
    searched = 0
    for i in range(60):
        n = rng.randrange(2, 31)
        t = random_tree(n, rng) if i % 2 else random_forest(n, rng)
        d = decompose(t)
        if not d.core:
            continue
        wrong = shifted_alpha(d, -1)
        calls.clear()
        checks = _tree_checks(t, (wrong, frozenset(), frozenset()))
        assert any({c, *t.neighbors(c)} in calls for c in d.core)
        searched += 1
        for name, reference in REFERENCES.items():
            assert checks[name] == reference(t, wrong), (name, t.edges)
    assert searched > 20


def _corrupted_certificate(t, d, independent, how):
    """independent, the certificate of t's analysis, broken the way how
    names.  v is its smallest vertex that d, which may itself be
    corrupted, calls an N-vertex (else its smallest), and u is v's
    smallest neighbour; all but one-short and empty keep the size."""
    v = min(independent & d.n_forest_vertices or independent)
    u = min(t.neighbors(v), default=v)
    rest = independent - {v}
    if how == "foreign-id":  # no edge inside, which edge_inside alone lets through
        return rest | {t.n}
    if how == "edge-inside":  # v and u both in
        return independent - {min(rest, default=v)} | {u}
    if how == "one-short":
        return rest
    if how == "moved":  # v gives its place to u, on the other side
        return rest | {u}
    return frozenset()


@pytest.mark.parametrize("how", ["foreign-id", "edge-inside", "one-short", "moved", "empty"])
def test_tree_checks_distrust_a_bad_certificate(how):
    # The certificates steer which searches run, so a set that is not a
    # maximum independent set of t must never be taken for one: with the
    # certificate broken, and its other N-sides read off it, every
    # verdict is still the reference's.
    for t, d in _cases(103)[::2]:
        independent = _analyze_forest(t)[1]
        bad = _corrupted_certificate(t, d, independent, how)
        checks = _tree_checks(t, (d, bad, frozenset()))
        for name, reference in REFERENCES.items():
            assert checks[name] == reference(t, d), (name, t.edges, d)


def test_tree_checks_build_the_bitmasks_once(monkeypatch):
    # Every independence search of one instance runs on one build of t's
    # bitmasks, the forest analysis walks t once, and the S/N check reads
    # the cut forest off that walk and t's own maximum matching: one
    # matching growth, and no cut forest is built or walked.  A walk is
    # counted when it is built, not each time the Graph that keeps it
    # serves it.
    builds, walked, grown = [], [], []
    bitmasks, search, grow = sweeps._bitmasks, graphs._search, sweeps._grow

    def counted_bitmasks(g):
        builds.append(g)
        return bitmasks(g)

    def counted_search(g):
        if g._walk is None:
            walked.append(g)
        return search(g)

    def counted_grow(g):
        grown.append(g)
        return grow(g)

    monkeypatch.setattr(sweeps, "_bitmasks", counted_bitmasks)
    monkeypatch.setattr(sweeps, "_grow", counted_grow)
    for module in (graphs, nulldecomp.trees, sweeps):
        monkeypatch.setattr(module, "_search", counted_search)
    rng = random.Random(101)
    for i in range(60):
        n = rng.randrange(1, 31)
        t = random_tree(n, rng) if i % 2 else random_forest(n, rng)
        builds.clear()
        walked.clear()
        grown.clear()
        assert all(check_tree_instance(t).values())
        assert len(builds) == 1 and builds[0] is t
        assert [g is t for g in walked] == [True]
        assert [g is t for g in grown] == [True]


def test_s_and_n_parts_must_partition_the_vertices():
    # The cut forest holds each vertex once, so parts that overlap or
    # miss a vertex fail, where the reference may pass them.
    d = decompose(P4)  # every vertex an N-vertex
    overlapping = replaced(d, supp={0})
    missing = with_roles(4, rest={0, 1})
    name = "S components singular, N components matched"
    assert reference_s_and_n_parts(P4, overlapping)
    assert reference_s_and_n_parts(P4, missing)
    assert not _tree_checks(P4, (overlapping, frozenset(), frozenset()))[name]
    assert not _tree_checks(P4, (missing, frozenset(), frozenset()))[name]


def test_s_and_n_parts_must_name_vertices_of_the_forest():
    # An id outside 0..n-1 is no vertex, so parts that name one fail,
    # even when their sizes add up to n.  -1 must not stand for vertex 2,
    # which would make the S part all of P3, one singular component.
    name = "S components singular, N components matched"
    for stray in (-1, 3):
        d = replaced(decompose(P3), supp={0, stray})
        assert not _tree_checks(P3, (d, frozenset(), frozenset()))[name]


def test_s_and_n_parts_grow_the_cut_matching_when_t_s_crosses_them():
    # t's maximum matching pairs 0 (S) with 1 (N), so it says nothing of
    # the cut forest's: the S component {0} is singular and the N path
    # 1-2-3-4 is perfectly matched, but t's matching misses 4.
    t = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    d = with_roles(5, supp={0}, rest={1, 2, 3, 4})
    assert sweeps._grow(t)[0] == [1, 0, 3, 2, -1]
    assert reference_s_and_n_parts(t, d)
    assert _tree_checks(t, (d, frozenset(), frozenset()))[
        "S components singular, N components matched"
    ]


def test_tree_checks_give_verdicts_on_an_analysis_of_a_larger_forest():
    # The analysis names ids 8..11 of a 12-vertex tree: every check that
    # reads a vertex of it fails, and none raises.
    t = random_tree(8, random.Random(3))
    checks = _tree_checks(t, _analyze_forest(random_tree(12, random.Random(4))))
    assert set(checks) == set(TREE_INVARIANTS)
    for name in (
        "core exclusion",
        "N-vertex flexibility",
        "S components singular, N components matched",
        "certificates valid and sized",
    ):
        assert not checks[name], name


@pytest.mark.parametrize("cycle", [(0, 1, 3), (0, 1, 9), (-1, 1, 2)])
def test_unicyclic_checks_give_verdicts_on_a_cycle_outside_the_graph(cycle):
    # The triangle 0-1-2 with the path 2-3-4 hung on it, type II; a cycle
    # with an edge or an id outside it fails the checks that read it.
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    a = analyze(g)
    assert a.kind == "II" and all(_unicyclic_checks(g, a).values())
    checks = _unicyclic_checks(g, a._replace(cycle=CycleInfo(cycle, 3)))
    assert not checks["type witness agrees with matching oracle"]
    assert not checks["cycle neighbors avoid component support"]


def test_type_witness_fails_off_the_cycle():
    # fig6 is type I; a witness that is no cycle vertex, or no vertex,
    # names no cycle vertex that every maximum matching covers.
    g = load_fixture("fig6")
    a = analyze(g)
    assert a.kind == "I"
    name = "type witness agrees with matching oracle"
    for v in (*(v for v in range(g.n) if v not in a.cycle.vertices), g.n, -1):
        assert not _unicyclic_checks(g, a._replace(witness=v))[name], v


def _corrupted_tree_checks(t, name, corrupt):
    """The verdict on invariant name for corrupt(d), d being t's
    decomposition, after checking that d itself passes."""
    d = decompose(t)
    assert _tree_checks(t, (d, frozenset(), frozenset()))[name]
    return _tree_checks(t, (corrupt(d), frozenset(), frozenset()))[name]


P3 = Graph(3, [(0, 1), (1, 2)])  # Supp {0, 2}, Core {1}
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])  # every vertex an N-vertex
P3_AND_P2 = Graph(5, [(0, 1), (1, 2), (3, 4)])  # Supp {0, 2}, Core {1}, N {3, 4}


@pytest.mark.parametrize("t", [P3, P4])
def test_core_exclusion_fails_on_a_core_vertex_in_some_maximum_independent_set(t):
    # vertex 0 is in Supp of P3 and an N-vertex of P4, and stays there
    assert not _corrupted_tree_checks(t, "core exclusion", lambda d: replaced(d, core={0}))


@pytest.mark.parametrize("moved", [1, 0])  # a Core vertex, a Supp vertex
def test_n_vertex_flexibility_fails_on_a_vertex_that_is_not_flexible(moved):
    def corrupt(d):
        return replaced(d, n_forest_vertices={moved})

    assert not _corrupted_tree_checks(P3, "N-vertex flexibility", corrupt)


@pytest.mark.parametrize(
    "t, corrupt",
    [
        (P4, lambda d: replaced(d, supp={0}, core={1})),  # S part has a perfect matching
        (P3, lambda d: with_roles(3, rest={0, 1, 2})),  # odd N part
        # the first S component is singular, the second is not
        (P3_AND_P2, lambda d: replaced(d, supp={0, 2, 3}, core={1, 4})),
        # the same two S faults with the roles partitioning the vertices
        (P4, lambda d: with_roles(4, supp={0}, core={1}, rest={2, 3})),
        (P3_AND_P2, lambda d: with_roles(5, supp={0, 2, 3}, core={1, 4})),
        # singular S component, but an unmatched N component beside it
        (Graph(4, [(0, 1), (1, 2)]), lambda d: with_roles(4, supp={0, 2}, core={1}, rest={3})),
    ],
    ids=[
        "perfect-s-component",
        "unmatched-n-part",
        "second-s-component",
        "perfect-s-component-partitioned",
        "second-s-component-partitioned",
        "unmatched-n-component",
    ],
)
def test_s_and_n_components_fail_on_the_wrong_matching(t, corrupt):
    assert not _corrupted_tree_checks(t, "S components singular, N components matched", corrupt)


@pytest.mark.parametrize("name", ["fig6", "fig4"])
def test_type_witness_fails_on_the_wrong_verdict(name):
    g = load_fixture(name)
    a = analyze(g)
    assert _unicyclic_checks(g, a)["type witness agrees with matching oracle"]
    if a.kind == "I":
        # type II needs every root missable, and the witness is not
        wrong = [a._replace(kind="II")]
        # any other cycle vertex missable in its pendant tree as witness
        wrong += [
            a._replace(witness=v)
            for v in a.cycle.vertices
            if v != a.witness and len(g.neighbors(v)) == 2
        ]
    else:
        wrong = [a._replace(kind="I", witness=v) for v in a.cycle.vertices]
    assert wrong
    for bad in wrong:
        assert not _unicyclic_checks(g, bad)["type witness agrees with matching oracle"]

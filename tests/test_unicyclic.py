"""Type split, singularity, counting formulas and certificates on one-cycle graphs."""

import hashlib
import random
from collections import deque
from itertools import combinations, product

import pytest

import nulldecomp.graphs
import nulldecomp.linalg
import nulldecomp.randgraphs
import nulldecomp.trees
import nulldecomp.unicyclic
from nulldecomp import (
    Graph,
    NotUnicyclic,
    TypeVerdict,
    analyze,
    classify_type,
    decompose,
    find_cycle,
    independent_set_certificate,
    matching_certificate,
    max_independent_set,
    max_matching,
    null_basis,
    random_tree,
    random_unicyclic,
    unicyclic_corpus,
    unicyclic_sweep,
)
from nulldecomp.fixtures import load_fixture
from nulldecomp.graphs import _components, matching_defect
from nulldecomp.sweeps import cycle_graph
from nulldecomp.unicyclic import UnicyclicAnalysis, _singularity
from refgraphs import induced_by_edge_scan, pendant_tree, without_vertices


def paw():
    """Triangle with one pendant leaf: smallest type I graph."""
    return Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])


def smallest_type1_singular():
    """Triangle with two leaves on one vertex."""
    return Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (0, 4)])


def square_with_tail():
    """C4 plus a pendant path of two: type II, singular by cycle length."""
    return Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)])


def prufer_tree(seq, n):
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if deg[v] == 1)
        edges.append((leaf, x))
        deg[leaf] -= 1
        deg[x] -= 1
    u, v = [w for w in range(n) if deg[w] == 1]
    edges.append((u, v))
    return Graph(n, edges)


def all_unicyclic(n):
    """Every labeled unicyclic graph on n vertices, each once.

    A graph whose cycle has length k arises from k spanning trees, so
    repeats are skipped by edge set.
    """
    seen = set()
    seqs = product(range(n), repeat=n - 2) if n > 2 else [()]
    for seq in seqs:
        t = prufer_tree(list(seq), n)
        for u, v in combinations(range(n), 2):
            edges = t.edges | {(u, v)}
            if v not in t.neighbors(u) and edges not in seen:
                seen.add(edges)
                yield Graph(n, edges)


def reference_classify(g, cycle):
    """The type from one decomposition of off, G minus every edge at a
    cycle vertex, built as a copy; returns (verdict, off, d_off, attach),
    attach mapping each vertex off the cycle with a cycle neighbor to it."""
    on = set(cycle.vertices)
    off = g.without_edges([(v, w) for v in cycle.vertices for w in g.neighbors(v)])
    d_off = decompose(off)
    attach = {w: v for v in cycle.vertices for w in g.neighbors(v) if w not in on}
    matched = [v for w, v in attach.items() if w in d_off.supp]
    verdict = TypeVerdict("I", min(matched)) if matched else TypeVerdict("II", None)
    return verdict, off, d_off, attach


def part_view(p):
    """A part as (kind, root, vertices, supp, core, n_vertices)."""
    return (p.kind, p.root, p.vertices, p.supp, p.core, p.n_vertices)


def reference_part(kind, root, vertices, d):
    """The piece on vertices, with the decomposition d of its forest
    restricted to it, as part_view gives it."""
    vertices = frozenset(vertices)
    d_sets = (d.supp, d.core, d.n_forest_vertices)
    return (kind, root, vertices, *(s & vertices for s in d_sets))


def reference_analyze(g):
    """analyze by the route of forest copies: off, and for type I the copy
    f without the witness's cycle edges, each decomposed and walked on its
    own, with the public certificate builders run on the copies.  The
    parts are part_view tuples."""
    cycle = find_cycle(g)
    on = set(cycle.vertices)
    verdict, off, d_off, attach = reference_classify(g, cycle)
    if verdict.kind == "I":
        v = verdict.witness
        f = g.without_edges([(v, w) for w in g.neighbors(v) if w in on])
        d = decompose(f)
        a, b = _components(f)
        pendant, rest = (a, b) if v in a else (b, a)
        parts = (reference_part("pendant", v, pendant, d), reference_part("rest", None, rest, d))
        cycle_alpha = cycle_nu = cycle_nullity = 0
        independent = independent_set_certificate(f, avoid={v})
        matching = matching_certificate(f)
    else:
        parts = tuple(
            reference_part("component", attach[next(w for w in comp if w in attach)], comp, d_off)
            for comp in _components(off)
            if comp[0] not in on
        )
        cycle_alpha = cycle_nu = cycle.length // 2
        cycle_nullity = 2 if cycle.length % 4 == 0 else 0
        every_other = slice(0, 2 * cycle_alpha, 2)
        independent = frozenset(cycle.vertices[every_other]) | (
            independent_set_certificate(off, avoid=attach) - on
        )
        matching = frozenset(cycle.edges[every_other]) | matching_certificate(off)
    supp = [len(supp) for _, _, _, supp, _, _ in parts]
    singular, reason = _singularity(g, cycle, verdict, supp[0] if parts else 0, sum(supp))
    return UnicyclicAnalysis(
        cycle=cycle,
        kind=verdict.kind,
        witness=verdict.witness,
        pure_cycle=cycle.length == g.n,
        singular=singular,
        singular_reason=reason,
        nullity=cycle_nullity + sum(len(supp) - len(core) for _, _, _, supp, core, _ in parts),
        alpha=cycle_alpha + sum(len(supp) + len(n) // 2 for _, _, _, supp, _, n in parts),
        nu=cycle_nu + sum(len(core) + len(n) // 2 for _, _, _, _, core, n in parts),
        parts=parts,
        independent_set=independent,
        matching=matching,
    )


def assert_equals_the_copy_route(g):
    """analyze(g) equals reference_analyze(g) in every field but the
    matching.  The copies are rooted elsewhere, so their matching may
    pair other vertices: analyze's must be a matching of g of the same
    size.  Returns analyze(g)."""
    a, want = analyze(g), reference_analyze(g)
    got = a._replace(parts=tuple(map(part_view, a.parts)), matching=None)
    assert got == want._replace(matching=None), sorted(g.edges)
    assert matching_defect(g, a.matching) is None, sorted(g.edges)
    assert len(a.matching) == len(want.matching), sorted(g.edges)
    return a


class TestClassify:
    @pytest.mark.parametrize(
        "name,kind,witness",
        [
            ("fig2_G", "I", "v1"),
            ("fig2_H", "II", None),
            ("fig3", "I", "v"),
            ("fig4", "II", None),
            ("fig6", "I", "v"),
            ("fig7", "II", None),
        ],
    )
    def test_fixture_types(self, name, kind, witness):
        g = load_fixture(name)
        verdict = classify_type(g)
        assert verdict.kind == kind
        if witness is None:
            assert verdict.witness is None
        else:
            assert g.name_of(verdict.witness) == witness

    def test_paw_is_type1(self):
        assert classify_type(paw()).kind == "I"
        assert classify_type(paw()).witness == 0

    def test_pure_cycles_are_type2(self):
        for n in (3, 4, 5, 8):
            assert classify_type(cycle_graph(n)).kind == "II"

    def test_agrees_with_the_root_test_per_pendant_tree(self):
        # The reference route: decompose each pendant tree on its own, in
        # increasing root order, and stop at the first matched root.
        kinds = set()
        for n in range(3, 8):
            for g in all_unicyclic(n):
                want = TypeVerdict("II", None)
                cycle = find_cycle(g)
                for root in sorted(cycle.vertices):
                    tree, label_map = pendant_tree(g, cycle, root)
                    if label_map.index(root) not in decompose(tree).supp:
                        want = TypeVerdict("I", root)
                        break
                assert classify_type(g) == want, g.edges
                kinds.add(want.kind)
        assert kinds == {"I", "II"}

    def test_rejects_trees_and_multicyclic(self):
        with pytest.raises(NotUnicyclic):
            classify_type(Graph(3, [(0, 1), (1, 2)]))
        with pytest.raises(NotUnicyclic):
            classify_type(Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)]))

    def test_rejects_the_empty_graph(self):
        # find_cycle's message names the shape, which classify_shape
        # refuses to give for no vertices.
        for f in (classify_type, analyze):
            with pytest.raises(NotUnicyclic, match="graph is empty"):
                f(Graph(0))


def bfs_parents_from_the_cycle(g, cycle):
    """Each vertex's parent in the forest G minus the cycle edges rooted at
    the cycle vertices (-1 on the cycle), by a breadth-first search from
    all of them at once."""
    parent = [None] * g.n
    for c in cycle.vertices:
        parent[c] = -1
    queue = deque(cycle.vertices)
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if parent[w] is None:
                parent[w] = u
                queue.append(w)
    return parent


class TestRerooting:
    """unicyclic._rooted turns the walk of G that found the cycle into
    the one rooting of G minus the cycle edges at the cycle."""

    def check(self, g):
        cycle = find_cycle(g)
        walk = nulldecomp.graphs._search(g)  # the walk g keeps, which found the cycle
        order, parent = nulldecomp.unicyclic._rooted(cycle, walk)[:2]
        assert list(parent) == bfs_parents_from_the_cycle(g, cycle)
        assert tuple(order[: cycle.length]) == cycle.vertices
        assert sorted(order) == list(range(g.n))
        position = {v: i for i, v in enumerate(order)}
        assert all(position[parent[v]] < position[v] for v in order if parent[v] >= 0)
        return walk, cycle

    @pytest.mark.parametrize("seed", [3, 17, 41, 59])
    def test_random_unicyclic_graphs(self, seed):
        rng = random.Random(seed)
        off = 0
        for _ in range(150):
            walk, cycle = self.check(random_unicyclic(rng.randrange(3, 61), rng))
            off += walk[0][0] not in cycle.vertices
        assert off > 50  # most walks start off the cycle and get a path reversed

    def test_pure_cycles(self):
        for n in range(3, 40):
            self.check(cycle_graph(n))

    def test_a_cycle_through_vertex_0(self):
        # The walk starts on the cycle, so no pointer is reversed.
        g = Graph(7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (2, 5), (5, 6)])
        walk, cycle = self.check(g)
        assert walk[0][0] in cycle.vertices

    def test_a_long_tail_ending_at_vertex_0(self):
        # A lollipop: the path 0 ... 99996 ends on a 4-cycle, so the walk
        # from 0 meets the cycle last and 99,996 pointers are reversed,
        # with no recursion.
        n = 10**5
        edges = [(i, i + 1) for i in range(n - 1)] + [(n - 4, n - 1)]
        walk, cycle = self.check(Graph(n, edges))
        assert cycle.vertices == (n - 4, n - 3, n - 2, n - 1)


class TestSingularity:
    def test_paw_is_nonsingular(self):
        a = analyze(paw())
        assert not a.singular
        assert "both have perfect matchings" in a.singular_reason
        assert null_basis(paw()).nullity == 0

    def test_smallest_type1_singular(self):
        g = smallest_type1_singular()
        a = analyze(g)
        assert a.singular
        assert "no perfect matching" in a.singular_reason
        assert null_basis(g).nullity == 1

    def test_type2_singular_by_cycle_length(self):
        g = square_with_tail()
        a = analyze(g)
        assert a.kind == "II"
        assert a.singular
        assert "divisible by 4" in a.singular_reason
        assert null_basis(g).nullity == 2

    def test_type2_singular_by_unmatched_component(self):
        a = analyze(load_fixture("fig7"))
        assert a.singular
        assert "no perfect matching" in a.singular_reason

    @pytest.mark.parametrize("labels,name", [(None, "0"), ("uvwx", "u")])
    @pytest.mark.parametrize(
        "pendant_supp,supp,singular,reason",
        [
            (0, 0, False, "type I at witness {0}: the pendant tree and the rest both have"
             " perfect matchings"),
            (1, 1, True, "type I: the pendant tree at {0} has no perfect matching"),
            (0, 1, True, "type I: the rest after removing the pendant tree at {0} has no"
             " perfect matching"),
            (1, 2, True, "type I: the pendant tree at {0} has no perfect matching; the rest"
             " after removing the pendant tree at {0} has no perfect matching"),
        ],
        ids=["none", "pendant", "rest", "both"],
    )
    def test_type1_reason_for_each_failing_piece(
        self, labels, name, pendant_supp, supp, singular, reason
    ):
        # The paw's witness is 0, named by its label when it has one.
        g = Graph(4, paw().edges, labels)
        verdict = classify_type(g)
        assert verdict == ("I", 0)
        got = _singularity(g, find_cycle(g), verdict, pendant_supp, supp)
        assert got == (singular, reason.format(name))

    @pytest.mark.parametrize("labelled", [False, True])
    @pytest.mark.parametrize(
        "length,supp,singular,reason",
        [
            (6, 0, False, "type II: every tree off the cycle has a perfect matching and the"
             " cycle length 6 is not divisible by 4"),
            (6, 1, True, "type II: a tree off the cycle has no perfect matching"),
            (8, 0, True, "type II: the cycle length 8 is divisible by 4"),
            (8, 2, True, "type II: a tree off the cycle has no perfect matching; the cycle"
             " length 8 is divisible by 4"),
        ],
        ids=["none", "forest", "cycle", "both"],
    )
    def test_type2_reason_for_each_failing_piece(self, labelled, length, supp, singular, reason):
        labels = [f"c{i}" for i in range(length)] if labelled else None
        g = Graph(length, cycle_graph(length).edges, labels)
        verdict = classify_type(g)
        assert verdict == ("II", None)
        assert _singularity(g, find_cycle(g), verdict, 0, supp) == (singular, reason)

    def test_agrees_with_kernel_exhaustively_small(self):
        kinds = set()
        for n in range(3, 7):
            for g in all_unicyclic(n):
                # every graph the oracle test sees too, and the route of
                # forest copies on each
                a = assert_equals_the_copy_route(g)
                direct = null_basis(g).nullity
                assert a.singular == (direct > 0), g.edges
                assert a.nullity == direct, g.edges
                kinds.add(a.kind)
        assert kinds == {"I", "II"}


class TestCountsByWitness:
    def test_any_matched_witness_gives_the_same_answer(self):
        # analyze splits fig3 at its smallest matched witness v; the
        # split at the other matched cycle vertex u gives the same counts.
        g = load_fixture("fig3")
        a = analyze(g)
        u = next(i for i in range(g.n) if g.name_of(i) == "u")
        assert g.name_of(a.witness) == "v"
        tree, label_map = pendant_tree(g, a.cycle, u)
        d_pt = decompose(tree)
        assert label_map.index(u) not in d_pt.supp  # u is matched in its pendant tree
        d_rest = decompose(without_vertices(g, label_map)[0])
        assert d_pt.alpha + d_rest.alpha == a.alpha == 9
        assert d_pt.nu + d_rest.nu == a.nu == 4

    def test_type2_values(self):
        a = analyze(load_fixture("fig7"))
        assert a.kind == "II"
        assert (a.alpha, a.nu) == (13, 8)

    def test_exhaustive_agreement_with_oracles(self):
        for n in range(3, 6):
            for g in all_unicyclic(n):
                a = analyze(g)
                assert a.alpha == max_independent_set(g)[0], g.edges
                assert a.nu == max_matching(g).size, g.edges


class TestAnalyze:
    def test_type1_example(self):
        g = load_fixture("fig6")
        a = analyze(g)
        assert (a.kind, g.name_of(a.witness)) == ("I", "v")
        assert (a.alpha, a.nu, a.nullity) == (9, 6, 3)
        assert a.singular and not a.pure_cycle
        covered = set()
        for p in a.parts:
            covered |= p.vertices
        assert covered == set(range(g.n))

    def test_type2_example(self):
        g = load_fixture("fig4")
        a = analyze(g)
        assert a.kind == "II" and a.witness is None
        assert (a.alpha, a.nu, a.nullity) == (10, 7, 3)
        covered = set()
        for p in a.parts:
            covered |= p.vertices
        assert covered == set(range(g.n)) - set(a.cycle.vertices)

    def test_a_set_with_an_edge_fails_the_certificate_rule(self, monkeypatch):
        # The set builder makes the whole set, a type II cycle's ids included.
        monkeypatch.setattr(
            nulldecomp.trees,
            "_independent_set",
            lambda order, parent, d, avoid, extra=(): frozenset({1, 2}),
        )
        with pytest.raises(AssertionError, match=r"edge inside the set \(1, 2\)"):
            analyze(paw())

    @pytest.mark.parametrize("graph", [paw, square_with_tail], ids=["type I", "type II"])
    def test_a_set_with_a_foreign_id_fails_the_certificate_rule(self, monkeypatch, graph):
        # -1 would index the last vertex's neighbours; it is no vertex.
        g = graph()
        a = analyze(g)
        build = nulldecomp.trees._independent_set
        monkeypatch.setattr(
            nulldecomp.trees,
            "_independent_set",
            lambda order, parent, d, avoid, extra=(): (
                build(order, parent, d, avoid, extra) - a.independent_set
            ) | {-1},
        )
        with pytest.raises(AssertionError, match=r"id outside the graph -1"):
            analyze(g)

    @pytest.mark.parametrize("graph", [paw, square_with_tail], ids=["type I", "type II"])
    def test_returns_the_certificates_the_tail_built(self, monkeypatch, graph):
        # The set and the matching are the very objects the builders made:
        # a type II cycle's terms enter them as they are built, and nothing
        # copies either one after.
        built = {}
        for name in ("_independent_set", "_matching"):
            real = getattr(nulldecomp.trees, name)

            def kept(*args, name=name, real=real):
                built[name] = real(*args)
                return built[name]

            # Wherever the builder is held, under whatever name.
            for module in (nulldecomp.trees, nulldecomp.unicyclic):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, kept)
        a = analyze(graph())
        assert a.independent_set is built["_independent_set"]
        assert a.matching is built["_matching"]

    def test_pure_cycle(self):
        a = analyze(cycle_graph(8))
        assert a.pure_cycle and a.kind == "II"
        assert a.singular and a.nullity == 2
        assert a.alpha == a.nu == 4
        assert not a.parts

    def test_certificates_on_random_graphs(self):
        rng = random.Random(71)
        for _ in range(60):
            g = random_unicyclic(rng.randrange(4, 15), rng)
            a = analyze(g)
            assert len(a.independent_set) == a.alpha
            assert not any(
                u in a.independent_set and v in a.independent_set for u, v in g.edges
            )
            seen = set()
            for u, v in a.matching:
                assert v in g.neighbors(u)
                assert u not in seen and v not in seen
                seen.add(u)
                seen.add(v)
            assert len(a.matching) == a.nu

    def test_deterministic(self):
        g = load_fixture("fig2_G")
        assert analyze(g) == analyze(g)

    def test_decomposes_each_piece_once(self, monkeypatch):
        # One top-down pass over the walk from the cycle decomposes every
        # piece; no forest is copied, no Graph is built, nothing is
        # eliminated and no public decompose runs.
        calls = []

        def spy(name, real):
            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return counted

        monkeypatch.setattr(
            nulldecomp.linalg, "_eliminate", spy("eliminate", nulldecomp.linalg._eliminate)
        )
        monkeypatch.setattr(
            nulldecomp.trees,
            "_decomposition",
            spy("top-down pass", nulldecomp.trees._decomposition),
        )
        # The public forest helpers, should analyze ever call them again.
        for name in ("decompose", "independent_set_certificate", "matching_certificate"):
            real = getattr(nulldecomp.trees, name)
            monkeypatch.setattr(nulldecomp.unicyclic, name, spy(name, real), raising=False)
        fig6, fig4 = load_fixture("fig6"), load_fixture("fig4")
        for name in ("__init__", "_fill", "without_edges"):
            monkeypatch.setattr(Graph, name, spy(name, getattr(Graph, name)))
        for g, kind in ((fig6, "I"), (fig4, "II"), (cycle_graph(8), "II")):
            calls.clear()
            assert analyze(g).kind == kind
            assert calls == ["top-down pass"]

    def test_parts_equal_the_pieces_decomposed_separately(self):
        # The reference route builds each piece as a relabeled subgraph,
        # decomposes it and maps the result back.
        def mapped(d, label_map):
            def back(vs):
                return frozenset(label_map[x] for x in vs)

            return (frozenset(label_map), back(d.supp), back(d.core), back(d.n_forest_vertices))

        rng = random.Random(83)
        kinds = set()
        for _ in range(300):
            g = random_unicyclic(rng.randrange(3, 40), rng)
            a = analyze(g)
            kinds.add(a.kind)
            if a.kind == "I":
                tree, tree_map = pendant_tree(g, a.cycle, a.witness)
                rest, rest_map = without_vertices(g, tree_map)
                want = [
                    mapped(decompose(tree), tree_map),
                    mapped(decompose(rest), rest_map),
                ]
            else:
                forest, fmap = without_vertices(g, a.cycle.vertices)
                pieces = [induced_by_edge_scan(forest, comp) for comp in _components(forest)]
                want = [
                    mapped(decompose(comp), tuple(fmap[x] for x in cmap))
                    for comp, cmap in pieces
                ]
            got = [(p.vertices, p.supp, p.core, p.n_vertices) for p in a.parts]
            assert got == want, g.edges
        assert kinds == {"I", "II"}

    def test_witness_is_smallest_matched_cycle_vertex(self):
        # a single leaf saturates its cycle vertex, so 0 and 1 are both
        # matched in their pendant trees; the smaller id wins
        g = Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)])
        a = analyze(g)
        assert a.kind == "I" and a.witness == 0


class TestAgainstTheCopyRoute:
    """analyze and classify_type equal the route of forest copies."""

    def test_random_graphs(self):
        rng = random.Random(2024)
        kinds = {"I": 0, "II": 0}
        for _ in range(2000):
            a = assert_equals_the_copy_route(random_unicyclic(rng.randrange(3, 61), rng))
            kinds[a.kind] += 1
        assert min(kinds.values()) > 100

    def test_pure_cycles(self):
        for n in range(3, 31):
            assert_equals_the_copy_route(cycle_graph(n))

    @pytest.mark.parametrize("seed", [1, 7, 61])
    def test_classify_type_on_the_corpus(self, monkeypatch, seed):
        corpus = unicyclic_corpus(40, 3, 60, seed)
        for g in corpus:
            assert classify_type(g) == reference_classify(g, find_cycle(g))[0]
        # The corpus rejects candidates by randgraphs._kind, which reads
        # the type off the Pruefer rooting of the candidate's tree, so equal
        # corpora mean equal verdicts on the rejected ones too.
        def reference_kind(n, tree, extra):
            g = Graph(n, [*tree, extra])
            return reference_classify(g, find_cycle(g))[0].kind

        monkeypatch.setattr(nulldecomp.randgraphs, "_kind", reference_kind)
        assert unicyclic_corpus(40, 3, 60, seed) == corpus


class TestUnicyclicSweep:
    def test_random_sweep_all_invariants_hold(self):
        outcome = unicyclic_sweep(count=120, n_min=6, n_max=14, seed=5)
        assert outcome.ok, {
            name: pf for name, pf in outcome.tallies.items() if pf[1]
        }
        assert outcome.stats["type I"] > 20
        assert outcome.stats["type II"] > 20


# witness_digests() of the corpus below.  The independent sets are those
# of the commit before certificates were sped up; the matchings were
# frozen again when the matching came off the matching DP.
FROZEN_WITNESS_DIGEST = {
    "independent_set": "ea0960b3f9421a4a45831ba4273b6a41c0824758c1567bac3e25adf5d9a66f7f",
    "matching": "5fcda33b108302e2d1ce3f121c00960e6b9b31555cc10aaccf491ec260a1afdd",
}


def witness_digests():
    """sha256 over the independent sets, and over the matchings, of 1,000
    seeded forests (every fourth tree loses up to three edges) and 1,000
    seeded unicyclic graphs."""
    rng = random.Random(1717)
    sets, pairs = hashlib.sha256(), hashlib.sha256()
    for i in range(1000):
        t = random_tree(rng.randrange(1, 60), rng)
        if i % 4 == 3 and t.edges:
            t = t.without_edges(rng.sample(sorted(t.edges), min(3, len(t.edges))))
        pairs.update(repr(sorted(matching_certificate(t))).encode())
        sets.update(repr(sorted(independent_set_certificate(t))).encode())
    for _ in range(1000):
        a = analyze(random_unicyclic(rng.randrange(3, 60), rng))
        pairs.update(repr(sorted(a.matching)).encode())
        sets.update(repr(sorted(a.independent_set)).encode())
    return {"independent_set": sets.hexdigest(), "matching": pairs.hexdigest()}


class TestFrozenWitnesses:
    def test_certificates_are_those_of_the_frozen_corpus(self):
        # Not only valid and maximum: the very sets and pairs, so a faster
        # certificate builder cannot change a byte of analyze's output.
        assert witness_digests() == FROZEN_WITNESS_DIGEST

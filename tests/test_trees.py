"""Forest decomposition, the counting formulas, and both certificates."""

import random
from itertools import product

import pytest

import nulldecomp.graphs
import nulldecomp.trees
import nulldecomp.unicyclic
from nulldecomp import (
    Graph,
    NotAForest,
    NullDecomposition,
    decompose,
    independent_set_certificate,
    matching_certificate,
    max_independent_set,
    max_matching,
    null_basis,
    random_tree,
    random_unicyclic,
    tree_sweep,
)
from nulldecomp.fixtures import load_fixture
from nulldecomp.graphs import matching_defect
from nulldecomp.cli import main
from nulldecomp.sweeps import check_tree_instance, cycle_graph


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(k):
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def names(g, ids):
    return sorted(g.name_of(v) for v in ids)


def prufer_tree(seq, n):
    """The labeled tree on n >= 2 vertices with Pruefer sequence seq."""
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


def small_trees_and_edge_deletions(n_max):
    """Every labeled tree on 1..n_max vertices and every forest left by
    deleting one of its edges, each once by edge set."""
    seen = set()
    for n in range(1, n_max + 1):
        if n == 1:
            trees = [Graph(1)]
        else:
            trees = (prufer_tree(seq, n) for seq in product(range(n), repeat=n - 2))
        for t in trees:
            for f in [t, *(t.without_edges([e]) for e in sorted(t.edges))]:
                if f not in seen:
                    seen.add(f)
                    yield f


class TestDecompose:
    def test_single_vertex_is_all_support(self):
        d = decompose(Graph(1))
        assert d.supp == {0} and not d.core and not d.n_forest_vertices

    def test_single_edge_is_all_n(self):
        d = decompose(path_graph(2))
        assert not d.supp and d.n_forest_vertices == {0, 1}

    def test_path_three(self):
        d = decompose(path_graph(3))
        assert d.supp == {0, 2}
        assert d.core == {1}
        assert not d.n_forest_vertices
        assert d.nullity == 1

    def test_star_leaves_are_support(self):
        d = decompose(star(3))
        assert d.supp == {1, 2, 3} and d.core == {0}

    def test_additive_over_components(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])  # P3 + P2
        d = decompose(g)
        assert d.supp == {0, 2}
        assert d.core == {1}
        assert d.n_forest_vertices == {3, 4}

    def test_large_example_tree(self):
        g = load_fixture("fig2_tree")
        d = decompose(g)
        assert names(g, d.supp) == sorted(
            ["v2", "v3", "v6", "v7", "v8", "v10", "v11", "v12", "v19", "v21", "v22"]
        )
        assert names(g, d.core) == sorted(["v1", "v4", "v5", "v9", "v20"])
        assert names(g, d.n_forest_vertices) == sorted(
            ["v13", "v14", "v15", "v16", "v17", "v18"]
        )

    def test_rejects_cycles(self):
        with pytest.raises(NotAForest):
            decompose(cycle_graph(3))
        with pytest.raises(NotAForest):  # a tree beside a triangle
            decompose(Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]))

    def test_checks_acyclicity_in_its_own_walk(self, monkeypatch):
        calls = []
        components = nulldecomp.graphs._components
        walk = nulldecomp.trees._search

        def counted_components(g):
            calls.append(("components", g.n))
            return components(g)

        def counted_walk(g):
            calls.append(("walk", g.n))
            return walk(g)

        monkeypatch.setattr(nulldecomp.graphs, "_components", counted_components)
        monkeypatch.setattr(nulldecomp.trees, "_search", counted_walk)
        tree = load_fixture("fig2_tree")
        decompose(tree)
        decompose(Graph(5, [(0, 1), (2, 3)]))
        with pytest.raises(NotAForest):
            decompose(cycle_graph(4))
        assert calls == [("walk", tree.n), ("walk", 5), ("walk", 4)]

    def test_empty_graph(self):
        d = decompose(Graph(0))
        assert not d.supp and not d.core and not d.n_forest_vertices


class TestMatchingDPAgainstKernel:
    """decompose reads Supp off a matching DP; the exact kernel is the oracle."""

    def test_every_small_tree_and_its_edge_deletions(self):
        count = 0
        for f in small_trees_and_edge_deletions(6):
            basis = null_basis(f)
            d = decompose(f)
            assert d.supp == basis.support, sorted(f.edges)
            assert d.nullity == basis.nullity, sorted(f.edges)
            count += 1
        # 1442 labeled trees on 1..6 vertices, 1209 two-tree forests
        assert count == 1442 + 1209

    def test_random_forests(self):
        rng = random.Random(71)
        for _ in range(500):
            f = random_tree(rng.randrange(1, 41), rng)
            f = f.without_edges(rng.sample(sorted(f.edges), min(len(f.edges), rng.randrange(4))))
            basis = null_basis(f)
            d = decompose(f)
            assert d.supp == basis.support, sorted(f.edges)
            assert d.nullity == basis.nullity, sorted(f.edges)

    def test_path_of_100000_vertices(self):
        # deep enough for a recursive DP to fail, too big for elimination
        n = 10**5
        d = decompose(path_graph(n))
        assert not d.supp and not d.core
        assert len(d.n_forest_vertices) == n
        assert d.nullity == 0

    def test_star_of_100000_vertices(self):
        n = 10**5
        d = decompose(star(n - 1))
        assert d.supp == frozenset(range(1, n))
        assert d.core == {0}
        assert d.nullity == n - 2


class TestCounts:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_paths(self, n):
        d = decompose(path_graph(n))
        assert d.alpha == (n + 1) // 2
        assert d.nu == n // 2
        assert d.nullity == n % 2

    def test_example_values(self):
        d = decompose(load_fixture("fig2_tree"))
        assert d.alpha == 14
        assert d.nu == 8
        d1 = decompose(load_fixture("fig1_T1"))
        assert d1.alpha == 4 and d1.nu == 2

    def test_gallai_identity_on_random_trees(self):
        rng = random.Random(31)
        for _ in range(60):
            t = random_tree(rng.randrange(1, 16), rng)
            d = decompose(t)
            assert d.alpha + d.nu == t.n


class TestIndependentSetCertificate:
    def test_maximum_and_independent_on_random_trees(self):
        rng = random.Random(37)
        for _ in range(50):
            t = random_tree(rng.randrange(1, 16), rng)
            d = decompose(t)
            chosen = independent_set_certificate(t, d)
            assert len(chosen) == d.alpha
            assert not any(u in chosen and v in chosen for u, v in t.edges)

    def test_avoid_honored_for_every_non_support_vertex(self):
        rng = random.Random(53)
        for _ in range(25):
            t = random_tree(rng.randrange(2, 13), rng)
            d = decompose(t)
            for v in range(t.n):
                if v in d.supp:
                    with pytest.raises(ValueError):
                        independent_set_certificate(t, d, avoid={v})
                else:
                    chosen = independent_set_certificate(t, d, avoid={v})
                    assert v not in chosen
                    assert len(chosen) == d.alpha

    def test_avoid_takes_a_collection(self):
        # two P4 components, all N-vertices; sides {0, 2} / {1, 3} and {4, 6} / {5, 7}
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        d = decompose(g)
        assert independent_set_certificate(g, d) == {0, 2, 4, 6}
        assert independent_set_certificate(g, d, avoid=[2, 4]) == {1, 3, 5, 7}
        assert independent_set_certificate(g, d, avoid={7}) == {0, 2, 4, 6}
        with pytest.raises(ValueError):
            independent_set_certificate(g, d, avoid={0, 3})  # both sides of one component

    def test_support_always_included(self):
        t = load_fixture("fig1_T1")
        d = decompose(t)
        assert d.supp <= independent_set_certificate(t, d)

    # The decomposition of P_4 (every vertex an N-vertex) handed a graph
    # it does not decompose.
    P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])

    def test_a_graph_with_a_cycle_is_refused(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(NotAForest, match="independent_set_certificate needs an acyclic graph"):
            independent_set_certificate(c4, decompose(self.P4))

    @pytest.mark.parametrize("n", [6, 3])  # more vertices than the roles, and fewer
    def test_a_decomposition_of_another_order_is_refused(self, n):
        path = Graph(n, [(i, i + 1) for i in range(n - 1)])
        with pytest.raises(ValueError, match=f"decomposition has 4 vertices, the forest {n}"):
            independent_set_certificate(path, decompose(self.P4))

    def test_a_decomposition_of_another_forest_of_the_order_is_refused(self):
        # The star's one component has sides of 1 and 3 vertices, which
        # an all-N decomposition cannot split evenly: the mismatch is the
        # caller's, not the DP's.
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        message = "of another forest: it puts vertex 0 in N, this forest's in Core"
        with pytest.raises(ValueError, match=message):
            independent_set_certificate(star, decompose(self.P4))


def dfs_n_component_sides(t, d):
    """Bipartition sides of each N-forest component by a search of t's
    neighbor sets: each component is 2-colored from its smallest vertex,
    whose side comes first."""
    n_part = d.n_forest_vertices
    color = [-1] * t.n
    out = []
    for s in sorted(n_part):
        if color[s] >= 0:
            continue
        color[s] = 0
        sides = ([s], [])
        stack = [s]
        while stack:
            u = stack.pop()
            for w in t.neighbors(u):
                if color[w] < 0 and w in n_part:
                    color[w] = 1 - color[u]
                    sides[color[w]].append(w)
                    stack.append(w)
        out.append((frozenset(sides[0]), frozenset(sides[1])))
    return out


def assert_takes_the_sides(f, walk, d):
    """_independent_set over walk takes Supp plus the side of each
    N-component that holds its smallest vertex, and the other side once
    avoid holds that vertex, both as the search of f's neighbor sets
    finds them.  Returns the number of N-components."""
    sides = dfs_n_component_sides(f, d)
    got = nulldecomp.trees._independent_set(*walk, d, ())
    assert got == d.supp.union(*(first for first, _ in sides)), sorted(f.edges)
    smallest = [min(first) for first, _ in sides]
    got = nulldecomp.trees._independent_set(*walk, d, smallest)
    assert got == d.supp.union(*(second for _, second in sides)), sorted(f.edges)
    return len(sides)


class TestNComponentSides:
    """The N-component sides that _independent_set takes, against a
    search of neighbor sets."""

    def test_parity_sides_equal_the_search_of_neighbor_sets(self):
        rng = random.Random(89)
        seen_components = 0
        for _ in range(400):
            f = random_tree(rng.randrange(1, 50), rng)
            f = f.without_edges(rng.sample(sorted(f.edges), min(len(f.edges), rng.randrange(5))))
            d = decompose(f)
            seen_components += assert_takes_the_sides(f, nulldecomp.graphs._search(f), d)
        assert seen_components > 400

    def test_sides_of_a_walk_rooted_elsewhere(self):
        # The sides do not depend on where the walk roots each component.
        # A unicyclic graph's walk re-rooted at its cycle roots the forest
        # G minus the cycle edges at the cycle vertices, where a walk of
        # that forest roots each tree at its smallest vertex.
        rng = random.Random(97)
        moved = 0
        for _ in range(100):
            g = random_unicyclic(rng.randrange(3, 40), rng)
            c = nulldecomp.graphs.find_cycle(g)
            walk = nulldecomp.graphs._search(g)  # the walk g keeps, which found c
            order, parent = nulldecomp.unicyclic._rooted(c, walk)[:2]
            f = g.without_edges(c.edges)
            assert_takes_the_sides(f, (order, parent), decompose(f))
            moved += list(parent) != list(nulldecomp.graphs._search(f)[1])
        assert moved > 50

    def test_refuses_what_no_maximum_set_allows(self):
        # P5: Supp {0, 2, 4}, Core {1, 3}, no N-vertices; two P2s: all
        # N-vertices, sides {0} / {1} and {2} / {3}.
        walk = nulldecomp.graphs._search(path_graph(5))
        d = decompose(path_graph(5))
        with pytest.raises(ValueError, match="cannot avoid a support vertex"):
            nulldecomp.trees._independent_set(*walk, d, {2})
        g = Graph(4, [(0, 1), (2, 3)])
        walk, d = nulldecomp.graphs._search(g), decompose(g)
        assert nulldecomp.trees._independent_set(*walk, d, {0, 3}) == {1, 2}
        with pytest.raises(ValueError, match="cannot avoid both sides of an N-component"):
            nulldecomp.trees._independent_set(*walk, d, {2, 3})
        # An N-part no matching DP gives: P3 whole, sides {0, 2} / {1}.
        walk = nulldecomp.graphs._search(path_graph(3))
        uneven = NullDecomposition(bytes([nulldecomp.trees._N] * 3))
        assert uneven.n_forest_vertices == {0, 1, 2} and not uneven.supp | uneven.core
        with pytest.raises(AssertionError, match="N-component bipartition sides differ in size"):
            nulldecomp.trees._independent_set(*walk, uneven, ())


class TestMatchingCertificate:
    def test_maximum_on_random_forests(self):
        rng = random.Random(59)
        for _ in range(50):
            t = random_tree(rng.randrange(1, 16), rng)
            m = matching_certificate(t)
            seen = set()
            for u, v in m:
                assert v in t.neighbors(u)
                assert u not in seen and v not in seen
                seen.add(u)
                seen.add(v)
            assert len(m) == max_matching(t).size

    def test_disconnected_input(self):
        g = Graph(5, [(0, 1), (2, 3)])
        assert len(matching_certificate(g)) == 2

    def test_rejects_cycles(self):
        with pytest.raises(NotAForest):
            matching_certificate(cycle_graph(4))

    def test_checks_acyclicity_in_its_own_pairing(self, monkeypatch):
        # The pairs come off the matching DP over the walk, so the walk's
        # root count decides acyclicity, once per graph.
        calls = []
        walk = nulldecomp.trees._search

        def counted(t):
            calls.append(t.n)
            return walk(t)

        monkeypatch.setattr(nulldecomp.trees, "_search", counted)
        t = load_fixture("fig2_tree")
        assert len(matching_certificate(t)) == max_matching(t).size
        with pytest.raises(NotAForest, match="matching_certificate needs an acyclic graph"):
            matching_certificate(cycle_graph(4))
        with pytest.raises(NotAForest):  # a tree beside a triangle
            matching_certificate(Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]))
        assert calls == [t.n, 4, 6]

    def test_maximum_whenever_the_pairing_finishes_on_a_cycle(self):
        # The pairing runs on forests only: every graph with a cycle is
        # refused, the triangle with a pendant edge included.
        paw = Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
        with pytest.raises(NotAForest, match="matching_certificate needs an acyclic graph"):
            matching_certificate(paw)
        rng = random.Random(61)
        outcomes = set()
        for _ in range(200):
            g = random_unicyclic(rng.randrange(3, 14), rng)
            try:
                m = matching_certificate(g)
            except NotAForest:
                outcomes.add("raised")
                continue
            outcomes.add("finished")
            assert matching_defect(g, m) is None
            assert len(m) == max_matching(g).size
        assert outcomes == {"raised"}

    def test_pairs_each_vertex_with_its_smallest_missable_child(self):
        # A star's centre has every leaf as a missable child and takes the
        # smallest; the walk order of the leaves does not matter.
        for leaves in ([3, 1, 2], [2, 3, 1]):
            assert matching_certificate(Graph(4, [(0, v) for v in leaves])) == {(0, 1)}
        # P4 rooted at 0: 3 is missable below 2, so 2 takes it and 1 takes 0.
        assert matching_certificate(path_graph(4)) == {(0, 1), (2, 3)}


class TestForestAnalysis:
    """trees._analyze: the decomposition and both certificates of a forest
    from the walk the forest keeps, held to the certificate rule before it
    returns."""

    @staticmethod
    def analyze(t):
        return nulldecomp.trees._analyze(t)

    def test_gives_what_the_public_functions_give(self):
        rng = random.Random(83)
        for _ in range(100):
            t = random_tree(rng.randrange(1, 40), rng)
            t = t.without_edges(rng.sample(sorted(t.edges), min(len(t.edges), rng.randrange(4))))
            d, independent, matching = self.analyze(t)
            assert d == decompose(t)
            assert independent == independent_set_certificate(t, d)
            assert matching == matching_certificate(t)

    def test_rejects_cycles(self):
        with pytest.raises(NotAForest):
            self.analyze(cycle_graph(4))

    def test_a_set_with_an_edge_fails_the_certificate_rule(self, monkeypatch):
        monkeypatch.setattr(
            nulldecomp.trees,
            "_independent_set",
            lambda order, parent, d, avoid, extra=(): frozenset({1, 2}),
        )
        with pytest.raises(AssertionError, match=r"edge inside the set \(1, 2\)"):
            self.analyze(path_graph(4))

    def test_a_set_with_a_foreign_id_fails_the_certificate_rule(self, monkeypatch):
        # -1 would index the last vertex's neighbours; it is no vertex.  The
        # set keeps the size alpha, so only the id fails.
        build = nulldecomp.trees._independent_set
        monkeypatch.setattr(
            nulldecomp.trees,
            "_independent_set",
            lambda order, parent, d, avoid, extra=(): (
                build(order, parent, d, avoid, extra) - {0}
            ) | {-1},
        )
        only_the_id = r"id outside the graph -1, edge inside the set None,"
        with pytest.raises(AssertionError, match=only_the_id):
            self.analyze(path_graph(4))

    def test_a_matching_with_a_bad_pair_fails_the_certificate_rule(self, monkeypatch):
        # 0-3 is no edge of the path; 1-2 is, and shares no vertex with it.
        monkeypatch.setattr(nulldecomp.trees, "_matching", lambda mate: frozenset({(0, 3), (1, 2)}))
        with pytest.raises(AssertionError, match=r"bad matching pair \(0, 3\)"):
            self.analyze(path_graph(4))

    def test_analyze_and_the_sweeps_hold_forests_to_the_rule(self, monkeypatch, tmp_path):
        monkeypatch.setattr(nulldecomp.trees, "_matching", lambda mate: frozenset({(0, 3), (1, 2)}))
        path = tmp_path / "p4.edges"
        path.write_text("0 1\n1 2\n2 3\n")
        with pytest.raises(AssertionError, match=r"bad matching pair \(0, 3\)"):
            main(["analyze", str(path)])
        with pytest.raises(AssertionError, match=r"bad matching pair \(0, 3\)"):
            check_tree_instance(path_graph(4))


class TestTreeSweep:
    def test_random_sweep_all_invariants_hold(self):
        outcome = tree_sweep(count=120, n_min=2, n_max=14, seed=3)
        assert outcome.ok, {
            name: pf for name, pf in outcome.tallies.items() if pf[1]
        }

    def test_formula_agrees_with_oracles_directly(self):
        rng = random.Random(67)
        for _ in range(40):
            t = random_tree(rng.randrange(1, 15), rng)
            d = decompose(t)
            assert d.alpha == max_independent_set(t)[0]
            assert d.nu == max_matching(t).size

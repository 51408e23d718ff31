"""Brute-force oracles: independence, matchings, perfect matchings, EG sets."""

import random
import time

import pytest

from nulldecomp import (
    Graph,
    TooLarge,
    UnknownVertex,
    eg_set,
    find_cycle,
    max_independent_set,
    max_matching,
    oracles,
    random_tree,
    sweeps,
)
from nulldecomp.fixtures import load_fixture
from nulldecomp.graphs import _components, edge_inside, matching_defect
from nulldecomp.oracles import size_limit
from nulldecomp.randgraphs import random_unicyclic
from nulldecomp.sweeps import check_tree_instance, check_unicyclic_instance, cycle_graph
from refgraphs import induced_by_edge_scan, pendant_tree, random_simple_graph, without_vertices

nx = pytest.importorskip("networkx")


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(k):
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def c5_with_pendants():
    # C5 plus a path of two hanging off each of two cycle vertices
    return Graph(
        9,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6), (2, 7), (7, 8)],
    )


def random_forest(n, rng):
    """A random tree on n vertices with about a third of its edges cut."""
    t = random_tree(n, rng)
    return t.without_edges(rng.sample(sorted(t.edges), len(t.edges) // 3))


def nx_nu(g, without=None):
    """nu of g, or of g without the vertex without, by networkx."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(e for e in g.edges if without not in e)
    return len(nx.max_weight_matching(h, maxcardinality=True))


def deletion_set(g):
    """{v : nu(G - v) = nu(G)}, each matching number from networkx, so the
    reference shares no code with the oracle."""
    base = nx_nu(g)
    return {v for v in range(g.n) if nx_nu(g, v) == base}


def brute_mis_size(g):
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = 0
    for mask in range(1 << g.n):
        m = mask
        ok = True
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if adj[v] & mask:
                ok = False
                break
        if ok:
            best = max(best, mask.bit_count())
    return best


class TestMaxIndependentSet:
    def test_matches_exhaustive_enumeration(self):
        # Sparse graphs, trees and unicyclic graphs exercise the degree <= 1
        # reduction, denser ones the branching.
        rng = random.Random(41)
        cases = [
            random_simple_graph(rng.randrange(0, 16), rng.choice([0.1, 0.2, 0.35, 0.6]), rng)
            for _ in range(60)
        ]
        cases += [random_tree(rng.randrange(1, 16), rng) for _ in range(10)]
        cases += [random_unicyclic(rng.randrange(3, 16), rng) for _ in range(10)]
        for g in cases:
            size, witness = max_independent_set(g)
            assert size == brute_mis_size(g)
            assert len(witness) == size
            assert edge_inside(g, witness) is None

    def test_known_values(self):
        assert max_independent_set(load_fixture("fig1_T1"))[0] == 4
        assert max_independent_set(load_fixture("fig4"))[0] == 10
        assert max_independent_set(cycle_graph(7))[0] == 3
        assert max_independent_set(petersen())[0] == 4
        assert max_independent_set(Graph(3))[0] == 3

    def test_empty_graph(self):
        assert max_independent_set(Graph(0)) == (0, frozenset())

    def test_deep_search_needs_no_recursion(self, monkeypatch):
        # The exclude branches of K_n nest n deep.
        monkeypatch.setenv("NULLDECOMP_MAX_N", "5000")
        k = Graph(1100, [(u, v) for v in range(1100) for u in range(v)])
        assert max_independent_set(k)[0] == 1

    def test_sparse_graphs_past_the_guard_need_no_branching(self, monkeypatch):
        monkeypatch.setenv("NULLDECOMP_MAX_N", "5000")
        assert max_independent_set(path_graph(2100))[0] == 1050
        pairs = Graph(2100, [(2 * i, 2 * i + 1) for i in range(1050)])
        assert max_independent_set(pairs)[0] == 1050

    def test_removed_matches_the_relabelled_subgraph(self):
        rng = random.Random(67)
        cases = [
            random_simple_graph(rng.randrange(1, 21), rng.choice([0.1, 0.2, 0.35, 0.6]), rng)
            for _ in range(60)
        ]
        cases += [random_tree(rng.randrange(1, 21), rng) for _ in range(40)]
        cases += [random_unicyclic(rng.randrange(3, 21), rng) for _ in range(40)]
        for g in cases:
            v = rng.randrange(g.n)
            for removed in ((), (v,), {v} | set(g.neighbors(v)), set(rng.sample(range(g.n), g.n // 3))):
                size, witness = max_independent_set(g, removed)
                assert size == max_independent_set(without_vertices(g, removed)[0])[0]
                assert not witness & set(removed)
                assert edge_inside(g, witness) is None
                assert len(witness) == size

    def test_no_removed_vertex_keeps_the_witness(self):
        # Witnesses of the search before it took removed vertices.
        rng = random.Random(61)
        cases = [
            (load_fixture("fig1_T1"), [1, 2, 3, 4]),
            (load_fixture("fig4"), [0, 6, 7, 8, 9, 10, 11, 13, 15, 17]),
            (petersen(), [0, 2, 8, 9]),
            (c5_with_pendants(), [0, 2, 6, 8]),
            (cycle_graph(7), [0, 2, 4]),
            (random_simple_graph(16, 0.3, rng), [0, 1, 3, 5, 9, 10, 12]),
            (random_unicyclic(20, rng), [0, 1, 2, 3, 5, 6, 7, 10, 11, 12, 14, 16]),
        ]
        for g, want in cases:
            assert max_independent_set(g) == max_independent_set(g, ()) == (len(want), set(want))

    def test_removed_vertex_outside_the_graph(self):
        with pytest.raises(UnknownVertex):
            max_independent_set(path_graph(3), (3,))

    def test_cached_bitmasks_serve_other_queries_and_copies(self):
        # Bitmasks built once and held by the caller, as the tree checks
        # hold them, serve searches with other removed sets; a copy without
        # some edges gets its own.  Each answers as on a freshly built
        # graph, witness included.
        rng = random.Random(71)
        cases = [
            random_simple_graph(rng.randrange(2, 18), rng.choice([0.15, 0.3, 0.5]), rng)
            for _ in range(30)
        ]
        cases += [random_tree(rng.randrange(2, 18), rng) for _ in range(15)]
        cases += [random_unicyclic(rng.randrange(3, 18), rng) for _ in range(15)]
        for g in cases:
            masks = oracles._bitmasks(g)
            assert oracles._max_independent_set(masks) == max_independent_set(g)
            v = rng.randrange(g.n)
            for removed in ((v,), {v} | set(g.neighbors(v)), set(rng.sample(range(g.n), g.n // 3))):
                want = max_independent_set(Graph(g.n, g.edges), removed)
                assert oracles._max_independent_set(masks, removed) == want
                assert max_independent_set(g, removed) == want
            h = g.without_edges(rng.sample(sorted(g.edges), len(g.edges) // 2))
            cut = oracles._bitmasks(h)
            assert oracles._max_independent_set(cut) == max_independent_set(Graph(h.n, h.edges))
            assert oracles._max_independent_set(cut, (v,)) == max_independent_set(
                Graph(h.n, h.edges), (v,)
            )

    def test_bitmasks_pass_the_size_guard_first(self, monkeypatch):
        # n bitmasks of up to n bits each: the guard runs before any is built.
        monkeypatch.setenv("NULLDECOMP_MAX_N", "4")
        with pytest.raises(TooLarge, match="max_independent_set refuses n=5"):
            oracles._bitmasks(path_graph(5))
        assert oracles._bitmasks(path_graph(4)) == [0b10, 0b101, 0b1010, 0b100]


class TestMaxMatching:
    def test_matches_blossom_on_random_graphs(self):
        # Dense graphs too, up to the default guard, so blossoms nest.
        rng = random.Random(43)
        for _ in range(300):
            p = rng.choice([0.1, 0.2, 0.4, 0.7, 0.9])
            g = random_simple_graph(rng.randrange(1, 31), p, rng)
            got = max_matching(g)
            assert matching_defect(g, got.edges) is None
            assert got.size == nx_nu(g)

    def test_complete_graph_under_the_default_guard_in_under_a_second(self, monkeypatch):
        # K_31 has an odd vertex count, so the last search shrinks blossoms
        # instead of finding a path; an exhaustive path search takes
        # exponential time here.
        monkeypatch.delenv("NULLDECOMP_MAX_N", raising=False)
        k = Graph(31, [(u, v) for v in range(31) for u in range(v)])
        start = time.perf_counter()
        assert max_matching(k).size == 15
        assert eg_set(k) == frozenset(range(31))
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "g,nu",
        [
            (cycle_graph(5), 2),
            (cycle_graph(7), 3),
            (cycle_graph(8), 4),
            (petersen(), 5),
            (star(4), 1),
            (path_graph(6), 3),
            (Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]), 2),
        ],
    )
    def test_known_values(self, g, nu):
        assert max_matching(g).size == nu

    def test_odd_cycle_with_pendants(self):
        assert max_matching(c5_with_pendants()).size == 4

    def test_augments_past_the_greedy_seed(self, monkeypatch):
        # Greedy over the sorted edges takes (0, 1), which blocks the two
        # others, so the seed has size 1; the path 2-0-1-3 augments it.
        g = Graph(4, [(0, 1), (0, 2), (1, 3)])
        seeds = []
        real = oracles._search

        def spying(h, mate):
            if not seeds:
                seeds.append(list(mate))
            return real(h, mate)

        monkeypatch.setattr(oracles, "_search", spying)
        m = max_matching(g)
        assert seeds == [[1, 0, -1, -1]]
        assert m.size == 2 and m.edges == {(0, 2), (1, 3)}

    def test_long_path_needs_no_recursion(self, monkeypatch):
        monkeypatch.setenv("NULLDECOMP_MAX_N", "5000")
        assert max_matching(path_graph(2100)).size == 1050

    def test_lowered_guard_refuses_a_graph_matched_before(self, monkeypatch):
        g = path_graph(5)
        monkeypatch.setenv("NULLDECOMP_MAX_N", "40")
        assert max_matching(g).size == 2
        monkeypatch.setenv("NULLDECOMP_MAX_N", "4")
        with pytest.raises(TooLarge):
            max_matching(g)
        with pytest.raises(TooLarge):
            eg_set(g)

    def test_tree_checks_grow_one_matching_per_graph(self, monkeypatch):
        # t's one growth serves the nu check and, off its last search, the
        # EG-set check; the S/N check grows one more, of the cut forest.
        grown = _spy_grown_matchings(monkeypatch)
        finished = []
        real = oracles._search

        def spying(h, mate):
            outer = real(h, mate)
            if outer is not None:
                finished.append(h)
            return outer

        monkeypatch.setattr(oracles, "_search", spying)
        rng = random.Random(61)
        cases = [random_tree(rng.randrange(1, 31), rng) for _ in range(30)]
        cases += [random_forest(rng.randrange(1, 31), rng) for _ in range(30)]
        cases += [load_fixture(f) for f in ("fig1_T1", "fig1_T2", "fig2_tree")]
        for t in cases:
            grown.clear()
            finished.clear()
            assert all(check_tree_instance(t).values())
            assert len(grown) == len({id(h) for h in grown}) <= 2
            assert grown[0] is t
            # On t: only the search that ends its growth.
            assert sum(1 for h in finished if h is t) == 1

    def test_unicyclic_checks_grow_one_matching_per_graph(self, monkeypatch):
        # One for g's nu check, one for the EG set of g minus its cycle edges.
        grown = _spy_grown_matchings(monkeypatch)
        rng = random.Random(67)
        cases = [random_unicyclic(rng.randrange(3, 31), rng) for _ in range(40)]
        cases += [load_fixture(f) for f in ("fig2_G", "fig2_H", "fig3", "fig4", "fig6")]
        for g in cases:
            grown.clear()
            assert all(check_unicyclic_instance(g).values())
            assert len(grown) == len({id(h) for h in grown}) == 2
            assert grown[0] is g


def _spy_grown_matchings(monkeypatch):
    """The list of graphs whose maximum matching is grown from now on, one
    entry per growth by max_matching, eg_set or a sweep checker."""
    grown = []
    real = oracles._grow

    def spying(h):
        grown.append(h)
        return real(h)

    monkeypatch.setattr(oracles, "_grow", spying)
    monkeypatch.setattr(sweeps, "_grow", spying)
    return grown


class TestAugmentingPaths:
    """One Edmonds search flips the matching along the first augmenting path
    it closes and returns None, or returns its outer vertices if it closes
    none."""

    def test_detects_augmentable_matching(self):
        mate = [-1, 2, 1, -1]
        assert oracles._search(path_graph(4), mate) is None
        assert mate == [1, 0, 3, 2]

    def test_none_on_a_perfect_matching(self):
        mate = [1, 0, 3, 2]
        assert oracles._search(path_graph(4), mate) == frozenset()
        assert mate == [1, 0, 3, 2]

    def test_empty_matching_on_edgeless_graph(self):
        mate = [-1, -1, -1]
        assert oracles._search(Graph(3), mate) == {0, 1, 2}
        assert mate == [-1, -1, -1]

    def test_augments_round_a_blossom(self):
        # The triangle 0-1-2 around the free 0, matched 1-2 and 3-4, with
        # the free 5 hanging off 1.  The search from 0 labels 1 or 2 inner,
        # and the edge between 1 and 2 closes the blossom that makes both
        # outer; only then does the edge 5-1 join two trees.  The path
        # 5-1-2-0 runs round the blossom.
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 5)])
        mate = [-1, 2, 1, 4, 3, -1]
        assert oracles._search(g, mate) is None
        assert mate == [2, 5, 0, 4, 3, 1]
        assert oracles._search(g, mate) == frozenset()

    def test_stops_at_the_first_augmenting_path(self):
        # Two disjoint P4s, each matched in the middle: a search flips the
        # first one's path and stops; the next flips the second's.
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        mate = [-1, 2, 1, -1, -1, 6, 5, -1]
        assert oracles._search(g, mate) is None
        assert mate == [1, 0, 3, 2, -1, 6, 5, -1]
        assert oracles._search(g, mate) is None
        assert mate == [1, 0, 3, 2, 5, 4, 7, 6]
        assert oracles._search(g, mate) == frozenset()

    def test_outer_vertices_of_a_blossom_on_a_maximum_matching(self):
        # A triangle with a pendant path: the blossom {0, 1, 2} around the
        # free 0 is all outer, the inner 3 is matched to the outer 4.
        g = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        assert oracles._search(g, [-1, 2, 1, 4, 3]) == {0, 1, 2, 4}


class TestHasPerfectMatching:
    """Perfect matchings as the sweeps test them: 2 nu = n on the oracle."""

    @pytest.mark.parametrize(
        "g,expected",
        [
            (Graph(0), True),
            (Graph(1), False),
            (path_graph(2), True),
            (path_graph(3), False),
            (path_graph(4), True),
            (star(3), False),
            (Graph(4, [(0, 1), (2, 3)]), True),
            (Graph(3, [(0, 1)]), False),
        ],
    )
    def test_known_cases(self, g, expected):
        assert (2 * max_matching(g).size == g.n) == expected


class TestEgSet:
    def test_known_values(self):
        assert eg_set(load_fixture("fig1_T1")) == {1, 2, 3}
        assert eg_set(path_graph(3)) == {0, 2}
        assert eg_set(path_graph(2)) == frozenset()
        assert eg_set(Graph(1)) == {0}
        # Two P3s: the matching leaves one end of each free.  Deleting the
        # matched end of the second leaves an augmenting path only from
        # its mate; a search from the first P3's free end finds none.
        assert eg_set(Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])) == {0, 2, 3, 5}

    def test_odd_cycle_every_vertex_missable(self):
        assert eg_set(cycle_graph(5)) == frozenset(range(5))

    def test_matches_the_deletion_definition_on_random_graphs(self):
        # Dense graphs up to the default guard bring odd cycles and nested
        # blossoms; the reference is networkx's nu(G - v) for every v.
        rng = random.Random(47)
        cases = []
        for _ in range(150):
            p = rng.choice([0.1, 0.2, 0.35, 0.5, 0.7, 0.9])
            cases.append(random_simple_graph(rng.randrange(0, 31), p, rng))
        cases += [random_tree(rng.randrange(1, 31), rng) for _ in range(40)]
        cases += [random_unicyclic(rng.randrange(3, 31), rng) for _ in range(40)]
        covered = 0
        for g in cases:
            want = deletion_set(g)
            m = max_matching(g)
            assert eg_set(g) == want
            covered += sum(1 for edge in m.edges for v in edge if v in want)
        # Some vertices are in the set though the oracle's matching covers
        # them: only the search's blossoms and alternating paths put them in.
        assert covered > 0

    def test_one_matching_and_one_search(self, monkeypatch):
        # eg_set grows one matching and reads its set off the last search,
        # the set that one search on a maximum matching gives.
        searches = []
        real = oracles._search

        def spying(h, mate):
            searches.append(list(mate))
            return real(h, mate)

        rng = random.Random(53)
        cases = [random_simple_graph(rng.randrange(1, 31), 0.4, rng) for _ in range(30)]
        cases += [path_graph(5), c5_with_pendants(), cycle_graph(7), petersen()]
        cases += [load_fixture("fig4"), random_unicyclic(20, rng)]
        for g in cases:
            m = max_matching(g)
            mate = [-1] * g.n
            for u, v in m.edges:
                mate[u], mate[v] = v, u
            want = oracles._search(g, mate)
            monkeypatch.setattr(oracles, "_search", spying)
            searches.clear()
            assert eg_set(g) == want
            monkeypatch.undo()
            # Every search but the last augments; the last starts from a
            # maximum matching.
            sizes = [sum(1 for x in seen if x >= 0) for seen in searches]
            assert sizes == sorted(set(sizes)) and sizes[-1] == 2 * m.size

    def test_agrees_with_each_component_on_random_forests(self):
        # The sweeps read a component's set off the whole forest's: a
        # maximum matching of a forest restricts to one of each component.
        rng = random.Random(43)
        for _ in range(200):
            f = random_forest(rng.randrange(1, 15), rng)
            whole = eg_set(f)
            for comp in _components(f):
                sub, label_map = induced_by_edge_scan(f, comp)
                assert {label_map[v] for v in eg_set(sub)} == whole & set(comp)


class TestMismatchedIn:
    """Whether some maximum matching of t misses v, asked as v in eg_set(t)."""

    def test_path_endpoints(self):
        t = path_graph(3)
        assert 0 in eg_set(t) and 2 in eg_set(t)
        assert 1 not in eg_set(t)

    def test_single_vertex(self):
        assert 0 in eg_set(Graph(1))

    def test_pendant_tree_root_from_example(self):
        g = load_fixture("fig2_H")
        v5 = next(v for v in range(g.n) if g.name_of(v) == "v5")
        cycle = find_cycle(g)
        tree, label_map = pendant_tree(g, cycle, v5)
        assert label_map.index(v5) in eg_set(tree)
        # The type witness check asks the same of G without its cycle edges.
        assert v5 in eg_set(g.without_edges(cycle.edges))

    def test_matches_the_deletion_definition_on_random_trees(self):
        rng = random.Random(59)
        for _ in range(300):
            t = random_tree(rng.randrange(1, 20), rng)
            assert eg_set(t) == deletion_set(t)
        for _ in range(150):
            f = random_forest(rng.randrange(1, 20), rng)
            assert eg_set(f) == deletion_set(f)

    def test_one_matching_per_call(self, monkeypatch):
        grown = _spy_grown_matchings(monkeypatch)
        t = load_fixture("fig1_T1")
        missable = eg_set(t)
        assert [v in missable for v in range(t.n)] == [v in {1, 2, 3} for v in range(t.n)]
        assert len(grown) == 1 and grown[0] is t

    def test_input_validation(self, monkeypatch):
        # Any graph is accepted, not only trees; the size guard is the
        # one input check.
        assert eg_set(cycle_graph(3)) == {0, 1, 2}
        assert eg_set(Graph(2)) == {0, 1}  # disconnected
        assert 5 not in eg_set(path_graph(2))
        monkeypatch.setenv("NULLDECOMP_MAX_N", "2")
        with pytest.raises(TooLarge):
            eg_set(path_graph(3))


class TestSizeGuard:
    def test_default_limit(self, monkeypatch):
        monkeypatch.delenv("NULLDECOMP_MAX_N", raising=False)
        assert size_limit() == 32
        with pytest.raises(TooLarge):
            max_independent_set(path_graph(33))
        with pytest.raises(TooLarge):
            max_matching(path_graph(33))
        with pytest.raises(TooLarge):
            eg_set(path_graph(33))

    @pytest.mark.parametrize("raw", ["\u0663_\u0663", "3_3", "+33", "33 ", "", "abc"])
    def test_only_ascii_decimals_are_integers(self, monkeypatch, raw):
        monkeypatch.setenv("NULLDECOMP_MAX_N", raw)
        with pytest.raises(ValueError, match="NULLDECOMP_MAX_N must be an integer"):
            size_limit()

    def test_changed_limit_takes_effect_on_the_same_graph(self, monkeypatch):
        g = path_graph(3)
        monkeypatch.setenv("NULLDECOMP_MAX_N", "40")
        assert max_independent_set(g)[0] == 2
        monkeypatch.setenv("NULLDECOMP_MAX_N", "2")
        with pytest.raises(TooLarge):
            max_independent_set(g)
        with pytest.raises(TooLarge):
            max_matching(g)
        monkeypatch.setenv("NULLDECOMP_MAX_N", "40")
        assert max_independent_set(g)[0] == 2

    def test_bad_value_raises_on_every_call(self, monkeypatch):
        g = path_graph(3)
        monkeypatch.setenv("NULLDECOMP_MAX_N", "abc")
        for _ in range(3):
            with pytest.raises(ValueError, match="NULLDECOMP_MAX_N must be an integer"):
                size_limit()
            with pytest.raises(ValueError, match="NULLDECOMP_MAX_N must be an integer"):
                max_independent_set(g)

    def test_overlong_numeral_is_named_by_its_length(self, monkeypatch):
        monkeypatch.setenv("NULLDECOMP_MAX_N", "9" * 4301)
        with pytest.raises(ValueError, match="NULLDECOMP_MAX_N is a numeral longer than") as info:
            size_limit()
        assert "99" not in str(info.value)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("NULLDECOMP_MAX_N", "40")
        assert size_limit() == 40
        assert max_matching(path_graph(33)).size == 16

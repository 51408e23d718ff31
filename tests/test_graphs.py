"""Graph container, both parsers, shape classification, cycle location."""

import random
import re

import pytest

import nulldecomp.trees
import nulldecomp.unicyclic
from nulldecomp import (
    DuplicateEdge,
    EmptyGraph,
    Graph,
    MalformedLine,
    BadChecksumChar,
    NotAForest,
    NotUnicyclic,
    Role,
    SelfLoop,
    Shape,
    TruncatedPayload,
    UnknownVertex,
    classify_shape,
    decompose,
    export_dot,
    find_cycle,
    format_edge_list,
    graphs,
    independent_set_certificate,
    parse_edge_list,
    parse_graph6,
    random_tree,
    random_unicyclic,
)
from nulldecomp.fixtures import load_fixture
from nulldecomp.graphs import _components, edge_inside, foreign_id, matching_defect
from refgraphs import random_simple_graph

nx = pytest.importorskip("networkx")


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def with_extra_edge(g, rng):
    """g plus one edge it does not have, chosen uniformly."""
    missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if v not in g.neighbors(u)]
    return Graph(g.n, list(g.edges) + [rng.choice(missing)])


def side_by_side(a, b):
    return Graph(a.n + b.n, list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges])


def random_forest(n, rng):
    """A random tree on n vertices with each edge dropped with probability 1/5."""
    t = random_tree(n, rng)
    return Graph(n, [e for e in sorted(t.edges) if rng.random() < 0.8])


def shape_corpus(seed, count):
    """count seeded graphs with shuffled ids: unicyclic graphs, pure cycles,
    bicyclic graphs, disconnected graphs with m = n, and forests."""
    rng = random.Random(seed)
    makers = [
        lambda: random_unicyclic(rng.randrange(3, 20), rng),
        lambda: cycle(rng.randrange(3, 20)),
        lambda: with_extra_edge(random_unicyclic(rng.randrange(4, 20), rng), rng),
        # two unicyclic pieces, or a bicyclic piece beside a tree: m = n
        lambda: side_by_side(
            random_unicyclic(rng.randrange(3, 10), rng),
            random_unicyclic(rng.randrange(3, 10), rng),
        ),
        lambda: side_by_side(
            with_extra_edge(random_unicyclic(rng.randrange(4, 10), rng), rng),
            random_tree(rng.randrange(1, 10), rng),
        ),
        lambda: random_forest(rng.randrange(1, 20), rng),
    ]
    out = []
    for i in range(count):
        g = makers[i % len(makers)]()
        perm = rng.sample(range(g.n), g.n)
        out.append(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
    return out


def depth_first_walk(g):
    """(order, parent) of a depth-first walk, each component rooted at its
    smallest vertex.  Unlike graphs._search, which claims every unseen
    neighbor when it leaves a vertex, it claims a vertex only on entering
    it, so every edge off its tree joins a vertex to an ancestor."""
    parent = [-1] * g.n
    seen = [False] * g.n
    order = []
    for r in range(g.n):
        stack = [(r, -1)]
        while stack:
            u, p = stack.pop()
            if seen[u]:
                continue
            seen[u] = True
            parent[u] = p
            order.append(u)
            stack.extend((w, u) for w in sorted(g.neighbors(u), reverse=True) if not seen[w])
    return order, parent


def is_ancestor(parent, a, v):
    while v >= 0 and v != a:
        v = parent[v]
    return v == a


def same_graph(got, want):
    """Equal, and equal in the iteration order of edges and of every
    neighbour tuple, which the walk follows."""
    return (
        got == want
        and list(got.edges) == list(want.edges)
        and [list(got.neighbors(v)) for v in range(got.n)]
        == [list(want.neighbors(v)) for v in range(want.n)]
    )


# Separators that str.split() takes and the "u v" line pattern does not,
# and none that str.splitlines() breaks a line at.
UNICODE_SPACES = ("\u00a0", "\u2003", "\u3000", "\u2009")
ARABIC_INDIC = str.maketrans("0123456789", "".join(chr(0x660 + d) for d in range(10)))


def scrambled_edge_list(g, rng, labels):
    """g as an edge list in random line order and edge orientation, with
    tabs, runs of spaces, Unicode spaces, "-0", leading zeros, comments,
    blank lines and the headers anywhere; returns (text, pairs in line
    order)."""
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
    rng.shuffle(pairs)

    def numeral(x):
        if x == 0 and rng.random() < 0.3:
            return "-0"
        return "0" * rng.choice((0, 0, 0, 1, 2)) + str(x)

    lines = [
        rng.choice(("", "", " ", "\t"))
        + numeral(u)
        + rng.choice((" ", " ", "\t", "  ", " \t\t ", *UNICODE_SPACES))
        + numeral(v)
        + rng.choice(("", "", " ", "\u2003"))
        for u, v in pairs
    ]
    extra = ["# a comment", "", "   ", f"n={g.n}"]
    if labels is not None:
        extra.append("labels=" + ",".join(labels))
    for line in extra:
        lines.insert(rng.randrange(len(lines) + 1), line)
    return "\n".join(lines) + rng.choice(("", "\n")), pairs


class TestGraph:
    def test_basic_accessors(self):
        g = Graph(4, [(0, 1), (2, 1), (2, 3)])
        assert g.n == 4
        assert g.edges == {(0, 1), (1, 2), (2, 3)}
        assert set(g.neighbors(1)) == {0, 2}
        assert g.m == 3

    @pytest.mark.parametrize(
        "call",
        [
            ("neighbors", -1),
            ("neighbors", 4),
            ("name_of", -1),
            ("name_of", 4),
        ],
        ids=str,
    )
    def test_accessors_reject_ids_outside_the_graph(self, call):
        # On the path 0-1-2-3, negative ids once indexed from the end and
        # an id past n raised IndexError, or for name_of on an unlabeled
        # graph gave the id's own digits.
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        for h in (g, Graph(4, g.edges, labels="abcd")):
            with pytest.raises(UnknownVertex):
                getattr(h, call[0])(*call[1:])

    def test_edges_are_built_on_first_read_and_kept(self):
        # Graph is immutable, so the set built on the first read cannot go
        # stale; a copy without edges builds its own.
        rng = random.Random(31)
        for _ in range(100):
            g = random_simple_graph(rng.randrange(0, 20), rng.random(), rng)
            assert g._edges is None
            h = parse_edge_list(format_edge_list(g))  # which reads g.edges
            assert h._edges is None
            for x in (g, h):
                edges = x.edges
                assert x.edges is edges and len(edges) == x.m
                assert edges == {(u, v) for u in range(x.n) for v in x.neighbors(u) if u < v}
            cut = g.without_edges(sorted(g.edges)[: g.m // 2])
            assert cut._edges is None and cut.m == len(cut.edges) == g.m - g.m // 2

    def test_edges_normalized_to_sorted_pairs(self):
        g = Graph(3, [(2, 0)])
        assert g.edges == {(0, 2)}

    def test_rejects_bad_edges(self):
        with pytest.raises(UnknownVertex):
            Graph(2, [(0, 2)])
        with pytest.raises(SelfLoop):
            Graph(2, [(1, 1)])
        with pytest.raises(DuplicateEdge):
            Graph(2, [(0, 1), (1, 0)])

    def test_zero_vertices_allowed(self):
        g = Graph(0)
        assert g.n == 0 and g.edges == frozenset()

    def test_labels(self):
        g = Graph(2, [(0, 1)], labels=["a", "b"])
        assert g.name_of(0) == "a"
        assert Graph(1).name_of(0) == "0"
        with pytest.raises(ValueError):
            Graph(2, labels=["a"])

    def test_without_edges(self):
        g = cycle(4)
        assert classify_shape(g.without_edges([(3, 0)])) == Shape.TREE
        rng = random.Random(29)
        for _ in range(200):
            g = random_simple_graph(rng.randrange(0, 14), rng.random(), rng)
            if rng.random() < 0.5:
                g = Graph(g.n, g.edges, labels=[f"x{v}" for v in range(g.n)])
            before = (g.n, g.edges, g.labels, [g.neighbors(v) for v in range(g.n)])
            removed = rng.sample(sorted(g.edges), rng.randrange(len(g.edges) + 1))
            given = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in removed]
            got = g.without_edges(given)
            want = Graph(g.n, g.edges - set(removed), labels=g.labels)
            assert got == want
            assert got.m == len(want.edges)
            assert all(set(got.neighbors(v)) == set(want.neighbors(v)) for v in range(g.n))
            # Each neighbour tuple keeps its order, less the removed ends.
            gone = set(removed)
            assert all(
                got.neighbors(v) == tuple(w for w in g.neighbors(v) if (min(v, w), max(v, w)) not in gone)
                for v in range(g.n)
            )
            assert (g.n, g.edges, g.labels, [g.neighbors(v) for v in range(g.n)]) == before
            assert g.without_edges([]) == g
            absent = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if v not in g.neighbors(u)]
            if absent:
                with pytest.raises(UnknownVertex):
                    g.without_edges([*removed, rng.choice(absent)])

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(3, [(0, 2)])


class TestEdgeListFormat:
    def test_parse_with_headers_and_comments(self):
        g = parse_edge_list("# a triangle plus tail\nn=4\nlabels=p,q,r,s\n0 1\n1 2\n2 0\n2 3\n")
        assert g.n == 4
        assert g.labels == ("p", "q", "r", "s")
        assert 3 in g.neighbors(2)

    def test_vertex_count_defaults_to_max_plus_one(self):
        assert parse_edge_list("0 5\n").n == 6

    def test_edgeless_graph_via_header(self):
        g = parse_edge_list("n=4\n")
        assert g.n == 4 and not g.edges

    def test_errors_carry_line_numbers(self):
        with pytest.raises(MalformedLine, match="line 2"):
            parse_edge_list("0 1\n1 2 3\n")
        with pytest.raises(SelfLoop, match="line 1"):
            parse_edge_list("3 3\n")
        with pytest.raises(DuplicateEdge, match="line 3"):
            parse_edge_list("0 1\n1 2\n1 0\n")
        with pytest.raises(MalformedLine, match="non-integer"):
            parse_edge_list("0 x\n")
        with pytest.raises(MalformedLine, match="negative"):
            parse_edge_list("0 -1\n")
        # int() would read these as 10, 3, 2 and 1
        for bad in ("1_0 2", "\u0663 1", "+2 1", "0 \uff11"):
            with pytest.raises(MalformedLine, match="line 2: non-integer vertex"):
                parse_edge_list(f"0 1\n{bad}\n")
        with pytest.raises(MalformedLine, match="line 2: negative vertex id"):
            parse_edge_list("0 1\n-3 1\n")

    def test_header_validation(self):
        with pytest.raises(MalformedLine):
            parse_edge_list("n=abc\n0 1\n")
        for bad in ("n=1_000_000", "n=\u0663", "n=+3", "n=3.0"):
            with pytest.raises(MalformedLine, match="line 2: bad vertex count"):
                parse_edge_list(f"# header\n{bad}\n0 1\n")
        with pytest.raises(MalformedLine, match="line 1: negative vertex count"):
            parse_edge_list("n=-2\n")
        assert parse_edge_list("n= 3 \n0 1\n").n == 3
        with pytest.raises(MalformedLine, match="out of range"):
            parse_edge_list("n=2\n0 5\n")
        with pytest.raises(MalformedLine, match="labels"):
            parse_edge_list("n=3\nlabels=a,b\n0 1\n")

    def test_vertex_count_cap(self, monkeypatch):
        assert graphs.MAX_EDGE_LIST_N == 10**6
        with pytest.raises(MalformedLine, match="n=100000000 is above the cap of 1000000"):
            parse_edge_list("n=100000000\n0 1\n")
        monkeypatch.setattr(graphs, "MAX_EDGE_LIST_N", 5)
        assert parse_edge_list("n=5\n0 1\n").n == 5
        assert parse_edge_list("0 4\n").n == 5
        with pytest.raises(MalformedLine, match="n=6 is above the cap of 5 vertices"):
            parse_edge_list("n=6\n0 1\n")
        with pytest.raises(MalformedLine, match="n=6 is above the cap"):
            parse_edge_list("0 5\n")  # no header: max label + 1

    def test_repeated_headers_rejected(self):
        with pytest.raises(MalformedLine, match="line 2: repeated n= header"):
            parse_edge_list("n=2\nn=3\n0 1\n")
        with pytest.raises(MalformedLine, match="line 3: repeated labels= header"):
            parse_edge_list("labels=a,b\n0 1\nlabels=c,d\n")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(MalformedLine, match="line 1: duplicate vertex name"):
            parse_edge_list("labels=a,a,b\n0 1\n1 2\n")

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_simple_graph(rng.randrange(1, 12), 0.3, rng)
            assert parse_edge_list(format_edge_list(g)) == g

    def test_round_trip_keeps_labels(self):
        g = Graph(3, [(0, 1)], labels=["x", "y", "z"])
        assert parse_edge_list(format_edge_list(g)) == g

    @pytest.mark.parametrize(
        "labels, named",
        [
            (["a,b", "c"], "'a,b'"),  # would split into two names
            (["a", "b\x1ec"], "'b\\x1ec'"),  # str.splitlines breaks on \x1e
            (["x\x1f", " y"], "'x\\x1f'"),  # str.strip would drop \x1f
            (["a", " y"], "' y'"),
            (["a", "", "b", ""], "'' is repeated"),
        ],
    )
    def test_labels_that_would_not_read_back_are_refused(self, labels, named):
        g = Graph(len(labels), labels=labels)
        with pytest.raises(ValueError, match=re.escape(named)):
            format_edge_list(g)

    def test_no_labels_for_no_vertices_are_refused(self):
        # "labels=" would read back as one empty name.
        with pytest.raises(ValueError, match="no vertices"):
            format_edge_list(Graph(0, labels=[]))
        assert format_edge_list(Graph(0)) == "n=0\n"


class TestGraph6:
    def test_single_edge(self):
        g = parse_graph6("A_")
        assert g.n == 2 and g.edges == {(0, 1)}

    def test_triangle(self):
        g = parse_graph6("Bw")
        assert g.n == 3 and g.edges == {(0, 1), (0, 2), (1, 2)}

    def test_complete_four(self):
        g = parse_graph6("C~")
        assert g.n == 4 and len(g.edges) == 6

    def test_header_prefix(self):
        assert parse_graph6(">>graph6<<Bw").n == 3

    def test_long_size_form(self):
        # 63 vertices, no edges: size header ~??~ then 326 zero bytes
        s = "~??~" + "?" * 326
        g = parse_graph6(s)
        assert g.n == 63 and not g.edges

    def test_bad_byte(self):
        with pytest.raises(BadChecksumChar):
            parse_graph6("B!")

    def test_truncated(self):
        with pytest.raises(TruncatedPayload):
            parse_graph6("B")
        with pytest.raises(TruncatedPayload):
            parse_graph6("")

    def test_trailing_garbage(self):
        with pytest.raises(MalformedLine, match="trailing"):
            parse_graph6("Bw?")

    def test_against_networkx_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randrange(1, 13)
            g = random_simple_graph(n, rng.choice([0.1, 0.3, 0.6]), rng)
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges)
            line = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert parse_graph6(line) == Graph(n, g.edges)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 62, 63, 64])
    def test_set_padding_bits_are_ignored(self, n):
        # The payload is padded with zeros to whole bytes; a writer that
        # sets the padding bits must not add edges.
        h = nx.gnp_random_graph(n, 0.5, seed=n)
        line = nx.to_graph6_bytes(h, header=False).decode().strip()
        pad = -(n * (n - 1) // 2) % 6
        padded = line[:-1] + chr(63 + (ord(line[-1]) - 63 | (1 << pad) - 1))
        assert (padded != line) == (pad > 0)
        assert parse_graph6(padded) == parse_graph6(line) == Graph(n, h.edges)

    @pytest.mark.parametrize("n", [62, 63, 64])
    def test_every_bit_set_is_the_complete_graph(self, n):
        # "~" sets all six bits of a byte, the padding bits included.
        need = (n * (n - 1) // 2 + 5) // 6
        head = chr(63 + n) if n < 63 else "~" + chr(63) + chr(63 + (n >> 6)) + chr(63 + (n & 63))
        g = parse_graph6(head + "~" * need)
        assert g == Graph(n, [(i, j) for j in range(n) for i in range(j)])

    @pytest.mark.parametrize("p", [0.03, 0.6])
    @pytest.mark.parametrize("n", [62, 63, 64, 100, 300])
    def test_against_networkx_at_the_header_sizes(self, n, p):
        # n = 62 has the 1-byte size header, the others the 4-byte one.
        h = nx.gnp_random_graph(n, p, seed=n)
        line = nx.to_graph6_bytes(h, header=False)
        assert len(line) - 1 - (n * (n - 1) // 2 + 5) // 6 == (1 if n < 63 else 4)
        g = parse_graph6(line.decode())
        assert g == Graph(n, nx.from_graph6_bytes(line.strip()).edges)
        back = nx.Graph()
        back.add_nodes_from(range(n))
        back.add_edges_from(g.edges)
        assert nx.to_graph6_bytes(back, header=False) == line

    @pytest.mark.parametrize("p", [0.03, 0.6])
    def test_builds_the_neighbour_order_of_its_edge_sequence(self, p):
        # The payload lists pair (i, j), i < j, column by column: by j, then i.
        # Sparse rows hold ids past their set's table size, so the order
        # in which the edges arrive shows in the iteration order.
        h = nx.gnp_random_graph(300, p, seed=5)
        g = parse_graph6(nx.to_graph6_bytes(h, header=False).decode())
        pairs = sorted(((min(e), max(e)) for e in h.edges), key=lambda e: e[::-1])
        ref = Graph(300, pairs)
        assert [list(g.neighbors(v)) for v in range(300)] == [
            list(ref.neighbors(v)) for v in range(300)
        ]

    def test_very_long_size_header(self):
        # "~~" and six bytes of size: the 8-byte form, here for n = 3.
        assert parse_graph6("~~?????B" + "w") == parse_graph6("Bw")

    def test_padding_bits_are_ignored(self):
        # n = 3 uses three of the byte's six bits, n = 2 one.
        assert parse_graph6("B~") == parse_graph6("Bw")
        assert parse_graph6("A~") == parse_graph6("A_")
        assert parse_graph6("BF") == Graph(3)

    @pytest.mark.parametrize(
        "line, error, message",
        [
            ("", TruncatedPayload, "empty graph6 string"),
            (">>graph6<<\n", TruncatedPayload, "empty graph6 string"),
            ("B!", BadChecksumChar, "byte 33 ('!') outside graph6 range 63..126"),
            ("B\x7f!", BadChecksumChar, "byte 127 ('\\x7f') outside graph6 range 63..126"),
            ("B\u00e9", BadChecksumChar, "byte 233 ('\u00e9') outside graph6 range 63..126"),
            (
                "Bw\nBw\n",
                MalformedLine,
                "input holds more than one graph6 line; analyze reads one graph",
            ),
            ("~?", TruncatedPayload, "long-form size header cut short"),
            ("~", TruncatedPayload, "very-long-form size header cut short"),
            ("~~?????", TruncatedPayload, "very-long-form size header cut short"),
            ("B", TruncatedPayload, "need 1 payload bytes for n=3, got 0"),
            ("~?@?" + "?" * 10, TruncatedPayload, "need 336 payload bytes for n=64, got 10"),
            ("Bw??", MalformedLine, "2 trailing bytes after graph6 payload"),
        ],
    )
    def test_error_messages(self, line, error, message):
        with pytest.raises(error) as info:
            parse_graph6(line)
        assert str(info.value) == message


class TestParsersBuildTheCheckedGraph:
    """Each parser checks an edge once and builds the Graph without Graph's
    own checks; the result is Graph(n, edges, labels), iteration orders
    included."""

    def test_edge_list(self):
        rng = random.Random(41)
        for trial in range(300):
            n = rng.choice((rng.randrange(1, 40), rng.randrange(40, 300)))
            g = random_simple_graph(n, rng.uniform(0.5, 6) / n, rng)
            labels = [f"v{i}" for i in range(n)] if rng.random() < 0.3 else None
            text, pairs = scrambled_edge_list(g, rng, labels)
            assert same_graph(parse_edge_list(text), Graph(n, pairs, labels)), text

    def test_non_ascii_digits_take_the_token_route_to_its_error(self):
        rng = random.Random(43)
        for trial in range(100):
            g = random_simple_graph(rng.randrange(2, 30), 0.3, rng)
            if not g.edges:
                continue
            text, _ = scrambled_edge_list(g, rng, None)
            lines = text.split("\n")
            starts = tuple("-0123456789")  # of an edge line, not of a header
            k = rng.choice([i for i, line in enumerate(lines) if line.strip().startswith(starts)])
            lines[k] = lines[k].translate(ARABIC_INDIC)
            with pytest.raises(MalformedLine) as info:
                parse_edge_list("\n".join(lines))
            assert str(info.value) == f"line {k + 1}: non-integer vertex in {lines[k].strip()!r}"

    def test_graph6(self):
        rng = random.Random(47)
        for trial in range(80):
            n = rng.randrange(40, 300) if trial % 4 == 0 else rng.randrange(1, 40)
            h = nx.gnp_random_graph(n, rng.uniform(0.5, 6) / n, seed=trial)
            line = nx.to_graph6_bytes(h, header=False).decode()
            # The payload lists pair (i, j), i < j, by j, then i.
            pairs = sorted(((min(e), max(e)) for e in h.edges), key=lambda e: e[::-1])
            assert same_graph(parse_graph6(line), Graph(n, pairs))


class TestGraph6EdgeBudget:
    """parse_graph6(line, _at_most_n_edges=True) gives None for a graph
    with more than n edges, reading at most n + 1 payload bytes that carry
    an edge, and otherwise the graph the plain parse gives."""

    def test_none_past_n_edges_else_the_plain_parse(self):
        rng = random.Random(53)
        for trial in range(300):
            n = rng.randrange(0, 16)
            h = nx.gnm_random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), seed=trial)
            line = nx.to_graph6_bytes(h, header=False).decode()
            got = parse_graph6(line, _at_most_n_edges=True)
            if h.number_of_edges() > n:
                assert got is None, line
            else:
                assert same_graph(got, parse_graph6(line)), line

    def test_errors_come_before_the_budget(self):
        # Every check reads the whole line before the decode starts.
        for bad, error in [("C~~", MalformedLine), ("C~\x01", BadChecksumChar), ("D~", TruncatedPayload)]:
            with pytest.raises(error):
                parse_graph6(bad, _at_most_n_edges=True)

    def test_the_decode_stops_after_n_plus_one_marked_bytes(self, monkeypatch):
        read = []

        class Counted(dict):
            def __getitem__(self, ch):
                read.append(ch)
                return dict.__getitem__(self, ch)

        monkeypatch.setattr(nulldecomp.graphs, "_SET_BITS", Counted(nulldecomp.graphs._SET_BITS))
        n = 300
        complete = "~" * ((n * (n - 1) // 2 + 5) // 6)
        head = "".join(chr(63 + x) for x in (63, n >> 12, n >> 6 & 63, n & 63))
        assert parse_graph6(head + complete, _at_most_n_edges=True) is None
        assert len(read) == n + 1
        read.clear()
        assert parse_graph6(head + complete).m == n * (n - 1) // 2
        assert len(read) == len(complete)


class TestShapesAndComponents:
    @pytest.mark.parametrize(
        "g,shape",
        [
            (Graph(1), Shape.TREE),
            (path_graph(5), Shape.TREE),
            (Graph(3, [(0, 1)]), Shape.FOREST),
            (cycle(4), Shape.CYCLE),
            (Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]), Shape.UNICYCLIC),
            (Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)]), Shape.OTHER),
            (Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]), Shape.OTHER),
        ],
    )
    def test_classify(self, g, shape):
        assert classify_shape(g) == shape

    def test_classify_against_networkx_on_random_graphs(self):
        seen = set()
        for g in shape_corpus(seed=41, count=360):
            h = nx_graph(g)
            connected = nx.is_connected(h)
            if nx.is_forest(h):
                expected = Shape.TREE if connected else Shape.FOREST
            elif connected and len(g.edges) == g.n:
                cyclic = all(d == 2 for _, d in h.degree())
                expected = Shape.CYCLE if cyclic else Shape.UNICYCLIC
            else:
                expected = Shape.OTHER
            assert classify_shape(g) == expected, sorted(g.edges)
            comps = sorted((sorted(c) for c in nx.connected_components(h)), key=min)
            assert _components(g) == comps
            seen.add(expected)
        assert seen == set(Shape)

    def test_classify_empty_raises(self):
        with pytest.raises(EmptyGraph):
            classify_shape(Graph(0))

    def test_components_ordered_by_smallest_member(self):
        g = Graph(6, [(4, 5), (0, 3), (1, 2)])
        assert _components(g) == [[0, 3], [1, 2], [4, 5]]


class TestFindCycle:
    def test_pure_cycle(self):
        info = find_cycle(cycle(5))
        assert info.vertices == (0, 1, 2, 3, 4)
        assert info.length == 5

    def test_canonical_start_and_direction(self):
        # cycle 2-4-6-3 with trees hanging off; smallest cycle vertex is 2,
        # and of its cycle neighbors {3, 4} the tour steps to 3 first
        g = Graph(
            8,
            [(2, 4), (4, 6), (6, 3), (3, 2), (0, 2), (1, 4), (5, 6), (7, 5)],
        )
        info = find_cycle(g)
        assert info.vertices == (2, 3, 6, 4)

    def test_rejects_acyclic_and_bicyclic(self):
        with pytest.raises(NotUnicyclic):
            find_cycle(path_graph(4))
        with pytest.raises(NotUnicyclic):
            find_cycle(Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)]))

    def test_rejects_the_empty_graph(self):
        with pytest.raises(NotUnicyclic, match="graph is empty, expected exactly one cycle"):
            find_cycle(Graph(0))

    def test_rejects_disconnected_graphs_with_a_cycle(self):
        # Two triangles have m = n, as a unicyclic graph does, and the walk
        # covers one of them; a triangle and an isolated vertex has m < n.
        two = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        with pytest.raises(NotUnicyclic, match="graph is other"):
            find_cycle(two)
        with pytest.raises(NotUnicyclic, match="graph is other"):
            find_cycle(Graph(4, [(0, 1), (1, 2), (2, 0)]))

    def test_checks_its_input_without_a_component_pass(self, monkeypatch):
        calls = []
        components, walk = graphs._components, graphs._search

        def counted_components(g):
            calls.append(("components", g.n))
            return components(g)

        def counted_walk(g):
            calls.append(("walk", g.n))
            return walk(g)

        monkeypatch.setattr(graphs, "_components", counted_components)
        monkeypatch.setattr(graphs, "_search", counted_walk)
        inputs = (load_fixture("fig6"), load_fixture("fig4"), cycle(5))
        for g in inputs:
            find_cycle(g)
        assert calls == [("walk", g.n) for g in inputs]

    @pytest.mark.parametrize("walk", ["own", "depth-first"])
    def test_against_networkx_on_random_graphs(self, walk, monkeypatch):
        if walk == "depth-first":
            monkeypatch.setattr(graphs, "_search", depth_first_walk)
        outcomes = set()
        for g in shape_corpus(seed=43, count=360):
            h = nx_graph(g)
            if not (nx.is_connected(h) and len(g.edges) == g.n):
                with pytest.raises(NotUnicyclic):
                    find_cycle(g)
                outcomes.add("rejected")
                continue
            c = find_cycle(g)
            (basis,) = nx.cycle_basis(h)
            vs = c.vertices
            assert set(vs) == set(basis) and c.length == len(basis)
            assert c.edges == tuple(
                (min(u, w), max(u, w)) for u, w in zip(vs, vs[1:] + vs[:1])
            )
            assert all(w in g.neighbors(u) for u, w in c.edges)
            assert vs[0] == min(vs) and vs[1] < vs[-1]
            # which kind of edge closed the cycle in the walk find_cycle saw
            _, parent = graphs._search(g)
            u, w = next((u, w) for u, w in g.edges if w != parent[u] and u != parent[w])
            if is_ancestor(parent, u, w) or is_ancestor(parent, w, u):
                outcomes.add("closed to an ancestor")
            else:
                outcomes.add("closed across")
        # graphs._search never leaves an edge to an ancestor off its tree; the
        # depth-first walk leaves nothing else
        closing = "closed across" if walk == "own" else "closed to an ancestor"
        assert outcomes == {"rejected", closing}

    def test_relabeling_keeps_the_same_cycle_set(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(4, 12)
            g = random_unicyclic(n, rng)
            base = find_cycle(g)
            perm = list(range(n))
            rng.shuffle(perm)
            h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
            relabeled = find_cycle(h)
            assert set(relabeled.vertices) == {perm[v] for v in base.vertices}
            assert relabeled.vertices[0] == min(relabeled.vertices)
            second = relabeled.vertices[1]
            last = relabeled.vertices[-1]
            assert second == min(second, last)


class TestWalkCache:
    """Each Graph keeps its walk: _search builds it on the first call on
    that Graph object and serves the same tuples after, so every public
    function reads one walk.  An equal but separate Graph and a copy
    without edges are walked anew."""

    @pytest.fixture
    def searches(self, monkeypatch):
        # The graphs whose walk is built, wherever _search was imported.
        seen = []
        search = graphs._search

        def counted(g):
            if g._walk is None:
                seen.append(g)
            return search(g)

        for module in (graphs, nulldecomp.trees, nulldecomp.unicyclic):
            monkeypatch.setattr(module, "_search", counted)
        return seen

    def test_walks_a_graph_once_in_a_row(self, searches):
        # One walk serves the shape, the cycle and both analyses, as in
        # nulldecomp analyze; a second call serves the same tuples.
        g = random_unicyclic(30, random.Random(2))
        assert classify_shape(g) == Shape.UNICYCLIC
        walk = g._walk
        assert find_cycle(g) == find_cycle(Graph(g.n, sorted(g.edges)))
        assert nulldecomp.unicyclic.analyze(g).cycle == find_cycle(g)
        assert nulldecomp.unicyclic.classify_type(g).kind in ("I", "II")
        assert graphs._search(g) is walk
        # g's one walk, then the equal graph's
        assert len(searches) == 2 and searches[0] is g and searches[1] is not g

    def test_an_equal_but_separate_graph_is_walked_anew(self, searches):
        g = random_tree(25, random.Random(3))
        h = Graph(g.n, sorted(g.edges))
        assert h == g and h is not g
        assert classify_shape(g) == classify_shape(h) == Shape.TREE
        assert [x is g for x in searches] == [True, False]
        assert searches[1] is h

    def test_a_copy_without_edges_is_walked_anew(self, searches):
        g = cycle(6)
        assert classify_shape(g) == Shape.CYCLE
        cut = g.without_edges([(0, 1)])
        assert classify_shape(cut) == Shape.TREE
        forest = cut.without_edges([(3, 4)])
        assert _components(forest) == [[0, 4, 5], [1, 2, 3]]
        assert classify_shape(g) == Shape.CYCLE  # served from g's walk
        assert len(searches) == 3
        assert all(x is y for x, y in zip(searches, (g, cut, forest)))

    def test_a_patched_walk_is_neither_cached_nor_served_from_the_cache(self, monkeypatch):
        # While _search is patched, find_cycle reads the patched walk and
        # gives the cycle that walk closes; once the patch is undone,
        # nothing of that walk is served again.
        g = random_unicyclic(20, random.Random(4))
        _, parent = depth_first_walk(g)
        u, v = next((u, v) for u, v in g.edges if parent[u] != v and parent[v] != u)
        served = []

        def depth_first(h):
            served.append(h)
            return depth_first_walk(h)

        monkeypatch.setattr(graphs, "_search", depth_first)
        assert find_cycle(g) == graphs._closed_cycle(parent, u, v)
        assert served == [g] and g._walk is None
        monkeypatch.undo()
        assert graphs._search(g) != depth_first_walk(g)
        assert classify_shape(g) == Shape.UNICYCLIC
        find_cycle(g)
        assert served == [g]

    def test_every_public_function_reads_the_walk_any_other_left(self, searches):
        # Each function gives on a Graph another one has walked what it
        # gives on a fresh Graph with the same neighbour order (a copy
        # without no edges), raising included; each Graph object is
        # walked once, whatever reads it first.
        public = (
            classify_shape,
            find_cycle,
            nulldecomp.unicyclic.classify_type,
            nulldecomp.unicyclic.analyze,
            decompose,
            independent_set_certificate,
        )

        def outcome(f, g):
            try:
                return f(g)
            except (NotAForest, NotUnicyclic) as exc:
                return type(exc)

        rng = random.Random(8)
        kinds = set()
        for i in range(40):
            n = rng.randrange(3, 25)
            g = random_unicyclic(n, rng) if i % 2 else random_forest(n, rng)
            want = [outcome(f, g.without_edges(())) for f in public]
            kinds.add(want[0])
            for first in public:
                walked = g.without_edges(())
                outcome(first, walked)
                searches.clear()
                assert [outcome(f, walked) for f in public] == want
                assert searches == []
            searches.clear()
            equal = Graph(g.n, sorted(g.edges))
            assert [outcome(f, equal) for f in public] == want
            cut = g.without_edges([next(iter(g.edges))])
            for f in public:
                outcome(f, cut)
            assert len(searches) == 2 and searches[0] is equal and searches[1] is cut
        assert {Shape.TREE, Shape.FOREST, Shape.UNICYCLIC} <= kinds

    def test_analyze_is_served_only_walks_of_the_graph_it_passes(self, monkeypatch):
        # Every walk read during analyze or decompose is a walk of the very
        # graph passed: the one a fresh search of it gives, each vertex
        # after its parent.
        search = graphs._search
        served = []

        def checked_search(g):
            out = search(g)
            assert out == search(g)
            order, parent = out
            assert sorted(order) == list(range(g.n))
            position = {v: i for i, v in enumerate(order)}
            for v in order:
                if parent[v] >= 0:
                    assert parent[v] in g.neighbors(v) and position[parent[v]] < position[v]
            served.append(g)
            return out

        for module in (graphs, nulldecomp.trees, nulldecomp.unicyclic):
            monkeypatch.setattr(module, "_search", checked_search)
        rng = random.Random(6)
        kinds = set()
        for i in range(60):
            n = rng.randrange(3, 30)
            g = random_unicyclic(n, rng) if i % 2 else random_tree(n, rng)
            served.clear()
            if classify_shape(g) == Shape.TREE:
                nulldecomp.trees.decompose(g)
                kinds.add("tree")
            else:
                kinds.add(nulldecomp.unicyclic.analyze(g).kind)
            assert served and all(h is g for h in served)
        assert kinds == {"tree", "I", "II"}


C5 = cycle(5)


class TestCertificateRule:
    @pytest.mark.parametrize(
        "independent, clash",
        [
            ({0, 2}, None),
            ({0, 1}, (0, 1)),  # the set holds the edge 0-1
            ({4, 0, 2}, (0, 4)),  # named low end first
            (set(), None),
        ],
        ids=["valid", "edge-in-set", "edge-in-set-ordered", "empty"],
    )
    def test_edge_inside_on_c5(self, independent, clash):
        assert edge_inside(C5, independent) == clash

    @pytest.mark.parametrize(
        "matching, defect",
        [
            ([(0, 1), (2, 3)], None),
            ([(3, 4), (0, 2)], (0, 2)),  # 0-2 is not an edge
            ([(0, 1), (1, 2)], (1, 2)),  # vertex 1 is used twice
            ([(1, 0), (3, 2)], None),  # either endpoint order
        ],
        ids=["valid", "non-edge", "reused-vertex", "reversed-pairs"],
    )
    def test_matching_defect_on_c5(self, matching, defect):
        assert matching_defect(C5, matching) == defect

    def test_matching_defect_on_a_path(self):
        g = path_graph(3)
        assert matching_defect(g, {(0, 1)}) is None
        assert matching_defect(g, {(0, 2)}) == (0, 2)
        assert matching_defect(g, frozenset({(0, 1), (1, 2)})) in {(0, 1), (1, 2)}

    @pytest.mark.parametrize("pair", [(-1, 2), (2, -1), (9, 0), (0, 9), (4, 3), (-4, 1)])
    def test_matching_defect_names_a_pair_with_a_foreign_end(self, pair):
        # -1 would index vertex 3's neighbors on the path 0-1-2-3, and 9
        # would raise IndexError.
        g = path_graph(4)
        assert matching_defect(g, [pair]) == pair
        assert matching_defect(g, [(0, 1), pair]) == pair

    def test_edge_inside_never_takes_a_foreign_id_for_a_vertex(self):
        g = path_graph(4)
        assert edge_inside(g, {-1, 2}) is None
        assert edge_inside(g, {-4, -3, 9, 4}) is None
        assert edge_inside(g, {-1, 2, 3}) == (2, 3)
        assert foreign_id(g, {-1, 2}) == -1
        assert foreign_id(g, [0, 4]) == 4
        assert foreign_id(g, {0, 2, 3}) is None
        assert foreign_id(Graph(0), []) is None


class TestDotExport:
    def test_roles_and_escaping(self):
        g = Graph(4, [(0, 1), (1, 2)], labels=['say "hi"', "b", "c", "a\\"])
        out = export_dot(g, {0: Role.SUPPORT, 1: Role.CORE, 2: Role.N_VERTEX})
        assert "shape=box" in out and "shape=doublecircle" in out and "shape=star" in out
        assert '\\"hi\\"' in out
        assert '  3 [label="a\\\\"];' in out  # a trailing backslash must not escape the quote
        assert "0 -- 1;" in out and "1 -- 2;" in out

    def test_plain_default(self):
        out = export_dot(Graph(2, [(0, 1)]))
        assert "shape=box" not in out
        assert out.startswith("graph nulldecomp {")

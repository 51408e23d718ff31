"""Property checks: the input formats round-trip, and reports are byte-stable."""

import contextlib
import io
import random
import string
import sys
from itertools import combinations

import pytest

from nulldecomp import Graph, format_edge_list, parse_edge_list, parse_graph6
from nulldecomp.cli import main
from nulldecomp.randgraphs import random_tree, random_unicyclic

pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(max_examples=150, derandomize=True, deadline=None, database=None)

# Label characters the edge-list format carries as they are: no comma,
# which separates names, and no whitespace, which the parser strips.
LABEL = st.text(alphabet=string.ascii_letters + string.digits + "_-.()", min_size=1, max_size=5)


@st.composite
def graphs(draw, max_n=30):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, edges)


@st.composite
def labeled_graphs(draw):
    g = draw(graphs(max_n=16))
    if g.n == 0:
        return g  # a labels= line names at least one vertex
    labels = draw(st.lists(LABEL, min_size=g.n, max_size=g.n, unique=True))
    return Graph(g.n, g.edges, labels=labels)


@SETTINGS
@given(graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


@settings(max_examples=75, derandomize=True, deadline=None, database=None)
@given(labeled_graphs())
def test_edge_list_round_trip_with_labels(g):
    assert parse_edge_list(format_edge_list(g)) == g


# Any text, with the characters the edge-list format treats specially
# drawn often: the name separator, whitespace that str.strip removes, and
# line breaks that str.splitlines splits on.
ANY_LABEL = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from(string.ascii_letters + "#="),
        st.sampled_from(", \t\n\r\x1c\x1f\x85\u2028"),
    ),
    max_size=4,
)


@st.composite
def text_labeled_graphs(draw):
    g = draw(graphs(max_n=6))
    labels = draw(st.lists(st.one_of(LABEL, ANY_LABEL), min_size=g.n, max_size=g.n))
    return Graph(g.n, g.edges, labels=labels)


@SETTINGS
@given(text_labeled_graphs())
def test_edge_list_round_trip_with_any_text_labels(g):
    # Labels the format cannot carry are refused when written, never
    # read back as other names.
    try:
        text = format_edge_list(g)
    except ValueError:
        return
    assert parse_edge_list(text) == g


@SETTINGS
@given(graphs(max_n=70))
def test_graph6_from_networkx(g):
    # n up to 70 reaches graph6's 4-byte size header (n >= 63).
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    back = parse_graph6(nx.to_graph6_bytes(h, header=False).decode("ascii"))
    assert (back.n, back.edges) == (g.n, g.edges)


@st.composite
def analyzable_inputs(draw):
    """Edge-list text of a forest or a unicyclic graph, labeled or not."""
    n = draw(st.integers(3, 24))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["tree", "forest", "unicyclic"]))
    if kind == "unicyclic":
        g = random_unicyclic(n, rng)
    else:
        g = random_tree(n, rng)
        if kind == "forest":
            g = Graph(n, [e for e in sorted(g.edges) if rng.random() >= 0.25])
    if draw(st.booleans()):
        g = Graph(g.n, g.edges, labels=draw(st.lists(LABEL, min_size=n, max_size=n, unique=True)))
    return format_edge_list(g)


def analyze_stdout(text, flags):
    """(exit code, stdout) of `nulldecomp analyze` reading text on stdin."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(["analyze", *flags])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(analyzable_inputs(), st.sampled_from([(), ("--verify",)]))
def test_analyze_prints_the_same_bytes_twice(text, flags):
    first = analyze_stdout(text, flags)
    assert first[0] == 0
    assert analyze_stdout(text, flags) == first

"""Metamorphic checks: the order of an input's edge lines, and of the two
ends on each line, changes nothing that analyze prints.

A Graph keeps each vertex's neighbours in the order the edges were
given, so these inputs reach the analyses with their neighbour tuples,
walks and leaf-pairing stacks in other orders.
"""

import contextlib
import io
import os
import random
from unittest import mock

import pytest

from nulldecomp import analyze, format_edge_list, random_tree, unicyclic_corpus
from nulldecomp.cli import main

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(max_examples=120, derandomize=True, deadline=None, database=None)


@st.composite
def graphs_and_reorderings(draw):
    """(graph, rng): a tree, a forest, or a unicyclic graph of type I or
    II on n <= 40 vertices, and a seeded rng to reorder its lines with."""
    kind = draw(st.sampled_from(["tree", "forest", "I", "II"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind in ("tree", "forest"):
        g = random_tree(draw(st.integers(1, 40)), rng)
        if kind == "forest":
            assume(g.m >= 1)
            g = g.without_edges(rng.sample(sorted(g.edges), rng.randint(1, min(4, g.m))))
    else:
        # The corpus aims its first graph at type I and its second at II.
        n = draw(st.integers(3, 40))
        g = unicyclic_corpus(2, n, n, rng.getrandbits(32))[kind == "II"]
        assume(analyze(g).kind == kind)
    return g, random.Random(draw(st.integers(0, 2**32 - 1)))


def reordered(g, rng):
    """g's edge list with its edge lines shuffled and each line's two ends
    swapped with probability 1/2."""
    lines = [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}" for u, v in sorted(g.edges)]
    rng.shuffle(lines)
    return "\n".join([f"n={g.n}", *lines]) + "\n"


def analyze_text(text, *flags):
    """(exit code, stdout, stderr) of nulldecomp analyze on text from stdin."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", *flags])
    return code, out.getvalue(), err.getvalue()


@SETTINGS
@given(graphs_and_reorderings())
def test_analyze_prints_the_same_bytes_in_any_edge_order(case):
    g, rng = case
    want = analyze_text(format_edge_list(g))
    assert want[0] == 0
    assert analyze_text(reordered(g, rng)) == want


@SETTINGS
@given(graphs_and_reorderings())
def test_verify_gives_the_same_verdicts_in_any_edge_order(case):
    g, rng = case
    with mock.patch.dict(os.environ, {"NULLDECOMP_MAX_N": "40"}):
        want = analyze_text(format_edge_list(g), "--verify")
        got = analyze_text(reordered(g, rng), "--verify")
    assert want[0] == 0 and '"verification": {' in want[1]
    assert got == want

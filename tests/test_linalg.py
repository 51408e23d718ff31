"""Exact two-sweep elimination, kernels, and adjacency nullity."""

import functools
import hashlib
import inspect
import random
import sys
from fractions import Fraction

import pytest

from nulldecomp import Graph, linalg, null_basis, random_tree
from nulldecomp.fixtures import load_fixture
from nulldecomp.linalg import _eliminate
from nulldecomp.randgraphs import random_unicyclic
from nulldecomp.sweeps import cycle_graph
from refgraphs import random_simple_graph


def reference_rref(rows):
    """Plain Gauss-Jordan over Fraction, no fraction-free tricks."""
    rows = [[Fraction(x) for x in r] for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv if x else x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                # a zero of the pivot row leaves the entry as it is
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows, r


def reference_pivots(reduced, rank):
    """The column of each nonzero row's leading entry."""
    return [next(j for j, x in enumerate(row) if x) for row in reduced[:rank]]


def sparse(rows):
    """Integer rows as the {column: nonzero entry} dicts _eliminate takes."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def holding_of(work, ncols):
    """The column index _eliminate takes: the rows with an entry in each column."""
    return [{i for i, row in enumerate(work) if j in row} for j in range(ncols)]


def eliminate(work, ncols, on_line=None):
    """_eliminate on work, with on_line(frame) called at each of its lines
    when given: its pivot columns, its rows as dense rows with their
    pivot 1 (then zero rows, as many as work has past the rank) and
    whole.  Checks that a reduced row stores no zero and only free
    columns past its pivot, and that whole rows hold ints only."""
    holding = holding_of(work, ncols)
    if on_line is None:
        reduced, whole = _eliminate(work, holding)
    else:

        def local(frame, event, arg):
            if event == "line":
                on_line(frame)
            return local

        def tracer(frame, event, arg):
            return local if frame.f_code is _eliminate.__code__ else None

        old = sys.gettrace()
        sys.settrace(tracer)
        try:
            reduced, whole = _eliminate(work, holding)
        finally:
            sys.settrace(old)
    assert len(reduced) == ncols
    pivots = [c for c, row in enumerate(reduced) if row is not None]
    rows = []
    for c in pivots:
        row = reduced[c]
        assert all(row.values()) and all(j > c and reduced[j] is None for j in row)
        assert not whole or all(type(x) is int for x in row.values())
        rows.append([1 if j == c else row.get(j, 0) for j in range(ncols)])
    rows += [[0] * ncols for _ in range(len(work) - len(pivots))]
    return pivots, rows, whole


def random_matrix(rng, nrows, ncols):
    return [
        [0 if rng.random() < 0.35 else rng.randint(-6, 6) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def adjacency_rows(g):
    """The 0/1 adjacency matrix of g, as integer rows."""
    return [[int(j in g.neighbors(i)) for j in range(g.n)] for i in range(g.n)]


def dense_vectors(basis):
    """The basis vectors as dense Fraction tuples: x_j is (d x)_j / d."""
    vectors = []
    for dx in basis.scaled:
        vec = [Fraction(0)] * basis.n
        for j, x in dx:
            vec[j] = Fraction(x, basis.d)
        vectors.append(tuple(vec))
    return tuple(vectors)


def apply(g, vec):
    """The exact product A(g) vec."""
    return tuple(
        sum(x for j, x in enumerate(vec) if j in g.neighbors(i)) for i in range(g.n)
    )


@functools.cache
def line_of(fn, text):
    """The line number of the one source line of fn that contains text."""
    lines, first = inspect.getsourcelines(fn)
    (k,) = [k for k, line in enumerate(lines) if text in line]
    return first + k


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def pendant_paths(k):
    """A k-cycle with a two-vertex path hung at each cycle vertex."""
    return Graph(
        3 * k,
        [(i, (i + 1) % k) for i in range(k)]
        + [(i, k + i) for i in range(k)]
        + [(k + i, 2 * k + i) for i in range(k)],
    )


def fraction_route(g):
    """Whether _eliminate takes A(g) out of the integers."""
    work = [dict.fromkeys(g.neighbors(v), 1) for v in range(g.n)]
    return not _eliminate(work, [set(row) for row in work])[1]


def reference_kernel(g, reduced=None):
    """One vector per free column of reference_rref, unit there; reduced
    is that RREF and rank of A(g) when the caller has it already."""
    red, rank = reduced or reference_rref(adjacency_rows(g))
    pivots = reference_pivots(red, rank)
    vectors = []
    for f in range(g.n):
        if f in pivots:
            continue
        vec = [Fraction(0)] * g.n
        vec[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][f]
        vectors.append(tuple(vec))
    return tuple(vectors)


class TestEliminate:
    def test_matches_plain_gauss_jordan_on_random_matrices(self):
        rng = random.Random(17)
        routes = set()
        for _ in range(200):
            nrows = rng.randrange(1, 8)
            ncols = rng.randrange(1, 10)
            rows = random_matrix(rng, nrows, ncols)
            if nrows >= 2 and rng.random() < 0.4:
                # plant a dependent row so rank deficiency shows up often
                k = rng.randrange(1, nrows)
                rows[k] = [x * 3 for x in rows[0]]
            pivots, reduced, whole = eliminate(sparse(rows), ncols)
            want_rows, want_rank = reference_rref(rows)
            assert pivots == reference_pivots(want_rows, want_rank)
            assert reduced == want_rows
            routes.add(whole)
        assert routes == {True, False}

    def test_matches_plain_gauss_jordan_on_adjacency_matrices(self):
        # The RREF is unique, so whichever holder each step takes as its
        # pivot row, the sweeps must give the reference's RREF and kernel
        # exactly.  A pivot of -1 negates its row and one of 2 (cycles
        # not of length 0 mod 4) or more (K_n) turns it into Fractions;
        # both run here, and most graphs stay in integers.
        negation = line_of(_eliminate, "wp[j] = -wp[j]")
        division = line_of(_eliminate, "whole = False")
        negated = divided = 0
        rng = random.Random(19)
        cases = [random_tree(rng.randrange(1, 31), rng) for _ in range(40)]
        cases += [random_unicyclic(rng.randrange(3, 31), rng) for _ in range(40)]
        cases += [
            random_simple_graph(rng.randrange(1, 31), rng.choice([0.05, 0.1, 0.3, 0.6]), rng)
            for _ in range(40)
        ]
        cases += [cycle_graph(n) for n in range(3, 25)]
        cases += [Graph(n, [(u, v) for v in range(n) for u in range(v)]) for n in range(2, 9)]
        for g in cases:
            rows = adjacency_rows(g)
            hit = set()
            pivots, reduced, whole = eliminate(
                sparse(rows), g.n, lambda frame: hit.add(frame.f_lineno)
            )
            negated += negation in hit
            divided += division in hit
            assert whole == (division not in hit)
            want_rows, want_rank = reference_rref(rows)
            assert pivots == reference_pivots(want_rows, want_rank)
            assert reduced == want_rows
            assert dense_vectors(null_basis(g)) == reference_kernel(g, (want_rows, want_rank))
        assert negated > 0 and 0 < divided < len(cases) // 2

    def test_a_forward_step_writes_only_the_rows_holding_its_column(self):
        # A forward step takes a shortest row among those not yet pivot
        # rows that hold its column, and writes only to those rows, and
        # in each only at the pivot row's columns.  Rows log their writes;
        # a tracer closes each step at its last line, and the test keeps
        # its own copy of which columns each row held when the step began.
        writes = []

        class Logged(dict):
            def __setitem__(self, j, x):
                writes.append((self, j))
                super().__setitem__(j, x)

            def __delitem__(self, j):
                writes.append((self, j))
                super().__delitem__(j)

            def pop(self, j):
                writes.append((self, j))
                return super().pop(j)

        step_end = line_of(_eliminate, "holders.clear()")
        steps = 0
        other_rows = 0
        rng = random.Random(23)
        cases = [random_tree(rng.randrange(2, 31), rng) for _ in range(30)]
        cases += [random_unicyclic(rng.randrange(3, 31), rng) for _ in range(30)]
        cases += [cycle_graph(n) for n in (6, 10, 11)]
        for g in cases:
            rows = adjacency_rows(g)
            work = [Logged(row) for row in sparse(rows)]
            label = {id(row): i for i, row in enumerate(work)}
            held = [set(row) for row in work]
            done = set()
            writes.clear()  # the last graph's backward sweep

            def on_line(frame):
                nonlocal steps, other_rows, held
                if frame.f_lineno != step_end:
                    return
                c, p = frame.f_locals["c"], frame.f_locals["p"]
                holders = {i for i in range(g.n) if c in held[i] and i not in done}
                assert p in holders
                assert len(held[p]) == min(len(held[i]) for i in holders)
                written = {}
                for row, j in writes:
                    written.setdefault(label[id(row)], set()).add(j)
                assert set(written) <= holders
                assert all(cols <= held[p] for cols in written.values())
                steps += 1
                other_rows += bool(set(written) - {p})
                writes.clear()
                done.add(p)
                held = [set(row) for row in work]

            pivots, reduced, _ = eliminate(work, g.n, on_line)
            want_rows, want_rank = reference_rref(rows)
            assert pivots == reference_pivots(want_rows, want_rank)
            assert reduced == want_rows
        # the contract held on each step, and most steps cleared some other row
        assert steps > 800 and 2 * other_rows > steps

    def test_a_corrupted_fraction_fails_the_kernel_check(self, monkeypatch):
        # A row whose k-th Fraction write is 1/2 further from 0 stands
        # for a slip on the Fraction route.  A x = 0 must then catch every
        # wrong vector: null_basis raises or returns the clean basis,
        # unless the slip lifts the rank and a kernel vector goes missing,
        # which no check of the returned vectors can see.
        class Drifting(dict):
            def __init__(self, entries, k):
                super().__init__(entries)
                self.left = k

            def __setitem__(self, j, x):
                if type(x) is Fraction:
                    self.left -= 1
                    if self.left == 0:
                        x += Fraction(1 if x > 0 else -1, 2)
                super().__setitem__(j, x)

        rng = random.Random(37)
        cases = [Graph(n, [(u, v) for v in range(n) for u in range(v)]) for n in range(3, 9)]
        cases += [cycle_graph(n) for n in (6, 10, 14)]
        while len(cases) < 60:
            g = random_simple_graph(rng.randrange(4, 16), rng.choice([0.2, 0.3, 0.5]), rng)
            if fraction_route(g):
                cases.append(g)
        raised = lost = 0
        for g in cases:
            clean = null_basis(g)
            for i in range(g.n):
                for k in range(1, 8):

                    def drifting(work, holding, i=i, k=k):
                        work[i] = Drifting(work[i], k)
                        return _eliminate(work, holding)

                    monkeypatch.setattr(linalg, "_eliminate", drifting)
                    try:
                        basis = null_basis(g)
                    except ArithmeticError as exc:
                        assert "A x = 0" in str(exc)
                        raised += 1
                    else:
                        assert basis == clean or basis.nullity < clean.nullity
                        lost += basis != clean
                    monkeypatch.undo()
        assert raised > 30 and lost < raised

    def test_sweeps_write_linearly_on_paths_cycles_and_pendant_paths(self):
        # A first-holder pivot leaves an entry of every processed row in
        # the front column, so its writes grow as n^2 on these graphs.
        # The shortest holder keeps them within a few per vertex.
        writes = 0

        class Counted(dict):
            def __setitem__(self, j, x):
                nonlocal writes
                writes += 1
                super().__setitem__(j, x)

        for g in (path_graph(3000), cycle_graph(3000), cycle_graph(3002), pendant_paths(1000)):
            writes = 0
            work = [Counted(dict.fromkeys(g.neighbors(v), 1)) for v in range(g.n)]
            _eliminate(work, [set(row) for row in work])
            assert writes < 3 * g.n, g

    def test_zero_and_identity(self):
        z = sparse([[0, 0], [0, 0]])
        assert eliminate(z, 2) == ([], [[0, 0], [0, 0]], True)
        i3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert eliminate(sparse(i3), 3) == ([0, 1, 2], i3, True)

    def test_empty_matrix(self):
        assert _eliminate([], []) == ([], True)


class TestKernel:
    def test_kernel_vectors_satisfy_ax_zero(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_simple_graph(rng.randrange(1, 9), rng.random(), rng)
            _, rank = reference_rref(adjacency_rows(g))
            vectors = dense_vectors(null_basis(g))
            assert len(vectors) == g.n - rank
            assert vectors == reference_kernel(g)
            for vec in vectors:
                assert all(x == 0 for x in apply(g, vec))

    def test_corrupted_elimination_fails_the_kernel_check(self, monkeypatch):
        # Each vector is checked only on the rows next to its support.  A
        # wrong reduced-row entry at a free column, whether changed,
        # dropped or added, must still be caught there.
        rng = random.Random(31)
        cases = [random_tree(rng.randrange(3, 16), rng) for _ in range(10)]
        cases += [random_unicyclic(rng.randrange(4, 16), rng) for _ in range(10)]
        cases.append(load_fixture("fig1_T1"))
        tried = 0
        for g in cases:
            work = [dict.fromkeys(g.neighbors(v), 1) for v in range(g.n)]
            reduced, _ = _eliminate(work, [set(row) for row in work])
            pivots = [c for c, row in enumerate(reduced) if row is not None]
            free = [f for f, row in enumerate(reduced) if row is None]
            for pc in pivots:
                for f in free:
                    for corrupt in ("add", "drop"):
                        if corrupt == "drop" and f not in reduced[pc]:
                            continue

                        def corrupted(rows, holding, pc=pc, f=f, corrupt=corrupt):
                            out = _eliminate(rows, holding)
                            row = out[0][pc]
                            if corrupt == "drop":
                                del row[f]
                            else:
                                row[f] = row.get(f, 0) + 1
                            return out

                        monkeypatch.setattr(linalg, "_eliminate", corrupted)
                        with pytest.raises(ArithmeticError, match="A x = 0"):
                            null_basis(g)
                        monkeypatch.undo()
                        tried += 1
        assert tried > 100

    def test_kernel_check_reads_a_hub_once(self):
        # The check scatters each nonzero of x into its neighbours' sums,
        # so a row is read only for the support's own vertices.  The centre
        # of a star is in no support: its neighbour set is read once, to
        # build its row, however many vectors the kernel has.
        reads = []

        class Counted(frozenset):
            def __iter__(self):
                reads.append(self)
                return super().__iter__()

        for n in (3, 10, 200):
            g = Graph(n, [(0, i) for i in range(1, n)])
            g._adj = tuple(Counted(nbrs) for nbrs in g._adj)
            hub = g._adj[0]
            reads.clear()
            basis = null_basis(g)
            assert basis.nullity == n - 2 and basis.support == frozenset(range(1, n))
            assert sum(1 for nbrs in reads if nbrs is hub) == 1

    def test_basis_holds_integers_on_the_nonzeros(self):
        # null_basis keeps d x in integers, one pair per nonzero of x, and
        # a basis is hashable and equal to the same graph's.
        rng = random.Random(43)
        cases = [random_tree(rng.randrange(1, 20), rng) for _ in range(20)]
        cases += [cycle_graph(n) for n in (4, 6, 8)]
        for g in cases:
            basis = null_basis(g)
            assert basis == null_basis(g) and hash(basis) == hash(null_basis(g))
            assert dense_vectors(basis) == reference_kernel(g)
            assert type(basis.d) is int
            assert all(type(x) is int and x for dx in basis.scaled for _, x in dx)

    def test_basis_integers_are_pinned(self):
        # Pins the basis itself, as dense Fraction vectors, with n and the
        # support, over 320 seeded trees, forests, unicyclic graphs, cycles
        # and complete graphs; d and the stored integers may scale it, but
        # they are ints.
        rng = random.Random(41)
        cases = [random_tree(rng.randrange(1, 41), rng) for _ in range(100)]
        for _ in range(80):
            t = random_tree(rng.randrange(2, 41), rng)
            cases.append(t.without_edges(rng.sample(sorted(t.edges), len(t.edges) // 4)))
        cases += [random_unicyclic(rng.randrange(3, 41), rng) for _ in range(100)]
        cases += [cycle_graph(n) for n in range(3, 31)]
        cases += [Graph(n, [(u, v) for v in range(n) for u in range(v)]) for n in range(1, 13)]
        digest = hashlib.sha256()
        for g in cases:
            b = null_basis(g)
            assert type(b.d) is int
            assert all(type(x) is int and x for dx in b.scaled for _, x in dx)
            digest.update(repr((b.n, dense_vectors(b), sorted(b.support))).encode())
        assert digest.hexdigest() == (
            "0b67f2f28cd3ae67b59e4bca1215036783b4d1288726d4168e25462652f414d9"
        )

    def test_equals_the_reference_on_paths_cycles_pendant_paths_and_dense_graphs(self):
        # The long paths and cycles are where the pivot rule matters, and
        # the G(n, p) draws are kept only when some d != 1, so the
        # Fraction route's lcm scaling is checked as well.
        cases = [path_graph(n) for n in range(1, 41)]
        cases += [cycle_graph(n) for n in range(3, 41)]
        cases += [pendant_paths(k) for k in range(3, 14)]
        rng = random.Random(47)
        scaled = 0
        while scaled < 15:
            g = random_simple_graph(rng.randrange(4, 21), rng.choice([0.2, 0.4, 0.6]), rng)
            if null_basis(g).d != 1:
                cases.append(g)
                scaled += 1
        for g in cases:
            assert dense_vectors(null_basis(g)) == reference_kernel(g)

    def test_canonical_unit_pattern(self):
        # Star with center 0: A x = 0 reads x1 + x2 + x3 = 0 and x0 = 0,
        # so the free columns are 2 and 3.
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert dense_vectors(null_basis(g)) == (
            (Fraction(0), Fraction(-1), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(-1), Fraction(0), Fraction(1)),
        )


class TestAdjacency:
    @pytest.mark.parametrize(
        "g,eta",
        [
            (Graph(1), 1),
            (Graph(2, [(0, 1)]), 0),
            (Graph(3, [(0, 1), (1, 2)]), 1),
            (Graph(4, [(0, 1), (1, 2), (2, 3)]), 0),
            (Graph(4, [(0, 1), (0, 2), (0, 3)]), 2),
            (Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]), 0),
        ],
    )
    def test_small_nullities(self, g, eta):
        assert null_basis(g).nullity == eta

    def test_example_tree_kernel_is_the_known_plane(self):
        g = load_fixture("fig1_T1")
        assert null_basis(g).nullity == 2
        u1 = tuple(Fraction(x) for x in (0, 1, 0, -1, 0, 0))
        u2 = tuple(Fraction(x) for x in (0, 0, 1, -1, 0, 0))
        assert all(x == 0 for x in apply(g, u1))
        assert all(x == 0 for x in apply(g, u2))
        # two independent kernel vectors in a two-dimensional kernel span it
        assert null_basis(g).support == {1, 2, 3}

    def test_second_example_tree_is_nonsingular(self):
        assert null_basis(load_fixture("fig1_T2")).nullity == 0

    @pytest.mark.parametrize("n", range(3, 25))
    def test_cycle_nullity_law(self, n):
        assert null_basis(cycle_graph(n)).nullity == (2 if n % 4 == 0 else 0)

    def test_null_basis_verified_and_sized(self):
        rng = random.Random(9)
        for _ in range(30):
            t = random_tree(rng.randrange(1, 14), rng)
            basis = null_basis(t)
            assert basis.nullity == t.n - reference_rref(adjacency_rows(t))[1]
            assert basis.n == t.n and all(0 <= j < t.n for dx in basis.scaled for j, _ in dx)

    def test_support_is_basis_independent(self):
        rng = random.Random(29)
        for _ in range(30):
            t = random_tree(rng.randrange(2, 14), rng)
            basis = dense_vectors(null_basis(t))
            if len(basis) < 2:
                continue
            # unit-triangular remix of the basis spans the same kernel
            mixed = [basis[0]]
            for i in range(1, len(basis)):
                mixed.append(
                    tuple(a + 2 * b for a, b in zip(basis[i], basis[i - 1]))
                )
            from_mixed = {
                i for vec in mixed for i, x in enumerate(vec) if x != 0
            }
            assert from_mixed == null_basis(t).support

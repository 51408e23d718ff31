"""Exact fraction-free elimination, kernels, and adjacency nullity."""

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


def reference_det(rows):
    """The determinant of a square matrix, by plain elimination over Fraction."""
    rows = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        p = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def sparse(rows):
    """Integer rows as the {column: nonzero entry} dicts _eliminate takes."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def dense(work, ncols):
    """The rows of sparse() back as lists, checking that no zero is stored."""
    assert all(x for row in work for x in row.values())
    return [[row.get(j, 0) for j in range(ncols)] for row in work]


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


def traced_eliminate(work, ncols):
    """_eliminate(work, ncols) under one trace: its (pivots, d), the
    source lines it runs, and (|previous pivot|, whether the pivot equals
    it) for each step it takes."""
    code = _eliminate.__code__
    step_end = line_of(_eliminate, "pivots.append(c)")
    hit, kinds = set(), set()

    def local(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno)
            if frame.f_lineno == step_end:
                f = frame.f_locals
                kinds.add((abs(f["prev"]), f["same"]))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = _eliminate(work, ncols)
    finally:
        sys.settrace(old)
    return result, hit, kinds


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
        for _ in range(200):
            nrows = rng.randrange(1, 8)
            ncols = rng.randrange(1, 10)
            rows = random_matrix(rng, nrows, ncols)
            if nrows >= 2 and rng.random() < 0.4:
                # plant a dependent row so rank deficiency shows up often
                k = rng.randrange(1, nrows)
                rows[k] = [x * 3 for x in rows[0]]
            work = sparse(rows)
            pivots, d = _eliminate(work, ncols)
            reduced = dense(work, ncols)
            want_rows, want_rank = reference_rref(rows)
            assert pivots == reference_pivots(want_rows, want_rank)
            assert [[Fraction(x, d) for x in row] for row in reduced] == want_rows
            if nrows == ncols == want_rank:
                # d is the last Bareiss pivot: the determinant, up to the
                # sign of the row swaps.
                assert abs(d) == abs(reference_det(rows))
            for i, pc in enumerate(pivots):
                assert reduced[i][pc] == d
                assert all(x == 0 for x in reduced[i][:pc])

    def test_matches_plain_gauss_jordan_on_adjacency_matrices(self):
        # On these matrices a pivot is mostly the previous one up to sign.
        # A pivot row is negated to make the two equal, which leaves the
        # RREF as it is; the rows with a zero in the pivot column are then
        # not touched.  Both must still give the reference's RREF and
        # kernel exactly, since the RREF is unique.  A step after a pivot
        # of +-1 divides by nothing, any other with its remainder checked;
        # cycles of length 2 mod 4 reach |d| = 4 (their determinant is
        # -4) and K_n reaches n - 1, so both kinds of step run, with the
        # pivot equal to the previous one and not.
        negation = line_of(_eliminate, "wr[j] = -wr[j]")
        negated = 0
        kinds = set()
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
            work = sparse(rows)
            (pivots, d), hit, steps = traced_eliminate(work, g.n)
            if negation in hit:
                negated += 1
            kinds |= steps
            want_rows, want_rank = reference_rref(rows)
            assert pivots == reference_pivots(want_rows, want_rank)
            assert [[Fraction(x, d) for x in row] for row in dense(work, g.n)] == want_rows
            if want_rank == g.n:
                assert abs(d) == abs(reference_det(rows))
            assert dense_vectors(null_basis(g)) == reference_kernel(g, (want_rows, want_rank))
        assert negated > 0
        assert {(1, True), (1, False), (2, True), (2, False), (4, False)} <= kinds

    def test_equal_pivot_steps_rewrite_only_the_pivot_rows_columns(self):
        # When a step's pivot equals the previous one, an entry x facing a
        # zero of the pivot row updates to x * piv / prev = x, so the step
        # must write no entry outside the pivot row's columns.  Rows log
        # their writes; a tracer closes each step at its last line, where
        # piv, prev and the pivot row wr are still the step's own.
        writes = []

        class Logged(dict):
            def __setitem__(self, j, x):
                writes.append((self, j))
                super().__setitem__(j, x)

            def __delitem__(self, j):
                writes.append((self, j))
                super().__delitem__(j)

        step_end = line_of(_eliminate, "pivots.append(c)")
        steps = []

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno == step_end:
                f = frame.f_locals
                wr = f["wr"]
                rewritten = {j for row, j in writes if row is not wr}
                steps.append((f["piv"] == f["prev"], set(wr), rewritten))
                writes.clear()
            return local

        def tracer(frame, event, arg):
            return local if frame.f_code is _eliminate.__code__ else None

        rng = random.Random(23)
        cases = [random_tree(rng.randrange(2, 31), rng) for _ in range(30)]
        cases += [random_unicyclic(rng.randrange(3, 31), rng) for _ in range(30)]
        for g in cases:
            rows = adjacency_rows(g)
            work = [Logged(row) for row in sparse(rows)]
            old = sys.gettrace()
            sys.settrace(tracer)
            try:
                pivots, d = _eliminate(work, g.n)
            finally:
                sys.settrace(old)
            want_rows, want_rank = reference_rref(rows)
            assert pivots == reference_pivots(want_rows, want_rank)
            assert [[Fraction(x, d) for x in row] for row in dense(work, g.n)] == want_rows
        equal = [(cols, rewritten) for same, cols, rewritten in steps if same]
        assert all(rewritten <= cols for cols, rewritten in equal)
        # most steps are such steps, and many rewrite some other row
        assert 2 * len(equal) > len(steps)
        assert sum(1 for _, rewritten in equal if rewritten) > 100

    def test_a_corrupted_entry_fails_a_non_unit_division(self):
        # A row whose k-th write is off by one stands for an arithmetic
        # slip.  Some later division by a pivot other than +-1 must then
        # leave a remainder and raise, both in steps whose pivot equals
        # the previous one and in steps where it does not.
        class Drifting(dict):
            def __init__(self, entries, k):
                super().__init__(entries)
                self.left = k

            def __setitem__(self, j, x):
                self.left -= 1
                if self.left == 0:
                    x += 1 if x > 0 else -1
                super().__setitem__(j, x)

        raised_in = []

        def local(frame, event, arg):
            if event == "exception":
                f = frame.f_locals
                raised_in.append((abs(f["prev"]), f["same"]))
            return local

        def tracer(frame, event, arg):
            return local if frame.f_code is _eliminate.__code__ else None

        rng = random.Random(37)
        cases = [
            adjacency_rows(Graph(n, [(u, v) for v in range(n) for u in range(v)]))
            for n in range(3, 8)
        ]
        cases += [adjacency_rows(cycle_graph(n)) for n in (6, 10, 14)]
        cases += [random_matrix(rng, rng.randrange(2, 6), rng.randrange(2, 7)) for _ in range(40)]
        for rows in cases:
            for i in range(len(rows)):
                for k in range(1, 8):
                    work = sparse(rows)
                    work[i] = Drifting(work[i], k)
                    old = sys.gettrace()
                    sys.settrace(tracer)
                    try:
                        _eliminate(work, len(rows[0]))
                    except ArithmeticError as exc:
                        assert "lost exactness" in str(exc)
                    finally:
                        sys.settrace(old)
        assert all(prev > 1 for prev, _ in raised_in)
        assert sum(1 for _, same in raised_in if same) > 0
        assert sum(1 for _, same in raised_in if not same) > 100

    def test_zero_and_identity(self):
        z = sparse([[0, 0], [0, 0]])
        assert _eliminate(z, 2) == ([], 1) and dense(z, 2) == [[0, 0], [0, 0]]
        i3 = sparse([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert _eliminate(i3, 3) == ([0, 1, 2], 1)
        assert dense(i3, 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_empty_matrix(self):
        assert _eliminate([], 0) == ([], 1)


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
            pivots, _ = _eliminate(work, g.n)
            free = [f for f in range(g.n) if f not in pivots]
            for i in range(len(pivots)):
                for f in free:
                    for corrupt in ("add", "drop"):
                        if corrupt == "drop" and f not in work[i]:
                            continue

                        def corrupted(rows, cols, i=i, f=f, corrupt=corrupt):
                            out = _eliminate(rows, cols)
                            if corrupt == "drop":
                                del rows[i][f]
                            else:
                                rows[i][f] = rows[i].get(f, 0) + 1
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
        # The dense vectors leave d and the scale of each stored integer
        # free; this pins them as well: n, d, every vector's (column,
        # integer) pairs in their order, and the support, over 320 seeded
        # trees, forests, unicyclic graphs, cycles and complete graphs.
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
            digest.update(repr((b.n, b.d, b.scaled, sorted(b.support))).encode())
        assert digest.hexdigest() == (
            "3f5259ff3f1f1ec6dd1c4a2a5871719c4ad274f639ef8ac67313068c8596a491"
        )

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

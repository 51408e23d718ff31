"""Exact rational elimination, kernels, and adjacency nullity."""

import random
from fractions import Fraction

import pytest

from nulldecomp import Graph, null_basis, random_tree
from nulldecomp.fixtures import load_fixture
from nulldecomp.linalg import RationalMatrix, adjacency_matrix, rref
from nulldecomp.randgraphs import random_simple_graph
from nulldecomp.sweeps import cycle_graph


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
        rows[r] = [x / inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows, r


def random_matrix(rng, nrows, ncols, rational=True):
    def entry():
        if rng.random() < 0.35:
            return Fraction(0)
        if rational:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return Fraction(rng.randint(-6, 6))

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def matrix(rows):
    ncols = len(rows[0]) if rows else 0
    return RationalMatrix(len(rows), ncols, [x for r in rows for x in r])


def apply(m, vec):
    """The exact product m vec."""
    return tuple(sum(a * x for a, x in zip(m.row(i), vec)) for i in range(m.rows))


class TestRationalMatrix:
    def test_entry_count_checked(self):
        with pytest.raises(ValueError):
            RationalMatrix(2, 2, [1, 2, 3])


class TestRref:
    def test_matches_plain_gauss_jordan_on_random_matrices(self):
        rng = random.Random(17)
        for _ in range(60):
            nrows = rng.randrange(1, 8)
            ncols = rng.randrange(1, 10)
            rows = random_matrix(rng, nrows, ncols, rational=rng.random() < 0.5)
            if nrows >= 2 and rng.random() < 0.4:
                # plant a dependent row so rank deficiency shows up often
                k = rng.randrange(1, nrows)
                rows[k] = [x * 3 for x in rows[0]]
            got, pivots = rref(matrix(rows))
            want_rows, want_rank = reference_rref(rows)
            assert len(pivots) == want_rank
            assert got.entries == matrix(want_rows).entries
            for i, pc in enumerate(pivots):
                assert got.row(i)[pc] == 1
                assert all(x == 0 for x in got.row(i)[:pc])

    def test_zero_and_identity(self):
        z = matrix([[0, 0], [0, 0]])
        red, pivots = rref(z)
        assert pivots == [] and red.entries == z.entries
        i3 = matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        red, pivots = rref(i3)
        assert pivots == [0, 1, 2] and red.entries == i3.entries

    def test_empty_matrix(self):
        red, pivots = rref(RationalMatrix(0, 0, []))
        assert pivots == [] and red.rows == 0


class TestKernel:
    def test_kernel_vectors_satisfy_ax_zero(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_simple_graph(rng.randrange(1, 9), rng.random(), rng)
            a = adjacency_matrix(g)
            _, pivots = rref(a)
            vectors = null_basis(g).vectors
            assert len(vectors) == g.n - len(pivots)
            for vec in vectors:
                assert all(x == 0 for x in apply(a, vec))

    def test_canonical_unit_pattern(self):
        # Star with center 0: A x = 0 reads x1 + x2 + x3 = 0 and x0 = 0,
        # so the free columns are 2 and 3.
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert null_basis(g).vectors == (
            (Fraction(0), Fraction(-1), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(-1), Fraction(0), Fraction(1)),
        )


class TestAdjacency:
    def test_matrix_is_symmetric_zero_diagonal(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        a = adjacency_matrix(g)
        for i in range(4):
            assert a.row(i)[i] == 0
            for j in range(4):
                assert a.row(i)[j] == a.row(j)[i]

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
        a = adjacency_matrix(g)
        u1 = tuple(Fraction(x) for x in (0, 1, 0, -1, 0, 0))
        u2 = tuple(Fraction(x) for x in (0, 0, 1, -1, 0, 0))
        assert all(x == 0 for x in apply(a, u1))
        assert all(x == 0 for x in apply(a, u2))
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
            assert basis.nullity == t.n - len(rref(adjacency_matrix(t))[1])
            assert all(len(vec) == t.n for vec in basis.vectors)

    def test_support_is_basis_independent(self):
        rng = random.Random(29)
        for _ in range(30):
            t = random_tree(rng.randrange(2, 14), rng)
            basis = null_basis(t).vectors
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

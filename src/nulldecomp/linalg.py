"""Exact adjacency kernels, the independent check on the matching DP.

Everything runs over Q with arbitrary-precision integers underneath
(fractions.Fraction); no floating point appears anywhere.  Support
membership is a zero-versus-nonzero question, so any epsilon would be
unsound.  The formula path never comes here: the sweeps, `analyze
--verify` and the fixtures compare its Supp and nullity with the kernel
of the adjacency matrix.  null_basis is the one route to that kernel:
callers read its .nullity and .support, and it checks A x = 0 for every
vector before returning.

rref does fraction-free (Bareiss) forward elimination on integer-scaled
rows, which keeps intermediate entries to exact minors of the input, then
normalizes to reduced row-echelon form with rational back-substitution,
and returns the pivot columns it found.  Pivoting is first-nonzero in
column order, never by magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RationalMatrix:
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(
            x if isinstance(x, Fraction) else Fraction(x) for x in entries
        )
        if len(entries) != rows * cols:
            raise ValueError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]


@dataclass(frozen=True)
class NullBasis:
    """Canonical kernel basis: one vector per free column, unit there."""

    vectors: tuple

    @property
    def nullity(self):
        return len(self.vectors)

    @property
    def support(self):
        """Coordinates that are nonzero in some basis vector."""
        out = set()
        for vec in self.vectors:
            for i, x in enumerate(vec):
                if x:
                    out.add(i)
        return frozenset(out)


def adjacency_matrix(g):
    """0/1 adjacency matrix of a graph, as Fractions."""
    n = g.n
    ent = [_ZERO] * (n * n)
    for u, v in g.edges:
        ent[u * n + v] = _ONE
        ent[v * n + u] = _ONE
    return RationalMatrix(n, n, ent)


def rref(m):
    """Reduced row-echelon form over Q, exactly.

    Returns (matrix, pivot columns); row i of the result has its leading
    1 in the i-th pivot column, and the rank is the number of pivots.
    """
    rows, cols = m.rows, m.cols
    work = []
    for i in range(rows):
        r = m.row(i)
        scale = 1
        for x in r:
            d = x.denominator
            if d != 1:
                scale = scale * d // gcd(scale, d)
        work.append([x.numerator * (scale // x.denominator) for x in r])

    pivots = []
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        p = None
        for i in range(r, rows):
            if work[i][c] != 0:
                p = i
                break
        if p is None:
            continue
        if p != r:
            work[r], work[p] = work[p], work[r]
        piv = work[r][c]
        wr = work[r]
        # One Bareiss step: every lower row is updated, including rows with
        # a zero in the pivot column, or the exact divisions below break.
        for i in range(r + 1, rows):
            wi = work[i]
            f = wi[c]
            for j in range(c, cols):
                q, rem = divmod(wi[j] * piv - f * wr[j], prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                wi[j] = q
        pivots.append(c)
        prev = piv
        r += 1

    red = [[Fraction(x) for x in row] for row in work]
    for pr in reversed(range(len(pivots))):
        pc = pivots[pr]
        piv = red[pr][pc]
        if piv != 1:
            red[pr] = [x / piv for x in red[pr]]
        prow = red[pr]
        for i in range(pr):
            f = red[i][pc]
            if f:
                red[i] = [a - f * b for a, b in zip(red[i], prow)]
    flat = [x for row in red for x in row]
    return RationalMatrix(rows, cols, flat), pivots


def null_basis(g):
    """Canonical kernel basis of A(g), verified exactly before returning.

    One vector per free column f, with coordinate 1 at f, the negated
    reduced-row entries at the pivot columns, and 0 elsewhere; vectors
    ordered by free column.  Each vector is checked to satisfy A x = 0
    coordinate by coordinate; a failure would be an internal bug and
    raises ArithmeticError.
    """
    n = g.n
    reduced, pivots = rref(adjacency_matrix(g))
    pivset = set(pivots)
    vectors = []
    for f in range(n):
        if f in pivset:
            continue
        vec = [_ZERO] * n
        vec[f] = _ONE
        for i, pc in enumerate(pivots):
            x = reduced.entries[i * n + f]
            if x:
                vec[pc] = -x
        vectors.append(tuple(vec))
    for vec in vectors:
        for i in range(n):
            s = _ZERO
            for w in g.neighbors(i):
                s += vec[w]
            if s != 0:
                raise ArithmeticError("kernel vector fails A x = 0")
    return NullBasis(tuple(vectors))

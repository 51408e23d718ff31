"""Exact adjacency kernels, the independent check on the matching DP.

A(g) is a 0/1 matrix, so its kernel is computed on integer rows from
start to finish; no floating point appears anywhere, since support
membership is a zero-versus-nonzero question.  The formula path never
comes here: the sweeps, `analyze --verify` and the fixtures compare its
Supp and nullity with the kernel.  null_basis is the one route to it:
callers read .nullity and .support, and it checks A x = 0 for every
vector before returning.

Elimination is one fraction-free Gauss-Jordan pass: Bareiss's update is
applied to the rows above the pivot as well as below.  Every entry stays
a minor of A, so each division is exact, and at the end every pivot
equals the last one, d; row i divided by d is row i of the reduced
row-echelon form.  Pivoting is first-nonzero in column order.

Rows are dicts of their nonzero entries.  Bareiss's update maps an
entry that is 0 in both rows to 0, so a step touches only the columns
where the row or the pivot row is nonzero, and an entry that becomes 0
is dropped; the integers are those of the dense pass.  A row whose
entry in the pivot column is 0 is left alone when the new pivot equals
the previous one: its update (x * piv - 0 * y) / prev is then x itself,
exactly.  Every entry that is updated is still divided with its
remainder checked.  The adjacency rows of trees and unicyclic graphs
start with a few entries each and stay sparse enough that n = 1000
takes under half a second (2-core Xeon, Python 3.11), where the dense
pass took 13-15 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_ZERO = Fraction(0)


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


def _eliminate(work, cols):
    """Fraction-free Gauss-Jordan on sparse integer rows, in place: (pivots, d).

    work is a list of {column: nonzero entry} dicts over columns
    0..cols-1.  Row i below the rank ends with d in the i-th pivot column
    and nothing in the others, so work[i] / d is row i of the RREF; later
    rows end empty.
    """
    rows = len(work)
    pivots = []
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        p = next((i for i in range(r, rows) if c in work[i]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        wr = work[r]
        piv = wr[c]
        # Update every other row, even with a zero in column c, or later
        # divisions break.  The exception is a zero under piv = prev:
        # x * piv / prev = x.  A column empty in both rows stays empty.
        for i in range(rows):
            if i == r:
                continue
            wi = work[i]
            f = wi.get(c, 0)
            if not f and piv == prev:
                continue
            for j in wi.keys() | wr.keys() if f else list(wi):
                q, rem = divmod(wi.get(j, 0) * piv - f * wr.get(j, 0), prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                if q:
                    wi[j] = q
                else:
                    del wi[j]
        pivots.append(c)
        prev = piv
        r += 1
    return pivots, prev


def null_basis(g):
    """Canonical kernel basis of A(g), verified exactly before returning.

    One vector per free column f, with coordinate 1 at f, the negated
    reduced-row entries at the pivot columns, and 0 elsewhere; vectors
    ordered by free column.  Each is first formed as d x in integers and
    checked against A x = 0, where a failure raises ArithmeticError.
    """
    n = g.n
    work = [dict.fromkeys(g.neighbors(v), 1) for v in range(n)]
    pivots, d = _eliminate(work, n)
    pivset = set(pivots)
    vectors = []
    for f in range(n):
        if f in pivset:
            continue
        dx = [0] * n
        dx[f] = d
        for i, pc in enumerate(pivots):
            dx[pc] = -work[i].get(f, 0)
        for v in range(n):
            if sum(dx[w] for w in g.neighbors(v)):
                raise ArithmeticError("kernel vector fails A x = 0")
        vec = [_ZERO] * n
        for j, x in enumerate(dx):
            if x:
                vec[j] = Fraction(x, d)
        vectors.append(tuple(vec))
    return NullBasis(tuple(vectors))

"""Exact adjacency kernels, the independent check on the matching DP.

A(g) is a 0/1 matrix, so its kernel is computed in exact arithmetic; no
floating point appears anywhere, since support membership is a
zero-versus-nonzero question.  The formula path never comes here: the
sweeps, `analyze --verify` and the fixtures compare its Supp and
nullity with the kernel.  null_basis is the one route to it: callers
read .nullity and .support, and it checks A x = 0 for every vector
before returning.  That check shows each vector is in the kernel, not
that the basis is complete; the callers' nullity comparison with the
matching DP or the cycle law is what sees a short basis.

Elimination is Gauss-Jordan in two sweeps over sparse rows.  The
forward sweep goes through the columns in order.  For each, among the
rows not yet pivot rows that hold the column, it takes one with the
fewest entries as the pivot row, and clears the column in the other
such rows only.  That is Markowitz's rule ("The elimination form of the
inverse and its application to linear programming", Management
Science, 1957) read on rows alone: it knows row lengths, no tree and no
matching, so the oracle stays independent of the formula path.  The
backward sweep takes the pivot rows in reverse order and clears from
each the later pivot columns it holds, with those columns' rows, which
are reduced by then.  A row not yet a pivot row holds no column before
the current one, so the pivot columns are those of the reduced
row-echelon form, and the result is that form (unique, so the same
whichever holder is taken), and so is the canonical basis read off it.
On a long path or cycle the shortest holder keeps fill out; the first
holder in row order would leave an entry of every processed row in the
front column, O(L^2) work.

Each pivot row is scaled to a pivot of 1 before it clears its column,
and the 1 is then dropped, so a reduced row holds free columns only.
A pivot of 1 or -1 keeps the rows in integers, as on every tree tried
and on most unicyclic graphs.  Any other pivot (cycles not of length
0 mod 4 reach 2) turns its row into Fractions, which spread only to the
rows it clears.  Rows are dicts of their nonzero entries, and a step
touches only the columns of its pivot row in the rows holding its
column; an entry that becomes 0 is dropped, and a row joins a column's
index only when its entry there is new.

A kernel vector x is kept as the integers d x on its nonzeros, d the
lcm of the denominators in the reduced rows (1 when they stay in
integers), and no dense vector is ever built, so a basis takes memory
in proportion to its nonzeros, not to nullity * n.  The A x = 0 check
scatters: each nonzero x_w is added to (A x)_v for every neighbour v of
w, and every sum must be 0.  That is the full product, since a row that
meets no nonzero sums zeros, and it costs the degrees of the support,
so a hub in no support is never read.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm


class NullBasis(namedtuple("NullBasis", "n d scaled support")):
    """Canonical kernel basis: one vector per free column, unit there;
    support holds the coordinates nonzero in some basis vector.

    scaled holds each vector x as d x on its nonzeros, a tuple of
    (column, integer) pairs: x_j is the pair's integer divided by d.
    """

    __slots__ = ()

    @property
    def nullity(self):
        return len(self.scaled)


def _eliminate(work, holding):
    """Gauss-Jordan in two sweeps on sparse rows, in place: (reduced, whole).

    work is a list of {column: nonzero entry} dicts, and holding[j] the
    set of indices of the rows with an entry in column j (for A(g), the
    neighbours of j); the sweeps use both up.  holding keeps only the
    rows that are not yet pivot rows, kept up to date, so no step scans
    every row.  reduced[c] is None for a free column c.  For a pivot
    column it is the row of the reduced row-echelon form with its 1 in
    column c, without that entry, so it holds free columns only.  whole
    says that every entry stayed an int.
    """
    cols = len(holding)
    reduced = [None] * cols
    whole = True
    for c in range(cols):
        holders = holding[c]
        if not holders:
            continue
        shortest = cols + 1
        for o in holders:
            k = len(work[o])
            if k < shortest:
                p, shortest = o, k
        wp = reduced[c] = work[p]
        piv = wp.pop(c)
        holders.remove(p)
        for j in wp:
            holding[j].remove(p)
        if piv == -1:
            for j in wp:
                wp[j] = -wp[j]
        elif piv != 1:
            from fractions import Fraction  # with decimal: loaded on this route only

            whole = False
            for j in wp:
                wp[j] = Fraction(wp[j]) / piv
        # Clear column c from the other holders: row o less f times wp.
        for o in holders:
            wi = work[o]
            f = wi.pop(c)
            for j, y in wp.items():
                x = wi.get(j)
                if x is None:
                    wi[j] = -f * y
                    holding[j].add(o)
                    continue
                q = x - f * y
                if q:
                    wi[j] = q
                else:
                    del wi[j]
                    holding[j].remove(o)
        holders.clear()
    # A pivot row holds columns past its pivot only, and every later
    # pivot row is reduced by the time it is read.
    for wp in reversed(reduced):
        if wp is None:
            continue
        for j in list(wp):
            rj = reduced[j]
            if rj is None:
                continue
            f = wp.pop(j)
            for k, y in rj.items():
                q = wp.get(k, 0) - f * y
                if q:
                    wp[k] = q
                else:
                    del wp[k]
    return reduced, whole


def null_basis(g):
    """Canonical kernel basis of A(g), verified exactly before returning.

    One vector per free column f, with coordinate 1 at f, the negated
    reduced-row entries at the pivot columns, and 0 elsewhere; vectors
    ordered by free column.  Each is formed as d x in integers, on its
    nonzeros only, and checked against A x = 0 by scattering each
    nonzero into the rows of its neighbours; a nonzero sum raises
    ArithmeticError.  That check proves each vector lies in the kernel,
    not that none is missing: a basis one vector short passes it, and
    only a comparison of the nullity with another route, as the sweeps
    make, catches that.
    """
    n, adj = g.n, g._adj
    work = [dict.fromkeys(nbrs, 1) for nbrs in adj]
    reduced, whole = _eliminate(work, [set(nbrs) for nbrs in adj])
    d = 1
    if not whole:
        d = lcm(*{x.denominator for row in reduced if row for x in row.values()})
        reduced = [
            row and {j: x.numerator * (d // x.denominator) for j, x in row.items()}
            for row in reduced
        ]
    # column f -> {pivot column: -entry of its reduced row at f, times d}
    by_free = {}
    for pc, row in enumerate(reduced):
        if row:
            for f, x in row.items():
                by_free.setdefault(f, {})[pc] = -x
    scaled = []
    support = set()
    for f in range(n):
        if reduced[f] is not None:
            continue
        dx = by_free.get(f, {})
        dx[f] = d
        ax = {}
        for w, x in dx.items():
            for v in adj[w]:
                ax[v] = ax.get(v, 0) + x
        if any(ax.values()):
            raise ArithmeticError("kernel vector fails A x = 0")
        support.update(dx)
        scaled.append(tuple(dx.items()))
    return NullBasis(n, d, tuple(scaled), frozenset(support))

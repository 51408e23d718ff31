"""Exact adjacency kernels, the independent check on the matching DP.

A(g) is a 0/1 matrix, so its kernel is computed in integers from start
to finish; no floating point appears anywhere, since support membership
is a zero-versus-nonzero question.  The formula path never comes here:
the sweeps, `analyze --verify` and the fixtures compare its Supp and
nullity with the kernel.  null_basis is the one route to it: callers
read .nullity and .support, and it checks A x = 0 for every vector
before returning.

Elimination is one fraction-free Gauss-Jordan pass: Bareiss's update is
applied to the rows above the pivot as well as below.  Every entry stays
a minor of A up to sign (see below), so each division is exact, and at
the end every pivot equals the last one, d; row i divided by d is row i
of the reduced row-echelon form.  Pivoting is first-nonzero in column
order.

Rows are dicts of their nonzero entries.  Bareiss's update maps an
entry that is 0 in both rows to 0, so a step touches only the columns
where the row or the pivot row is nonzero, and an entry that becomes 0
is dropped; the integers are those of the same pass on dense rows.  A
row whose entry in the pivot column is 0 is left alone when the new
pivot equals the previous one: its update (x * piv - 0 * y) / prev is
then x itself, exactly, so such a step visits only the rows holding
the pivot column, and in each of those rows only the pivot row's
columns: an entry facing a zero of the pivot row is x * piv / prev = x
as well.  A pivot that is the previous one negated is made
equal to it by negating the pivot row first.  That is Bareiss on A
with that row negated: every entry is still a minor of that matrix,
and the RREF is the same.  On adjacency matrices a pivot mostly equals
the previous one up to sign, so most steps rescale no row and touch
only the entries that change.  Such a step's update of an entry x
facing y in the pivot row is (x * prev - f * y) / prev = x - f * y /
prev, for f the row's entry in the pivot column.  Most pivots of
adjacency matrices are +-1, where 1 / prev = prev and the step is
x - f * prev * y with no division at all; every other division, by a
pivot other than +-1, is still made with its remainder checked.  That
unit step, the common one, has a loop of its own over a snapshot of the
rows holding the pivot column and of the pivot row's entries, and a row
joins a column's index only when its entry there is new.  The pivot row
is the holder with the least index at or past the current row, found
by a plain scan, and it moves only when it is not there already.

A kernel vector x is kept as the integers d x on its nonzeros, and no
dense vector is ever built, so a basis takes memory in proportion to
its nonzeros, not to nullity * n.  The A x = 0 check scatters: each
nonzero x_w is added to (A x)_v for every neighbour v of w, and every
sum must be 0.  That is the full product, since a row that meets no
nonzero sums zeros, and it costs the degrees of the support, so a hub
in no support is never read.  The adjacency rows of trees and unicyclic
graphs start with a few entries each and stay sparse, and each step
finds the rows holding its pivot column in a column index, so no step
scans every row.
"""

from __future__ import annotations

from collections import namedtuple


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


def _eliminate(work, cols):
    """Fraction-free Gauss-Jordan on sparse integer rows, in place: (pivots, d).

    work is a list of {column: nonzero entry} dicts over columns
    0..cols-1.  Row i below the rank ends with d in the i-th pivot column
    and nothing in the others, so work[i] / d is row i of the RREF; later
    rows end empty.  A row's label is its index on entry, and at[label]
    its index now; holding[j] holds the labels of the rows with an entry
    in column j, kept up to date, so no step scans every row.
    """
    rows = len(work)
    label = list(range(rows))
    at = list(range(rows))
    holding = [set() for _ in range(cols)]
    for i, wi in enumerate(work):
        for j in wi:
            holding[j].add(i)
    pivots = []
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        holders = holding[c]
        p = rows
        for o in holders:
            i = at[o]
            if r <= i < p:
                p = i
        if p == rows:
            continue
        lr = label[p]
        if p != r:
            work[r], work[p] = work[p], work[r]
            lp = label[r]
            label[r], label[p] = lr, lp
            at[lr], at[lp] = r, p
        wr = work[r]
        piv = wr[c]
        if piv == -prev:
            # Bareiss on A with this row negated: the same RREF, and a
            # pivot equal to the previous one.
            for j in wr:
                wr[j] = -wr[j]
            piv = prev
        same = piv == prev
        if same and (prev == 1 or prev == -1):
            # An entry x facing a zero of the pivot row updates to
            # x * piv / prev = x, so only the rows holding column c
            # change, and in them only the pivot row's columns; and
            # (x * prev - f * y) / prev = x - f * y / prev with
            # 1 / prev = prev: no division.  The rows lose column c as
            # they go, so the loop runs over a snapshot of its holders.
            entries = list(wr.items())
            for o in list(holders):
                if o == lr:
                    continue
                wi = work[at[o]]
                fp = wi[c] * prev
                for j, y in entries:
                    x = wi.get(j)
                    if x is None:
                        wi[j] = -fp * y
                        holding[j].add(o)
                        continue
                    q = x - fp * y
                    if q:
                        wi[j] = q
                    else:
                        del wi[j]
                        holding[j].remove(o)
        else:
            if same:
                # Only the rows holding column c change, as above.
                targets = [o for o in holders if o != lr]
            else:
                # Every other row changes, even with a zero in column c,
                # or later divisions break.
                targets = [o for o in range(rows) if o != lr]
            for o in targets:
                wi = work[at[o]]
                f = wi.get(c, 0)
                if same:
                    touched = wr
                elif f:
                    touched = wi.keys() | wr.keys()  # a column empty in both stays empty
                else:
                    touched = list(wi)
                for j in touched:
                    x = wi.get(j, 0)
                    q, rem = divmod(x * piv - f * wr.get(j, 0), prev)
                    if rem:
                        raise ArithmeticError("fraction-free elimination lost exactness")
                    if q:
                        wi[j] = q
                        if not x:
                            holding[j].add(o)
                    else:
                        del wi[j]
                        holding[j].remove(o)
        pivots.append(c)
        prev = piv
        r += 1
    return pivots, prev


def null_basis(g):
    """Canonical kernel basis of A(g), verified exactly before returning.

    One vector per free column f, with coordinate 1 at f, the negated
    reduced-row entries at the pivot columns, and 0 elsewhere; vectors
    ordered by free column.  Each is formed as d x in integers, on its
    nonzeros only, and checked against A x = 0 by scattering each
    nonzero into the rows of its neighbours; a nonzero sum raises
    ArithmeticError.
    """
    n, adj = g.n, g._adj
    work = [dict.fromkeys(nbrs, 1) for nbrs in adj]
    pivots, d = _eliminate(work, n)
    pivset = set(pivots)
    # column f -> {pivot column: -entry of its reduced row at f}
    by_free = {}
    for i, pc in enumerate(pivots):
        for f, x in work[i].items():
            if f != pc:
                by_free.setdefault(f, {})[pc] = -x
    scaled = []
    support = set()
    for f in range(n):
        if f in pivset:
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

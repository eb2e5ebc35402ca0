"""Exact linear algebra over the rationals on sparse rows.

A row is a dict from column index to its nonzero entry, a ``Fraction`` or an
``int``; a matrix is a list of rows.  The Ishida differentials are more than
98% zeros, so only the nonzero entries are stored and touched.  One exact
elimination, ``_eliminate``, gives every rank, determinant and nullspace;
there is no modular or floating-point shortcut.

The elimination is fraction-free (Bareiss 1968, without his exact
division): a row holding a ``Fraction`` is cleared of its denominators
once, and a non-unit pivot cross-multiplies the rows it reduces, so every
pivot row it returns is in ``int``.  The pivot is always a shortest
remaining row, since a longer pivot row fills in every row it reduces; a
±1 entry earns no preference.  Row scalings keep the rank and the
nullspace; ``determinant`` divides their product back out.

``determinant`` and the ``nullspace`` basis entries are an ``int`` where
the value is integral and a ``Fraction`` only where it is not (the rule of
``canonical``, which the polynomial coefficients follow too).  Integral
bases keep every later pairing in ``int`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

SparseRow = dict[int, int | Fraction]


def canonical(x: int | Fraction) -> int | Fraction:
    """``x`` as an ``int`` when it is integral, else as a ``Fraction``."""
    return x.numerator if x.denominator == 1 else x


def sparse_row(vector) -> SparseRow:
    """The sparse row of a dense vector."""
    return {j: x for j, x in enumerate(vector) if x}


def integral_row(row: SparseRow) -> tuple[SparseRow, int]:
    """``row`` times the lcm m of its denominators, in ``int``, and m."""
    # an int row sums to an int; a Fraction entry makes the sum a Fraction
    if type(sum(row.values())) is int:
        return row, 1
    m = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (m // x.denominator) for j, x in row.items()}, m


def _eliminate(rows) -> tuple[list[tuple[int, SparseRow]], int, list[int]]:
    """Row-reduce sparse rows fraction-free; return the pivots, a sign and the scales.

    A row holding a ``Fraction`` is first multiplied by the lcm of its
    denominators, so every row is in ``int``.  Columns are taken left to
    right.  In each column the pivot is the shortest remaining row with a
    nonzero entry there.  Every other remaining row with a nonzero entry x
    there becomes ``(pivot/g)·row - (x/g)·pivot_row``, with g = gcd(pivot, x)
    signed like the pivot, which is ``row - x·pivot·pivot_row`` for a ±1
    pivot.  The pivot ``(column, row)`` pairs come back in column order, so
    the pivot rows are an echelon form of the rows; the sign is that of a row
    permutation putting the pivot rows first, in that order.  The scales are
    the row multipliers other than 1, the lcms and the factors pivot/g, whose
    product divides the determinant of the echelon form down to that of the
    input.
    """
    rows = [dict(r) for r in rows]
    scales: list[int] = []
    # column -> indices of the remaining rows with a nonzero entry there
    where: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            where.setdefault(j, set()).add(i)
        rows[i], m = integral_row(row)
        if m != 1:
            scales.append(m)
    position = list(range(len(rows)))  # position[i]: where row i sits
    at = list(range(len(rows)))  # at[k]: the row sitting at position k
    pivots: list[tuple[int, SparseRow]] = []
    sign = 1

    def length(i: int) -> int:
        return len(rows[i])

    for c in sorted(where):
        holders = where[c]
        if not holders:
            continue
        p = min(holders, key=length) if len(holders) > 1 else next(iter(holders))
        k, q = len(pivots), position[p]
        if q != k:
            other = at[k]
            at[k], at[q], position[p], position[other] = p, other, k, q
            sign = -sign
        pivot_row = rows[p]
        pivot = pivot_row[c]
        # a ±1 pivot gives the same update with a scale of 1; skipping the
        # gcd and the divisions for it is measurably faster at rank 6
        unit = pivot in (1, -1)
        for j in pivot_row:
            where[j].discard(p)
        for i in list(holders):
            row = rows[i]
            if unit:
                factor = row[c] * pivot
            else:
                g = gcd(pivot, row[c])
                if pivot < 0:
                    g = -g
                factor = row[c] // g
                scale = pivot // g
                if scale != 1:
                    scales.append(scale)
                    for j in row:
                        row[j] *= scale
            for j, x in pivot_row.items():
                y = row.get(j, 0) - factor * x
                if y:
                    if j not in row:
                        where[j].add(i)
                    row[j] = y
                elif j in row:
                    del row[j]
                    where[j].discard(i)
        pivots.append((c, pivot_row))
    return pivots, sign, scales


def integer_rank(rows) -> int:
    """Rank of a matrix given by sparse rows."""
    return len(_eliminate(rows)[0])


def determinant(rows) -> int | Fraction:
    """Determinant of a square matrix given by sparse rows."""
    pivots, sign, scales = _eliminate(rows)
    if len(pivots) < len(rows):
        return 0
    top = prod((row[c] for c, row in pivots), start=sign)
    bottom = prod(scales)
    return top // bottom if top % bottom == 0 else Fraction(top, bottom)


def nullspace(rows, n_cols: int) -> tuple[list[list[int | Fraction]], list[int]]:
    """Basis of {x : A x = 0} for A given by sparse ``rows`` with ``n_cols`` columns.

    Returns (basis, coordinate_columns), the basis as dense vectors.  The
    coordinate columns are the non-pivot columns, and the basis is
    echelon-normalized: the i-th basis vector has entry 1 at
    coordinate_columns[i] and entry 0 at the other coordinate columns, so the
    coefficients of any nullspace vector v in this basis are simply v
    restricted to coordinate_columns.
    """
    pivots = _eliminate(rows)[0]
    pivot_cols = {c for c, _ in pivots}
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        v = {f: 1}
        for c, row in reversed(pivots):
            s = sum(x * v[j] for j, x in row.items() if j in v)
            if s:
                v[c] = canonical(Fraction(-s) / row[c])
        basis.append([v.get(j, 0) for j in range(n_cols)])
    return basis, free_cols

"""Exact linear algebra over the rationals on sparse rows.

A row is a dict from column index to its nonzero entry, a ``Fraction`` or an
``int``; a matrix is a list of rows.  The Ishida differentials are more than
98% zeros, so only the nonzero entries are stored and touched.  One exact
elimination, ``_eliminate``, gives every rank, determinant and nullspace;
there is no modular or floating-point shortcut.

``determinant`` and the ``nullspace`` basis entries are an ``int`` where
the value is integral and a ``Fraction`` only where it is not (the rule of
``canonical``, which the polynomial coefficients follow too).  Integral
bases keep every later pairing in ``int`` arithmetic, and an elimination
whose pivots are all ±1 never leaves ``int``.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

SparseRow = dict[int, int | Fraction]


def canonical(x: int | Fraction) -> int | Fraction:
    """``x`` as an ``int`` when it is integral, else as a ``Fraction``."""
    return x.numerator if x.denominator == 1 else x


def sparse_row(vector) -> SparseRow:
    """The sparse row of a dense vector."""
    return {j: x for j, x in enumerate(vector) if x}


def _eliminate(rows) -> tuple[list[tuple[int, SparseRow]], int]:
    """Row-reduce sparse rows exactly; return the pivots and a permutation sign.

    Columns are taken left to right.  In each column the pivot is the shortest
    remaining row with a nonzero entry there, and a multiple of it is
    subtracted from every other remaining row with a nonzero entry there.
    The pivot ``(column, row)`` pairs come back in column order, so the pivot
    rows are an echelon form of the input; the sign is that of a row
    permutation putting the pivot rows first, in that order.
    """
    rows = [dict(r) for r in rows]
    # column -> indices of the remaining rows with a nonzero entry there
    where: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            where.setdefault(j, set()).add(i)
    position = list(range(len(rows)))  # position[i]: where row i sits
    at = list(range(len(rows)))  # at[k]: the row sitting at position k
    pivots: list[tuple[int, SparseRow]] = []
    sign = 1
    for c in sorted(where):
        holders = where[c]
        if not holders:
            continue
        p = min(holders, key=lambda i: len(rows[i]))
        k, q = len(pivots), position[p]
        if q != k:
            other = at[k]
            at[k], at[q], position[p], position[other] = p, other, k, q
            sign = -sign
        pivot_row = rows[p]
        pivot = pivot_row[c]
        inverse = pivot if pivot in (1, -1) else 1 / Fraction(pivot)
        for j in pivot_row:
            where[j].discard(p)
        for i in list(holders):
            row = rows[i]
            factor = row[c] * inverse
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
    return pivots, sign


def integer_rank(rows) -> int:
    """Rank of a matrix given by sparse rows."""
    return len(_eliminate(rows)[0])


def determinant(rows) -> int | Fraction:
    """Determinant of a square matrix given by sparse rows."""
    pivots, sign = _eliminate(rows)
    if len(pivots) < len(rows):
        return 0
    return canonical(prod((row[c] for c, row in pivots), start=sign))


def nullspace(rows, n_cols: int) -> tuple[list[list[int | Fraction]], list[int]]:
    """Basis of {x : A x = 0} for A given by sparse ``rows`` with ``n_cols`` columns.

    Returns (basis, coordinate_columns), the basis as dense vectors.  The
    coordinate columns are the non-pivot columns, and the basis is
    echelon-normalized: the i-th basis vector has entry 1 at
    coordinate_columns[i] and entry 0 at the other coordinate columns, so the
    coefficients of any nullspace vector v in this basis are simply v
    restricted to coordinate_columns.
    """
    pivots, _ = _eliminate(rows)
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

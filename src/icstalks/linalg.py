"""Exact linear algebra over the rationals: sparse rows, and one dense determinant kernel.

A row is a dict from column index to its nonzero entry, a ``Fraction`` or an
``int``; a matrix is a list of rows.  The Ishida differentials are more than
98% zeros, so only the nonzero entries are stored and touched.  One exact
sparse elimination, ``_eliminate``, gives every rank; there is no modular
or floating-point shortcut.  ``determinants`` is the one
determinant kernel: the determinants of many square matrices drawn from one
list of integer vectors, where matrices with the same leading rows share
those rows' elimination.

The elimination is fraction-free (Bareiss 1968, without his exact
division): a row holding a ``Fraction`` is cleared of its denominators
once, and a non-unit pivot cross-multiplies the rows it reduces, so every
pivot row it returns is in ``int``.  The pivot is always a shortest
remaining row, since a longer pivot row fills in every row it reduces; a
±1 entry earns no preference.  Row scalings keep the rank and the
nullspace, so no record of them is kept.

``canonical`` is the one rule for exact scalars: an ``int`` where the value
is integral and a ``Fraction`` only where it is not.  The polynomial
coefficients and the pairings of the Ishida complex's echelon bases
(``differentials``) follow it, which keeps most of the arithmetic in
``int``.

``determinants`` takes dense integer vectors and is Bareiss's
Gauss-Jordan with his exact division: every entry it keeps is a minor of
the rows so far, so it never leaves ``int`` and never scales a row.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def _eliminate(rows) -> list[tuple[int, SparseRow]]:
    """Row-reduce sparse rows fraction-free; return the pivots in column order.

    A row holding a ``Fraction`` is first multiplied by the lcm of its
    denominators, so every row is in ``int``.  Columns are taken left to
    right.  In each column the pivot is the shortest remaining row with a
    nonzero entry there.  Every other remaining row with a nonzero entry x
    there becomes ``(pivot/g)·row - (x/g)·pivot_row``, with g = gcd(pivot, x)
    signed like the pivot, which is ``row - x·pivot·pivot_row`` for a ±1
    pivot.  The scalings keep the row space, so the pivot ``(column, row)``
    pairs are an echelon form of the rows: their count is the rank, and
    their columns are the columns independent of those before them.
    """
    rows = [dict(r) for r in rows]
    # column -> indices of the remaining rows with a nonzero entry there
    where: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            where.setdefault(j, set()).add(i)
        rows[i] = integral_row(row)[0]
    pivots: list[tuple[int, SparseRow]] = []
    for c in sorted(where):
        holders = where[c]
        if not holders:
            continue
        if len(holders) > 1:
            p = min(holders, key=lambda i: len(rows[i]))
        else:
            p = next(iter(holders))
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
    return pivots


def integer_rank(rows) -> int:
    """Rank of a matrix given by sparse rows."""
    return len(_eliminate(rows))


def _reduce(prefix, v) -> tuple[list[int], int] | None:
    """``v`` reduced by a prefix's Gauss-Jordan form, and its first nonzero column.

    A prefix of k independent integer rows A is ``(D, columns, rows, sign)``:
    its pivot columns C in pivot order, D = det(A[:, C]), the rows of
    G = adj(A[:, C])·A, so that G[:, C] = D·I and every other entry of G is
    a k × k minor of A (Cramer), and the sign of the permutation sorting C.
    The reduced row ``w = D·v − Σ_r v[C_r]·G_r`` holds at column j the
    (k + 1)-minor of A and v on the columns C, j in that order (a Schur
    complement), so it is zero exactly when v depends on A; then, or when
    the prefix is ``None`` (dependent already), the result is ``None``.
    """
    if prefix is None:
        return None
    d, columns, rows, _ = prefix
    w = [d * x for x in v]
    for c, g in zip(columns, rows):
        a = v[c]
        if a:
            w = [x - a * y for x, y in zip(w, g)]
    p = next((j for j, x in enumerate(w) if x), None)
    return None if p is None else (w, p)


def _extend(prefix, v):
    """The prefix's form with the row ``v`` added; ``None`` once rows depend.

    The reduced row w's first nonzero column p is the new pivot, D' = w[p],
    and each old row becomes ``(D'·G_r − G_r[p]·w) / D``, an exact division
    (Sylvester's identity; Bareiss 1968), so every entry stays a minor.
    """
    reduced = _reduce(prefix, v)
    if reduced is None:
        return None
    (w, p), (d, columns, rows, sign) = reduced, prefix
    e = w[p]
    rows = [[(e * x - g[p] * y) // d for x, y in zip(g, w)] for g in rows]
    if sum(c > p for c in columns) % 2:
        sign = -sign
    return e, columns + (p,), rows + [w], sign


def _cofactors(prefix, v, n: int) -> list[int] | None:
    """The cofactor vector u of the prefix's n − 2 rows and v: det(…, x) = <u, x>.

    This is ``_extend`` computing only the one column j it leaves free:
    u[j] is the new pivot D' = w[p], u[p] = −w[j], and at the pivot column
    of an old row u is minus that row's updated entry at j.  The sign is
    that of the permutation sorting the columns C, p, j.
    """
    reduced = _reduce(prefix, v)
    if reduced is None:
        return None
    (w, p), (d, columns, rows, sign) = reduced, prefix
    e = w[p]
    (last,) = set(range(n)) - set(columns) - {p}
    u = [0] * n
    u[last] = e
    u[p] = -w[last]
    for c, g in zip(columns, rows):
        u[c] = (g[p] * w[last] - e * g[last]) // d
    if (sum(c > p for c in columns) + sum(c > last for c in columns) + (p > last)) % 2:
        sign = -sign
    return u if sign > 0 else [-x for x in u]


def determinants(vectors, keys) -> dict[tuple[int, ...], int]:
    """The determinant of every key's rows of n integer ``vectors`` of length n.

    A key is a tuple of n indices into ``vectors``; its matrix has those
    rows in key order.  The keys are walked sorted, so keys with the same
    leading indices share the fraction-free Gauss-Jordan form of those rows
    (``_extend``), each prefix extended by one row from its parent's form.
    A prefix of n − 1 rows gives its cofactor vector (``_cofactors``), so a
    key's last row costs one dot product.  Every entry is a minor, so
    everything stays in ``int``; a key whose prefix has dependent rows gets
    0 without a product.
    """
    keys = sorted(set(keys))
    if not keys:
        return {}
    n = len(keys[0])
    if n == 0:
        return {(): 1}
    # prefixes[k] is the form of the current key's first k rows, k < n - 1
    prefixes: list = [(1, (), [], 1)]
    out: dict[tuple[int, ...], int] = {}
    previous = None
    for key in keys:
        shared = 0
        if previous is not None:
            while shared < n - 1 and previous[shared] == key[shared]:
                shared += 1
        if previous is None or shared < n - 1:
            del prefixes[shared + 1 :]
            for k in range(shared, n - 2):
                prefixes.append(_extend(prefixes[k], vectors[key[k]]))
            if n == 1:
                normal = [1]
            else:
                normal = _cofactors(prefixes[n - 2], vectors[key[n - 2]], n)
        last = vectors[key[-1]]
        out[key] = 0 if normal is None else sum(a * b for a, b in zip(normal, last))
        previous = key
    return out

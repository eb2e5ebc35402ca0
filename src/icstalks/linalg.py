"""Exact linear algebra over the rationals.

Ranks are computed by fraction-free (Bareiss-style) elimination over
arbitrary-precision integers after clearing denominators row by row; reduced
echelon forms and nullspaces use plain Fraction arithmetic (they only run on
small matrices: rows are ray vectors, columns ambient coordinates).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InvariantViolation

Row = list[Fraction]
Matrix = list[Row]


def clear_row_denominators(row) -> list[int]:
    """Scale a rational row to a primitive-denominator integer row."""
    lcm = 1
    for x in row:
        d = Fraction(x).denominator
        lcm = lcm * d // gcd(lcm, d)
    return [int(Fraction(x) * lcm) for x in row]


def integer_rank(rows) -> int:
    """Rank of a matrix with rational entries, via Bareiss elimination.

    Rows are scaled to integers first (rank is invariant under row scaling),
    then eliminated fraction-free: every intermediate entry is a minor of the
    scaled matrix, so the divisions below are exact.
    """
    m = [clear_row_denominators(r) for r in rows if any(r)]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    col = 0
    while rank < n_rows and col < n_cols:
        pivot_row = None
        for i in range(rank, n_rows):
            if m[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            col += 1
            continue
        if pivot_row != rank:
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        row_r = m[rank]
        for i in range(rank + 1, n_rows):
            row_i = m[i]
            factor = row_i[col]
            # the update must run even when factor == 0 so that entries stay
            # minors of the original matrix and the division stays exact
            for j in range(col + 1, n_cols):
                num = row_i[j] * pivot - factor * row_r[j]
                q = num // prev
                if q * prev != num:
                    raise InvariantViolation(None, "exact division", "inexact Bareiss quotient")
                row_i[j] = q
            row_i[col] = 0
        prev = pivot
        rank += 1
        col += 1
    return rank


def rref(rows) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over Fraction; returns (rref, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m[:r], pivots


def nullspace(rows, n_cols: int) -> tuple[Matrix, list[int]]:
    """Basis of {x : A x = 0} for A given by ``rows`` of length ``n_cols``.

    Returns (basis, coordinate_columns).  The basis is echelon-normalized: the
    i-th basis vector has entry 1 at coordinate_columns[i] and entry 0 at the
    other coordinate columns, so the coefficients of any nullspace vector v in
    this basis are simply v restricted to coordinate_columns.
    """
    reduced, pivots = rref(rows)
    free_cols = [c for c in range(n_cols) if c not in pivots]
    basis: Matrix = []
    for f in free_cols:
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        basis.append(v)
    return basis, free_cols


def coordinates_in_basis(vector, basis: Matrix, coord_cols: list[int]) -> Row:
    """Coordinates of ``vector`` in an echelon-normalized basis.

    The subspace membership is verified exactly; a vector outside the span of
    ``basis`` raises ValueError.
    """
    coords = [Fraction(vector[c]) for c in coord_cols]
    n = len(vector)
    for j in range(n):
        s = Fraction(0)
        for coef, b in zip(coords, basis):
            s += coef * b[j]
        if s != Fraction(vector[j]):
            raise ValueError("vector is not in the span of the basis")
    return coords


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Product of row-convention matrices (a maps into b's row space)."""
    if not a or not b:
        return []
    n_mid = len(b)
    n_out = len(b[0])
    out = []
    for row in a:
        acc = [Fraction(0)] * n_out
        for k in range(n_mid):
            x = row[k]
            if x:
                bk = b[k]
                for j in range(n_out):
                    if bk[j]:
                        acc[j] += x * bk[j]
        out.append(acc)
    return out


def is_zero_matrix(a: Matrix) -> bool:
    return all(all(x == 0 for x in row) for row in a)


def determinant(rows) -> Fraction:
    """Determinant of a small square rational matrix (Fraction Gauss)."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    if n == 0:
        return Fraction(1)
    det = Fraction(1)
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        det *= m[c][c]
        inv = m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det

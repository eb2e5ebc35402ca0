import itertools
import random
from fractions import Fraction

import pytest

from icstalks.differentials import ChainComplexQ
from icstalks.errors import CrossCheckMismatch
from icstalks.linalg import (
    _eliminate,
    determinants,
    integer_rank,
    nullspace,
    sparse_row,
)

# Independent references: rank and nullspace share one elimination in the
# library, so they are checked against formulas that share nothing with it.


def leibniz_det(m):
    """Sum over permutations of signed products of entries."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def minor_rank(m):
    """Size of the largest square submatrix with a nonzero determinant."""
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    for k in range(min(n_rows, n_cols), 0, -1):
        for rows in itertools.combinations(range(n_rows), k):
            for cols in itertools.combinations(range(n_cols), k):
                if leibniz_det([[m[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def dense_gauss_rank(m):
    """Textbook Gaussian elimination on dense Fraction rows."""
    m = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def sparse(m):
    return [sparse_row(row) for row in m]


def random_matrix(rng, n_rows, n_cols, low=-3, high=3):
    return [[rng.randint(low, high) for _ in range(n_cols)] for _ in range(n_rows)]


def test_rank_known():
    assert integer_rank([]) == 0
    assert integer_rank([{}, {}]) == 0
    assert integer_rank(sparse([[1, 0], [0, 1]])) == 2
    assert integer_rank(sparse([[1, 2], [2, 4]])) == 1
    assert integer_rank(sparse([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2
    assert integer_rank(sparse([[Fraction(1, 2), 1], [1, 2]])) == 1


def test_rank_matches_the_minor_formula_randomized():
    rng = random.Random(7)
    for _ in range(150):
        n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
        # low ranks are common once a row is a combination of two others
        m = random_matrix(rng, n_rows, n_cols, -2, 2)
        if n_rows >= 3 and rng.random() < 0.5:
            m[-1] = [a - 2 * b for a, b in zip(m[0], m[1])]
        assert integer_rank(sparse(m)) == minor_rank(m), m


def test_rank_matches_fraction_gauss_randomized():
    rng = random.Random(5)
    for _ in range(20):
        # 30 x 40 with about two nonzero +-1 entries per row, like the
        # Ishida differentials
        m = [[0] * 40 for _ in range(30)]
        for row in m:
            for j in rng.sample(range(40), rng.randint(0, 3)):
                row[j] = rng.choice((-1, 1))
        assert integer_rank(sparse(m)) == dense_gauss_rank(m)


def test_nullspace_randomized():
    rng = random.Random(11)
    for _ in range(80):
        n_rows, n_cols = rng.randint(0, 5), rng.randint(1, 6)
        m = random_matrix(rng, n_rows, n_cols, -2, 2)
        basis, cols = nullspace(sparse(m), n_cols)
        assert len(basis) == len(cols) == n_cols - minor_rank(m)
        for v, c in zip(basis, cols):
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
            assert [v[other] for other in cols] == [int(other == c) for other in cols]


def test_nullspace_echelon_normalized():
    basis, cols = nullspace([sparse_row([1, 1, 1])], 3)
    assert cols == [1, 2]
    for v, c in zip(basis, cols):
        assert v[c] == 1
        for other in cols:
            if other != c:
                assert v[other] == 0
    # every basis vector annihilates the row
    for v in basis:
        assert sum(v) == 0


def test_nullspace_of_empty_constraints():
    basis, cols = nullspace([], 2)
    assert cols == [0, 1]
    assert basis == [[1, 0], [0, 1]]


def test_matmul_and_zero():
    # the complex composes consecutive sparse differentials and requires zero
    a = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(3), 1: Fraction(6)}]
    kills_a = [{0: Fraction(2)}, {0: Fraction(-1)}]  # a . kills_a == 0
    ChainComplexQ(dims=[2, 2, 1], mats=[a, kills_a])
    b = [{0: Fraction(2)}, {0: Fraction(-1), 1: Fraction(1)}]  # a . b != 0
    with pytest.raises(CrossCheckMismatch):
        ChainComplexQ(dims=[2, 2, 2], mats=[a, b])
    ChainComplexQ(dims=[2, 2, 2], mats=[[{}, {}], b])


def test_nullspace_integral_entries_are_ints():
    basis, cols = nullspace([{0: 1, 1: 2}], 2)
    assert basis == [[-2, 1]] and cols == [1]
    assert all(type(x) is int for x in basis[0])


def test_nullspace_keeps_a_fraction_only_where_it_is_not_integral():
    basis, _ = nullspace([{0: 2, 1: 1}], 2)
    assert basis == [[Fraction(-1, 2), 1]]
    assert [type(x) for x in basis[0]] == [Fraction, int]
    # a Fraction input with an integral result still comes back as an int
    basis, _ = nullspace([{0: Fraction(1, 2), 1: 1}], 2)
    assert basis == [[-2, 1]] and type(basis[0][0]) is int


def random_rational_matrix(rng, n_rows, n_cols):
    """Entries in -9..9, about a third of them over a denominator from 2 to 6."""

    def entry():
        x = rng.randint(-9, 9)
        return Fraction(x, rng.randint(2, 6)) if rng.random() < 0.3 else x

    return [[entry() for _ in range(n_cols)] for _ in range(n_rows)]


def force_deficiency(rng, m):
    """m with one row replaced by a rational combination of two others."""
    if len(m) >= 3:
        i, j, k = rng.sample(range(len(m)), 3)
        a, b = Fraction(rng.randint(-4, 4), rng.randint(1, 6)), rng.randint(-3, 3)
        m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
    return m


def test_fraction_free_rank_matches_the_references_randomized():
    rng = random.Random(17)
    kinds = list(itertools.product((False, True), repeat=2))  # (rational, deficient)
    for n in range(1, 9):
        for rational, deficient in kinds * 3:
            if rational:
                m = random_rational_matrix(rng, n, rng.randint(1, 8))
            else:
                m = random_matrix(rng, n, rng.randint(1, 8), -9, 9)
            if deficient:
                m = force_deficiency(rng, m)
            rank = integer_rank(sparse(m))
            assert rank == dense_gauss_rank(m), m
            if len(m) <= 6 and len(m[0]) <= 6:
                assert rank == minor_rank(m), m


@pytest.mark.parametrize("rational", [False, True], ids=["int", "fraction"])
def test_pivot_rows_hold_only_ints(rational):
    rng = random.Random(23)
    for _ in range(60):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
        if rational:
            m = random_rational_matrix(rng, n_rows, n_cols)
            # an integral Fraction is still a Fraction on the way in
            m[0][0] = Fraction(2)
        else:
            m = random_matrix(rng, n_rows, n_cols, -9, 9)
        pivots = _eliminate(sparse(force_deficiency(rng, m)))
        assert all(type(x) is int for _, row in pivots for x in row.values()), m


def test_pivot_is_the_shortest_row():
    # a shorter row with pivot 2 beats a longer row with pivot 1
    short = {0: 2, 1: 1}
    assert _eliminate([{0: 1, 1: 1, 2: 1}, short])[0] == (0, short)


# -- the prefix-sharing kernel, against Leibniz ------------------------------


def test_determinants_match_leibniz_randomized():
    rng = random.Random(29)
    for n in range(1, 6):
        for _ in range(12):
            vectors = random_matrix(rng, n + 4, n, -4, 4)
            if rng.random() < 0.5:
                # a row that depends on two others: every key holding all
                # three is singular, wherever they sit in it
                vectors[-1] = [a - 2 * b for a, b in zip(vectors[0], vectors[1])]
            # keys drawn from a few prefixes, so many share their leading rows
            heads = [tuple(rng.sample(range(n + 4), n)) for _ in range(3)]
            keys = [head[: rng.randint(0, n)] for head in heads for _ in range(6)]
            keys = [k + tuple(rng.sample([i for i in range(n + 4) if i not in k], n - len(k)))
                    for k in keys]
            got = determinants(vectors, keys)
            assert got.keys() == set(keys)
            for key in keys:
                expected = leibniz_det([vectors[i] for i in key])
                assert got[key] == expected and type(got[key]) is int, (vectors, key)


def test_determinants_of_a_dependent_prefix_are_zero():
    # rows 0 and 1 are parallel: every key starting with them is singular,
    # and the keys that leave the prefix are not
    vectors = [(1, 2, 3), (2, 4, 6), (0, 1, 0), (0, 0, 1), (1, 0, 0)]
    keys = [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (1, 3, 2), (2, 3, 4)]
    got = determinants(vectors, keys)
    assert got == {key: leibniz_det([vectors[i] for i in key]) for key in keys}
    assert [got[k] for k in keys[:3]] == [0, 0, 0] and all(got[k] for k in keys[3:])
    # a repeated row is a dependent prefix too
    assert determinants(vectors, [(2, 2, 3), (2, 3, 3)]) == {(2, 2, 3): 0, (2, 3, 3): 0}


def test_determinants_of_sizes_zero_and_one():
    assert determinants([], [()]) == {(): 1}
    assert determinants([(5,)], []) == {}
    assert determinants([(3,), (-2,), (0,)], [(0,), (1,), (2,)]) == {(0,): 3, (1,): -2, (2,): 0}

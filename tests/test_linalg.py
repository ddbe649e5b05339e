import itertools
import math
import random
from fractions import Fraction

import pytest

from quiverhecke.cyclotomic import _rank_mod_p
from quiverhecke.linalg import Echelon, determinant, rank


def leibniz(matrix):
    size = len(matrix)
    total = 0
    for perm in itertools.permutations(range(size)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(
            matrix[r][perm[r]] for r in range(size)
        )
    return total


def random_matrix(rng, nrows, ncols, lo=-3, hi=3):
    rows = [
        [rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)
    ]
    # make some inputs rank deficient: replace row a by row c + k * row b
    if nrows >= 2 and rng.random() < 0.4:
        a, b = rng.sample(range(nrows), 2)
        c, k = rng.randrange(nrows), rng.randint(-2, 2)
        rows[a] = [x + k * y for x, y in zip(rows[c], rows[b])]
    return rows


def test_determinant_matches_leibniz():
    rng = random.Random(20)
    for trial in range(400):
        size = trial % 6
        mat = random_matrix(rng, size, size)
        assert determinant(mat) == leibniz(mat), mat


def test_determinant_of_fractions_and_permutations():
    assert determinant([[Fraction(1, 2), 1], [1, 0]]) == -1
    # a permutation matrix has the sign of its permutation
    perm = (2, 0, 3, 1)
    mat = [[int(c == perm[r]) for c in range(4)] for r in range(4)]
    assert determinant(mat) == leibniz(mat) == -1
    with pytest.raises(ValueError):
        determinant([[1, 2]])


def test_rank_matches_rank_mod_p():
    # at most 6 columns, entries |x| <= 2 and one row with |x| <= 6:
    # Hadamard bounds every minor by 5^5 * 15 < 999983 in absolute value,
    # so a minor vanishes mod p only if it vanishes, and the ranks agree
    rng = random.Random(21)
    for trial in range(300):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        mat = random_matrix(rng, nrows, ncols, -2, 2)
        sparse = [{j: c for j, c in enumerate(row)} for row in mat]
        assert rank(sparse) == _rank_mod_p(mat), mat


def test_rank_with_pivot_entries_outside_the_row():
    # the pivot row has a column the reduced row lacks
    assert rank([{0: 1, 1: 1}, {0: 1}]) == 2
    assert rank([{0: 1, 1: 1}, {0: 1}, {1: 3}]) == 2
    assert rank([]) == 0
    assert rank([{0: 0}]) == 0


def test_echelon_reduce_and_insert():
    ech = Echelon()
    assert ech.insert({"b": 2, "c": 4}) == {"b": 2, "c": 4}
    assert ech.rows == {"b": {"b": 1, "c": 2}}
    assert ech.reduce({"b": 1, "c": 2}) == {}
    assert ech.reduce({"a": 1, "b": 1}) == {"a": 1, "b": 1}
    assert ech.reduce({"b": 1}) == {"c": -2}
    assert ech.insert({"b": 3, "c": 6}) == {}
    assert len(ech) == 1

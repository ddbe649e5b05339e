import itertools
import math
import random
from fractions import Fraction

import pytest

from quiverhecke.cyclotomic import CycloContext, _action_rows, spanning_rank
from quiverhecke.laurent import Laurent
from quiverhecke.linalg import PRIME, Echelon, determinant, format_terms, rank_mod_p
from quiverhecke.polyring import MPoly


def rank(rows):
    """Rank over Q of sparse rows ({column: coefficient} dicts): the
    oracle for the mod-p ranks."""
    echelon = Echelon()
    for row in rows:
        echelon.insert(row)
    return len(echelon)


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


def test_format_terms():
    # the one text form of Laurent and MPoly; the renderings below were
    # recorded before the two shared it
    assert format_terms([]) == "0"
    assert format_terms([(-1, "X1"), (3, ""), (1, "t"), (Fraction(-2, 3), "t^2")]) == (
        "-X1 + 3 + t - 2/3*t^2"
    )
    assert Laurent({-2: 1, 0: -3, 1: -1, 4: Fraction(2, 3)}).str_in("v") == (
        "v^-2 - 3 - v + 2/3*v^4"
    )
    assert Laurent({0: -1, 3: -5}).str_in("q") == "-1 - 5*q^3"
    assert Laurent().str_in("q") == "0"
    p = MPoly(2, ("z1",), {
        (2, 0, 0): 1, (1, 1, 0): -1, (0, 0, 1): -4, (0, 0, 0): 5, (0, 3, 2): Fraction(-1, 2)
    })
    assert repr(p) == "-1/2*X2^3*z1^2 + X1^2 - X1*X2 - 4*z1 + 5"
    assert repr(-p) == "1/2*X2^3*z1^2 - X1^2 + X1*X2 + 4*z1 - 5"
    assert repr(MPoly.zero(2)) == "0"
    assert repr(MPoly.const(-7, 2)) == "-7"


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
        assert rank(sparse) == rank_mod_p(sparse), mat


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


def schoolbook(matrix):
    """(rank, determinant) by dense Gaussian elimination over Fraction;
    the determinant is that of the leading square block, 0 if singular."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rank, det = 0, Fraction(1)
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det *= m[rank][c]
        for r in range(rank + 1, len(m)):
            f = m[r][c] / m[rank][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank, det


def has_fraction_row(echelon):
    return any(
        isinstance(c, Fraction) for row in echelon.rows.values() for c in row.values()
    )


def test_echelon_matches_schoolbook_on_integer_matrices():
    # entries -3..3 give pivots other than +-1, so both the integer and the
    # Fraction path of Echelon.insert run
    rng = random.Random(25)
    fraction_paths = integer_paths = 0
    for trial in range(300):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        if trial % 3 == 0:
            ncols = nrows
        mat = random_matrix(rng, nrows, ncols)
        expected_rank, expected_det = schoolbook(mat)
        ech = Echelon()
        for row in mat:
            # each stored row has coefficient 1 at its lead, checked before
            # the next reduction relies on it
            ech.insert(dict(enumerate(row)))
            assert all(r[lead] == 1 for lead, r in ech.rows.items()), mat
        assert len(ech) == rank(dict(enumerate(row)) for row in mat) == expected_rank
        if has_fraction_row(ech):
            fraction_paths += 1
        elif len(ech):
            integer_paths += 1
            assert all(
                type(c) is int for row in ech.rows.values() for c in row.values()
            )
        if nrows == ncols:
            det = determinant(mat)
            assert type(det) is Fraction
            assert det == expected_det, mat
    assert fraction_paths > 50 and integer_paths > 20


def test_echelon_matches_schoolbook_on_mixed_input():
    rng = random.Random(26)
    for trial in range(200):
        size = rng.randint(1, 6)
        mat = [
            [
                Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                if rng.random() < 0.4
                else rng.randint(-3, 3)
                for _ in range(size)
            ]
            for _ in range(size)
        ]
        expected_rank, expected_det = schoolbook(mat)
        assert rank(dict(enumerate(row)) for row in mat) == expected_rank
        det = determinant(mat)
        assert type(det) is Fraction and det == expected_det, mat


def test_unit_pivots_keep_integer_rows():
    ech = Echelon()
    assert ech.insert({0: -1, 1: 3, 2: 0}) == {0: -1, 1: 3}
    assert ech.insert({0: 2, 1: 1, 2: 1}) == {1: 7, 2: 1}
    assert ech.rows == {0: {0: 1, 1: -3}, 1: {1: 1, 2: Fraction(1, 7)}}
    assert type(ech.rows[0][1]) is int
    assert type(ech.rows[1][2]) is Fraction
    # a unit upper-triangular integer matrix never builds a Fraction
    mat = [[1, 2, -3], [0, -1, 5], [0, 0, 1]]
    det = determinant(mat)
    assert det == -1 and type(det) is Fraction
    assert determinant([[0]]) == 0 and type(determinant([[0]])) is Fraction


def dense_rank_mod_p(mat):
    """rank_mod_p of a matrix given as a list of rows."""
    return rank_mod_p([dict(enumerate(row)) for row in mat])


def schoolbook_rank_mod_p(rows):
    """Gauss-Jordan on Python ints, every row reduced at every pivot."""
    p = PRIME
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def sparse_entry(rng, density):
    p = PRIME
    if rng.random() >= density:
        return 0
    if rng.random() < 0.3:
        return rng.choice((1, -1, 2, p - 1, p + 3, -p - 2, 5 * p + 7))
    return rng.randrange(-p, p)


def sparse_matrix(rng, nrows, ncols, density):
    p = PRIME
    rows = [
        [sparse_entry(rng, density) for _ in range(ncols)] for _ in range(nrows)
    ]
    # rows that depend on others only modulo p, so the rank is deficient
    for _ in range(rng.randrange(3) if nrows >= 2 else 0):
        a, b, c = (rng.randrange(nrows) for _ in range(3))
        k = rng.randrange(p)
        rows[a] = [
            x + k * y + p * rng.randint(-2, 2) for x, y in zip(rows[b], rows[c])
        ]
    return rows


def test_rank_mod_p_matches_schoolbook_on_sparse_matrices():
    rng = random.Random(22)
    for trial in range(150):
        nrows, ncols = rng.randint(1, 60), rng.randint(1, 80)
        density = rng.choice((0.02, 0.05, 0.1, 0.3))
        mat = sparse_matrix(rng, nrows, ncols, density)
        expected = schoolbook_rank_mod_p(mat)
        assert dense_rank_mod_p(mat) == expected, (trial, nrows, ncols, density)
        # the same rows without their zero entries
        sparse = [{j: c for j, c in enumerate(row) if c} for row in mat]
        assert rank_mod_p(sparse) == expected


def test_rank_mod_p_edge_shapes():
    p = PRIME
    assert dense_rank_mod_p([]) == 0
    assert dense_rank_mod_p([[], []]) == 0
    # no rows at all, from an iterator
    assert rank_mod_p(iter(())) == 0
    assert dense_rank_mod_p([[0] * 5] * 4) == 0
    # entries that vanish modulo p
    assert dense_rank_mod_p([[p, -p, 0], [2 * p, 0, -3 * p]]) == 0
    # rows dependent only modulo p
    assert dense_rank_mod_p([[1, 2], [p + 1, 2]]) == 1
    assert dense_rank_mod_p([[1, 2], [p + 1, 3]]) == 2
    # zero columns, and a pivot that only the last row holds
    assert dense_rank_mod_p([[0, 0, 1], [0, 0, 2], [0, 3, 0]]) == 2
    assert dense_rank_mod_p([[0, 0], [0, 0], [0, 7]]) == 1
    # tall and wide
    tall = [[k, k * k] for k in range(1, 9)]
    assert dense_rank_mod_p(tall) == schoolbook_rank_mod_p(tall) == 2
    wide = [list(range(k, k + 40)) for k in range(3)]
    assert dense_rank_mod_p(wide) == schoolbook_rank_mod_p(wide) == 2
    # the caller's rows are not modified
    rows = [{0: 2, 1: 4}, {0: 1, 1: 2, 2: p}]
    assert rank_mod_p(rows) == 1
    assert rows == [{0: 2, 1: 4}, {0: 1, 1: 2, 2: p}]


@pytest.mark.parametrize("i", [1, 2, 3])
def test_rank_mod_p_matches_schoolbook_on_cyclotomic_matrices(i):
    # the rows of the action of C_i(3), keyed by degree, row-major and
    # dense: the column order leaves the rank as it is
    rng = random.Random(23 + i)
    for z in [(0, 0, 0), tuple(rng.randint(-5, 5) for _ in range(3))]:
        ctx = CycloContext(3, i, z_values=z)
        d = len(ctx.module_basis())
        rows = list(_action_rows(ctx))
        row_major = [{k % (d * d): v for k, v in row.items()} for row in rows]
        dense = [[row.get(k, 0) for k in range(d * d)] for row in row_major]
        expected = schoolbook_rank_mod_p(dense)
        assert rank_mod_p(rows) == rank_mod_p(row_major) == expected


@pytest.mark.parametrize("i, expected", [(3, 144), (4, 576)])
def test_spanning_rank_at_four(i, expected):
    rng = random.Random(24 + i)
    assert spanning_rank(4, i, (0,) * 4) == expected
    assert spanning_rank(4, i, tuple(rng.randint(-5, 5) for _ in range(4))) == expected


def test_determinant_of_the_empty_matrix_is_one():
    det = determinant([])
    assert det == 1 and type(det) is Fraction


def test_singular_matrix_found_after_a_row_swap():
    # column 0 needs a swap; the third row then vanishes at the last pivot
    mat = [[0, 1, 1], [1, 1, 1], [2, 2, 2]]
    assert determinant(mat) == leibniz(mat) == 0
    # the second pivot needs a swap too, and the last column is then zero
    mat = [[0, 1, 0, 0], [1, 2, 0, 0], [0, 0, 0, 3], [0, 0, 0, 5]]
    assert determinant(mat) == leibniz(mat) == 0
    # regular matrices: one swap flips the sign, two swaps keep it
    mat = [[0, 2, 0], [3, 0, 0], [0, 0, 5]]
    assert determinant(mat) == leibniz(mat) == -30
    mat = [[0, 2, 0], [0, 0, 5], [3, 0, 0]]
    assert determinant(mat) == leibniz(mat) == 30


def test_determinant_of_the_nil_hecke_gram_matrix():
    from test_nilhecke import frobenius_gram_matrix

    gram = frobenius_gram_matrix(3)
    assert len(gram) == 36
    _, expected = schoolbook(gram)
    det = determinant(gram)
    assert type(det) is Fraction and det == expected
    assert det in (1, -1)

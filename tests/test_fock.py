import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quiverhecke import cli, fock
from quiverhecke.fock import (
    FockVector,
    _box_moves,
    affine_cartan,
    all_partitions,
    check_partition,
    d_op,
    e_op,
    f_op,
    operator_matrix,
    residue_content,
    transpose,
    weight_pairing,
)


def vec(parts):
    return FockVector.basis(parts)


def test_all_partitions_counts():
    # partition numbers 1,1,2,3,5,7,11,15,22,30
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, count in enumerate(expected):
        assert len(list(all_partitions(n))) == count


def test_transpose_involution():
    for n in range(9):
        for parts in all_partitions(n):
            assert transpose(transpose(parts)) == parts


def test_worked_example_p3():
    p = 3
    lam = (3, 1)
    assert f_op(0, p, vec(lam)) == vec((4, 1)) + vec((3, 2))
    assert f_op(1, p, vec(lam)) == vec((3, 1, 1))
    assert f_op(2, p, vec(lam)).is_zero()
    assert e_op(2, p, vec(lam)) == vec((2, 1)) + vec((3,))
    assert e_op(0, p, vec(lam)).is_zero()
    assert e_op(1, p, vec(lam)).is_zero()


def _box_count(parts, i, p):
    """Addable less removable boxes of residue i, read off the diagram."""
    addable, removable = _reference_boxes(parts, p)
    return sum(res == i for *_, res in addable) - sum(res == i for *_, res in removable)


def test_commutator_e_f():
    # [e_i, f_j] = delta_ij * (addable_i - removable_i) on each partition
    for p in (2, 3, 5):
        for n in range(9):
            for parts in all_partitions(n):
                v = vec(parts)
                for i in range(p):
                    for j in range(p):
                        lhs = e_op(i, p, f_op(j, p, v)) - f_op(
                            j, p, e_op(i, p, v)
                        )
                        if i != j:
                            assert lhs.is_zero(), (p, parts, i, j)
                        else:
                            assert lhs == v.scale(_box_count(parts, i, p)), (p, parts, i)


def test_commutator_matches_weight_pairing():
    for p in (2, 3, 5):
        for n in range(8):
            for parts in all_partitions(n):
                for i in range(p):
                    assert _box_count(parts, i, p) == weight_pairing(parts, i, p), (p, parts, i)


def test_transpose_adjointness():
    # coefficient of mu in f_i(lambda) = coefficient of mu^t in f_{-i}(lambda^t)
    for p in (2, 3, 5):
        for n in range(8):
            for lam in all_partitions(n):
                for i in range(p):
                    img = f_op(i, p, vec(lam))
                    img_t = f_op((-i) % p, p, vec(transpose(lam)))
                    assert {
                        transpose(mu): c for mu, c in img.terms.items()
                    } == img_t.terms


def test_e_f_matrix_transpose():
    # the matrix of e_i on layer n+1 is the transpose of the matrix of f_i on layer n
    for p in (2, 3):
        for n in range(7):
            for i in range(p):
                rows_f, cols_f, mat_f = operator_matrix("f", i, p, n)
                rows_e, cols_e, mat_e = operator_matrix("e", i, p, n + 1)
                assert rows_f == cols_e and cols_f == rows_e
                for a in range(len(rows_f)):
                    for b in range(len(cols_f)):
                        assert mat_f[a][b] == mat_e[b][a]


def test_d_operator_commutators():
    for p in (2, 3, 5):
        for n in range(7):
            for parts in all_partitions(n):
                v = vec(parts)
                for i in range(p):
                    lhs = d_op(p, f_op(i, p, v)) - f_op(i, p, d_op(p, v))
                    if i == 0:
                        assert lhs == f_op(0, p, v)
                    else:
                        assert lhs.is_zero()


def test_d_eigenvalue():
    p = 3
    assert d_op(p, vec((3, 1))) == vec((3, 1))  # one box of residue 0 ... check
    # residues of (3,1): 0,1,2 / 2 -> exactly one residue-0 box
    assert residue_content((3, 1), 3) == (1, 1, 2)


def test_affine_cartan_shapes():
    assert affine_cartan(2) == ((2, -2), (-2, 2))
    a3 = affine_cartan(3)
    for i in range(3):
        assert a3[i][i] == 2
        for j in range(3):
            if i != j:
                assert a3[i][j] == -1
    a5 = affine_cartan(5)
    assert a5[0][1] == a5[0][4] == -1
    assert a5[0][2] == a5[0][3] == 0
    # rows sum to zero (affine)
    for p in (2, 3, 5):
        for row in affine_cartan(p):
            assert sum(row) == 0


def test_affine_cartan_is_the_cyclic_quivers():
    # a_ij = 2 delta_ij - [j = i + 1 mod p] - [i = j + 1 mod p]: the loop
    # at p = 1 gives a_00 = 0, the two arrows at p = 2 give -2
    for p in range(1, 8):
        expected = tuple(
            tuple(
                2 * (i == j) - ((j - i) % p == 1 % p) - ((i - j) % p == 1 % p)
                for j in range(p)
            )
            for i in range(p)
        )
        assert affine_cartan(p) == expected
    assert affine_cartan(1) == ((0,),)


def test_malformed_partition_raises_under_optimize():
    # `python -O` strips asserts; each malformed partition must still raise
    code = (
        "import sys\n"
        "from quiverhecke.fock import FockVector, check_partition, transpose\n"
        "cases = [\n"
        "    lambda: check_partition((2, 0)),\n"
        "    lambda: check_partition((3, -1)),\n"
        "    lambda: check_partition((2.0, 1)),\n"
        "    lambda: check_partition(('2',)),\n"
        "    lambda: check_partition((1, 2)),\n"
        "    lambda: check_partition((3, 1, 2)),\n"
        "    lambda: transpose((1, 3)),\n"
        "    lambda: FockVector.basis((0,)),\n"
        "    lambda: FockVector({(2, 1): 1, (1, 2): 1}),\n"
        "]\n"
        "for case in cases:\n"
        "    try:\n"
        "        case()\n"
        "        print('accepted')\n"
        "    except ValueError:\n"
        "        print('raised')\n"
        "print(check_partition([3, 3, 1]), check_partition(()))\n"
        "print(sys.flags.optimize)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["raised"] * 9 + ["(3,", "3,", "1)", "()", "1"]


def test_box_moves_give_partitions():
    # the table of box moves does not re-check what it builds: every image
    # of f_i and e_i must be a partition of the adjacent size all the same
    for size in range(11):
        for parts in all_partitions(size):
            for p in (2, 3, 5):
                for i in range(p):
                    for op, target in ((f_op, size + 1), (e_op, size - 1)):
                        for key in op(i, p, vec(parts)).terms:
                            assert check_partition(key) == key
                            assert sum(key) == target


def _reference_boxes(parts, p):
    """Addable and removable boxes from the Young diagram as a set of
    cells: a cell is addable when the diagram plus it is a diagram, and
    removable when the diagram less it is one, row by row."""
    cells = {(r, c) for r, n in enumerate(parts, start=1) for c in range(1, n + 1)}

    def is_diagram(cs):
        return all((r == 1 or (r - 1, c) in cs) and (c == 1 or (r, c - 1) in cs) for r, c in cs)

    width = parts[0] if parts else 0
    candidates = sorted(itertools.product(range(1, len(parts) + 2), range(1, width + 2)))
    addable = tuple(
        (r, c, (c - r) % p) for r, c in candidates if (r, c) not in cells and is_diagram(cells | {(r, c)})
    )
    removable = tuple(
        (r, c, (c - r) % p) for r, c in candidates if (r, c) in cells and is_diagram(cells - {(r, c)})
    )
    return addable, removable


def _shape(cells):
    """The partition whose Young diagram is the set of cells ``cells``."""
    rows = [r for r, _ in cells]
    return tuple(rows.count(r) for r in range(1, max(rows, default=0) + 1))


def test_memoized_boxes_match_the_diagram():
    # the table of box moves is memoized per (partition, p): asked twice,
    # it holds, per residue that has a move and in row order, the diagram
    # plus each addable cell and the diagram less each removable cell
    for _ in range(2):
        for size in range(9):
            for parts in all_partitions(size):
                cells = {(r, c) for r, n in enumerate(parts, start=1) for c in range(1, n + 1)}
                for p in (1, 2, 3, 5):
                    addable, removable = _reference_boxes(parts, p)
                    expected = {}
                    for r, c, res in addable:
                        expected.setdefault(res, ([], []))[0].append(_shape(cells | {(r, c)}))
                    for r, c, res in removable:
                        expected.setdefault(res, ([], []))[1].append(_shape(cells - {(r, c)}))
                    expected = {i: (tuple(a), tuple(b)) for i, (a, b) in expected.items()}
                    assert _box_moves(parts, p) == expected, (parts, p)


@pytest.mark.parametrize("p", [2, 4])
def test_shifted_residue_fails_the_commutator_check(monkeypatch, capsys, p):
    # with the residue off by one, the box moves are those of a Fock space
    # whose first box has residue 1, so [e_0, f_0] no longer pairs with
    # Lambda_0; fock-p3-example, which would catch it, runs at p = 3 only.
    # The memo is cleared on both sides, so no shifted entry outlives this
    _box_moves.cache_clear()
    monkeypatch.setattr(fock, "residue", lambda row, col, p: (col - row + 1) % p)
    try:
        code = cli.main(["verify", "fock", "--p", str(p), "--max-size", "6", "--format", "text"])
    finally:
        _box_moves.cache_clear()
    out = capsys.readouterr().out
    assert code == 1
    assert f'FAIL fock-commutators {{"max_size": 6, "p": {p}}}' in out
    assert "PASS fock-transpose-adjointness" in out

import itertools
import os
import subprocess
import sys
from pathlib import Path

from quiverhecke.fock import (
    FockVector,
    addable_boxes,
    affine_cartan,
    all_partitions,
    d_op,
    e_op,
    f_op,
    operator_matrix,
    removable_boxes,
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
                            diff = len(
                                [b for b in addable_boxes(parts, p) if b[2] == i]
                            ) - len(
                                [b for b in removable_boxes(parts, p) if b[2] == i]
                            )
                            assert lhs == v.scale(diff), (p, parts, i)


def test_commutator_matches_weight_pairing():
    for p in (2, 3, 5):
        for n in range(8):
            for parts in all_partitions(n):
                for i in range(p):
                    diff = len(
                        [b for b in addable_boxes(parts, p) if b[2] == i]
                    ) - len(
                        [b for b in removable_boxes(parts, p) if b[2] == i]
                    )
                    assert diff == weight_pairing(parts, i, p), (p, parts, i)


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

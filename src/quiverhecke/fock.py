"""
Level-one Fock space combinatorics for affine sl_p.

Basis: partitions, written as weakly decreasing tuples of positive
integers.  The box in row r, column c (both 1-indexed) has residue
(c - r) mod p.  The operator f_i adds, and e_i removes, one box of
residue i (summing over all ways), as the memoized table ``_box_moves``
of each (partition, p) lists them; d counts the boxes of residue 0.

The weight of a partition is recorded through its residue content
c_j = #{boxes of residue j}; the pairing of Lambda_0 - sum_j c_j alpha_j
with alpha_i^vee is delta_{i,0} - sum_j c_j a_{ij} (``weight_pairings``
gives all p of them), where a is the affine Cartan matrix of type
A_{p-1}^{(1)}, read from the cyclic quiver ``klr.cyclic_quiver(p)`` (so
a_{01} = a_{10} = -2 at p = 2).
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

from .klr import cyclic_quiver
from .linalg import Combination, bump


def check_partition(parts) -> tuple:
    """``parts`` as a tuple, or ValueError unless its parts are positive
    ints, weakly decreasing (so all positive once the last one is)."""
    parts = tuple(parts)
    if not all(map(isinstance, parts, itertools.repeat(int))) or (parts and parts[-1] < 1):
        raise ValueError(f"{parts}: the parts of a partition are positive ints")
    if any(map(operator.lt, parts, parts[1:])):
        raise ValueError(f"{parts}: the parts of a partition are weakly decreasing")
    return parts


def all_partitions(n: int):
    """All partitions of n, deterministic order (largest first parts first)."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def transpose(parts) -> tuple:
    parts = check_partition(parts)
    if not parts:
        return ()
    return tuple(
        sum(1 for a in parts if a >= c) for c in range(1, parts[0] + 1)
    )


def residue(row: int, col: int, p: int) -> int:
    """Residue of the box in (row, col), 1-indexed: (col - row) mod p."""
    return (col - row) % p


@lru_cache(maxsize=None)
def _box_moves(parts: tuple, p: int) -> dict:
    """The box moves of a partition already checked, memoized per
    (partition, p) and never mutated: residue i -> the pair (the
    partitions that adding one box of residue i gives, those that
    removing one leaves), each in row order.  Only the residues of its
    at most 2 len(parts) + 1 corners are keys, whatever p is."""
    moves = {}
    for r, (length, below) in enumerate(zip(parts + (0,), parts[1:] + (0, 0))):
        if r == 0 or length < parts[r - 1]:
            grown = parts[:r] + (length + 1,) + parts[r + 1 :]
            moves.setdefault(residue(r + 1, length + 1, p), ([], []))[0].append(grown)
        if length > below:
            shrunk = parts[:r] + ((length - 1,) if length > 1 else ()) + parts[r + 1 :]
            moves.setdefault(residue(r + 1, length, p), ([], []))[1].append(shrunk)
    return {i: (tuple(grown), tuple(shrunk)) for i, (grown, shrunk) in moves.items()}


def residue_content(parts, p: int) -> tuple:
    """c_j = number of boxes of residue j, as a tuple of length p."""
    parts = check_partition(parts)
    counts = [0] * p
    for r, row_len in enumerate(parts, start=1):
        for c in range(1, row_len + 1):
            counts[residue(r, c, p)] += 1
    return tuple(counts)


class FockVector(Combination):
    """Finite Z-linear combination of partitions."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for parts, c in terms.items():
                if c != 0:
                    self.terms[check_partition(parts)] = c

    @staticmethod
    def basis(parts) -> "FockVector":
        return FockVector({tuple(parts): 1})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items())
        return " + ".join(f"{c}*{list(p)}" for p, c in items)


def f_op(i: int, p: int, v: FockVector) -> FockVector:
    """Add one box of residue i in all possible ways (the keys of ``v``
    are partitions checked when it was built)."""
    out = {}
    for parts, c in v.terms.items():
        for grown in _box_moves(parts, p).get(i % p, ((), ()))[0]:
            bump(out, grown, c)
    return v._like(out)


def e_op(i: int, p: int, v: FockVector) -> FockVector:
    """Remove one box of residue i in all possible ways (the keys of
    ``v`` are partitions checked when it was built)."""
    out = {}
    for parts, c in v.terms.items():
        for shrunk in _box_moves(parts, p).get(i % p, ((), ()))[1]:
            bump(out, shrunk, c)
    return v._like(out)


def d_op(p: int, v: FockVector) -> FockVector:
    """d(lambda) = N_0(lambda) * lambda, N_0 = number of residue-0 boxes."""
    out = {}
    for parts, c in v.terms.items():
        bump(out, parts, c * residue_content(parts, p)[0])
    return v._like(out)


@lru_cache(maxsize=None)
def affine_cartan(p: int):
    """Cartan matrix of type A_{p-1}^{(1)}, indices 0..p-1: that of the
    cyclic quiver with p vertices (a_{00} = 0 at p = 1 from its loop,
    off-diagonal entries -2 at p = 2 from its two arrows)."""
    quiver = cyclic_quiver(p)
    return tuple(
        tuple(quiver.cartan(i, j) for j in quiver.vertices)
        for i in quiver.vertices
    )


def weight_pairings(parts, p: int) -> tuple:
    """<Lambda_0 - sum_j c_j alpha_j, alpha_i^vee> for i = 0..p-1, all
    from one residue content of the given partition."""
    c = residue_content(parts, p)
    return tuple(
        (1 if i == 0 else 0) - sum(map(operator.mul, c, row))
        for i, row in enumerate(affine_cartan(p))
    )


def operator_matrix(op_letter: str, i: int, p: int, size: int):
    """Matrix of f_i (or e_i) from partitions of `size` to the adjacent layer.

    Returns (rows, cols, matrix) with rows indexing the target layer and
    cols the source layer, both in the deterministic all_partitions order.
    """
    cols = list(all_partitions(size))
    target = size + 1 if op_letter == "f" else size - 1
    rows = list(all_partitions(target)) if target >= 0 else []
    row_of = {parts: k for k, parts in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for jc, parts in enumerate(cols):
        v = FockVector.basis(parts)
        image = f_op(i, p, v) if op_letter == "f" else e_op(i, p, v)
        for out_parts, c in image.terms.items():
            mat[row_of[out_parts]][jc] = c
    return rows, cols, mat

"""
Exact sparse linear algebra over Q, and a fraction-free determinant.

A vector is a dict {column key: coefficient} with mutually comparable
keys; its smallest key is its lead.  Coefficients are exact ``int`` or
``Fraction``: integer rows stay integer until a pivot other than +-1 has
to be inverted, so an elimination with unit pivots builds no Fraction.
Eliminations over other fields stay with their callers: `hall.rref`
(GF(q) lookup tables) and `cyclotomic._rank_mod_p` (an int64 numpy array
modulo a prime, updating only the rows that are nonzero in each pivot
column).  `determinant` is fraction-free: Bareiss elimination on
integers, with one Fraction at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class Echelon:
    """Sparse rows over Q keyed by leading column: ``rows[lead]`` has
    coefficient 1 at ``lead`` and no smaller key, so the rows are
    independent and ``len`` is the rank of what was inserted.  Entries
    are exact int or Fraction."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

    def __len__(self):
        return len(self.rows)

    def reduce(self, vec) -> dict:
        """A copy of ``vec``, exact int or Fraction, with its lead reduced
        until it is no stored row's lead.  Empty exactly when ``vec`` lies
        in the span of the rows."""
        vec = {k: c for k, c in vec.items() if c}
        rows = self.rows
        while vec:
            lead = min(vec)
            row = rows.get(lead)
            if row is None:
                break
            factor = vec[lead]
            for k, c in row.items():
                nv = vec.get(k, 0) - factor * c
                if nv:
                    vec[k] = nv
                else:
                    del vec[k]
        return vec

    def insert(self, vec) -> dict:
        """Reduce ``vec`` and store it as a new row unless it vanished.

        Returns the reduced vector before normalization, so its lead
        entry is the pivot; empty when ``vec`` was already in the span.
        The stored row becomes a Fraction row only when the pivot is not
        +-1.
        """
        vec = self.reduce(vec)
        if vec:
            lead = min(vec)
            pivot = vec[lead]
            if pivot == 1:
                row = dict(vec)
            elif pivot == -1:
                row = {k: -c for k, c in vec.items()}
            else:
                inv = 1 / Fraction(pivot)
                row = {k: c * inv for k, c in vec.items()}
            self.rows[lead] = row
        return vec


def rank(rows) -> int:
    """Rank over Q of sparse rows ({column: coefficient} dicts)."""
    echelon = Echelon()
    for row in rows:
        echelon.insert(row)
    return len(echelon)


def determinant(matrix) -> Fraction:
    """Exact determinant of a square matrix given as a list of rows.

    Fraction-free Bareiss elimination (Math. Comp. 22, 1968) on the rows
    cleared of denominators by their lcms: step k replaces each entry
    below and right of the pivot by its 2x2 minor with the pivot, divided
    exactly by the previous pivot, so the last pivot is the determinant
    up to the sign of the row swaps.  The result is that divided by the
    product of the lcms.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    rows, scale = [], 1
    for row in matrix:
        den = lcm(*(c.denominator for c in row))
        rows.append([c.numerator * (den // c.denominator) for c in row])
        scale *= den
    sign, prev = 1, 1
    for k in range(size):
        piv = next((r for r in range(k, size) if rows[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k]
        pivot = top[k]
        for r in range(k + 1, size):
            row, f = rows[r], rows[r][k]
            rows[r] = [0] * (k + 1) + [
                (pivot * row[c] - f * top[c]) // prev for c in range(k + 1, size)
            ]
        prev = pivot
    return Fraction(sign * prev, scale)

"""
Sparse vectors and exact sparse linear algebra over Q, and a
fraction-free determinant.

A vector is a dict {key: nonzero coefficient}; `bump` adds into one
entry and keeps it so, and `add_column` adds c times a memoized column
(of the nil Hecke and quiver Hecke layers).  `Combination` is the base of
the package's element types (Laurent and multivariate polynomials, nil
Hecke, KLR, Fock and Hall elements), which are such vectors over a basis,
and `format_terms` is the text form of the polynomials among them.  Their
parent slots precede ``terms``, so they inherit ``_like`` and ``_check``;
`MPoly` and `NilHeckeElement` override both for measured speed.

For elimination the keys are mutually comparable column keys, and a
vector's smallest key is its lead.  Over Q (`Echelon`) coefficients are
exact ``int`` or ``Fraction``: integer rows stay integer until a pivot
other than +-1 has to be inverted, so an elimination with unit pivots
builds no Fraction.  `rank_mod_p` is the same elimination over GF(PRIME) on
Python ints; its cost follows the fill-in, which the caller's choice of
column keys decides.  `hall.rref` keeps its own GF(q) lookup tables.
`determinant` is fraction-free: Bareiss elimination on integers, with
one Fraction at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

PRIME = 999983  # the prime of the modular ranks


def bump(out, key, val):
    """out[key] += val, dropping the entry when the sum is zero."""
    if key in out:
        val = out[key] + val
    if val:
        out[key] = val
    else:
        out.pop(key, None)


def add_column(out, column, c):
    """out += c * column, column an iterable of (key, coefficient) pairs."""
    for m, k in column:
        k = out.get(m, 0) + k * c  # `bump`, inlined in this hot loop
        if k:
            out[m] = k
        else:
            out.pop(m, None)


def format_terms(pairs) -> str:
    """The text of a sum of (coefficient, monomial) pairs, the monomial a
    string, "" for the unit: "c*m", or "m" and "-m" when c = +-1, joined
    by " + " and " - " in the given order; "0" for no pairs."""
    out = ""
    for c, mono in pairs:
        if not mono:
            term = str(c)
        elif c == 1:
            term = mono
        elif c == -1:
            term = "-" + mono
        else:
            term = f"{c}*{mono}"
        if not out:
            out = term
        elif term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out or "0"


class Combination:
    """A finite linear combination: ``terms`` maps basis keys to nonzero
    coefficients (exact scalars, or ring elements such as polynomials).

    A subclass lists its parent (the ring, algebra or module it lies in)
    in its ``__slots__`` before ``terms``, which comes last.  It inherits
    ``_like(terms)``, a sibling with the same parent built from trusted
    terms, and ``_check(other)``, raising ValueError when a parent slot of
    ``other`` differs (`MPoly` and `NilHeckeElement` override both for
    measured speed), and may supply ``_coerce(c)``, c * 1 for an int or
    Fraction c (default None: no unit).  An operand of another type gives
    NotImplemented, ``==`` is False across parents, and powers use the
    subclass's ``__mul__``.
    """

    __slots__ = ()

    def _like(self, terms):
        out = object.__new__(type(self))
        for name in self.__slots__[:-1]:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def _check(self, other):
        for name in self.__slots__[:-1]:
            if getattr(self, name) != getattr(other, name):
                raise ValueError(
                    f"operands of {type(self).__name__} with different {name}"
                )

    def _coerce(self, c):
        return None

    def _operand(self, other):
        """``other`` of self's type, c * 1 for an int or Fraction c, or None."""
        if type(other) is type(self):
            return other
        if isinstance(other, (int, Fraction)):
            return self._coerce(other)
        return None

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = self._operand(other)
        if other is None:
            return NotImplemented
        try:
            self._check(other)
        except ValueError:
            return False
        return self.terms == other.terms

    def __hash__(self):
        # an element equal to a scalar c (zero, or c times the unit) hashes
        # as c, so that it meets c in a set or dict
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1:
            one = self._coerce(1)
            if one is not None and terms.keys() == one.terms.keys():
                return hash(next(iter(terms.values())))
        return hash(frozenset(terms.items()))

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():  # `bump`, inlined in this hot loop
            if key in out:
                c = out[key] + c
                if not c:
                    del out[key]
                    continue
            out[key] = c
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        """c * self, the scalar c multiplying each coefficient on the left."""
        out = {}
        for key, a in self.terms.items():
            a = c * a
            if a:
                out[key] = a
        return self._like(out)

    def __pow__(self, k):
        one = self._coerce(1)
        if not isinstance(k, int) or k < 0 or one is None:
            raise ValueError(f"no power {k!r} of a {type(self).__name__}")
        out, base = one, self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out


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


def rank_mod_p(rows) -> int:
    """Rank modulo PRIME of sparse integer rows ({column: int} dicts) by a
    copy of `Echelon`'s loop; the rows given are not modified.  One shared
    loop, with a branch per entry or with only the leads taken modulo
    PRIME, made the rank of C_4(5) 15-22% slower."""
    p = PRIME
    pivots = {}
    for vec in rows:
        vec = {k: c % p for k, c in vec.items() if c % p}
        while vec and (lead := min(vec)) in pivots:
            factor = vec[lead]
            for k, c in pivots[lead].items():
                nv = (vec.get(k, 0) - factor * c) % p
                if nv:
                    vec[k] = nv
                else:
                    del vec[k]
        if vec:
            inv = pow(vec[lead], p - 2, p)
            pivots[lead] = {k: c * inv % p for k, c in vec.items()}
    return len(pivots)


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

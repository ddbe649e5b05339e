"""
Laurent polynomials in one variable with exact coefficients.

Used for graded dimensions (variable v = q^{1/2}, with deg X = 2 so that
polynomial degrees land on even powers of v) and for the twisted Hall
algebra, whose structure constants live in Z[v, v^{-1}].  The balanced
q-numbers [k], [k]! and [n choose k] live here: the Poincare product form,
the graded ranks of the cyclotomic quotients and the Hall Serre
coefficients are read off them.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Combination, format_terms


class Laurent(Combination):
    """A Laurent polynomial sum_k c_k * t^k, stored as terms {k: c_k}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, c in terms.items():
                if c != 0:
                    self.terms[k] = c

    @staticmethod
    def zero() -> "Laurent":
        return Laurent()

    @staticmethod
    def one() -> "Laurent":
        return Laurent({0: 1})

    @staticmethod
    def gen(power: int = 1) -> "Laurent":
        """The monomial t^power."""
        return Laurent({power: 1})

    @staticmethod
    def const(c) -> "Laurent":
        return Laurent({0: c})

    _coerce = const

    # traced by the benchmark, so bound in this class body
    __add__ = __radd__ = Combination.__add__

    def __mul__(self, other) -> "Laurent":
        if isinstance(other, (int, Fraction)):
            return Laurent({k: c * other for k, c in self.terms.items()})
        return self._like(mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def substitute(self, value):
        """Evaluate at t = value (value must be invertible if negative powers occur)."""
        total = 0
        for k, c in self.terms.items():
            if k >= 0:
                total += c * value ** k
            else:
                total += c * Fraction(1, 1) / value ** (-k)
        return total

    def str_in(self, var: str) -> str:
        """Canonical rendering with the given variable name, powers ascending."""
        return format_terms(
            (self.terms[k], "" if k == 0 else var if k == 1 else f"{var}^{k}")
            for k in sorted(self.terms)
        )

    def __repr__(self) -> str:
        return self.str_in("t")


def mul_terms(a: dict, b: dict) -> dict:
    """The product of two Laurent term dicts {power: coefficient}."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            c = out.get(k, 0) + c1 * c2
            if c:
                out[k] = c
            else:
                out.pop(k, None)
    return out


# -- balanced q-numbers in v = q^{1/2} ------------------------------------


def q_integer(k: int) -> Laurent:
    """The quantum integer [k] = (v^k - v^{-k}) / (v - v^{-1})
    = v^{k-1} + v^{k-3} + ... + v^{1-k}, for k >= 0 ([0] = 0)."""
    if k < 0:
        raise ValueError(f"the quantum integer [{k}] needs k >= 0")
    return Laurent({e: 1 for e in range(1 - k, k, 2)})


def q_factorial(k: int) -> Laurent:
    """[k]! = [1][2]...[k], for k >= 0."""
    if k < 0:
        raise ValueError(f"the quantum factorial [{k}]! needs k >= 0")
    out = Laurent.one()
    for j in range(2, k + 1):
        out = out * q_integer(j)
    return out


def q_binomial(n: int, k: int) -> Laurent:
    """The quantum binomial [n choose k] = [n]! / ([k]! [n-k]!); zero
    unless 0 <= k <= n.  Rows of the q-Pascal rule
    [m, j] = v^{-j} [m-1, j] + v^{m-j} [m-1, j-1], with no division."""
    if not 0 <= k <= n:
        return Laurent.zero()
    row = [Laurent.one()]
    for m in range(1, n + 1):
        row = [
            (Laurent.gen(-j) * row[j] if j < m else Laurent.zero())
            + (Laurent.gen(m - j) * row[j - 1] if j else Laurent.zero())
            for j in range(m + 1)
        ]
    return row[k]

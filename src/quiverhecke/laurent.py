"""
Laurent polynomials in one variable with exact coefficients.

Used for graded dimensions (variable v = q^{1/2}, with deg X = 2 so that
polynomial degrees land on even powers of v) and for the twisted Hall
algebra, whose structure constants live in Z[v, v^{-1}].
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Combination


class Laurent(Combination):
    """A Laurent polynomial sum_k c_k * t^k, stored as terms {k: c_k}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, c in terms.items():
                if c != 0:
                    self.terms[k] = c

    def _like(self, terms) -> "Laurent":
        res = Laurent()
        res.terms = terms
        return res

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
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if s == 0:
                    out.pop(k, None)
                else:
                    out[k] = s
        return self._like(out)

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

    def invert_variable(self) -> "Laurent":
        """t -> t^{-1}."""
        return Laurent({-k: c for k, c in self.terms.items()})

    def truncate(self, max_power: int) -> "Laurent":
        """Drop all terms of power > max_power."""
        return Laurent({k: c for k, c in self.terms.items() if k <= max_power})

    def str_in(self, var: str) -> str:
        """Canonical rendering with the given variable name, powers ascending."""
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
            if k == 0:
                term = str(c)
            else:
                mono = var if k == 1 else f"{var}^{k}"
                if c == 1:
                    term = mono
                elif c == -1:
                    term = "-" + mono
                else:
                    term = f"{c}*{mono}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def __repr__(self) -> str:
        return self.str_in("t")


def geometric_truncated(power_step: int, cutoff: int) -> Laurent:
    """1 + t^s + t^{2s} + ... up to powers <= cutoff (the series 1/(1 - t^s))."""
    assert power_step > 0
    return Laurent({k: 1 for k in range(0, cutoff + 1, power_step)})


def series_product(factors, cutoff: int) -> Laurent:
    """Product of Laurent series truncated at the given power cutoff."""
    out = Laurent.one()
    for f in factors:
        out = (out * f).truncate(cutoff)
    return out

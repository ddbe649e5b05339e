"""
Exact sparse multivariate polynomials and Demazure operators.

P_n = Z[X_1, ..., X_n] with the symmetric group permuting the X block;
an optional tail of named parameter variables (z_1, ..., or q, t, ...)
is carried along untouched by the group action.  Coefficients are exact
(int, promoted to Fraction on demand).  Each X variable sits in degree
2, parameters declare their own degrees.

`MPoly` wraps kernels on term dicts {exponents: coefficient}: the product
`add_product`, the swap `swap_terms` of X_i and X_{i+1} (`swap_adjacent` on
one tuple), and `demazure_terms`, a word of Demazure operators d_i(P) =
(P - s_i(P)) / (X_{i+1} - X_i) applied right to left through the memoized
closed-form column `demazure_exponents`.  The nil Hecke monomial columns
(`nilhecke._t_step`, `_d_column`), klr's `tau_column` and the Hecke
bridge's generators are built from these steps too.
Division by X_a - X_b is closed form monomial by monomial too
(`try_divide_by_x_difference`).  `divide_exact_by_x_difference`, and
`divide_exact` for any divisor, raise ArithmeticError when it is not exact.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from operator import add

from .coxeter import Permutation, length_order
from .linalg import Combination, bump, format_terms


class MPoly(Combination):
    """Sparse polynomial in X_1..X_nx plus parameters, exact coefficients."""

    __slots__ = ("nx", "params", "terms")

    def __init__(self, nx, params=(), terms=None):
        self.nx = nx
        self.params = tuple(params)
        self.terms = {}
        if terms:
            width = nx + len(self.params)
            for exps, c in terms.items():
                if len(exps) != width:
                    raise ValueError(
                        f"exponents {tuple(exps)} need {width} entries"
                    )
                if c != 0:
                    self.terms[tuple(exps)] = c

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nx, params=()):
        return MPoly(nx, params)

    @staticmethod
    def const(c, nx, params=()):
        p = MPoly(nx, params)
        if c != 0:
            p.terms[(0,) * (nx + len(p.params))] = c
        return p

    @staticmethod
    def one(nx, params=()):
        return MPoly.const(1, nx, params)

    @staticmethod
    def x(i, nx, params=()):
        """The variable X_i (1-indexed)."""
        if not 1 <= i <= nx:
            raise ValueError(f"X_{i} is not among X_1..X_{nx}")
        exps = [0] * (nx + len(params))
        exps[i - 1] = 1
        return MPoly(nx, params, {tuple(exps): 1})

    # not inherited: the generic pair ran nilhecke-demazure 13-16% slower
    def _like(self, terms):
        p = MPoly(self.nx, self.params)
        p.terms = terms
        return p

    def _check(self, other):
        if self.nx != other.nx or self.params != other.params:
            raise ValueError(
                f"operands in {self.var_names()} and {other.var_names()}"
            )

    def _coerce(self, c):
        return MPoly.const(c, self.nx, self.params)

    # -- arithmetic ---------------------------------------------------

    # traced by the benchmark, so bound in this class body
    __add__ = __radd__ = Combination.__add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MPoly.zero(self.nx, self.params)
            return self._like({e: c * other for e, c in self.terms.items()})
        self._check(other)
        return self._like(add_product({}, self.terms, other.terms))

    __rmul__ = __mul__

    # -- structure ----------------------------------------------------

    # -- group action and Demazure operators --------------------------

    def act(self, w: Permutation):
        """Apply a permutation to the X block: X_i -> X_{w(i)}."""
        if w.n > self.nx:
            raise ValueError(f"a permutation of {w.n} acts on {self.nx} X's")
        n = w.n
        return self._like({w.act_on_list(e[:n]) + e[n:]: c for e, c in self.terms.items()})

    def act_simple(self, i):
        """Swap X_i and X_{i+1}."""
        if not 1 <= i < self.nx:
            raise ValueError(f"s_{i} is undefined on {self.nx} variables")
        return self._like(swap_terms(self.terms, i))

    def demazure(self, i):
        """d_i(P) = (P - s_i(P)) / (X_{i+1} - X_i), term by term in closed form."""
        if not 1 <= i < self.nx:
            raise ValueError(f"d_{i} is undefined on {self.nx} variables")
        return self._like(demazure_terms(self.terms, (i,)))

    def demazure_word(self, word):
        """Compose Demazure operators along a word: d_{i_1} o ... o d_{i_r}."""
        for i in word:
            if not 1 <= i < self.nx:
                raise ValueError(f"d_{i} is undefined on {self.nx} variables")
        return self._like(demazure_terms(self.terms, word))

    def demazure_perm(self, w: Permutation):
        """d_w along the canonical reduced word of w."""
        return self.demazure_word(w.canonical_word())

    def is_symmetric(self):
        return all(self.act_simple(i) == self for i in range(1, self.nx))

    # -- display ------------------------------------------------------

    def sorted_terms(self):
        """Graded-lexicographic term order (total degree, then exponents)."""
        return sorted(
            self.terms.items(),
            key=lambda item: (sum(item[0]), item[0]),
            reverse=True,
        )

    def var_names(self):
        return tuple(f"X{i}" for i in range(1, self.nx + 1)) + self.params

    def __repr__(self):
        names = self.var_names()
        return format_terms(
            (c, "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k))
            for e, c in self.sorted_terms()
        )


@lru_cache(maxsize=None)
def demazure_exponents(e, i):
    """d_i of the monomial with exponents e, as (sign, exponent tuples).

    With a = e[i-1], b = e[i]: d_i(X_i^a X_{i+1}^b) = sign * (sum of the |a-b|
    monomials X_i^r X_{i+1}^s, r + s = a + b - 1, r, s >= min(a, b)), where
    sign = -1 if a > b else +1.  The other exponents are untouched."""
    a, b = e[i - 1], e[i]
    head, tail = e[: i - 1], e[i + 1:]
    if a > b:
        return -1, tuple(head + (a - 1 - t, b + t) + tail for t in range(a - b))
    return 1, tuple(head + (a + t, b - 1 - t) + tail for t in range(b - a))


def add_product(out, a, b):
    """out += a * b on term dicts; returns out."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            c = c1 * c2
            if e in out:  # `bump`, inlined in this hot loop
                c += out[e]
                if not c:
                    del out[e]
                    continue
            out[e] = c
    return out


def swap_adjacent(e, i):
    """The tuple e with its entries i and i + 1 (1-based) exchanged."""
    return e[: i - 1] + (e[i], e[i - 1]) + e[i + 1:]


def swap_terms(terms, i):
    """The term dict with the exponents of X_i and X_{i+1} swapped."""
    return {swap_adjacent(e, i): c for e, c in terms.items()}


def demazure_terms(terms, word):
    """d_{i_1} o ... o d_{i_r} on a term dict, the word applied right to
    left; the letters are not checked.  The empty word returns `terms`."""
    for i in reversed(word):
        out = {}
        for e, c in terms.items():
            sign, monomials = demazure_exponents(e, i)
            if sign < 0:
                c = -c
            for m in monomials:
                k = out.get(m, 0) + c  # `bump`, inlined in this hot loop
                if k:
                    out[m] = k
                else:
                    out.pop(m, None)
        terms = out
    return terms


def divide_exact_by_x_difference(p: MPoly, a: int, b: int) -> MPoly:
    """Quotient p / (X_a - X_b); raises ArithmeticError if it is not exact."""
    q = try_divide_by_x_difference(p, a, b)
    if q is None:
        raise ArithmeticError(f"{p} is not divisible by X{a} - X{b}")
    return q


def try_divide_by_x_difference(p: MPoly, a: int, b: int):
    """Quotient p / (X_a - X_b) if the division is exact, else None.

    Monomial by monomial in closed form: with k, m the exponents of X_a,
    X_b, X_a^k X_b^m = (X_a - X_b) * sum_{t<k} X_a^{k-1-t} X_b^{m+t}
    + X_b^{k+m}.  The division is exact exactly when the remainders
    X_b^{k+m} cancel.  Raises ValueError unless a != b are among 1..nx."""
    if a == b or not (1 <= a <= p.nx and 1 <= b <= p.nx):
        raise ValueError(f"X{a} - X{b} is not a difference of two of X1..X{p.nx}")
    quot, rem = {}, {}
    for e, c in p.terms.items():
        k, m = e[a - 1], e[b - 1]
        mono = list(e)
        mono[a - 1], mono[b - 1] = 0, k + m
        bump(rem, tuple(mono), c)
        for t in range(k):
            mono[a - 1], mono[b - 1] = k - 1 - t, m + t
            bump(quot, tuple(mono), c)
    return None if rem else p._like(quot)


def divide_exact(p: MPoly, d: MPoly) -> MPoly:
    """Quotient p / d; raises ArithmeticError if d does not divide p.

    Long division on the lexicographically leading term: when d divides
    p, the leading term of every remainder is divisible by that of d, so
    the first remainder whose leading term is not leaves p indivisible.
    Coefficients are integers where they can be, Fractions otherwise.
    """
    p._check(d)
    if not d:
        raise ZeroDivisionError("division by the zero polynomial")
    lead = max(d.terms)
    lead_c = d.terms[lead]
    rest = [(e, c) for e, c in d.terms.items() if e != lead]
    rem = dict(p.terms)
    quot = {}
    while rem:
        e = max(rem)
        shift = tuple(a - b for a, b in zip(e, lead))
        if min(shift) < 0:
            raise ArithmeticError(f"{d} does not divide {p}")
        c = Fraction(rem.pop(e)) / lead_c
        if c.denominator == 1:
            c = c.numerator
        quot[shift] = c
        for f, fc in rest:
            bump(rem, tuple(a + b for a, b in zip(shift, f)), -c * fc)
    return p._like(quot)


def staircase_monomial(n, params=()):
    """X_2 * X_3^2 * ... * X_n^{n-1}."""
    exps = [0] * (n + len(params))
    for i in range(2, n + 1):
        exps[i - 1] = i - 1
    return MPoly(n, params, {tuple(exps): 1})


def schubert_basis_element(w: Permutation, n: int) -> MPoly:
    """d_w applied to the staircase monomial."""
    return staircase_monomial(n).demazure_perm(w)


def schubert_coordinates(p: MPoly, n: int):
    """Write p = sum_w Q_w * b_w with Q_w symmetric, b_w the Schubert basis.

    Coordinates are extracted triangularly: running through w by
    increasing length, Q_w = d_{w0 w^{-1}} applied to the residual.
    Raises ArithmeticError if a coordinate is not symmetric or the
    residual does not vanish, as happens when p has more variables than n.
    """
    w0 = Permutation.longest(n)
    residual = p
    coords = {}
    for w in length_order(n):
        q = residual.demazure_perm(w0 * w.inverse())
        if not q.is_symmetric():
            raise ArithmeticError(f"Schubert coordinate {q} at {w} is not symmetric")
        if not q.is_zero():
            coords[w] = q
            residual = residual - q * schubert_basis_element(w, n)
    if not residual.is_zero():
        raise ArithmeticError(f"Schubert residual {residual} does not vanish")
    return coords


def elementary_symmetric(r: int, nx: int, params=(), variables=None) -> MPoly:
    """e_r of the X variables with the given 1-based indices (default
    all of X_1, ..., X_nx)."""
    if variables is None:
        variables = range(1, nx + 1)
    terms = {}
    for combo in itertools.combinations(variables, r):
        exps = [0] * (nx + len(params))
        for i in combo:
            exps[i - 1] = 1
        terms[tuple(exps)] = 1
    return MPoly(nx, params, terms)


def exponent_tuples(n: int, max_total: int):
    """All n-tuples (n >= 1) of nonnegative exponents with sum at most
    max_total, by total degree, then lexicographically ascending."""
    for total in range(max_total + 1):
        # stars and bars: n - 1 bar positions among total + n - 1 slots
        for bars in itertools.combinations(range(total + n - 1), n - 1):
            ends = (-1,) + bars + (total + n - 1,)
            yield tuple(b - a - 1 for a, b in zip(ends, ends[1:]))

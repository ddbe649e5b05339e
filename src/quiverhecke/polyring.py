"""
Exact sparse multivariate polynomials and Demazure operators.

P_n = Z[X_1, ..., X_n] with the symmetric group permuting the X block;
an optional tail of named parameter variables (z_1, ..., or q, t, ...)
is carried along untouched by the group action.  Coefficients are exact
(int, promoted to Fraction on demand).  Each X variable sits in degree
2, parameters declare their own degrees.

The Demazure operator d_i(P) = (P - s_i(P)) / (X_{i+1} - X_i) is applied in
closed form monomial by monomial (`demazure_exponents`), without division.
Exact division (by X_a - X_b, or by any polynomial with `divide_exact`)
raises ArithmeticError when it is not exact.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .coxeter import Permutation
from .laurent import Laurent, geometric_truncated, series_product
from .linalg import Combination, bump


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
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return self._like(out)

    __rmul__ = __mul__

    # -- structure ----------------------------------------------------

    def degree(self, param_degrees=None):
        """Total degree with deg X_i = 2; parameter degrees default to 0.

        Returns the max over terms; -1 for the zero polynomial.
        """
        if not self.terms:
            return -1
        pdeg = tuple((param_degrees or {}).get(name, 0) for name in self.params)
        best = None
        for e in self.terms:
            d = 2 * sum(e[: self.nx]) + sum(a * b for a, b in zip(e[self.nx:], pdeg))
            best = d if best is None else max(best, d)
        return best

    def coefficients_in_x(self, i):
        """Decompose as a polynomial in X_i: {k: coefficient poly with X_i^0}."""
        out = {}
        for e, c in self.terms.items():
            out.setdefault(e[i - 1], {})[e[: i - 1] + (0,) + e[i:]] = c
        return {k: self._like(d) for k, d in out.items()}

    def evaluate(self, x_values, param_values=()):
        """Full evaluation at numeric points."""
        vals = tuple(x_values) + tuple(param_values)
        assert len(vals) == self.nx + len(self.params)
        total = 0
        for e, c in self.terms.items():
            t = c
            for v, k in zip(vals, e):
                if k:
                    t *= v ** k
            total += t
        return total

    def map_coefficients(self, fn):
        out = {}
        for e, c in self.terms.items():
            c2 = fn(c)
            if c2 != 0:
                out[e] = c2
        return self._like(out)

    # -- group action and Demazure operators --------------------------

    def act(self, w: Permutation):
        """Apply a permutation to the X block: X_i -> X_{w(i)}."""
        assert w.n <= self.nx
        out = {}
        for e, c in self.terms.items():
            xs = list(e[: self.nx])
            new = list(xs)
            for i in range(w.n):
                new[w.images[i] - 1] = xs[i]
            out[tuple(new) + e[self.nx:]] = c
        return self._like(out)

    def act_simple(self, i):
        """Swap X_i and X_{i+1}."""
        out = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[i - 1], e2[i] = e2[i], e2[i - 1]
            out[tuple(e2)] = c
        return self._like(out)

    def demazure(self, i):
        """d_i(P) = (P - s_i(P)) / (X_{i+1} - X_i), term by term in closed form."""
        if not 1 <= i < self.nx:
            raise ValueError(f"d_{i} is undefined on {self.nx} variables")
        out = {}
        for e, c in self.terms.items():
            sign, monomials = demazure_exponents(e, i)
            c = c if sign > 0 else -c
            for m in monomials:
                s = out.get(m, 0) + c
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return self._like(out)

    def demazure_word(self, word):
        """Compose Demazure operators along a word: d_{i_1} o ... o d_{i_r}."""
        out = self
        for i in reversed(word):
            out = out.demazure(i)
        return out

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
        if not self.terms:
            return "0"
        names = self.var_names()
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out


def demazure_exponents(e, i):
    """d_i of the monomial with exponents e, as (sign, exponent tuples).

    With a = e[i-1], b = e[i]: d_i(X_i^a X_{i+1}^b) = sign * (sum of the |a-b|
    monomials X_i^r X_{i+1}^s, r + s = a + b - 1, r, s >= min(a, b)), where
    sign = -1 if a > b else +1.  The other exponents are untouched."""
    a, b = e[i - 1], e[i]
    head, tail = e[: i - 1], e[i + 1:]
    if a > b:
        return -1, [head + (a - 1 - t, b + t) + tail for t in range(a - b)]
    return 1, [head + (a + t, b - 1 - t) + tail for t in range(b - a)]


def divide_exact_by_x_difference(p: MPoly, a: int, b: int) -> MPoly:
    """Quotient p / (X_a - X_b); raises ArithmeticError if it is not exact."""
    q = try_divide_by_x_difference(p, a, b)
    if q is None:
        raise ArithmeticError(f"{p} is not divisible by X{a} - X{b}")
    return q


def try_divide_by_x_difference(p: MPoly, a: int, b: int):
    """Quotient p / (X_a - X_b) if the division is exact, else None."""
    if p.is_zero():
        return p
    coeffs = p.coefficients_in_x(a)
    zero = MPoly.zero(p.nx, p.params)
    xb = MPoly.x(b, p.nx, p.params)
    quot_coeffs = {}
    carry = zero  # quotient coefficient one degree up
    for k in range(max(coeffs), 0, -1):
        carry = quot_coeffs[k - 1] = coeffs.get(k, zero) + xb * carry
    if not (coeffs.get(0, zero) + xb * carry).is_zero():
        return None
    xa = MPoly.x(a, p.nx, p.params)
    out = zero
    for k, q in quot_coeffs.items():
        out = out + q * xa ** k
    return out


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
    for w in sorted(Permutation.all(n), key=lambda u: (u.length(), u.images)):
        q = residual.demazure_perm(w0 * w.inverse())
        if not q.is_symmetric():
            raise ArithmeticError(f"Schubert coordinate {q} at {w} is not symmetric")
        if not q.is_zero():
            coords[w] = q
            residual = residual - q * schubert_basis_element(w, n)
    if not residual.is_zero():
        raise ArithmeticError(f"Schubert residual {residual} does not vanish")
    return coords


def grdim_polynomial_ring(n: int, cutoff: int) -> Laurent:
    """Graded dimension of P_n up to q-degree cutoff (deg X = 2): 1/(1-q)^n.

    Powers are in q; deg X_i = 2 means X_i contributes q^1 here because
    graded dimensions are usually quoted in q = v^2.  We keep v-powers:
    the returned series is in v with X_i contributing v^2.
    """
    return series_product(
        (geometric_truncated(2, cutoff) for _ in range(n)), cutoff
    )


def grdim_symmetric_ring(n: int, cutoff: int) -> Laurent:
    """Graded dimension of P_n^{S_n}: prod_i 1/(1-q^i), in v-powers (q = v^2)."""
    return series_product(
        (geometric_truncated(2 * i, cutoff) for i in range(1, n + 1)), cutoff
    )


def count_monomials_by_degree(n: int, cutoff: int) -> Laurent:
    """Enumerative oracle for grdim P_n: count monomials, v-degree 2*|a|."""
    counts = {}

    def rec(var, total):
        if var == n:
            counts[2 * total] = counts.get(2 * total, 0) + 1
            return
        k = 0
        while 2 * (total + k) <= cutoff:
            rec(var + 1, total + k)
            k += 1

    rec(0, 0)
    return Laurent(counts)


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

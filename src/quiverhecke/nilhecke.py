"""
The nil affine Hecke algebra on n strands.

Generators T_1, ..., T_{n-1} and X_1, ..., X_n with T_i^2 = 0, the braid
and distant commutation relations, and the straightening rules
T_i X_{i+1} - X_i T_i = 1 and T_i X_i - X_{i+1} T_i = -1.  Elements are
kept in the normal form sum_w P_w * T_w with polynomials on the left;
the T_w are indexed by permutations via their canonical reduced words,
and T_v T_w = T_{vw} when lengths add, 0 otherwise.

The grading puts deg X_i = 2 and deg T_i = -2.

The faithful polynomial representation sends T_i to the Demazure
operator d_i and X_i to multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .coxeter import Permutation
from .linalg import Combination, bump, determinant
from .polyring import MPoly, staircase_monomial


class NilHeckeElement(Combination):
    """sum_w P_w T_w; terms maps Permutation -> MPoly."""

    __slots__ = ("n", "params", "terms")

    def __init__(self, n, terms=None, params=()):
        self.n = n
        self.params = tuple(params)
        self.terms = {}
        if terms:
            for w, p in terms.items():
                if w.n != n or p.nx != n or p.params != self.params:
                    raise ValueError(
                        f"term at {w} on (n, params) {p.nx, p.params} does not "
                        f"fit {n, self.params}"
                    )
                if not p.is_zero():
                    self.terms[w] = p

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(n, params=()):
        return NilHeckeElement(n, params=params)

    @staticmethod
    def one(n, params=()):
        return NilHeckeElement(
            n, {Permutation.identity(n): MPoly.one(n, params)}, params
        )

    @staticmethod
    def from_poly(p: MPoly, n=None, params=None):
        n = p.nx if n is None else n
        params = p.params if params is None else params
        return NilHeckeElement(n, {Permutation.identity(n): p}, params)

    @staticmethod
    def t(i, n, params=()):
        """The generator T_i."""
        return NilHeckeElement(
            n, {Permutation.simple(i, n): MPoly.one(n, params)}, params
        )

    @staticmethod
    def t_perm(w: Permutation, params=()):
        return NilHeckeElement(w.n, {w: MPoly.one(w.n, params)}, params)

    @staticmethod
    def x(i, n, params=()):
        return NilHeckeElement.from_poly(MPoly.x(i, n, params))

    def _like(self, terms):
        el = NilHeckeElement(self.n, params=self.params)
        el.terms = terms
        return el

    def _check(self, other):
        if (self.n, self.params) != (other.n, other.params):
            raise ValueError(
                f"operands on (n, params) {self.n, self.params} and "
                f"{other.n, other.params}"
            )

    def _coerce(self, c):
        return NilHeckeElement.from_poly(MPoly.const(c, self.n, self.params))

    # -- multiplication -----------------------------------------------

    def _lmul_t(self, i):
        """Left multiply by T_i: T_i * P T_w = s_i(P) T_i T_w + d_i(P) T_w."""
        out = {}
        si = Permutation.simple(i, self.n)
        for w, p in self.terms.items():
            # l(s_i w) > l(w) exactly when i precedes i+1 in one-line notation
            if w.images.index(i) < w.images.index(i + 1):
                bump(out, si * w, p.act_simple(i))
            bump(out, w, p.demazure(i))
        return self._like(out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out = {}
        for w, p in self.terms.items():
            # (P T_w) * other: apply T letters of w from the right inward
            acc = other
            for i in reversed(w.canonical_word()):
                acc = acc._lmul_t(i)
            for v, q in acc.terms.items():
                bump(out, v, p * q)
        return self._like(out)

    __rmul__ = Combination.scale

    # -- polynomial representation ------------------------------------

    def apply_to_polynomial(self, q: MPoly) -> MPoly:
        """Faithful representation: sum_w P_w * d_w(q)."""
        out = MPoly.zero(self.n, self.params)
        for w, p in self.terms.items():
            out = out + p * q.demazure_perm(w)
        return out

    # -- grading ------------------------------------------------------

    def degrees(self):
        """Set of homogeneous degrees present; deg(P T_w) = deg P - 2 l(w)."""
        degs = set()
        for w, p in self.terms.items():
            shift = -2 * w.length()
            for e in p.terms:
                degs.add(2 * sum(e[: p.nx]) + shift)
        return degs

    # -- linear maps on the algebra ------------------------------------

    def is_finite_part(self):
        """True if all coefficients are constants (nil Coxeter span of the T_w)."""
        return all(
            set(p.terms) <= {(0,) * (self.n + len(self.params))}
            for p in self.terms.values()
        )

    def sigma(self) -> "NilHeckeElement":
        """Nakayama automorphism of the finite part: T_i -> T_{n-i},
        so T_w -> T_{w0 w w0}."""
        if not self.is_finite_part():
            raise ValueError("sigma is defined on the finite part only")
        n = self.n
        w0 = Permutation.longest(n)
        return NilHeckeElement(
            n, {w0 * w * w0: p for w, p in self.terms.items()}, self.params
        )

    def gamma(self) -> "NilHeckeElement":
        """Algebra automorphism: X_i -> X_{n-i+1}, T_i -> -T_{n-i}."""
        w0 = Permutation.longest(self.n)
        return NilHeckeElement(self.n, {
            w0 * w * w0: p.act(w0) * (-1 if w.length() % 2 else 1)
            for w, p in self.terms.items()
        }, self.params)

    def trace_t0(self):
        """Frobenius form on the finite part: the coefficient of T_{w0},
        as an integer.  Satisfies t0(ab) = t0(sigma(b) a)."""
        if not self.is_finite_part():
            raise ValueError("trace_t0 is defined on the finite part only")
        w0 = Permutation.longest(self.n)
        p = self.terms.get(w0)
        if p is None:
            return 0
        return p.terms.get((0,) * (self.n + len(self.params)), 0)

    def trace_t(self) -> MPoly:
        """t(sum P_w T_w) = d_{w0}(P_{w0}): a symmetric polynomial."""
        w0 = Permutation.longest(self.n)
        p = self.terms.get(w0, MPoly.zero(self.n, self.params))
        return p.demazure_perm(w0)

    def trace_tprime(self) -> MPoly:
        """t'(a) = t(a * [w0]), with [w0] the group element of the longest word.

        Left multiplication by P_w keeps the T index, so for a = sum_w P_w T_w
        this is d_{w0}(sum_w P_w K_w), K_w the T_{w0} coefficient of T_w [w0]
        (`_tprime_kernel`); the product a * [w0] is never formed.
        """
        kernel = _tprime_kernel(self.n, self.params)
        return _pair(self, kernel).demazure_perm(Permutation.longest(self.n))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda u: (u.length(), u.images)):
            word = w.canonical_word()
            label = "T[" + ",".join(map(str, word)) + "]" if word else "1"
            parts.append(f"({self.terms[w]}) {label}")
        return " + ".join(parts)


def group_element(w: Permutation, params=()) -> NilHeckeElement:
    """The image of w under s_i -> (X_i - X_{i+1}) T_i + 1, expanded along
    the canonical reduced word of w."""
    n = w.n
    out = NilHeckeElement.one(n, params)
    for i in w.canonical_word():
        factor = NilHeckeElement.from_poly(
            MPoly.x(i, n, params) - MPoly.x(i + 1, n, params)
        ) * NilHeckeElement.t(i, n, params) + NilHeckeElement.one(n, params)
        out = out * factor
    return out


@lru_cache(maxsize=None)
def _longest_group_element(n, params):
    """group_element(w0), built once per (n, params); never mutated, since
    every NilHeckeElement operation returns a new object."""
    return group_element(Permutation.longest(n), params)


@lru_cache(maxsize=None)
def _tprime_kernel(n, params):
    """{w: K_w}, K_w the coefficient of T_{w0} in T_w [w0], built once per
    (n, params) and never mutated, like `_longest_group_element`."""
    g, w0 = _longest_group_element(n, params), Permutation.longest(n)
    zero = MPoly.zero(n, params)
    return {
        w: (NilHeckeElement.t_perm(w, params) * g).terms.get(w0, zero)
        for w in Permutation.all(n)
    }


def _pair(a, coefficients):
    """sum_w P_w coefficients[w] for a = sum_w P_w T_w."""
    return sum(
        (p * coefficients[w] for w, p in a.terms.items()), MPoly.zero(a.n, a.params)
    )


def idempotent_b(n: int, params=()) -> NilHeckeElement:
    """b_n = T_{w0} X_2 X_3^2 ... X_n^{n-1}; satisfies b_n^2 = b_n."""
    w0 = Permutation.longest(n)
    return NilHeckeElement.t_perm(w0, params) * NilHeckeElement.from_poly(
        staircase_monomial(n, params)
    )


def gram_matrix_tprime(elements):
    """Rows of the matrix of t'(a * b) over a list of nil Hecke elements,
    one list per a, built as they are read.

    For a = sum_w P_w T_w, t'(a b) = d_{w0}(sum_w P_w R_w(b)) with R_w(b)
    the T_{w0} coefficient of T_w b [w0]: one product T_w b per column b
    and T index w of the elements, instead of a * b and (a b) * [w0].
    """
    indices = {w for a in elements for w in a.terms}
    columns = [
        {
            w: _pair(NilHeckeElement.t_perm(w, b.params) * b,
                     _tprime_kernel(b.n, b.params))
            for w in indices
        }
        for b in elements
    ]
    for a in elements:
        yield [_pair(a, r).demazure_perm(Permutation.longest(a.n)) for r in columns]


# (n!)^2 basis elements; at n = 4 (576) the Gram matrix took 42 s and 250 MB,
# and its determinant did not finish in 350 s more (2-vCPU x86_64, Python 3.11)
MAX_GRAM_N = 3


def frobenius_gram_matrix(n: int):
    """The t'-Gram matrix on the basis {Schubert_u * T_w : u, w in S_n},
    n <= 3, evaluated at X_k = k + 1 after the degree checks of
    `frobenius_gram_determinant`, and checked to be symmetric, as
    t'(ab) = t'(ba) makes it; an asymmetric entry raises ArithmeticError."""
    from .polyring import schubert_basis_element

    if n > MAX_GRAM_N:
        raise ValueError(
            f"the t'-Gram matrix is built for n <= {MAX_GRAM_N} only, got {n}"
        )
    order = sorted(Permutation.all(n), key=lambda w: (w.length(), w.images))
    basis = [
        NilHeckeElement(n, {w: schubert_basis_element(u, n)})
        for u in order
        for w in order
    ]
    degs = []
    for el in basis:
        d = el.degrees()
        if len(d) != 1:
            raise ArithmeticError(f"basis element of degrees {sorted(d)}")
        degs.append(next(iter(d)))
    if sum(degs) != 0:
        raise ArithmeticError(f"basis degrees sum to {sum(degs)}, not 0")
    point = [k + 2 for k in range(n)]
    mat = []
    for i, entries in enumerate(gram_matrix_tprime(basis)):
        for j, p in enumerate(entries):
            xdegs = {sum(e) for e in p.terms}
            if xdegs and xdegs != {(degs[i] + degs[j]) // 2}:
                raise ArithmeticError(
                    f"Gram entry ({i}, {j}) has x-degrees {sorted(xdegs)}"
                )
        mat.append([p.evaluate(point) for p in entries])
    for i in range(len(mat)):
        for j in range(i):
            if mat[i][j] != mat[j][i]:
                raise ArithmeticError(
                    f"Gram entry ({i}, {j}) is {mat[i][j]} but ({j}, {i}) is "
                    f"{mat[j][i]}: t'(ab) = t'(ba) fails"
                )
    return mat


def frobenius_gram_determinant(n: int):
    """Determinant of the t'-Gram matrix on the basis
    {Schubert_u * T_w : u, w in S_n}, exactly.

    Each basis element is homogeneous of a single degree d_i, the
    degrees sum to zero, and every nonzero Gram entry is homogeneous of
    x-degree (d_i + d_j)/2; these facts are checked and a violation
    raises ArithmeticError, as does an evaluated matrix that is not
    symmetric.  The determinant is then homogeneous of
    degree zero, hence a constant, so a single integer evaluation
    computes it.  A value of +-1 certifies that the symmetrizing form is
    nondegenerate with unit discriminant.
    """
    return int(determinant(frobenius_gram_matrix(n)))

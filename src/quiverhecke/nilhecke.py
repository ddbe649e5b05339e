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

Products, the representation and the Gram entries read memoized monomial
columns: `_t_step` for T_i on x^e T_v, `_d_column` for d_w(x^e), both
built from `polyring`'s steps, and add them up with `linalg.add_column`,
the accumulate that `klr` applies its tau columns with too.  `cyclotomic`
reads `_d_column` for the T_w columns of its quotients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .coxeter import Permutation, length_order
from .linalg import Combination, add_column, determinant
from .polyring import MPoly, add_product, demazure_exponents, demazure_terms
from .polyring import schubert_basis_element, staircase_monomial, swap_adjacent


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
    def from_poly(p: MPoly):
        return NilHeckeElement(p.nx, {Permutation.identity(p.nx): p}, p.params)

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

    # not inherited: the generic pair ran nilhecke-demazure 13-16% slower
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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        start = {v.images: q.terms for v, q in other.terms.items()}
        out = {}
        for w, p in self.terms.items():
            # (P T_w) * other: apply T letters of w from the right inward
            acc = start
            for i in reversed(w.canonical_word()):
                acc = _lmul_t(acc, i)
            for v, q in acc.items():
                add_product(out.setdefault(v, {}), p.terms, q)
        zero = MPoly.zero(self.n, self.params)
        return self._like({_permutation(v): zero._like(t) for v, t in out.items() if t})

    __rmul__ = Combination.scale

    # -- polynomial representation ------------------------------------

    def apply_to_polynomial(self, q: MPoly) -> MPoly:
        """Faithful representation: sum_w P_w * d_w(q)."""
        out = MPoly.zero(self.n, self.params)
        out._check(q)
        terms = {}
        for w, p in self.terms.items():
            word, image = w.canonical_word(), {}
            for e, c in q.terms.items():
                add_column(image, _d_column(word, e), c)
            add_product(terms, p.terms, image)
        return out._like(terms)

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
        terms = {w.images: p.terms for w, p in self.terms.items()}
        kernel = _tprime_kernel(self.n, self.params)
        out = MPoly.zero(self.n, self.params)._like(_pair(terms, kernel))
        return out.demazure_perm(Permutation.longest(self.n))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=Permutation.length_key):
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


# the Permutation with given images, validated once
_permutation = lru_cache(maxsize=None)(Permutation)


@lru_cache(maxsize=None)
def _d_column(word, e):
    """d_{i_1} o ... o d_{i_r}(x^e) for the word (i_1, ..., i_r), as a
    tuple of (exponents, coefficient) pairs.  Read by this module's
    representation and Gram entries and by `cyclotomic`'s T_w columns."""
    return tuple(demazure_terms({e: 1}, word).items())


@lru_cache(maxsize=None)
def _t_step(v, e, i):
    """The column of T_i on x^e T_v, v given by its images: the pairs
    (images of u, column of P_u) of T_i x^e T_v = s_i(x^e) T_{s_i v} +
    d_i(x^e) T_v, columns as in `_d_column`, without an empty one."""
    sign, monomials = demazure_exponents(e, i)
    step = ((v, tuple((m, sign) for m in monomials)),) if monomials else ()
    # l(s_i v) > l(v) exactly when i precedes i+1 in one-line notation
    a, b = v.index(i), v.index(i + 1)
    if a < b:
        u = v[:a] + (i + 1,) + v[a + 1:b] + (i,) + v[b + 1:]
        step += ((u, ((swap_adjacent(e, i), 1),)),)
    return step


def _lmul_t(terms, i):
    """T_i * sum_w P_w T_w on {images of w: terms of P_w}, as a new dict,
    one memoized `_t_step` column per monomial of each P_w; a P_w that
    cancels stays as an empty dict."""
    out = {}
    for v, p in terms.items():
        for e, c in p.items():
            for u, column in _t_step(v, e, i):
                add_column(out.setdefault(u, {}), column, c)
    return out


def _t_products(x):
    """Yield (w, T_w x) for w in `length_order(x.n)`, T_w x as {images of
    v: terms of P_v} for T_w x = sum_v P_v T_v.

    T_w x = T_i (T_{w'} x) with i the first letter of w's canonical word
    and w' = s_i w, one `_lmul_t` step from a product of the previous
    length; only that length's products are kept, by canonical word (the
    word of w' is that of w without its first letter).  The yielded dicts
    are shared with the next step and with x: callers must not mutate
    them."""
    depth, prev, cur = 0, {}, {}
    for w in length_order(x.n):
        word = w.canonical_word()
        if not word:
            terms = {v.images: p.terms for v, p in x.terms.items()}
        else:
            if len(word) != depth:
                depth, prev, cur = len(word), cur, {}
            terms = _lmul_t(prev[word[1:]], word[0])
        cur[word] = terms
        yield w, terms


@lru_cache(maxsize=None)
def _tprime_kernel(n, params):
    """{images of w: terms of K_w}, K_w the coefficient of T_{w0} in
    T_w [w0], built once per (n, params) along `_t_products`; never
    mutated."""
    w0 = Permutation.longest(n).images
    return {
        w.images: terms.get(w0, {})
        for w, terms in _t_products(group_element(Permutation.longest(n), params))
    }


def _pair(terms, kernel):
    """sum_w P_w K_w as a term dict, for terms {images of w: terms of P_w}
    and kernel {images of w: terms of K_w}."""
    out = {}
    for v, p in terms.items():
        add_product(out, p, kernel[v])
    return out


def _tprime_columns(b):
    """{w: R_w(b)} for every w in S_n, R_w(b) the T_{w0} coefficient of
    T_w b [w0] as a term dict: t'(P T_w b) = d_{w0}(P R_w(b))."""
    kernel = _tprime_kernel(b.n, b.params)
    return {w: _pair(terms, kernel) for w, terms in _t_products(b)}


def idempotent_b(n: int) -> NilHeckeElement:
    """b_n = T_{w0} X_2 X_3^2 ... X_n^{n-1}; satisfies b_n^2 = b_n."""
    return NilHeckeElement.t_perm(Permutation.longest(n)) * NilHeckeElement.from_poly(
        staircase_monomial(n)
    )


# (n!)^2 basis elements.  n = 4 (576, largest block 106 x 106) takes
# 1.0-1.3 s at 16.9 MB peak RSS in a fresh interpreter (2-vCPU x86_64,
# Python 3.11).  n = 5 has 14,400; counted from the degrees
# 2 l(u) - 2 l(w) of the S_u T_w alone, its largest block (degree 0) is
# 1,930 x 1,930.  It is refused before any work.
MAX_GRAM_N = 4
# det G up to MAX_GRAM_N: only these pin its sign, each block is +-1
GRAM_DETERMINANTS = {2: -1, 3: -1, 4: 1}


def frobenius_gram_determinant(n: int):
    """Determinant of the t'-Gram matrix G, G[a][b] = t'(ab), on the basis
    {Schubert_u * T_w : u, w in S_n}, exactly, n <= MAX_GRAM_N.

    Each basis element is homogeneous of a single degree, and the degrees
    sum to zero; a violation raises ArithmeticError.  An entry t'(ab) is
    homogeneous of x-degree (deg a + deg b)/2, so it vanishes when
    deg a + deg b < 0 and is a constant when deg a = -deg b.  Sort the
    rows by ascending degree and the columns by descending degree: the
    matrix becomes block lower triangular, its diagonal blocks B_d
    pairing the rows of degree d with the columns of degree -d.  So
    det G = sign * prod_d det B_d, where sign is that of the row and
    column reordering: (-1) to the number of pairs of basis elements of
    different degrees.  Only the B_d are built.  Each entry is checked
    to be a constant, each B_{-d} to be the transpose of B_d, as
    t'(ab) = t'(ba) makes it, and each det B_d to be +-1; a failure
    raises ArithmeticError naming d.  A value of +-1 certifies that the
    symmetrizing form is nondegenerate with unit discriminant.
    """
    if n > MAX_GRAM_N:
        raise ValueError(
            f"the t'-Gram determinant is computed for n <= {MAX_GRAM_N} only, "
            f"got {n}: {factorial(n) ** 2} basis elements"
        )
    order = length_order(n)
    schubert = {u: schubert_basis_element(u, n) for u in order}
    basis = {}  # degree -> [S_u T_w] in basis order
    for u in order:
        for w in order:
            el = NilHeckeElement(n, {w: schubert[u]})
            degs = el.degrees()
            if len(degs) != 1:
                raise ArithmeticError(f"basis element of degrees {sorted(degs)}")
            basis.setdefault(degs.pop(), []).append(el)
    total = sum(d * len(els) for d, els in basis.items())
    if total:
        raise ArithmeticError(f"basis degrees sum to {total}, not 0")
    longest = Permutation.longest(n).canonical_word()
    unit = (0,) * n
    # transposed[d][j][i] = t'(a_i b_j) = B_d[i][j], a_i of degree d and
    # b_j of degree -d: one list per column b
    transposed = {d: [] for d in basis}
    for d, els in basis.items():
        for b in els:
            columns = _tprime_columns(b)
            column = []
            for a in basis[-d]:
                ((w, p),) = a.terms.items()
                entry = {}
                for e, c in add_product({}, p.terms, columns[w]).items():
                    add_column(entry, _d_column(longest, e), c)
                if entry.keys() - {unit}:
                    raise ArithmeticError(
                        f"an entry of block d = {-d} is not a constant"
                    )
                column.append(entry.get(unit, 0))
            transposed[-d].append(column)
    det = 1
    for d in sorted(transposed):
        if d < 0:
            continue
        if transposed[d] != [list(row) for row in zip(*transposed[-d])]:
            raise ArithmeticError(
                f"block d = {d} is not the transpose of block d = {-d}: "
                "t'(ab) = t'(ba) fails"
            )
        block_det = determinant(transposed[d])
        if block_det not in (1, -1):
            raise ArithmeticError(
                f"block d = {d} has determinant {block_det}, not +-1"
            )
        # det B_{-d} = det B_d, its transpose
        det *= int(block_det) if d == 0 else int(block_det) ** 2
    sizes = [len(els) for els in basis.values()]
    mixed = (sum(sizes) ** 2 - sum(m * m for m in sizes)) // 2
    return -det if mixed % 2 else det

"""
Affine and degenerate affine Hecke algebra actions on truncated
polynomial modules split into generalized X-eigenspaces.

The module is M = sum over v in I^n of M_v, where M_v is the truncated
polynomial space k[x_1..x_n] / (monomials of total degree >= cutoff)
and X_j acts on M_v by x_j + v_j (so X_j - v_j is nilpotent on M_v).
The total-degree ideal is used because per-variable power ideals are
not preserved by divided differences.

Both actions are one Demazure-Lusztig formula in the X-variables,
restricted to each component:

    T_i = N_i (X_i - X_{i+1})^{-1} (s_i - 1) + alpha,
    N_i = alpha X_i - X_{i+1} + beta,

where s_i exchanges x_i, x_{i+1} and carries M_v to M_{s_i v}.  The
mode fixes the constants and the value of each vertex k:

    mode         alpha  beta  value of k   generator
    affine       q      0     q^k          T_i
    degenerate   1      1     k            s_i

  * if v_i = v_{i+1}, (X_i - X_{i+1})^{-1}(s_i - 1) is the divided
    difference d_i = (P - s_i P)/(x_{i+1} - x_i), so
        T_i = N_i d_i + alpha
    is the regularized form of the formula;
  * if v_i != v_{i+1},
        T_i = N_i (X_i - X_{i+1})^{-1} s_i
              + ((1 - alpha) X_{i+1} - beta)(X_i - X_{i+1})^{-1},
    where the first factor multiplies on the target component of the
    swap and the second on the source; both denominators have the unit
    constant term +-(v_i - v_{i+1}), so they invert as truncated series.

The relations checked are, for both modes,

    (T_i - alpha)(T_i + 1) = 0,
    T_i X_{i+1} - X_i T_i = (alpha - 1) X_{i+1} + beta,

T_i X_j = X_j T_i for j outside {i, i+1}, X_i X_j = X_j X_i and the
braid relation; at (1, 1) the first two read s_i^2 = 1 and
s_i X_{i+1} - X_i s_i = 1.  The source part of T_i is forced by the
straightening relation; the target part is determined by the quadratic
relation up to a componentwise unit, which is the gauge in which the
intertwiner formulas of the literature are written.

The scalar field is Q(q) in affine mode, held as integer Laurent
polynomials in q over a product of tracked unit denominators (exact
zero tests, no polynomial gcd).  Each numerator q^s P(q) is packed into
the one integer P(2^64) (Kronecker substitution) with its shift s and a
bound on the sum of |coefficients|, so +, - and * are integer
arithmetic; a zero test the bound cannot decide raises ArithmeticError
rather than pass.  Q in degenerate mode is held as exact ints: the
vertex values are the labels, and the only inverses are the constant
terms 1/(a - b) of ``series_inverse``, which stay ints at a - b = +-1
and become Fractions otherwise (never floats; rational vertex values
are Fractions throughout).  QScalar, int and Fraction
share +, -, * and truth testing, so one code path serves both.

The polynomial steps are `polyring`'s (`demazure_exponents`,
`swap_adjacent`, `add_product`), and ``tau``, the quiver Hecke
intertwiner, reads `klr.tau_column` at each component's vertex labels.

Degree bookkeeping: one application of T_i or s_i lowers total degree
by at most 1 (only through the divided difference), X_j does not lower
it, and the truncation drops degrees >= cutoff.  The image of one basis
monomial is exact below the cutoff, so after applying k operators to it
the terms of degree < cutoff - k + 1 are exact.  The relation checks
run with cutoff window + 2, enough for the braid relation's three T's,
and compare below the window.

The same premise prunes the compositions.  Before an operator with k
more T's still to apply, a term of degree >= window + k cannot reach
the degrees < window, so each operator keeps only its output terms
below that bound: the braid relation applies T with bounds window + 2,
window + 1, window.  The compared low parts are those of the untrimmed
compositions.  Numbered once in order of total degree, the monomials
of degree < b come first, so they are those of index < limit[b]; a
memoized column, sorted by index, keeps its terms below a bound as a
prefix.  Each column is checked against the premise when it is built
(a T column below deg - 1, or an X column below deg, raises
ArithmeticError).  The module has |vertices|^n binomial(n + cutoff -
1, n) basis monomials; the check refuses more than _MAX_BASIS of them,
and windows above _MAX_WINDOW.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import add

from .klr import KLRContext, QuiverData, tau_column
from .linalg import bump
from .polyring import add_product, demazure_exponents, exponent_tuples, swap_adjacent


# -- scalars: Q(q) with tracked unit denominators -------------------------

# A numerator q^s P(q) is held as n = P(2^64) (P an integer polynomial,
# possibly with q | P), the shift s and a bound l1 >= ||P||_1.  Evaluation
# at 2^64 is a ring homomorphism, so sums and products are int sums and
# products, and a product by q^k is a shift by 64 k bits.  A nonzero n
# means a nonzero P; n == 0 means P == 0 when l1 < 2^63, since the
# balanced base-2^64 digits of n are then P's coefficients.
_BITS = 64
_L1_LIMIT = 1 << (_BITS - 1)
_MASK = (1 << _BITS) - 1

_UNIT_POLYS = {}
_UNIT_KEYS = {}  # one object per unit key: equal denominators compare by identity


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        bump(out, e, c)
    return out


def _unit_key(poly: dict):
    """Canonical key of an invertible factor.

    Returns (key, shift, sign) with poly = sign * q^shift * key-poly,
    the key-poly having positive constant term.
    """
    if not poly:
        raise ArithmeticError("the zero polynomial is not a unit")
    shift = min(poly)
    sign = -1 if poly[shift] < 0 else 1
    shifted = {e - shift: sign * c for e, c in poly.items()}
    key = tuple(sorted(shifted.items()))
    key = _UNIT_KEYS.setdefault(key, key)
    _UNIT_POLYS[key] = dict(shifted)
    return key, shift, sign


def _pack(poly: dict):
    """(n, shift, l1) of an integer Laurent polynomial {power: coefficient}."""
    if not poly:
        return 0, 0, 0
    shift = min(poly)
    n = sum(c << (_BITS * (e - shift)) for e, c in poly.items())
    return n, shift, sum(abs(c) for c in poly.values())


@functools.lru_cache(maxsize=None)
def _den_product(units: tuple):
    """(n, l1) of the product of a sorted tuple of unit keys."""
    n = l1 = 1
    for key in units:
        kn, _, kl1 = _pack(_UNIT_POLYS[key])
        n *= kn
        l1 *= kl1
    return n, l1


@functools.lru_cache(maxsize=None)
def _den_merge(da: tuple, db: tuple):
    """The least common multiple of two unit tuples, with the packed
    factors (n, l1) that carry each side onto it."""
    extra_a, extra_b, merged = [], [], []
    for key in sorted(set(da) | set(db)):
        na, nb = da.count(key), db.count(key)
        top = max(na, nb)
        merged.extend([key] * top)
        extra_a.extend([key] * (top - na))
        extra_b.extend([key] * (top - nb))
    return (
        tuple(merged),
        _den_product(tuple(extra_a)),
        _den_product(tuple(extra_b)),
    )


_new = object.__new__


def _make(n, shift, l1, den):
    """The QScalar q^shift P(q) / prod(den) with n = P(2^64) and
    l1 >= ||P||_1; raises ArithmeticError when n == 0 cannot prove
    P == 0."""
    out = _new(QScalar)
    if n:
        out._n, out._shift, out._l1, out.den = n, shift, l1, den
    elif l1 >= _L1_LIMIT:
        raise ArithmeticError(
            f"zero test inconclusive: coefficient bound 2^{l1.bit_length() - 1}"
            f" or more reaches 2^{_BITS - 1}"
        )
    else:
        out._n, out._shift, out._l1, out.den = 0, 0, 0, ()
    return out


class QScalar:
    """num / prod(units): num an integer Laurent polynomial in q, held
    packed (see _make), and units a multiset of tracked invertible
    factors, held as a sorted tuple."""

    __slots__ = ("_n", "_shift", "_l1", "den")

    def __init__(self, num: dict, den: tuple = ()):
        n, shift, l1 = _pack(num)
        self._n, self._shift, self._l1 = n, shift, l1
        self.den = den if n else ()

    @property
    def num(self) -> dict:
        """The numerator as {power: coefficient}, read from the balanced
        base-2^64 digits of n."""
        if self._l1 >= _L1_LIMIT:
            raise ArithmeticError(
                f"numerator coefficients bounded only by 2^"
                f"{self._l1.bit_length() - 1} or more cannot be unpacked"
            )
        out = {}
        n, e = self._n, self._shift
        while n:
            c = n & _MASK
            if c >= _L1_LIMIT:
                c -= 1 << _BITS
            if c:
                out[e] = c
            n = (n - c) >> _BITS
            e += 1
        return out

    @staticmethod
    def from_int(c) -> "QScalar":
        return _make(c, 0, abs(c), ())

    @staticmethod
    def q_power(k: int) -> "QScalar":
        return _make(1, k, 1, ())

    def is_zero(self) -> bool:
        return not self._n

    def __bool__(self) -> bool:
        return bool(self._n)

    def __add__(self, other: "QScalar", negate=False) -> "QScalar":
        """self + other, or self - other when ``negate``."""
        na, nb = self._n, other._n
        if not nb:
            return self
        if not na:
            return -other if negate else other
        la, lb = self._l1, other._l1
        den = self.den
        if den != other.den:
            den, (fa, ga), (fb, gb) = _den_merge(den, other.den)
            na, la, nb, lb = na * fa, la * ga, nb * fb, lb * gb
        sa, sb = self._shift, other._shift
        if sa < sb:
            nb <<= _BITS * (sb - sa)
        elif sb < sa:
            na <<= _BITS * (sa - sb)
            sa = sb
        return _make(na - nb if negate else na + nb, sa, la + lb, den)

    def __neg__(self) -> "QScalar":
        return _make(-self._n, self._shift, self._l1, self.den)

    def __sub__(self, other: "QScalar") -> "QScalar":
        return self.__add__(other, True)

    def __mul__(self, other: "QScalar") -> "QScalar":
        na, nb = self._n, other._n
        if not na or not nb:
            return _make(0, 0, 0, ())
        den = self.den + other.den
        if self.den and other.den:
            den = tuple(sorted(den))
        out = _new(QScalar)  # nonzero, as both factors are
        out._n, out._shift, out._l1, out.den = (
            na * nb, self._shift + other._shift, self._l1 * other._l1, den
        )
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, QScalar):
            return NotImplemented
        return not (self - other)

    def __hash__(self):
        raise TypeError("unhashable")

    def inverse(self) -> "QScalar":
        if not self._n:
            raise ZeroDivisionError("QScalar division by zero")
        key, shift, sign = _unit_key(self.num)
        n, l1 = _den_product(self.den)
        return _make(sign * n, -shift, l1, (key,))

    def __truediv__(self, other: "QScalar") -> "QScalar":
        return self * other.inverse()

    def __repr__(self):
        if self._l1 >= _L1_LIMIT:
            return f"QScalar(packed {self._n} * q^{self._shift}, den={self.den})"
        return f"QScalar({self.num}, den={self.den})"


# -- truncated module -----------------------------------------------------

# an element is a dict {(v, exps): scalar} with v a tuple of vertex
# indices into the vertex list and exps of total degree < cutoff


class HeckeBridge:
    """Operators on the truncated module for a type-A vertex set.

    ``mode`` is "affine" (vertex values q^k for k in ``vertices``) or
    "degenerate" (vertex values the given ints, or Fractions).  It fixes
    the scalars and the constants (alpha, beta) of the one generator
    formula.
    ``quiver`` has an arrow a -> a+1 between vertex labels, in both
    modes; ``tau`` reads klr's columns on it, through ``klr``, its
    quiver Hecke context, built once.
    """

    def __init__(self, n, cutoff, mode="affine", vertices=None):
        if n < 1 or cutoff < 1:
            raise ValueError(
                f"a truncated module needs n >= 1 and cutoff >= 1, got "
                f"n = {n}, cutoff = {cutoff}"
            )
        self.n = n
        self.cutoff = cutoff
        self.mode = mode
        self.vertices = tuple(vertices if vertices is not None else (0, 1, 2))
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError(f"repeated vertex values in {self.vertices}")
        ints = all(isinstance(k, int) for k in self.vertices)
        if not self.vertices or mode == "affine" and not ints:
            raise ValueError(f"no vertices, or non-int affine ones: {self.vertices}")
        self.quiver = QuiverData(
            self.vertices,
            {(a, a + 1): 1 for a in self.vertices if a + 1 in self.vertices},
        )
        self.klr = KLRContext(self.quiver, n)
        if mode == "affine":
            self.one = QScalar.from_int(1)
            self.alpha, self.beta = QScalar.q_power(1), QScalar.from_int(0)
            self.vertex_scalars = tuple(
                QScalar.q_power(k) for k in self.vertices
            )
        elif mode == "degenerate":
            self.one = 1
            self.alpha, self.beta = 1, 1
            self.vertex_scalars = tuple(
                v if isinstance(v, int) else Fraction(v) for v in self.vertices
            )
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self._mult_cache = {}
        self._inverse_cache = {}
        self._n_cache = {}

    # -- elements ---------------------------------------------------------

    def monomial(self, v, exps):
        v = tuple(v)
        exps = tuple(exps)
        if len(v) != self.n or len(exps) != self.n:
            raise ValueError(
                f"a monomial of M needs {self.n} vertex indices and "
                f"{self.n} exponents, got {v} and {exps}"
            )
        if not all(0 <= k < len(self.vertices) for k in v):
            raise ValueError(
                f"vertex indices {v} outside 0..{len(self.vertices) - 1}"
            )
        if any(e < 0 for e in exps) or sum(exps) >= self.cutoff:
            raise ValueError(
                f"exponents {exps} are not of total degree below the cutoff "
                f"{self.cutoff}"
            )
        return {(v, exps): self.one}

    add_el = staticmethod(_padd)

    def scale_el(self, a, c):
        """a * c, with no zero entries: {} when c is 0."""
        if not c:
            return {}
        return {key: p for key, val in a.items() if (p := val * c)}

    def neg_el(self, a):
        return {key: -val for key, val in a.items()}

    def sub_el(self, a, b):
        """a - b in one pass, zero entries dropped as in add_el."""
        out = dict(a)
        for key, c in b.items():
            if c := out.pop(key) - c if key in out else -c:
                out[key] = c
        return out

    def is_zero_el(self, a) -> bool:
        return not any(a.values())

    def basis(self, degree_bound=None):
        bound = self.cutoff if degree_bound is None else degree_bound
        for v in itertools.product(range(len(self.vertices)), repeat=self.n):
            for exps in exponent_tuples(self.n, bound - 1):
                yield (v, exps)

    # -- primitive operators ----------------------------------------------

    def x_shift(self, j: int):
        e = [0] * self.n
        e[j - 1] = 1
        return tuple(e)

    def _add_product(self, out, el, terms):
        """out += el * (polynomial [(shift, coeff), ...], no coeff zero),
        truncated, skipping el's zero entries: a product term is skipped by
        its degree before its exponents are built; a factor one is not multiplied."""
        one = self.one
        items = [(v, exps, sum(exps), c) for (v, exps), c in el.items() if c]
        for shift, coeff in terms:
            room = self.cutoff - sum(shift)
            for v, exps, deg, c in items:
                if deg < room:
                    key = (v, tuple(map(add, exps, shift)))
                    if coeff is not one:
                        c = coeff if c is one else c * coeff
                    if key in out:  # `bump`, inlined in this hot loop
                        c = out[key] + c
                        if not c:
                            del out[key]
                            continue
                    out[key] = c

    def tau(self, i: int, el):
        """The quiver Hecke intertwiner, x_j acting as X_j - v_j: klr's
        column of each monomial at its component's vertex labels, truncated;
        a coefficient other than +-1 raises ArithmeticError."""
        self._check_generator(i)
        labels, out = self.vertices, {}
        for (v, exps), c in el.items():
            target = swap_adjacent(v, i)
            for m, d in tau_column(self.klr, labels[v[i - 1]], labels[v[i]], i, exps):
                if d not in (1, -1):
                    raise ArithmeticError(f"tau_{i} on {exps} at {v}: coefficient {d}")
                if sum(m) < self.cutoff:
                    bump(out, (target, m), c if d == 1 else -c)
        return out

    def series_inverse(self, const, lin):
        """(const + lin)^{-1} truncated, as {shift: coeff}; lin is
        {shift: coeff}.

        In degenerate mode const is a difference of vertex values, and
        1 / const stays an int when const is +-1."""
        if self.mode == "affine":
            cinv = self.one / const
        elif const in (1, -1):
            cinv = int(const)
        else:
            cinv = 1 / Fraction(const)
        out = layer = {(0,) * self.n: cinv}
        step = {e: -(c * cinv) for e, c in lin.items()}
        while layer := self.series_mul(layer, step):
            out = _padd(out, layer)
        return out

    def series_mul(self, a, b):
        """Truncated product of two series {shift: coeff}, without zero
        coefficients."""
        cut = self.cutoff
        return {e: c for e, c in add_product({}, a, b).items() if c and sum(e) < cut}

    # -- the X action ------------------------------------------------------

    def X(self, j: int, el):
        """X_j = x_j + v_j, componentwise."""
        if not 1 <= j <= self.n:
            raise ValueError(f"X_{j} is not a generator for n = {self.n}")
        out = {}
        self._add_product(out, el, [(self.x_shift(j), self.one)])
        for key, c in el.items():
            value = self.vertex_scalars[key[0][j - 1]]
            bump(out, key, value if c is self.one else c * value)
        return out

    # -- the Hecke generators ----------------------------------------------

    def _n_terms(self, i, va, vb):
        """N_i = alpha X_i - X_{i+1} + beta on a component whose vertices
        at positions i, i+1 are va, vb (values a, b), built once per
        (i, va, vb)."""
        key = (i, va, vb)
        if key not in self._n_cache:
            a, b = self.vertex_scalars[va], self.vertex_scalars[vb]
            self._n_cache[key] = [
                (self.x_shift(i), self.alpha),
                (self.x_shift(i + 1), -self.one),
                ((0,) * self.n, self.alpha * a - b + self.beta),
            ]
        return self._n_cache[key]

    def _mults(self, i, va, vb):
        """Cached multiplier series of T_i on a component whose vertices
        va != vb sit at positions i, i+1: ((1 - alpha) X_{i+1} - beta)
        (X_i - X_{i+1})^{-1} on the source, and N_i (X_i - X_{i+1})^{-1}
        after the swap, with the target component's constants.  Each
        series (X_i - X_{i+1})^{-1} is computed once per component."""
        key = (i, va, vb)
        if key not in self._mult_cache:
            one, alpha = self.one, self.alpha
            a, b = self.vertex_scalars[va], self.vertex_scalars[vb]
            diff = {self.x_shift(i): one, self.x_shift(i + 1): -one}
            inverses = self._inverse_cache
            for k, const in (((i, va, vb), a - b), ((i, vb, va), b - a)):
                if k not in inverses:
                    inverses[k] = self.series_inverse(const, diff)
            source = self.series_mul(
                inverses[i, va, vb],
                {
                    self.x_shift(i + 1): one - alpha,
                    (0,) * self.n: (one - alpha) * b - self.beta,
                },
            )
            target = self.series_mul(
                inverses[i, vb, va], dict(self._n_terms(i, vb, va))
            )
            self._mult_cache[key] = (list(source.items()), list(target.items()))
        return self._mult_cache[key]

    def _generator(self, i: int, el):
        """T_i = N_i (X_i - X_{i+1})^{-1} (s_i - 1) + alpha, componentwise."""
        self._check_generator(i)
        out = {}
        for key, c in el.items():
            v, exps = key
            if v[i - 1] == v[i]:
                # N_i d_i + alpha
                sign, monomials = demazure_exponents(exps, i)
                d = c if sign > 0 else -c
                n_terms = self._n_terms(i, v[i - 1], v[i])
                self._add_product(out, {(v, m): d for m in monomials}, n_terms)
                bump(out, key, c * self.alpha)
            else:
                source, target = self._mults(i, v[i - 1], v[i])
                self._add_product(out, {key: c}, source)
                self._add_product(
                    out, {(swap_adjacent(v, i), swap_adjacent(exps, i)): c}, target
                )
        return out

    def affine_T(self, i: int, el):
        """T_i of the affine Hecke algebra, (alpha, beta) = (q, 0)."""
        if self.mode != "affine":
            raise ValueError(f"affine_T needs an affine bridge, not {self.mode!r}")
        return self._generator(i, el)

    def degenerate_s(self, i: int, el):
        """s_i of the degenerate affine Hecke algebra, (alpha, beta) = (1, 1)."""
        if self.mode != "degenerate":
            raise ValueError(
                f"degenerate_s needs a degenerate bridge, not {self.mode!r}"
            )
        return self._generator(i, el)

    def _check_generator(self, i):
        if not 1 <= i < self.n:
            raise ValueError(f"generator index {i} outside 1..{self.n - 1}")


# -- relation suites ------------------------------------------------------


def _indexed_basis(br):
    """(keys, index, limit): the basis of ``br`` stably sorted by degree,
    {key: its index}, and the count limit[b] of keys of degree < b."""
    keys = sorted(br.basis(), key=lambda key: sum(key[1]))
    degrees = [sum(exps) for _, exps in keys]
    limit = [sum(map(b.__gt__, degrees)) for b in range(br.cutoff + 2)]
    return keys, {key: k for k, key in enumerate(keys)}, limit


class _CachedOp:
    """A linear operator on elements {index: scalar} over the ``basis`` of
    _indexed_basis, memoized by columns: fn({keys[k]: one}) as (index,
    scalar) pairs sorted by index, with the count of its terms of degree
    < b for each b in ``bounds``.  ``drop`` is the most it may lower total
    degree (1 for T_i, 0 for X_j), checked once per column as it is built.
    """

    def __init__(self, br, fn, name, drop, basis, bounds):
        self.one, self.fn, self.name, self.drop = br.one, fn, name, drop
        (self.keys, self.index, self.limit), self.bounds = basis, bounds
        self.cols = {}

    def _column(self, k):
        key, limit = self.keys[k], self.limit
        image = self.fn({key: self.one})
        ids = list(map(self.index.__getitem__, image))
        entries = tuple(sorted(zip(ids, image.values())))
        if entries and entries[0][0] < limit[max(sum(key[1]) - self.drop, 0)]:
            raise ArithmeticError(
                f"{self.name} lowers the degree of {key} by more than "
                f"{self.drop}"
            )
        return entries, {b: sum(map(limit[b].__gt__, ids)) for b in self.bounds}

    def __call__(self, el, bound):
        """el mapped column by column, keeping the terms of degree < bound;
        zero entries dropped at the end, where columns were summed."""
        one, cols = self.one, self.cols
        out = {}
        for k, c in el.items():
            col = cols.get(k)
            if col is None:
                if k >= self.limit[bound + self.drop]:
                    continue  # every output term has degree >= bound
                col = cols[k] = self._column(k)
            entries = col[0][: col[1][bound]]
            if c is one and not out:
                out = dict(entries)
                continue
            for k2, c2 in entries:
                if c is not one:
                    c2 = c if c2 is one else c * c2
                if k2 in out:
                    c2 = out[k2] + c2
                out[k2] = c2
        return out if len(el) == 1 else {k2: c2 for k2, c2 in out.items() if c2}


def verify_affine_relations(n, window, vertices=(0, 1, 2)):
    """Check the affine Hecke relations on all monomials of total
    degree < window, exactly in degrees < window, over Q(q).

    Computation runs with cutoff window + 2: a basis monomial's image is
    exact below the cutoff, and each further operator application loses
    at most one degree of accuracy, so after the braid relation's three
    T's the compared coefficients are exact.  Raises ValueError past the
    size guards and ArithmeticError on a failing relation or an
    undecidable zero test.
    """
    return _verify_relations(n, window, "affine", vertices)


def verify_degenerate_relations(n, window, vertices=(0, 1, 2)):
    """Check the degenerate affine Hecke relations on all monomials of
    total degree < window, exactly in degrees < window, over Q (ints and
    Fractions), on the same cutoff window + 2 and guards as
    ``verify_affine_relations``."""
    return _verify_relations(n, window, "degenerate", vertices)


# Basis monomials of the truncated module, |vertices|^n binomial(n +
# cutoff - 1, n), above which the check is refused; the count grows
# exponentially in n.  With three vertices it admits n = 5 at window 1
# (5,103; 0.35 s affine + 0.3 s degenerate on a 2-vCPU VM) and refuses
# n = 5 at window 2 (13,608; 2.4 + 1.5 s) and n = 6 (20,412; 1.8 + 1.2 s).
_MAX_BASIS = 12_000

# Largest relation window per n (3 past n = 3): the cost grows much faster
# in the window than the basis count.  Affine + degenerate on a 2-vCPU VM:
# n = 2, 3.8 + 2.0 s at window 16, 7.3 + 3.6 s at 18; n = 3, 3.2 + 2.5 s
# at 6, 6.7 + 2.9 s at 7; n = 4, 1.3 + 0.9 s at 3, 3.8 + 2.6 s at 4.
_MAX_WINDOW = {2: 16, 3: 6}

# The relation check's cutoff is window + _CUTOFF_ABOVE_WINDOW.  Each
# column is the image of one basis monomial, exact below any cutoff, and
# the pruned compositions read no term of degree >= window + 2 (the
# braid relation's bounds are window + 2, window + 1, window).
_CUTOFF_ABOVE_WINDOW = 2


def _verify_relations(n, window, mode, vertices):
    """Check the relations of T_i (``affine_T`` or ``degenerate_s`` by
    ``mode``) and X_j on every monomial of degree < window, on a bridge
    with cutoff window + _CUTOFF_ABOVE_WINDOW, the braid relation
    applying three T's.

    Raises ValueError when n < 2 or window < 1 (there is nothing to
    check), the window is above _MAX_WINDOW or the module has more than
    _MAX_BASIS basis monomials, and ArithmeticError naming the first
    relation and monomial that fail.
    """
    if n < 2:
        raise ValueError(f"the Hecke relations need n >= 2, got n = {n}")
    if window < 1:
        raise ValueError(
            f"the relation window must be at least 1, got {window}: "
            "no monomial has degree < window"
        )
    br = HeckeBridge(n, window + _CUTOFF_ABOVE_WINDOW, mode, vertices)
    generator = br.affine_T if mode == "affine" else br.degenerate_s
    size = len(br.vertices) ** n * math.comb(n + br.cutoff - 1, n)
    if size > _MAX_BASIS:
        raise ValueError(
            f"the truncated module for n = {n}, cutoff {br.cutoff} has "
            f"{size} basis monomials, above the limit of {_MAX_BASIS}"
        )
    max_window = _MAX_WINDOW.get(n, 3)
    if window > max_window:
        raise ValueError(
            f"the relation window for n = {n} is at most {max_window}, "
            f"got {window}"
        )
    for name, key, low in _relation_residuals(br, generator, window):
        if not br.is_zero_el(low):
            raise ArithmeticError(
                f"{br.mode} Hecke relation {name} fails on {key}"
            )
    return True


def _relation_residuals(br, generator, window):
    """Yield (relation name, monomial key, residual in degrees < window)
    for every relation and every monomial of degree < window, in check
    order.

    Each operator call keeps only the terms that can still reach the
    window: window + k after an operator with k more T's still to apply.
    """
    n, one = br.n, br.one
    alpha, beta = br.alpha, br.beta
    one_minus_alpha, alpha_minus_one = one - alpha, alpha - one
    w = window
    basis = keys, index, limit = _indexed_basis(br)
    bounds = (w, w + 1, w + 2)
    T = {
        i: _CachedOp(br, functools.partial(generator, i), f"T_{i}", 1, basis, bounds)
        for i in range(1, n)
    }
    X = {
        j: _CachedOp(br, functools.partial(br.X, j), f"X_{j}", 0, basis, bounds)
        for j in range(1, n + 1)
    }

    def quadratic(m, i):
        # (T_i - alpha)(T_i + 1) = 0; m is a basis monomial {key: one},
        # so alpha m is {key: alpha}
        tm = T[i](m, w + 1)
        return br.add_el(
            T[i](tm, w),
            br.sub_el(br.scale_el(tm, one_minus_alpha), dict.fromkeys(m, alpha)),
        )

    def straighten(m, i):
        # T_i X_{i+1} - X_i T_i = (alpha - 1) X_{i+1} + beta
        xm = X[i + 1](m, w + 1)
        return br.sub_el(
            br.sub_el(T[i](xm, w), X[i](T[i](m, w), w)),
            br.add_el(br.scale_el(xm, alpha_minus_one), br.scale_el(m, beta)),
        )

    def commute(m, a, b):
        return br.sub_el(a(b(m, w + a.drop), w), b(a(m, w + b.drop), w))

    def braid(m, i):
        s, t = T[i], T[i + 1]
        return br.sub_el(
            s(t(s(m, w + 2), w + 1), w), t(s(t(m, w + 2), w + 1), w)
        )

    checks = []
    for i in range(1, n):
        checks.append((f"quadratic T_{i}", quadratic, (i,)))
        checks.append((f"straighten T_{i}", straighten, (i,)))
        checks += [
            (f"commute T_{i} X_{j}", commute, (T[i], X[j]))
            for j in range(1, n + 1)
            if j not in (i, i + 1)
        ]
    checks += [
        (f"commute X_{i} X_{j}", commute, (X[i], X[j]))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    checks += [(f"braid T_{i} T_{i + 1}", braid, (i,)) for i in range(1, n - 1)]
    for key in br.basis(window):
        m = {index[k]: c for k, c in br.monomial(*key).items()}
        for name, residual, args in checks:
            low = residual(m, *args).items()
            yield name, key, {keys[k]: c for k, c in low if k < limit[w]}

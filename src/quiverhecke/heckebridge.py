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
zero tests, no polynomial gcd), and Q in degenerate mode.  QScalar and
Fraction share +, -, *, / and truth testing, so one code path serves
both.

Degree bookkeeping: one application of T_i or s_i lowers total degree
by at most 1 (only through the divided difference), X_j does not lower
it, and the truncation drops degrees >= cutoff, so after applying k
operators the terms of degree < cutoff - k are exact.  The relation
checks run with that slack and compare below the reliable window.

The same premise prunes the compositions.  Before an operator with k
more T's still to apply, a term of degree >= window + k cannot reach
the degrees < window, so each operator keeps only its output terms
below that bound: the braid relation applies T with bounds window + 2,
window + 1, window.  The compared low parts are those of the untrimmed
compositions.  Each memoized column is checked against the premise
when it is built (a T column below deg - 1, or an X column below deg,
raises ArithmeticError).  The module has |vertices|^n binomial(n +
cutoff - 1, n) basis monomials; the check refuses more than
_MAX_BASIS of them, and windows above _MAX_WINDOW.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .klr import QuiverData
from .linalg import bump
from .polyring import demazure_exponents, exponent_tuples


# -- scalars: Q(q) with tracked unit denominators -------------------------


def _pmul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        bump(out, e, c)
    return out


_UNIT_POLYS = {}


def _unit_key(poly: dict):
    """Canonical key of an invertible factor.

    Returns (key, shift, sign) with poly = sign * q^shift * key-poly,
    the key-poly having positive constant term.
    """
    assert poly
    shift = min(poly)
    shifted = {e - shift: c for e, c in poly.items()}
    sign = 1
    if shifted[0] < 0:
        sign = -1
        shifted = {e: -c for e, c in shifted.items()}
    key = tuple(sorted(shifted.items()))
    _UNIT_POLYS[key] = dict(shifted)
    return key, shift, sign


def _den_product(units) -> dict:
    out = {0: 1}
    for key in units:
        out = _pmul(out, _UNIT_POLYS[key])
    return out


class QScalar:
    """num / prod(units): num an integer Laurent polynomial in q and
    units a multiset of tracked invertible factors."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den=()):
        if not num:
            den = ()
        self.num = num
        self.den = tuple(sorted(den))

    @staticmethod
    def from_int(c) -> "QScalar":
        return QScalar({0: c} if c else {})

    @staticmethod
    def q_power(k: int) -> "QScalar":
        return QScalar({k: 1})

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other: "QScalar") -> "QScalar":
        if self.den == other.den:
            return QScalar(_padd(self.num, other.num), self.den)
        extra_a, extra_b, merged = [], [], []
        for key in set(self.den) | set(other.den):
            na, nb = self.den.count(key), other.den.count(key)
            top = max(na, nb)
            merged.extend([key] * top)
            extra_a.extend([key] * (top - na))
            extra_b.extend([key] * (top - nb))
        na = _pmul(self.num, _den_product(extra_a))
        nb = _pmul(other.num, _den_product(extra_b))
        return QScalar(_padd(na, nb), merged)

    def __neg__(self) -> "QScalar":
        return QScalar({e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other: "QScalar") -> "QScalar":
        return self + (-other)

    def __mul__(self, other: "QScalar") -> "QScalar":
        if not self.num or not other.num:
            return QScalar({})
        return QScalar(_pmul(self.num, other.num), self.den + other.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QScalar):
            return NotImplemented
        return not (self - other)

    def __hash__(self):
        raise TypeError("unhashable")

    def inverse(self) -> "QScalar":
        if not self.num:
            raise ZeroDivisionError("QScalar division by zero")
        key, shift, sign = _unit_key(self.num)
        num = _den_product(self.den)
        num = {e - shift: sign * c for e, c in num.items()}
        return QScalar(num, (key,))

    def __truediv__(self, other: "QScalar") -> "QScalar":
        return self * other.inverse()

    def __repr__(self):
        return f"QScalar({self.num}, den={self.den})"




# -- truncated module -----------------------------------------------------

# an element is a dict {(v, exps): scalar} with v a tuple of vertex
# indices into the vertex list and exps of total degree < cutoff


class HeckeBridge:
    """Operators on the truncated module for a type-A vertex set.

    ``mode`` is "affine" (vertex values q^k for k in ``vertices``) or
    "degenerate" (vertex values the given rationals).  It fixes the
    scalars and the constants (alpha, beta) of the one generator formula.
    ``quiver`` has an arrow a -> a+1 between vertex labels, in both
    modes; ``tau`` reads its arrows from it.
    """

    def __init__(self, n, cutoff, mode="affine", vertices=None):
        assert n >= 1 and cutoff >= 1
        self.n = n
        self.cutoff = cutoff
        self.mode = mode
        self.vertices = tuple(vertices if vertices is not None else (0, 1, 2))
        assert len(set(self.vertices)) == len(self.vertices)
        self.quiver = QuiverData(
            self.vertices,
            {(a, a + 1): 1 for a in self.vertices if a + 1 in self.vertices},
        )
        if mode == "affine":
            self.one = QScalar.from_int(1)
            self.alpha, self.beta = QScalar.q_power(1), QScalar.from_int(0)
            self.vertex_scalars = tuple(
                QScalar.q_power(k) for k in self.vertices
            )
        elif mode == "degenerate":
            self.one = Fraction(1)
            self.alpha, self.beta = self.one, self.one
            self.vertex_scalars = tuple(Fraction(v) for v in self.vertices)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self._mult_cache = {}

    # -- elements ---------------------------------------------------------

    def monomial(self, v, exps, coeff=None):
        v = tuple(v)
        exps = tuple(exps)
        assert len(v) == self.n and len(exps) == self.n
        assert all(0 <= k < len(self.vertices) for k in v)
        assert sum(exps) < self.cutoff
        return {(v, exps): self.one if coeff is None else coeff}

    add_el = staticmethod(_padd)

    def scale_el(self, a, c):
        return {key: val * c for key, val in a.items()}

    def neg_el(self, a):
        return {key: -val for key, val in a.items()}

    def sub_el(self, a, b):
        return self.add_el(a, self.neg_el(b))

    def is_zero_el(self, a) -> bool:
        return not any(a.values())

    def basis(self, degree_bound=None):
        bound = self.cutoff if degree_bound is None else degree_bound
        for v in itertools.product(range(len(self.vertices)), repeat=self.n):
            for exps in exponent_tuples(self.n, bound - 1):
                yield (v, exps)

    def low_part(self, el, bound):
        """Terms of total degree < bound (the exact window)."""
        return {key: c for key, c in el.items() if sum(key[1]) < bound}

    # -- primitive operators ----------------------------------------------

    def x_shift(self, j: int):
        e = [0] * self.n
        e[j - 1] = 1
        return tuple(e)

    def mul_term(self, el, shift, coeff):
        return self.mul_linear(el, [(shift, coeff)])

    def mul_linear(self, el, terms):
        """Multiply by a polynomial [(shift, coeff), ...]."""
        out = {}
        self._add_product(out, el, terms)
        return out

    def _add_product(self, out, el, terms):
        """out += el * (polynomial [(shift, coeff), ...]), truncated."""
        cutoff = self.cutoff
        for shift, coeff in terms:
            for (v, exps), c in el.items():
                e2 = tuple(a + b for a, b in zip(exps, shift))
                if sum(e2) < cutoff:
                    bump(out, (v, e2), c * coeff)

    def demazure(self, i: int, el):
        """Componentwise divided difference (P - s_i P)/(x_{i+1}-x_i)."""
        out = {}
        for (v, exps), c in el.items():
            sign, monomials = demazure_exponents(exps, i)
            term = c if sign > 0 else -c
            for e2 in monomials:
                bump(out, (v, e2), term)
        return out

    def swap(self, i: int, el):
        """M_v -> M_{s_i v}, exchanging x_i and x_{i+1}."""
        out = {}
        for (v, exps), c in el.items():
            v2 = list(v)
            v2[i - 1], v2[i] = v2[i], v2[i - 1]
            e2 = list(exps)
            e2[i - 1], e2[i] = e2[i], e2[i - 1]
            out[(tuple(v2), tuple(e2))] = c
        return out

    def tau(self, i: int, el):
        """The quiver Hecke intertwiner on this module: the divided
        difference on equal-value components, and the swap times
        x_i - x_{i+1} (arrow source) or 1 (otherwise)."""
        assert 1 <= i < self.n
        one = self.one
        unit = [((0,) * self.n, one)]
        arrow = [(self.x_shift(i), one), (self.x_shift(i + 1), -one)]
        out = {}
        for (v, exps), c in el.items():
            comp = {(v, exps): c}
            if v[i - 1] == v[i]:
                self._add_product(out, self.demazure(i, comp), unit)
            else:
                src, tgt = self.vertices[v[i - 1]], self.vertices[v[i]]
                factor = arrow if self.quiver.d(src, tgt) else unit
                self._add_product(out, self.swap(i, comp), factor)
        return out

    def series_inverse(self, const, lin):
        """(const + lin)^{-1} truncated; lin is [(shift, coeff), ...]."""
        cinv = self.one / const
        out = {(0,) * self.n: cinv}
        layer = dict(out)
        while layer:
            nxt = {}
            for shift, coeff in layer.items():
                for s2, c2 in lin:
                    e = tuple(a + b for a, b in zip(shift, s2))
                    if sum(e) < self.cutoff:
                        bump(nxt, e, -(coeff * c2 * cinv))
            for e, c in nxt.items():
                bump(out, e, c)
            layer = nxt
        return list(out.items())

    def series_mul(self, a, b):
        """Truncated product of two term lists [(shift, coeff), ...]."""
        out = {}
        for s1, c1 in a:
            for s2, c2 in b:
                e = tuple(p + q for p, q in zip(s1, s2))
                if sum(e) < self.cutoff:
                    bump(out, e, c1 * c2)
        return list(out.items())

    # -- the X action ------------------------------------------------------

    def X(self, j: int, el):
        """X_j = x_j + v_j, componentwise."""
        assert 1 <= j <= self.n
        out = self.mul_term(el, self.x_shift(j), self.one)
        for key, c in el.items():
            bump(out, key, c * self.vertex_scalars[key[0][j - 1]])
        return out

    # -- the Hecke generators ----------------------------------------------

    def _n_terms(self, i, a, b):
        """N_i = alpha X_i - X_{i+1} + beta on a component whose vertex
        values at positions i, i+1 are a, b."""
        return [
            (self.x_shift(i), self.alpha),
            (self.x_shift(i + 1), -self.one),
            ((0,) * self.n, self.alpha * a - b + self.beta),
        ]

    def _mults(self, i, va, vb):
        """Cached multiplier series of T_i on a component whose vertices
        va != vb sit at positions i, i+1: ((1 - alpha) X_{i+1} - beta)
        (X_i - X_{i+1})^{-1} on the source, and N_i (X_i - X_{i+1})^{-1}
        after the swap, with the target component's constants."""
        key = (i, va, vb)
        if key not in self._mult_cache:
            one, alpha = self.one, self.alpha
            a, b = self.vertex_scalars[va], self.vertex_scalars[vb]
            diff = [(self.x_shift(i), one), (self.x_shift(i + 1), -one)]
            source = self.series_mul(
                self.series_inverse(a - b, diff),
                [
                    (self.x_shift(i + 1), one - alpha),
                    ((0,) * self.n, (one - alpha) * b - self.beta),
                ],
            )
            target = self.series_mul(
                self.series_inverse(b - a, diff), self._n_terms(i, b, a)
            )
            self._mult_cache[key] = (source, target)
        return self._mult_cache[key]

    def _generator(self, i: int, el):
        """T_i = N_i (X_i - X_{i+1})^{-1} (s_i - 1) + alpha, componentwise."""
        assert 1 <= i < self.n
        out = {}
        for key, c in el.items():
            v = key[0]
            comp = {key: c}
            if v[i - 1] == v[i]:
                # N_i d_i + alpha
                a = self.vertex_scalars[v[i - 1]]
                self._add_product(
                    out, self.demazure(i, comp), self._n_terms(i, a, a)
                )
                bump(out, key, c * self.alpha)
            else:
                source, target = self._mults(i, v[i - 1], v[i])
                self._add_product(out, comp, source)
                self._add_product(out, self.swap(i, comp), target)
        return out

    def affine_T(self, i: int, el):
        """T_i of the affine Hecke algebra, (alpha, beta) = (q, 0)."""
        assert self.mode == "affine"
        return self._generator(i, el)

    def degenerate_s(self, i: int, el):
        """s_i of the degenerate affine Hecke algebra, (alpha, beta) = (1, 1)."""
        assert self.mode == "degenerate"
        return self._generator(i, el)


# -- convenience entry points --------------------------------------------


def affine_T_action(i, v, exps, n, cutoff=4, vertices=(0, 1, 2)):
    """T_i applied to the monomial x^exps in the component M_v."""
    br = HeckeBridge(n, cutoff, "affine", vertices)
    return br.affine_T(i, br.monomial(v, exps))


def degenerate_s_action(i, v, exps, n, cutoff=4, vertices=(0, 1, 2)):
    """s_i applied to the monomial x^exps in the component M_v."""
    br = HeckeBridge(n, cutoff, "degenerate", vertices)
    return br.degenerate_s(i, br.monomial(v, exps))


# -- relation suites ------------------------------------------------------


class _CachedOp:
    """Memoizes a linear operator by its columns on basis monomials.

    ``drop`` is the most the operator may lower total degree (1 for T_i,
    0 for X_j); each column is checked against it once, when it is
    built.  Calls keep only the output terms of degree < bound.
    """

    def __init__(self, br, fn, name, drop):
        self.br = br
        self.fn = fn
        self.name = name
        self.drop = drop
        self.cols = {}

    def _column(self, key):
        """The column of ``key``, as one list of terms per degree."""
        layers = [[] for _ in range(self.br.cutoff)]
        for k2, c2 in self.fn({key: self.br.one}).items():
            layers[sum(k2[1])].append((k2, c2))
        if any(layers[: max(sum(key[1]) - self.drop, 0)]):
            raise ArithmeticError(
                f"{self.name} lowers the degree of {key} by more than "
                f"{self.drop}"
            )
        return layers

    def __call__(self, el, bound):
        out = {}
        for key, c in el.items():
            layers = self.cols.get(key)
            if layers is None:
                if sum(key[1]) - self.drop >= bound:
                    continue  # every output term has degree >= bound
                layers = self.cols[key] = self._column(key)
            for layer in layers[:bound]:
                for k2, c2 in layer:
                    bump(out, k2, c * c2)
        return out


def verify_affine_relations(n, window, vertices=(0, 1, 2), slack=3):
    """Check the affine Hecke relations on all monomials of total
    degree < window, exactly in degrees < window.

    Computation runs with cutoff window + slack; one operator
    application loses at most one degree of accuracy, so the compared
    coefficients are exact.
    """
    return _verify_relations(n, window, "affine", vertices, slack)


def verify_degenerate_relations(n, window, vertices=(0, 1, 2), slack=3):
    """Check the degenerate affine Hecke relations in degrees < window."""
    return _verify_relations(n, window, "degenerate", vertices, slack)


# Basis monomials of the truncated module, |vertices|^n binomial(n +
# cutoff - 1, n), above which the relation check is refused; the count
# grows exponentially in n.  With three vertices it admits n = 4 at
# window 3 (10,206 monomials; about 7 s affine and 4.5 s degenerate on
# a 2-vCPU VM) and refuses n = 4 at window 4 (17,010; 16 s and 11 s) and
# every n >= 5.  It does not bound the growth in the window at fixed n.
_MAX_BASIS = 12_000

# Largest relation window per n (3 past n = 3), because the cost grows
# much faster in the window than the basis count does.  The affine check
# (degenerate takes about half) took on a 2-vCPU VM: n = 2, 2.5 s at
# window 12, 5.2 s at 14, 10 s at 16; n = 3, 3.0 s at window 5, 7.0 s at
# 6, 15 s at 7; n = 4, 3.5 s at window 3.
_MAX_WINDOW = {2: 16, 3: 6}


def _verify_relations(n, window, mode, vertices, slack):
    """Check the relations of T_i (``affine_T`` or ``degenerate_s`` by
    ``mode``) and X_j on every monomial of degree < window, on a bridge
    with cutoff window + slack.

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
    br = HeckeBridge(n, window + slack, mode, vertices)
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
    n = br.n
    one, alpha, beta = br.one, br.alpha, br.beta
    w = window
    T = {
        i: _CachedOp(br, lambda el, i=i: generator(i, el), f"T_{i}", 1)
        for i in range(1, n)
    }
    X = {
        j: _CachedOp(br, lambda el, j=j: br.X(j, el), f"X_{j}", 0)
        for j in range(1, n + 1)
    }

    def quadratic(m, i):
        # (T_i - alpha)(T_i + 1) = 0
        tm = T[i](m, w + 1)
        return br.add_el(
            T[i](tm, w),
            br.sub_el(br.scale_el(tm, one - alpha), br.scale_el(m, alpha)),
        )

    def straighten(m, i):
        # T_i X_{i+1} - X_i T_i = (alpha - 1) X_{i+1} + beta
        xm = X[i + 1](m, w + 1)
        return br.sub_el(
            br.sub_el(T[i](xm, w), X[i](T[i](m, w), w)),
            br.add_el(br.scale_el(xm, alpha - one), br.scale_el(m, beta)),
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
        m = br.monomial(*key)
        for name, residual, args in checks:
            yield name, key, br.low_part(residual(m, *args), window)

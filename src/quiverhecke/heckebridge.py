"""
Affine and degenerate affine Hecke algebra actions on truncated
polynomial modules split into generalized X-eigenspaces.

The module is M = sum over v in I^n of M_v, where M_v is the truncated
polynomial space k[x_1..x_n] / (monomials of total degree >= cutoff)
and X_j acts on M_v by x_j + v_j (so X_j - v_j is nilpotent on M_v).
The total-degree ideal is used because per-variable power ideals are
not preserved by divided differences.

T_i acts by the Demazure-Lusztig operator written in the X-variables,
restricted to each component:

  * if v_i = v_{i+1}:
        T_i = (q X_i - X_{i+1}) d_i + q,
    with d_i the divided difference (P - s_i P)/(x_{i+1} - x_i); on an
    equal-value component (X_i - X_{i+1})^{-1}(s_i - 1) = d_i, so this
    is the regularized form of the generic formula below;
  * if v_i != v_{i+1}:
        T_i = (q X_i - X_{i+1})(X_i - X_{i+1})^{-1} s_i
              + (1-q) X_{i+1} (X_i - X_{i+1})^{-1},
    where the first factor multiplies on the target component of the
    swap and the second on the source; both denominators have the unit
    constant term v_i - v_{i+1}, so they invert as truncated series.

The diagonal part (1-q)X_{i+1}(X_i - X_{i+1})^{-1} is forced by the
straightening relation T_iX_{i+1} - X_iT_i = (q-1)X_{i+1}; the cross
part is determined by the quadratic relation up to a componentwise
unit, which is the gauge in which the intertwiner formulas of the
literature are written.

s_i in the degenerate case is the additive analogue:

  * if v_i = v_{i+1}:
        s_i = (x_i - x_{i+1} + 1) d_i + 1;
  * if v_i != v_{i+1}:
        s_i = (X_i - X_{i+1} + 1)(X_i - X_{i+1})^{-1} swap_i
              - (X_i - X_{i+1})^{-1},
    with X_j = x_j + v_j and v_j rational.

The scalar field is Q(q) in affine mode, held as integer Laurent
polynomials in q over a product of tracked unit denominators (exact
zero tests, no polynomial gcd), and Q in degenerate mode.

Degree bookkeeping: one application of T_i or s_i lowers total degree
by at most 1 (only through the divided difference) and the truncation
drops degrees >= cutoff, so after applying k operators the terms of
degree < cutoff - k are exact.  The relation checks run with that
slack and compare below the reliable window.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

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
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
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
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("unhashable")

    def inverse(self) -> "QScalar":
        assert self.num, "division by zero"
        key, shift, sign = _unit_key(self.num)
        num = _den_product(self.den)
        num = {e - shift: sign * c for e, c in num.items()}
        return QScalar(num, (key,))

    def __repr__(self):
        return f"QScalar({self.num}, den={self.den})"


# -- scalar adapters ------------------------------------------------------


class _AffineScalars:
    zero = staticmethod(lambda: QScalar({}))
    one = staticmethod(lambda: QScalar({0: 1}))
    from_int = staticmethod(QScalar.from_int)

    @staticmethod
    def inv(s):
        return s.inverse()

    @staticmethod
    def is_zero(s):
        return s.is_zero()


class _DegenerateScalars:
    zero = staticmethod(lambda: Fraction(0))
    one = staticmethod(lambda: Fraction(1))
    from_int = staticmethod(Fraction)

    @staticmethod
    def inv(s):
        return 1 / s

    @staticmethod
    def is_zero(s):
        return s == 0


# -- truncated module -----------------------------------------------------

# an element is a dict {(v, exps): scalar} with v a tuple of vertex
# indices into the vertex list and exps of total degree < cutoff


class HeckeBridge:
    """Operators on the truncated module for a type-A vertex set.

    ``mode`` is "affine" (vertex values q^k for k in ``vertices``) or
    "degenerate" (vertex values the given rationals).
    """

    def __init__(self, n, cutoff, mode="affine", vertices=None):
        assert n >= 1 and cutoff >= 1
        self.n = n
        self.cutoff = cutoff
        self.mode = mode
        self.vertices = tuple(vertices if vertices is not None else (0, 1, 2))
        assert len(set(self.vertices)) == len(self.vertices)
        if mode == "affine":
            self.F = _AffineScalars
            self.vertex_scalars = tuple(
                QScalar.q_power(k) for k in self.vertices
            )
        else:
            assert mode == "degenerate"
            self.F = _DegenerateScalars
            self.vertex_scalars = tuple(Fraction(v) for v in self.vertices)
        self._mult_cache = {}

    def has_arrow(self, a: int, b: int) -> bool:
        """Arrow i -> qi (affine exponent +1) or i -> i+1 (degenerate)."""
        if self.mode == "affine":
            return self.vertices[b] == self.vertices[a] + 1
        return self.vertex_scalars[b] == self.vertex_scalars[a] + 1

    # -- elements ---------------------------------------------------------

    def zero_el(self):
        return {}

    def monomial(self, v, exps, coeff=None):
        v = tuple(v)
        exps = tuple(exps)
        assert len(v) == self.n and len(exps) == self.n
        assert all(0 <= k < len(self.vertices) for k in v)
        assert sum(exps) < self.cutoff
        return {(v, exps): self.F.one() if coeff is None else coeff}

    def add_el(self, a, b):
        out = dict(a)
        for key, c in b.items():
            if key in out:
                s = out[key] + c
                if self.F.is_zero(s):
                    del out[key]
                else:
                    out[key] = s
            else:
                out[key] = c
        return out

    def scale_el(self, a, c):
        return {key: val * c for key, val in a.items()}

    def neg_el(self, a):
        return {key: -val for key, val in a.items()}

    def sub_el(self, a, b):
        return self.add_el(a, self.neg_el(b))

    def is_zero_el(self, a) -> bool:
        return all(self.F.is_zero(c) for c in a.values())

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
        out = {}
        for (v, exps), c in el.items():
            e2 = tuple(a + b for a, b in zip(exps, shift))
            if sum(e2) >= self.cutoff:
                continue
            key = (v, e2)
            val = c * coeff
            if key in out:
                val = out[key] + val
            if self.F.is_zero(val):
                out.pop(key, None)
            else:
                out[key] = val
        return out

    def mul_linear(self, el, terms):
        """Multiply by a polynomial [(shift, coeff), ...]."""
        out = {}
        for shift, coeff in terms:
            out = self.add_el(out, self.mul_term(el, shift, coeff))
        return out

    def demazure(self, i: int, el):
        """Componentwise divided difference (P - s_i P)/(x_{i+1}-x_i)."""
        out = {}
        for (v, exps), c in el.items():
            sign, monomials = demazure_exponents(exps, i)
            if not monomials:
                continue
            term = c * self.F.from_int(sign)
            for e2 in monomials:
                key = (v, e2)
                val = out[key] + term if key in out else term
                if self.F.is_zero(val):
                    out.pop(key, None)
                else:
                    out[key] = val
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
        one = self.F.one()
        out = {}
        for (v, exps), c in el.items():
            comp = {(v, exps): c}
            if v[i - 1] == v[i]:
                piece = self.demazure(i, comp)
            else:
                piece = self.swap(i, comp)
                if self.has_arrow(v[i - 1], v[i]):
                    piece = self.mul_linear(
                        piece,
                        [(self.x_shift(i), one), (self.x_shift(i + 1), -one)],
                    )
            out = self.add_el(out, piece)
        return out

    def series_inverse(self, const, lin):
        """(const + lin)^{-1} truncated; lin is [(shift, coeff), ...]."""
        cinv = self.F.inv(const)
        out = {(0,) * self.n: cinv}
        layer = [((0,) * self.n, cinv)]
        while layer:
            nxt = {}
            for shift, coeff in layer:
                for s2, c2 in lin:
                    e = tuple(a + b for a, b in zip(shift, s2))
                    if sum(e) >= self.cutoff:
                        continue
                    val = -(coeff * c2 * cinv)
                    nxt[e] = nxt.get(e, self.F.zero()) + val
            layer = [(e, c) for e, c in nxt.items() if not self.F.is_zero(c)]
            for e, c in layer:
                out[e] = out.get(e, self.F.zero()) + c
        return [(e, c) for e, c in out.items() if not self.F.is_zero(c)]

    def series_mul(self, a, b):
        """Truncated product of two term lists [(shift, coeff), ...]."""
        out = {}
        for s1, c1 in a:
            for s2, c2 in b:
                e = tuple(p + q for p, q in zip(s1, s2))
                if sum(e) >= self.cutoff:
                    continue
                out[e] = out.get(e, self.F.zero()) + c1 * c2
        return [(e, c) for e, c in out.items() if not self.F.is_zero(c)]

    # -- the X action ------------------------------------------------------

    def X(self, j: int, el):
        """X_j = x_j + v_j, componentwise."""
        assert 1 <= j <= self.n
        out = self.mul_term(el, self.x_shift(j), self.F.one())
        for (v, exps), c in el.items():
            key = (v, exps)
            val = c * self.vertex_scalars[v[j - 1]]
            if key in out:
                val = out[key] + val
            if self.F.is_zero(val):
                out.pop(key, None)
            else:
                out[key] = val
        return out

    # -- the affine Hecke action ------------------------------------------

    def _group_by_component(self, el):
        groups = {}
        for (v, exps), c in el.items():
            groups.setdefault(v, {})[(v, exps)] = c
        return groups

    def _affine_mults(self, i, va, vb):
        """Cached diagonal and cross multiplier series on the pair of
        distinct vertex values at positions i, i+1."""
        key = ("affine", i, va, vb)
        if key not in self._mult_cache:
            q = QScalar.q_power(1)
            one = self.F.one()
            ei = self.x_shift(i)
            ei1 = self.x_shift(i + 1)
            zero_shift = (0,) * self.n
            vi = self.vertex_scalars[va]
            vi1 = self.vertex_scalars[vb]
            inv_src = self.series_inverse(vi - vi1, [(ei, one), (ei1, -one)])
            diag = self.series_mul(
                inv_src, [(ei1, one - q), (zero_shift, (one - q) * vi1)]
            )
            inv_tgt = self.series_inverse(vi1 - vi, [(ei, one), (ei1, -one)])
            cross = self.series_mul(
                inv_tgt, [(ei, q), (ei1, -one), (zero_shift, q * vi1 - vi)]
            )
            self._mult_cache[key] = (diag, cross)
        return self._mult_cache[key]

    def affine_T(self, i: int, el):
        assert self.mode == "affine" and 1 <= i < self.n
        q = QScalar.q_power(1)
        one = self.F.one()
        ei = self.x_shift(i)
        ei1 = self.x_shift(i + 1)
        zero_shift = (0,) * self.n
        out = {}
        for v, comp in self._group_by_component(el).items():
            vi = self.vertex_scalars[v[i - 1]]
            if v[i - 1] == v[i]:
                # (q X_i - X_{i+1}) d_i + q
                piece = self.demazure(i, comp)
                piece = self.mul_linear(
                    piece,
                    [(ei, q), (ei1, -one), (zero_shift, (q - one) * vi)],
                )
                piece = self.add_el(piece, self.scale_el(comp, q))
            else:
                # diagonal on the source, cross multiplier after the
                # swap with the target component's constants
                diag_series, cross_series = self._affine_mults(
                    i, v[i - 1], v[i]
                )
                diag = self.mul_linear(comp, diag_series)
                cross = self.mul_linear(self.swap(i, comp), cross_series)
                piece = self.add_el(diag, cross)
            out = self.add_el(out, piece)
        return out

    # -- the degenerate action --------------------------------------------

    def _degenerate_mults(self, i, va, vb):
        key = ("degenerate", i, va, vb)
        if key not in self._mult_cache:
            one = self.F.one()
            ei = self.x_shift(i)
            ei1 = self.x_shift(i + 1)
            zero_shift = (0,) * self.n
            vi = self.vertex_scalars[va]
            vi1 = self.vertex_scalars[vb]
            inv_src = self.series_inverse(vi - vi1, [(ei, one), (ei1, -one)])
            diag = [(e, -c) for e, c in inv_src]
            inv_tgt = self.series_inverse(vi1 - vi, [(ei, one), (ei1, -one)])
            cross = self.series_mul(
                inv_tgt,
                [(ei, one), (ei1, -one), (zero_shift, vi1 - vi + one)],
            )
            self._mult_cache[key] = (diag, cross)
        return self._mult_cache[key]

    def degenerate_s(self, i: int, el):
        assert self.mode == "degenerate" and 1 <= i < self.n
        one = self.F.one()
        ei = self.x_shift(i)
        ei1 = self.x_shift(i + 1)
        zero_shift = (0,) * self.n
        out = {}
        for v, comp in self._group_by_component(el).items():
            if v[i - 1] == v[i]:
                # (x_i - x_{i+1} + 1) d_i + 1
                piece = self.demazure(i, comp)
                piece = self.mul_linear(
                    piece, [(ei, one), (ei1, -one), (zero_shift, one)]
                )
                piece = self.add_el(piece, comp)
            else:
                diag_series, cross_series = self._degenerate_mults(
                    i, v[i - 1], v[i]
                )
                diag = self.mul_linear(comp, diag_series)
                cross = self.mul_linear(self.swap(i, comp), cross_series)
                piece = self.add_el(diag, cross)
            out = self.add_el(out, piece)
        return out


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
    """Memoizes a linear operator by its columns on basis monomials."""

    def __init__(self, br, fn):
        self.br = br
        self.fn = fn
        self.cols = {}

    def __call__(self, el):
        out = {}
        F = self.br.F
        for key, c in el.items():
            col = self.cols.get(key)
            if col is None:
                col = self.fn({key: F.one()})
                self.cols[key] = col
            for k2, c2 in col.items():
                val = c * c2
                if k2 in out:
                    val = out[k2] + val
                if F.is_zero(val):
                    out.pop(k2, None)
                else:
                    out[k2] = val
        return out


def verify_affine_relations(n, window, vertices=(0, 1, 2), slack=3):
    """Check the affine Hecke relations on all monomials of total
    degree < window, exactly in degrees < window.

    Computation runs with cutoff window + slack; one operator
    application loses at most one degree of accuracy, so the compared
    coefficients are exact.
    """
    br = HeckeBridge(n, window + slack, "affine", vertices)
    q = QScalar.q_power(1)
    one = br.F.one()
    T = {
        i: _CachedOp(br, lambda el, i=i: br.affine_T(i, el))
        for i in range(1, n)
    }
    X = {
        j: _CachedOp(br, lambda el, j=j: br.X(j, el))
        for j in range(1, n + 1)
    }

    checks = []
    for i in range(1, n):
        # (T_i - q)(T_i + 1) = 0
        checks.append(
            (
                f"quadratic T_{i}",
                lambda m, i=i: br.add_el(
                    T[i](T[i](m)),
                    br.sub_el(
                        br.scale_el(T[i](m), one - q), br.scale_el(m, q)
                    ),
                ),
            )
        )
        # T_i X_{i+1} - X_i T_i = (q-1) X_{i+1}
        checks.append(
            (
                f"straighten T_{i}",
                lambda m, i=i: br.sub_el(
                    br.sub_el(T[i](X[i + 1](m)), X[i](T[i](m))),
                    br.scale_el(X[i + 1](m), q - one),
                ),
            )
        )
        # T_i X_j = X_j T_i for j outside {i, i+1}
        for j in range(1, n + 1):
            if j in (i, i + 1):
                continue
            checks.append(
                (
                    f"commute T_{i} X_{j}",
                    lambda m, i=i, j=j: br.sub_el(
                        T[i](X[j](m)), X[j](T[i](m))
                    ),
                )
            )
    # X_i X_j = X_j X_i
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            checks.append(
                (
                    f"commute X_{i} X_{j}",
                    lambda m, i=i, j=j: br.sub_el(
                        X[i](X[j](m)), X[j](X[i](m))
                    ),
                )
            )
    # braid
    for i in range(1, n - 1):
        checks.append(
            (
                f"braid T_{i} T_{i + 1}",
                lambda m, i=i: br.sub_el(
                    T[i](T[i + 1](T[i](m))),
                    T[i + 1](T[i](T[i + 1](m))),
                ),
            )
        )
    _run_checks(br, checks, window)
    return True


def verify_degenerate_relations(n, window, vertices=(0, 1, 2), slack=3):
    """Check the degenerate affine Hecke relations in degrees < window."""
    br = HeckeBridge(n, window + slack, "degenerate", vertices)
    S = {
        i: _CachedOp(br, lambda el, i=i: br.degenerate_s(i, el))
        for i in range(1, n)
    }
    X = {
        j: _CachedOp(br, lambda el, j=j: br.X(j, el))
        for j in range(1, n + 1)
    }
    checks = []
    for i in range(1, n):
        checks.append(
            (
                f"involution s_{i}",
                lambda m, i=i: br.sub_el(S[i](S[i](m)), m),
            )
        )
        checks.append(
            (
                f"straighten s_{i}",
                lambda m, i=i: br.sub_el(
                    br.sub_el(S[i](X[i + 1](m)), X[i](S[i](m))), m
                ),
            )
        )
        for j in range(1, n + 1):
            if j in (i, i + 1):
                continue
            checks.append(
                (
                    f"commute s_{i} X_{j}",
                    lambda m, i=i, j=j: br.sub_el(
                        S[i](X[j](m)), X[j](S[i](m))
                    ),
                )
            )
    for i in range(1, n - 1):
        checks.append(
            (
                f"braid s_{i} s_{i + 1}",
                lambda m, i=i: br.sub_el(
                    S[i](S[i + 1](S[i](m))),
                    S[i + 1](S[i](S[i + 1](m))),
                ),
            )
        )
    _run_checks(br, checks, window)
    return True


def _run_checks(br, checks, window):
    for key in br.basis(window):
        m = br.monomial(*key)
        for name, fn in checks:
            r = br.low_part(fn(m), window)
            assert br.is_zero_el(r), (name, key)

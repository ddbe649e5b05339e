import functools
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quiverhecke.heckebridge as hb
from quiverhecke import klr
from quiverhecke.heckebridge import (
    _CUTOFF_ABOVE_WINDOW,
    _UNIT_POLYS,
    HeckeBridge,
    QScalar,
    _CachedOp,
    _indexed_basis,
    _relation_residuals,
    _unit_key,
    verify_affine_relations,
    verify_degenerate_relations,
)
from quiverhecke.laurent import mul_terms
from quiverhecke.linalg import bump
from quiverhecke.polyring import (
    MPoly,
    demazure_exponents,
    divide_exact_by_x_difference,
    swap_adjacent,
)


# -- scalars --------------------------------------------------------------


def test_qscalar_ring_ops():
    q = QScalar.q_power(1)
    one = QScalar.from_int(1)
    assert (q - q).is_zero()
    assert q * q == QScalar.q_power(2)
    assert (q + one) * (q - one) == QScalar.q_power(2) - one
    assert QScalar.from_int(0).is_zero()


def test_qscalar_inverse():
    q = QScalar.q_power(1)
    one = QScalar.from_int(1)
    u = one - q
    assert u * u.inverse() == one
    assert (q * u).inverse() * q * u == one
    # adding fractions over different denominators
    a = u.inverse()
    b = (one + q).inverse()
    s = a + b
    assert s * u * (one + q) == (one + q) + u


def test_qscalar_negative_powers():
    q = QScalar.q_power(1)
    qi = QScalar.q_power(-1)
    assert q * qi == QScalar.from_int(1)


def _padd(a, b):
    out = dict(a)
    for e, c in b.items():
        bump(out, e, c)
    return out


def _dict_den_product(units):
    out = {0: 1}
    for key in units:
        out = mul_terms(out, _UNIT_POLYS[key])
    return out


class DictQScalar:
    """The reference scalar: QScalar with its numerator held as a term
    dict {power: coefficient} and multiplied by ``laurent.mul_terms``,
    over the same sorted tuples of unit keys."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=()):
        self.num = num
        self.den = den if num else ()

    @staticmethod
    def from_int(c):
        return DictQScalar({0: c} if c else {})

    @staticmethod
    def q_power(k):
        return DictQScalar({k: 1})

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        if self.den == other.den:
            return DictQScalar(_padd(self.num, other.num), self.den)
        extra_a, extra_b, merged = [], [], []
        for key in sorted(set(self.den) | set(other.den)):
            na, nb = self.den.count(key), other.den.count(key)
            top = max(na, nb)
            merged.extend([key] * top)
            extra_a.extend([key] * (top - na))
            extra_b.extend([key] * (top - nb))
        na = mul_terms(self.num, _dict_den_product(extra_a))
        nb = mul_terms(other.num, _dict_den_product(extra_b))
        return DictQScalar(_padd(na, nb), tuple(merged))

    def __neg__(self):
        return DictQScalar({e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.num or not other.num:
            return DictQScalar({})
        den = self.den + other.den
        if self.den and other.den:
            den = tuple(sorted(den))
        return DictQScalar(mul_terms(self.num, other.num), den)

    def __eq__(self, other):
        return not (self - other)

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("DictQScalar division by zero")
        key, shift, sign = _unit_key(self.num)
        num = _dict_den_product(self.den)
        return DictQScalar({e - shift: sign * c for e, c in num.items()}, (key,))

    def __truediv__(self, other):
        return self * other.inverse()


_POINTS = (Fraction(2), Fraction(3), Fraction(1, 2))


def _poly_at(terms, x):
    return sum(c * x ** e for e, c in terms.items())


def _qscalar_at(s, x):
    """num(x) / prod(unit(x)), exactly."""
    den = math.prod(_poly_at(_UNIT_POLYS[key], x) for key in s.den)
    return Fraction(_poly_at(s.num, x)) / den


def _leaf(rng, scalar=QScalar):
    """A random q^k, integer or 1/(q^a - q^b), with its values at _POINTS."""
    kind = rng.randrange(3)
    if kind == 0:
        k = rng.randint(-2, 2)
        return scalar.q_power(k), [x ** k for x in _POINTS]
    if kind == 1:
        c = rng.randint(-3, 3)
        return scalar.from_int(c), [Fraction(c)] * len(_POINTS)
    a, b = rng.sample(range(4), 2)
    unit = scalar.q_power(a) - scalar.q_power(b)
    return unit.inverse(), [1 / (x ** a - x ** b) for x in _POINTS]


def _combine(op, left, right):
    (s, sv), (t, tv) = left, right
    if op == "+":
        return s + t, [a + b for a, b in zip(sv, tv)]
    if op == "-":
        return s - t, [a - b for a, b in zip(sv, tv)]
    return s * t, [a * b for a, b in zip(sv, tv)]


def _expression(rng, depth, scalar=QScalar):
    if depth == 0:
        return _leaf(rng, scalar)
    left = _expression(rng, depth - 1, scalar)
    right = _expression(rng, rng.randrange(depth), scalar)
    return _combine(rng.choice("+-*"), left, right)


def test_qscalar_matches_exact_evaluation():
    # random expressions in q^k, integers and 1/(q^a - q^b), evaluated at
    # q = 2, 3, 1/2, against the same expression over Fraction
    rng = random.Random(2301)
    mixed_sums = 0
    for _ in range(300):
        left = _expression(rng, rng.randrange(4))
        right = _expression(rng, rng.randrange(4))
        mixed_sums += left[0].den != right[0].den
        for op in "+-*":
            s, values = _combine(op, left, right)
            assert s.den == tuple(sorted(s.den))
            assert [_qscalar_at(s, x) for x in _POINTS] == values, (op, s)
    assert mixed_sums > 100
    # sums and products of the same units taken in different orders
    leaves = [_leaf(rng) for _ in range(8)]
    for _ in range(20):
        rng.shuffle(leaves)
        for op in "+*":
            acc = leaves[0]
            for leaf in leaves[1:]:
                acc = _combine(op, acc, leaf)
            s, values = acc
            assert [_qscalar_at(s, x) for x in _POINTS] == values, (op, s)


def test_packed_qscalar_matches_dict_reference():
    # the same random expressions over the packed scalar and over the
    # dict-numerator reference: numerators and denominators equal exactly
    seen_units = set()
    for seed in range(300):
        depth = seed % 5
        s, _ = _expression(random.Random(seed), depth)
        ref, _ = _expression(random.Random(seed), depth, DictQScalar)
        assert (s.num, s.den) == (ref.num, ref.den), seed
        assert s._l1 >= sum(abs(c) for c in ref.num.values()), seed
        seen_units.update(s.den)
    # the unit keys of the vertices (0, 1, 3): 1 - q, 1 - q^3 and, from
    # q - q^3, 1 - q^2
    keys = {_unit_key(p)[0] for p in ({0: 1, 1: -1}, {0: 1, 3: -1}, {1: 1, 3: -1})}
    assert len(keys) == 3 and keys <= seen_units


@pytest.mark.parametrize("vertices", [(0, 1, 2), (0, 1, 3)])
@pytest.mark.parametrize("n", [2, 3])
def test_affine_columns_match_dict_reference(n, vertices):
    # every affine_T column at cutoff 4 is the same over both scalar types
    br = HeckeBridge(n, 4, "affine", vertices)
    ref = HeckeBridge(n, 4, "affine", vertices)
    ref.one, ref.alpha = DictQScalar.from_int(1), DictQScalar.q_power(1)
    ref.beta = DictQScalar.from_int(0)
    ref.vertex_scalars = tuple(DictQScalar.q_power(k) for k in vertices)
    for key in br.basis():
        for i in range(1, n):
            got = br.affine_T(i, br.monomial(*key))
            expected = ref.affine_T(i, ref.monomial(*key))
            assert {k: (c.num, c.den) for k, c in got.items()} == {
                k: (c.num, c.den) for k, c in expected.items()
            }, (i, key)


def _drop_shift_mul(self, other):
    """QScalar.__mul__ without the shift s_a + s_b: q^a q^b becomes 1."""
    if not self or not other:
        return QScalar.from_int(0)
    return hb._make(
        self._n * other._n, 0, self._l1 * other._l1,
        tuple(sorted(self.den + other.den)),
    )


def test_packed_bound_is_enforced(monkeypatch):
    # a zero n with a coefficient bound of 2^63 or more proves nothing
    big = QScalar.from_int(2 ** 62)
    with pytest.raises(ArithmeticError, match="zero test inconclusive"):
        big + big - QScalar.from_int(2 ** 63)
    with pytest.raises(ArithmeticError, match="cannot be unpacked"):
        QScalar.from_int(2 ** 63).num
    # below the bound, the balanced digits are the coefficients
    poly = {-2: 2 ** 62, -1: -(2 ** 61), 1: 5, 2: -1}
    assert QScalar(poly).num == poly
    top = QScalar.from_int(2 ** 62 - 1)
    assert (top - top).is_zero()
    # a product that drops the q-shift must fail a relation
    monkeypatch.setattr(QScalar, "__mul__", _drop_shift_mul)
    with pytest.raises(ArithmeticError, match="affine Hecke relation .* fails"):
        verify_affine_relations(2, 3)


def test_packed_bound_is_enforced_under_optimize():
    code = (
        "import sys\n"
        "import quiverhecke.heckebridge as hb\n"
        "Q = hb.QScalar\n"
        "def drop_shift(self, other):\n"
        "    if not self or not other:\n"
        "        return Q.from_int(0)\n"
        "    return hb._make(self._n * other._n, 0, self._l1 * other._l1,\n"
        "                    tuple(sorted(self.den + other.den)))\n"
        "def relations():\n"
        "    Q.__mul__ = drop_shift\n"
        "    hb.verify_affine_relations(2, 3)\n"
        "calls = [\n"
        "    lambda: Q.from_int(2 ** 62) + Q.from_int(2 ** 62) - Q.from_int(2 ** 63),\n"
        "    lambda: Q.from_int(2 ** 63).num,\n"
        "    relations,\n"
        "]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "        print('returned')\n"
        "    except ArithmeticError as exc:\n"
        "        print('raised', str(exc).split()[0])\n"
        "print(sys.flags.optimize)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == [
        "raised", "zero", "raised", "numerator", "raised", "affine", "1"
    ]


# -- module primitives ----------------------------------------------------


def generator_column(mode, i, v, exps, n, cutoff=4):
    """T_i (affine) or s_i (degenerate) on x^exps in M_v, vertices (0, 1, 2)."""
    br = HeckeBridge(n, cutoff, mode)
    generator = br.affine_T if mode == "affine" else br.degenerate_s
    return generator(i, br.monomial(v, exps))


def test_truncation_drops_high_degrees():
    # x_j times a monomial of degree cutoff - 1 is truncated away, so X_j
    # acts on it by its vertex value alone
    br = HeckeBridge(2, 3, "affine")
    m = br.monomial((0, 1), (1, 1))
    for j in (1, 2):
        assert br.X(j, m) == br.scale_el(m, br.vertex_scalars[j - 1])
    # so is tau_1 of it, the swap times x_1 - x_2 across the arrow 0 -> 1
    assert br.tau(1, m) == {}


def test_x_minus_vertex_is_nilpotent():
    # (X_j - v_j) raises total degree, so cutoff applications vanish
    br = HeckeBridge(2, 3, "affine")
    el = br.monomial((1, 2), (0, 0))
    v1 = br.vertex_scalars[1]
    for _ in range(3):
        el = br.sub_el(br.X(1, el), br.scale_el(el, v1))
    assert br.is_zero_el(el)


def test_swap_is_an_involution():
    # labels 0 and 2 are joined by no arrow, so tau_2 is the swap
    # M_v -> M_{s_2 v}, and its square is the identity
    for mode in ("affine", "degenerate"):
        br = HeckeBridge(3, 4, mode)
        m = br.monomial((1, 0, 2), (1, 0, 2))
        assert br.tau(2, m) == {((1, 2, 0), (1, 2, 0)): br.one}
        assert br.tau(2, br.tau(2, m)) == m


def test_demazure_example():
    # on an equal-label component tau_1 is the divided difference:
    # (x1^2 - s x1^2) / (x2 - x1) = -(x1 + x2)
    br = HeckeBridge(2, 4, "degenerate")
    out = br.tau(1, br.monomial((0, 0), (2, 0)))
    assert out == {
        ((0, 0), (1, 0)): Fraction(-1),
        ((0, 0), (0, 1)): Fraction(-1),
    }


def test_series_inverse_inverts():
    # (const + lin)^{-1} (const + lin) = 1 below the cutoff, with a
    # Fraction inverse (degenerate) and a unit denominator (affine)
    br = HeckeBridge(2, 5, "degenerate")
    const = Fraction(3)
    lin = {(1, 0): Fraction(1), (0, 1): Fraction(-2)}
    inv = br.series_inverse(const, lin)
    assert br.series_mul(inv, {**lin, (0, 0): const}) == {(0, 0): 1}
    br = HeckeBridge(2, 5, "affine")
    const = br.vertex_scalars[0] - br.vertex_scalars[1]
    lin = {(1, 0): br.one, (0, 1): -br.one}
    inv = br.series_inverse(const, lin)
    assert inv[0, 0].den
    assert br.series_mul(inv, {**lin, (0, 0): const}) == {(0, 0): br.one}


# -- the affine action ----------------------------------------------------


def test_affine_T_on_unit_equal_component():
    # T_i acts by q on the constant function of an equal-value component
    out = generator_column("affine", 1, (0, 0), (0, 0), 2)
    assert out == {((0, 0), (0, 0)): QScalar.q_power(1)}


def test_affine_T_equal_component_formula():
    # T_1 x_1 = -(q X_1 - X_2) + q x_1 = x_2 + q - q^2 on the
    # component with both values q (the divided difference of x_1
    # is -1 in the (P - sP)/(x_2 - x_1) convention)
    out = generator_column("affine", 1, (1, 1), (1, 0), 2)
    q = QScalar.q_power(1)
    one = QScalar.from_int(1)
    assert out == {
        ((1, 1), (0, 1)): one,
        ((1, 1), (0, 0)): q - QScalar.q_power(2),
    }


def test_affine_T_moves_between_components():
    # a distinct-value component maps into itself plus the swapped one
    out = generator_column("affine", 1, (0, 1), (0, 0), 2)
    comps = {v for (v, e) in out}
    assert comps == {(0, 1), (1, 0)}


def test_affine_T_distinct_component_values():
    # the column of T_1 on the constant of M_(0,1), recorded before
    # both modes shared one generator formula
    q = QScalar.q_power(1)
    one = QScalar.from_int(1)
    u = (one - q).inverse()
    out = generator_column("affine", 1, (0, 1), (0, 0), 2, cutoff=3)
    assert out == {
        ((0, 1), (0, 0)): q,
        ((0, 1), (0, 1)): u,
        ((0, 1), (0, 2)): u * u,
        ((0, 1), (1, 0)): -(q * u),
        ((0, 1), (1, 1)): -((one + q) * u * u),
        ((0, 1), (2, 0)): q * u * u,
        ((1, 0), (0, 0)): one + q,
        ((1, 0), (0, 1)): -(q * u),
        ((1, 0), (0, 2)): q * u * u,
        ((1, 0), (1, 0)): u,
        ((1, 0), (1, 1)): -((one + q) * u * u),
        ((1, 0), (2, 0)): u * u,
    }


def test_affine_relations_small():
    assert verify_affine_relations(2, 4)


def test_affine_relations_rank_three():
    assert verify_affine_relations(3, 3)


def test_affine_relations_other_vertices():
    assert verify_affine_relations(2, 3, vertices=(0, 2))


def test_affine_relations_rank_four():
    assert verify_affine_relations(4, 2)


# -- the degenerate action ------------------------------------------------


def test_degenerate_s_fixes_constants_on_equal_component():
    out = generator_column("degenerate", 1, (2, 2), (0, 0), 2)
    assert out == {((2, 2), (0, 0)): Fraction(1)}


def test_degenerate_s_equal_component_formula():
    # s_1 x_1 = x_2 + d(x_1) = x_2 - 1 on the component (c, c)
    out = generator_column("degenerate", 1, (0, 0), (1, 0), 2)
    assert out == {
        ((0, 0), (0, 1)): Fraction(1),
        ((0, 0), (0, 0)): Fraction(-1),
    }


def test_degenerate_straightening_on_distinct_component():
    # s_1 X_2 - X_1 s_1 = 1 on M_(0,1), checked below the window
    br = HeckeBridge(2, 6, "degenerate")
    for exps in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]:
        m = br.monomial((0, 1), exps)
        lhs = br.sub_el(
            br.degenerate_s(1, br.X(2, m)), br.X(1, br.degenerate_s(1, m))
        )
        residual = br.sub_el(lhs, m)
        assert br.is_zero_el({k: c for k, c in residual.items() if sum(k[1]) < 4})


def test_degenerate_s_distinct_component_values():
    # recorded before both modes shared one generator formula
    out = generator_column("degenerate", 1, (0, 1), (0, 0), 2, cutoff=3)
    assert out == {
        ((0, 1), (0, 0)): Fraction(1),
        ((0, 1), (0, 1)): Fraction(-1),
        ((0, 1), (0, 2)): Fraction(1),
        ((0, 1), (1, 0)): Fraction(1),
        ((0, 1), (1, 1)): Fraction(-2),
        ((0, 1), (2, 0)): Fraction(1),
        ((1, 0), (0, 0)): Fraction(2),
        ((1, 0), (0, 1)): Fraction(1),
        ((1, 0), (0, 2)): Fraction(1),
        ((1, 0), (1, 0)): Fraction(-1),
        ((1, 0), (1, 1)): Fraction(-2),
        ((1, 0), (2, 0)): Fraction(1),
    }


def test_degenerate_relations_small():
    assert verify_degenerate_relations(2, 4)


def test_degenerate_relations_rank_three():
    assert verify_degenerate_relations(3, 3)


def test_degenerate_relations_rank_four():
    assert verify_degenerate_relations(4, 2)


def _truncated(p, cutoff):
    return MPoly(p.nx, (), {e: c for e, c in p.terms.items() if sum(e) < cutoff})


def _inverse_series(const, d, cutoff):
    """(const + d)^{-1} = sum_k (-d)^k / const^(k + 1), truncated."""
    out, power = MPoly.zero(d.nx), MPoly.one(d.nx)
    for k in range(cutoff):
        out = out + power.scale(Fraction(1) / const ** (k + 1))
        power = _truncated(power * -d, cutoff)
    return out


def reference_degenerate_s(n, cutoff, values, i, v, exps):
    """s_i on x^exps in M_v over Fraction, from the module formulas with
    (alpha, beta) = (1, 1), composing MPoly objects:
    (X_i - X_{i+1} + 1) d_i + 1 when v_i = v_{i+1}, and otherwise
    N_i (X_i - X_{i+1})^{-1} after the swap on the target component plus
    -(X_i - X_{i+1})^{-1} on the source."""
    values = [Fraction(c) for c in values]
    x = [None] + [MPoly.x(j, n) for j in range(1, n + 1)]
    d = x[i] - x[i + 1]
    poly = MPoly(n, (), {exps: Fraction(1)})
    a, b = values[v[i - 1]], values[v[i]]
    if v[i - 1] == v[i]:
        divided = divide_exact_by_x_difference(poly - poly.act_simple(i), i + 1, i)
        return {v: _truncated((d + 1) * divided + poly, cutoff)}
    target = v[: i - 1] + (v[i], v[i - 1]) + v[i + 1:]
    # the target component has the values b, a at positions i, i + 1
    target_part = (d + (b - a + 1)) * _inverse_series(b - a, d, cutoff)
    source_part = -_inverse_series(a - b, d, cutoff)
    return {
        target: _truncated(target_part * poly.act_simple(i), cutoff),
        v: _truncated(source_part * poly, cutoff),
    }


@pytest.mark.parametrize(
    "vertices",
    [(0, 1, 2), (0, 2), (0, 1, 3), (Fraction(1, 2), Fraction(3, 2), Fraction(-5, 3))],
)
@pytest.mark.parametrize("n, cutoff", [(2, 4), (3, 3)])
def test_degenerate_columns_are_exact(vertices, n, cutoff):
    # integer vertex values give int columns with a Fraction only where a
    # difference of values is not +-1; no coefficient is ever a float
    br = HeckeBridge(n, cutoff, "degenerate", vertices)
    for v, exps in br.basis():
        for i in range(1, n):
            got = br.degenerate_s(i, br.monomial(v, exps))
            assert all(type(c) in (int, Fraction) for c in got.values())
            expected = {
                (u, e): c
                for u, p in reference_degenerate_s(
                    n, cutoff, vertices, i, v, exps
                ).items()
                for e, c in p.terms.items()
            }
            assert {k: c for k, c in got.items() if c} == expected, (i, v, exps)
            if all(type(c) is int for c in vertices) and abs(
                vertices[v[i - 1]] - vertices[v[i]]
            ) <= 1:
                assert all(type(c) is int for c in got.values())


@pytest.mark.parametrize("vertices", [(0, 1, 2), (0, 2), (0, 1, 3)])
def test_sign_flipped_degenerate_s_fails(monkeypatch, vertices):
    # -s_1 squares to 1 too, so the straightening relation must catch it
    original = HeckeBridge.degenerate_s

    def flipped(self, i, el):
        out = original(self, i, el)
        return self.neg_el(out) if i == 1 else out

    assert verify_degenerate_relations(2, 2, vertices)
    monkeypatch.setattr(HeckeBridge, "degenerate_s", flipped)
    with pytest.raises(ArithmeticError, match="straighten T_1 fails"):
        verify_degenerate_relations(2, 2, vertices)


# -- the relation suites ---------------------------------------------------


def test_scaled_elements_keep_no_zero_entries(monkeypatch):
    # the relation residuals scale by one - alpha, alpha - one (both 0 in
    # degenerate mode) and beta (0 in affine mode); a zero scalar or a
    # zero product must leave no entry behind
    original = HeckeBridge.scale_el
    calls = []

    def checked(self, a, c):
        out = original(self, a, c)
        calls.append(c)
        assert all(out.values()), (a, c)
        return out

    monkeypatch.setattr(HeckeBridge, "scale_el", checked)
    for n, window in [(2, 4), (3, 2)]:
        assert verify_degenerate_relations(n, window)
        assert verify_affine_relations(n, window)
    assert any(not c for c in calls)


@pytest.mark.parametrize(
    "method, verify, relation",
    [
        ("affine_T", "verify_affine_relations", "quadratic T_1"),
        # -s_i is an involution too, so straightening is what fails
        ("degenerate_s", "verify_degenerate_relations", "straighten T_1"),
    ],
)
def test_wrong_generator_raises_under_optimize(method, verify, relation):
    # a sign-flipped generator must fail under `python -O`, which strips
    # assert statements
    code = (
        "import sys\n"
        "import quiverhecke.heckebridge as hb\n"
        f"original = hb.HeckeBridge.{method}\n"
        f"hb.HeckeBridge.{method} = (\n"
        "    lambda self, i, el: self.neg_el(original(self, i, el)))\n"
        "try:\n"
        f"    hb.{verify}(2, 3)\n"
        "except ArithmeticError as exc:\n"
        "    print('raised', sys.flags.optimize, exc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split()[:2] == ["raised", "1"]
    assert f"Hecke relation {relation} fails" in res.stdout


@pytest.mark.parametrize(
    "verify", [verify_affine_relations, verify_degenerate_relations]
)
def test_single_strand_has_no_relations(verify):
    # at n = 1 there is nothing to check, so no vacuous True
    with pytest.raises(ValueError, match="need n >= 2"):
        verify(1, 3)


@pytest.mark.parametrize(
    "verify", [verify_affine_relations, verify_degenerate_relations]
)
@pytest.mark.parametrize("window", [0, -2, -5])
def test_empty_window_raises(verify, window):
    # no monomial has degree < window, so no vacuous True; at -5 the
    # cutoff window + 2 is below 1 as well
    with pytest.raises(ValueError, match="window must be at least 1"):
        verify(2, window)
    with pytest.raises(ValueError, match="window must be at least 1"):
        verify(3, window)


def test_empty_window_raises_under_optimize():
    code = (
        "import sys\n"
        "import quiverhecke.heckebridge as hb\n"
        "for call in (lambda: hb.verify_affine_relations(2, 0),\n"
        "             lambda: hb.verify_degenerate_relations(3, -2)):\n"
        "    try:\n"
        "        print('returned', call())\n"
        "    except ValueError:\n"
        "        print('raised')\n"
        "print(sys.flags.optimize)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["raised", "raised", "1"]


@pytest.mark.parametrize(
    "verify", [verify_affine_relations, verify_degenerate_relations]
)
def test_module_size_guard(verify):
    # n = 5 at window 2 has 243 * binomial(8, 5) = 13,608 basis monomials
    with pytest.raises(ValueError, match="13608 basis monomials"):
        verify(5, 2)
    with pytest.raises(ValueError, match="above the limit"):
        verify(6, 1)


def _demazure(i, el):
    """The divided difference d_i on each component of a bridge element."""
    out = {}
    for (v, exps), c in el.items():
        sign, monomials = demazure_exponents(exps, i)
        for m in monomials:
            bump(out, (v, m), c if sign > 0 else -c)
    return out


def _perturbed_operators(br):
    """T_i + d_{n-i} + x_1 and X_j + s_1: wrong operators that still
    lower total degree by at most 1 and 0, so that every relation has
    nonzero residuals to compare."""
    generator, x_op = br._generator, br.X

    def T(i, el):
        out = br.add_el(generator(i, el), _demazure(br.n - i, el))
        br._add_product(out, el, [(br.x_shift(1), br.one)])
        return out

    def X(j, el):
        swapped = {
            (swap_adjacent(v, 1), swap_adjacent(exps, 1)): c
            for (v, exps), c in el.items()
        }
        return br.add_el(x_op(j, el), swapped)

    return T, X


def _unpruned_residuals(br, T, X, window):
    """Every relation residual from plain, untrimmed compositions."""
    n, one, alpha, beta = br.n, br.one, br.alpha, br.beta
    add, sub, scale = br.add_el, br.sub_el, br.scale_el
    out = {}
    for key in br.basis(window):
        m = br.monomial(*key)
        for i in range(1, n):
            tm = T(i, m)
            out[f"quadratic T_{i}", key] = add(
                T(i, tm), sub(scale(tm, one - alpha), scale(m, alpha))
            )
            xm = X(i + 1, m)
            out[f"straighten T_{i}", key] = sub(
                sub(T(i, xm), X(i, tm)),
                add(scale(xm, alpha - one), scale(m, beta)),
            )
            for j in range(1, n + 1):
                if j not in (i, i + 1):
                    out[f"commute T_{i} X_{j}", key] = sub(
                        T(i, X(j, m)), X(j, tm)
                    )
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                out[f"commute X_{i} X_{j}", key] = sub(
                    X(i, X(j, m)), X(j, X(i, m))
                )
        for i in range(1, n - 1):
            out[f"braid T_{i} T_{i + 1}", key] = sub(
                T(i, T(i + 1, T(i, m))), T(i + 1, T(i, T(i + 1, m)))
            )
    return {
        k: {key: c for key, c in v.items() if sum(key[1]) < window}
        for k, v in out.items()
    }


@pytest.mark.parametrize(
    "mode, n, window, vertices, vanishing",
    [
        pytest.param(mode, n, window, (0, 1, 2), set(), id=f"{n}-{window}-{mode}")
        for mode in ("affine", "degenerate")
        for n, window in ((2, 3), (3, 2))
    ]
    + [
        # three unit denominators q^a - q^b
        pytest.param("affine", 2, 3, (0, 1, 3), set(), id="2-3-affine-0-1-3"),
        pytest.param(
            "degenerate", 2, 3,
            (Fraction(1, 2), Fraction(3, 2), Fraction(-5, 3)), set(),
            id="2-3-degenerate-fractions",
        ),
        # X_j + s_1 commutes with X_3 and X_4, so at n = 4 their commutator
        # vanishes, and so does degenerate straightening of T_3 at window 1
        pytest.param("affine", 4, 1, (0, 1, 2), {"commute X_3 X_4"}, id="4-1-affine"),
        pytest.param(
            "degenerate", 4, 1, (0, 1, 2), {"commute X_3 X_4", "straighten T_3"},
            id="4-1-degenerate",
        ),
    ],
)
def test_pruned_residuals_match_plain_composition(mode, n, window, vertices, vanishing):
    # the relation check drops the terms that cannot reach the window and
    # reads no term of degree >= window + 2; with wrong operators
    # its residuals must still be exactly the low parts of the plain
    # compositions, taken on a deeper module (three operators on a basis
    # monomial at cutoff window + 3 are exact below window + 1)
    br = HeckeBridge(n, window + _CUTOFF_ABOVE_WINDOW, mode, vertices)
    T, X = _perturbed_operators(br)
    br.X = X
    pruned = {
        (name, key): low
        for name, key, low in _relation_residuals(br, T, window)
    }
    deep = HeckeBridge(n, window + 3, mode, vertices)
    expected = _unpruned_residuals(deep, *_perturbed_operators(deep), window)
    assert pruned.keys() == expected.keys()
    for k, low in pruned.items():
        assert br.is_zero_el(br.sub_el(low, expected[k])), k
    failing = {name for (name, _), low in pruned.items() if not br.is_zero_el(low)}
    assert failing == {name for name, _ in pruned} - vanishing


@pytest.mark.parametrize(
    "method, verify",
    [
        ("affine_T", "verify_affine_relations"),
        ("degenerate_s", "verify_degenerate_relations"),
    ],
)
def test_degree_drop_past_one_raises_under_optimize(method, verify):
    # the pruning relies on T_i lowering total degree by at most 1; a
    # column that lowers it by 2 must be refused, also under `python -O`
    code = (
        "import sys\n"
        "import quiverhecke.heckebridge as hb\n"
        f"original = hb.HeckeBridge.{method}\n"
        "def lowered(self, i, el):\n"
        "    out = original(self, i, el)\n"
        "    if i == 1 and ((0, 0), (2, 0)) in el:\n"
        "        out = self.add_el(out, self.monomial((0, 0), (0, 0)))\n"
        "    return out\n"
        f"hb.HeckeBridge.{method} = lowered\n"
        "try:\n"
        f"    hb.{verify}(2, 3)\n"
        "except ArithmeticError as exc:\n"
        "    print('raised', sys.flags.optimize, exc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split()[:2] == ["raised", "1"]
    assert "T_1 lowers the degree of ((0, 0), (2, 0)) by more than 1" in res.stdout


@pytest.mark.parametrize("mode", ["affine", "degenerate"])
def test_element_sums_drop_cancelled_entries(mode):
    # sub_el subtracts in one pass; like add_el, it keeps no cancelled entry
    br = HeckeBridge(2, 3, mode)
    a = br.add_el(br.monomial((0, 1), (1, 0)), br.monomial((1, 1), (0, 0)))
    b = br.add_el(br.monomial((0, 1), (1, 0)), br.X(1, br.monomial((0, 0), (0, 0))))
    assert br.sub_el(a, a) == {} == br.add_el(a, br.neg_el(a))
    assert br.sub_el(a, b) == br.add_el(a, br.neg_el(b))
    assert ((0, 1), (1, 0)) not in br.sub_el(a, b)
    assert all(br.sub_el(a, b).values())


@pytest.mark.parametrize("mode", ["affine", "degenerate"])
def test_indexed_basis_is_degree_sorted(mode):
    # the relation check reads "degree < b" as "index < limit[b]"
    br = HeckeBridge(3, 4, mode)
    keys, index, limit = _indexed_basis(br)
    degrees = [sum(exps) for _, exps in keys]
    assert degrees == sorted(degrees)
    assert sorted(keys) == sorted(br.basis())
    assert [index[key] for key in keys] == list(range(len(keys)))
    assert limit[0] == 0 and limit[br.cutoff + 1] == len(keys)
    for b in range(1, br.cutoff + 1):
        assert limit[b] == len(list(br.basis(b)))


def _cached_ops(br, bounds):
    """The relation check's T_i and X_j, memoized on the indexed basis."""
    basis = _indexed_basis(br)
    generator = br.affine_T if br.mode == "affine" else br.degenerate_s
    ops = [
        _CachedOp(br, functools.partial(generator, i), f"T_{i}", 1, basis, bounds)
        for i in range(1, br.n)
    ]
    ops += [
        _CachedOp(br, functools.partial(br.X, j), f"X_{j}", 0, basis, bounds)
        for j in range(1, br.n + 1)
    ]
    return basis[0], ops


@pytest.mark.parametrize("mode", ["affine", "degenerate"])
def test_cached_columns_match_generators(mode):
    # each column, cut at each bound and translated back to monomial keys,
    # is the operator's image of the basis monomial in degrees < bound
    br = HeckeBridge(3, 4, mode)
    bounds = (2, 3, 4)
    keys, ops = _cached_ops(br, bounds)
    for op in ops:
        for k, key in enumerate(keys):
            image = op.fn(br.monomial(*key))
            for b in bounds:
                got = {keys[k2]: c for k2, c in op({k: br.one}, b).items()}
                assert got == {
                    k2: c for k2, c in image.items() if sum(k2[1]) < b
                }, (op.name, key, b)


@pytest.mark.parametrize("mode", ["affine", "degenerate"])
def test_cached_images_are_fresh(mode):
    # the image of a basis monomial is copied out of its memoized column:
    # mutating one call's result leaves the next call unchanged
    br = HeckeBridge(2, 4, mode)
    keys, ops = _cached_ops(br, (2, 3, 4))
    for op in ops:
        for k in range(len(keys)):
            first = op({k: br.one}, 4)
            expected = dict(first)
            first.clear()
            first[k] = br.one
            assert op({k: br.one}, 4) == expected


@pytest.mark.parametrize(
    "mode, verify",
    [("affine", verify_affine_relations), ("degenerate", verify_degenerate_relations)],
)
def test_empty_vertex_set_is_refused(mode, verify):
    # a module with no monomials would pass every relation vacuously
    message = re.escape("no vertices, or non-int affine ones: ()")
    with pytest.raises(ValueError, match=message):
        verify(2, 2, ())
    with pytest.raises(ValueError, match=message):
        HeckeBridge(2, 3, mode, ())


def test_affine_vertices_must_be_integers():
    # the affine vertex value q^k needs an integer k; degenerate vertex
    # values may be rational
    message = re.escape("non-int affine ones: (0, Fraction(1, 2))")
    with pytest.raises(ValueError, match=message):
        verify_affine_relations(2, 2, (0, Fraction(1, 2)))
    assert verify_degenerate_relations(2, 2, (0, Fraction(1, 2)))


# -- the quiver Hecke intertwiner ----------------------------------------


def test_tau_square_vanishes_on_equal_component():
    br = HeckeBridge(2, 5, "affine")
    m = br.monomial((0, 0), (2, 1))
    assert br.tau(1, br.tau(1, m)) == {}


def _bridge_scalar(br, c):
    """The int c as a scalar of the bridge ``br``."""
    return QScalar.from_int(c) if br.mode == "affine" else c


def test_tau_square_is_arrow_polynomial():
    # tau^2 e(v) = Q_{v_1 v_2}(x_1, x_2) e(v) on a component joined by an
    # arrow: x_2 - x_1 at labels (0, 1) and x_1 - x_2 at (1, 0); tau commutes
    # x^e past it on distinct labels
    pinned = {(0, 1): {(0, 1): 1, (1, 0): -1}, (1, 0): {(1, 0): 1, (0, 1): -1}}
    for mode in ("affine", "degenerate"):
        br = HeckeBridge(2, 5, mode)
        ctx = klr.make_klr(br.quiver, 2)
        for v, q_terms in pinned.items():
            s, t = (br.vertices[k] for k in v)
            assert ctx.q_poly(s, t, 1, 2).terms == q_terms
            for exps in ((0, 0), (1, 2)):
                m = br.monomial(v, exps)
                expected = {
                    (v, tuple(map(sum, zip(exps, e)))): _bridge_scalar(br, c)
                    for e, c in q_terms.items()
                }
                assert br.tau(1, br.tau(1, m)) == expected


@pytest.mark.parametrize("mode", ["affine", "degenerate"])
@pytest.mark.parametrize("vertices", [(0, 1, 2), (0, 2), (0, 1, 3)])
@pytest.mark.parametrize("n, cutoff", [(2, 5), (3, 4), (4, 3)])
def test_tau_matches_klr_apply_tau(n, cutoff, vertices, mode):
    # column for column below cutoff - 1, where nothing is truncated, on a
    # quiver Hecke context of its own, labels mapped to vertex indices
    br = HeckeBridge(n, cutoff, mode, vertices)
    ctx = klr.make_klr(br.quiver, n)
    index = {label: k for k, label in enumerate(br.vertices)}
    columns = arrows = 0
    for v, exps in br.basis(cutoff - 1):
        labels = tuple(br.vertices[k] for k in v)
        for i in range(1, n):
            image = klr.apply_tau(ctx, i, {labels: {exps: 1}})
            expected = {
                (tuple(index[s] for s in u), e): _bridge_scalar(br, c)
                for u, terms in image.items()
                for e, c in terms.items()
            }
            assert br.tau(i, br.monomial(v, exps)) == expected, (v, exps, i)
            columns += 1
            arrows += br.quiver.d(labels[i - 1], labels[i])
    assert columns == len(vertices) ** n * math.comb(n + cutoff - 2, n) * (n - 1)
    assert bool(arrows) == (vertices != (0, 2))


@pytest.mark.parametrize("mode", ["affine", "degenerate"])
def test_tau_refuses_other_coefficients_under_optimize(mode):
    # klr's columns have coefficients +-1 on the bridge's quiver; a column
    # doubled in klr's memo must make tau raise, also under `python -O`
    code = (
        "import sys\n"
        "import quiverhecke.heckebridge as hb\n"
        "import quiverhecke.klr as klr\n"
        f"br = hb.HeckeBridge(2, 4, {mode!r})\n"
        "for v in ((0, 0), (0, 1), (1, 0)):\n"
        "    key = (br.vertices[v[0]], br.vertices[v[1]], 1, (1, 0))\n"
        "    col = klr.tau_column(br.klr, *key)\n"
        "    br.klr._column_cache[key] = tuple((m, 2 * c) for m, c in col)\n"
        "    try:\n"
        "        br.tau(1, br.monomial(v, (1, 0)))\n"
        "        print('returned')\n"
        "    except ArithmeticError as exc:\n"
        "        print('raised', str(exc).split()[-2:] in (\n"
        "            ['coefficient', '2'], ['coefficient', '-2']))\n"
        "print(sys.flags.optimize)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["raised", "True"] * 3 + ["1"]


def test_tau_is_swap_on_distant_component():
    br = HeckeBridge(2, 5, "affine")
    m = br.monomial((0, 2), (1, 0))
    assert br.tau(1, m) == {((2, 0), (0, 1)): br.one}


@pytest.mark.parametrize("mode", ["affine", "degenerate"])
def test_bridge_quiver_joins_consecutive_labels(mode):
    cases = {
        (0, 1, 2): ((0, 1), (1, 2)),
        (0, 2): (),
        (0, 1, 3): ((0, 1),),
        (2, 1, 0): ((0, 1), (1, 2)),
    }
    for vertices, arrows in cases.items():
        br = HeckeBridge(2, 3, mode, vertices)
        assert br.quiver.arrows == arrows


def test_tau_reads_arrows_by_label():
    # vertex indices (1, 0) are the labels (1, 2) here: an arrow 1 -> 2
    br = HeckeBridge(2, 3, "affine", (2, 1, 0))
    one = br.one
    assert br.tau(1, br.monomial((1, 0), (0, 0))) == {
        ((0, 1), (1, 0)): one,
        ((0, 1), (0, 1)): -one,
    }
    assert br.tau(1, br.monomial((0, 1), (0, 0))) == {((1, 0), (0, 0)): one}


# -- guards ---------------------------------------------------------------


def test_monomial_validation():
    br = HeckeBridge(2, 3, "affine")
    with pytest.raises(ValueError, match="below the cutoff 3"):
        br.monomial((0, 1), (2, 1))
    with pytest.raises(ValueError, match="outside 0..2"):
        br.monomial((0, 3), (0, 0))
    with pytest.raises(ValueError, match="needs 2 vertex indices"):
        br.monomial((0, 1, 2), (0, 0))
    with pytest.raises(ValueError, match="below the cutoff"):
        br.monomial((0, 1), (-1, 0))


INVALID_INPUTS = {
    "n": (lambda: HeckeBridge(0, 3), ValueError, "n >= 1 and cutoff >= 1"),
    "cutoff": (lambda: HeckeBridge(2, 0), ValueError, "n >= 1 and cutoff >= 1"),
    "repeated vertices": (
        lambda: HeckeBridge(2, 3, "degenerate", (0, 1, 0)),
        ValueError,
        "repeated vertex values",
    ),
    "mode": (lambda: HeckeBridge(2, 3, "nil"), ValueError, "unknown mode"),
    "tau index": (
        lambda: HeckeBridge(2, 3).tau(2, {}), ValueError, "generator index 2"
    ),
    "generator index": (
        lambda: HeckeBridge(2, 3, "degenerate").degenerate_s(0, {}),
        ValueError,
        "generator index 0",
    ),
    "X index": (lambda: HeckeBridge(2, 3).X(3, {}), ValueError, "X_3"),
    "affine_T on degenerate": (
        lambda: HeckeBridge(2, 3, "degenerate").affine_T(1, {}),
        ValueError,
        "affine_T needs an affine bridge",
    ),
    "degenerate_s on affine": (
        lambda: HeckeBridge(2, 3, "affine").degenerate_s(1, {}),
        ValueError,
        "degenerate_s needs a degenerate bridge",
    ),
    "unit key of zero": (
        lambda: QScalar({}, ()).inverse(), ZeroDivisionError, "division by zero"
    ),
    "unit key": (lambda: _unit_key({}), ArithmeticError, "not a unit"),
}


@pytest.mark.parametrize("case", sorted(INVALID_INPUTS))
def test_invalid_input_raises(case):
    call, error, message = INVALID_INPUTS[case]
    with pytest.raises(error, match=message):
        call()


def test_invalid_input_raises_under_optimize():
    # the input checks were asserts; `python -O` must not skip them
    code = (
        "import sys\n"
        "import quiverhecke.heckebridge as hb\n"
        "calls = [\n"
        "    lambda: hb.HeckeBridge(0, 3),\n"
        "    lambda: hb.HeckeBridge(2, 3, 'degenerate', (0, 1, 0)),\n"
        "    lambda: hb.HeckeBridge(2, 3).monomial((0, 1), (2, 1)),\n"
        "    lambda: hb.HeckeBridge(2, 3).monomial((0, 3), (0, 0)),\n"
        "    lambda: hb.HeckeBridge(2, 3).tau(2, {}),\n"
        "    lambda: hb.HeckeBridge(2, 3).X(0, {}),\n"
        "    lambda: hb.HeckeBridge(2, 3, 'degenerate').affine_T(1, {}),\n"
        "    lambda: hb._unit_key({}),\n"
        "]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "        print('returned')\n"
        "    except ValueError:\n"
        "        print('value')\n"
        "    except ArithmeticError:\n"
        "        print('arithmetic')\n"
        "print(sys.flags.optimize)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["value"] * 7 + ["arithmetic", "1"]

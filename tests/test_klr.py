import inspect
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from quiverhecke.coxeter import Permutation, poincare_polynomial
from quiverhecke.cyclotomic import reduced_cyclotomic_graded_dims
from quiverhecke.klr import (
    KLRContext,
    KLRElement,
    QMatrix,
    QuiverData,
    central_ideal_probe,
    cyclic_quiver,
    hom_graded_dimension,
    hom_graded_dimension_closed,
    linear_quiver,
    make_klr,
    parse_quiver,
    pbw_coordinates,
    pbw_leading_terms,
    represent,
    single_vertex_quiver,
    torsion_check,
)
from quiverhecke.laurent import Laurent
from quiverhecke.linalg import Echelon, bump
from quiverhecke.polyring import MPoly, divide_exact_by_x_difference, exponent_tuples


def idempotents(ctx):
    return list(itertools.product(ctx.quiver.vertices, repeat=ctx.n))


def mono(ctx, exps):
    return MPoly(ctx.n, ctx.params, {tuple(exps) + (0,) * len(ctx.params): 1})


def module_eq(a, b):
    return set(a) == set(b) and all(a[k] == b[k] for k in a)


# -- quiver data and Q matrix --------------------------------------------


def test_quiver_data_cartan():
    q = linear_quiver(3)
    assert q.cartan(1, 1) == 2
    assert q.cartan(1, 2) == q.cartan(2, 1) == -1
    assert q.cartan(1, 3) == 0
    for i, j in [(1, 4), (4, 1), (0, 0)]:
        with pytest.raises(ValueError, match="needs vertices"):
            q.cartan(i, j)
    with pytest.raises(ValueError):
        make_klr(QuiverData((1, 2), {(1, 1): 1}), 2)


def test_quiver_arrows_and_arrow_index():
    q = parse_quiver("vertex 5\n2 -> 1\n1 -> 2\n2 -> 1\n3 -> 3\n")
    assert q.vertices == (1, 2, 3, 5)
    assert q.arrows == ((1, 2), (2, 1), (2, 1), (3, 3))
    assert q.arrow_index == ((0, 1), (1, 0), (1, 0), (2, 2))
    assert q.cartan(1, 2) == q.cartan(2, 1) == -3
    assert q.cartan(3, 3) == 0 and q.cartan(5, 5) == 2
    # the table built once holds 2 delta_ij - m_ij for every pair
    for i in q.vertices:
        for j in q.vertices:
            assert q.cartan(i, j) == (2 if i == j else 0) - q.m(i, j)


@pytest.mark.parametrize(
    "counts", [{(1, 3): 1}, {(3, 1): 1}, {(1, 2): -1}, {(1, 2): 1.5}]
)
def test_quiver_data_rejects_bad_arrows(counts):
    with pytest.raises(ValueError):
        QuiverData((1, 2), counts)


def test_cyclic_quiver():
    assert cyclic_quiver(1).arrows == ((0, 0),)
    assert cyclic_quiver(2).arrows == ((0, 1), (1, 0))
    assert cyclic_quiver(4).arrows == ((0, 1), (1, 2), (2, 3), (3, 0))
    assert cyclic_quiver(1).cartan(0, 0) == 0
    assert cyclic_quiver(2).cartan(0, 1) == -2
    with pytest.raises(ValueError):
        cyclic_quiver(0)
    with pytest.raises(ValueError):
        make_klr(cyclic_quiver(1), 2)
    # from e = 2 on there is no loop; at e = 2, d_01 = 1 and m_01 = 2, so
    # Q_01 = -(u - u')^2
    ctx = make_klr(cyclic_quiver(2), 2)
    assert ctx.qmat.entries[(0, 1)] == {(2, 0): -1, (1, 1): 2, (0, 2): -1}


def test_q_matrix_quiver_specialization():
    q = linear_quiver(2)
    qm = QMatrix.from_quiver(q)
    # one arrow 1 -> 2: Q_12 = -(u - u') = u' - u
    assert qm.entries[(1, 2)] == {(1, 0): -1, (0, 1): 1}
    # Q_21(u, u') = Q_12(u', u) = u - u'
    assert qm.entries[(2, 1)] == {(1, 0): 1, (0, 1): -1}
    # disconnected pair: Q = 1
    q0 = QuiverData((1, 2))
    qm0 = QMatrix.from_quiver(q0)
    assert qm0.entries[(1, 2)] == {(0, 0): 1}


def test_q_matrix_symmetry_checked():
    with pytest.raises(ValueError):
        QMatrix((1, 2), {(1, 2): {(1, 0): 1}, (2, 1): {(1, 0): 1}})


def test_q_matrix_needs_every_entry():
    # a missing Q_ij is refused when the Q-matrix is built, not by a
    # KeyError in the first product that crosses i and j
    with pytest.raises(ValueError, match=r"no entry at \(1, 2\)"):
        make_klr(linear_quiver(2), 2, QMatrix((1, 2), {}))
    with pytest.raises(ValueError, match=r"no entry at \(1, 3\)"):
        QMatrix((1, 2, 3), {(1, 2): {(0, 0): 1}, (2, 1): {(0, 0): 1}})
    qm = QMatrix.from_quiver(linear_quiver(3))
    assert len(qm.entries) == 6


def test_q_matrix_of_another_grading_is_refused():
    # B2's Q_12 = u + u'^2 has monomials of degree 1 and 2, and A2's m_12
    # is 1: taken on A2, its PBW leads would be certified with A2 degrees
    qm = QMatrix((1, 2), {(1, 2): {(1, 0): 1, (0, 2): 1}, (2, 1): {(0, 1): 1, (2, 0): 1}})
    with pytest.raises(ValueError, match=r"at \(1, 2\) is not of degree m_ij = 1"):
        KLRContext(linear_quiver(2), 2, qm)


@pytest.mark.parametrize(
    "quiver",
    [
        linear_quiver(2),
        linear_quiver(3),
        cyclic_quiver(2),
        cyclic_quiver(3),
        QuiverData((1, 2), {(1, 2): 2}),
    ],
    ids=["a2", "a3", "cyclic2", "cyclic3", "kronecker"],
)
def test_q_matrix_of_the_quiver_is_accepted(quiver):
    assert KLRContext(quiver, 2, QMatrix.from_quiver(quiver)).qmat.entries


def test_parse_quiver():
    q = parse_quiver("vertex 3\n1 -> 2\n# comment\n1 -> 2\n")
    assert q.vertices == (1, 2, 3)
    assert q.d(1, 2) == 2 and q.d(2, 1) == 0


# -- defining relations in the rewriting engine --------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_quadratic_relation_engine(k):
    ctx = make_klr(linear_quiver(k), 2)
    for v in idempotents(ctx):
        sv = (v[1], v[0])
        prod = KLRElement.tau(ctx, 1, sv) * KLRElement.tau(ctx, 1, v)
        expected = ctx.q_poly(v[0], v[1], 1, 2)
        target = KLRElement.idempotent(ctx, v)
        from quiverhecke.klr import _lmul_poly

        assert prod == _lmul_poly(ctx, expected, target)


@pytest.mark.parametrize("k", [2, 3])
def test_straightening_relation_engine(k):
    ctx = make_klr(linear_quiver(k), 3)
    for v in idempotents(ctx):
        for i in (1, 2):
            sv = Permutation.simple(i, 3).act_on_list(v)
            t = KLRElement.tau(ctx, i, v)
            for a in (1, 2, 3):
                sa = i + 1 if a == i else i if a == i + 1 else a
                lhs = t * KLRElement.x(ctx, a, v) - KLRElement.x(ctx, sa, sv) * t
                if v[i - 1] == v[i] and a == i:
                    assert lhs == -KLRElement.idempotent(ctx, v)
                elif v[i - 1] == v[i] and a == i + 1:
                    assert lhs == KLRElement.idempotent(ctx, v)
                else:
                    assert lhs.is_zero()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_braid_relation_engine(k):
    from quiverhecke.klr import _lmul_poly, _word_to_element

    ctx = make_klr(linear_quiver(k), 3)
    for v in idempotents(ctx):
        lhs = _word_to_element(ctx, (2, 1, 2), v)
        rhs = _word_to_element(ctx, (1, 2, 1), v)
        diff = lhs - rhs
        if v[0] == v[2] and v[0] != v[1]:
            num = ctx.q_poly(v[0], v[1], 3, 2) - ctx.q_poly(v[0], v[1], 1, 2)
            corr = divide_exact_by_x_difference(num, 3, 1)
            assert diff == _lmul_poly(ctx, corr, KLRElement.idempotent(ctx, v))
        else:
            assert diff.is_zero()


def one_parameter_qmatrix():
    # Q_12 = t * (u' - u) with a generic parameter t
    return QMatrix(
        (1, 2),
        {
            (1, 2): {(1, 0, 1): -1, (0, 1, 1): 1},
            (2, 1): {(0, 1, 1): -1, (1, 0, 1): 1},
        },
        params=("t",),
    )


def reference_lmul_x(ctx, j, el):
    # x_j * el one x at a time, each correction normalized right away
    from quiverhecke.klr import _push_x, _word_to_element

    out = {}
    for (v, w, a), c in el.terms.items():
        for letters, jn, sign in _push_x(j, w.canonical_word(), v):
            if jn is not None:
                b = list(a)
                b[jn - 1] += 1
                bump(out, (v, w, tuple(b)), sign * c)
            else:
                sub = _word_to_element(ctx, letters, v)
                for (v2, w2, b2), c2 in sub.terms.items():
                    b = tuple(p + q for p, q in zip(b2, a))
                    bump(out, (v2, w2, b), sign * c * c2)
    return KLRElement(ctx, out)


def reference_lmul_poly(ctx, poly, el):
    # poly * el monomial by monomial through reference_lmul_x; the
    # parameter exponents of a monomial only shift those of each term
    out = KLRElement.zero(ctx)
    for exps, coeff in poly.terms.items():
        cur = el
        for j in range(1, ctx.n + 1):
            for _ in range(exps[j - 1]):
                cur = reference_lmul_x(ctx, j, cur)
        tail = exps[ctx.n:]
        shifted = {
            (v, w, a[: ctx.n] + tuple(p + q for p, q in zip(a[ctx.n:], tail))): c
            for (v, w, a), c in cur.terms.items()
        }
        out = out + KLRElement(ctx, shifted).scale(coeff)
    return out


LMUL_CONTEXTS = {
    "a2-n3": lambda: make_klr(linear_quiver(2), 3),
    "a3-n3": lambda: make_klr(linear_quiver(3), 3),
    "one-parameter-n3": lambda: make_klr(
        QuiverData((1, 2), {(1, 2): 1}), 3, one_parameter_qmatrix()
    ),
}


@pytest.mark.parametrize("name", sorted(LMUL_CONTEXTS))
def test_lmul_poly_matches_one_x_at_a_time(name):
    # the one push moves a whole polynomial through each word and
    # normalizes each formal word once; pushing one x at a time and
    # normalizing after every x must give the same element exactly
    from quiverhecke.klr import _lmul_poly

    ctx = LMUL_CONTEXTS[name]()
    rng = random.Random(1807)
    idems = idempotents(ctx)
    perms = list(Permutation.all(ctx.n))
    monomials = list(exponent_tuples(ctx.width, 3))
    for _ in range(12):
        el = KLRElement.zero(ctx)
        for _ in range(3):
            word = random_basis_word(rng, ctx, idems, perms)
            el = el + word.scale(rng.choice([1, -1, 2]))
        poly = MPoly(
            ctx.n,
            ctx.params,
            {rng.choice(monomials): rng.choice([1, -1, 3]) for _ in range(3)},
        )
        assert _lmul_poly(ctx, poly, el) == reference_lmul_poly(ctx, poly, el)


def test_lmul_poly_rejects_another_polynomial_ring():
    from quiverhecke.klr import _lmul_poly

    ctx = make_klr(linear_quiver(2), 3)
    one_v = KLRElement.idempotent(ctx, (1, 2, 1))
    for poly in (MPoly.x(1, 2), MPoly.x(1, 3, ("t",))):
        with pytest.raises(ValueError, match="are not the variables of H_3"):
            _lmul_poly(ctx, poly, one_v)


# -- relations as operator identities (independent engine) ---------------


def apply_tau(ctx, i, module):
    out = {}
    for v, p in module.items():
        el = KLRElement.tau(ctx, i, v)
        for tgt, q in el.apply({v: p}).items():
            out[tgt] = out.get(tgt, MPoly.zero(ctx.n, ctx.params)) + q
    return {v: p for v, p in out.items() if not p.is_zero()}


def apply_x(ctx, a, module):
    out = {}
    for v, p in module.items():
        el = KLRElement.x(ctx, a, v)
        for tgt, q in el.apply({v: p}).items():
            out[tgt] = out.get(tgt, MPoly.zero(ctx.n, ctx.params)) + q
    return {v: p for v, p in out.items() if not p.is_zero()}


def low_monomials(ctx, max_total):
    for exps in exponent_tuples(ctx.n, max_total):
        yield mono(ctx, exps)


@pytest.mark.parametrize("k", [2, 3])
def test_relations_hold_in_representation(k):
    # quadratic, straightening and deformed braid, checked on monomials of
    # degree <= 6 (x-exponent total <= 3) in every component
    ctx = make_klr(linear_quiver(k), 3)
    for v in idempotents(ctx):
        for p in low_monomials(ctx, 3):
            start = {v: p}
            for i in (1, 2):
                # tau_i tau_i = Q(x_i, x_{i+1})
                lhs = apply_tau(ctx, i, apply_tau(ctx, i, start))
                qp = ctx.q_poly(v[i - 1], v[i], i, i + 1)
                rhs = {v: qp * p}
                rhs = {u: q for u, q in rhs.items() if not q.is_zero()}
                assert module_eq(lhs, rhs), (v, p, i)
                # straightening
                for a in (1, 2, 3):
                    sa = i + 1 if a == i else i if a == i + 1 else a
                    lhs = apply_tau(ctx, i, apply_x(ctx, a, start))
                    lhs2 = apply_x(ctx, sa, apply_tau(ctx, i, start))
                    diff = {
                        u: lhs.get(u, MPoly.zero(ctx.n)) - lhs2.get(u, MPoly.zero(ctx.n))
                        for u in set(lhs) | set(lhs2)
                    }
                    diff = {u: q for u, q in diff.items() if not q.is_zero()}
                    if v[i - 1] == v[i] and a == i:
                        assert module_eq(diff, {v: -p})
                    elif v[i - 1] == v[i] and a == i + 1:
                        assert module_eq(diff, {v: p})
                    else:
                        assert not diff
            # braid with correction
            lhs = apply_tau(ctx, 2, apply_tau(ctx, 1, apply_tau(ctx, 2, start)))
            rhs = apply_tau(ctx, 1, apply_tau(ctx, 2, apply_tau(ctx, 1, start)))
            diff = {
                u: lhs.get(u, MPoly.zero(ctx.n)) - rhs.get(u, MPoly.zero(ctx.n))
                for u in set(lhs) | set(rhs)
            }
            diff = {u: q for u, q in diff.items() if not q.is_zero()}
            if v[0] == v[2] and v[0] != v[1]:
                num = ctx.q_poly(v[0], v[1], 3, 2) - ctx.q_poly(v[0], v[1], 1, 2)
                corr = divide_exact_by_x_difference(num, 3, 1)
                expected = {v: corr * p}
                expected = {u: q for u, q in expected.items() if not q.is_zero()}
                assert module_eq(diff, expected), (v, p)
            else:
                assert not diff, (v, p)


# -- mutual oracles ------------------------------------------------------


def random_basis_word(rng, ctx, idems, perms, max_exp=1):
    v = rng.choice(idems)
    w = rng.choice(perms)
    a = tuple(rng.randrange(max_exp + 1) for _ in range(ctx.n))
    return KLRElement.basis_word(ctx, v, w, a)


def test_product_matches_operator_composition():
    rng = random.Random(101)
    ctx = make_klr(linear_quiver(2), 3)
    idems = idempotents(ctx)
    perms = list(Permutation.all(3))
    for _ in range(50):
        a = random_basis_word(rng, ctx, idems, perms)
        b = random_basis_word(rng, ctx, idems, perms)
        ab = a * b
        for _ in range(2):
            v = rng.choice(idems)
            p = mono(ctx, [rng.randrange(3) for _ in range(3)])
            assert module_eq(ab.apply({v: p}), a.apply(b.apply({v: p})))


def test_single_vertex_matches_nil_hecke():
    # with one vertex the algebra is the nil affine Hecke algebra
    from quiverhecke.nilhecke import NilHeckeElement

    rng = random.Random(102)
    n = 3
    ctx = make_klr(single_vertex_quiver(), n)
    v = (1,) * n
    perms = list(Permutation.all(n))
    for _ in range(15):
        w1, w2 = rng.choice(perms), rng.choice(perms)
        a1 = tuple(rng.randrange(2) for _ in range(n))
        a2 = tuple(rng.randrange(2) for _ in range(n))
        k1 = KLRElement.basis_word(ctx, v, w1, a1)
        k2 = KLRElement.basis_word(ctx, v, w2, a2)
        prod = k1 * k2

        def to_nil(w, a):
            el = NilHeckeElement.t_perm(w)
            for i, e in enumerate(a, start=1):
                for _ in range(e):
                    el = el * NilHeckeElement.x(i, n)
            return el

        expected = to_nil(w1, a1) * to_nil(w2, a2)
        got = NilHeckeElement.zero(n)
        for (_, w, a), c in prod.terms.items():
            got = got + to_nil(w, a).scale(c)
        assert got == expected


def test_top_degree_part_is_wreath_product():
    # the top tau-length part of a product multiplies like the wreath
    # product of the polynomial ring with the finite nil Coxeter algebra
    ctx = make_klr(linear_quiver(2), 3)
    idems = idempotents(ctx)
    perms = list(Permutation.all(3))
    exps = [e for e in itertools.product((0, 1), repeat=3) if sum(e) <= 1]
    words = [
        (v, w, a) for v in idems for w in perms for a in exps
    ]
    for v2, w2, a2 in words:
        tgt = w2.act_on_list(v2)
        for w1 in perms:
            for a1 in exps:
                k1 = KLRElement.basis_word(ctx, tgt, w1, a1)
                k2 = KLRElement.basis_word(ctx, v2, w2, a2)
                prod = k1 * k2
                top = {
                    key: c
                    for key, c in prod.terms.items()
                    if key[1].length() == w1.length() + w2.length()
                }
                w12 = w1 * w2
                if w12.length() == w1.length() + w2.length():
                    b = tuple(a1[w2(k) - 1] for k in range(1, 4))
                    bb = tuple(p + q for p, q in zip(b, a2)) + ()
                    expected = {(v2, w12, bb): 1}
                else:
                    expected = {}
                assert top == expected, (v2, w2, a2, w1, a1)


# -- PBW property --------------------------------------------------------


@pytest.mark.parametrize("n,max_a", [(2, 2), (3, 1)])
def test_pbw_words_linearly_independent(n, max_a):
    # images under the polynomial representation of all PBW words with
    # bounded exponents are linearly independent over Z; the action is
    # block diagonal per source idempotent.  A numeric cross-check of
    # klr.pbw_leading_terms on apply, with the exact echelon of linalg
    ctx = make_klr(linear_quiver(2), n)
    test_monos = [mono(ctx, e) for e in itertools.product(range(3), repeat=n)]
    for v in idempotents(ctx):
        rows = []
        for w in Permutation.all(n):
            for a in itertools.product(range(max_a + 1), repeat=n):
                el = KLRElement.basis_word(ctx, v, w, a)
                row = {}
                for k, p in enumerate(test_monos):
                    for tgt, img in el.apply({v: p}).items():
                        for e, c in img.terms.items():
                            row[(k, tgt, e)] = c
                rows.append(row)
        echelon = Echelon()
        assert all(echelon.insert(row) for row in rows), v


@pytest.mark.parametrize(
    "quiver, n",
    [
        (single_vertex_quiver(), 4),
        (linear_quiver(2), 3),
        (linear_quiver(3), 3),
        (cyclic_quiver(2), 3),
    ],
    ids=["single-4", "a2-3", "a3-3", "cyclic2-3"],
)
def test_pbw_leading_terms_certify_every_idempotent(quiver, n):
    ctx = make_klr(quiver, n)
    assert all(pbw_leading_terms(ctx, v) for v in idempotents(ctx))


@pytest.mark.parametrize("defect", ["lead-dropped", "long-tail"])
def test_pbw_leading_terms_refuse_a_non_triangular_expansion(monkeypatch, defect):
    # a lost lead, or another term as long as the lead, is no certificate
    from quiverhecke import klr

    ctx = make_klr(linear_quiver(2), 3)
    v = (1, 1, 2)
    assert pbw_leading_terms(ctx, v)
    real = klr._expand_word
    target = Permutation.from_word((1, 2), 3)

    def broken(ctx, w, v):
        comp = dict(real(ctx, w, v))
        if w == target:
            if defect == "lead-dropped":
                del comp[w]
            else:
                comp[Permutation.from_word((2, 1), 3)] = comp[w]
        return comp

    monkeypatch.setattr(klr, "_expand_word", broken)
    assert not pbw_leading_terms(ctx, v)


def test_pbw_round_trip():
    rng = random.Random(103)
    ctx = make_klr(linear_quiver(2), 3)
    idems = idempotents(ctx)
    perms = list(Permutation.all(3))
    for _ in range(10):
        el = KLRElement.zero(ctx)
        for _ in range(2):
            el = el + random_basis_word(rng, ctx, idems, perms).scale(
                rng.choice([1, -1, 2])
            )
        assert pbw_coordinates(represent(el)) == el


def test_pbw_identity_and_xtau_round_trip():
    ctx = make_klr(linear_quiver(2), 2)
    v = (1, 2)
    one_v = KLRElement.idempotent(ctx, v)
    assert pbw_coordinates(represent(one_v)) == one_v
    el = KLRElement.x(ctx, 1, (2, 1)) * KLRElement.tau(ctx, 1, v)
    assert pbw_coordinates(represent(el)) == el


def test_pbw_coordinates_of_braid_commutator():
    # the operator tau2 tau1 tau2 - tau1 tau2 tau1 at v = (1,2,1) has PBW
    # coordinates equal to the deformed braid correction polynomial
    from quiverhecke.klr import _lmul_poly, _word_to_element

    ctx = make_klr(linear_quiver(2), 3)
    v = (1, 2, 1)
    lhs = _word_to_element(ctx, (2, 1, 2), v)
    rhs = _word_to_element(ctx, (1, 2, 1), v)
    coords = pbw_coordinates(represent(lhs) - represent(rhs))
    num = ctx.q_poly(v[0], v[1], 3, 2) - ctx.q_poly(v[0], v[1], 1, 2)
    corr = divide_exact_by_x_difference(num, 3, 1)
    assert coords == _lmul_poly(ctx, corr, KLRElement.idempotent(ctx, v))


def test_operators_of_two_contexts_neither_compare_nor_subtract():
    ctx = make_klr(linear_quiver(2), 2)
    other = make_klr(linear_quiver(2), 2)
    op = represent(KLRElement.tau(ctx, 1, (1, 2)))
    twin = represent(KLRElement.tau(other, 1, (1, 2)))
    assert op.terms == twin.terms
    assert (op == twin) is False
    with pytest.raises(ValueError, match="KLROperator with different ctx"):
        op - twin
    assert (op - op).is_zero() and op == represent(KLRElement.tau(ctx, 1, (1, 2)))


def test_represent_examples():
    # single vertex: tau applied to x_2 gives 1
    ctx = make_klr(single_vertex_quiver(), 2)
    v = (1, 1)
    t = KLRElement.tau(ctx, 1, v)
    out = t.apply({v: mono(ctx, (0, 1))})
    assert out == {v: MPoly.one(2)}
    # A2: tau_{1,(1,2)} acts by P_{1,2}(x_2, x_1) s_1, and tau_{1,(2,1)}
    # acts by P_{2,1}(x_2, x_1) s_1 = s_1; composing gives the quadratic
    # relation Q_{1,2}(x_1, x_2)
    ctx2 = make_klr(linear_quiver(2), 2)
    x1 = MPoly.x(1, 2)
    x2 = MPoly.x(2, 2)
    out = KLRElement.tau(ctx2, 1, (1, 2)).apply({(1, 2): MPoly.one(2)})
    assert out == {(2, 1): x1 - x2}
    out = KLRElement.tau(ctx2, 1, (2, 1)).apply({(2, 1): MPoly.one(2)})
    assert out == {(1, 2): MPoly.one(2)}


# -- grading -------------------------------------------------------------


def test_grading_homogeneous_and_additive():
    rng = random.Random(104)
    ctx = make_klr(linear_quiver(2), 3)
    idems = idempotents(ctx)
    perms = list(Permutation.all(3))
    for _ in range(20):
        a = random_basis_word(rng, ctx, idems, perms)
        b = random_basis_word(rng, ctx, idems, perms)
        (da,) = a.degrees()
        (db,) = b.degrees()
        prod = a * b
        assert prod.degrees() <= {da + db}


def test_one_pbw_degree_moves_elements_and_cyclotomic_dims(monkeypatch):
    # KLRContext.degree is the one home of the PBW degree: shifted by 2, it
    # moves both KLRElement.degrees() and the keys of the cyclotomic dims.
    # The slice of keys stays bounded by the unshifted word degree, so the
    # shifted dims at cap 10 are the plain dims at cap 8, moved up by 2.
    ctx = make_klr(single_vertex_quiver(), 2)
    el = KLRElement.tau(ctx, 1, (1, 1))
    assert el.degrees() == {-2}
    plain = reduced_cyclotomic_graded_dims(ctx, {1: 2}, 8)
    assert plain
    right = KLRContext.degree
    monkeypatch.setattr(
        KLRContext, "degree", lambda self, v, w, a: right(self, v, w, a) + 2
    )
    assert el.degrees() == {0}
    shifted = reduced_cyclotomic_graded_dims(ctx, {1: 2}, 10)
    assert shifted == {d + 2: c for d, c in plain.items()}


def test_tau_degree_values():
    ctx = make_klr(linear_quiver(2), 2)
    assert ctx.tau_degree((1, 1), 1) == -2
    assert ctx.tau_degree((1, 2), 1) == 1
    q0 = QuiverData((1, 2))
    ctx0 = make_klr(q0, 2)
    assert ctx0.tau_degree((1, 2), 1) == 0


# -- graded dimensions ---------------------------------------------------


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_grdim_closed_form_vs_enumeration(k, n):
    ctx = make_klr(linear_quiver(k), n)
    for v in idempotents(ctx):
        for vp in idempotents(ctx):
            enum = hom_graded_dimension(ctx, v, vp)
            closed = hom_graded_dimension_closed(ctx, v, vp)
            if sorted(v) != sorted(vp):
                assert enum.is_zero() and closed.is_zero()
            else:
                assert enum == closed, (v, vp)


def closed_form_by_quadruple_loop(ctx, v, vp):
    """Reference closed form: for each tuple of permutations, one per
    vertex, and each pair of vertices (s, t), count the s-strands that
    start left of a t-strand and end right of it; each such crossing has
    degree -a_st."""
    verts = sorted(set(v))
    gam = {s: [k for k in range(1, ctx.n + 1) if v[k - 1] == s] for s in verts}
    gam_p = {s: [k for k in range(1, ctx.n + 1) if vp[k - 1] == s] for s in verts}
    if sorted(v) != sorted(vp):
        return Laurent.zero()
    out = Laurent.zero()
    choices = [list(itertools.permutations(range(len(gam[s])))) for s in verts]
    for combo in itertools.product(*choices):
        ws = dict(zip(verts, combo))
        expo = 0
        for s in verts:
            for t in verts:
                count = 0
                for ia in range(len(gam[s])):
                    for ib in range(len(gam[t])):
                        if s == t and ia == ib:
                            continue
                        if gam[s][ia] < gam[t][ib] and (
                            gam_p[s][ws[s][ia]] > gam_p[t][ws[t][ib]]
                        ):
                            count += 1
                expo += ctx.quiver.cartan(s, t) * count
        out = out + Laurent.gen(-expo)
    return out


def kronecker_quiver():
    """1 => 2: two arrows from 1 to 2, so a_12 = -2."""
    return QuiverData((1, 2), {(1, 2): 2})


GRDIM_QUIVERS = {
    "a2": (lambda: linear_quiver(2), 5),
    "a3": (lambda: linear_quiver(3), 4),
    "single": (single_vertex_quiver, 6),
    "cyclic3": (lambda: cyclic_quiver(3), 4),
    "kronecker": (kronecker_quiver, 4),
}


@pytest.mark.parametrize("name", sorted(GRDIM_QUIVERS))
def test_inversion_count_matches_the_quadruple_loop(name):
    make, max_n = GRDIM_QUIVERS[name]
    for n in range(1, max_n + 1):
        ctx = make_klr(make(), n)
        for v in idempotents(ctx):
            for vp in set(itertools.permutations(v)):
                assert hom_graded_dimension_closed(
                    ctx, v, vp
                ) == closed_form_by_quadruple_loop(ctx, v, vp), (n, v, vp)


@pytest.mark.parametrize("name", sorted(GRDIM_QUIVERS))
def test_both_engines_match_a_scan_of_all_of_sn(name):
    # the plain enumeration oracle: every w in S_n with w(v) = v'
    make, max_n = GRDIM_QUIVERS[name]
    for n in range(1, min(max_n, 4) + 1):
        ctx = make_klr(make(), n)
        perms = list(Permutation.all(n))
        for v in idempotents(ctx):
            scans = {}
            for w in perms:
                vp = tuple(w.act_on_list(v))
                scans[vp] = scans.get(vp, Laurent.zero()) + Laurent.gen(
                    ctx.word_degree(w, v)
                )
            for vp in idempotents(ctx):
                scan = scans.get(vp, Laurent.zero())
                assert hom_graded_dimension(ctx, v, vp) == scan, (v, vp)
                assert hom_graded_dimension_closed(ctx, v, vp) == scan, (v, vp)


@pytest.mark.parametrize("name", sorted(GRDIM_QUIVERS))
def test_grdim_at_one_counts_the_guarded_words(name):
    # at q = 1 the graded dimension counts the prod_s c_s! permutations
    # that carry v to v', the words that compute grdim's guard counts
    make, max_n = GRDIM_QUIVERS[name]
    ctx = make_klr(make(), max_n)
    for v in idempotents(ctx):
        vp = tuple(reversed(v))
        words = math.prod(math.factorial(v.count(s)) for s in set(v))
        assert sum(hom_graded_dimension(ctx, v, vp).terms.values()) == words


def closed_form_counting_the_pairs_that_do_not_cross():
    """`hom_graded_dimension_closed` with the crossing test reversed."""
    from quiverhecke import klr

    source = inspect.getsource(klr.hom_graded_dimension_closed)
    test = "target[a] > target[b]"
    if source.count(test) != 1:
        raise LookupError(f"{test!r} is not once in hom_graded_dimension_closed")
    namespace = dict(vars(klr))
    exec(source.replace(test, "target[a] < target[b]"), namespace)
    return namespace["hom_graded_dimension_closed"]


def test_uncrossed_pairs_fail_verify_grdim(capsys, monkeypatch):
    from quiverhecke import cli, klr

    monkeypatch.setattr(
        klr, "hom_graded_dimension_closed", closed_form_counting_the_pairs_that_do_not_cross()
    )
    assert cli.main(["verify", "grdim", "--n", "2", "--format", "text"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert [line.split()[1] for line in fails] == ["grdim-closed-form-vs-enumeration"]


def test_grdim_examples():
    ctx = make_klr(linear_quiver(2), 2)
    assert hom_graded_dimension(ctx, (1, 2), (1, 2)) == Laurent.one()
    # unique crossing with degree -a_{12} = 1
    assert hom_graded_dimension(ctx, (1, 2), (2, 1)) == Laurent.gen(1)
    assert hom_graded_dimension(ctx, (1, 2), (1, 1)).is_zero()


def test_grdim_single_vertex_is_poincare():
    for n in (2, 3):
        ctx = make_klr(single_vertex_quiver(), n)
        v = (1,) * n
        enum = hom_graded_dimension(ctx, v, v)
        poincare = poincare_polynomial(n)
        expected = Laurent({-2 * k: c for k, c in poincare.terms.items()})
        assert enum == expected


# -- torsion -------------------------------------------------------------


def test_torsion_multiplier_a2():
    ctx = make_klr(linear_quiver(2), 3)
    m = torsion_check(ctx, (1, 2, 1))
    x1 = MPoly.x(1, 3)
    x2 = MPoly.x(2, 3)
    assert m == x2 - x1


def test_torsion_multiplier_a3():
    ctx = make_klr(linear_quiver(3), 3)
    m = torsion_check(ctx, (1, 2, 1))
    assert m == MPoly.x(2, 3) - MPoly.x(1, 3)
    # also at the other end of the quiver
    m2 = torsion_check(ctx, (3, 2, 3))
    assert not m2.is_zero()


@pytest.mark.parametrize(
    "sabotage, call, outcome",
    [
        # no rewriting move at all: the torsion statement must fail
        (
            "klr._prime_reduce = lambda ctx, word, v: "
            "{(tuple(word), ctx.zero_exps()): 1}",
            "klr.torsion_check(klr.make_klr(klr.linear_quiver(2), 3), (1, 2, 1))",
            "raised",
        ),
        # a closed form in the opposite grading convention (q -> q^-1)
        # fails the plain comparison that `verify grdim --n 2` makes
        (
            "right = klr.hom_graded_dimension_closed\n"
            "klr.hom_graded_dimension_closed = lambda *args: "
            "Laurent({-k: c for k, c in right(*args).terms.items()})\n"
            "from quiverhecke.cli import suite_grdim",
            "suite_grdim({'quiver': 'a2', 'n': 2}, None)[0]['pass']",
            "False",
        ),
        # a closed form that counts the pairs of strands that do not cross
        (
            "import inspect\n"
            "source = inspect.getsource(klr.hom_graded_dimension_closed)\n"
            "exec(source.replace('target[a] > target[b]', 'target[a] < target[b]'), "
            "vars(klr))\n"
            "from quiverhecke.cli import suite_grdim",
            "suite_grdim({'quiver': 'a2', 'n': 2}, None)[0]['pass']",
            "False",
        ),
    ],
    ids=["torsion_check", "grdim_reconciliation", "grdim_uncrossed_pairs"],
)
def test_broken_certificate_raises_under_optimize(sabotage, call, outcome):
    # `python -O` strips asserts; a broken certificate must still raise,
    # or fail its check
    code = (
        "import sys\n"
        "import quiverhecke.klr as klr\n"
        "from quiverhecke.laurent import Laurent\n"
        f"{sabotage}\n"
        "try:\n"
        f"    outcome = {call}\n"
        "except ArithmeticError:\n"
        "    outcome = 'raised'\n"
        "print(outcome, sys.flags.optimize)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == [outcome, "1"]


def test_torsion_shape_raises_under_optimize():
    # `python -O` strips asserts; an idempotent without v_1 = v_3 != v_2
    # must still be refused
    code = (
        "import quiverhecke.klr as klr\n"
        "ctx = klr.make_klr(klr.linear_quiver(2), 3)\n"
        "try:\n"
        "    print('returned', klr.torsion_check(ctx, (1, 1, 1)))\n"
        "except ValueError as e:\n"
        "    print('raised', e)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("raised torsion_check needs"), res.stdout


def test_input_checks_raise_under_optimize():
    # `python -O` strips asserts; each bad input must still raise
    # ValueError, and a candidate with a tau-word at its base ArithmeticError
    code = (
        "import sys\n"
        "import quiverhecke.klr as klr\n"
        "from quiverhecke.coxeter import Permutation\n"
        "def attempt(make):\n"
        "    try:\n"
        "        make()\n"
        "    except (ValueError, ArithmeticError) as exc:\n"
        "        print(type(exc).__name__)\n"
        "    else:\n"
        "        print('returned')\n"
        "a2 = klr.linear_quiver(2)\n"
        "ok = {(1, 2): {(1, 0): 1}, (2, 1): {(0, 1): 1}}\n"
        "attempt(lambda: klr.QMatrix((1, 2), {(1, 1): {(1, 0): 1}}))\n"
        "attempt(lambda: klr.QMatrix((1, 2), {(1, 2): {(1, 0): 0}}))\n"
        "attempt(lambda: klr.QMatrix((1, 2), {(1, 2): {(1, 0): 1}, (2, 1): {(1, 0): 1}}))\n"
        "attempt(lambda: klr.QMatrix((1, 2), {}))\n"
        "attempt(lambda: klr.QMatrix((1, 2), ok).instantiate(1, 1, 1, 2, 2))\n"
        "attempt(lambda: klr.KLRContext(a2, 0))\n"
        "one = {(0, 0): 1}\n"
        "attempt(lambda: klr.KLRContext(a2, 2, klr.QMatrix((1, 3), {(1, 3): one, (3, 1): one})))\n"
        "b2 = {(1, 2): {(1, 0): 1, (0, 2): 1}, (2, 1): {(0, 1): 1, (2, 0): 1}}\n"
        "attempt(lambda: klr.KLRContext(a2, 2, klr.QMatrix((1, 2), b2)))\n"
        "ctx = klr.make_klr(a2, 2)\n"
        "attempt(lambda: ctx.p_poly(1, 1, 1, 2))\n"
        "attempt(lambda: a2.cartan(1, 5))\n"
        "attempt(lambda: klr.linear_quiver(0))\n"
        "t = {(1, 2): {(1, 0, 0): 1, (0, 0, 1): 1}, (2, 1): {(0, 1, 0): 1, (0, 0, 1): 1}}\n"
        "pctx = klr.make_klr(a2, 2, klr.QMatrix((1, 2), t, ('t',)))\n"
        "attempt(lambda: klr.KLRElement.zero(pctx).degrees())\n"
        "el = klr.KLRElement(ctx, {((1, 2), Permutation.simple(1, 2), (0, 0)): 1})\n"
        "attempt(lambda: klr._candidate_base_polynomial(ctx, (1, 2), el))\n"
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
    assert res.stdout.split() == ["ValueError"] * 12 + ["ArithmeticError", "1"]


def test_single_vertex_braid_is_exact():
    from quiverhecke.klr import _word_to_element

    ctx = make_klr(single_vertex_quiver(), 3)
    v = (1, 1, 1)
    assert _word_to_element(ctx, (2, 1, 2), v) == _word_to_element(
        ctx, (1, 2, 1), v
    )


# -- central multiples in ideals -----------------------------------------


def test_central_probe_single_vertex_rank1():
    ctx = make_klr(single_vertex_quiver(), 1)
    v = (1,)
    res = central_ideal_probe(ctx, v, [KLRElement.x(ctx, 1, v)], max_deg=2)
    assert res == (MPoly.x(1, 1), ((((1, 1, 1),), 1),))


def test_central_probe_single_vertex_tau_ideal():
    # tau x_2 - x_1 tau = 1 already puts 1 in the ideal, so a multiple of
    # the identity exists in every positive degree; the probe finds one
    ctx = make_klr(single_vertex_quiver(), 2)
    v = (1, 1)
    res = central_ideal_probe(ctx, v, [KLRElement.tau(ctx, 1, v)], max_deg=2)
    assert res is not None
    poly, labels = res
    assert not poly.is_zero() and poly.is_symmetric()
    assert poly == MPoly.x(1, 2) + MPoly.x(2, 2)
    assert labels == ((((1, 1, 1),), 1),)


def test_central_probe_a2_idempotent_ideal():
    ctx = make_klr(linear_quiver(2), 2)
    v = (1, 2)
    res = central_ideal_probe(
        ctx, v, [KLRElement.idempotent(ctx, v)], max_deg=2
    )
    assert res == (
        MPoly.x(2, 2) - MPoly.x(1, 2),
        ((((1, 1, 1),), -1), (((2, 1, 1),), 1)),
    )


@pytest.mark.parametrize(
    "quiver, v, gen, poly, labels",
    [
        ("single", (1,), "x", {(1,): 1}, ((((1, 1, 1),), 1),)),
        ("single", (1, 1), "tau", {(1, 0): 1, (0, 1): 1}, ((((1, 1, 1),), 1),)),
        (
            "a2",
            (1, 2),
            "idempotent",
            {(1, 0): -1, (0, 1): 1},
            ((((1, 1, 1),), -1), (((2, 1, 1),), 1)),
        ),
        (
            "a2",
            (1, 2),
            "x",
            {(2, 0): 1, (1, 1): -1},
            ((((1, 1, 1), (2, 1, 1)), -1), (((1, 1, 2),), 1)),
        ),
        (
            "a2",
            (1, 2),
            "tau",
            {(1, 0): -1, (0, 1): 1},
            ((((1, 1, 1),), -1), (((2, 1, 1),), 1)),
        ),
    ],
)
def test_central_probe_degree_four_values(quiver, v, gen, poly, labels):
    # exact (poly, labels) of the bounded search at max_deg = 4
    q = single_vertex_quiver() if quiver == "single" else linear_quiver(2)
    ctx = make_klr(q, len(v))
    g = {
        "x": lambda: KLRElement.x(ctx, 1, v),
        "tau": lambda: KLRElement.tau(ctx, 1, v),
        "idempotent": lambda: KLRElement.idempotent(ctx, v),
    }[gen]()
    res = central_ideal_probe(ctx, v, [g], max_deg=4)
    assert res == (MPoly(len(v), (), poly), labels)


def test_central_probe_inconclusive_returns_none():
    # an empty generator list cannot produce anything
    ctx = make_klr(linear_quiver(2), 2)
    assert central_ideal_probe(ctx, (1, 2), [], max_deg=2) is None


# -- text form and generic parameters ------------------------------------


def test_to_text_deterministic():
    ctx = make_klr(linear_quiver(2), 2)
    el = KLRElement.tau(ctx, 1, (1, 2)) + KLRElement.x(ctx, 1, (1, 2)).scale(-2)
    txt = el.to_text()
    assert txt == "-2 * tau[] x[1,0] e(1,2) + 1 * tau[1] x[0,0] e(1,2)"


def test_generic_parameter_mode():
    ctx = make_klr(QuiverData((1, 2), {(1, 2): 1}), 2, one_parameter_qmatrix())
    v = (1, 2)
    prod = KLRElement.tau(ctx, 1, (2, 1)) * KLRElement.tau(ctx, 1, v)
    # t * (x_2 - x_1) 1_v
    expected = {
        (v, Permutation.identity(2), (0, 1, 1)): 1,
        (v, Permutation.identity(2), (1, 0, 1)): -1,
    }
    assert prod.terms == expected
    # the lead t (x_1 - x_2) of tau_1 1_v holds the parameter
    for el in (KLRElement.tau(ctx, 1, v), prod):
        assert pbw_coordinates(represent(el)) == el

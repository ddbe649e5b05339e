import itertools
import random

from quiverhecke.coxeter import Permutation
from quiverhecke.nilhecke import (
    NilHeckeElement,
    _longest_group_element,
    gram_matrix_tprime,
    group_element,
    idempotent_b,
)
from quiverhecke.polyring import MPoly, staircase_monomial


def t(i, n):
    return NilHeckeElement.t(i, n)


def x(i, n):
    return NilHeckeElement.x(i, n)


def random_poly(rng, n, max_deg=2, max_terms=3):
    p = MPoly.zero(n)
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(0, max_deg + 1) for _ in range(n))
        p = p + MPoly(n, (), {exps: rng.randrange(-3, 4) or 1})
    return p


def random_element(rng, n, nterms=2):
    out = NilHeckeElement.zero(n)
    perms = list(Permutation.all(n))
    for _ in range(nterms):
        w = rng.choice(perms)
        out = out + NilHeckeElement(n, {w: random_poly(rng, n)})
    return out


# -- defining relations --------------------------------------------------


def test_defining_relations():
    for n in (2, 3, 4):
        for i in range(1, n):
            assert (t(i, n) * t(i, n)).is_zero()
            # T_i X_{i+1} - X_i T_i = 1
            assert t(i, n) * x(i + 1, n) - x(i, n) * t(i, n) == 1
            # T_i X_i - X_{i+1} T_i = -1
            assert t(i, n) * x(i, n) - x(i + 1, n) * t(i, n) == -1
            for j in range(1, n + 1):
                if j not in (i, i + 1):
                    assert t(i, n) * x(j, n) == x(j, n) * t(i, n)
        for i, j in itertools.combinations(range(1, n), 2):
            if abs(i - j) > 1:
                assert t(i, n) * t(j, n) == t(j, n) * t(i, n)
        for i in range(1, n - 1):
            lhs = t(i, n) * t(i + 1, n) * t(i, n)
            rhs = t(i + 1, n) * t(i, n) * t(i + 1, n)
            assert lhs == rhs


def test_t_word_length_additivity():
    n = 3
    for w in Permutation.all(n):
        for v in Permutation.all(n):
            prod = NilHeckeElement.t_perm(w) * NilHeckeElement.t_perm(v)
            if (w * v).length() == w.length() + v.length():
                assert prod == NilHeckeElement.t_perm(w * v)
            else:
                assert prod.is_zero()


def test_straightening_general():
    # T_i P - s_i(P) T_i = d_i(P)
    rng = random.Random(10)
    n = 3
    for _ in range(15):
        p = random_poly(rng, n)
        for i in (1, 2):
            lhs = t(i, n) * NilHeckeElement.from_poly(p) - NilHeckeElement.from_poly(
                p.act_simple(i)
            ) * t(i, n)
            assert lhs == NilHeckeElement.from_poly(p.demazure(i))


# -- representation oracle ----------------------------------------------


def test_multiplication_matches_operator_composition():
    rng = random.Random(11)
    n = 3
    for _ in range(20):
        a = random_element(rng, n)
        b = random_element(rng, n)
        ab = a * b
        for _ in range(3):
            q = random_poly(rng, n, max_deg=3)
            assert ab.apply_to_polynomial(q) == a.apply_to_polynomial(
                b.apply_to_polynomial(q)
            )


def test_representation_faithful_on_basis():
    # distinct PBW elements act differently: check linear independence of
    # the action of {X^a T_w} on low-degree polynomials via exact rank
    from fractions import Fraction

    n = 2
    basis = []
    for w in Permutation.all(n):
        for a1 in range(2):
            for a2 in range(2):
                el = NilHeckeElement.from_poly(
                    MPoly(n, (), {(a1, a2): 1})
                ) * NilHeckeElement.t_perm(w)
                basis.append(el)
    # evaluate on monomials of degree <= 3, record coefficients
    monos = [
        (i, j) for i in range(4) for j in range(4) if i + j <= 3
    ]
    rows = []
    for el in basis:
        row = {}
        for k, m in enumerate(monos):
            img = el.apply_to_polynomial(MPoly(n, (), {m: 1}))
            for e, c in img.terms.items():
                row[(k, e)] = c
        rows.append(row)
    cols = sorted({key for row in rows for key in row})
    mat = [[Fraction(row.get(c, 0)) for c in cols] for row in rows]
    # gaussian elimination rank
    rank = 0
    for col in range(len(cols)):
        piv = next(
            (r for r in range(rank, len(mat)) if mat[r][col] != 0), None
        )
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    assert rank == len(basis)


# -- special elements ----------------------------------------------------


def test_idempotent_b():
    for n in (2, 3, 4):
        b = idempotent_b(n)
        assert b * b == b
        assert b.degrees() <= {0}


def test_tw_p_tlongest():
    # T_w P T_{w0} = d_w(P) T_{w0}
    rng = random.Random(12)
    n = 3
    w0 = Permutation.longest(n)
    tw0 = NilHeckeElement.t_perm(w0)
    for _ in range(10):
        p = random_poly(rng, n)
        for w in Permutation.all(n):
            lhs = NilHeckeElement.t_perm(w) * NilHeckeElement.from_poly(p) * tw0
            rhs = NilHeckeElement.from_poly(p.demazure_perm(w)) * tw0
            assert lhs == rhs


def test_group_element_is_multiplicative():
    n = 3
    for w in Permutation.all(n):
        for v in Permutation.all(n):
            assert group_element(w) * group_element(v) == group_element(w * v)


def test_group_element_acts_as_permutation():
    rng = random.Random(13)
    n = 3
    for w in Permutation.all(n):
        g = group_element(w)
        for _ in range(3):
            p = random_poly(rng, n)
            assert g.apply_to_polynomial(p) == p.act(w)


# -- traces and automorphisms -------------------------------------------


def test_t0_frobenius_exhaustive():
    n = 3
    elems = [NilHeckeElement.t_perm(w) for w in Permutation.all(n)]
    for a in elems:
        for b in elems:
            assert (a * b).trace_t0() == (b.sigma() * a).trace_t0()


def test_sigma_on_tw():
    n = 3
    w0 = Permutation.longest(n)
    for w in Permutation.all(n):
        assert NilHeckeElement.t_perm(w).sigma() == NilHeckeElement.t_perm(
            w0 * w * w0
        )


def test_gamma_is_automorphism():
    rng = random.Random(14)
    n = 3
    for _ in range(10):
        a = random_element(rng, n)
        b = random_element(rng, n)
        assert (a * b).gamma() == a.gamma() * b.gamma()
    # on generators
    assert x(1, n).gamma() == x(3, n)
    assert t(1, n).gamma() == t(2, n).scale(-1)


def test_gamma_is_inner_by_longest_group_element():
    rng = random.Random(15)
    n = 3
    g0 = group_element(Permutation.longest(n))
    assert g0 * g0 == NilHeckeElement.one(n)
    for _ in range(10):
        a = random_element(rng, n)
        assert g0 * a * g0 == a.gamma()


def test_trace_t_twisted_symmetry():
    rng = random.Random(16)
    n = 3
    for _ in range(10):
        a = random_element(rng, n)
        b = random_element(rng, n)
        assert (a * b).trace_t() == (b.gamma() * a).trace_t()


def test_trace_t_symmetric_values():
    rng = random.Random(17)
    n = 3
    for _ in range(10):
        a = random_element(rng, n)
        assert a.trace_t().is_symmetric()


def test_tprime_normalization():
    # t'(X_2 ... X_n^{n-1} T_{w0} [w0]) = 1, where [w0] is the group element
    for n in (2, 3, 4):
        w0 = Permutation.longest(n)
        el = (
            NilHeckeElement.from_poly(staircase_monomial(n))
            * NilHeckeElement.t_perm(w0)
            * group_element(w0)
        )
        assert el.trace_tprime() == MPoly.one(n)


def test_tprime_symmetric_exhaustive_n3_basis():
    # t'(ab) = t'(ba) for all pairs from the T_w basis and a few X-decorated ones
    n = 3
    elems = [NilHeckeElement.t_perm(w) for w in Permutation.all(n)]
    elems += [x(1, n) * e for e in elems[:3]]
    for a in elems:
        for b in elems:
            assert (a * b).trace_tprime() == (b * a).trace_tprime()


def test_tprime_symmetric_random_n4():
    rng = random.Random(18)
    n = 4
    for _ in range(25):
        a = random_element(rng, n, nterms=1)
        b = random_element(rng, n, nterms=1)
        assert (a * b).trace_tprime() == (b * a).trace_tprime()


def test_lmul_t_length_test_matches_permutation_length():
    # T_i T_w = T_{s_i w} if l(s_i w) = l(w) + 1, else 0
    n = 4
    for w in Permutation.all(n):
        for i in range(1, n):
            siw = Permutation.simple(i, n) * w
            prod = NilHeckeElement.t_perm(w)._lmul_t(i)
            if siw.length() > w.length():
                assert prod == NilHeckeElement.t_perm(siw)
            else:
                assert prod.is_zero()


def test_tprime_matches_fresh_group_element():
    rng = random.Random(21)
    for n in (1, 2, 3):
        w0 = Permutation.longest(n)
        for _ in range(8):
            a = random_element(rng, n)
            assert a.trace_tprime() == (a * group_element(w0)).trace_t()


def test_tprime_memo_is_not_mutated():
    rng = random.Random(22)
    n = 3
    g = _longest_group_element(n, ())
    snapshot = {w: dict(p.terms) for w, p in g.terms.items()}
    for _ in range(10):
        a = random_element(rng, n)
        (a * a).trace_tprime()
        a.trace_tprime()
    assert _longest_group_element(n, ()) is g
    assert {w: dict(p.terms) for w, p in g.terms.items()} == snapshot
    assert g == group_element(Permutation.longest(n))


def test_grading_multiplicative():
    rng = random.Random(19)
    n = 3
    for _ in range(10):
        w = rng.choice(list(Permutation.all(n)))
        v = rng.choice(list(Permutation.all(n)))
        exps = tuple(rng.randrange(0, 2) for _ in range(n))
        a = NilHeckeElement(n, {w: MPoly(n, (), {exps: 1})})
        b = NilHeckeElement.t_perm(v)
        (da,) = a.degrees()
        (db,) = b.degrees()
        prod = a * b
        assert prod.degrees() <= {da + db}


def test_frobenius_gram_unit_determinant():
    from quiverhecke.nilhecke import frobenius_gram_determinant

    assert frobenius_gram_determinant(2) in (1, -1)
    assert frobenius_gram_determinant(3) in (1, -1)

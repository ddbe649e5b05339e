import inspect
import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quiverhecke.coxeter import Permutation, length_order
from quiverhecke.linalg import bump, determinant
from quiverhecke.nilhecke import (
    NilHeckeElement,
    _d_column,
    _lmul_t,
    _t_products,
    _t_step,
    _tprime_columns,
    _tprime_kernel,
    frobenius_gram_determinant,
    group_element,
    idempotent_b,
)
from quiverhecke.polyring import (
    MPoly,
    add_product,
    demazure_exponents,
    demazure_terms,
    exponent_tuples,
    schubert_basis_element,
    staircase_monomial,
    swap_terms,
)


def t(i, n):
    return NilHeckeElement.t(i, n)


def x(i, n):
    return NilHeckeElement.x(i, n)


def random_poly(rng, n, max_deg=2, max_terms=3, params=()):
    p = MPoly.zero(n, params)
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(0, max_deg + 1) for _ in range(n + len(params)))
        p = p + MPoly(n, params, {exps: rng.randrange(-3, 4) or 1})
    return p


def random_element(rng, n, nterms=2, params=()):
    out = NilHeckeElement.zero(n, params)
    perms = list(Permutation.all(n))
    for _ in range(nterms):
        w = rng.choice(perms)
        out = out + NilHeckeElement(n, {w: random_poly(rng, n, params=params)}, params)
    return out


def full_product_tprime(a, g0):
    """t'(a) = t(a * [w0]) by the full product, g0 = [w0]."""
    return (a * g0).trace_t()


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
    one = MPoly.one(n).terms
    for w in Permutation.all(n):
        for i in range(1, n):
            siw = Permutation.simple(i, n) * w
            prod = _lmul_t({w.images: one}, i)
            if siw.length() > w.length():
                assert prod == {siw.images: one}
            else:
                assert prod == {}


# -- the term-dict kernels against MPoly-composing references --------------


def ref_poly_mul(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            bump(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return MPoly(p.nx, p.params, out)


def ref_demazure_word(p, word):
    """d_{i_1} o ... o d_{i_r}(p), one MPoly per letter."""
    for i in reversed(word):
        out = {}
        for e, c in p.terms.items():
            sign, monomials = demazure_exponents(e, i)
            for m in monomials:
                bump(out, m, c * sign)
        p = MPoly(p.nx, p.params, out)
    return p


def ref_mul(a, b):
    """a * b, applying T_i to a whole NilHeckeElement per letter."""
    out = {}
    for w, p in a.terms.items():
        acc = b
        for i in reversed(w.canonical_word()):
            si = Permutation.simple(i, a.n)
            nxt = {}
            for v, q in acc.terms.items():
                if v.images.index(i) < v.images.index(i + 1):
                    bump(nxt, si * v, q.act_simple(i))
                bump(nxt, v, ref_demazure_word(q, (i,)))
            acc = NilHeckeElement(a.n, nxt, a.params)
        for v, q in acc.terms.items():
            bump(out, v, ref_poly_mul(p, q))
    return NilHeckeElement(a.n, out, a.params)


def ref_apply(a, q):
    out = MPoly.zero(a.n, a.params)
    for w, p in a.terms.items():
        out = out + ref_poly_mul(p, ref_demazure_word(q, w.canonical_word()))
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("params", [(), ("t",)])
def test_term_dict_kernels_match_references(n, params):
    rng = random.Random(31 * n + len(params))
    for _ in range(6):
        a = random_element(rng, n, nterms=3, params=params)
        b = random_element(rng, n, nterms=3, params=params)
        q = random_poly(rng, n, max_deg=3, max_terms=4, params=params)
        word = tuple(rng.randrange(1, n) for _ in range(rng.randrange(5)))
        assert a * b == ref_mul(a, b)
        assert a.apply_to_polynomial(q) == ref_apply(a, q)
        assert q.demazure_word(word) == ref_demazure_word(q, word)
        r = random_poly(rng, n, max_deg=3, max_terms=4, params=params)
        assert q * r == ref_poly_mul(q, r)


# -- the memoized monomial columns against the letter-by-letter kernels ----


def lmul_t_reference(terms, i):
    """T_i * sum_w P_w T_w on {images of w: terms of P_w}, one Demazure
    step, one swap and two `index` calls per P_w: T_i P T_w = s_i(P)
    T_{s_i w} + d_i(P) T_w.  The kernel `_lmul_t` replaced."""
    out = {}
    for v, p in terms.items():
        images = [(v, demazure_terms(p, (i,)))]
        # l(s_i w) > l(w) exactly when i precedes i+1 in one-line notation
        a, b = v.index(i), v.index(i + 1)
        if a < b:
            images.append((v[:a] + (i + 1,) + v[a + 1:b] + (i,) + v[b + 1:], swap_terms(p, i)))
        for u, t in images:
            if u in out:
                for e, c in t.items():
                    bump(out[u], e, c)
            elif t:
                out[u] = t
    return out


def t_word_reference(w, terms):
    """T_w * sum_v P_v T_v, letter by letter with `lmul_t_reference`,
    without the P_v that cancelled."""
    for i in reversed(w.canonical_word()):
        terms = lmul_t_reference(terms, i)
    return {v: t for v, t in terms.items() if t}


def mul_reference(a, b):
    """a * b with the letter-by-letter kernel."""
    start = {v.images: q.terms for v, q in b.terms.items()}
    out = {}
    for w, p in a.terms.items():
        for v, q in t_word_reference(w, start).items():
            add_product(out.setdefault(v, {}), p.terms, q)
    return NilHeckeElement(
        a.n, {Permutation(v): MPoly(a.n, a.params, t) for v, t in out.items()}, a.params
    )


def apply_reference(a, q):
    """sum_w P_w * d_w(q), each d_w by `demazure_terms` on the whole of q:
    the `apply_to_polynomial` that the memoized columns replaced."""
    terms = {}
    for w, p in a.terms.items():
        add_product(terms, p.terms, demazure_terms(q.terms, w.canonical_word()))
    return MPoly(a.n, a.params, terms)


def pbw_monomials(n, params):
    """x^e T_w for every w in S_n and every x-degree |e| <= 2, times the
    parameter when there is one."""
    tail = (1,) * len(params)
    return [
        NilHeckeElement(n, {w: MPoly(n, params, {e + tail: 1})}, params)
        for w in length_order(n)
        for e in exponent_tuples(n, 2)
    ]


@pytest.mark.parametrize("params", [(), ("t",)])
@pytest.mark.parametrize("n", [3, 4])
def test_memoized_columns_match_the_letter_by_letter_kernel(n, params):
    rng = random.Random(50 + n + len(params))
    basis = pbw_monomials(n, params)
    mixed = [random_element(rng, n, nterms=3, params=params) for _ in range(3)]
    q = random_poly(rng, n, max_deg=3, max_terms=4, params=params)
    # every pair at n = 3; at n = 4 each monomial against mixed elements
    partners = basis if n == 3 else mixed
    for a in basis:
        for b in partners:
            assert a * b == mul_reference(a, b)
        for b in mixed:
            assert b * a == mul_reference(b, a)
        assert a.apply_to_polynomial(q) == apply_reference(a, q)
        start = {v.images: p.terms for v, p in a.terms.items()}
        for w, terms in _t_products(a):
            assert {v: t for v, t in terms.items() if t} == t_word_reference(w, start)
    for b in mixed:
        assert b.apply_to_polynomial(q) == apply_reference(b, q)


@pytest.mark.parametrize("params", [(), ("t",)])
@pytest.mark.parametrize("n", [3, 4])
def test_t_step_is_the_straightening_rule(n, params):
    # T_i P T_w = s_i(P) T_{s_i w} + d_i(P) T_w, the first term only when
    # l(s_i w) > l(w): T_i T_w = 0 otherwise
    tail = (1,) * len(params)
    for w in length_order(n):
        for e in exponent_tuples(n, 3):
            p = MPoly(n, params, {e + tail: 1})
            for i in range(1, n):
                si = Permutation.simple(i, n)
                expected = {}
                if (si * w).length() > w.length():
                    expected[si * w] = p.act_simple(i)
                if not p.demazure(i).is_zero():
                    expected[w] = p.demazure(i)
                step = _t_step(w.images, e + tail, i)
                assert len(step) == len(expected)
                assert {
                    Permutation(u): MPoly(n, params, dict(column)) for u, column in step
                } == expected


def test_results_do_not_alias_the_memos():
    # every column is read into fresh dicts: mutating a result in place
    # leaves the next computation of it unchanged
    rng = random.Random(60)
    n, params = 3, ("t",)
    a = random_element(rng, n, nterms=3, params=params)
    b = random_element(rng, n, nterms=3, params=params)
    q = random_poly(rng, n, max_deg=3, max_terms=4, params=params)

    def spoil(term_dicts):
        for terms in term_dicts:
            for e in list(terms):
                terms[e] *= 7
            terms[(9,) * (n + len(params))] = 1

    def snapshot(term_dicts):
        return [dict(terms) for terms in term_dicts]

    results = {
        "product": lambda: [p.terms for p in (a * b).terms.values()],
        "apply": lambda: [a.apply_to_polynomial(q).terms],
        "columns": lambda: list(_tprime_columns(b).values()),
    }
    for name, compute in results.items():
        first = compute()
        before = snapshot(first)
        assert any(before), name
        spoil(first)
        assert snapshot(compute()) == before, name


def test_demazure_column_is_an_immutable_memo():
    sign, monomials = demazure_exponents((3, 0, 1), 1)
    assert (sign, monomials) == (-1, ((2, 0, 1), (1, 1, 1), (0, 2, 1)))
    assert demazure_exponents((3, 0, 1), 1)[1] is monomials
    assert all(isinstance(demazure_exponents(e, 1)[1], tuple)
               for e in [(0, 0, 0), (0, 2, 5), (1, 1, 0)])


def test_tprime_matches_fresh_group_element():
    rng = random.Random(21)
    for n in (1, 2, 3, 4):
        g0 = group_element(Permutation.longest(n))
        for _ in range(8):
            a = random_element(rng, n, nterms=3)
            assert a.trace_tprime() == full_product_tprime(a, g0)


@pytest.mark.parametrize("n", [2, 3])
def test_tprime_matches_full_product_with_a_parameter(n):
    rng = random.Random(23 + n)
    params = ("t",)
    g0 = group_element(Permutation.longest(n), params)
    for _ in range(8):
        a = random_element(rng, n, nterms=3, params=params)
        assert a.trace_tprime() == full_product_tprime(a, g0)
        assert a.trace_tprime().params == params


def test_tprime_memo_is_not_mutated():
    rng = random.Random(22)
    n = 3
    kernel = _tprime_kernel(n, ())
    kernel_snapshot = {w: dict(p) for w, p in kernel.items()}
    for _ in range(10):
        a = random_element(rng, n)
        (a * a).trace_tprime()
        a.trace_tprime()
        _tprime_columns(a * a)
    frobenius_gram_determinant(n)
    assert _tprime_kernel(n, ()) is kernel
    assert {w: dict(p) for w, p in kernel.items()} == kernel_snapshot
    # K_w is the T_{w0} coefficient of T_w [w0], the product formed in full
    for n in (2, 3, 4):
        w0 = Permutation.longest(n)
        g0 = group_element(w0)
        kernel = _tprime_kernel(n, ())
        assert len(kernel) == len(list(Permutation.all(n)))
        for w in Permutation.all(n):
            assert kernel[w.images] == (NilHeckeElement.t_perm(w) * g0).terms[w0].terms


@pytest.mark.parametrize("n", [2, 3])
def test_prefix_tree_products_match_full_products(n):
    rng = random.Random(40 + n)
    x = random_element(rng, n, nterms=3)
    products = list(_t_products(x))
    assert [w for w, _ in products] == list(length_order(n))
    for w, terms in products:
        full = NilHeckeElement.t_perm(w) * x
        assert terms == {v.images: p.terms for v, p in full.terms.items()}


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
    assert frobenius_gram_determinant(2) in (1, -1)
    assert frobenius_gram_determinant(3) in (1, -1)


def schubert_t_basis(n):
    order = sorted(Permutation.all(n), key=lambda w: (w.length(), w.images))
    return [
        NilHeckeElement.from_poly(schubert_basis_element(u, n))
        * NilHeckeElement.t_perm(w)
        for u in order
        for w in order
    ]


def gram_matrix_tprime(elements):
    """Rows of the matrix of t'(a * b) over a list of nil Hecke elements:
    for a = sum_w P_w T_w, t'(a b) = d_{w0}(sum_w P_w R_w(b)) with R_w(b)
    the T_{w0} coefficient of T_w b [w0], each T_w b and T_w [w0] formed
    as a full product."""
    n, params = elements[0].n, elements[0].params
    w0 = Permutation.longest(n)
    g0 = group_element(w0, params)
    zero = MPoly.zero(n, params)
    kernel = {
        w: (NilHeckeElement.t_perm(w, params) * g0).terms.get(w0, zero)
        for w in Permutation.all(n)
    }

    def pair(a, coefficients):
        out = zero
        for w, p in a.terms.items():
            out = out + p * coefficients[w]
        return out

    indices = {w for a in elements for w in a.terms}
    columns = [
        {w: pair(NilHeckeElement.t_perm(w, params) * b, kernel) for w in indices}
        for b in elements
    ]
    for a in elements:
        yield [pair(a, r).demazure_perm(w0) for r in columns]


def frobenius_gram_matrix(n):
    """The whole t'-Gram matrix on the basis {Schubert_u * T_w}, evaluated
    at X_k = k + 1 after checking that every entry has x-degree
    (deg a + deg b)/2 and that the matrix is symmetric: the reference for
    `frobenius_gram_determinant`."""
    basis = schubert_t_basis(n)
    degs = []
    for el in basis:
        (d,) = el.degrees()
        degs.append(d)
    point = [k + 2 for k in range(n)]
    mat = []
    for i, entries in enumerate(gram_matrix_tprime(basis)):
        for j, p in enumerate(entries):
            xdegs = {sum(e) for e in p.terms}
            assert not xdegs or xdegs == {(degs[i] + degs[j]) // 2}, (i, j)
        mat.append([
            sum(c * math.prod(v**k for v, k in zip(point, e)) for e, c in p.terms.items())
            for p in entries
        ])
    assert all(row == list(col) for row, col in zip(mat, zip(*mat)))
    return mat


@pytest.mark.parametrize("n", [2, 3])
def test_block_determinant_matches_the_full_matrix(n):
    # block by block, as the whole matrix eliminated: -1 at n = 2 and 3
    assert frobenius_gram_determinant(n) == determinant(frobenius_gram_matrix(n)) == -1


@pytest.mark.parametrize("n", [2, 3])
def test_gram_entries_match_full_products(n):
    # every entry against t((a * b) * [w0]), both products formed in full
    g0 = group_element(Permutation.longest(n))
    basis = schubert_t_basis(n)
    gram = list(gram_matrix_tprime(basis))
    nonzero = 0
    for a, row in zip(basis, gram):
        for b, entry in zip(basis, row):
            assert entry == full_product_tprime(a * b, g0), (a, b)
            nonzero += not entry.is_zero()
    assert nonzero > len(basis)


def test_gram_entries_of_sums_match_full_products():
    rng = random.Random(27)
    for n, params in ((3, ()), (2, ("t",))):
        g0 = group_element(Permutation.longest(n), params)
        elems = [random_element(rng, n, nterms=3, params=params) for _ in range(5)]
        for a, row in zip(elems, gram_matrix_tprime(elems)):
            for b, entry in zip(elems, row):
                assert entry == full_product_tprime(a * b, g0)


def wrong_side(b):
    """R_w(b) read off b T_w instead of T_w b."""
    from quiverhecke import nilhecke

    kernel = _tprime_kernel(b.n, b.params)
    columns = {}
    for w in Permutation.all(b.n):
        prod = b * NilHeckeElement.t_perm(w, b.params)
        terms = {v.images: p.terms for v, p in prod.terms.items()}
        columns[w] = nilhecke._pair(terms, kernel)
    return columns


def test_gram_matrix_refuses_products_on_the_wrong_side(monkeypatch):
    # the wrong side keeps every degree and a unit determinant, but breaks
    # t'(ab) = t'(ba) at n = 3
    from quiverhecke import nilhecke

    monkeypatch.setattr(nilhecke, "_tprime_columns", wrong_side)
    # at n = 2 every block stays symmetric and unimodular
    assert frobenius_gram_determinant(2) in (1, -1)
    with pytest.raises(ArithmeticError, match=r"block d = -?\d+ .*t'\(ab\) = t'\(ba\)"):
        frobenius_gram_determinant(3)


def test_wrong_side_fails_the_pinned_gram_sign(capsys, monkeypatch):
    # n = 2's blocks pass on the wrong side, but its determinant turns to
    # +1: only the pinned sign sees it
    from quiverhecke import cli, nilhecke

    monkeypatch.setattr(nilhecke, "_tprime_columns", wrong_side)
    assert nilhecke.frobenius_gram_determinant(2) == -nilhecke.GRAM_DETERMINANTS[2]
    assert cli.main(["verify", "nilhecke", "--n", "2", "--format", "text"]) == 1
    out = capsys.readouterr().out
    assert 'FAIL gram-unit-determinant {"max_n": 2}' in out.splitlines()


@pytest.mark.parametrize(
    "perturbed, message",
    [
        # one K_w scaled: t'(ab) = t'(ba) fails
        ({(3, 2, 1)}, r"block d = 0 is not the transpose of block d = 0"),
        # every K_w scaled: t' stays symmetric, its blocks lose their unit
        # determinants
        (set(itertools.permutations((1, 2, 3))), r"block d = 0 has determinant -?\d+, not"),
    ],
)
def test_perturbed_kernel_fails_a_named_block(monkeypatch, perturbed, message):
    from quiverhecke import nilhecke

    kernel = {
        w: {e: 2 * c for e, c in k.items()} if w in perturbed else k
        for w, k in _tprime_kernel(3, ()).items()
    }
    monkeypatch.setattr(nilhecke, "_tprime_kernel", lambda n, params: kernel)
    with pytest.raises(ArithmeticError, match=message):
        frobenius_gram_determinant(3)


def test_gram_determinant_refuses_n_above_four_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"n <= 4 only, got 5: 14400 basis elements"):
        frobenius_gram_determinant(5)
    assert time.perf_counter() - start < 1


def test_invalid_input_raises_under_optimize():
    # `python -O` strips asserts; each invalid input must still raise
    code = (
        "import sys\n"
        "from quiverhecke.coxeter import Permutation\n"
        "from quiverhecke.nilhecke import NilHeckeElement as H\n"
        "from quiverhecke.nilhecke import frobenius_gram_determinant\n"
        "from quiverhecke.polyring import MPoly\n"
        "cases = [\n"
        "    lambda: H(3, {Permutation.identity(2): MPoly.one(3)}),\n"
        "    lambda: H(2, {Permutation.identity(2): MPoly.one(3)}),\n"
        "    lambda: H(2, {Permutation.identity(2): MPoly.one(2, ('t',))}),\n"
        "    lambda: H.t(1, 2) + H.t(1, 3),\n"
        "    lambda: H.t(1, 2) * H.t(1, 2, ('t',)),\n"
        "    lambda: H.t(1, 2) * H.t(1, 3),\n"
        "    lambda: H.zero(3).apply_to_polynomial(MPoly.x(1, 4)),\n"
        "    lambda: H.t(1, 3).apply_to_polynomial(MPoly.x(1, 4)),\n"
        "    lambda: H.t(1, 3).apply_to_polynomial(MPoly.x(1, 3, ('t',))),\n"
        "    lambda: H.one(3).apply_to_polynomial(MPoly.x(1, 2)),\n"
        "    lambda: H.x(1, 2).sigma(),\n"
        "    lambda: H.x(1, 2).trace_t0(),\n"
        "    lambda: frobenius_gram_determinant(5),\n"
        "]\n"
        "for case in cases:\n"
        "    try:\n"
        "        case()\n"
        "        print('accepted')\n"
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
    assert res.stdout.split() == ["raised"] * 13 + ["1"]


# -- negative controls: a wrong column must fail its verify check ---------


def swap_with_the_wrong_sign(v, e, i):
    """`_t_step` with -s_i(x^e) T_{s_i v} in place of s_i(x^e) T_{s_i v}."""
    return tuple(
        (u, column if u == v else tuple((m, -k) for m, k in column))
        for u, column in _t_step(v, e, i)
    )


def one_coefficient_doubled(word, e):
    """`_d_column` with its first coefficient doubled."""
    column = _d_column(word, e)
    return ((column[0][0], 2 * column[0][1]),) + column[1:] if column else column


def gram_entries_drop_a_term():
    """`frobenius_gram_determinant` whose entries t'(ab) each drop the
    first term of the product that d_{w0} is applied to."""
    from quiverhecke import nilhecke

    source = inspect.getsource(nilhecke.frobenius_gram_determinant)
    terms = "add_product({}, p.terms, columns[w]).items()"
    if source.count(terms) != 1:
        raise LookupError(f"{terms!r} is not once in frobenius_gram_determinant")
    namespace = dict(vars(nilhecke))
    exec(source.replace(terms, f"list({terms})[1:]"), namespace)
    return namespace["frobenius_gram_determinant"]


# name: (attribute of nilhecke, a maker of its replacement, verify
# nilhecke --n, the check that must fail)
NEGATIVE_CONTROLS = {
    "t-step-sign": (
        "_t_step", lambda: swap_with_the_wrong_sign, 3, "pbw-product-vs-operators",
    ),
    "d-column-coefficient": (
        "_d_column", lambda: one_coefficient_doubled, 3, "pbw-product-vs-operators",
    ),
    "gram-entry-term": (
        "frobenius_gram_determinant", gram_entries_drop_a_term, 2, "gram-unit-determinant",
    ),
}


@pytest.mark.parametrize("control", sorted(NEGATIVE_CONTROLS))
def test_a_wrong_column_fails_its_check(control, capsys, monkeypatch):
    from quiverhecke import cli, nilhecke

    attr, make, n, check = NEGATIVE_CONTROLS[control]
    monkeypatch.setattr(nilhecke, attr, make())
    try:
        assert cli.main(["verify", "nilhecke", "--n", str(n), "--format", "text"]) == 1
    finally:
        # the kernel of t' is memoized per n from whatever `_t_step` gave
        _tprime_kernel.cache_clear()
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert any(line.startswith(f"FAIL {check} ") for line in fails), fails


def test_a_wrong_column_fails_its_check_under_optimize():
    # `python -O` strips asserts; each control must still exit 1 with its FAIL line
    code = (
        "import contextlib, io, sys\n"
        "from quiverhecke import cli, nilhecke\n"
        "import test_nilhecke as t\n"
        "for name, (attr, make, n, check) in sorted(t.NEGATIVE_CONTROLS.items()):\n"
        "    original = getattr(nilhecke, attr)\n"
        "    setattr(nilhecke, attr, make())\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        "        status = cli.main(['verify', 'nilhecke', '--n', str(n), '--format', 'text'])\n"
        "    setattr(nilhecke, attr, original)\n"
        "    nilhecke._tprime_kernel.cache_clear()\n"
        "    failed = any(l.startswith(f'FAIL {check} ') for l in out.getvalue().splitlines())\n"
        "    print(name, status, failed)\n"
        "print(sys.flags.optimize)\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == [
        word for name in sorted(NEGATIVE_CONTROLS) for word in (name, "1", "True")
    ] + ["1"]

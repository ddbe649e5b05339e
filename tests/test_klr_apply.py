"""The polynomial representation's term-dict kernel against other engines.

``KLRElement.apply`` acts with ``_apply_word`` on plain term dicts through
memoized tau columns.  It is compared exactly with a reference that
composes whole ``MPoly`` objects letter by letter (the previous
implementation, kept here), with the rewriting engine through
``(a * b).apply(M) == a.apply(b.apply(M))``, and with the symbolic
operators of ``represent`` over rational functions, whose leading terms
certify PBW independence.
"""

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhecke.coxeter import Permutation
from quiverhecke.klr import (
    KLRElement,
    _delta,
    QMatrix,
    QuiverData,
    apply_tau,
    cyclic_quiver,
    linear_quiver,
    make_klr,
    pbw_coordinates,
    represent,
    single_vertex_quiver,
)
from quiverhecke.polyring import MPoly, divide_exact, exponent_tuples


def one_parameter_context():
    # Q_12 = t * (u' - u), the matrix of test_klr.test_generic_parameter_mode
    qm = QMatrix(
        (1, 2),
        {
            (1, 2): {(1, 0, 1): -1, (0, 1, 1): 1},
            (2, 1): {(0, 1, 1): -1, (1, 0, 1): 1},
        },
        params=("t",),
    )
    return make_klr(QuiverData((1, 2), {(1, 2): 1}), 2, qm)


CONTEXTS = {
    "a2-n2": lambda: make_klr(linear_quiver(2), 2),
    "a2-n3": lambda: make_klr(linear_quiver(2), 3),
    "a3-n3": lambda: make_klr(linear_quiver(3), 3),
    "cyclic2-n3": lambda: make_klr(cyclic_quiver(2), 3),
    "one-parameter-n2": one_parameter_context,
}


def reference_apply_word(ctx, v, w, a, poly):
    """tau_w x^a 1_v on a polynomial of M_v, composing MPoly objects."""
    p = poly * MPoly(ctx.n, ctx.params, {tuple(a): 1})
    u = list(v)
    for l in reversed(w.canonical_word()):
        if u[l - 1] == u[l]:
            p = p.demazure(l)
        else:
            p = ctx.p_poly(u[l - 1], u[l], l + 1, l) * p.act_simple(l)
            u[l - 1], u[l] = u[l], u[l - 1]
    return p


def reference_apply(el, module):
    ctx = el.ctx
    out = {}
    for (v, w, a), c in el.terms.items():
        p = module.get(v)
        if p is None or p.is_zero():
            continue
        img = reference_apply_word(ctx, v, w, a, p).scale(c)
        tgt = w.act_on_list(v)
        out[tgt] = out[tgt] + img if tgt in out else img
    return {v: p for v, p in out.items() if not p.is_zero()}


def idempotents(ctx):
    return list(itertools.product(ctx.quiver.vertices, repeat=ctx.n))


def random_poly(rng, ctx, max_deg=3, terms=4):
    out = {}
    for _ in range(terms):
        xs = [0] * ctx.n
        for _ in range(rng.randint(0, max_deg)):
            xs[rng.randrange(ctx.n)] += 1
        params = tuple(rng.randint(0, 1) for _ in ctx.params)
        out[tuple(xs) + params] = rng.randint(-3, 3)
    return MPoly(ctx.n, ctx.params, out)


def random_element(rng, ctx, terms=3, max_exp=2):
    idems = idempotents(ctx)
    perms = list(Permutation.all(ctx.n))
    el = KLRElement.zero(ctx)
    for _ in range(terms):
        exps = [rng.randint(0, max_exp) for _ in range(ctx.n)]
        exps += [rng.randint(0, 1) for _ in ctx.params]
        word = KLRElement.basis_word(ctx, rng.choice(idems), rng.choice(perms), exps)
        el = el + word.scale(rng.choice([1, -1, 2, -3]))
    return el


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_apply_matches_mpoly_reference(name):
    ctx = CONTEXTS[name]()
    rng = random.Random(f"apply-{name}")
    idems = idempotents(ctx)
    checked = 0
    for _ in range(40):
        el = random_element(rng, ctx)
        module = {v: random_poly(rng, ctx) for v in idems}
        expected = reference_apply(el, module)
        # twice: the second pass reads every column from the cache
        assert el.apply(module) == expected
        assert el.apply(module) == expected
        checked += bool(expected)
    assert checked >= 30
    assert ctx._column_cache


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_every_basis_word_matches_reference(name):
    # each word once on one polynomial with a constant term, so the
    # Demazure and the twisted-multiplication columns all occur
    ctx = CONTEXTS[name]()
    rng = random.Random(f"words-{name}")
    zeros = (0,) * len(ctx.params)
    for v in idempotents(ctx):
        poly = random_poly(rng, ctx, max_deg=2) + MPoly.one(ctx.n, ctx.params)
        for w in Permutation.all(ctx.n):
            for a in itertools.product(range(2), repeat=ctx.n):
                el = KLRElement.basis_word(ctx, v, w, a + zeros)
                assert el.apply({v: poly}) == reference_apply(el, {v: poly})


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_pbw_round_trip_per_context(name):
    ctx = CONTEXTS[name]()
    rng = random.Random(f"round-trip-{name}")
    for _ in range(4):
        el = random_element(rng, ctx, terms=2, max_exp=1)
        assert pbw_coordinates(represent(el)) == el


REPRESENT_CONTEXTS = {
    "single-n3": lambda: make_klr(single_vertex_quiver(), 3),
    "a2-n3": CONTEXTS["a2-n3"],
    "a3-n3": CONTEXTS["a3-n3"],
    "cyclic2-n2": lambda: make_klr(cyclic_quiver(2), 2),
}


@pytest.mark.parametrize("name", sorted(REPRESENT_CONTEXTS))
def test_represent_matches_apply_on_every_basis_word(name):
    # the engine that pbw_leading_terms reads (sum_s (N_s / Delta_u) s
    # over rational functions) against the term-dict engine verify
    # klr-relations checks
    ctx = REPRESENT_CONTEXTS[name]()
    n = ctx.n
    zero = MPoly.zero(n)
    monomials = [
        MPoly(n, (), {e + (0,) * (n - len(e)): 1}) for e in ((), (1,), (2, 1))
    ]
    compared = 0
    for v in idempotents(ctx):
        for w in Permutation.all(n):
            target = w.act_on_list(v)
            for a in itertools.product(range(2), repeat=n):
                el = KLRElement.basis_word(ctx, v, w, a)
                op = represent(el)
                for p in monomials:
                    image = zero
                    for (_, s), num in op.terms.items():
                        image = image + num * p.act(s)
                    image = divide_exact(image, _delta(ctx, target))
                    expected = el.apply({v: p}).get(target, zero)
                    assert image == expected, (v, w, a, p)
                    compared += 1
    assert compared == 3 * len(idempotents(ctx)) * math.factorial(n) * 2 ** n


TAU_CONTEXTS = {
    "a2-n3": CONTEXTS["a2-n3"],
    "a3-n3": CONTEXTS["a3-n3"],
    "one-parameter-n2": one_parameter_context,
}


@pytest.mark.parametrize("name", sorted(TAU_CONTEXTS))
def test_term_dict_tau_matches_klr_element_apply(name):
    # verify klr-relations applies tau_i to term dicts through apply_tau;
    # it must agree with KLRElement.tau(ctx, i, v).apply on MPoly modules
    # and with the MPoly reference, on every idempotent and every monomial
    # of degree <= 3 (parameters included)
    ctx = TAU_CONTEXTS[name]()
    monomials = list(exponent_tuples(ctx.width, 3))
    whole = {}
    for i in range(1, ctx.n):
        total = KLRElement.zero(ctx)
        for v in idempotents(ctx):
            tau = KLRElement.tau(ctx, i, v)
            total = total + tau
            for e in monomials:
                poly = MPoly(ctx.n, ctx.params, {e: 1})
                got = apply_tau(ctx, i, {v: {e: 1}})
                expected = {u: p.terms for u, p in tau.apply({v: poly}).items()}
                assert got == expected, (i, v, e)
                reference = reference_apply(tau, {v: poly})
                assert got == {u: p.terms for u, p in reference.items()}
        # a whole module at once: one term dict per idempotent
        module = {
            v: {e: k % 5 - 2 for k, e in enumerate(monomials) if k % 5 != 2}
            for v in idempotents(ctx)
        }
        polys = {v: MPoly(ctx.n, ctx.params, t) for v, t in module.items()}
        whole[i] = apply_tau(ctx, i, module)
        assert whole[i] == {u: p.terms for u, p in total.apply(polys).items()}
    assert all(whole.values())


def test_apply_tau_rejects_a_missing_generator():
    ctx = CONTEXTS["a2-n3"]()
    for i in (0, 3):
        with pytest.raises(ValueError, match=f"tau_{i} is not a generator"):
            apply_tau(ctx, i, {})


def test_pbw_path_raises_under_optimize():
    # a doubled lead makes the coordinate 1/2, an operator with a stray
    # 1/Delta is not in the image, and operators of two contexts do not
    # subtract: each must fail under `python -O`, which strips asserts
    code = (
        "import sys\n"
        "from quiverhecke import klr\n"
        "from quiverhecke.polyring import MPoly\n"
        "ctx = klr.make_klr(klr.linear_quiver(2), 2)\n"
        "op = klr.represent(klr.KLRElement.tau(ctx, 1, (1, 1)))\n"
        "one = klr.Permutation.identity(2)\n"
        "stray = klr.KLROperator(ctx, {((1, 1), one): MPoly.one(2)})\n"
        "other = klr.make_klr(klr.linear_quiver(2), 2)\n"
        "real = klr._expand_word\n"
        "def doubled(ctx, w, v):\n"
        "    return {s: num * 2 if s == w else num\n"
        "            for s, num in real(ctx, w, v).items()}\n"
        "cases = [\n"
        "    lambda: klr.pbw_coordinates(stray),\n"
        "    lambda: op - klr.represent(klr.KLRElement.tau(other, 1, (1, 1))),\n"
        "    lambda: klr.pbw_coordinates(op),\n"
        "]\n"
        "for k, case in enumerate(cases):\n"
        "    if k == 2:\n"
        "        klr._expand_word = doubled\n"
        "    try:\n"
        "        case()\n"
        "        print('accepted')\n"
        "    except (ArithmeticError, ValueError) as e:\n"
        "        print(type(e).__name__)\n"
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
        "ArithmeticError", "ValueError", "ArithmeticError", "1"
    ]


@st.composite
def composable_pair(draw):
    """(context name, a, b, module) with a's sources among b's targets."""
    name = draw(st.sampled_from(sorted(CONTEXTS)))
    ctx = CONTEXTS[name]()
    idems = idempotents(ctx)
    perms = list(Permutation.all(ctx.n))
    width = ctx.width
    exps = st.tuples(*(st.integers(0, 1) for _ in range(width)))
    coeff = st.sampled_from([1, -1, 2])

    def element(sources, terms):
        el = KLRElement.zero(ctx)
        for _ in range(terms):
            v = draw(st.sampled_from(sources))
            w = draw(st.sampled_from(perms))
            word = KLRElement.basis_word(ctx, v, w, draw(exps))
            el = el + word.scale(draw(coeff))
        return el

    b = element(idems, draw(st.integers(1, 2)))
    targets = sorted({w.act_on_list(v) for v, w, _ in b.terms} or idems)
    a = element(targets, draw(st.integers(1, 2)))
    module = {}
    for v in idems:
        terms = draw(st.dictionaries(exps, st.integers(-2, 2), max_size=3))
        module[v] = MPoly(ctx.n, ctx.params, terms)
    return name, a, b, module


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(composable_pair())
def test_product_acts_as_composition(case):
    # the rewriting engine against the polynomial representation
    _, a, b, module = case
    assert (a * b).apply(module) == a.apply(b.apply(module))


def test_invalid_input_raises_under_optimize():
    # `python -O` strips asserts; each malformed input must still raise
    code = (
        "import sys\n"
        "from quiverhecke.coxeter import Permutation\n"
        "from quiverhecke.klr import KLRElement, linear_quiver, make_klr\n"
        "from quiverhecke.polyring import MPoly\n"
        "ctx = make_klr(linear_quiver(2), 2)\n"
        "one = Permutation.identity(2)\n"
        "cases = [\n"
        "    lambda: KLRElement.basis_word(ctx, (1, 5), one, (0, 0)),\n"
        "    lambda: KLRElement.basis_word(ctx, (1, 2, 1), one, (0, 0)),\n"
        "    lambda: KLRElement.basis_word(ctx, (1, 2), one, (0,)),\n"
        "    lambda: KLRElement.basis_word(ctx, (1, 2), one, (0, 0, 1)),\n"
        "    lambda: KLRElement.basis_word(ctx, (1, 2), Permutation.identity(3), (0, 0)),\n"
        "    lambda: KLRElement(ctx, {((1, 2), one, (1,)): 1}),\n"
        "    lambda: KLRElement.idempotent(ctx, (3, 1)),\n"
        "    lambda: KLRElement.x(ctx, 3, (1, 2)),\n"
        "    lambda: KLRElement.x(ctx, 0, (1, 2)),\n"
        "    lambda: KLRElement.tau(ctx, 2, (1, 2)),\n"
        "    lambda: KLRElement.tau(ctx, 1, (1, 2)).apply({(1, 2): MPoly.one(3)}),\n"
        "    lambda: KLRElement.tau(ctx, 1, (1, 2)).apply({(1, 2): MPoly.one(2, ('t',))}),\n"
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
    assert res.stdout.split() == ["raised"] * 12 + ["1"]

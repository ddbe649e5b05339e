import gc
import itertools
import os
import random
import subprocess
import sys
import weakref
from collections import Counter, deque
from pathlib import Path

import pytest

from quiverhecke.hall import (
    ClassTable,
    HallContext,
    a2_quiver,
    act,
    compile_step,
    direct_sum,
    elementary_ops,
    field,
    gl_order,
    group_order,
    jordan_quiver,
    mat_inverse,
    mat_mul,
    mat_vec,
    matrix_tuples,
    residue,
    rref,
    serre_relation_check,
    simple_rep,
    subspace_count,
    subspaces,
    unit,
    QuiverRep,
    zero_rep,
)
from quiverhecke.klr import QuiverData
from quiverhecke.laurent import Laurent, q_binomial


# -- fields and linear algebra ------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_field_axioms(q):
    F = field(q)
    els, ADD, MUL = F.elements, F.ADD, F.MUL
    for a, b in itertools.product(els, repeat=2):
        assert ADD[a][b] == ADD[b][a]
        assert MUL[a][b] == MUL[b][a]
        assert ADD[ADD[a][b]][F.NEG[b]] == a
    for a, b, c in itertools.product(els, repeat=3):
        assert ADD[ADD[a][b]][c] == ADD[a][ADD[b][c]]
        assert MUL[MUL[a][b]][c] == MUL[a][MUL[b][c]]
        assert MUL[a][ADD[b][c]] == ADD[MUL[a][b]][MUL[a][c]]
    for a in els[1:]:
        assert MUL[a][F.INV[a]] == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_matrix_inverse(q):
    F = field(q)
    count = 0
    for mat in itertools.product(itertools.product(F.elements, repeat=2), repeat=2):
        try:
            inv = mat_inverse(F, mat)
        except ArithmeticError:
            continue
        count += 1
        assert mat_mul(F, mat, inv) == ((1, 0), (0, 1))
    assert count == gl_order(q, 2)


def _gf4_mul(a, b):
    # carry-less product of a1 x + a0 and b1 x + b0, reduced by x^2 = x + 1
    p = (a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
    return p ^ 0b111 if p & 4 else p


def _formula_add(q, a, b):
    return a ^ b if q == 4 else (a + b) % q


def _formula_mul(q, a, b):
    return _gf4_mul(a, b) if q == 4 else a * b % q


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_field_tables_match_formulas(q):
    F = field(q)
    for a, b in itertools.product(range(q), repeat=2):
        assert F.ADD[a][b] == _formula_add(q, a, b)
        assert F.MUL[a][b] == _formula_mul(q, a, b)
    for a in range(q):
        assert F.NEG[a] == (a if q == 4 else -a % q)
    for a in range(1, q):
        expected = next(b for b in range(q) if _formula_mul(q, a, b) == 1)
        assert F.INV[a] == expected
    assert F.INV[0] is None


@pytest.mark.parametrize("q", [6, 7, 1])
def test_unsupported_field_is_refused(q):
    with pytest.raises(ValueError):
        field(q)
    with pytest.raises(ValueError):
        HallContext(a2_quiver(), q)


def _schoolbook(q, A, B, rows, inner, cols):
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            s = 0
            for k in range(inner):
                s = _formula_add(q, s, _formula_mul(q, A[i][k], B[k][j]))
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_mat_mul_matches_schoolbook(q):
    rng = random.Random(q)
    F = field(q)
    for rows, inner, cols in itertools.product(range(4), repeat=3):
        A = tuple(tuple(rng.randrange(q) for _ in range(inner)) for _ in range(rows))
        B = tuple(tuple(rng.randrange(q) for _ in range(cols)) for _ in range(inner))
        got = mat_mul(F, A, B, cols=cols)
        assert got == _schoolbook(q, A, B, rows, inner, cols), (A, B)
        if inner:
            assert mat_mul(F, A, B) == got


def _generator(n, op):
    """The matrix of the step (i, j, c) of ``elementary_ops``: I + (c - 1) E_ii
    when i == j, I + c E_ij otherwise; either way entry (i, j) becomes c."""
    i, j, c = op
    g = [[int(a == b) for b in range(n)] for a in range(n)]
    g[i][j] = c
    return tuple(map(tuple, g))


@pytest.mark.parametrize(
    "n, q", [(n, q) for n in (1, 2) for q in (2, 3, 4, 5)] + [(3, 2), (3, 3)]
)
def test_gl_generators_generate_the_group(n, q):
    # the orbit BFS uses the generators without their inverses, so
    # their products alone must reach all of GL_n(q)
    F = field(q)
    gens = [_generator(n, op) for op in elementary_ops(q, n)]
    identity = tuple(tuple(int(a == b) for b in range(n)) for a in range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        frontier = [
            h
            for h in {mat_mul(F, m, g) for m in frontier for g in gens}
            if h not in seen
        ]
        seen.update(frontier)
    assert len(seen) == gl_order(q, n)


def _left_step(F, n, op, x):
    """g x for g = ``_generator(n, op)`` and x an n x n matrix as a flat
    row-major tuple: row i times c when i == j, else row i plus c row j."""
    i, j, c = op
    mc, ADD = F.MUL[c], F.ADD
    y = list(x)
    for k in range(i * n, i * n + n):
        y[k] = mc[x[k]] if i == j else ADD[x[k]][mc[x[k + (j - i) * n]]]
    return tuple(y)


@pytest.mark.parametrize("n, q", [(n, q) for n in (1, 2, 3) for q in (2, 3, 4, 5)])
def test_gl_generators_reach_every_elementary_matrix(n, q):
    # every transvection I + c E_ij and the diagonal generator is a
    # product of the generators; the walk stops once all are found,
    # since a full walk of GL_3(4) or GL_3(5) is too slow for tier-1
    F = field(q)
    ops = list(elementary_ops(q, n))

    def flat(op):
        return sum(_generator(n, op), ())

    missing = {
        flat((i, j, c))
        for i, j in itertools.permutations(range(n), 2)
        for c in F.elements[1:]
    }
    missing.add(flat((0, 0, F.multiplicative_generator())))
    identity = flat((0, 0, 1))
    missing.discard(identity)  # the diagonal generator is 1 at q = 2
    seen = {identity}
    todo = deque([identity])
    while todo and missing:
        x = todo.popleft()
        for op in ops:
            y = _left_step(F, n, op, x)
            if y not in seen:
                seen.add(y)
                todo.append(y)
                missing.discard(y)
    assert not missing


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_gl_generators_exclude_the_identity(q):
    # the identity is a no-op step in every orbit walk
    for n in range(4):
        identity = tuple(tuple(int(a == b) for b in range(n)) for a in range(n))
        assert identity not in [_generator(n, op) for op in elementary_ops(q, n)]


def test_singular_inverse_raises_under_optimize():
    # the check must survive `python -O`, which strips assert statements
    code = (
        "import sys\n"
        "from quiverhecke.hall import field, mat_inverse\n"
        "try:\n"
        "    mat_inverse(field(2), ((1, 1), (1, 1)))\n"
        "except ArithmeticError:\n"
        "    print('raised', sys.flags.optimize)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["raised", "1"]


def test_malformed_input_raises_under_optimize():
    # `python -O` strips asserts; each malformed input must still raise
    code = (
        "import sys\n"
        "from quiverhecke.hall import (\n"
        "    ClassTable, HallContext, QuiverRep, a2_quiver, direct_sum,\n"
        "    field, jordan_quiver, mat_mul, simple_rep,\n"
        ")\n"
        "a2 = a2_quiver()\n"
        "s1 = simple_rep(a2, 2, 1)\n"
        "cases = [\n"
        "    lambda: QuiverRep(a2, 2, (1, 1), (((1, 0),),)),\n"
        "    lambda: QuiverRep(a2, 2, (1, 2), (((1,),),)),\n"
        "    lambda: QuiverRep(a2, 2, (1, 1), ()),\n"
        "    lambda: simple_rep(jordan_quiver(), 2, 1),\n"
        "    lambda: simple_rep(a2, 2, 3),\n"
        "    lambda: direct_sum(s1, simple_rep(a2, 3, 1)),\n"
        "    lambda: direct_sum(s1, QuiverRep(jordan_quiver(), 2, (1,), (((0,),),))),\n"
        "    lambda: ClassTable(a2, 2, (1, 0)).label(simple_rep(a2, 2, 2)),\n"
        "    lambda: HallContext(jordan_quiver(), 2).euler_form((1,), (1,)),\n"
        "    lambda: mat_mul(field(2), ((1, 0),), ((1,),)),\n"
        "    lambda: mat_mul(field(3), ((1,), (1, 2)), ((1, 1), (0, 1))),\n"
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
    assert res.stdout.split() == ["raised"] * 11 + ["1"]


def test_residue_decides_rowspace_membership():
    F = field(3)
    basis = ((1, 0, 2), (0, 1, 1))
    pivots = (0, 1)
    u = (1, 1, 0)  # 1 * (1, 0, 2) + 1 * (0, 1, 1) over GF(3)
    assert residue(F, basis, pivots, u) == [0, 0, 0]
    assert tuple(u[p] for p in pivots) == (1, 1)
    assert residue(F, basis, pivots, (0, 0, 1)) == [0, 0, 1]


@pytest.mark.parametrize("q", [2, 3])
def test_subspace_counts(q):
    # number of k-subspaces of F_q^n: prod_{i<k} (q^{n-i}-1)/(q^{i+1}-1)
    from fractions import Fraction

    for n in range(4):
        for k in range(n + 1):
            count = len(list(subspaces(q, n, k)))
            expected = Fraction(1)
            for i in range(k):
                expected *= Fraction(q ** (n - i) - 1, q ** (i + 1) - 1)
            assert count == expected == subspace_count(q, n, k)


# -- classification ------------------------------------------------------


def test_a2_classification_dim11():
    ctx = HallContext(a2_quiver(), 3)
    table = ctx.table((1, 1))
    assert len(table.classes) == 2
    sizes = sorted(Counter(table.label_of.values()).values())
    assert sizes == [1, 2]
    auts = sorted(info["aut_order"] for info in table.classes.values())
    assert auts == [2, 4]


def test_matrix_tuples_order():
    shapes = [(2, 2), (0, 3), (2, 1)]
    got = list(matrix_tuples(2, shapes))
    # the entries, row by row and matrix by matrix, in product order
    flat = [tuple(x for m in mats for row in m for x in row) for mats in got]
    assert flat == list(itertools.product(range(2), repeat=6))
    for mats in got:
        assert [len(m) for m in mats] == [2, 0, 2]
        assert [len(row) for m in mats for row in m] == [2, 2, 1, 1]


@pytest.mark.parametrize(
    "quiver, middle",
    [
        (QuiverData((1, 2, 3), {(1, 2): 1, (3, 2): 1}), (1, 2, 1)),
        (QuiverData((1, 2), {(1, 2): 2}), (1, 2)),
    ],
    ids=["a3-sink", "kronecker"],
)
def test_hall_vs_exact_sequences_with_several_arrows(quiver, middle):
    # every arrow reads its endpoints from quiver.arrow_index
    q = 2
    ctx = HallContext(quiver, q)
    # five classes each: 111+010, 110+011, 110+010+001, 100+011+010 and
    # 100+010+010+001 for a3; for the Kronecker quiver, two independent
    # vectors, the q + 1 lines of F_q^2 plus a simple, and the zero pair
    assert len(ctx.table(middle).classes) == 5
    nv = len(quiver.vertices)
    dims = [d for d in itertools.product(range(2), repeat=nv) if any(d)]
    for dm in dims:
        for dn in dims:
            dl = tuple(a + b for a, b in zip(dm, dn))
            table = ctx.table(dl)
            entries = sum(dl[s] * dl[t] for s, t in quiver.arrow_index)
            assert len(table.label_of) == q ** entries
            for m in ctx.table(dm).representatives():
                for n in ctx.table(dn).representatives():
                    for l in table.representatives():
                        f = ctx.hall_number(m, n, l)
                        p = ctx.exact_sequence_count(m, n, l)
                        assert f * ctx.aut_order(m) * ctx.aut_order(n) == p


def test_jordan_classification_dim2():
    # conjugacy classes of 2x2 matrices over F_q: q^2 + q
    for q in (2, 3):
        table = ClassTable(jordan_quiver(), q, (2,))
        assert len(table.classes) == q * q + q
        # every matrix is labelled: the orbit sizes sum to q^4
        assert len(table.label_of) == q ** 4


A2_DIMS = list(itertools.product(range(3), repeat=2))  # a2 up to dims (2, 2)


@pytest.mark.parametrize("q", [2, 3])
def test_a2_orbit_sizes_partition_all_reps(q):
    ctx = HallContext(a2_quiver(), q)
    for dims in A2_DIMS:
        table = ctx.table(dims)
        orbit_sizes = Counter(table.label_of.values())
        # one arrow 1 -> 2: a d2 x d1 matrix
        assert sum(orbit_sizes.values()) == q ** (dims[0] * dims[1])
        assert len(table.label_of) == q ** (dims[0] * dims[1])
        order = group_order(a2_quiver(), q, dims)
        assert orbit_sizes.keys() == table.classes.keys()
        assert all(
            orbit_sizes[label] * info["aut_order"] == order
            for label, info in table.classes.items()
        )


@pytest.mark.parametrize("q", [2, 3])
def test_batched_hall_number_matches_direct_count(q):
    ctx = HallContext(a2_quiver(), q)
    reps = [r for dims in A2_DIMS for r in ctx.table(dims).representatives()]
    for m, n, l in itertools.product(reps, repeat=3):
        if tuple(a + b for a, b in zip(m.dims, n.dims)) != l.dims:
            assert ctx.hall_number(m, n, l) == 0
            continue
        direct = sum(
            1
            for sub, quot in ctx.subrep_data(l, n.dims)
            if sub == ctx.label(n) and quot == ctx.label(m)
        )
        assert ctx.hall_number(m, n, l) == direct, (m, n, l)


def test_aut_orders_stabilizer():
    # |Aut| * |orbit| = |G| and Aut of a simple is GL_1
    ctx = HallContext(a2_quiver(), 3)
    s1 = simple_rep(a2_quiver(), 3, 1)
    assert ctx.aut_order(s1) == 2  # |GL_1(3)|


# -- Hall numbers and products ------------------------------------------


def m_rep(q):
    return QuiverRep(a2_quiver(), q, (1, 1), (((1,),),))


@pytest.mark.parametrize("q", [2, 3])
def test_a2_products(q):
    quiver = a2_quiver()
    ctx = HallContext(quiver, q)
    f1 = ctx.element(simple_rep(quiver, q, 1))
    f2 = ctx.element(simple_rep(quiver, q, 2))
    m = m_rep(q)
    f12 = ctx.element(m)
    s1s2 = ctx.element(direct_sum(simple_rep(quiver, q, 1), simple_rep(quiver, q, 2)))
    assert f1.mul(f2) == f12 + s1s2
    assert f2.mul(f1) == s1s2
    # [f1, f2] = f12
    assert f1.mul(f2) - f2.mul(f1) == f12
    ms1 = ctx.element(direct_sum(m, simple_rep(quiver, q, 1)))
    assert f1.mul(f12) == ms1.scale(q)
    assert f12.mul(f1) == ms1


@pytest.mark.parametrize("q", [2, 3])
def test_unit_element(q):
    ctx = HallContext(a2_quiver(), q)
    f1 = ctx.element(simple_rep(a2_quiver(), q, 1))
    assert unit(ctx).mul(f1) == f1
    assert f1.mul(unit(ctx)) == f1


@pytest.mark.parametrize("q", [2, 3])
def test_hall_vs_exact_sequences(q):
    # F * |Aut M| * |Aut N| = P for all class triples up to total dim (2,2)
    quiver = a2_quiver()
    ctx = HallContext(quiver, q)
    dim_pairs = [
        ((1, 0), (1, 0)),
        ((1, 0), (0, 1)),
        ((0, 1), (1, 0)),
        ((1, 1), (1, 0)),
        ((1, 0), (1, 1)),
        ((1, 1), (1, 1)),
        ((2, 1), (0, 1)),
        ((1, 2), (1, 0)),
    ]
    for dm, dn in dim_pairs:
        dl = tuple(a + b for a, b in zip(dm, dn))
        for m in ctx.table(dm).representatives():
            for n in ctx.table(dn).representatives():
                for l in ctx.table(dl).representatives():
                    f = ctx.hall_number(m, n, l)
                    p = ctx.exact_sequence_count(m, n, l)
                    assert f * ctx.aut_order(m) * ctx.aut_order(n) == p, (
                        dm,
                        dn,
                        m,
                        n,
                        l,
                    )


def test_associativity_and_filtrations():
    q = 2
    quiver = a2_quiver()
    ctx = HallContext(quiver, q)
    f1 = ctx.element(simple_rep(quiver, q, 1))
    f2 = ctx.element(simple_rep(quiver, q, 2))
    # associativity
    assert f1.mul(f1.mul(f2)) == (f1.mul(f1)).mul(f2)
    # iterated product counts filtrations
    triple = f1.mul(f2.mul(f1))
    reps = [
        simple_rep(quiver, q, 1),
        simple_rep(quiver, q, 2),
        simple_rep(quiver, q, 1),
    ]
    for l in ctx.table((2, 1)).representatives():
        expected = ctx.filtration_count(reps, l)
        got = triple.terms.get(((2, 1), ctx.label(l)), Laurent.zero())
        assert got == Laurent.const(expected) or (
            got.is_zero() and expected == 0
        )


def test_steinitz_hall_commutative():
    # abelian p-groups: nilpotent Jordan-quiver reps; the Hall product of
    # two such classes is symmetric
    q = 2
    quiver = jordan_quiver()
    ctx = HallContext(quiver, q)
    u1 = ctx.element(QuiverRep(quiver, q, (1,), (((0,),),)))
    zp2 = ctx.element(QuiverRep(quiver, q, (2,), (((0, 1), (0, 0)),)))
    u2 = ctx.element(QuiverRep(quiver, q, (2,), (((0, 0), (0, 0)),)))
    assert u1.mul(zp2) == zp2.mul(u1)
    assert u1.mul(u2) == u2.mul(u1)


# -- Euler form, twist, Serre -------------------------------------------


def test_euler_form():
    ctx = HallContext(a2_quiver(), 2)
    assert ctx.euler_form((1, 0), (0, 1)) == -1
    assert ctx.euler_form((0, 1), (1, 0)) == 0
    assert ctx.euler_form((1, 0), (1, 0)) == 1
    assert ctx.euler_form((0, 1), (0, 1)) == 1


def test_gaussian_binomials():
    # the Serre coefficients [1 - a_ij choose r] in the balanced convention
    assert q_binomial(2, 1) == Laurent({-1: 1, 1: 1})
    assert q_binomial(2, 0) == Laurent.one()
    assert q_binomial(3, 1) == Laurent({-2: 1, 0: 1, 2: 1})
    # symmetry
    assert q_binomial(4, 1) == q_binomial(4, 3)
    assert q_binomial(2, 3).is_zero()


@pytest.mark.parametrize("q", [2, 3])
def test_serre_relation(q):
    # the relation holds in the twisted algebra where v^2 = q
    from quiverhecke.hall import element_is_zero_at_v2q

    ctx = HallContext(a2_quiver(), q)
    assert element_is_zero_at_v2q(serre_relation_check(ctx, 1, 2), q)
    assert element_is_zero_at_v2q(serre_relation_check(ctx, 2, 1), q)


def test_reduce_v2_equals_q():
    from quiverhecke.hall import reduce_v2_equals_q

    # q * v^{-1} - v vanishes once v^2 = q
    el = Laurent({-1: 2, 1: -1})
    assert reduce_v2_equals_q(el, 2).is_zero()
    assert not reduce_v2_equals_q(el, 3).is_zero()


# -- orbit steps, Hom spaces and exact sequences against the matrix forms --


def _random_mats(rng, q, shapes):
    return tuple(
        tuple(tuple(rng.randrange(q) for _ in range(c)) for _ in range(r))
        for r, c in shapes
    )


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_orbit_step_matches_matrix_products(q):
    # vertex 2 has an arrow in, an arrow out and a loop; the step is
    # g m into it, m g^{-1} out of it, both on the loop
    F = field(q)
    quiver = QuiverData((1, 2, 3), {(1, 2): 1, (2, 3): 1, (2, 2): 1})
    arrows = quiver.arrow_index
    rng = random.Random(q)
    for d in (1, 2, 3):
        for outer in (0, 2):
            dims = (outer, d, 3 - outer)
            shapes = [(dims[t], dims[s]) for s, t in arrows]
            for op in elementary_ops(q, d):
                g = _generator(d, op)
                g_inv = mat_inverse(F, g)
                for _ in range(3):
                    mats = _random_mats(rng, q, shapes)
                    expected = []
                    for (s, t), m in zip(arrows, mats):
                        if t == 1:
                            m = mat_mul(F, g, m, cols=dims[s])
                        if s == 1:
                            m = mat_mul(F, m, g_inv)
                        expected.append(m)
                    assert act(F, arrows, 1, op, mats) == tuple(expected)


def _apply_compiled(F, step, x):
    """The sparse map of ``compile_step`` as its docstring defines it."""
    y = list(x)
    for p, k0, m0, rest in step:
        y[p] = m0[x[k0]]
        for k, mc in rest:
            y[p] = F.ADD[y[p]][mc[x[k]]]
    return tuple(y)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_compiled_steps_match_act(q):
    # every vertex of the quiver above, loop included, and every step
    # (i, j, c), the adjacent generators of elementary_ops among them
    F = field(q)
    quiver = QuiverData((1, 2, 3), {(1, 2): 1, (2, 3): 1, (2, 2): 1})
    arrows = quiver.arrow_index
    rng = random.Random(100 + q)
    for d in (1, 2, 3):
        for outer in (0, 2):
            dims = (outer, d, 3 - outer)
            shapes = [(dims[t], dims[s]) for s, t in arrows]
            for vi, dv in enumerate(dims):
                ops = [(i, j, c) for i in range(dv) for j in range(dv) for c in F.elements[1:]]
                for op in ops:
                    step = compile_step(F, arrows, shapes, vi, op)
                    for _ in range(3):
                        mats = _random_mats(rng, q, shapes)
                        flat = tuple(e for m in mats for row in m for e in row)
                        expected = act(F, arrows, vi, op, mats)
                        got = _apply_compiled(F, step, flat)
                        assert got == tuple(e for m in expected for row in m for e in row)


def _reference_classes(quiver, q, dims):
    """The orbit BFS on QuiverReps with two matrix products per step:
    label of every matrix tuple, and (orbit size, |Aut|) per label."""
    F = field(q)
    gens = [(vi, _generator(d, op)) for vi, d in enumerate(dims) for op in elementary_ops(q, d)]
    bundles = [(vi, g, mat_inverse(F, g)) for vi, g in gens]
    order = group_order(quiver, q, dims)
    shapes = [(dims[t], dims[s]) for s, t in quiver.arrow_index]
    label_of, classes = {}, {}
    for mats in matrix_tuples(q, shapes):
        rep = QuiverRep(quiver, q, dims, mats)
        if rep.flat() in label_of:
            continue
        orbit = {rep.flat()}
        frontier = [rep]
        while frontier:
            nxt = []
            for r in frontier:
                for vi, g, g_inv in bundles:
                    out = []
                    for (s, t), m in zip(quiver.arrow_index, r.mats):
                        if t == vi:
                            m = mat_mul(F, g, m, cols=dims[s])
                        if s == vi:
                            m = mat_mul(F, m, g_inv)
                        out.append(m)
                    r2 = QuiverRep(quiver, q, dims, out)
                    if r2.flat() not in orbit:
                        orbit.add(r2.flat())
                        nxt.append(r2)
            frontier = nxt
        label = min(orbit)
        classes[label] = (len(orbit), order // len(orbit))
        label_of.update(dict.fromkeys(orbit, label))
    return label_of, classes


KRONECKER = QuiverData((1, 2), {(1, 2): 2})
A3_SINK = QuiverData((1, 2, 3), {(1, 2): 1, (3, 2): 1})
CLASS_CASES = (
    [("a2", a2_quiver(), 2, d) for d in itertools.product(range(4), repeat=2)]
    + [("a2", a2_quiver(), 3, d) for d in itertools.product(range(4), range(3))]
    + [("jordan", jordan_quiver(), q, (d,)) for q in (2, 3) for d in (1, 2)]
    + [("jordan", jordan_quiver(), 2, (3,))]
    + [("kronecker", KRONECKER, q, d) for q, d in ((2, (1, 2)), (2, (2, 1)), (3, (1, 2)))]
    + [("a3-sink", A3_SINK, q, d) for q, d in ((2, (1, 2, 1)), (2, (1, 1, 1)), (3, (1, 1, 1)))]
)


@pytest.mark.parametrize(
    "quiver, q, dims",
    [case[1:] for case in CLASS_CASES],
    ids=[f"{name}-q{q}-{','.join(map(str, d))}" for name, _, q, d in CLASS_CASES],
)
def test_classes_match_quiverrep_bfs(quiver, q, dims):
    label_of, classes = _reference_classes(quiver, q, dims)
    table = ClassTable(quiver, q, dims)
    assert {(dims, mats): label for mats, label in table.label_of.items()} == label_of
    orbit_sizes = Counter(table.label_of.values())
    assert {
        label: (orbit_sizes[label], info["aut_order"])
        for label, info in table.classes.items()
    } == classes
    assert all(info["rep"].flat() == label for label, info in table.classes.items())


def _reference_homs(quiver, q, a, b):
    """All matrix tuples f with b_x f_s = f_t a_x, by enumeration."""
    F = field(q)
    out = set()
    for fs in matrix_tuples(q, list(zip(b.dims, a.dims))):
        if all(
            mat_mul(F, b.mats[k], fs[s], cols=a.dims[s])
            == mat_mul(F, fs[t], a.mats[k], cols=a.dims[s])
            for k, (s, t) in enumerate(quiver.arrow_index)
        ):
            out.add(fs)
    return out


def _rank(F, f, a_dims, b_dims):
    return sum(
        len(rref(F, [tuple(fi[r][c] for r in range(db)) for c in range(da)])[0])
        for fi, da, db in zip(f, a_dims, b_dims)
    )


def _pair_loop_count(ctx, m, n, l):
    """Pairs (injection f, surjection g) with g f = 0: the exact
    sequences when dim L = dim M + dim N."""
    F = field(ctx.q)
    inj = [f for f in ctx._homs(n, l) if _rank(F, f, n.dims, l.dims) == sum(n.dims)]
    surj = [g for g in ctx._homs(l, m) if _rank(F, g, l.dims, m.dims) == sum(m.dims)]
    return sum(
        all(
            not any(map(any, mat_mul(F, gi, fi, cols=d)))
            for gi, fi, d in zip(g, f, n.dims)
        )
        for f in inj
        for g in surj
    )


SUITE_DIM_PAIRS = [
    ((1, 0), (1, 0)),
    ((1, 0), (0, 1)),
    ((0, 1), (1, 0)),
    ((1, 1), (1, 0)),
    ((1, 0), (1, 1)),
    ((1, 1), (1, 1)),
    ((2, 1), (0, 1)),
    ((1, 2), (1, 0)),
]


def _triples(ctx, dim_pairs):
    for dm, dn in dim_pairs:
        dl = tuple(a + b for a, b in zip(dm, dn))
        for m in ctx.table(dm).representatives():
            for n in ctx.table(dn).representatives():
                for l in ctx.table(dl).representatives():
                    yield m, n, l


@pytest.mark.parametrize("q", [2, 3, 4])
def test_homs_and_exact_sequences_match_enumeration(q):
    # Hom spaces against every matrix tuple, and the image/kernel match
    # against the g f = 0 pair loop, on every triple of the a2 suites
    ctx = HallContext(a2_quiver(), q)
    homs = {}

    def check_homs(a, b):
        key = (a.flat(), b.flat())
        if key not in homs:
            got = ctx._homs(a, b)
            assert len(got) == len(set(got))
            assert set(got) == _reference_homs(ctx.quiver, q, a, b), (a, b)
            homs[key] = len(got)
        return homs[key]

    for m, n, l in _triples(ctx, SUITE_DIM_PAIRS):
        check_homs(n, l)
        check_homs(l, m)
        assert ctx.exact_sequence_count(m, n, l) == _pair_loop_count(ctx, m, n, l)


@pytest.mark.parametrize("q", [2, 3])
def test_exact_sequence_counts_are_memoized(q):
    # asked twice on every triple, the counts match the g f = 0 pair
    # loop, and each Hom space is enumerated once per (source, target)
    expected = {}
    ref = HallContext(a2_quiver(), q)
    for m, n, l in _triples(ref, SUITE_DIM_PAIRS):
        expected[m, n, l] = _pair_loop_count(ref, m, n, l)
    ctx = HallContext(a2_quiver(), q)
    homs = ctx._homs
    calls = Counter()

    def counted(a, b):
        calls[a, b] += 1
        return homs(a, b)

    ctx._homs = counted
    for _ in range(2):
        for (m, n, l), count in expected.items():
            assert ctx.exact_sequence_count(m, n, l) == count
    pairs = {pair for m, n, l in expected for pair in ((n, l), (l, m))}
    assert set(calls) == pairs
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("quiver", [A3_SINK, KRONECKER], ids=["a3-sink", "kronecker"])
def test_homs_and_exact_sequences_match_enumeration_several_arrows(quiver):
    ctx = HallContext(quiver, 2)
    nv = len(quiver.vertices)
    dims = [d for d in itertools.product(range(2), repeat=nv) if any(d)]
    for m, n, l in _triples(ctx, itertools.product(dims, repeat=2)):
        for a, b in ((n, l), (l, m)):
            assert set(ctx._homs(a, b)) == _reference_homs(quiver, 2, a, b), (a, b)
        assert ctx.exact_sequence_count(m, n, l) == _pair_loop_count(ctx, m, n, l)


def test_no_exact_sequence_unless_dimensions_add():
    # 0 -> S1 -> S1^3 -> S1 -> 0 does not exist; g f = 0 holds for 21
    # injection/surjection pairs, but im f is a line and ker g a plane
    q = 2
    quiver = a2_quiver()
    ctx = HallContext(quiver, q)
    s1 = simple_rep(quiver, q, 1)
    s1_cubed = direct_sum(direct_sum(s1, s1), s1)
    assert ctx.exact_sequence_count(s1, s1, s1_cubed) == 0
    assert ctx.hall_number(s1, s1, s1_cubed) == 0
    assert _pair_loop_count(ctx, s1, s1, s1_cubed) == 21
    dims = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]
    reps = [r for d in dims for r in ctx.table(d).representatives()]
    for m, n, l in itertools.product(reps, repeat=3):
        if tuple(a + b for a, b in zip(m.dims, n.dims)) != l.dims:
            assert ctx.exact_sequence_count(m, n, l) == 0, (m, n, l)


# -- subrepresentations against brute force -------------------------------


def _reference_subreps(ctx, rep, sub_dims):
    """Counter of (sub label, quotient label) over every tuple of
    subspaces, invariance decided by ``mat_vec`` and ``residue``; both
    matrices read off the coordinates of M v in the basis B + (e_c, c off
    the pivots of B), from its ``mat_inverse``."""
    F = field(ctx.q)
    arrows = list(zip(ctx.quiver.arrow_index, rep.mats))
    quot_dims = tuple(d - k for d, k in zip(rep.dims, sub_dims))
    out = Counter()
    for bases in itertools.product(
        *[subspaces(ctx.q, d, k) for d, k in zip(rep.dims, sub_dims)]
    ):
        pivots = [tuple(row.index(1) for row in B) for B in bases]
        if any(
            any(residue(F, bases[t], pivots[t], mat_vec(F, m, b)))
            for (s, t), m in arrows
            for b in bases[s]
        ):
            continue
        full = [
            B + tuple(tuple(int(c == j) for j in range(d)) for c in range(d) if c not in P)
            for B, P, d in zip(bases, pivots, rep.dims)
        ]
        inverses = [mat_inverse(F, f) for f in full]
        sub_mats, quot_mats = [], []
        for (s, t), m in arrows:
            # column j: the coordinates x of M full_s[j], x full_t = M full_s[j]
            cols = [
                mat_mul(F, (mat_vec(F, m, v),), inverses[t], cols=rep.dims[t])[0]
                for v in full[s]
            ]
            ks, kt = sub_dims[s], sub_dims[t]
            sub_mats.append(tuple(tuple(col[r] for col in cols[:ks]) for r in range(kt)))
            quot_mats.append(
                tuple(tuple(col[r] for col in cols[ks:]) for r in range(kt, rep.dims[t]))
            )
        out[
            ctx.table(sub_dims).label_of[tuple(sub_mats)],
            ctx.table(quot_dims).label_of[tuple(quot_mats)],
        ] += 1
    return out


SUBREP_CASES = (
    [("jordan", jordan_quiver(), 2, (d,)) for d in (1, 2, 3)]
    + [("jordan", jordan_quiver(), 3, (d,)) for d in (1, 2)]
    + [("kronecker", KRONECKER, 2, d) for d in ((1, 1), (1, 2), (2, 1), (2, 2))]
    + [("kronecker", KRONECKER, 3, d) for d in ((1, 1), (1, 2), (2, 1))]
    + [("a3-sink", A3_SINK, 2, d) for d in ((1, 1, 1), (1, 2, 1))]
    + [("a3-sink", A3_SINK, 3, d) for d in ((1, 1, 1), (1, 2, 1))]
)


@pytest.mark.parametrize(
    "quiver, q, dims",
    [case[1:] for case in SUBREP_CASES],
    ids=[f"{name}-q{q}-{','.join(map(str, d))}" for name, _, q, d in SUBREP_CASES],
)
def test_subrep_data_matches_brute_force(quiver, q, dims):
    ctx = HallContext(quiver, q)
    for rep in ctx.table(dims).representatives():
        for sub_dims in itertools.product(*[range(d + 1) for d in dims]):
            expected = _reference_subreps(ctx, rep, sub_dims)
            assert Counter(ctx.subrep_data(rep, sub_dims)) == expected, (rep, sub_dims)


def test_subspace_data_is_built_once_and_freed_with_its_context(monkeypatch):
    from quiverhecke import hall

    calls = Counter()

    def counted(q, n, k):
        calls[n, k] += 1
        return subspaces(q, n, k)

    monkeypatch.setattr(hall, "subspaces", counted)
    ctx = HallContext(a2_quiver(), 3)
    reps = [r for dims in A2_DIMS for r in ctx.table(dims).representatives()]
    for m, n, l in itertools.product(reps, repeat=3):
        ctx.hall_number(m, n, l)
    assert set(calls.values()) == {1}
    assert calls.keys() == ctx._subspace_data.keys()
    assert all(
        len(data) == subspace_count(3, d, k) for (d, k), data in ctx._subspace_data.items()
    )
    ref = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert ref() is None


def test_exact_sequence_count_reads_no_subspace_data(monkeypatch):
    # Riedtmann's check stays independent: with the builder of the
    # subspace data refusing, the oracle still gives F |Aut M| |Aut N|
    q = 3
    ref = HallContext(a2_quiver(), q)
    expected = {
        (m, n, l): ref.hall_number(m, n, l) * ref.aut_order(m) * ref.aut_order(n)
        for m, n, l in _triples(ref, SUITE_DIM_PAIRS)
    }

    def refuse(self, d, k):
        raise RuntimeError("the subspace data was read")

    monkeypatch.setattr(HallContext, "_vertex_subspaces", refuse)
    ctx = HallContext(a2_quiver(), q)
    for (m, n, l), count in expected.items():
        assert ctx.exact_sequence_count(m, n, l) == count
    with pytest.raises(RuntimeError, match="the subspace data was read"):
        ctx.hall_number(*next(iter(expected)))


CORRUPT_IMAGES = """
from quiverhecke import hall

right = hall.mat_vec


def corrupted(F, A, v):
    # one added to the first entry of every nonzero image M b
    y = right(F, A, v)
    return (F.ADD[y[0]][1],) + y[1:] if any(y) else y
"""


def test_corrupted_images_fail_verify_hall(capsys, monkeypatch):
    from quiverhecke import cli, hall

    scope = {}
    exec(CORRUPT_IMAGES, scope)
    monkeypatch.setattr(hall, "mat_vec", scope["corrupted"])
    assert cli.main(["verify", "hall", "--q", "3", "--format", "text"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(ln.startswith("FAIL hall-exact-sequence-count") for ln in lines)


def test_corrupted_images_fail_verify_hall_under_optimize():
    code = CORRUPT_IMAGES + (
        "import sys\n"
        "from quiverhecke import cli\n"
        "hall.mat_vec = corrupted\n"
        "print(sys.flags.optimize)\n"
        "sys.exit(cli.main(['verify', 'hall', '--q', '3', '--format', 'text']))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 1, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "1"
    assert any(ln.startswith("FAIL hall-exact-sequence-count") for ln in lines)

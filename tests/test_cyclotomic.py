import os
import random
import subprocess
import sys
import time
from collections import Counter
from math import factorial
from pathlib import Path

import pytest

from quiverhecke.cyclotomic import (
    CycloContext,
    _action_rows,
    cyclotomic_basis,
    cyclotomic_polynomial,
    expected_rank,
    graded_rank_polynomial,
    highest_weight_params,
    ideal_stability_check,
    minimal_sl2_dimension_ledger,
    reduced_cyclotomic_graded_dims,
    sl2_iso_check,
    spanning_rank,
    verify_rank,
    weight_space_dims_fock_check,
)
from quiverhecke.coxeter import poincare_polynomial
from quiverhecke.klr import linear_quiver, make_klr, single_vertex_quiver
from quiverhecke.laurent import Laurent
from quiverhecke.linalg import PRIME
from quiverhecke.nilhecke import NilHeckeElement
from quiverhecke.polyring import MPoly


# -- reduction ------------------------------------------------------------


def test_reduction_example_one_strand():
    # modulo x^2 + z1 x + z2 the monomial x^2 becomes -z1 x - z2
    ctx = CycloContext(2, 1)
    params = highest_weight_params(2)
    x2 = MPoly(1, params, {(2, 0, 0): 1})
    got = ctx.reduce(x2)
    expected = MPoly(1, params, {(1, 1, 0): -1, (0, 0, 1): -1})
    assert got == expected


def test_reduction_rules_reduce_to_zero():
    for n, i in [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3)]:
        ctx = CycloContext(n, i)
        for r in ctx.rules:
            assert ctx.reduce(r).is_zero()


def test_reduction_fixes_normal_forms():
    ctx = CycloContext(3, 2)
    for a in ctx.module_basis():
        p = MPoly(2, ctx.params, {a + (0, 0, 0): 1})
        assert ctx.reduce(p) == p


def test_reduction_is_linear_over_z():
    rng = random.Random(5)
    ctx = CycloContext(3, 2)
    params = ctx.params
    for _ in range(10):
        terms = {}
        for _ in range(4):
            e = tuple(rng.randrange(5) for _ in range(2)) + tuple(
                rng.randrange(2) for _ in range(3)
            )
            terms[e] = terms.get(e, 0) + rng.randint(-3, 3)
        p = MPoly(2, params, terms)
        q = MPoly(2, params, {e: 2 * c for e, c in terms.items()})
        assert ctx.reduce(q) == ctx.reduce(p) + ctx.reduce(p)


def rewrite_reduce(ctx, p):
    """The reference normal form: the rewrite loop that subtracts x^f r_j
    at the violating term whose reversed x-exponents are largest, until
    no term violates a bound a_j <= n-j."""
    while True:
        best = None
        for exps, c in p.terms.items():
            for j in range(len(ctx.rules), 0, -1):
                if exps[j - 1] >= ctx.n - j + 1:
                    key = exps[ctx.i - 1 :: -1]
                    if best is None or key > best[0]:
                        best = (key, exps, c, j)
                    break
        if best is None:
            return p
        _, exps, c, j = best
        cof = list(exps)
        cof[j - 1] -= ctx.n - j + 1
        p = p - MPoly(ctx.i, ctx.params, {tuple(cof): c}) * ctx.rules[j - 1]


ORACLE_SHAPES = [(n, i) for n in range(5) for i in range(1, n + 2)] + [(5, 3)]


@pytest.mark.parametrize("generic", [True, False])
@pytest.mark.parametrize("n,i", ORACLE_SHAPES)
def test_reduction_matches_the_rewrite_loop(n, i, generic):
    # seeded random polynomials, over the parameter tail (generic z) or
    # at integer z, up to twice the bounds in each x exponent
    rng = random.Random(1000 * n + 10 * i + generic)
    z = None if generic else tuple(rng.randint(-4, 4) for _ in range(n))
    ctx = CycloContext(n, i, z_values=z)
    for _ in range(6):
        terms = {}
        for _ in range(5):
            e = tuple(rng.randrange(2 * (n - j) + 3) for j in range(1, i + 1))
            e += tuple(rng.randrange(2) for _ in ctx.params)
            terms[e] = rng.randint(-3, 3)
        p = MPoly(i, ctx.params, terms)
        assert ctx.reduce(p) == rewrite_reduce(ctx, p)


def test_deep_reduction_matches_the_rewrite_loop():
    # the rewrite chain of a high power is longer than Python's recursion
    # limit: x_1^1200 on C_1(1) takes 1200 steps; and a degree-20
    # polynomial on C_3(3) at integer z
    ctx = CycloContext(1, 1)
    p = MPoly(1, ctx.params, {(1200, 0): 1})
    assert ctx.reduce(p) == rewrite_reduce(ctx, p) == MPoly(1, ctx.params, {(0, 1200): 1})
    ctx = CycloContext(3, 3, z_values=(2, -3, 1))
    p = MPoly(3, (), {(20, 10, 3): 1, (6, 20, 1): -2, (1, 2, 20): 3})
    assert ctx.reduce(p) == rewrite_reduce(ctx, p)


def test_ranks_at_a_seeded_z():
    # every spanning_rank(n, i, z) with n <= 4, i <= n + 2, pinned
    rng = random.Random(34)
    ranks = []
    for n in range(5):
        z = tuple(rng.randint(-5, 5) for _ in range(n))
        ranks.append([spanning_rank(n, i, z) for i in range(n + 3)])
    assert ranks == [
        [1, 0, 0],
        [1, 1, 0, 0],
        [1, 2, 4, 0, 0],
        [1, 3, 12, 36, 0, 0],
        [1, 4, 24, 144, 576, 0, 0],
    ]


@pytest.mark.parametrize("n,i", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_action_rows_are_the_operators(n, i):
    # row k holds the matrix of the k-th spanning operator x^a T_w modulo
    # PRIME, entry (r, c) under a key with r = key // d % d, c = key % d;
    # its column c is the rewrite loop's normal form of x^a d_w(x^c)
    rng = random.Random(10 * n + i)
    ctx = CycloContext(n, i, z_values=tuple(rng.randint(-5, 5) for _ in range(n)))
    basis = ctx.module_basis()
    d = len(basis)
    rows = list(_action_rows(ctx))
    assert len(rows) == len(ctx.spanning_set())
    for (a, w), row in zip(ctx.spanning_set(), rows):
        got = {(k // d % d, k % d): v % PRIME for k, v in row.items() if v % PRIME}
        expected = {}
        for c, b in enumerate(basis):
            image = MPoly(i, (), {a: 1}) * MPoly(i, (), {b: 1}).demazure_perm(w)
            for e, v in rewrite_reduce(ctx, image).terms.items():
                if v % PRIME:
                    expected[basis.index(e), c] = v % PRIME
        assert got == expected


def test_zero_algebra_above_the_weight():
    for n, i in [(0, 1), (1, 2), (2, 3), (3, 5)]:
        ctx = CycloContext(n, i)
        assert ctx.is_zero_algebra
        assert ctx.reduce(MPoly.one(i, ctx.params)).is_zero()
        assert cyclotomic_basis(n, i) == []


# -- spanning set and ranks ----------------------------------------------


def test_basis_counts():
    for n in range(5):
        for i in range(n + 1):
            basis = cyclotomic_basis(n, i)
            assert len(basis) == factorial(i) * factorial(n) // factorial(n - i)
            for el in basis:
                assert isinstance(el, NilHeckeElement)
                assert el.params == highest_weight_params(n)


def test_basis_zero_strands_is_unit():
    basis = cyclotomic_basis(3, 0)
    assert len(basis) == 1
    assert basis[0] == NilHeckeElement.one(0, highest_weight_params(3))


@pytest.mark.parametrize("n,i", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_rank_examples(n, i):
    # the z = 0 rank certifies; a generic specialization has the same rank
    rng = random.Random(100 * n + i)
    assert verify_rank(n, i) == expected_rank(n, i)
    z = tuple(rng.randint(-5, 5) for _ in range(n))
    assert spanning_rank(n, i, z) == expected_rank(n, i)


def test_rank_full_range():
    for n in range(4):
        for i in range(n + 2):
            assert verify_rank(n, i) == expected_rank(n, i)


def test_suite_computes_each_rank_once(monkeypatch, capsys):
    # cyclotomic-iso reuses the ranks that cyclotomic-ranks certified in
    # the same run, one z = 0 rank per (n, i); the memo lives for one run
    # only
    from quiverhecke import cli, cyclotomic

    calls = []
    original = cyclotomic.spanning_rank

    def counting(n, i, z):
        calls.append((n, i, z))
        return original(n, i, z)

    monkeypatch.setattr(cyclotomic, "spanning_rank", counting)
    for _ in range(2):
        calls.clear()
        assert cli.main(["verify", "cyclotomic", "--n", "3"]) == 0
        assert len(calls) == len(set(calls)) == 14
        assert all(z == (0,) * n for n, _, z in calls)
    capsys.readouterr()


def run_python(code, *flags):
    """Run ``code`` in a fresh interpreter on src/; its stdout, split."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


def test_wrong_rank_raises_under_optimize():
    # a rank mismatch must fail under `python -O`, which strips asserts
    code = (
        "import sys\n"
        "import quiverhecke.cyclotomic as cyc\n"
        "cyc.expected_rank = lambda n, i: 5\n"
        "try:\n"
        "    cyc.verify_rank(2, 1)\n"
        "except ArithmeticError:\n"
        "    print('raised', sys.flags.optimize)\n"
    )
    assert run_python(code, "-O") == ["raised", "1"]


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_perturbed_generator_column_fails_the_rank(flags):
    # negative control: T_1 has one nonzero column on the module of C_2(2),
    # d_1(x_1) = -1; emptying it lowers the rank from 4 to 2, and
    # verify_rank must raise, under -O too.  (On C_2(3) no single zeroed
    # column of T_1 changes the rank: the perturbed operators still span
    # 12 dimensions.)
    code = (
        "import sys\n"
        "import quiverhecke.cyclotomic as cyc\n"
        "right, emptied = cyc._d_column, []\n"
        "def perturbed(word, e):\n"
        "    column = right(word, e)\n"
        "    if word == (1,) and column:\n"
        "        emptied.append(e)\n"
        "        return ()\n"
        "    return column\n"
        "cyc._d_column = perturbed\n"
        "print(cyc.spanning_rank(2, 2, (0, 0)), emptied)\n"
        "try:\n"
        "    cyc.verify_rank(2, 2)\n"
        "except ArithmeticError:\n"
        "    print('raised', sys.flags.optimize)\n"
    )
    assert run_python(code, *flags) == ["2", "[(1,", "0)]", "raised", str(len(flags))]


def test_import_leaves_numpy_out():
    code = "import sys, quiverhecke.cyclotomic\nprint('numpy' in sys.modules)\n"
    assert run_python(code) == ["False"]


def test_rank_size_guard(monkeypatch):
    # the guard refuses a module of rank above 120 before building
    # anything: C_4(6) and C_6(6) as well as the small i shapes C_1(121),
    # C_2(16) (16 s and 1.2 GB at a random z), C_3(7), C_3(9), C_2(30)
    # and C_1(1000)
    from quiverhecke import cyclotomic

    monkeypatch.setattr(cyclotomic, "_action_rows", lambda ctx: pytest.fail("built"))
    monkeypatch.setattr(cyclotomic, "CycloContext", lambda *args, **kw: pytest.fail("built"))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="C_4\\(6\\) acts on a module of rank 360"):
        verify_rank(6, 4)
    with pytest.raises(ValueError, match="C_6\\(6\\) acts on a module of rank 720"):
        spanning_rank(6, 6, (0,) * 6)
    for n, i in [(121, 1), (16, 2), (7, 3), (9, 3), (30, 2), (1000, 1)]:
        with pytest.raises(ValueError, match="above the limit of 120"):
            spanning_rank(n, i, (0,) * n)
    assert time.perf_counter() - start < 5
    monkeypatch.undo()
    assert verify_rank(6, 7) == 0
    # the largest admitted modules have rank 120: C_1(120) and C_5(5)
    assert spanning_rank(120, 1, (0,) * 120) == 120
    assert expected_rank(5, 5) // 120 == cyclotomic._MAX_MODULE_RANK


@pytest.mark.parametrize("n, i, expected", [(5, 3, 360), (5, 4, 2880)])
def test_rank_at_five(n, i, expected):
    # 360 and 2880 operators on modules of rank 60 and 120
    assert verify_rank(n, i) == expected_rank(n, i) == expected


def test_input_checks_raise_under_optimize():
    # the input checks, the reduction chain and the size guard must not
    # be assertions, which `python -O` strips
    code = (
        "import sys\n"
        "import quiverhecke.cyclotomic as cyc\n"
        "from quiverhecke.polyring import MPoly\n"
        "def attempt(make):\n"
        "    try:\n"
        "        make()\n"
        "    except (ValueError, ArithmeticError) as exc:\n"
        "        print(type(exc).__name__)\n"
        "    else:\n"
        "        print('returned')\n"
        "attempt(lambda: cyc.CycloContext(-1, 2))\n"
        "attempt(lambda: cyc.CycloContext(2, -1))\n"
        "attempt(lambda: cyc.CycloContext(2, 1, z_values=(0,)))\n"
        "attempt(lambda: cyc.CycloContext(2, 1).reduce(MPoly.x(1, 1)))\n"
        "attempt(lambda: cyc.spanning_rank(2, 1, None))\n"
        "attempt(lambda: cyc.verify_rank(6, 4))\n"
        "attempt(lambda: cyc.sl2_iso_check(2, 3))\n"
        "attempt(lambda: cyc.cyclotomic_polynomial(-1, 1))\n"
        "attempt(lambda: cyc.cyclotomic_polynomial(2, 0))\n"
        "attempt(lambda: cyc.cyclotomic_polynomial(2, 1, z_values=(0,)))\n"
        "right = cyc.cyclotomic_polynomial\n"
        "cyc.cyclotomic_polynomial = lambda *args: right(*args) * 2\n"
        "attempt(lambda: cyc.CycloContext(1, 2))\n"
        "import itertools, random\n"
        "from quiverhecke.klr import QMatrix, linear_quiver, make_klr\n"
        "from quiverhecke.klr import single_vertex_quiver\n"
        "attempt(lambda: cyc.minimal_sl2_dimension_ledger(-1))\n"
        "attempt(lambda: cyc.weight_space_dims_fock_check(0, 2))\n"
        "attempt(lambda: cyc.weight_space_dims_fock_check(2, -1))\n"
        "attempt(lambda: cyc.ideal_stability_check(2, 0, random.Random(0)))\n"
        "ctx = make_klr(single_vertex_quiver(), 2)\n"
        "attempt(lambda: cyc.reduced_cyclotomic_graded_dims(ctx, {1: -1}, 6))\n"
        "q = QMatrix((1, 2), {(1, 2): {(1, 0, 1): -1, (0, 1, 1): 1},\n"
        "                     (2, 1): {(0, 1, 1): -1, (1, 0, 1): 1}}, ('t',))\n"
        "tctx = make_klr(linear_quiver(2), 1, q)\n"
        "attempt(lambda: cyc.reduced_cyclotomic_graded_dims(tctx, {1: 1}, 6))\n"
        "# a word degree that alternates breaks the homogeneity of the keys\n"
        "count = itertools.count()\n"
        "right_degree = ctx.word_degree\n"
        "ctx.word_degree = lambda w, v: right_degree(w, v) + 2 * (next(count) % 2)\n"
        "attempt(lambda: cyc.reduced_cyclotomic_graded_dims(ctx, {1: 1}, 6))\n"
        "print(sys.flags.optimize)\n"
    )
    assert run_python(code, "-O") == (
        ["ValueError"] * 10 + ["ArithmeticError"] + ["ValueError"] * 6
        + ["ArithmeticError", "1"]
    )


def test_wrong_grading_raises_under_optimize():
    # a wrong graded rank must fail sl2_iso_check under `python -O` too
    code = (
        "import sys\n"
        "import quiverhecke.cyclotomic as cyc\n"
        "from quiverhecke.laurent import Laurent\n"
        "right = cyc.graded_rank_polynomial\n"
        "cyc.graded_rank_polynomial = lambda n, i: right(n, i) * Laurent.gen(2)\n"
        "try:\n"
        "    cyc.sl2_iso_check(2, 1)\n"
        "except ArithmeticError:\n"
        "    print('raised', sys.flags.optimize)\n"
    )
    assert run_python(code, "-O") == ["raised", "1"]


def test_reduced_rank_matches_generic():
    # z = 0 is included in verify_rank; make the check explicit
    for n, i in [(2, 2), (3, 2), (4, 2)]:
        assert spanning_rank(n, i, (0,) * n) == expected_rank(n, i)


# -- the classical-subalgebra isomorphism --------------------------------


@pytest.mark.parametrize("n,i", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
def test_sl2_iso_check(n, i):
    assert sl2_iso_check(n, i)


def test_graded_rank_values():
    assert graded_rank_polynomial(1, 1).substitute(1) == 1
    assert graded_rank_polynomial(2, 1).substitute(1) == 2
    assert graded_rank_polynomial(3, 2).substitute(1) == 12
    # positivity of the graded rank
    for n in range(5):
        for i in range(n + 1):
            poly = graded_rank_polynomial(n, i)
            assert all(c > 0 for c in poly.terms.values())


def series_graded_rank(n, i):
    """The graded rank as poincare_i(v^-2) * prod_{k=n-i+1}^{n} [k]_{v^2},
    with [k]_{v^2} = 1 + v^2 + ... + v^{2k-2}: the enumeration of S_i
    and geometric sums, no quantum binomial."""
    out = Laurent({-2 * k: c for k, c in poincare_polynomial(i).terms.items()})
    for k in range(n - i + 1, n + 1):
        out = out * Laurent({2 * j: 1 for j in range(k)})
    return out


def test_graded_rank_matches_the_series_construction():
    for n in range(7):
        for i in range(n + 1):
            assert graded_rank_polynomial(n, i) == series_graded_rank(n, i), (n, i)


# -- dimension ledger -----------------------------------------------------


def test_dimension_ledger():
    for n in range(7):
        rows = minimal_sl2_dimension_ledger(n)
        assert len(rows) == n + 1
        for row in rows:
            assert row["defect"] == row["weight"] == n - 2 * row["strands"]
            assert row["simple_dim"] == factorial(row["strands"])
        assert rows[0]["ef"] == n and rows[0]["fe"] == 0


def test_ledger_examples():
    rows = minimal_sl2_dimension_ledger(2)
    assert rows[1]["simple_dim"] == 1
    rows = minimal_sl2_dimension_ledger(3)
    assert rows[1]["ef"] - rows[1]["fe"] == 1


# -- weight spaces vs partitions -----------------------------------------


def test_weight_classes_p2_n2():
    rows = weight_space_dims_fock_check(2, 2)
    assert len(rows) == 1
    assert rows[0]["dim"] == 2


def test_weight_classes_p3_n1():
    rows = weight_space_dims_fock_check(3, 1)
    assert len(rows) == 1


def test_weight_classes_p3_n4():
    rows = weight_space_dims_fock_check(3, 4)
    hit = [r for r in rows if [3, 1] in r["partitions"]]
    assert len(hit) == 1
    assert hit[0]["content"] == [1, 1, 2]


def test_weight_classes_count_partitions():
    from quiverhecke.fock import all_partitions

    for p in (2, 3, 5):
        for n in range(7):
            rows = weight_space_dims_fock_check(p, n)
            assert sum(r["dim"] for r in rows) == len(list(all_partitions(n)))


# -- ideal stability ------------------------------------------------------


@pytest.mark.parametrize("n,i", [(2, 1), (2, 2), (3, 2), (1, 2)])
def test_ideal_stability(n, i):
    assert ideal_stability_check(n, i, random.Random(n + 7 * i), trials=12)


def test_broken_ideal_stability_raises_under_optimize():
    # with no reduction the multiples of g survive; this must raise
    # under `python -O` too
    code = (
        "import random, sys\n"
        "import quiverhecke.cyclotomic as cyc\n"
        "cyc.CycloContext.reduce = lambda self, p: p\n"
        "try:\n"
        "    print('returned', cyc.ideal_stability_check(2, 1, random.Random(0)))\n"
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


# -- brute-force general quivers -----------------------------------------


def test_brute_force_single_vertex_matches_normal_form():
    # graded dims of the reduced quotient match the normal-form degrees
    for n, i in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        ctx = make_klr(single_vertex_quiver(), i)
        got = reduced_cyclotomic_graded_dims(ctx, {1: n}, 10)
        cyc = CycloContext(n, i)
        expected = Counter()
        for a, w in cyc.spanning_set():
            expected[2 * sum(a) - 2 * w.length()] += 1
        assert got == {d: c for d, c in expected.items() if d <= 10}
        assert sum(got.values()) == expected_rank(n, i)


def test_brute_force_one_strand_a2():
    ctx = make_klr(linear_quiver(2), 1)
    assert reduced_cyclotomic_graded_dims(ctx, {1: 1, 2: 2}, 6) == {
        0: 2,
        2: 1,
    }
    assert reduced_cyclotomic_graded_dims(ctx, {1: 0, 2: 0}, 6) == {}


def test_brute_force_a2_two_strands():
    ctx = make_klr(linear_quiver(2), 2)
    got = reduced_cyclotomic_graded_dims(ctx, {1: 1, 2: 0}, 6)
    assert sum(got.values()) == 1


def test_brute_force_bound_errors():
    ctx = make_klr(single_vertex_quiver(), 3)
    with pytest.raises(ValueError):
        reduced_cyclotomic_graded_dims(ctx, {1: 1}, 6)


# -- the defining polynomial ---------------------------------------------


def test_cyclotomic_polynomial_forms():
    params = highest_weight_params(2)
    g = cyclotomic_polynomial(2, 1)
    assert g == MPoly(1, params, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 0, 1): 1})
    gs = cyclotomic_polynomial(2, 1, z_values=(3, -1))
    assert gs == MPoly(1, (), {(2,): 1, (1,): 3, (0,): -1})

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
    cyclotomic_basis,
    cyclotomic_polynomial,
    expected_rank,
    graded_rank_polynomial,
    highest_weight_params,
    ideal_stability_check,
    minimal_sl2_dimension_ledger,
    reduced_cyclotomic_graded_dims,
    sl2_iso_check,
    sl2_report,
    spanning_rank,
    verify_rank,
    weight_space_dims_fock_check,
)
from quiverhecke.klr import linear_quiver, make_klr, single_vertex_quiver
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
    rng = random.Random(100 * n + i)
    assert verify_rank(n, i, rng=rng) == expected_rank(n, i)


def test_rank_full_range():
    rng = random.Random(12)
    for n in range(4):
        for i in range(n + 2):
            assert verify_rank(n, i, rng=rng, points=2) == expected_rank(n, i)


def test_suite_computes_each_rank_once(monkeypatch, capsys):
    # cyclotomic-iso reuses the ranks that cyclotomic-ranks certified in
    # the same run (82 spanning_rank calls, 20 of them repeats, before);
    # the memo lives for one run only
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
        assert len(calls) == len(set(calls)) == 62
    capsys.readouterr()


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
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["raised", "1"]


def test_rank_size_guard():
    # C_5(5) would need a 14400 x 14400 rank matrix (1.7 GB as int64);
    # the guard refuses it before building anything
    start = time.perf_counter()
    with pytest.raises(ValueError, match="14400 x 14400"):
        verify_rank(5, 5)
    with pytest.raises(ValueError, match="2880 x 14400"):
        spanning_rank(5, 4, (0,) * 5)
    assert time.perf_counter() - start < 5
    # the largest admitted certificate, 360 x 3600
    assert spanning_rank(5, 3, (0,) * 5) == expected_rank(5, 3) == 360
    assert verify_rank(6, 7) == 0


def test_input_checks_raise_under_optimize():
    # the input checks, the reduction chain and the size guard must not
    # be assertions, which `python -O` strips
    code = (
        "import sys\n"
        "import quiverhecke.cyclotomic as cyc\n"
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
        "attempt(lambda: cyc._action_matrices(cyc.CycloContext(2, 1)))\n"
        "attempt(lambda: cyc.verify_rank(5, 5))\n"
        "right = cyc.cyclotomic_polynomial\n"
        "cyc.cyclotomic_polynomial = lambda *args: right(*args) * 2\n"
        "attempt(lambda: cyc.CycloContext(1, 2))\n"
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
    assert res.stdout.split() == ["ValueError"] * 5 + ["ArithmeticError", "1"]


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
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["raised", "1"]


def test_reduced_rank_matches_generic():
    # z = 0 is included in verify_rank; make the check explicit
    for n, i in [(2, 2), (3, 2), (4, 2)]:
        assert spanning_rank(n, i, (0,) * n) == expected_rank(n, i)


# -- the classical-subalgebra isomorphism --------------------------------


@pytest.mark.parametrize("n,i", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
def test_sl2_iso_check(n, i):
    assert sl2_iso_check(n, i, rng=random.Random(n * 10 + i))


def test_graded_rank_values():
    assert graded_rank_polynomial(1, 1).substitute(1) == 1
    assert graded_rank_polynomial(2, 1).substitute(1) == 2
    assert graded_rank_polynomial(3, 2).substitute(1) == 12
    # positivity of the graded rank
    for n in range(5):
        for i in range(n + 1):
            poly = graded_rank_polynomial(n, i)
            assert all(c > 0 for c in poly.terms.values())


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


def test_sl2_report_is_json_ready():
    import json

    report = sl2_report(3, rng=random.Random(0))
    text = json.dumps(report, sort_keys=True)
    assert json.loads(text) == report
    assert report["rank_verified"]


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
    g = cyclotomic_polynomial(2, 1, params)
    assert g == MPoly(1, params, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 0, 1): 1})
    gs = cyclotomic_polynomial(2, 1, z_values=(3, -1))
    assert gs == MPoly(1, (), {(2,): 1, (1,): 3, (0,): -1})

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quiverhecke.coxeter import Permutation
from quiverhecke.polyring import (
    MPoly,
    divide_exact,
    divide_exact_by_x_difference,
    elementary_symmetric,
    exponent_tuples,
    schubert_basis_element,
    schubert_coordinates,
    staircase_monomial,
    try_divide_by_x_difference,
)


def x(i, n):
    return MPoly.x(i, n)


def random_poly(rng, n, max_deg=3, max_terms=5):
    p = MPoly.zero(n)
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(0, max_deg + 1) for _ in range(n))
        p = p + MPoly(n, (), {exps: rng.randrange(-4, 5) or 1})
    return p


def test_ring_arithmetic():
    n = 3
    p = x(1, n) + 2 * x(2, n)
    q = x(1, n) - x(3, n)
    assert (p + q) - q == p
    assert p * q == q * p
    assert (p * q) * p == p * (q * p)
    assert p * MPoly.one(n) == p
    assert (p - p).is_zero()


def test_action_is_group_action():
    rng = random.Random(0)
    n = 4
    for _ in range(20):
        p = random_poly(rng, n)
        v = Permutation(rng.sample(range(1, n + 1), n))
        w = Permutation(rng.sample(range(1, n + 1), n))
        assert p.act(w).act(v) == p.act(v * w)


def test_action_on_variables():
    n = 3
    w = Permutation([2, 3, 1])
    # X_i -> X_{w(i)}
    assert x(1, n).act(w) == x(2, n)
    assert x(2, n).act(w) == x(3, n)
    assert x(3, n).act(w) == x(1, n)


def test_demazure_basic_example():
    n = 2
    # d_1(X_1) = (X_1 - X_2)/(X_2 - X_1) = -1
    assert x(1, n).demazure(1) == MPoly.const(-1, n)
    assert x(2, n).demazure(1) == MPoly.one(n)
    assert (x(1, n) * x(2, n)).demazure(1).is_zero()


def test_demazure_square_zero():
    rng = random.Random(1)
    for n in (2, 3, 4):
        for _ in range(10):
            p = random_poly(rng, n)
            for i in range(1, n):
                assert p.demazure(i).demazure(i).is_zero()


def test_demazure_commutation_and_braid():
    rng = random.Random(2)
    n = 4
    for _ in range(10):
        p = random_poly(rng, n)
        # distant commutation
        assert p.demazure(3).demazure(1) == p.demazure(1).demazure(3)
        # braid
        for i in (1, 2):
            lhs = p.demazure_word((i, i + 1, i))
            rhs = p.demazure_word((i + 1, i, i + 1))
            assert lhs == rhs


def test_demazure_leibniz():
    rng = random.Random(3)
    n = 3
    for _ in range(10):
        p = random_poly(rng, n)
        q = random_poly(rng, n)
        for i in (1, 2):
            lhs = (p * q).demazure(i)
            rhs = p.demazure(i) * q + p.act_simple(i) * q.demazure(i)
            assert lhs == rhs


def test_image_in_kernel():
    rng = random.Random(4)
    n = 3
    for _ in range(10):
        p = random_poly(rng, n)
        for i in (1, 2):
            d = p.demazure(i)
            assert d.act_simple(i) == d  # s_i-invariant
            assert d.demazure(i).is_zero()


def test_word_independence_of_demazure_w():
    # d_w only depends on w, not on the chosen reduced word
    n = 3
    w0 = Permutation.longest(n)
    rng = random.Random(5)
    for _ in range(10):
        p = random_poly(rng, n)
        assert p.demazure_word((1, 2, 1)) == p.demazure_word((2, 1, 2))
        assert p.demazure_perm(w0) == p.demazure_word((2, 1, 2))


def test_longest_demazure_on_staircase():
    for n in (2, 3, 4, 5):
        w0 = Permutation.longest(n)
        out = staircase_monomial(n).demazure_perm(w0)
        assert out == MPoly.one(n)


def test_nonreduced_word_annihilates():
    n = 3
    p = staircase_monomial(n) * staircase_monomial(n)
    assert p.demazure_word((1, 1)).is_zero()
    assert p.demazure_word((1, 2, 1, 1)).is_zero()


def test_schubert_basis_low_rank():
    n = 2
    e = Permutation.identity(2)
    s1 = Permutation.simple(1, 2)
    assert schubert_basis_element(e, n) == x(2, n)
    assert schubert_basis_element(s1, n) == MPoly.one(n)


def test_schubert_coordinates_round_trip():
    rng = random.Random(6)
    n = 3
    for _ in range(100):
        # random symmetric-combination of Schubert elements
        target = MPoly.zero(n)
        chosen = {}
        for w in Permutation.all(n):
            if rng.random() < 0.5:
                continue
            coeff = MPoly.const(rng.randrange(-3, 4), n)
            if rng.random() < 0.4:
                coeff = coeff + elementary_symmetric(1, n) ** rng.randrange(1, 3)
            if coeff.is_zero():
                continue
            chosen[w] = coeff
            target = target + coeff * schubert_basis_element(w, n)
        coords = schubert_coordinates(target, n)
        assert coords == {w: c for w, c in chosen.items() if not c.is_zero()}


def test_elementary_symmetric_identity():
    # prod_j (t - X_j) evaluated at t = X_1 vanishes
    n = 4
    acc = MPoly.zero(n)
    for r in range(n + 1):
        sign = -1 if r % 2 else 1
        acc = acc + sign * elementary_symmetric(r, n, ()) * x(1, n) ** (n - r)
    assert acc.is_zero()


def test_elementary_symmetric_in_a_variable_subset():
    # e_r(X_2, X_4) inside 4 variables with one parameter, from its terms
    params = ("z",)
    assert elementary_symmetric(0, 4, params, [2, 4]) == MPoly.one(4, params)
    assert elementary_symmetric(1, 4, params, [2, 4]) == MPoly(
        4, params, {(0, 1, 0, 0, 0): 1, (0, 0, 0, 1, 0): 1}
    )
    assert elementary_symmetric(2, 4, params, [2, 4]) == MPoly(
        4, params, {(0, 1, 0, 1, 0): 1}
    )
    assert elementary_symmetric(3, 4, params, [2, 4]).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exponent_tuples_order(n):
    for max_total in range(6):
        expected = sorted(
            (e for e in itertools.product(range(max_total + 1), repeat=n)
             if sum(e) <= max_total),
            key=lambda e: (sum(e), e),
        )
        assert list(exponent_tuples(n, max_total)) == expected


def test_exact_division_assertion():
    n = 2
    p = x(1, n)  # not divisible by X_2 - X_1
    with pytest.raises(ArithmeticError):
        divide_exact_by_x_difference(p, 2, 1)


def test_inexact_division_raises_under_optimize():
    # the check must survive `python -O`, which strips assert statements
    code = (
        "import sys\n"
        "from quiverhecke.polyring import MPoly, divide_exact_by_x_difference\n"
        "try:\n"
        "    divide_exact_by_x_difference(MPoly.x(1, 2) + 1, 1, 2)\n"
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


def test_input_checks_raise_under_optimize():
    # each bad input raises ValueError, also when `python -O` strips asserts
    code = (
        "import sys\n"
        "from quiverhecke.coxeter import Permutation\n"
        "from quiverhecke.laurent import q_factorial\n"
        "from quiverhecke.polyring import MPoly, try_divide_by_x_difference\n"
        "p = MPoly(2, ('t',), {(1, 0, 1): 1})\n"
        "for call in (\n"
        "    lambda: try_divide_by_x_difference(p, 1, 1),\n"
        "    lambda: try_divide_by_x_difference(p, 1, 3),\n"
        "    lambda: try_divide_by_x_difference(p, 0, 2),\n"
        "    lambda: p.act(Permutation((1, 3, 2))),\n"
        "    lambda: q_factorial(-1),\n"
        "    lambda: p.act_simple(0),\n"
        "    lambda: p.act_simple(2),\n"
        "):\n"
        "    try:\n"
        "        call()\n"
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
    assert res.stdout.split() == ["raised"] * 7 + ["1"]


def test_schubert_checks_raise_under_optimize():
    # a polynomial in more variables than n has no Schubert coordinates,
    # and a wrong basis leaves a residual; both must fail under `-O`
    code = (
        "import sys\n"
        "import quiverhecke.polyring as pr\n"
        "try:\n"
        "    pr.schubert_coordinates(pr.MPoly.x(3, 3), 2)\n"
        "except ArithmeticError as e:\n"
        "    print('symmetric' in str(e))\n"
        "real = pr.schubert_basis_element\n"
        "pr.schubert_basis_element = lambda w, n: real(w, n) * 2\n"
        "try:\n"
        "    pr.schubert_coordinates(pr.MPoly.one(3), 3)\n"
        "except ArithmeticError as e:\n"
        "    print('vanish' in str(e))\n"
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
    assert res.stdout.split() == ["True", "True", "1"]


@pytest.mark.parametrize("params", [(), ("t",), ("q", "t")])
def test_divide_exact_recovers_random_factors(params):
    rng = random.Random(f"divide-{params}")
    for n in (1, 2, 3):
        width = n + len(params)
        for field in (int, Fraction):
            for _ in range(8):
                p, d = (
                    MPoly(n, params, {
                        tuple(rng.randrange(0, 3) for _ in range(width)):
                            random_coeff(rng, field) or 1
                        for _ in range(rng.randrange(1, 5))
                    })
                    for _ in range(2)
                )
                assert divide_exact(p * d, d) == p
                assert divide_exact(p * d, p) == d
                assert divide_exact(MPoly.zero(n, params), d).is_zero()


def test_divide_exact_raises_when_not_divisible():
    n = 2
    diff = x(1, n) - x(2, n)
    assert divide_exact(x(1, n) ** 2 - x(2, n) ** 2, diff) == x(1, n) + x(2, n)
    for p in (x(1, n) + 1, diff * diff + 1, x(2, n) ** 3):
        with pytest.raises(ArithmeticError):
            divide_exact(p, diff)
    # 1/2 is a quotient over Q, not a failure
    assert divide_exact(x(1, n), x(1, n) * 2) == MPoly.const(Fraction(1, 2), n)
    with pytest.raises(ZeroDivisionError):
        divide_exact(x(1, n), MPoly.zero(n))


def random_coeff(rng, field):
    c = rng.randrange(-5, 6)
    return Fraction(c, rng.choice((1, 2, 3))) if field is Fraction else c


def test_closed_form_demazure_matches_division():
    # oracle: d_i(p) = (p - s_i p) / (X_{i+1} - X_i) by exact division
    rng = random.Random(23)
    for n in (2, 3, 4):
        for params in ((), ("z1",), ("q", "t")):
            width = n + len(params)
            for field in (int, Fraction):
                for _ in range(6):
                    terms = {
                        tuple(rng.randrange(0, 4) for _ in range(width)):
                            random_coeff(rng, field)
                        for _ in range(rng.randrange(1, 7))
                    }
                    p = MPoly(n, params, terms)
                    for i in range(1, n):
                        expected = try_divide_by_x_difference(
                            p - p.act_simple(i), i + 1, i
                        )
                        assert expected is not None
                        assert p.demazure(i) == expected


def test_closed_form_division_matches_long_division():
    # oracle: divide_exact by the polynomial X_a - X_b
    rng = random.Random(29)
    for n in (2, 3, 4):
        for params in ((), ("z1",), ("q", "t")):
            width = n + len(params)
            for field in (int, Fraction):
                for _ in range(4):
                    q = MPoly(n, params, {
                        tuple(rng.randrange(0, 4) for _ in range(width)):
                            random_coeff(rng, field)
                        for _ in range(rng.randrange(1, 6))
                    })
                    for a, b in itertools.permutations(range(1, n + 1), 2):
                        diff = MPoly.x(a, n, params) - MPoly.x(b, n, params)
                        p = q * diff
                        assert try_divide_by_x_difference(p, a, b) == q
                        assert divide_exact(p, diff) == q
                        # a product plus one monomial does not divide
                        bad = p + MPoly(n, params, {
                            tuple(rng.randrange(0, 3) for _ in range(width)):
                                random_coeff(rng, field) or 1
                        })
                        assert try_divide_by_x_difference(bad, a, b) is None
                        with pytest.raises(ArithmeticError):
                            divide_exact(bad, diff)
    p = MPoly(2, ("t",), {(1, 0, 1): 1})
    for a, b in ((1, 1), (1, 3), (0, 2)):
        with pytest.raises(ValueError):
            try_divide_by_x_difference(p, a, b)

from math import comb, factorial

import pytest

from quiverhecke.laurent import Laurent, q_binomial, q_factorial, q_integer


def bar(p):
    """The bar involution v -> v^{-1}."""
    return Laurent({-k: c for k, c in p.terms.items()})


def test_q_integer_values():
    assert q_integer(0).is_zero()
    assert q_integer(1) == Laurent.one()
    assert q_integer(2) == Laurent({-1: 1, 1: 1})
    # (v - v^{-1}) [k] = v^k - v^{-k}
    for k in range(1, 9):
        assert Laurent({1: 1, -1: -1}) * q_integer(k) == Laurent({k: 1, -k: -1})


@pytest.mark.parametrize("n", range(9))
def test_q_binomial_times_factorials_is_factorial(n):
    for k in range(n + 1):
        assert q_binomial(n, k) * q_factorial(k) * q_factorial(n - k) == q_factorial(n)


@pytest.mark.parametrize("n", range(9))
def test_q_numbers_are_bar_invariant_and_classical_at_one(n):
    assert bar(q_integer(n)) == q_integer(n)
    assert bar(q_factorial(n)) == q_factorial(n)
    assert q_integer(n).substitute(1) == n
    assert q_factorial(n).substitute(1) == factorial(n)
    for k in range(n + 1):
        assert bar(q_binomial(n, k)) == q_binomial(n, k)
        assert q_binomial(n, k).substitute(1) == comb(n, k)
    assert q_binomial(n, -1).is_zero() and q_binomial(n, n + 1).is_zero()


def test_negative_arguments_are_refused():
    with pytest.raises(ValueError):
        q_integer(-1)
    with pytest.raises(ValueError):
        q_factorial(-2)

import itertools
import os
import subprocess
import sys
from pathlib import Path

from quiverhecke.coxeter import (
    Permutation,
    length_order,
    poincare_polynomial,
    poincare_product_form,
    segments_of_canonical_word,
)
from quiverhecke.laurent import Laurent


def is_identity(w):
    return w.images == tuple(range(1, w.n + 1))


def is_reduced(word, n):
    return Permutation.from_word(word, n).length() == len(word)


def brute_force_length(w):
    """Shortest word length by BFS over generator multiplication."""
    n = w.n
    frontier = {Permutation.identity(n)}
    seen = set(frontier)
    depth = 0
    while True:
        if w in frontier:
            return depth
        depth += 1
        nxt = set()
        for u in frontier:
            for i in range(1, n):
                v = u * Permutation.simple(i, n)
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
        frontier = nxt


def test_length_is_inversion_count():
    for n in (2, 3, 4):
        for w in Permutation.all(n):
            assert w.length() == brute_force_length(w)


def test_composition_convention():
    # (v*w)(i) = v(w(i))
    v = Permutation([2, 3, 1])
    w = Permutation([1, 3, 2])
    vw = v * w
    for i in (1, 2, 3):
        assert vw(i) == v(w(i))


def test_canonical_word_round_trip():
    for n in (2, 3, 4, 5):
        for w in Permutation.all(n):
            word = w.canonical_word()
            assert len(word) == w.length()
            assert Permutation.from_word(word, n) == w


def test_canonical_word_segment_shape():
    # segments are ascending consecutive runs with strictly decreasing tops
    for n in (3, 4, 5):
        for w in Permutation.all(n):
            segs = segments_of_canonical_word(w.canonical_word())
            tops = [s[-1] for s in segs]
            assert tops == sorted(tops, reverse=True)
            for s in segs:
                assert list(s) == list(range(s[0], s[-1] + 1))


def test_longest_element():
    for n in (2, 3, 4, 5, 6):
        w0 = Permutation.longest(n)
        assert w0.length() == n * (n - 1) // 2
        for w in Permutation.all(n) if n <= 4 else []:
            assert (w0 * w.inverse()).length() == w0.length() - w.length()


def test_longest_element_canonical_word_s3():
    assert Permutation.longest(3).canonical_word() == (1, 2, 1)


def test_inverse_and_identity():
    for w in Permutation.all(4):
        assert is_identity(w * w.inverse())
        assert is_identity(w.inverse() * w)


def test_is_reduced():
    assert is_reduced((1, 2, 1), 3)
    assert not is_reduced((1, 1), 3)
    assert is_reduced((2, 1, 2), 3)


def test_poincare_polynomial_matches_product_form():
    for n in range(7):
        assert poincare_polynomial(n) == poincare_product_form(n)


def test_poincare_small_values():
    assert poincare_polynomial(2) == Laurent({0: 1, 1: 1})
    assert poincare_polynomial(3) == Laurent({0: 1, 1: 2, 2: 2, 3: 1})


def test_length_order():
    # all of S_n, by length and then one-line images, built once per n
    assert [w.images for w in length_order(3)] == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)
    ]
    for n in range(5):
        order = length_order(n)
        assert set(order) == set(Permutation.all(n))
        assert [w.length_key() for w in order] == sorted(w.length_key() for w in order)
        assert order is length_order(n)


def test_act_on_list():
    w = Permutation([2, 3, 1])
    assert w.act_on_list(("a", "b", "c")) == ("c", "a", "b")
    # action is compatible with composition
    v = Permutation([1, 3, 2])
    seq = ("p", "q", "r")
    assert (v * w).act_on_list(seq) == v.act_on_list(w.act_on_list(seq))


def test_act_on_list_simple_swap():
    s1 = Permutation.simple(1, 3)
    assert s1.act_on_list((10, 20, 30)) == (20, 10, 30)


def test_invalid_input_raises_under_optimize():
    # `python -O` strips asserts; bad input and a broken canonical-word
    # invariant must still raise
    code = (
        "import sys\n"
        "import quiverhecke.coxeter as cx\n"
        "P = cx.Permutation\n"
        "def attempt(make):\n"
        "    try:\n"
        "        make()\n"
        "        print('returned')\n"
        "    except (ValueError, ArithmeticError) as exc:\n"
        "        print(type(exc).__name__)\n"
        "attempt(lambda: P([1, 1, 3]))\n"
        "attempt(lambda: P([0, 1]))\n"
        "attempt(lambda: P([2, 1]) * P([1, 2, 3]))\n"
        "attempt(lambda: P.simple(0, 3))\n"
        "attempt(lambda: P.simple(3, 3))\n"
        "attempt(lambda: P([2, 1]).act_on_list((1, 2, 3)))\n"
        "P.from_word = staticmethod(lambda word, n: P.identity(n))\n"
        "attempt(lambda: P([2, 3, 1]).canonical_word())\n"
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
    assert res.stdout.split() == ["ValueError"] * 6 + ["ArithmeticError", "1"]

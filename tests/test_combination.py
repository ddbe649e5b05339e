"""The linear structure that every element type shares through
`linalg.Combination`: one hypothesis strategy per subclass, scalar
coercion, and the operand errors that must survive ``python -O``."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhecke.coxeter import Permutation
from quiverhecke.fock import FockVector, all_partitions
from quiverhecke.hall import HallContext, HallElement, a2_quiver
from quiverhecke.klr import KLRElement, linear_quiver, make_klr
from quiverhecke.laurent import Laurent
from quiverhecke.nilhecke import NilHeckeElement
from quiverhecke.polyring import MPoly

SCALARS = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)
SMALL = st.integers(-2, 2)

KLR_CTX = make_klr(linear_quiver(2), 2)
HALL_CTX = HallContext(a2_quiver(), 2)
HALL_KEYS = [
    (dims, HALL_CTX.label(rep))
    for dims in [(1, 0), (0, 1), (1, 1)]
    for rep in HALL_CTX.table(dims).representatives()
]


def laurents(coeffs=SCALARS):
    return st.builds(Laurent, st.dictionaries(st.integers(-3, 3), coeffs, max_size=4))


def mpolys(nx):
    exps = st.tuples(*[st.integers(0, 2)] * nx)
    return st.builds(
        lambda terms: MPoly(nx, (), terms), st.dictionaries(exps, SCALARS, max_size=4)
    )


def klr_elements():
    keys = st.tuples(
        st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
        st.sampled_from(list(Permutation.all(2))),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
    )
    return st.builds(
        lambda terms: KLRElement(KLR_CTX, terms), st.dictionaries(keys, SMALL, max_size=4)
    )


ELEMENTS = {
    "Laurent": laurents(),
    "MPoly": mpolys(2),
    "NilHeckeElement": st.builds(
        lambda terms: NilHeckeElement(2, terms),
        st.dictionaries(st.sampled_from(list(Permutation.all(2))), mpolys(2)),
    ),
    "KLRElement": klr_elements(),
    "FockVector": st.builds(
        FockVector,
        st.dictionaries(
            st.sampled_from([p for n in range(5) for p in all_partitions(n)]),
            SMALL,
            max_size=4,
        ),
    ),
    "HallElement": st.builds(
        lambda terms: HallElement(HALL_CTX, terms),
        st.dictionaries(st.sampled_from(HALL_KEYS), laurents(SMALL), max_size=3),
    ),
}
WITH_UNIT = ["Laurent", "MPoly", "NilHeckeElement"]


def equal_and_hashed_alike(x, y):
    return x == y and y == x and not x != y and hash(x) == hash(y)


@pytest.mark.parametrize("kind", sorted(ELEMENTS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_linear_structure(kind, data):
    a, b = data.draw(ELEMENTS[kind]), data.draw(ELEMENTS[kind])
    c, d = data.draw(SCALARS), data.draw(SCALARS)
    assert equal_and_hashed_alike((a + b) - b, a)
    assert equal_and_hashed_alike(a + b, b + a)
    assert (a - a).is_zero() and not (a - a)
    assert equal_and_hashed_alike(-(-a), a)
    assert equal_and_hashed_alike(a.scale(c) + a.scale(d), a.scale(c + d))
    assert a.scale(0).is_zero()
    assert bool(a) == (not a.is_zero()) == bool(a.terms)
    assert all(a.terms.values()) and all((a + b).terms.values())


@pytest.mark.parametrize("kind", WITH_UNIT)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_scalar_coercion(kind, data):
    a, c = data.draw(ELEMENTS[kind]), data.draw(SCALARS)
    one = a ** 0
    assert one == 1 and 1 == one
    const = one.scale(c)
    assert const == c and c == const
    # a constant, zero included, hashes as its scalar
    assert equal_and_hashed_alike(const, c) and len({c, const}) == 1
    assert equal_and_hashed_alike(one.scale(0), 0) and len({0, one.scale(0)}) == 1
    assert equal_and_hashed_alike(a + c, a + const)
    assert equal_and_hashed_alike(c + a, a + const)
    assert equal_and_hashed_alike(a - c, a - const)
    assert equal_and_hashed_alike(c - a, const - a)
    assert equal_and_hashed_alike((a + c) - c, a)
    assert equal_and_hashed_alike(a ** 3, a * a * a)


def test_scalars_next_to_elements():
    assert Laurent.one() + Fraction(1, 2) == Fraction(3, 2)
    assert Fraction(1, 2) + Laurent.one() == Laurent.const(Fraction(3, 2))
    assert MPoly.const(Fraction(1, 2), 2) == Fraction(1, 2)
    assert NilHeckeElement.one(2) - 1 == 0
    assert len({3, Laurent.const(3)}) == len({0, MPoly.zero(2)}) == 1
    assert len({2, MPoly.const(2, 1)}) == len({NilHeckeElement.zero(2), 0}) == 1
    assert {Fraction(1, 2): "half"}[MPoly.const(Fraction(1, 2), 2)] == "half"
    # an element of another type or parent is unequal, not an error
    assert MPoly.zero(2) != MPoly.zero(3)
    assert Laurent.one() != MPoly.one(1)
    assert KLRElement.zero(KLR_CTX) != KLRElement.zero(make_klr(linear_quiver(2), 2))
    with pytest.raises(TypeError):
        Laurent.one() + MPoly.one(1)


def test_operand_errors_survive_optimize():
    # each line must raise ValueError with asserts stripped; before the
    # shared base class the first summed across contexts, the second
    # mixed exponent widths and the negative power never returned
    code = (
        "from quiverhecke.klr import KLRElement, linear_quiver, make_klr\n"
        "from quiverhecke.polyring import MPoly\n"
        "c1, c2 = make_klr(linear_quiver(2), 2), make_klr(linear_quiver(2), 2)\n"
        "e1, e2 = KLRElement.idempotent(c1, (1, 2)), KLRElement.idempotent(c2, (1, 2))\n"
        "cases = [\n"
        "    lambda: e1 + e2,\n"
        "    lambda: e1 * e2,\n"
        "    lambda: MPoly.x(1, 2) + MPoly.x(1, 3),\n"
        "    lambda: MPoly(2, (), {(1, 0, 0): 1}),\n"
        "    lambda: MPoly.x(1, 2) ** -1,\n"
        "]\n"
        "for case in cases:\n"
        "    try:\n"
        "        print('accepted', case())\n"
        "    except ValueError:\n"
        "        print('ValueError')\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["ValueError"] * 5

"""The relation table of ``klr.relation_cases`` and its negative controls.

Each control breaks the module's tau_i in one way and names the checks
that must fail.  ``verify klr-relations`` reads the quadratic,
straightening and braid rows on ``apply_tau``; ``verify demazure`` reads
the quadratic, commutation and braid rows on the Demazure operators of
``polyring.demazure_terms``; the commutation row is run on ``apply_tau``
directly.  The controls return plain data, so the same table runs under
``python -O``.
"""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quiverhecke import cli, klr
from quiverhecke.klr import (
    KLRContext,
    cyclic_quiver,
    linear_quiver,
    make_klr,
    relation_cases,
)


def failing_checks(command):
    """Exit status and failing check names of a verify command, in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(command.split())
    checks = json.loads(out.getvalue())["checks"]
    return [code, sorted(c["name"] for c in checks if c["pass"] is False)]


def failing_rows(quiver, n, max_deg=2):
    """Rows of the relation table that fail on apply_tau."""
    ctx = make_klr(quiver, n)
    rows = relation_cases(ctx, functools.partial(klr.apply_tau, ctx), max_deg)
    return sorted(name for name, cases in rows.items() if not all(cases))


def raise_x(a, terms):
    """x_a times a term dict of n-tuples; the identity for a > n."""
    return {
        e[: a - 1] + (e[a - 1] + 1,) + e[a:] if a <= len(e) else e: c
        for e, c in terms.items()
    }


def double_q_poly(mp):
    right = KLRContext.q_poly
    mp.setattr(KLRContext, "q_poly", lambda self, *args: right(self, *args) * 2)


def negate_columns(mp, where):
    right = klr._tau_column

    def column(ctx, s, t, l, e):
        col = right(ctx, s, t, l, e)
        return tuple((m, -c) for m, c in col) if where(s, t, l) else col

    mp.setattr(klr, "_tau_column", column)


def tau_times_x(mp):
    # tau_i followed by x_{i+2}: it no longer commutes with tau_{i+2}
    right = klr.apply_tau
    mp.setattr(
        klr,
        "apply_tau",
        lambda ctx, i, mod: {v: raise_x(i + 2, t) for v, t in right(ctx, i, mod).items()},
    )


def demazure_as(mp, op):
    # the Demazure operator of the demazure rows, word (i,), replaced
    right = cli.demazure_terms
    mp.setattr(
        cli, "demazure_terms", lambda terms, word: op(right(terms, word), terms, word[0])
    )


def plus_identity(image, terms, i):
    out = dict(image)
    for e, c in terms.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


# check -> (mutation, run, what must fail)
CONTROLS = {
    "klr-quadratic": (
        double_q_poly,
        lambda: failing_checks("verify klr-relations --quiver a2 --n 3"),
        [1, ["klr-braid", "klr-quadratic"]],
    ),
    # d_i with its sign flipped where v_i = v_{i+1}
    "klr-straightening": (
        lambda mp: negate_columns(mp, lambda s, t, l: s == t),
        lambda: failing_checks("verify klr-relations --quiver single --n 3"),
        [1, ["klr-straightening"]],
    ),
    # tau_2 with its sign flipped between distinct labels: only three
    # distinct labels on the three strands tell the two sides apart
    "klr-braid": (
        lambda mp: negate_columns(mp, lambda s, t, l: s != t and l == 2),
        lambda: failing_checks("verify klr-relations --quiver a3 --n 3"),
        [1, ["klr-braid"]],
    ),
    "commutation": (
        tau_times_x,
        lambda: failing_rows(linear_quiver(2), 4),
        ["braid", "commutation", "quadratic", "straightening"],
    ),
    # (d_i + 1)^2 = 2 d_i + 1
    "demazure-square-zero": (
        lambda mp: demazure_as(mp, plus_identity),
        lambda: failing_checks("verify demazure --n 4"),
        [1, ["demazure-braid", "demazure-square-zero"]],
    ),
    "demazure-commutation": (
        lambda mp: demazure_as(mp, lambda image, terms, i: raise_x(i + 2, image)),
        lambda: failing_checks("verify demazure --n 4"),
        [1, ["demazure-braid", "demazure-commutation"]],
    ),
    # d_1 with its sign flipped: once on one side of the braid, twice on
    # the other
    "demazure-braid": (
        lambda mp: demazure_as(
            mp,
            lambda image, terms, i: {e: -c for e, c in image.items()} if i == 1 else image,
        ),
        lambda: failing_checks("verify demazure --n 4"),
        [1, ["demazure-braid"]],
    ),
}


def run_control(name):
    mutate, run, _ = CONTROLS[name]
    with pytest.MonkeyPatch.context() as mp:
        mutate(mp)
        return run()


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_control_fails_its_check(name):
    assert run_control(name) == CONTROLS[name][2]


def test_controls_fail_under_optimize():
    # the checks are comparisons, not asserts: python -O must fail them too
    code = (
        "import json, test_relations as t\n"
        "print(json.dumps({k: t.run_control(k) for k in sorted(t.CONTROLS)}))\n"
    )
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == {k: v[2] for k, v in CONTROLS.items()}


@pytest.mark.parametrize(
    "quiver",
    [linear_quiver(2), linear_quiver(3), cyclic_quiver(3)],
    ids=["a2", "a3", "cyclic3"],
)
def test_far_commutation_holds_on_apply_tau(quiver):
    ctx = make_klr(quiver, 4)
    rows = relation_cases(ctx, functools.partial(klr.apply_tau, ctx), 2)
    cases = list(rows["commutation"])
    # one pair (1, 3) per idempotent and monomial of degree <= 2
    assert len(cases) == len(quiver.vertices) ** 4 * 15
    assert all(cases)


@pytest.mark.parametrize(
    "command",
    ["verify klr-relations --quiver a3 --n 6", "verify demazure --n 5 --max-deg 30"],
)
def test_relation_guard_refuses_at_once(command):
    start = time.perf_counter()
    assert cli.main(command.split()) == 2
    assert time.perf_counter() - start < 1

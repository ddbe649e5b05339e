"""Acceptance gate: one test per criterion, each printing a pass/fail
line with its wall time; the verbose pytest listing gives the same
one-line-per-criterion report."""

import itertools
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from math import factorial

from quiverhecke.coxeter import (
    Permutation,
    poincare_polynomial,
    poincare_product_form,
)
from quiverhecke.polyring import (
    MPoly,
    elementary_symmetric,
    schubert_basis_element,
    schubert_coordinates,
    staircase_monomial,
)


@contextmanager
def criterion(num, desc, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {num}: PASS - {desc} ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, (num, elapsed)


def monomials(n, max_deg):
    for exps in itertools.product(range(max_deg + 1), repeat=n):
        if sum(exps) <= max_deg:
            yield MPoly(n, (), {exps: 1})


def assert_checks_pass(checks):
    """Every check of a ``cli.suite_*`` run passed and examined a case."""
    for check in checks:
        assert check["pass"] is True and check["cases"] > 0, check


def test_criterion_1_coxeter_poincare():
    with criterion(1, "Poincare polynomial product formula, n <= 6", 1):
        for n in range(1, 7):
            assert poincare_polynomial(n) == poincare_product_form(n)


def test_criterion_2_demazure():
    from quiverhecke.cli import suite_demazure

    with criterion(
        2, "Demazure relations, staircase, Schubert round trip", 30
    ):
        # the relations on monomials of degree <= 12 in four variables,
        # the staircase for m <= 4, Schubert round trips for n = 4
        assert_checks_pass(
            suite_demazure(
                {"n": 4, "max_deg": 12, "trials": 20}, random.Random(2)
            )
        )
        w0 = Permutation.longest(5)
        assert staircase_monomial(5).demazure_perm(w0) == MPoly.one(5)
        # Schubert round trips for n = 3 with e_1 and e_1^2 coefficients
        rng = random.Random(2026)
        for _ in range(100):
            target = MPoly.zero(3)
            chosen = {}
            for w in Permutation.all(3):
                if rng.random() < 0.5:
                    continue
                coeff = MPoly.const(rng.randrange(-3, 4), 3)
                if rng.random() < 0.4:
                    coeff = coeff + elementary_symmetric(1, 3) ** rng.randrange(
                        1, 3
                    )
                if coeff.is_zero():
                    continue
                chosen[w] = coeff
                target = target + coeff * schubert_basis_element(w, 3)
            assert schubert_coordinates(target, 3) == chosen


def test_criterion_3_nil_affine_hecke():
    from quiverhecke.nilhecke import (
        NilHeckeElement,
        frobenius_gram_determinant,
        idempotent_b,
    )

    with criterion(
        3, "nil affine Hecke PBW, idempotent, form, Gram unit", 120
    ):
        # PBW multiplication vs operator composition, all basis pairs
        # of polynomial degree <= 6 (x-exponent total <= 3), n = 3
        n = 3
        basis = []
        for w in Permutation.all(n):
            for p in monomials(n, 3):
                basis.append(
                    NilHeckeElement.from_poly(p) * NilHeckeElement.t_perm(w)
                )
        assert len(basis) == 120
        test_poly = MPoly(n, (), {(1, 2, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1})
        images = [(b, b.apply_to_polynomial(test_poly)) for b in basis]
        for a in basis:
            for b, bq in images:
                assert (a * b).apply_to_polynomial(
                    test_poly
                ) == a.apply_to_polynomial(bq)
        # idempotents
        for m in range(2, 5):
            assert idempotent_b(m) * idempotent_b(m) == idempotent_b(m)
        # t' symmetry: exhaustive on graded basis pairs up to degree 6
        # for n = 3 (T_w basis decorated by low-degree monomials), and
        # 200 random pairs for n = 4
        elems = []
        for w in Permutation.all(3):
            for p in monomials(3, 1):
                el = NilHeckeElement.from_poly(p) * NilHeckeElement.t_perm(w)
                if max(el.degrees(), default=0) <= 6:
                    elems.append(el)
        for a in elems:
            for b in elems:
                assert (a * b).trace_tprime() == (b * a).trace_tprime()
        rng = random.Random(3)

        def random_element(m):
            el = NilHeckeElement.zero(m)
            for _ in range(2):
                w = Permutation.from_word(
                    [rng.randrange(1, m) for _ in range(rng.randrange(3))], m
                )
                exps = tuple(rng.randrange(3) for _ in range(m))
                el = el + NilHeckeElement.from_poly(
                    MPoly(m, (), {exps: rng.randrange(-2, 3) or 1})
                ) * NilHeckeElement.t_perm(w)
            return el

        for _ in range(200):
            a, b = random_element(4), random_element(4)
            assert (a * b).trace_tprime() == (b * a).trace_tprime()
        # Gram-matrix unit determinant
        for m in (2, 3):
            assert frobenius_gram_determinant(m) in (1, -1)


def test_criterion_4_klr():
    from quiverhecke.cli import suite_grdim, suite_klr_relations, suite_pbw
    from quiverhecke.klr import linear_quiver, make_klr, torsion_check

    with criterion(
        4, "KLR relations, PBW rank, torsion lemma, graded dims", 300
    ):
        rng = random.Random(4)
        for quiver in ("a2", "a3"):
            assert_checks_pass(
                suite_klr_relations(
                    {"quiver": quiver, "n": 3, "max_deg": 6}, rng
                )
            )
            assert_checks_pass(
                suite_pbw({"quiver": quiver, "n": 3, "trials": 10}, rng)
            )
            for n in (1, 2, 3):
                assert_checks_pass(
                    suite_grdim({"quiver": quiver, "n": n}, rng)
                )
        ctx = make_klr(linear_quiver(2), 3)
        multiplier = torsion_check(ctx, (1, 2, 1))
        assert multiplier == MPoly.x(2, 3) - MPoly.x(1, 3)


def test_criterion_5_cyclotomic_sl2():
    from quiverhecke.cli import suite_cyclotomic
    from quiverhecke.cyclotomic import (
        expected_rank,
        minimal_sl2_dimension_ledger,
        verify_rank,
    )

    with criterion(
        5, "cyclotomic sl2 ranks, isomorphism, EF-FE ledger", 120
    ):
        # ranks for i <= n + 1, the isomorphism for i <= n, n <= 4, and
        # the ledger for n <= 6
        rng = random.Random(5)
        assert_checks_pass(suite_cyclotomic({"n": 4}, rng))
        for n in range(5):
            for i in (n + 1, n + 2):
                assert expected_rank(n, i) == 0
            assert verify_rank(n, n + 2) == 0
        for n in range(7):
            for row in minimal_sl2_dimension_ledger(n):
                assert row["simple_dim"] == factorial(row["strands"])


def test_criterion_6_hecke_bridge():
    from quiverhecke.cli import suite_heckebridge

    with criterion(
        6, "affine and degenerate Hecke relations, n <= 3, N = 4", 120
    ):
        for n in (2, 3):
            assert_checks_pass(suite_heckebridge({"n": n, "window": 4}, None))


def test_criterion_7_hall():
    from quiverhecke.cli import suite_hall
    from quiverhecke.hall import HallContext, a2_quiver

    with criterion(
        7, "Hall structure constants, exact-sequence count, Serre", 1500
    ):
        for q in (2, 3):
            assert_checks_pass(suite_hall({"q": q}, None))
            # the exact-sequence count on dimension pairs the suite skips
            ctx = HallContext(a2_quiver(), q)
            dim_pairs = [
                ((1, 0), (1, 0)),
                ((1, 0), (1, 1)),
                ((2, 1), (0, 1)),
                ((1, 2), (1, 0)),
            ]
            for dm, dn in dim_pairs:
                dl = tuple(a + b for a, b in zip(dm, dn))
                for mm in ctx.table(dm).representatives():
                    for nn in ctx.table(dn).representatives():
                        for ll in ctx.table(dl).representatives():
                            f = ctx.hall_number(mm, nn, ll)
                            p = ctx.exact_sequence_count(mm, nn, ll)
                            assert (
                                f * ctx.aut_order(mm) * ctx.aut_order(nn) == p
                            )


def test_criterion_8_fock():
    from quiverhecke.cli import suite_fock

    with criterion(
        8, "Fock p=3 example, commutators to size 8, adjointness", 30
    ):
        # commutators to size 8, adjointness to size 5, and at p = 3 the
        # example
        for p in (2, 3, 5):
            assert_checks_pass(suite_fock({"p": p, "max_size": 8}, None))


def test_criterion_9_determinism():
    with criterion(9, "byte-identical reports for identical configs", 120):
        for argv in (
            ["verify", "fock", "--p", "2", "--max-size", "5", "--seed", "3"],
            ["verify", "demazure", "--n", "3", "--seed", "11"],
            ["compute", "hall-table", "--q", "2", "--max-dim", "1,1"],
        ):
            outputs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "quiverhecke.cli"] + argv,
                    capture_output=True,
                )
                assert proc.returncode == 0, proc.stderr
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1]
            report = json.loads(outputs[0])
            assert "seed" in report["config"]

"""
Command-line front end: verification suites and computations as
machine-readable reports.

``quiverhecke verify <suite>`` runs a module's invariant suite and
reports each check with its parameters and pass/fail status; a check
that examined no case is skipped (``"pass": null``, ``SKIP`` in text).
The exit status is 0 when no check fails, 1 on any check failure, 2 on
usage errors.  ``quiverhecke compute <what>`` emits the requested table.

Reports embed the library version, the fully resolved configuration
(including the random seed), and are byte-deterministic on stdout for
a fixed configuration; wall-clock timings and case counts go to stderr
so they do not break determinism.

The JSON report schema:
  {"version": str, "command": "verify"|"compute", "config": {...},
   "checks": [{"name": str, "params": {...},
               "pass": bool | null}],                          (verify)
   "data": ...,                                                (compute)
   "passed": bool}                                             (verify)
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import random
import sys
import time

from . import __version__
from .coxeter import Permutation, length_order, poincare_polynomial, poincare_product_form
from .polyring import (
    MPoly,
    demazure_terms,
    elementary_symmetric,
    schubert_basis_element,
    schubert_coordinates,
    staircase_monomial,
)


# -- helpers --------------------------------------------------------------


def _quiver(name):
    from .klr import linear_quiver, parse_quiver, single_vertex_quiver

    if name == "a2":
        return linear_quiver(2)
    if name == "a3":
        return linear_quiver(3)
    if name == "single":
        return single_vertex_quiver()
    with open(name, "r", encoding="utf-8") as fh:
        return parse_quiver(fh.read())


def _random_poly(rng, n, max_deg=3, max_terms=4):
    p = MPoly.zero(n)
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(max_deg + 1) for _ in range(n))
        p = p + MPoly(n, (), {exps: rng.randrange(-4, 5) or 1})
    return p


def _run(checks):
    """Run ``(name, params, outcomes)`` checks in order.

    ``outcomes`` is a lazy iterable with one bool per case examined.  A
    check stops at its first False; an AssertionError or ArithmeticError
    while examining it is a failure too.  Each check's wall time and case
    count go to stderr.  A check that examined no case keeps
    ``"pass": True`` here; ``main`` reports it as skipped.
    """
    report = []
    for name, params, outcomes in checks:
        start = time.monotonic()
        ok, cases = True, 0
        try:
            for ok in outcomes:
                cases += 1
                if not ok:
                    break
        except (AssertionError, ArithmeticError):
            ok = False
        seconds = time.monotonic() - start
        print(f"{name}: {seconds:.3f}s, {cases} cases", file=sys.stderr)
        report.append(
            {"name": name, "params": params, "pass": bool(ok), "cases": cases}
        )
    return report


def _suite(checks):
    """A verify suite from ``checks(cfg, rng)``, a generator of
    ``(name, params, outcomes)`` triples: it returns ``_run``'s report.

    Outcomes are built lazily, so each check draws its random inputs
    only while it runs, in the order the checks are yielded.
    """

    @functools.wraps(checks)
    def suite(cfg, rng):
        return _run(checks(cfg, rng))

    return suite


# -- verification suites --------------------------------------------------


@_suite
def suite_demazure(cfg, rng):
    from .klr import make_klr, relation_cases, single_vertex_quiver

    n = cfg["n"]
    if n > 5:
        # schubert-round-trip expands all n! Schubert polynomials per
        # trial: 1.4s at n = 5 and 124s at n = 6 on a 2-vCPU machine
        raise ValueError(f"--n must be at most 5 for the demazure suite, got {n}")
    # the nil Hecke relations are the one-vertex rows of the KLR relation
    # table, with tau_i the Demazure operator d_i of the polyring kernel
    rows = relation_cases(
        make_klr(single_vertex_quiver(), n),
        lambda i, mod: {v: d for v, t in mod.items() if (d := demazure_terms(t, (i,)))},
        cfg["max_deg"],
    )
    params = {"n": n, "max_deg": cfg["max_deg"]}
    yield "demazure-square-zero", params, rows["quadratic"]
    yield "demazure-commutation", params, rows["commutation"]
    yield "demazure-braid", params, rows["braid"]
    yield "staircase-longest-word", {"max_n": n}, (
        staircase_monomial(m).demazure_perm(Permutation.longest(m))
        == MPoly.one(m)
        for m in range(2, n + 1)
    )

    def schubert_round_trip():
        for _ in range(cfg["trials"]):
            target = MPoly.zero(n)
            chosen = {}
            for w in Permutation.all(n):
                if rng.random() < 0.5:
                    continue
                coeff = MPoly.const(rng.randrange(-3, 4), n)
                if rng.random() < 0.4:
                    coeff = coeff + elementary_symmetric(1, n) ** 2
                if coeff.is_zero():
                    continue
                chosen[w] = coeff
                target = target + coeff * schubert_basis_element(w, n)
            yield schubert_coordinates(target, n) == chosen

    trials = {"n": n, "trials": cfg["trials"]}
    yield "schubert-round-trip", trials, schubert_round_trip()


@_suite
def suite_nilhecke(cfg, rng):
    from .nilhecke import (
        GRAM_DETERMINANTS,
        MAX_GRAM_N,
        NilHeckeElement,
        frobenius_gram_determinant,
        idempotent_b,
    )

    n = cfg["n"]
    if n < 2:
        raise ValueError(f"--n must be at least 2 for the nil Hecke suite, got {n}")

    def random_element(m):
        el = NilHeckeElement.zero(m)
        for _ in range(2):
            w = Permutation.from_word(
                [rng.randrange(1, m) for _ in range(rng.randrange(3))], m
            )
            el = el + NilHeckeElement.t_perm(w).scale(
                rng.randrange(-2, 3) or 1
            ) * NilHeckeElement.from_poly(_random_poly(rng, m, 2, 2))
        return el

    def random_pairs():
        for _ in range(cfg["trials"]):
            yield random_element(n), random_element(n)

    def product_vs_operators():
        for a, b in random_pairs():
            q = _random_poly(rng, n, 3, 3)
            yield (a * b).apply_to_polynomial(q) == a.apply_to_polynomial(
                b.apply_to_polynomial(q)
            )

    random_params = {"n": n, "trials": cfg["trials"]}
    yield "pbw-product-vs-operators", random_params, product_vs_operators()
    yield "idempotent-b-squared", {"max_n": n}, (
        idempotent_b(m) * idempotent_b(m) == idempotent_b(m)
        for m in range(2, n + 1)
    )
    yield "symmetrizing-form-symmetry", random_params, (
        (a * b).trace_tprime() == (b * a).trace_tprime()
        for a, b in random_pairs()
    )
    yield "gram-unit-determinant", {"max_n": min(n, MAX_GRAM_N)}, (
        frobenius_gram_determinant(m) == GRAM_DETERMINANTS[m]
        for m in range(2, min(n, MAX_GRAM_N) + 1)
    )


def _klr_idempotents(ctx):
    return list(itertools.product(ctx.quiver.vertices, repeat=ctx.n))


@_suite
def suite_klr_relations(cfg, rng):
    from .klr import apply_tau, make_klr, relation_cases

    ctx = make_klr(_quiver(cfg["quiver"]), cfg["n"])
    rows = relation_cases(ctx, functools.partial(apply_tau, ctx), cfg["max_deg"] // 2)
    # no klr-commutation line yet: perfbench/reference.json pins these three
    params = {"quiver": cfg["quiver"], "n": ctx.n, "max_deg": cfg["max_deg"]}
    yield "klr-quadratic", params, rows["quadratic"]
    yield "klr-straightening", params, rows["straightening"]
    yield "klr-braid", params, rows["braid"]


@_suite
def suite_pbw(cfg, rng):
    from .klr import (
        KLRElement,
        make_klr,
        pbw_coordinates,
        pbw_leading_terms,
        represent,
    )

    ctx = make_klr(_quiver(cfg["quiver"]), cfg["n"])
    n = ctx.n
    idems = _klr_idempotents(ctx)
    perms = list(Permutation.all(n))
    words = len(idems) * len(perms)
    if n > 5 or words > 3**5 * 120:
        # the certificate expands every tau_w 1_v: a3 at n = 5 (243 x 120
        # words) takes 4s, the leading terms alone of a single vertex at
        # n = 6 (720 words) 24-30s (2 vCPU, Python 3.11)
        raise ValueError(
            f"--n {n} on this quiver expands {words} words tau_w 1_v; the "
            "pbw suite stops at n = 5 and 29160 words"
        )

    def round_trip():
        for _ in range(cfg["trials"]):
            el = KLRElement.zero(ctx)
            for _ in range(2):
                v = rng.choice(idems)
                w = rng.choice(perms)
                a = tuple(rng.randrange(2) for _ in range(n))
                el = el + KLRElement.basis_word(ctx, v, w, a).scale(
                    rng.choice([1, -1, 2])
                )
            yield pbw_coordinates(represent(el)) == el

    params = {"quiver": cfg["quiver"], "n": n}
    yield "pbw-linear-independence", params, (
        pbw_leading_terms(ctx, v) for v in idems
    )
    yield "pbw-round-trip", dict(params, trials=cfg["trials"]), round_trip()


@_suite
def suite_grdim(cfg, rng):
    from .klr import (
        check_grdim_size,
        hom_graded_dimension,
        hom_graded_dimension_closed,
        make_klr,
    )

    ctx = make_klr(_quiver(cfg["quiver"]), cfg["n"])
    # every w in S_n carries each source to one target
    check_grdim_size(ctx, len(ctx.quiver.vertices) ** ctx.n, (ctx.n,))
    idems = _klr_idempotents(ctx)
    params = {"quiver": cfg["quiver"], "n": ctx.n}
    yield "grdim-closed-form-vs-enumeration", params, (
        hom_graded_dimension(ctx, v, vp) == hom_graded_dimension_closed(ctx, v, vp)
        for v in idems
        for vp in idems
    )


@_suite
def suite_cyclotomic(cfg, rng):
    from .cyclotomic import (
        expected_rank,
        minimal_sl2_dimension_ledger,
        sl2_iso_check,
        verify_rank,
    )

    max_n = cfg["n"]
    if max_n > 4:
        # spanning_rank admits modules up to rank 120, so up to C_5(5),
        # 14400 operators in 0.9-1.9 s at z = 0; the suite, which runs
        # every (n, i) up to --n, stops at 4
        raise ValueError(
            f"--n must be at most 4 for the cyclotomic suite, got {max_n}"
        )
    ranks = {}  # each (n, i) rank is computed once per run
    yield "cyclotomic-ranks", {"max_n": max_n}, (
        verify_rank(n, i, ranks=ranks) == expected_rank(n, i)
        for n in range(max_n + 1)
        for i in range(n + 2)
    )
    yield "cyclotomic-iso", {"max_n": max_n}, (
        sl2_iso_check(n, i, ranks=ranks)
        for n in range(max_n + 1)
        for i in range(n + 1)
    )
    yield "cyclotomic-ef-fe-ledger", {"max_n": 6}, (
        row["ef"] - row["fe"] == row["defect"] == n - 2 * row["strands"]
        for n in range(7)
        for row in minimal_sl2_dimension_ledger(n)
    )


@_suite
def suite_heckebridge(cfg, rng):
    from .heckebridge import verify_affine_relations, verify_degenerate_relations

    # one case per relation check: it returns True or raises
    n, window = cfg["n"], cfg["window"]
    params = {"n": n, "window": window}
    yield "affine-hecke-relations", params, map(verify_affine_relations, [n], [window])
    yield "degenerate-hecke-relations", params, map(
        verify_degenerate_relations, [n], [window]
    )


@_suite
def suite_hall(cfg, rng):
    from .hall import (
        HallContext,
        QuiverRep,
        a2_quiver,
        direct_sum,
        element_is_zero_at_v2q,
        serre_relation_check,
        simple_rep,
    )

    q = cfg["q"]
    quiver = a2_quiver()
    ctx = HallContext(quiver, q)

    def structure_constants():
        f1 = ctx.element(simple_rep(quiver, q, 1))
        f2 = ctx.element(simple_rep(quiver, q, 2))
        m = QuiverRep(quiver, q, (1, 1), (((1,),),))
        f12 = ctx.element(m)
        yield f1.mul(f2) - f2.mul(f1) == f12
        ms1 = ctx.element(direct_sum(m, simple_rep(quiver, q, 1)))
        yield f1.mul(f12) == ms1.scale(q)
        yield f12.mul(f1) == ms1

    def exact_sequences():
        dim_pairs = [
            ((1, 0), (0, 1)),
            ((0, 1), (1, 0)),
            ((1, 1), (1, 0)),
            ((1, 1), (1, 1)),
        ]
        for dm, dn in dim_pairs:
            dl = tuple(a + b for a, b in zip(dm, dn))
            for m in ctx.table(dm).representatives():
                for nrep in ctx.table(dn).representatives():
                    fs = ctx.product(m, nrep).terms
                    for l in ctx.table(dl).representatives():
                        f = fs.get((dl, ctx.label(l)), 0)
                        p = ctx.exact_sequence_count(m, nrep, l)
                        yield f * ctx.aut_order(m) * ctx.aut_order(nrep) == p

    yield "hall-a2-structure-constants", {"q": q}, structure_constants()
    yield "hall-exact-sequence-count", {"q": q}, exact_sequences()
    yield "hall-serre-relation", {"q": q}, (
        element_is_zero_at_v2q(serre_relation_check(ctx, i, j), q)
        for i, j in ((1, 2), (2, 1))
    )


@_suite
def suite_fock(cfg, rng):
    from .fock import FockVector, all_partitions, e_op, f_op, operator_matrix, weight_pairing
    from .linalg import bump

    p = cfg["p"]
    max_size = cfg["max_size"]
    if p < 1:
        raise ValueError(f"--p must be at least 1, got {p}")
    if max_size < 0:
        raise ValueError(f"--max-size must be at least 0, got {max_size}")
    # fock-commutators examines p^2 cases per partition of size <= --max-size, each
    # dearer as they grow, on 2 vCPUs: p = 1 at 30 (28629 cases) 1.9 s, 70 MB; p = 3
    # at 26 (105588) 1.4 s; p = 4 at 24 (117408) 1.1 s; p = 1 at 34 4.5 s, 148 MB
    if max_size > 30:
        raise ValueError(f"--max-size must be at most 30, got {max_size}")
    counts = [1] + [0] * max_size  # counts[m]: the number of partitions of m
    for part in range(1, max_size + 1):
        for m in range(part, max_size + 1):
            counts[m] += counts[m - part]
    if (cases := p * p * sum(counts)) > 120_000:
        raise ValueError(
            f"--max-size {max_size} at --p {p} gives {cases} commutator cases, "
            "above the limit 120000"
        )

    def commutators():
        # [e_i, f_j] |lam> = delta_ij <wt(lam), alpha_i^vee> |lam>, the weight
        # read off the residue content and the Cartan matrix, not the box moves
        for size in range(max_size + 1):
            for lam in all_partitions(size):
                v = FockVector.basis(lam)
                fv = [f_op(j, p, v) for j in range(p)]
                ev = [e_op(i, p, v) for i in range(p)]
                for i in range(p):
                    h = weight_pairing(lam, i, p)
                    for j in range(p):
                        lhs = dict(e_op(i, p, fv[j]).terms)
                        for parts, c in f_op(j, p, ev[i]).terms.items():
                            bump(lhs, parts, -c)
                        yield lhs == ({lam: h} if i == j and h else {})

    def adjointness():
        for size in range(min(max_size, 6)):
            for i in range(p):
                rows_f, cols_f, mat_f = operator_matrix("f", i, p, size)
                rows_e, cols_e, mat_e = operator_matrix("e", i, p, size + 1)
                yield (
                    rows_f == cols_e
                    and cols_f == rows_e
                    and all(
                        mat_f[a][b] == mat_e[b][a]
                        for a in range(len(rows_f))
                        for b in range(len(cols_f))
                    )
                )

    if p == 3:
        lam = FockVector.basis((3, 1))
        yield "fock-p3-example", {"p": p}, (
            op(i, p, lam) == expected
            for op, i, expected in (
                (f_op, 0, FockVector.basis((4, 1)) + FockVector.basis((3, 2))),
                (f_op, 1, FockVector.basis((3, 1, 1))),
                (f_op, 2, FockVector()),
                (e_op, 2, FockVector.basis((2, 1)) + FockVector.basis((3,))),
                (e_op, 0, FockVector()),
                (e_op, 1, FockVector()),
            )
        )
    yield "fock-commutators", {"p": p, "max_size": max_size}, commutators()
    adjoint_params = {"p": p, "max_size": min(max_size, 6)}
    yield "fock-transpose-adjointness", adjoint_params, adjointness()


_SUITES = {
    "demazure": suite_demazure,
    "nilhecke": suite_nilhecke,
    "klr-relations": suite_klr_relations,
    "pbw": suite_pbw,
    "grdim": suite_grdim,
    "cyclotomic": suite_cyclotomic,
    "heckebridge": suite_heckebridge,
    "hall": suite_hall,
    "fock": suite_fock,
}


# -- compute targets ------------------------------------------------------


def compute_poincare(cfg):
    if cfg["n"] < 0:
        raise ValueError(f"--n must be at least 0, got {cfg['n']}")
    poly = poincare_product_form(cfg["n"])
    if poly != poincare_polynomial(cfg["n"]):
        raise ArithmeticError("the product form of the Poincare polynomial is wrong")
    return {
        "n": cfg["n"],
        "coefficients": {
            str(k): poly.terms[k] for k in sorted(poly.terms)
        },
    }


def compute_schubert_basis(cfg):
    n = cfg["n"]
    if n < 0:
        raise ValueError(f"--n must be at least 0, got {n}")
    rows = []
    for w in length_order(n):
        rows.append(
            {
                "word": list(w.canonical_word()),
                "polynomial": repr(schubert_basis_element(w, n)),
            }
        )
    return {"n": n, "basis": rows}


def compute_grdim(cfg):
    from .klr import check_grdim_size, hom_graded_dimension, make_klr

    v = tuple(int(t) for t in cfg["v"].split(","))
    vp = tuple(int(t) for t in cfg["vprime"].split(","))
    if len(v) != len(vp):
        raise ValueError(
            f"--v and --vprime must have the same length, got {len(v)} and {len(vp)}"
        )
    quiver = _quiver(cfg["quiver"])
    for flag, idem in (("--v", v), ("--vprime", vp)):
        if not set(idem) <= set(quiver.vertices):
            raise ValueError(
                f"{flag} entries must be vertices {list(quiver.vertices)} "
                f"of the quiver, got {list(idem)}"
            )
    ctx = make_klr(quiver, len(v))
    # one bijection per vertex s, from its c_s positions in v to those in v'
    check_grdim_size(ctx, 1, [v.count(s) for s in sorted(set(v))])
    poly = hom_graded_dimension(ctx, v, vp)
    return {
        "quiver": cfg["quiver"],
        "v": list(v),
        "vprime": list(vp),
        "grdim": poly.str_in("q"),
    }


def compute_cyclotomic_basis(cfg):
    from .cyclotomic import cyclotomic_basis

    n, i = cfg["n"], cfg["i"]
    for flag, value in (("--n", n), ("--i", i)):
        if value < 0:
            raise ValueError(f"{flag} must be at least 0, got {value}")
    return {
        "n": n,
        "i": i,
        "basis": [repr(el) for el in cyclotomic_basis(n, i)],
    }


def compute_hall_table(cfg):
    from .hall import HallContext, a2_quiver, subspace_count

    q = cfg["q"]
    max_dim = tuple(int(t) for t in cfg["max_dim"].split(","))
    if len(max_dim) != 2 or min(max_dim) < 0:
        raise ValueError(
            f"--max-dim must be two nonnegative integers d1,d2, got {cfg['max_dim']}"
        )
    if not any(max_dim):
        # the zero dimension vector has no table: nothing would be computed
        raise ValueError(f"--max-dim must have a positive entry, got {cfg['max_dim']}")
    ctx = HallContext(a2_quiver(), q)  # rejects an unsupported q first
    # the products walk every tuple of subspaces once per class L and
    # dimension vector of N: a2's classes at dims (d1, d2) are the ranks
    # 0..min(d1, d2).  On 2 vCPUs q = 5 at 1,5 (216820 tuples) takes
    # 1.4-2.3 s and 25 MB, q = 3 at 1,6 (297684), the largest admitted,
    # 1.9-3.2 s and 27 MB; q = 4 at 0,6 (578571) takes 6.7 s and 99 MB,
    # and q = 5 at 1,6 (18132974) ran past 150 s at 1.4 GB uncapped.  The
    # count runs lazily and stops once past the cap, so a huge --max-dim is
    # refused at once (itertools.product would first list its ranges)
    tuples = 0
    for dl in ((a, b) for a in range(max_dim[0] + 1) for b in range(max_dim[1] + 1)):
        for dn in itertools.product(range(dl[0] + 1), range(dl[1] + 1)):
            if any(dn) and dn != dl:
                tuples += (
                    (min(dl) + 1)
                    * subspace_count(q, dl[0], dn[0])
                    * subspace_count(q, dl[1], dn[1])
                )
        if tuples > 300_000:
            raise ValueError(
                f"--max-dim {cfg['max_dim']} at q = {q} enumerates more than "
                "300000 subspace tuples"
            )
    matrices = q ** (max_dim[0] * max_dim[1])
    if matrices > 3**9:
        # the orbit enumeration visits every matrix: q = 3 at 3,3 takes
        # seconds
        raise ValueError(
            f"--max-dim {cfg['max_dim']} at q = {q} enumerates {matrices} "
            "matrices, more than 3^9 = 19683"
        )
    classes = []
    dims_list = [
        dims
        for dims in itertools.product(
            range(max_dim[0] + 1), range(max_dim[1] + 1)
        )
        if any(dims)
    ]
    reps = {}
    for dims in dims_list:
        table = ctx.table(dims)
        for label in sorted(table.classes):
            info = table.classes[label]
            classes.append(
                {
                    "dims": list(dims),
                    "label": str(label),
                    "aut_order": info["aut_order"],
                }
            )
        reps[dims] = table.representatives()
    fnumbers = []
    for dm in dims_list:
        for dn in dims_list:
            dl = tuple(a + b for a, b in zip(dm, dn))
            if dl not in reps:
                continue
            for m in reps[dm]:
                for nrep in reps[dn]:
                    for (_, l), f in ctx.product(m, nrep).terms.items():
                        fnumbers.append(
                            {
                                "m": str(ctx.label(m)),
                                "n": str(ctx.label(nrep)),
                                "l": str(l),
                                "f": f.terms[0],  # the constant F^L_{M,N}
                            }
                        )
    return {"q": q, "classes": classes, "hall_numbers": fnumbers}


def compute_fock_matrix(cfg):
    from .fock import operator_matrix

    p, i, size = cfg["p"], cfg["i"], cfg["size"]
    if p < 1:
        raise ValueError(f"--p must be at least 1, got {p}")
    if size < 0:
        raise ValueError(f"--size must be at least 0, got {size}")
    if size > 22:
        # dense: 792 x 627 at --op f --size 20 (0.22 s, 61 MB, a 5.6 MB report),
        # 1255 x 1002 at 22 (0.54 s, 129 MB, 14 MB), 2.5 times that at 24 (2 vCPU)
        raise ValueError(f"--size must be at most 22, got {size}")
    rows, cols, mat = operator_matrix(cfg["op"], i, p, size)
    return {
        "op": cfg["op"],
        "i": i,
        "p": p,
        "size": size,
        "rows": [list(r) for r in rows],
        "cols": [list(c) for c in cols],
        "matrix": mat,
    }


_COMPUTES = {
    "poincare": compute_poincare,
    "schubert-basis": compute_schubert_basis,
    "grdim": compute_grdim,
    "cyclotomic-basis": compute_cyclotomic_basis,
    "hall-table": compute_hall_table,
    "fock-matrix": compute_fock_matrix,
}


# -- report emission ------------------------------------------------------


def _emit(report, fmt):
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if "checks" in report:
            writer.writerow(["name", "params", "pass"])
            for check in report["checks"]:
                writer.writerow(
                    [
                        check["name"],
                        json.dumps(check["params"], sort_keys=True),
                        check["pass"],
                    ]
                )
        else:
            writer.writerow(["key", "value"])
            for key in sorted(report["data"]):
                writer.writerow(
                    [key, json.dumps(report["data"][key], sort_keys=True)]
                )
        return buf.getvalue()
    lines = [f"quiverhecke {report['version']}"]
    lines.append(
        "config: " + json.dumps(report["config"], sort_keys=True)
    )
    if "checks" in report:
        for check in report["checks"]:
            status = {True: "PASS", False: "FAIL", None: "SKIP"}[check["pass"]]
            lines.append(
                f"{status} {check['name']} "
                + json.dumps(check["params"], sort_keys=True)
            )
        lines.append(
            "result: " + ("all passed" if report["passed"] else "FAILURES")
        )
    else:
        lines.append(json.dumps(report["data"], sort_keys=True))
    return "\n".join(lines) + "\n"


# -- argument parsing -----------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quiverhecke",
        description="exact computations and verification suites for "
        "small-rank Hecke-type algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiver", default="a2")
    common.add_argument("--n", type=int, default=3)
    common.add_argument("--q", type=int, default=2)
    common.add_argument("--p", type=int, default=3)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("json", "csv", "text"), default="json")

    ver = sub.add_parser("verify", parents=[common], help="run a verification suite")
    ver.add_argument("suite", choices=sorted(_SUITES))
    ver.add_argument("--max-deg", type=int, default=6)
    ver.add_argument("--window", type=int, default=3)
    ver.add_argument("--max-size", type=int, default=6)
    ver.add_argument("--trials", type=int, default=20)

    comp = sub.add_parser("compute", parents=[common], help="emit a computed table")
    comp.add_argument("what", choices=sorted(_COMPUTES))
    comp.add_argument("--i", type=int, default=0)
    comp.add_argument("--v", default="1,2")
    comp.add_argument("--vprime", default="2,1")
    comp.add_argument("--size", type=int, default=4)
    comp.add_argument("--op", choices=("e", "f"), default="f")
    comp.add_argument("--max-dim", default="1,1")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    if args.command == "verify":
        if cfg["max_deg"] <= 0 or cfg["n"] <= 0 or cfg["window"] <= 0:
            print("caps must be positive", file=sys.stderr)
            return 2
        if cfg["trials"] < 0:
            print(f"--trials must be nonnegative, got {cfg['trials']}", file=sys.stderr)
            return 2
        rng = random.Random(args.seed)
        try:
            checks = _SUITES[args.suite](cfg, rng)
        except (ValueError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for c in checks:
            if not c.pop("cases") and c["pass"]:
                c["pass"] = None  # skipped: the check examined no case
        report = {
            "version": __version__,
            "command": "verify",
            "config": cfg,
            "checks": checks,
            "passed": all(c["pass"] is not False for c in checks),
        }
        sys.stdout.write(_emit(report, args.format))
        return 0 if report["passed"] else 1
    try:
        data = _COMPUTES[args.what](cfg)
    except (ValueError, FileNotFoundError, AssertionError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "version": __version__,
        "command": "compute",
        "config": cfg,
        "data": data,
    }
    sys.stdout.write(_emit(report, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""
Command-line front end: verification suites and computations as
machine-readable reports.

``quiverhecke verify <suite>`` runs a module's invariant suite and
reports each check with its parameters and pass/fail status; the exit
status is 0 when everything passes, 1 on any check failure, 2 on usage
errors.  ``quiverhecke compute <what>`` emits the requested table.

Reports embed the library version, the fully resolved configuration
(including the random seed), and are byte-deterministic on stdout for
a fixed configuration; wall-clock timings go to stderr so they do not
break determinism.

The JSON report schema:
  {"version": str, "command": "verify"|"compute", "config": {...},
   "checks": [{"name": str, "params": {...}, "pass": bool}],   (verify)
   "data": ...,                                                (compute)
   "passed": bool}                                             (verify)
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import random
import sys
import time

from . import __version__
from .coxeter import Permutation, poincare_polynomial, poincare_product_form
from .polyring import (
    MPoly,
    elementary_symmetric,
    exponent_tuples,
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


class _Suite:
    def __init__(self):
        self.checks = []

    def run(self, name, params, fn):
        start = time.monotonic()
        try:
            ok = bool(fn())
        except (AssertionError, ArithmeticError):
            ok = False
        seconds = time.monotonic() - start
        print(f"{name}: {seconds:.3f}s", file=sys.stderr)
        self.checks.append({"name": name, "params": params, "pass": ok})


# -- verification suites --------------------------------------------------


def suite_demazure(cfg, rng):
    s = _Suite()
    n = cfg["n"]
    cap = cfg["max_deg"]
    monos = [MPoly(n, (), {e: 1}) for e in exponent_tuples(n, cap)]

    def square_zero():
        return all(
            p.demazure(i).demazure(i).is_zero()
            for p in monos
            for i in range(1, n)
        )

    def commutation():
        pairs = [
            (i, j)
            for i in range(1, n)
            for j in range(i + 2, n)
        ]
        return all(
            p.demazure(i).demazure(j) == p.demazure(j).demazure(i)
            for p in monos
            for i, j in pairs
        )

    def braid():
        return all(
            p.demazure(i).demazure(i + 1).demazure(i)
            == p.demazure(i + 1).demazure(i).demazure(i + 1)
            for p in monos
            for i in range(1, n - 1)
        )

    def staircase():
        for m in range(2, n + 1):
            w0 = Permutation.longest(m)
            out = staircase_monomial(m).demazure_perm(w0)
            if out != MPoly.one(m):
                return False
        return True

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
            coords = schubert_coordinates(target, n)
            if coords != chosen:
                return False
        return True

    s.run("demazure-square-zero", {"n": n, "max_deg": cap}, square_zero)
    s.run("demazure-commutation", {"n": n, "max_deg": cap}, commutation)
    s.run("demazure-braid", {"n": n, "max_deg": cap}, braid)
    s.run("staircase-longest-word", {"max_n": n}, staircase)
    s.run(
        "schubert-round-trip",
        {"n": n, "trials": cfg["trials"]},
        schubert_round_trip,
    )
    return s.checks


def suite_nilhecke(cfg, rng):
    from .nilhecke import (
        NilHeckeElement,
        frobenius_gram_determinant,
        idempotent_b,
    )

    s = _Suite()
    n = cfg["n"]

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

    def product_vs_operators():
        for _ in range(cfg["trials"]):
            a, b = random_element(n), random_element(n)
            ab = a * b
            q = _random_poly(rng, n, 3, 3)
            if ab.apply_to_polynomial(q) != a.apply_to_polynomial(
                b.apply_to_polynomial(q)
            ):
                return False
        return True

    def idempotents():
        return all(
            idempotent_b(m) * idempotent_b(m) == idempotent_b(m)
            for m in range(2, n + 1)
        )

    def trace_symmetry():
        for _ in range(cfg["trials"]):
            a, b = random_element(n), random_element(n)
            if (a * b).trace_tprime() != (b * a).trace_tprime():
                return False
        return True

    def gram_unit():
        return all(
            frobenius_gram_determinant(m) in (1, -1)
            for m in range(2, min(n, 3) + 1)
        )

    s.run(
        "pbw-product-vs-operators",
        {"n": n, "trials": cfg["trials"]},
        product_vs_operators,
    )
    s.run("idempotent-b-squared", {"max_n": n}, idempotents)
    s.run(
        "symmetrizing-form-symmetry",
        {"n": n, "trials": cfg["trials"]},
        trace_symmetry,
    )
    s.run("gram-unit-determinant", {"max_n": min(n, 3)}, gram_unit)
    return s.checks


def _klr_idempotents(ctx):
    return list(itertools.product(ctx.quiver.vertices, repeat=ctx.n))


def suite_klr_relations(cfg, rng):
    from .klr import KLRElement, make_klr
    from .polyring import divide_exact_by_x_difference

    s = _Suite()
    ctx = make_klr(_quiver(cfg["quiver"]), cfg["n"])
    n = ctx.n
    cap = cfg["max_deg"] // 2
    monos = [
        MPoly(n, ctx.params, {e + (0,) * len(ctx.params): 1})
        for e in exponent_tuples(n, cap)
    ]

    def tau(i, mod):
        out = {}
        for v, p in mod.items():
            for u, q in KLRElement.tau(ctx, i, v).apply({v: p}).items():
                out[u] = out.get(u, MPoly.zero(n, ctx.params)) + q
        return {u: q for u, q in out.items() if not q.is_zero()}

    def xop(a, mod):
        return {
            v: p * MPoly.x(a, n, ctx.params)
            for v, p in mod.items()
            if not p.is_zero()
        }

    def diff(lhs, rhs):
        out = {}
        zero = MPoly.zero(n, ctx.params)
        for u in set(lhs) | set(rhs):
            d = lhs.get(u, zero) - rhs.get(u, zero)
            if not d.is_zero():
                out[u] = d
        return out

    def quadratic():
        for v in _klr_idempotents(ctx):
            for p in monos:
                for i in range(1, n):
                    lhs = tau(i, tau(i, {v: p}))
                    qp = ctx.q_poly(v[i - 1], v[i], i, i + 1)
                    rhs = {v: qp * p}
                    rhs = {u: q for u, q in rhs.items() if not q.is_zero()}
                    if diff(lhs, rhs):
                        return False
        return True

    def straightening():
        for v in _klr_idempotents(ctx):
            for p in monos:
                for i in range(1, n):
                    for a in range(1, n + 1):
                        sa = i + 1 if a == i else i if a == i + 1 else a
                        d = diff(
                            tau(i, xop(a, {v: p})),
                            xop(sa, tau(i, {v: p})),
                        )
                        if v[i - 1] == v[i] and a == i:
                            if diff(d, {v: MPoly.zero(n, ctx.params) - p}):
                                return False
                        elif v[i - 1] == v[i] and a == i + 1:
                            if diff(d, {v: p}):
                                return False
                        elif d:
                            return False
        return True

    def braid():
        for v in _klr_idempotents(ctx):
            for p in monos:
                for i in range(1, n - 1):
                    lhs = tau(i + 1, tau(i, tau(i + 1, {v: p})))
                    rhs = tau(i, tau(i + 1, tau(i, {v: p})))
                    d = diff(lhs, rhs)
                    if v[i - 1] == v[i + 1] and v[i - 1] != v[i]:
                        num = ctx.q_poly(
                            v[i - 1], v[i], i + 2, i + 1
                        ) - ctx.q_poly(v[i - 1], v[i], i, i + 1)
                        corr = divide_exact_by_x_difference(num, i + 2, i)
                        if diff(d, {v: corr * p}):
                            return False
                    elif d:
                        return False
        return True

    params = {"quiver": cfg["quiver"], "n": n, "max_deg": cfg["max_deg"]}
    s.run("klr-quadratic", params, quadratic)
    s.run("klr-straightening", params, straightening)
    s.run("klr-braid", params, braid)
    return s.checks


def suite_pbw(cfg, rng):
    from .klr import KLRElement, make_klr, pbw_coordinates, represent
    from .linalg import rank

    s = _Suite()
    ctx = make_klr(_quiver(cfg["quiver"]), cfg["n"])
    n = ctx.n
    idems = _klr_idempotents(ctx)
    perms = list(Permutation.all(n))

    def independence():
        test_monos = [
            MPoly(n, ctx.params, {e + (0,) * len(ctx.params): 1})
            for e in itertools.product(range(3), repeat=n)
        ]
        for v in idems:
            rows = []
            for w in perms:
                for a in itertools.product(range(2), repeat=n):
                    el = KLRElement.basis_word(ctx, v, w, a)
                    row = {}
                    for k, p in enumerate(test_monos):
                        for tgt, img in el.apply({v: p}).items():
                            for e, c in img.terms.items():
                                row[(k, tgt, e)] = c
                    rows.append(row)
            if rank(rows) != len(rows):
                return False
        return True

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
            if pbw_coordinates(represent(el)) != el:
                return False
        return True

    params = {"quiver": cfg["quiver"], "n": n}
    s.run("pbw-linear-independence", params, independence)
    s.run(
        "pbw-round-trip", dict(params, trials=cfg["trials"]), round_trip
    )
    return s.checks


def suite_grdim(cfg, rng):
    from .klr import grdim_reconciliation, make_klr

    s = _Suite()
    ctx = make_klr(_quiver(cfg["quiver"]), cfg["n"])

    def closed_form():
        for v in _klr_idempotents(ctx):
            for vp in _klr_idempotents(ctx):
                if grdim_reconciliation(ctx, v, vp) == "mismatch":
                    return False
        return True

    s.run(
        "grdim-closed-form-vs-enumeration",
        {"quiver": cfg["quiver"], "n": ctx.n},
        closed_form,
    )
    return s.checks


def suite_cyclotomic(cfg, rng):
    from .cyclotomic import (
        expected_rank,
        minimal_sl2_dimension_ledger,
        sl2_iso_check,
        verify_rank,
    )

    s = _Suite()
    max_n = cfg["n"]
    if max_n > 4:
        # the rank certificates grow factorially: n = 4 takes seconds,
        # n = 5 did not finish in minutes
        raise ValueError(f"--n must be at most 4 for the cyclotomic suite, got {max_n}")

    def ranks():
        for n in range(max_n + 1):
            for i in range(n + 2):
                if verify_rank(n, i, rng=rng, points=2) != expected_rank(
                    n, i
                ):
                    return False
        return True

    def iso():
        return all(
            sl2_iso_check(n, i, rng=rng)
            for n in range(max_n + 1)
            for i in range(n + 1)
        )

    def ledger():
        for n in range(7):
            for row in minimal_sl2_dimension_ledger(n):
                if row["ef"] - row["fe"] != row["defect"]:
                    return False
                if row["defect"] != n - 2 * row["strands"]:
                    return False
        return True

    s.run("cyclotomic-ranks", {"max_n": max_n}, ranks)
    s.run("cyclotomic-iso", {"max_n": max_n}, iso)
    s.run("cyclotomic-ef-fe-ledger", {"max_n": 6}, ledger)
    return s.checks


def suite_heckebridge(cfg, rng):
    from .heckebridge import (
        verify_affine_relations,
        verify_degenerate_relations,
    )

    s = _Suite()
    n = cfg["n"]
    window = cfg["window"]
    s.run(
        "affine-hecke-relations",
        {"n": n, "window": window},
        lambda: verify_affine_relations(n, window),
    )
    s.run(
        "degenerate-hecke-relations",
        {"n": n, "window": window},
        lambda: verify_degenerate_relations(n, window),
    )
    return s.checks


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

    s = _Suite()
    q = cfg["q"]
    quiver = a2_quiver()
    ctx = HallContext(quiver, q)

    def structure_constants():
        f1 = ctx.element(simple_rep(quiver, q, 1))
        f2 = ctx.element(simple_rep(quiver, q, 2))
        m = QuiverRep(quiver, q, (1, 1), (((1,),),))
        f12 = ctx.element(m)
        if f1.mul(f2) - f2.mul(f1) != f12:
            return False
        ms1 = ctx.element(direct_sum(m, simple_rep(quiver, q, 1)))
        return f1.mul(f12) == ms1.scale(q) and f12.mul(f1) == ms1

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
                    for l in ctx.table(dl).representatives():
                        f = ctx.hall_number(m, nrep, l)
                        p = ctx.exact_sequence_count(m, nrep, l)
                        if f * ctx.aut_order(m) * ctx.aut_order(nrep) != p:
                            return False
        return True

    def serre():
        return element_is_zero_at_v2q(
            serre_relation_check(ctx, 1, 2), q
        ) and element_is_zero_at_v2q(serre_relation_check(ctx, 2, 1), q)

    s.run("hall-a2-structure-constants", {"q": q}, structure_constants)
    s.run("hall-exact-sequence-count", {"q": q}, exact_sequences)
    s.run("hall-serre-relation", {"q": q}, serre)
    return s.checks


def suite_fock(cfg, rng):
    from .fock import (
        FockVector,
        addable_boxes,
        all_partitions,
        e_op,
        f_op,
        operator_matrix,
        removable_boxes,
    )

    s = _Suite()
    p = cfg["p"]
    max_size = cfg["max_size"]
    if p < 1:
        raise ValueError(f"--p must be at least 1, got {p}")

    def vec(parts):
        return FockVector({tuple(parts): 1})

    def example():
        lam = (3, 1)
        return (
            f_op(0, p, vec(lam)) == vec((4, 1)) + vec((3, 2))
            and f_op(1, p, vec(lam)) == vec((3, 1, 1))
            and f_op(2, p, vec(lam)).is_zero()
            and e_op(2, p, vec(lam)) == vec((2, 1)) + vec((3,))
            and e_op(0, p, vec(lam)).is_zero()
            and e_op(1, p, vec(lam)).is_zero()
        )

    def commutators():
        for size in range(max_size + 1):
            for lam in all_partitions(size):
                v = vec(lam)
                for i in range(p):
                    for j in range(p):
                        lhs = e_op(i, p, f_op(j, p, v)) - f_op(
                            j, p, e_op(i, p, v)
                        )
                        if i != j:
                            if not lhs.is_zero():
                                return False
                        else:
                            add = sum(
                                1
                                for _, _, res in addable_boxes(lam, p)
                                if res == i
                            )
                            rem = sum(
                                1
                                for _, _, res in removable_boxes(lam, p)
                                if res == i
                            )
                            if lhs != v.scale(add - rem):
                                return False
        return True

    def adjointness():
        for size in range(min(max_size, 6)):
            for i in range(p):
                rows_f, cols_f, mat_f = operator_matrix("f", i, p, size)
                rows_e, cols_e, mat_e = operator_matrix(
                    "e", i, p, size + 1
                )
                if rows_f != cols_e or cols_f != rows_e:
                    return False
                for a in range(len(rows_f)):
                    for b in range(len(cols_f)):
                        if mat_f[a][b] != mat_e[b][a]:
                            return False
        return True

    if p == 3:
        s.run("fock-p3-example", {"p": p}, example)
    s.run(
        "fock-commutators", {"p": p, "max_size": max_size}, commutators
    )
    s.run(
        "fock-transpose-adjointness",
        {"p": p, "max_size": min(max_size, 6)},
        adjointness,
    )
    return s.checks


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
    assert poly == poincare_polynomial(cfg["n"])
    return {
        "n": cfg["n"],
        "coefficients": {
            str(k): poly.coeffs[k] for k in sorted(poly.coeffs)
        },
    }


def compute_schubert_basis(cfg):
    n = cfg["n"]
    if n < 0:
        raise ValueError(f"--n must be at least 0, got {n}")
    rows = []
    for w in sorted(
        Permutation.all(n), key=lambda u: (u.length(), u.images)
    ):
        rows.append(
            {
                "word": list(w.canonical_word()),
                "polynomial": repr(schubert_basis_element(w, n)),
            }
        )
    return {"n": n, "basis": rows}


def compute_grdim(cfg):
    from .klr import hom_graded_dimension, make_klr

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
    from .hall import HallContext, a2_quiver

    q = cfg["q"]
    max_dim = tuple(int(t) for t in cfg["max_dim"].split(","))
    if len(max_dim) != 2 or min(max_dim) < 0:
        raise ValueError(
            f"--max-dim must be two nonnegative integers d1,d2, got {cfg['max_dim']}"
        )
    ctx = HallContext(a2_quiver(), q)
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
                    for l in reps[dl]:
                        f = ctx.hall_number(m, nrep, l)
                        if f:
                            fnumbers.append(
                                {
                                    "m": str(ctx.label(m)),
                                    "n": str(ctx.label(nrep)),
                                    "l": str(ctx.label(l)),
                                    "f": f,
                                }
                            )
    return {"q": q, "classes": classes, "hall_numbers": fnumbers}


def compute_fock_matrix(cfg):
    from .fock import operator_matrix

    p, i, size = cfg["p"], cfg["i"], cfg["size"]
    if p < 1:
        raise ValueError(f"--p must be at least 1, got {p}")
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
            status = "PASS" if check["pass"] else "FAIL"
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

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=sorted(_SUITES))
    ver.add_argument("--quiver", default="a2")
    ver.add_argument("--n", type=int, default=3)
    ver.add_argument("--max-deg", type=int, default=6)
    ver.add_argument("--window", type=int, default=3)
    ver.add_argument("--q", type=int, default=2)
    ver.add_argument("--p", type=int, default=3)
    ver.add_argument("--max-size", type=int, default=6)
    ver.add_argument("--trials", type=int, default=20)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument(
        "--format", choices=("json", "csv", "text"), default="json"
    )

    comp = sub.add_parser("compute", help="emit a computed table")
    comp.add_argument("what", choices=sorted(_COMPUTES))
    comp.add_argument("--quiver", default="a2")
    comp.add_argument("--n", type=int, default=3)
    comp.add_argument("--i", type=int, default=0)
    comp.add_argument("--v", default="1,2")
    comp.add_argument("--vprime", default="2,1")
    comp.add_argument("--q", type=int, default=2)
    comp.add_argument("--p", type=int, default=3)
    comp.add_argument("--size", type=int, default=4)
    comp.add_argument("--op", choices=("e", "f"), default="f")
    comp.add_argument("--max-dim", default="1,1")
    comp.add_argument("--seed", type=int, default=0)
    comp.add_argument(
        "--format", choices=("json", "csv", "text"), default="json"
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("command",) and v is not None
    }
    if args.command == "verify":
        if cfg["max_deg"] <= 0 or cfg["n"] <= 0 or cfg["window"] <= 0:
            print("caps must be positive", file=sys.stderr)
            return 2
        rng = random.Random(args.seed)
        try:
            checks = _SUITES[args.suite](cfg, rng)
        except (ValueError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = {
            "version": __version__,
            "command": "verify",
            "config": cfg,
            "checks": checks,
            "passed": all(c["pass"] for c in checks),
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

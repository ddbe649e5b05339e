"""The benchmark's workloads: fixed sets of quiverhecke certificates.

``build(workload, seed, size)`` draws every random input from the seed
as plain data (permutation images, exponents, integer coefficients,
z-values) and returns the certificates as ``(name, thunk)`` pairs.  A
thunk builds library objects from those inputs, runs the certificate and
returns a JSON value that does not depend on the seed; ``reference.json``
holds the value each certificate gave at the commit that introduced the
benchmark.  Comparisons are explicit, never ``assert``.

Library functions are looked up through their modules at call time so
that the tracer's wrappers, installed after ``build``, see the calls.
"""

import contextlib
import hashlib
import io
import itertools
import random

from quiverhecke import cli, coxeter, cyclotomic, heckebridge, klr, nilhecke, polyring

MPoly = polyring.MPoly
Permutation = coxeter.Permutation

SIZES = {
    "full": {
        "nilhecke-demazure": {
            "demazure_degree": 8, "schubert_targets": 40, "pbw_x_degree": 2,
            "random_pairs": 10, "gram_max_n": 3,
        },
        "affine-bridge": {"cases": [(2, 4), (3, 2)]},
        "klr-cyclotomic": {
            "quivers": ("a2", "a3"), "klr_n": 3, "round_trips": 30,
            "cyclo_max_n": 4, "degenerate": [(2, 4), (3, 2)],
        },
        "hall-fock": {
            "commands": [
                "compute hall-table --q 2 --max-dim 3,3",
                "compute hall-table --q 3 --max-dim 3,2",
                "verify hall --q 3",
                "verify hall --q 4",
                "verify fock --p 3 --max-size 12",
                "compute fock-matrix --p 3 --i 0 --size 14",
            ],
        },
    },
    "smoke": {
        "nilhecke-demazure": {
            "demazure_degree": 3, "schubert_targets": 4, "pbw_x_degree": 1,
            "random_pairs": 2, "gram_max_n": 2,
        },
        "affine-bridge": {"cases": [(2, 2)]},
        "klr-cyclotomic": {
            "quivers": ("a2",), "klr_n": 2, "round_trips": 2,
            "cyclo_max_n": 2, "degenerate": [(2, 2)],
        },
        "hall-fock": {
            "commands": [
                "compute hall-table --q 2 --max-dim 1,1",
                "verify hall --q 2",
                "verify fock --p 3 --max-size 5",
                "compute fock-matrix --p 3 --i 0 --size 6",
            ],
        },
    },
}

WORKLOADS = tuple(SIZES["full"])


def tally(outcomes):
    """Count cases and violations of an iterable of booleans."""
    cases = violations = 0
    for ok in outcomes:
        cases += 1
        violations += not ok
    return {"cases": cases, "violations": violations}


def monomials(n, max_deg):
    for exps in itertools.product(range(max_deg + 1), repeat=n):
        if sum(exps) <= max_deg:
            yield MPoly(n, (), {exps: 1})


# -- nilhecke-demazure ------------------------------------------------------


def _schubert_targets(rng, count):
    """Random Schubert expansions over S_3: image tuple -> (constant,
    power of e_1), with three of the six permutations present."""
    perms = list(itertools.permutations(range(1, 4)))
    targets = []
    for _ in range(count):
        chosen = {}
        for images in rng.sample(perms, 3):
            chosen[images] = (rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(3))
        targets.append(chosen)
    return targets


def _nilhecke_pairs(rng, count, n=4):
    """Random pairs of two-term nil Hecke elements x^e T_w on n strands,
    with l(w) = 2 and deg x^e = 2, so every pair costs about the same."""
    words = [(i, j) for i in range(1, n) for j in range(1, n) if i != j]
    comps = [e for e in itertools.product(range(3), repeat=n) if sum(e) == 2]

    def element():
        return [(rng.choice(words), rng.choice(comps), rng.choice([-2, -1, 1, 2]))
                for _ in range(2)]

    return [(element(), element()) for _ in range(count)]


def _nilhecke_element(spec, n=4):
    el = nilhecke.NilHeckeElement.zero(n)
    for word, exps, coeff in spec:
        el = el + nilhecke.NilHeckeElement.from_poly(
            MPoly(n, (), {exps: coeff})
        ) * nilhecke.NilHeckeElement.t_perm(Permutation.from_word(list(word), n))
    return el


def nilhecke_demazure(rng, cfg):
    """Criteria 2 and 3: Demazure relations, staircase, Schubert round
    trip, PBW products against operators, b_m, t' symmetry, Gram unit."""
    targets = _schubert_targets(rng, cfg["schubert_targets"])
    pairs = _nilhecke_pairs(rng, cfg["random_pairs"])

    def demazure_relations():
        def outcomes():
            for p in monomials(4, cfg["demazure_degree"]):
                for i in range(1, 4):
                    yield p.demazure(i).demazure(i).is_zero()
                yield p.demazure(1).demazure(3) == p.demazure(3).demazure(1)
                for i in (1, 2):
                    yield (p.demazure(i).demazure(i + 1).demazure(i)
                           == p.demazure(i + 1).demazure(i).demazure(i + 1))
        return tally(outcomes())

    def staircase():
        return tally(
            polyring.staircase_monomial(m).demazure_perm(Permutation.longest(m))
            == MPoly.one(m)
            for m in range(2, 6)
        )

    def schubert_round_trip():
        def outcomes():
            e1 = polyring.elementary_symmetric(1, 3)
            for chosen in targets:
                expected, target = {}, MPoly.zero(3)
                for images, (const, power) in chosen.items():
                    w = Permutation(images)
                    coeff = MPoly.const(const, 3)
                    if power:
                        coeff = coeff + e1 ** power
                    expected[w] = coeff
                    target = target + coeff * polyring.schubert_basis_element(w, 3)
                yield polyring.schubert_coordinates(target, 3) == expected
        return tally(outcomes())

    def pbw_vs_operators():
        basis = [
            nilhecke.NilHeckeElement.from_poly(p) * nilhecke.NilHeckeElement.t_perm(w)
            for w in Permutation.all(3)
            for p in monomials(3, cfg["pbw_x_degree"])
        ]
        test_poly = MPoly(3, (), {(1, 2, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1})
        images = [(b, b.apply_to_polynomial(test_poly)) for b in basis]
        return tally(
            (a * b).apply_to_polynomial(test_poly) == a.apply_to_polynomial(bq)
            for a in basis
            for b, bq in images
        )

    def idempotents():
        return tally(
            nilhecke.idempotent_b(m) * nilhecke.idempotent_b(m) == nilhecke.idempotent_b(m)
            for m in range(2, 5)
        )

    def tprime_symmetry():
        finite = [nilhecke.NilHeckeElement.t_perm(w) for w in Permutation.all(3)]
        exhaustive = (
            (a * b).trace_tprime() == (b * a).trace_tprime()
            for a in finite
            for b in finite
        )
        random_pairs = (
            (a * b).trace_tprime() == (b * a).trace_tprime()
            for a, b in (
                (_nilhecke_element(sa), _nilhecke_element(sb)) for sa, sb in pairs
            )
        )
        return tally(itertools.chain(exhaustive, random_pairs))

    def gram_determinant():
        return [nilhecke.frobenius_gram_determinant(m) for m in range(2, cfg["gram_max_n"] + 1)]

    return [
        ("demazure-relations", demazure_relations),
        ("staircase-longest-word", staircase),
        ("schubert-round-trip", schubert_round_trip),
        ("pbw-product-vs-operators", pbw_vs_operators),
        ("idempotent-b-squared", idempotents),
        ("tprime-symmetry", tprime_symmetry),
        ("gram-determinant", gram_determinant),
    ]


# -- affine-bridge ----------------------------------------------------------


def affine_bridge(rng, cfg):
    """Criterion 6, affine mode: QScalar arithmetic in the Hecke bridge.
    No random inputs."""
    return [
        (f"affine-relations-n{n}-w{w}",
         lambda n=n, w=w: heckebridge.verify_affine_relations(n, w) is True)
        for n, w in cfg["cases"]
    ]


# -- klr-cyclotomic ---------------------------------------------------------


QUIVERS = {"a2": 2, "a3": 3}


def _klr_context(quiver, n):
    return klr.make_klr(klr.linear_quiver(QUIVERS[quiver]), n)


def _pbw_term(rng, idems, perms, n):
    return (rng.choice(idems), rng.choice(perms),
            tuple(rng.randrange(2) for _ in range(n)), rng.choice([1, -1, 2]))


def _pbw_specs(rng, quiver, n, count):
    """Random two-term PBW elements, as (idempotent, permutation images,
    exponents, coefficient) per term, and random composable pairs: a
    one-term b and a two-term a whose idempotent is b's target."""
    idems = list(itertools.product(range(1, QUIVERS[quiver] + 1), repeat=n))
    perms = list(itertools.permutations(range(1, n + 1)))
    elements = [[_pbw_term(rng, idems, perms, n) for _ in range(2)] for _ in range(count)]
    pairs = [
        ([_pbw_term(rng, idems, perms, n)],
         [_pbw_term(rng, idems, perms, n)[1:] for _ in range(2)])
        for _ in range(count)
    ]
    return elements, pairs


def _pbw_element(ctx, spec):
    el = klr.KLRElement.zero(ctx)
    for v, images, exps, coeff in spec:
        el = el + klr.KLRElement.basis_word(ctx, v, Permutation(images), exps).scale(coeff)
    return el


def klr_cyclotomic(rng, cfg):
    """Criteria 4 and 5 and the degenerate Hecke bridge: KLR rewriting and
    the polynomial representation with Q-matrix parameters, exact rank
    over Fraction and mod p, HeckeBridge operators over Fraction."""
    n = cfg["klr_n"]
    specs = {q: _pbw_specs(rng, q, n, cfg["round_trips"]) for q in cfg["quivers"]}
    z_values = {
        m: tuple(rng.randint(-5, 5) for _ in range(m))
        for m in range(cfg["cyclo_max_n"] + 1)
    }

    def suite_summary(checks):
        return [[c["name"], c["pass"]] for c in checks]

    def klr_relations(quiver):
        return suite_summary(cli.suite_klr_relations(
            {"quiver": quiver, "n": n, "max_deg": 6}, None))

    def pbw_independence(quiver):
        checks = cli.suite_pbw({"quiver": quiver, "n": n, "trials": 0}, None)
        return suite_summary(c for c in checks if c["name"] == "pbw-linear-independence")

    def pbw_round_trip(quiver):
        ctx = _klr_context(quiver, n)
        return tally(
            klr.pbw_coordinates(klr.represent(el)) == el
            for el in (_pbw_element(ctx, s) for s in specs[quiver][0])
        )

    def product_vs_apply(quiver):
        ctx = _klr_context(quiver, n)
        x = [MPoly.x(j, n, ctx.params) for j in (1, 2)]
        module = {v: x[0] * x[0] + x[1] + MPoly.one(n, ctx.params)
                  for v in itertools.product(ctx.quiver.vertices, repeat=n)}

        def outcomes():
            for b_spec, a_terms in specs[quiver][1]:
                b = _pbw_element(ctx, b_spec)
                (v, images, _, _), = b_spec
                target = Permutation(images).act_on_list(v)
                a = _pbw_element(ctx, [(target,) + term for term in a_terms])
                yield (a * b).apply(module) == a.apply(b.apply(module))
        return tally(outcomes())

    def grdim(quiver):
        return [suite_summary(cli.suite_grdim({"quiver": quiver, "n": m}, None))
                for m in range(1, n + 1)]

    def torsion():
        ctx = klr.make_klr(klr.linear_quiver(2), 3)
        return repr(klr.torsion_check(ctx, (1, 2, 1)))

    def cyclotomic_ranks():
        # z = 0 is covered by sl2_iso_check, through verify_rank
        return {
            f"{m},{i}": cyclotomic.spanning_rank(m, i, z_values[m])
            for m in range(cfg["cyclo_max_n"] + 1)
            for i in range(m + 3)
        }

    def sl2_iso():
        return tally(
            cyclotomic.sl2_iso_check(m, i) is True
            for m in range(cfg["cyclo_max_n"] + 1)
            for i in range(m + 1)
        )

    def ledger():
        def outcomes():
            for m in range(7):
                for row in cyclotomic.minimal_sl2_dimension_ledger(m):
                    yield row["ef"] - row["fe"] == m - 2 * row["strands"] == row["defect"]
        return tally(outcomes())

    certs = []
    for q in cfg["quivers"]:
        certs += [
            (f"klr-relations-{q}", lambda q=q: klr_relations(q)),
            (f"pbw-independence-{q}", lambda q=q: pbw_independence(q)),
            (f"pbw-round-trip-{q}", lambda q=q: pbw_round_trip(q)),
            (f"klr-product-vs-apply-{q}", lambda q=q: product_vs_apply(q)),
            (f"grdim-{q}", lambda q=q: grdim(q)),
        ]
    certs += [
        ("torsion-a2", torsion),
        ("cyclotomic-ranks", cyclotomic_ranks),
        ("cyclotomic-sl2-iso", sl2_iso),
        ("cyclotomic-ef-fe-ledger", ledger),
    ]
    certs += [
        (f"degenerate-relations-n{m}-w{w}",
         lambda m=m, w=w: heckebridge.verify_degenerate_relations(m, w) is True)
        for m, w in cfg["degenerate"]
    ]
    return certs


# -- hall-fock --------------------------------------------------------------


def run_cli(command):
    """Run ``quiverhecke <command>`` in this process; exit code and the
    sha256 of its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.split())
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def hall_fock(rng, cfg):
    """Hall tables, Hall and Fock suites and a Fock matrix through the CLI.
    No random inputs."""
    return [(command, lambda c=command: run_cli(c)) for command in cfg["commands"]]


CERTIFICATE_SETS = {
    "nilhecke-demazure": nilhecke_demazure,
    "affine-bridge": affine_bridge,
    "klr-cyclotomic": klr_cyclotomic,
    "hall-fock": hall_fock,
}


def build(workload, seed, size):
    """The workload's certificates, with inputs drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    return CERTIFICATE_SETS[workload](rng, SIZES[size][workload])


def negative_control(workload, expected):
    """Break one certificate of the workload on purpose.

    Returns the expected values to compare against.  The affine bridge
    gets a wrong operator (T_1 with its sign flipped), which its relation
    check must reject; the others get one wrong expected value.
    """
    expected = dict(expected)
    if workload == "affine-bridge":
        original = heckebridge.HeckeBridge.affine_T

        def flipped(self, i, el):
            out = original(self, i, el)
            return self.neg_el(out) if i == 1 else out

        heckebridge.HeckeBridge.affine_T = flipped
    elif workload == "nilhecke-demazure":
        expected["gram-determinant"] = [2] * len(expected["gram-determinant"])
    elif workload == "klr-cyclotomic":
        ranks = dict(expected["cyclotomic-ranks"])
        ranks["2,1"] += 1
        expected["cyclotomic-ranks"] = ranks
    else:
        name = next(iter(expected))
        digest = expected[name]["stdout_sha256"]
        expected[name] = dict(expected[name], stdout_sha256=digest[::-1])
    return expected

"""Every function and method in src/quiverhecke is used by the program.

A def counts as used when its name is referenced (as a name or as an
attribute) in src/ outside the def itself, or appears as a word in
perfbench/, which is read as text and never imported or written.  The
match is by name, not by owner, so it cannot see a method whose name
another def shares; it catches what no code mentions at all.  Dunders
are exempt.  The rest is listed in TEST_ONLY with the reason it stays;
the list should only shrink, each entry becoming a ``verify`` check or
moving into tests/."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "quiverhecke"
PERFBENCH = ROOT / "perfbench"

TEST_ONLY = {
    # paper content that only tests reach today
    "gamma": "nil Hecke automorphism gamma, inner by the longest group element",
    "trace_t": "nil Hecke trace t, twisted symmetric under gamma",
    "trace_t0": "Frobenius form on the finite nil Hecke part",
    "central_ideal_probe": "KLR central-ideal certificate, not yet a verify check",
    "reduced_cyclotomic_graded_dims": "graded dimensions of reduced cyclotomic KLR quotients",
    "ideal_stability_check": "well-definedness of the cyclotomic quotient action",
    "weight_space_dims_fock_check": "Fock weight spaces grouped by residue content",
    "d_op": "Fock space degree operator d",
    "weight_pairing": "Fock space weight pairing with a simple coroot",
    "transpose": "conjugate partition",
    "filtration_count": "Hall algebra filtration count of a composite product",
    "jordan_quiver": "one-loop quiver: conjugacy classes of matrices",
    # test oracles and small helpers
    "count_monomials_by_degree": "enumerative oracle for grdim_polynomial_ring",
    "is_reduced": "reduced-word test for Coxeter words",
    "is_identity": "identity test for permutations",
}


def _defs_and_references():
    defs, refs = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((node.name, path.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, path.name, node.lineno))
    return defs, refs


def _unreferenced():
    defs, refs = _defs_and_references()
    perfbench_words = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        perfbench_words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    out = set()
    for name, file, start, end in defs:
        if name.startswith("__") and name.endswith("__") or name in perfbench_words:
            continue
        if not any(
            ref == name and not (ref_file == file and start <= line <= end)
            for ref, ref_file, line in refs
        ):
            out.add(name)
    return out


def test_every_def_has_a_caller_or_a_reason():
    unreferenced = _unreferenced()
    assert unreferenced <= TEST_ONLY.keys(), sorted(unreferenced - TEST_ONLY.keys())


def test_test_only_entries_are_still_unreferenced():
    # an entry the program now calls, or that is gone, leaves the list
    unreferenced = _unreferenced()
    assert TEST_ONLY.keys() <= unreferenced, sorted(TEST_ONLY.keys() - unreferenced)

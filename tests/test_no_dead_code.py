"""Every function and method in src/quiverhecke is used by the program.

A def counts as used when its name is referenced (as a name or as an
attribute) in src/ outside the def itself, or appears in perfbench/ as an
identifier or as a word of a string constant other than a docstring;
perfbench/ is parsed, never imported or written.  A name that is a
parameter or an assigned local of an enclosing function refers to that
variable, so it is not a reference.  The match is by name, not by owner,
so it cannot see a method whose name another def shares; it catches what
no code mentions at all.  Dunders are exempt.  The rest is listed in
TEST_ONLY with the reason it stays; the list should only shrink, each
entry becoming a ``verify`` check or moving into tests/."""

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
    "sigma": "Nakayama automorphism of the finite nil Hecke part, twisting trace_t0",
    "central_ideal_probe": "KLR central-ideal certificate, not yet a verify check",
    "reduced_cyclotomic_graded_dims": "graded dimensions of reduced cyclotomic KLR quotients",
    "ideal_stability_check": "well-definedness of the cyclotomic quotient action",
    "weight_space_dims_fock_check": "Fock weight spaces grouped by residue content",
    "d_op": "Fock space degree operator d",
    "transpose": "conjugate partition",
    "filtration_count": "Hall algebra filtration count of a composite product",
    "jordan_quiver": "one-loop quiver: conjugacy classes of matrices",
}


def _function_locals(fn):
    """The parameters and assigned names of a function or lambda, not
    counting the functions nested in it or names declared global."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a)
    declared = set()
    todo = [fn.body] if isinstance(fn, ast.Lambda) else list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return names - declared


def _defs_and_references():
    defs, refs = [], []

    def visit(node, file, shadowed):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((node.name, file, node.lineno, node.end_lineno))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            shadowed = shadowed | _function_locals(node)
        elif isinstance(node, ast.Name) and node.id not in shadowed:
            refs.append((node.id, file, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, file, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, file, shadowed)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, frozenset())
    return defs, refs


def _perfbench_words():
    """Identifiers, and the words of string constants that are not
    docstrings, in perfbench/."""
    words = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                words.add(node.id)
            elif isinstance(node, ast.Attribute):
                words.add(node.attr)
            elif isinstance(node, ast.alias):
                words.update(node.name.split("."))
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
            ):
                words.update(re.findall(r"\w+", node.value))
    return words


def _unreferenced():
    defs, refs = _defs_and_references()
    perfbench_words = _perfbench_words()
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

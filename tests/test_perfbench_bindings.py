"""The benchmark tracer (perfbench/tracer.py) wraps library functions it
finds by name in their owners' own namespaces, and the workloads
(perfbench/workloads.py) call the library by attribute.  The tier-1 suite
does not collect perfbench/, so these tests keep a renamed function, or a
method moved into a base class, from failing only the benchmark.  The
tracer is read from its file and executed here, the workloads are only
parsed; nothing under perfbench/ is imported as a package or written."""

import ast
import importlib
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def owner_and_name(mod, path):
    module = importlib.import_module("quiverhecke." + mod)
    if "." in path:
        cls_name, attr = path.split(".")
        return getattr(module, cls_name), attr
    return module, path


def test_traced_names_are_bound_in_their_owners():
    tracer = load_tracer()
    paths = [p for fns in tracer.LAYERS.values() for p in fns.values()]
    paths += list(tracer.SPAN_POINTS)
    for mod, path in paths:
        owner, attr = owner_and_name(mod, path)
        assert attr in vars(owner), f"{mod}.{path} is not bound in its owner's own namespace"


def test_cache_entries_reads_existing_caches():
    sizes = load_tracer().cache_entries()
    assert sizes and all(isinstance(n, int) and n >= 0 for n in sizes.values())



def test_workload_attribute_chains_resolve():
    # the roots the workloads bind: their `from quiverhecke import ...`
    # modules, the two class aliases, and `self` in the affine-bridge
    # negative control, which replaces HeckeBridge.affine_T
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    roots = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "quiverhecke":
            for alias in node.names:
                roots[alias.asname or alias.name] = importlib.import_module(
                    "quiverhecke." + alias.name
                )
    assert len(roots) == 7
    roots["MPoly"] = roots["polyring"].MPoly
    roots["Permutation"] = roots["coxeter"].Permutation
    roots["self"] = roots["heckebridge"].HeckeBridge
    chains = set()
    for node in ast.walk(tree):
        names, base = [], node
        while isinstance(base, ast.Attribute):
            names.append(base.attr)
            base = base.value
        if names and isinstance(base, ast.Name) and base.id in roots:
            chains.add((base.id, *reversed(names)))
    assert ("self", "neg_el") in chains and ("cli", "main") in chains
    for root, *names in sorted(chains):
        owner = roots[root]
        for name in names:
            assert hasattr(owner, name), f"{'.'.join([root, *names])} does not resolve"
            owner = getattr(owner, name)

"""The benchmark tracer (perfbench/tracer.py) wraps library functions it
finds by name in their owners' own namespaces.  The tier-1 suite does not
collect perfbench/, so these tests keep a renamed function, or a method
moved into a base class, from failing only the benchmark.  The tracer is
read from its file and executed here; nothing under perfbench/ is
imported as a package or written."""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


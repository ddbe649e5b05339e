"""Per-layer tracing of the quiverhecke modules, installed from outside.

``Tracer.install()`` replaces each public function named in ``LAYERS`` by
a wrapper that counts calls and accumulates self time (wall time minus the
time spent in wrapped calls made from inside it).  Counts and times are
kept per function, never per call, so the trace stays bounded at millions
of calls.  Spans (name, start, end, parent) are recorded only for the
coarse entry points in ``SPAN_POINTS`` and for the certificate boundaries
the benchmark itself marks with ``Tracer.span``.  ``Tracer.uninstall()``
puts every original object back.

A function is replaced wherever it is bound: in its class (including
aliases such as ``__radd__ = __add__``) and in every loaded
``quiverhecke`` module that imported it by name.
"""

import importlib
import sys
import time
from contextlib import contextmanager

# layer -> {metric name: (module, attribute path)}
LAYERS = {
    "coxeter": {
        "permutations": ("coxeter", "Permutation.all"),
        "from_word": ("coxeter", "Permutation.from_word"),
        "canonical_word": ("coxeter", "Permutation.canonical_word"),
    },
    "laurent": {
        "mul": ("laurent", "Laurent.__mul__"),
        "add": ("laurent", "Laurent.__add__"),
    },
    "polyring": {
        "mul": ("polyring", "MPoly.__mul__"),
        "add": ("polyring", "MPoly.__add__"),
        "demazure": ("polyring", "MPoly.demazure"),
        "try_divide": ("polyring", "try_divide_by_x_difference"),
        "divide_exact": ("polyring", "divide_exact_by_x_difference"),
        "schubert_coordinates": ("polyring", "schubert_coordinates"),
    },
    "nilhecke": {
        "mul": ("nilhecke", "NilHeckeElement.__mul__"),
        "apply_to_polynomial": ("nilhecke", "NilHeckeElement.apply_to_polynomial"),
        "trace_tprime": ("nilhecke", "NilHeckeElement.trace_tprime"),
        "gram_determinant": ("nilhecke", "frobenius_gram_determinant"),
    },
    "klr": {
        "mul": ("klr", "KLRElement.__mul__"),
        "apply": ("klr", "KLRElement.apply"),
        "represent": ("klr", "represent"),
        "pbw_coordinates": ("klr", "pbw_coordinates"),
        "hom_graded_dimension": ("klr", "hom_graded_dimension"),
        "torsion_check": ("klr", "torsion_check"),
    },
    "cyclotomic": {
        "spanning_rank": ("cyclotomic", "spanning_rank"),
        "reduce": ("cyclotomic", "CycloContext.reduce"),
        "sl2_iso_check": ("cyclotomic", "sl2_iso_check"),
    },
    "heckebridge": {
        "qscalar_add": ("heckebridge", "QScalar.__add__"),
        "qscalar_mul": ("heckebridge", "QScalar.__mul__"),
        "qscalar_inverse": ("heckebridge", "QScalar.inverse"),
        "affine_T": ("heckebridge", "HeckeBridge.affine_T"),
        "degenerate_s": ("heckebridge", "HeckeBridge.degenerate_s"),
        "X": ("heckebridge", "HeckeBridge.X"),
        "tau": ("heckebridge", "HeckeBridge.tau"),
    },
    "hall": {
        "rref": ("hall", "rref"),
        "mat_mul": ("hall", "mat_mul"),
        "mat_inverse": ("hall", "mat_inverse"),
        "act": ("hall", "act"),
        "table": ("hall", "HallContext.table"),
        "hall_number": ("hall", "HallContext.hall_number"),
        "exact_sequence_count": ("hall", "HallContext.exact_sequence_count"),
    },
    "fock": {
        "f_op": ("fock", "f_op"),
        "e_op": ("fock", "e_op"),
        "operator_matrix": ("fock", "operator_matrix"),
    },
    "cli": {
        "main": ("cli", "main"),
    },
}

# coarse entry points that get a span (and no self-time accounting)
SPAN_POINTS = [
    ("heckebridge", "verify_affine_relations"),
    ("heckebridge", "verify_degenerate_relations"),
    ("cyclotomic", "verify_rank"),
    ("cli", "suite_klr_relations"),
    ("cli", "suite_pbw"),
    ("cli", "suite_grdim"),
    ("cli", "main"),
]


def _module(name):
    return importlib.import_module("quiverhecke." + name)


def _mark(wrapper, func):
    wrapper.__name__ = func.__name__
    wrapper.__qualname__ = func.__qualname__
    wrapper.perfbench_original = func
    return wrapper


def cache_entries():
    """Sizes of the module-level caches, read from outside the program."""
    from quiverhecke import coxeter, hall, heckebridge, klr

    return {
        "coxeter.canonical_word_cache_entries": coxeter._canonical_word.cache_info().currsize,
        "klr.push_cache_entries": len(klr._PUSH_CACHE),
        "heckebridge.unit_polys_entries": len(heckebridge._UNIT_POLYS),
        "hall.field_cache_entries": hall.field.cache_info().currsize,
    }


class Tracer:
    """Call counts, self times and coarse spans of one traced pass."""

    def __init__(self):
        self.stats = {}  # "<layer>.<fn>" -> [calls, self seconds]
        self.spans = []
        self._child_time = [0.0]  # one accumulator per active wrapped call
        self._span_stack = []
        self._patches = []  # (owner, attribute, original raw object)

    # -- installing and removing wrappers -------------------------------

    def install(self):
        for layer in LAYERS:  # load every layer before scanning for bindings
            _module(layer)
        for layer, fns in LAYERS.items():
            for fn_name, (mod, path) in fns.items():
                key = f"{layer}.{fn_name}"
                self.stats[key] = [0, 0.0]
                self._replace(mod, path, lambda f, k=key: self._counting(k, f))
        for mod, path in SPAN_POINTS:
            name = f"{mod}.{path}"
            self._replace(mod, path, lambda f, n=name: self._spanning(n, f))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _replace(self, mod, path, make_wrapper):
        module = _module(mod)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
        else:
            owner, attr = module, path
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            func = raw.__func__
            wrapped = staticmethod(make_wrapper(func))
        else:
            func = raw
            wrapped = make_wrapper(func)
        # every binding of the same object: class aliases and by-name imports
        owners = [owner] + [
            m for name, m in sorted(sys.modules.items())
            if name.startswith("quiverhecke") and m is not module
        ]
        for target in owners:
            for name, value in list(vars(target).items()):
                if value is raw:
                    self._patches.append((target, name, value))
                    setattr(target, name, wrapped)

    # -- wrappers ---------------------------------------------------------

    def _counting(self, key, func):
        stat = self.stats[key]
        child_time = self._child_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_time.pop()
                stat[0] += 1
                stat[1] += elapsed - inner
                child_time[-1] += elapsed

        return _mark(wrapper, func)

    def _spanning(self, name, func):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return _mark(wrapper, func)

    @contextmanager
    def span(self, name):
        """Record one span around a coarse step; spans nest."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._span_stack[-1] if self._span_stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._span_stack.append(record["id"])
        try:
            yield
        finally:
            self._span_stack.pop()
            record["end"] = time.perf_counter()

    # -- results ----------------------------------------------------------

    def layer_metrics(self):
        """Per-function and per-layer calls and self seconds."""
        out = {}
        for layer, fns in LAYERS.items():
            calls, self_s = 0, 0.0
            for fn_name in fns:
                n, s = self.stats[f"{layer}.{fn_name}"]
                out[f"{layer}.{fn_name}.calls"] = n
                out[f"{layer}.{fn_name}.self_s"] = s
                calls += n
                self_s += s
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        return out


def wrapped_leftovers():
    """Names of library attributes that are still benchmark wrappers."""
    left = []
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("quiverhecke"):
            continue
        for attr, value in vars(module).items():
            targets = [(attr, value)]
            if isinstance(value, type) and value.__module__ == name:
                targets += [(f"{attr}.{a}", v) for a, v in vars(value).items()]
            for label, obj in targets:
                if isinstance(obj, staticmethod):
                    obj = obj.__func__
                if hasattr(obj, "perfbench_original"):
                    left.append(f"{name}.{label}")
    return left

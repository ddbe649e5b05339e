"""One pass of one workload, in the fresh interpreter ``run.py`` starts.

Builds the workload's inputs from the seed, runs every certificate once,
compares each value with ``reference.json`` and prints one JSON line:
the pass's wall time (first certificate call to last result), peak RSS,
the certificates attempted and failed, and with ``--trace 1`` the
per-layer counts and self times, the cache sizes and the spans.

    python3 perfbench/child.py --workload hall-fock --seed 1 --trace 0

``--control`` breaks one certificate on purpose (the negative control);
``--record`` prints the values instead of comparing them.
"""

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--control", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if sys.flags.optimize:
        sys.exit("refusing to run under -O: the library's asserts would not check")

    import numpy

    import speed
    import tracer
    import workloads

    certificates = workloads.build(args.workload, args.seed, args.size)
    expected = {}
    if not args.record:
        expected = json.loads(REFERENCE.read_text())[args.size][args.workload]
        if args.control:
            expected = workloads.negative_control(args.workload, expected)

    trace = tracer.Tracer() if args.trace else None
    if trace:
        trace.install()
    sampler = contextlib.nullcontext() if trace else speed.Sampler()
    start = time.perf_counter()
    with sampler:
        values, failures = run_certificates(certificates, expected, args.record, trace)
    wall_s = time.perf_counter() - start
    if not trace:  # the program's own time: without the sampler's pauses
        wall_s -= sampler.busy_s

    result = {
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(certificates),
        "failed": len(failures),
        "failures": failures,
        "numpy": numpy.__version__,
    }
    if not trace:
        result["kernel_s"] = speed.typical(sampler.samples)
        result["ref_wall_s"] = speed.rescale(wall_s, sampler.samples)
    if args.record:
        result["values"] = values
    if trace:
        trace.uninstall()
        result["layers"] = trace.layer_metrics()
        result["caches"] = tracer.cache_entries()
        result["spans"] = trace.spans
        result["leftover_wrappers"] = tracer.wrapped_leftovers()
    print(json.dumps(result))


def run_certificates(certificates, expected, record, trace):
    """Run each certificate once; its values and its failures."""
    values, failures = {}, []
    for name, certificate in certificates:
        try:
            with trace.span(f"certificate:{name}") if trace else contextlib.nullcontext():
                value = certificate()
        except Exception as exc:  # a certificate that raises has failed
            failures.append({"name": name, "error": f"{type(exc).__name__}: {exc}"})
            continue
        value = json.loads(json.dumps(value))
        values[name] = value
        if not record and value != expected.get(name):
            failures.append({"name": name, "got": value, "expected": expected.get(name)})
    return values, failures


if __name__ == "__main__":
    main()

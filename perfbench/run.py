"""quiverhecke certificate benchmark: the runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The runner is one process that starts
fresh interpreters one at a time, so module-level caches start empty in
every pass, as they do for a command-line user.

With ``--trace 0`` it first times ``SETUP_REPEATS`` fresh interpreters
that import numpy and every ``quiverhecke`` module, then runs untraced
passes of the workload for ``--seconds`` seconds (at least
``MIN_PASSES``).  It reports

- ``wall_s``: median over passes of the time from the first certificate
  call to the last result;
- ``setup_s``: median over interpreters of the time from interpreter
  start until the imports are done;
- ``peak_rss_mb``: median over passes of the pass's peak resident memory;
- ``checks_passed_ratio``: certificates that returned their reference
  value, over certificates attempted.

``wall_s`` and ``setup_s`` are rescaled to a reference interpreter speed
measured while they ran (see ``speed.py``); the raw times are in the
result record.

With ``--trace 1`` it runs one untraced and two traced passes, then
alternates the two while time remains.  It reports per-function and
per-layer call counts, which must repeat exactly between traced passes
(as must the cache sizes), median self times, and the raw untraced and
traced wall times with their difference, the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (the
environment, every pass with its raw times, failures, per-layer counts
and spans) is written to ``.perfbench-out/`` when the run ends.

Every child runs with a pinned environment: ``PYTHONPATH=src``,
``PYTHONHASHSEED=0``, no ``PYTHONOPTIMIZE``, bytecode cached under
``.perfbench-out/pycache`` (``PYTHONPYCACHEPREFIX``, warmed before any
timing) and one BLAS thread.  The runner refuses to run under ``-O``
or with ``PYTHONOPTIMIZE`` set: the library's assert-based checks would
then pass without checking anything.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 9
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150

# Times the imports from interpreter start, then the speed kernel right after.
IMPORT_ALL = f"""\
import time
import importlib, pkgutil, numpy, quiverhecke
for m in pkgutil.iter_modules(quiverhecke.__path__):
    importlib.import_module('quiverhecke.' + m.name)
end = time.monotonic()
import json, sys
sys.path.insert(0, {str(HERE)!r})
import speed
print(json.dumps([end, [speed.kernel_time() for _ in range(20)]]))
"""

ENV_PINS = {
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONHASHSEED": "0",
    "PYTHONPYCACHEPREFIX": str(OUT / "pycache"),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env():
    """The parent's environment without any PYTHON* variable, plus the pins."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(ENV_PINS)
    return env


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def run_child(workload, seed, size, trace, extra=()):
    """One pass in a fresh interpreter; its parsed JSON result."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(int(trace)), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def time_imports():
    """Seconds from starting a fresh interpreter until it has imported numpy
    and every quiverhecke module: (raw, rescaled to the reference speed)."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALL], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"importing the package failed:\n{proc.stderr[-2000:]}")
    end, samples = json.loads(proc.stdout)
    return end - start, speed.rescale(end - start, samples)


def git_sha():
    """The checkout's commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(numpy_version):
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": sys.version,
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "child_env": ENV_PINS,
        "bytecode": "cached under PYTHONPYCACHEPREFIX, warmed before timing",
    }


def untraced_run(workload, seed, size, seconds):
    """Set-up timings, then passes for ``seconds``; (metrics, passes, setups)."""
    time_imports()  # fills the bytecode cache
    setups = [time_imports() for _ in range(SETUP_REPEATS)]
    passes, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_child(workload, seed, size, trace=False))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
            break
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "wall_s": (statistics.median(p["ref_wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(rescaled for _, rescaled in setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "checks_passed_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, passes, setups


def traced_run(workload, seed, size, seconds):
    """Untraced and traced passes; (metrics, passes, consistency problems)."""
    plan = [False, True, True]
    passes, durations = [], []
    start = time.perf_counter()
    while True:
        traced = plan.pop(0) if plan else len(passes) % 2 == 0
        t0 = time.perf_counter()
        result = run_child(workload, seed, size, trace=traced)
        result["traced"] = traced
        passes.append(result)
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if not plan and elapsed + max(durations) > seconds:
            break
    traced_passes = [p for p in passes if p["traced"]]
    untraced = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
    problems = []
    first = traced_passes[0]
    for other in traced_passes[1:]:
        for key, value in first["layers"].items():
            if key.endswith(".calls") and other["layers"][key] != value:
                problems.append(f"{key}: {value} != {other['layers'][key]}")
        if other["caches"] != first["caches"]:
            problems.append(f"caches: {first['caches']} != {other['caches']}")
    for p in traced_passes:
        problems += [f"wrapper left on {name}" for name in p["leftover_wrappers"]]
    metrics = {}
    for key, value in first["layers"].items():
        if key.endswith(".calls"):
            metrics[key] = (value, "count")
        else:
            metrics[key] = (statistics.median(p["layers"][key] for p in traced_passes), "s")
    for key, value in first["caches"].items():
        metrics[key] = (value, "count")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced, "s")
    return metrics, passes, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        print("refusing to run with -O or PYTHONOPTIMIZE: the library's "
              "assert-based certificates would pass without checking", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "quiverhecke" / "__init__.py").is_file():
        print(f"no quiverhecke sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = json.loads((HERE / "reference.json").read_text())["full"]
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, passes, problems = traced_run(args.workload, args.seed, args.size, args.seconds)
            setups = None
        else:
            metrics, passes, setups = untraced_run(args.workload, args.seed, args.size, args.seconds)
            problems = []
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for failure in p["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    for problem in problems:
        print(f"INCONSISTENT {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  size=args.size, environment=environment(passes[0]["numpy"]),
                  setup_raw_s=setups and [raw for raw, _ in setups],
                  setup_rescaled_s=setups and [rescaled for _, rescaled in setups],
                  problems=problems, passes=passes)
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

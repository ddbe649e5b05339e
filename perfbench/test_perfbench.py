"""The benchmark's own tests, at smoke size:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer

sys.path.insert(0, str(run.ROOT / "src"))
import workloads  # noqa: E402  (needs the sources on the path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args, cwd=run.ROOT, env=None, python=(sys.executable,)):
    return subprocess.run([*python, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def smoke(workload, trace, seed=1):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_lists_agree():
    reference = json.loads((run.HERE / "reference.json").read_text())
    assert WORKLOADS == list(workloads.WORKLOADS)
    for size in ("full", "smoke"):
        assert sorted(reference[size]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert result["metrics"]["checks_passed_ratio"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_call_counts_repeat_between_traced_runs():
    first, second = (smoke("klr-cyclotomic", 1, seed=7) for _ in range(2))
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if not k.endswith("_s")}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["klr.calls"] > 0


def test_no_wrapper_remains_after_a_traced_pass():
    originals = {}
    for fns in tracer.LAYERS.values():
        for mod, path in fns.values():
            owner = tracer._module(mod)
            if "." in path:
                cls, path = path.split(".")
                owner = getattr(owner, cls)
            originals[(owner, path)] = owner.__dict__[path]
    trace = tracer.Tracer()
    trace.install()
    try:
        assert tracer.wrapped_leftovers()
        for _, certificate in workloads.build("klr-cyclotomic", 0, "smoke"):
            certificate()
    finally:
        trace.uninstall()
    assert tracer.wrapped_leftovers() == []
    for (owner, attr), raw in originals.items():
        assert owner.__dict__[attr] is raw
    assert trace.layer_metrics()["polyring.calls"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_negative_control_fails(workload):
    honest = run.run_child(workload, 0, "smoke", trace=False)
    broken = run.run_child(workload, 0, "smoke", trace=False, extra=["--control"])
    assert honest["failed"] == 0
    assert broken["failed"] / broken["attempted"] > 0


@pytest.mark.parametrize("seed", [0, 11])
def test_certificates_pass_on_other_seeds(seed):
    for workload in WORKLOADS:
        result = run.run_child(workload, seed, "smoke", trace=False)
        assert result["failed"] == 0, result["failures"]


def test_refuses_to_run_optimized():
    args = ("--workload", "hall-fock", "--seed", "1", "--seconds", "1", "--trace", "0",
            "--size", "smoke")
    proc = bench(*args, python=(sys.executable, "-O"))
    assert proc.returncode == 2 and proc.stdout == ""
    proc = bench(*args, env=dict(os.environ, PYTHONOPTIMIZE="1"))
    assert proc.returncode == 2 and proc.stdout == ""


def test_fails_without_the_sources():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "hall-fock", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and proc.stdout == ""
    finally:
        shutil.rmtree(bare)

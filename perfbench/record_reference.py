"""Write ``reference.json``: every certificate's value, per size and workload.

Run from the repository root on the commit whose outputs are the
reference; each workload runs in its own fresh interpreter:

    python3 perfbench/record_reference.py
"""

import json
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))
import workloads  # noqa: E402  (needs the sources on the path)


def main():
    reference = {}
    for size in ("full", "smoke"):
        reference[size] = {}
        for workload in workloads.WORKLOADS:
            result = run.run_child(workload, 0, size, trace=False, extra=["--record"])
            if result["failed"]:
                sys.exit(f"{workload} ({size}): {result['failures']}")
            reference[size][workload] = result["values"]
            print(f"{size} {workload}: {len(result['values'])} certificates", file=sys.stderr)
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    (run.HERE / "reference.json").write_text(text)


if __name__ == "__main__":
    main()

"""One set-up of a workload in a fresh interpreter, timed.

    python3 perfbench/setup_once.py <workload> <seed>

The clock starts at this script's first statement, before anything but
``time`` is imported, so every module that importing fieldstar pulls in is
timed, whatever the benchmark itself imports.  The set-up imports
fieldstar, builds the workload's inputs and runs its warm-up ops; the last
line of output is ``{"setup_s": ..., "failures": [[key, kind, message]]}``.
run.py starts this script SETUP_REPEATS times and reports the median.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main(argv) -> int:
    workload = workloads.WORKLOADS[argv[0]]
    warmup, _rounds = workload.build(workload.spec(int(argv[1])), ROOT, None)
    failures = []
    for op in warmup:
        try:
            error = op.check(op.run())
        except Exception as exc:  # an op that raises is a failed op
            error = f"raised {type(exc).__name__}: {exc}"
        if error:
            failures.append([op.key, op.kind, error])
    elapsed = time.perf_counter() - START

    import json

    print(json.dumps({"setup_s": elapsed, "failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

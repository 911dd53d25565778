"""Pin the outputs of the default seed into goldens.json.

    python3 perfbench/pin_goldens.py

Runs every op of the default seed's spec once, on the fieldstar tree of
this checkout, requires its check to pass, and records the digest of its
output.  Run it only on a commit whose outputs are trusted; the benchmark
then fails any later commit whose outputs differ.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    pinned = {}
    for workload in workloads.WORKLOADS.values():
        spec = workload.spec(run.DEFAULT_SEED)
        _warmup, rounds = workload.build(spec, run.ROOT, None)
        digests = {}
        for ops in rounds:
            for op in ops:
                if op.digest is None:
                    continue
                result = op.run()
                error = op.check(result)
                if error:
                    print(f"{op.key} ({op.kind}): {error}", file=sys.stderr)
                    return 1
                digests[op.key] = op.digest(result)
        if digests:
            pinned[workload.name] = digests
    (run.HERE / "goldens.json").write_text(
        json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

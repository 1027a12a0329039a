#!/usr/bin/env python3
"""Record the exact-output digests that benchmark runs are checked against.

    python3 perfbench/record_digests.py 0 19        # seeds 0..19

Runs one untimed pass per workload and seed, with the full oracle checks, and
writes the pass digest to perfbench/digests.json.  A pass with a failed item
is not recorded.  Re-record only when an exact output is meant to change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import worker  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    lo, hi = int(argv[0]), int(argv[1])
    path = HERE / "digests.json"
    table = json.loads(path.read_text())
    for name, cls in sorted(workloads.WORKLOADS.items()):
        wl = cls()
        for seed in range(lo, hi + 1):
            runner = worker.Runner(name, wl, wl.setup(), seed)
            runner.run_pass(wl.setup())
            digest = worker.pass_digest(runner.reference)
            if runner.failures:
                print(f"{name} seed {seed}: not recorded, "
                      f"{len(runner.failures)} failed items", file=sys.stderr)
            elif digest is None:
                break  # the workload has no exact outputs
            else:
                table.setdefault(name, {})[str(seed)] = digest
                path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
                print(f"{name} seed {seed}: {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Compare two run records written by perfbench/run.py.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Refuses (exit 1) unless both records are of the same workload, seed and
run mode and their inputs have the same SHA-256: input generation calls the
library, so a change to the solvers can change the inputs themselves, and
timings of different inputs do not compare.  Otherwise prints each metric
of both runs and the after/before ratio.
"""

import json
import sys


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        before = json.load(fh)
    with open(argv[1]) as fh:
        after = json.load(fh)
    for key in ("workload", "seed", "trace", "inputs_sha256"):
        if before.get(key) != after.get(key):
            print(f"refusing to compare: {key} differs "
                  f"({before.get(key)!r} vs {after.get(key)!r})", file=sys.stderr)
            return 1
    print(f"{before['workload']} seed {before['seed']} trace {before['trace']}: "
          f"inputs {before['inputs_sha256'][:16]} on both sides")
    for name in sorted(set(before["metrics"]) | set(after["metrics"])):
        b, a = before["metrics"].get(name), after["metrics"].get(name)
        ratio = f"{a / b:.3f}" if isinstance(a, (int, float)) and b else "-"
        print(f"  {name:45s} {b!s:>24} {a!s:>24}  x{ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

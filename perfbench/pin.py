"""Pin the output digests the benchmark checks, one per workload and seed.

    python3 perfbench/pin.py 0 63

Runs one untimed operation of every workload with simulated outputs
(``steal`` and the two session workloads) for each seed in the inclusive
range and records its digest in ``perfbench/pinned.json``.  A change that
only speeds up the host must reproduce these digests; re-pin only for a
change meant to alter what the attack infers, and say so in its
description.  Already pinned seeds are kept, never overwritten.
"""

from __future__ import annotations

import json
import sys

from run import PINNED, SESSION_WORKLOADS, load_pinned, run_worker


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    pinned = load_pinned()
    for workload in ("steal",) + SESSION_WORKLOADS:
        table = pinned.setdefault(workload, {})
        for seed in range(first, last + 1):
            if str(seed) in table:
                continue
            op = run_worker(workload, seed, "once")["ops"][0]
            table[str(seed)] = op["digest"]
            print(f"{workload} seed {seed}: {op['digest']}", flush=True)
            PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

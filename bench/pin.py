"""Re-pin the per-trial digests the benchmark checks at its default seed.

    python3 bench/pin.py

Runs the first `min_items` trials of every protocol workload at
DEFAULT_SEED and writes their digests to pinned_digests.json.  Sweep rows
are meant to stay bit-identical, so re-pin only in a change that explains
why its rows differ.
"""

import json
import sys

import run  # noqa: F401  (puts the checkout's src/ on the import path)
from workloads import DEFAULT_SEED, PINNED_PATH, WORKLOADS, ProtocolJob


def main() -> int:
    pinned = {}
    for name, workload in WORKLOADS.items():
        job = workload.prepare(DEFAULT_SEED)
        if not isinstance(job, ProtocolJob):
            continue
        pinned[name] = [
            job.digest(job.record(i, job.run_item(i))) for i in range(job.min_items)
        ]
        print(f"{name}: {len(pinned[name])} trials", file=sys.stderr)
    with open(PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

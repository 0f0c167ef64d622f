"""Pin the output digests that every benchmark run is checked against.

    python3 perfbench/pin.py

Runs each workload once per seed of ``outcheck.PINNED_SEEDS`` in a fresh
process and writes ``reference.json``: per workload and seed, the digest of
every expected output file, valid for the numpy version and BLAS build recorded with them.
Re-pin only when a change to the program changes its outputs on purpose,
and say why in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads
from outcheck import PINNED_SEEDS, REFERENCE


def main() -> int:
    base = os.path.join(run.WORK_DIR, f"pin-{os.getpid()}")
    digests: dict[str, dict[str, str]] = {}
    plat = None
    try:
        for workload in sorted(workloads.SPECS):
            digests[workload] = {}
            for seed in PINNED_SEEDS:
                result = run.run_child(workload, seed, False, os.path.join(base, f"{workload}-{seed}"))
                if "check" not in result or result["check"]["errors"]:
                    print(f"error: {workload} seed {seed}: {result.get('error')}", file=sys.stderr)
                    return 1
                if plat not in (None, result["check"]["platform"]):
                    print("error: the platform changed while pinning", file=sys.stderr)
                    return 1
                plat = result["check"]["platform"]
                digests[workload][str(seed)] = " ".join(result["check"]["digests"])
                print(f"pinned {workload} seed {seed}", file=sys.stderr)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"platform": plat, "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One measured run of one workload, in a fresh process.

Started by ``run.py`` with the working directory set to an empty scratch
directory inside the checkout. Sets up the inputs, times the one workload
call, checks the outputs and writes a JSON result to ``--result``. With
``--traced`` the program's public functions are wrapped first and the span
statistics go into the result as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import outcheck  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def machine_facts() -> dict:
    """What explains a noisy result; read only, nothing here changes a setting."""
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **outcheck.platform(),
        "blas_threads": outcheck.openblas_runtime("get_num_threads"),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        facts[var] = os.environ.get(var, "unset")
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() in the parent just before this process was started")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import tradelab.cli  # noqa: F401  the import is part of set-up
    import tradelab.harness  # noqa: F401

    workloads.setup(args.workload, args.seed)
    setup_s = time.monotonic() - args.started

    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    workloads.call(args.workload)
    wall_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "check": outcheck.check(args.workload, args.seed, workloads.OUTPUT_DIR),
        "machine": machine_facts(),
    }
    if tracer is not None:
        result["trace"] = tracer.stats()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

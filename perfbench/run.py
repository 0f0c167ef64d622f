"""tradelab's benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload train_compare --seed 0 --seconds 40 --trace 0

It finds the checkout from its own path and needs ``src/tradelab`` there.
The load is a closed loop: this process starts one child process
(``child.py``) at a time, each running the workload once on inputs generated
from ``--seed``, and starts the next when the previous one has ended, for as
long as another one fits in ``--seconds``. With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json as medians over the children. With
``--trace 1`` it alternates traced and untraced children and reports the
per-layer metrics.

The human-readable report goes first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

CHILD_TIMEOUT_S = 120
WORK_DIR = os.path.join(ROOT, ".perfbench-work")


def read_loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def run_child(workload: str, seed: int, traced: bool, workdir: str) -> dict:
    """One fresh process running the workload once; failures come back as ``error``."""
    os.makedirs(workdir)
    result_path = os.path.join(workdir, "result.json")
    stderr_path = os.path.join(workdir, "stderr.txt")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--result", result_path]
    if traced:
        cmd.append("--traced")
    out = {"traced": traced, "load_before": read_loadavg()}
    with open(stderr_path, "w", encoding="utf-8") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd + ["--started", repr(started)], cwd=workdir,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
    out["load_after"] = read_loadavg()
    if code != 0:
        with open(stderr_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-1:] or [""]
        out["error"] = (f"timed out after {CHILD_TIMEOUT_S} s" if code is None
                        else f"exit code {code}: {tail[0]}")
        return out
    with open(result_path, encoding="utf-8") as fh:
        out.update(json.load(fh))
    check = out["check"]
    if check["errors"]:
        out["error"] = "; ".join(check["errors"][:3])
    elif check["mismatch_files"]:
        out["error"] = f"{check['mismatch_files']} output file(s) differ from the pinned reference"
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Children one after another within ``seconds``.

    A child starts only when one of its kind, as long as the last one took,
    still ends inside the window, so a run does not overshoot its time. A
    traced run alternates traced and untraced children and runs at least
    three, so counts can be compared between two traced children and the
    tracing overhead taken against an untraced one.
    """
    base = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    runs = []
    last_took = {False: 0.0, True: 0.0}
    minimum = 3 if trace else 1
    start = time.monotonic()
    try:
        while True:
            traced = trace and len(runs) % 2 == 0
            elapsed = time.monotonic() - start
            if len(runs) >= minimum and elapsed + last_took[traced] > seconds:
                break
            runs.append(run_child(workload, seed, traced, os.path.join(base, str(len(runs)))))
            last_took[traced] = time.monotonic() - start - elapsed
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    return runs


def cross_checks(runs: list[dict], workload: str, trace: bool) -> list[str]:
    """Problems that only show across children: outputs and counts must repeat."""
    ok = [r for r in runs if "error" not in r]
    problems = []
    if len({tuple(r["check"]["digests"]) for r in ok}) > 1:
        problems.append("outputs differ between runs of the same seed")
    traced = [r["trace"] for r in ok if r["traced"]]
    if trace:
        if len(traced) < 2:
            problems.append("fewer than two traced runs succeeded")
        counts = [{k: v for k, v in t.items() if not k.endswith(("_s", "_us"))} for t in traced]
        if any(c != counts[0] for c in counts[1:]):
            diff = sorted(k for k in counts[0] if any(c.get(k) != counts[0][k] for c in counts[1:]))
            problems.append(f"counts differ between traced runs: {diff[:5]}")
        for name, want in workloads.expected_counts(workload).items():
            got = [t.get(name, 0) for t in traced]
            if any(g != want for g in got):
                problems.append(f"{name} is {got}, the config gives {want}")
        if any(t["trace.errors"] for t in traced):
            problems.append("the tracer recorded errors")
    return problems


def layer_metrics(runs: list[dict]) -> dict[str, float]:
    """Per-layer values: counts from the traced runs, times as their medians."""
    traced = [r for r in runs if r["traced"] and "wall_s" in r]
    plain = [r for r in runs if not r["traced"] and "wall_s" in r]
    out = {}
    for key in traced[0]["trace"]:
        values = [r["trace"].get(key, 0) for r in traced]
        out[key] = statistics.median(values) if key.endswith(("_s", "_us")) else values[0]
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain))
    gflop = 2 * out.get("neuralnet.macs", 0) / 1e9
    busy = out.get("neuralnet.forward.self_s", 0.0) + out.get("neuralnet.backward.self_s", 0.0)
    out["neuralnet.computed_gflop"] = gflop
    out["neuralnet.achieved_gflops"] = gflop / busy if busy > 0 else 0.0
    pushed = out.get("agents.replay.ReplayBuffer.push.calls", 0)
    sampled = out.get("agents.replay.ReplayBuffer.sample.rows", 0)
    out["agents.replay.rows_sampled_per_pushed"] = sampled / pushed if pushed else 0.0
    selections = out.get("harness.train_agent_for_seed.calls", 0)
    snapshots = (out.get("agents.td3.Td3Agent.snapshot.calls", 0)
                 + out.get("agents.dqn.DqnAgent.snapshot.calls", 0))
    out["harness.snapshots_per_selection"] = snapshots / selections if selections else 0.0
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(args, runs: list[dict], problems: list[str], spec: dict) -> dict:
    # a run whose output check failed still measured its time; it counts as failed
    timed = [r for r in runs if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    first = timed[0]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
          f"{len(runs)} runs, closed loop, one child process at a time")
    facts = first["machine"]
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print("each run: kind, loadavg (1/5/15 min) before -> after, setup_s, wall_s, status")
    for i, r in enumerate(runs):
        kind = "traced" if r["traced"] else "plain"
        times = f"{r['setup_s']:.4f} {r['wall_s']:.4f}" if "wall_s" in r else "- -"
        print(f"  run {i:2d} {kind:6s} {r['load_before']} -> {r['load_after']}  "
              f"{times}  {r.get('error', 'ok')}")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    failed = sum("error" in r for r in runs)
    mismatches = [r["check"]["mismatch_files"] for r in runs if "check" in r]
    pinned = all(m is not None for m in mismatches)
    metrics = {}
    if plain:
        print(f"end-to-end, untraced runs (n={len(plain)}): median [q1, q3] min..max")
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in plain]
            q1, med, q3 = quartiles(values)
            print(f"  {m['name']:22s} {med:12.6g} [{q1:.6g}, {q3:.6g}] "
                  f"{min(values):.6g}..{max(values):.6g} {m['unit']}")
            metrics[m["name"]] = med
        updates = sum(workloads.expected_counts(args.workload)[f"agents.{k}.update.calls"]
                      for k in ("td3.Td3Agent", "dqn.DqnAgent"))
        rates = [updates / r["wall_s"] for r in plain]
        print(f"  {'updates_per_s':22s} {statistics.median(rates):12.6g} "
              f"({updates} TD3+DQN updates per run) 1/s")
    print(f"  {'fail_share':22s} {failed / len(runs):12.6g} ({failed} of {len(runs)} runs failed)")
    print(f"  {'output_mismatch_files':22s} "
          + (f"{max(mismatches, default=0):12d} (pinned reference)" if pinned
             else "    unpinned (no reference for this seed and platform)"))
    if not pinned:
        warning = (f"WARNING: no output digest is pinned for seed {args.seed} on "
                   f"numpy {facts['numpy']}, {facts['blas_runtime']}; the outputs "
                   "were checked against each other and their own comparison table, not "
                   "against known-good ones (see perfbench/pin.py)")
        print(warning)
        print(warning, file=sys.stderr)

    if args.trace:
        layers = layer_metrics(runs)
        n_traced = sum(r["traced"] for r in timed)
        print(f"per-layer, traced runs (n={n_traced}); times are medians, counts repeat exactly:")
        for name in sorted(layers):
            print(f"  {name:60s} {layers[name]:.6g}")
        absent = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
        if absent:
            print(f"not produced by this program, reported as 0: {absent}")
        metrics = {m["name"]: layers.get(m["name"], 0) for m in spec["per_layer"]}
    return {
        "correct": not problems and failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "tradelab", "__init__.py")):
        print(f"error: no tradelab source tree at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    kinds = {r["traced"] for r in runs if "wall_s" in r}
    if not kinds or (args.trace and kinds != {True, False}):
        for r in runs:
            print(f"error: {r.get('error')}", file=sys.stderr)
        return 1
    result = report(args, runs, cross_checks(runs, args.workload, bool(args.trace)), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

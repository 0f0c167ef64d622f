"""Checks on the files one workload call wrote.

Independent of the program's own code: the comparison table is recomputed
from the emitted equity curves here, and file contents are digested (CSV and
JSON by their bytes, checkpoints by their arrays, because ``.npz`` zip
headers carry timestamps) and compared with the digests pinned in
``reference.json`` for the numpy version and BLAS build they were made with.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import math
import os

import numpy as np

from workloads import SPECS, experiment_seeds, expected_files

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
PINNED_SEEDS = range(32)  # the workload seeds whose digests reference.json holds
ANNUALIZATION_DAYS = 252  # the config default; the workloads do not set it
SHARPE_RTOL = 1e-9


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    if path.endswith(".npz"):
        with np.load(path, allow_pickle=False) as data:
            for key in sorted(data.files):
                arr = data[key]
                h.update(f"{key}|{arr.dtype.str}|{arr.shape}|".encode())
                h.update(np.ascontiguousarray(arr).tobytes())
    else:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def openblas_runtime(query: str) -> str:
    """``get_config`` or ``get_num_threads`` of the OpenBLAS loaded into this process."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return "unknown"
    restype = ctypes.c_char_p if query == "get_config" else ctypes.c_int
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{query}64_", f"openblas_{query}64_", f"openblas_{query}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = restype
                value = fn()
                return value.decode() if isinstance(value, bytes) else str(value)
    return "unknown"


def platform() -> dict:
    """The numpy version and BLAS build, with the CPU kernel OpenBLAS picked at
    run time, that pinned digests are valid for."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_runtime": openblas_runtime("get_config")}


def _read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _sharpe(equity: list[float]) -> float:
    daily = np.array([(b - a) / a for a, b in zip(equity, equity[1:])])
    std = float(daily.std(ddof=1))
    if std == 0.0:
        return 0.0  # the program's rule for a run with constant equity
    return math.sqrt(ANNUALIZATION_DAYS) * float(daily.mean()) / std


def check_comparison(outdir: str, strategies, seeds) -> list[str]:
    """``comparison.csv`` against the config and the equity CSVs: one row per
    configured strategy in config order, return exactly, Sharpe to rtol."""
    rows = _read_rows(os.path.join(outdir, "comparison.csv"))
    listed = [row["strategy"] for row in rows]
    errors = [] if listed == list(strategies) else [
        f"comparison.csv: strategies are {listed}, the config has {list(strategies)}"]
    for row in rows:
        strategy = row["strategy"]
        returns, sharpes = [], []
        for s in seeds:
            equity = [float(r["cash"]) for r in _read_rows(os.path.join(outdir, f"equity_{strategy}_{s}.csv"))]
            if not all(math.isfinite(c) and c > 0 for c in equity):
                errors.append(f"equity_{strategy}_{s}.csv: non-finite or non-positive cash")
                continue
            returns.append(100.0 * (equity[-1] - equity[0]) / equity[0])
            sharpes.append(_sharpe(equity))
        got_return, got_sharpe = float(row["return_pct"]), float(row["sharpe"])
        if not (math.isfinite(got_return) and math.isfinite(got_sharpe)):
            errors.append(f"comparison.csv: non-finite metric for {strategy}")
            continue
        if len(returns) != len(seeds):
            continue
        if got_return != float(np.mean(returns)):
            errors.append(f"comparison.csv: return_pct of {strategy} is {got_return}, "
                          f"equity curves give {float(np.mean(returns))}")
        want = float(np.mean(sharpes))
        if abs(got_sharpe - want) > SHARPE_RTOL * max(1.0, abs(want)):
            errors.append(f"comparison.csv: sharpe of {strategy} is {got_sharpe}, equity curves give {want}")
    return errors


def check_training_logs(outdir: str) -> list[str]:
    """Every logged number is finite, except the loss of warmup episodes (no updates)."""
    errors = []
    for name in sorted(os.listdir(outdir)):
        if not name.startswith("training_log_"):
            continue
        for row in _read_rows(os.path.join(outdir, name)):
            for key, value in row.items():
                if key == "mean_loss" and row["warmup"] == "1":
                    continue
                if not math.isfinite(float(value)):
                    errors.append(f"{name}: non-finite {key} in episode {row['episode']}")
    return errors


def load_reference(workload: str, seed: int, plat: dict) -> list[str] | None:
    """Pinned digests in ``expected_files`` order, or None when none apply."""
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        return None
    if ref.get("platform") != plat:
        return None
    pinned = ref.get("digests", {}).get(workload, {}).get(str(seed))
    return pinned.split() if pinned else None


def check(workload: str, seed: int, outdir: str) -> dict:
    """Errors, per-file digests and the count of files that differ from the pin.

    ``errors`` come from the checks that need no reference. ``mismatch_files``
    is None when no digest is pinned for this seed and platform, which the
    report prints as a warning; missing files count as mismatches.
    """
    names = expected_files(workload, seed)
    missing = [n for n in names if not os.path.isfile(os.path.join(outdir, n))]
    errors = [f"missing output {n}" for n in missing]
    digests = ["-" if n in missing else file_digest(os.path.join(outdir, n)) for n in names]
    if not missing:
        errors += check_comparison(outdir, SPECS[workload]["strategies"],
                                   experiment_seeds(workload, seed))
        errors += check_training_logs(outdir)
    plat = platform()
    pinned = load_reference(workload, seed, plat)
    mismatch = None
    if pinned is not None:
        if len(pinned) != len(digests):
            mismatch = len(digests)
        else:
            mismatch = sum(a != b for a, b in zip(digests, pinned))
    return {"errors": errors, "digests": digests, "mismatch_files": mismatch, "platform": plat}

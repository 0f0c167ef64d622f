import os

import pytest

import outcheck
from tradelab.harness import config_from_dict, run_experiment
from workloads import price_csv

STRATEGIES = ["buy_hold", "long", "random_c", "mrma"]


@pytest.fixture
def outdir(tmp_path):
    data = tmp_path / "prices.csv"
    data.write_text(price_csv(120, seed=3))
    cfg = config_from_dict({
        "dataset": {"path": str(data)},
        "env": {"window": 5, "transaction_cost": 0.1},
        "strategies": STRATEGIES,
        "ma_window": 5,
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "out"),
    })
    run_experiment(cfg)
    return cfg.output_dir


def test_comparison_recomputes_from_the_equity_curves(outdir):
    assert outcheck.check_comparison(outdir, STRATEGIES, [0, 1]) == []


def test_a_missing_strategy_row_is_rejected(outdir):
    path = os.path.join(outdir, "comparison.csv")
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("random_c,")]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    errors = outcheck.check_comparison(outdir, STRATEGIES, [0, 1])
    assert any("strategies are" in e for e in errors)


def test_a_corrupted_equity_csv_is_rejected(outdir):
    path = os.path.join(outdir, "equity_long_1.csv")
    before = outcheck.file_digest(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    date, cash = lines[-1].split(",")
    lines[-1] = f"{date},{float(cash) * 1.01!r}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    errors = outcheck.check_comparison(outdir, STRATEGIES, [0, 1])
    assert any("return_pct of long" in e for e in errors)
    assert outcheck.file_digest(path) != before


def test_checkpoints_are_digested_by_their_arrays(tmp_path):
    import numpy as np

    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    np.savez(a, w=np.arange(3.0))
    np.savez(b, w=np.arange(3.0))
    assert outcheck.file_digest(str(a)) == outcheck.file_digest(str(b))
    np.savez(b, w=np.arange(3.0) + 1e-12)
    assert outcheck.file_digest(str(a)) != outcheck.file_digest(str(b))

"""The benchmark's workloads: generated inputs, the one timed call, and the
call counts each workload must produce.

Every workload takes the workload seed and hands the program only a price
CSV, a config JSON and (for ``evaluate_long``) checkpoint files, all written
into the current directory. The program is reached only through its public
entry points, ``harness.run_experiment`` and ``cli.main``. tradelab is
imported inside the functions that use it, because ``run.py`` imports this
module too and stays a light process that never loads the program.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import os
import random

ALL_STRATEGIES = ("td3", "td3_sign", "td3_d3", "tdqn",
                  "buy_hold", "sell_hold", "long", "short",
                  "mrma", "tfma", "random_c", "random_d")
BASELINES = ALL_STRATEGIES[4:]
WINDOW = 30
DATA_FILE = "prices.csv"
CONFIG_FILE = "config.json"
OUTPUT_DIR = "out"

# Sizes are chosen so that one call takes one to three seconds on a 2-core
# machine: a run then holds a dozen or more calls, whose median is steadier
# than that of a few long ones. Each workload leans on different layers (see
# BENCHMARK.json).
SPECS = {
    # The gradient-update path: all 12 strategies, 10 warmup episodes and one
    # learning episode (449 TD3 and 449 DQN updates).
    "train_compare": {
        "bars": 600,
        "split": (0.8, 0.1, 0.1),
        "episodes": 11,
        "warmup": 10,
        "strategies": ALL_STRATEGIES,
        "n_seeds": 1,
        "buffer_capacity": 100_000,
    },
    # No gradient update: checkpoint loading, single-row forward passes, env
    # stepping and the baselines, whose moving average is O(n^2) in the
    # test-segment length today.
    "evaluate_long": {
        "bars": 2000,
        "split": (0.2, 0.1, 0.7),
        "episodes": 1,
        "warmup": 10,
        "strategies": ALL_STRATEGIES,
        "n_seeds": 3,
        "buffer_capacity": 100_000,
    },
    # Replay writes only: every episode is warmup, and 16 passes over a
    # 3,169-step train segment push 50,704 transitions per agent into a
    # 50,000-row buffer, so the ring buffer wraps.
    "replay_fill": {
        "bars": 4000,
        "split": (0.8, 0.1, 0.1),
        "episodes": 16,
        "warmup": 16,
        "strategies": ("td3", "tdqn"),
        "n_seeds": 1,
        "buffer_capacity": 50_000,
    },
}


def experiment_seeds(workload: str, seed: int) -> list[int]:
    return [seed + i for i in range(SPECS[workload]["n_seeds"])]


def price_csv(n_bars: int, seed: int) -> str:
    """The README's synthetic series: a daily geometric random walk."""
    gen = random.Random(seed)
    rows, price = [], 100.0
    start = dt.date(2016, 1, 1)
    for i in range(n_bars):
        price *= math.exp(gen.gauss(0.0003, 0.02))
        d = start + dt.timedelta(days=i)
        rows.append(f"{d},{price:.4f},{price:.4f},{price:.4f},{price:.4f},1000")
    return "Date,Open,High,Low,Close,Volume\n" + "\n".join(rows) + "\n"


def config_dict(workload: str, seed: int) -> dict:
    spec = SPECS[workload]
    train, valid, test = spec["split"]
    capacity = spec["buffer_capacity"]
    return {
        "dataset": {"path": DATA_FILE},
        "split": {"train_frac": train, "valid_frac": valid, "test_frac": test},
        "env": {"window": WINDOW, "transaction_cost": 0.1, "initial_cash": 100000.0},
        "episodes": spec["episodes"],
        "strategies": list(spec["strategies"]),
        "seeds": experiment_seeds(workload, seed),
        "output_dir": OUTPUT_DIR,
        "td3": {"warmup_episodes": spec["warmup"], "buffer_capacity": capacity},
        "dqn": {"warmup_episodes": spec["warmup"], "buffer_capacity": capacity},
    }


def setup(workload: str, seed: int) -> None:
    """Write the inputs of one run into the current directory."""
    with open(DATA_FILE, "w", encoding="utf-8") as fh:
        fh.write(price_csv(SPECS[workload]["bars"], seed))
    with open(CONFIG_FILE, "w", encoding="utf-8") as fh:
        json.dump(config_dict(workload, seed), fh, indent=2)
    if workload == "evaluate_long":
        # fresh-weight checkpoints, written the way `tradelab train` names them
        from tradelab.agents import DqnAgent, Td3Agent
        from tradelab.harness import load_config

        cfg = load_config(CONFIG_FILE)
        ckpt_dir = os.path.join(OUTPUT_DIR, "checkpoints")
        os.makedirs(ckpt_dir, exist_ok=True)
        for s in cfg.seeds:
            Td3Agent(cfg.env.window, cfg.td3, seed=s).save(os.path.join(ckpt_dir, f"td3_seed{s}.npz"))
            DqnAgent(cfg.env.window, cfg.dqn, seed=s).save(os.path.join(ckpt_dir, f"tdqn_seed{s}.npz"))


def call(workload: str) -> None:
    """The timed call: one public entry point on the inputs in the current directory."""
    if workload == "evaluate_long":
        from tradelab import cli

        code = cli.main(["evaluate", "--config", CONFIG_FILE])
        if code != 0:
            raise RuntimeError(f"tradelab evaluate exited with code {code}")
    else:
        from tradelab import harness

        harness.run_experiment(harness.load_config(CONFIG_FILE))


def expected_files(workload: str, seed: int) -> list[str]:
    """Every file the output directory must hold after the call, sorted."""
    spec = SPECS[workload]
    seeds = experiment_seeds(workload, seed)
    names = ["comparison.csv", "resolved_config.json"]
    for s in seeds:
        for strategy in spec["strategies"]:
            names += [f"equity_{strategy}_{s}.csv", f"actions_{strategy}_{s}.csv"]
        for kind in ("td3", "tdqn"):
            names.append(f"checkpoints/{kind}_seed{s}.npz")
            if workload != "evaluate_long":
                names.append(f"training_log_{kind}_{s}.csv")
    return sorted(names)


def segment_steps(workload: str) -> tuple[int, int, int]:
    """Decision steps per pass over the train, validation and test segments."""
    spec = SPECS[workload]
    n = spec["bars"]
    train, valid, _ = spec["split"]
    i1 = math.floor(n * train)
    i2 = math.floor(n * (train + valid))
    return tuple(length - WINDOW - 1 for length in (i1, i2 - i1, n - i2))


def _updates(episodes: int, warmup: int, steps: int, capacity: int, batch: int = 64) -> int:
    """Gradient updates of one agent: one per post-warmup step once a batch fits."""
    pushed = updates = 0
    for episode in range(episodes):
        if episode >= warmup:
            # the buffer holds min(pushed + j, capacity) rows after step j
            first = max(1, batch - pushed)
            if min(pushed + steps, capacity) >= batch:
                updates += steps - first + 1
        pushed += steps
    return updates


def expected_counts(workload: str) -> dict[str, int]:
    """Call counts that follow from the config and segment lengths alone.

    Counts that depend on the learned weights or the random draws (forward
    passes of epsilon-greedy DQN, snapshots on a new best validation Sharpe)
    are left out; the benchmark only requires those to repeat exactly.
    """
    spec = SPECS[workload]
    n_tr, n_va, n_te = segment_steps(workload)
    k = spec["n_seeds"]
    strategies = spec["strategies"]
    n_baselines = sum(s in BASELINES for s in strategies)
    n_ma = sum(s in ("mrma", "tfma") for s in strategies)
    if workload == "evaluate_long":
        agents, episodes, updates = 0, 0, 0
    else:
        agents, episodes = 2, spec["episodes"]
        updates = _updates(episodes, spec["warmup"], n_tr, spec["buffer_capacity"])
    delayed = updates // 2  # Td3Config.policy_delay
    envs = k * (agents + agents * episodes + len(strategies))
    resets = k * (2 * agents * episodes + len(strategies))
    counts = {
        "agents.training.train.calls": k * agents,
        "agents.td3.Td3Agent.update.calls": k * updates,
        "agents.dqn.DqnAgent.update.calls": k * updates,
        "agents.replay.ReplayBuffer.push.calls": k * agents * episodes * n_tr,
        "agents.replay.ReplayBuffer.sample.calls": k * 2 * updates,
        "neuralnet.backward.calls": k * (2 * updates + 2 * delayed + updates),
        "neuralnet.adam_step.calls": k * (2 * updates + delayed + updates),
        "neuralnet.clip_gradients.calls": k * delayed,
        "neuralnet.soft_update.calls": k * 3 * delayed,
        "env.TradingEnv.step.calls": k * (agents * episodes * (n_tr + n_va) + len(strategies) * n_te),
        "env.TradingEnv.reset.calls": resets,
        "harness.evaluate_policy.calls": k * len(strategies),
        "harness.evaluate_policy.validation.calls": k * agents * episodes,
        "baselines.act.calls": k * n_baselines * n_te,
        # two per environment (closes, then pct_change) plus one per moving average
        "data.PriceSeries.closes.calls": 2 * envs + k * n_ma * n_te,
        "data.load_csv.calls": 1 if workload == "evaluate_long" else k,
        "harness.emit_outputs.calls": 1,
    }
    if workload == "evaluate_long":
        counts["agents.td3.Td3Agent.load.calls"] = k
        counts["agents.dqn.DqnAgent.load.calls"] = k
    else:
        counts["agents.td3.Td3Agent.save.calls"] = k
        counts["agents.dqn.DqnAgent.save.calls"] = k
    return counts

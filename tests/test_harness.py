import ast
import datetime as dt
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import tradelab
import tradelab.agents.dqn as dqn_module
import tradelab.cli as cli
import tradelab.neuralnet as neuralnet
import tradelab.agents.td3 as td3_module
import tradelab.harness as harness
from tradelab.agents import DecaySchedule, DqnConfig, Td3Config, train
from tradelab.baselines import d3_discretize, sign_discretize
from tradelab.cli import main
from tradelab.data import DEFAULT_COLUMNS, SplitSpec
from tradelab.env import EnvConfig
from tradelab.harness import (
    ComparisonRow,
    ExperimentConfig,
    TTestRow,
    build_table,
    compare_report,
    config_from_dict,
    emit_outputs,
    emit_run,
    evaluate_policy,
    evaluate_strategies,
    load_agents,
    load_config,
    load_segments,
    make_agent,
    map_seeds,
    resolved_config,
    run_experiment,
    train_agent_for_seed,
    train_seed,
)
from tradelab.stats import Score, TTestResult, return_pct, sharpe

from helpers import assert_same_reports, constant_policy, make_series, random_walk
from oracles import greedy_action, validation_sharpe


def write_dataset(tmp_path, n=100, seed=5, name="prices.csv"):
    gen = np.random.default_rng(seed)
    series = random_walk(n, gen)
    lines = ["Date,Open,High,Low,Close,Volume"]
    for date, close in zip(series.dates(), series.closes().tolist()):
        lines.append(f"{date.isoformat()},{close},{close},{close},{close},100")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path, series


def output_files(root):
    """Every file under ``root``, as sorted paths relative to it."""
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, names in os.walk(root) for f in names)


def assert_same_outputs(root_a, root_b, names):
    """The files ``names`` under two output directories hold the same results:
    checkpoints equal array by array, the config echoes differ only in their
    output_dir and workers, and every other file is byte-identical."""
    for name in names:
        a, b = Path(root_a) / name, Path(root_b) / name
        if name.endswith(".npz"):
            with np.load(a) as x, np.load(b) as y:
                assert sorted(x.files) == sorted(y.files)
                for key in x.files:
                    assert x[key].dtype == y[key].dtype and np.array_equal(x[key], y[key]), key
        elif name == "resolved_config.json":
            x, y = json.loads(a.read_text()), json.loads(b.read_text())
            assert (x.pop("output_dir"), y.pop("output_dir")) == (str(root_a), str(root_b))
            x.pop("workers"), y.pop("workers")  # how many processes ran the seeds
            assert x == y
        else:
            assert a.read_bytes() == b.read_bytes(), name


def read_curve(outdir, name, strategy, seed):
    """The value column of an emitted ``equity`` or ``actions`` CSV, as floats."""
    with open(os.path.join(outdir, f"{name}_{strategy}_{seed}.csv"), encoding="utf-8") as fh:
        return [float(line.split(",")[1]) for line in fh.read().splitlines()[1:]]


def curve_names(strategies, seeds):
    """The equity and action CSVs of every strategy and seed."""
    return sorted(f"{name}_{s}_{seed}.csv" for s in strategies for seed in seeds
                  for name in ("equity", "actions"))


def base_config(tmp_path, **overrides):
    path, _ = write_dataset(tmp_path)
    raw = {
        "dataset": {"path": str(path)},
        "env": {"window": 4, "transaction_cost": 0.0, "initial_cash": 100000.0},
        "strategies": ["buy_hold", "long", "random_c"],
        "seeds": [0, 1, 2],
        "episodes": 3,
        "output_dir": str(tmp_path / "out"),
        "ttest": {"pairs": [["random_c", "buy_hold"]], "alpha": 0.01},
        "td3": {"warmup_episodes": 1, "batch_size": 8, "buffer_capacity": 500,
                "actor_hidden": [8], "critic_hidden": [8]},
        "dqn": {"warmup_episodes": 1, "batch_size": 8, "buffer_capacity": 500, "hidden": [8]},
    }
    raw.update(overrides)
    return raw


class TestConfig:
    def test_defaults_and_overrides(self, tmp_path):
        raw = base_config(tmp_path)
        cfg = config_from_dict(raw)
        assert cfg.env.window == 4
        assert cfg.split == SplitSpec(0.8, 0.1, 0.1)
        assert cfg.td3.batch_size == 8
        assert cfg.td3.gamma == 0.99  # untouched default
        assert cfg.alpha == 0.01

    def test_json_roundtrip(self, tmp_path):
        raw = base_config(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert load_config(path) == config_from_dict(raw)

    def test_requires_dataset_path(self):
        with pytest.raises(ValueError, match="dataset.path"):
            config_from_dict({})

    def test_requires_seeds(self, tmp_path):
        with pytest.raises(ValueError, match="seed"):
            config_from_dict(base_config(tmp_path, seeds=[]))

    def test_rejects_unknown_strategy(self, tmp_path):
        with pytest.raises(ValueError, match="unknown strategies"):
            config_from_dict(base_config(tmp_path, strategies=["momentum"]))

    def test_rejects_empty_strategy_list(self, tmp_path):
        with pytest.raises(ValueError, match="strategies"):
            config_from_dict(base_config(tmp_path, strategies=[]))

    def test_rejects_duplicate_seeds(self, tmp_path):
        with pytest.raises(ValueError, match="unique"):
            config_from_dict(base_config(tmp_path, seeds=[1, 1]))
        with pytest.raises(ValueError, match="^seeds must be unique; 3 repeats$"):
            config_from_dict(base_config(tmp_path, seeds=[3, 1, 3]))

    def test_rejects_negative_seeds(self, tmp_path):
        with pytest.raises(ValueError, match="^seeds must be >= 0, got -1$"):
            config_from_dict(base_config(tmp_path, seeds=[0, -1]))

    @pytest.mark.parametrize("overrides,message", [
        ({"strategies": ["long", "long", "short"]}, "strategies must be unique; 'long' repeats"),
        ({"ttest": {"pairs": [["long", "short"], ["short", "long"], ["long", "short"]]}},
         "t-test pairs must be unique; 'long:short' repeats"),
        ({"ttest": {"pairs": [["long", "short"], ["long", "long"]]}},
         "t-test pair ('long', 'long') compares a strategy with itself"),
    ])
    def test_rejects_a_repeated_strategy_or_pair_by_name(self, tmp_path, overrides, message):
        with pytest.raises(ValueError) as err:
            config_from_dict(base_config(tmp_path, **overrides))
        assert str(err.value) == message

    def test_rejects_ma_window_wider_than_observation(self, tmp_path):
        raw = base_config(tmp_path, strategies=["mrma"], ma_window=20)
        with pytest.raises(ValueError, match="env.window"):
            config_from_dict(raw)
        raw = base_config(tmp_path, strategies=["mrma"], ma_window=4)
        assert config_from_dict(raw).ma_window == 4
        raw = base_config(tmp_path, strategies=["long"], ma_window=1)
        assert config_from_dict(raw).ma_window == 1  # unused without mrma/tfma

    @pytest.mark.parametrize("overrides,message", [
        ({"strategies": ["td3", "mrma"], "ma_window": 1}, "ma_window must be >= 2 for mrma, got 1"),
        ({"strategies": ["tfma"], "ma_window": 0}, "ma_window must be >= 2 for tfma, got 0"),
        ({"ttest": {"alpha": -3}}, "ttest.alpha must lie in (0, 1), got -3"),
        ({"ttest": {"alpha": 0}}, "ttest.alpha must lie in (0, 1), got 0"),
        ({"ttest": {"alpha": 1.0}}, "ttest.alpha must lie in (0, 1), got 1.0"),
        ({"td3": {"warmup_episodes": -1}}, "warmup_episodes must be >= 0, got -1"),
        ({"dqn": {"warmup_episodes": -2}}, "warmup_episodes must be >= 0, got -2"),
        ({"td3": {"actor_hidden": [0]}}, "actor_hidden sizes must be >= 1, got (0,)"),
        ({"td3": {"critic_hidden": [8, -1]}}, "critic_hidden sizes must be >= 1, got (8, -1)"),
        ({"dqn": {"hidden": [-3]}}, "hidden sizes must be >= 1, got (-3,)"),
    ])
    def test_rejects_values_that_would_fail_after_training(self, tmp_path, overrides, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_dict(base_config(tmp_path, **overrides))

    @pytest.mark.parametrize("build,message", [
        (lambda: EnvConfig(transaction_cost=math.nan), "transaction cost must be >= 0, got nan"),
        (lambda: DecaySchedule(math.nan, 0.05, 50.0), "schedule endpoints must be non-negative"),
        (lambda: DecaySchedule(1.0, math.nan, 50.0), "schedule endpoints must be non-negative"),
        (lambda: Td3Config(action_low=math.nan), "action_low must be below action_high"),
        (lambda: Td3Config(action_high=math.nan), "action_low must be below action_high"),
        (lambda: EnvConfig(window=math.nan), "window must be >= 1, got nan"),
        (lambda: EnvConfig(annualization_days=math.nan), "annualization days must be >= 1, got nan"),
        (lambda: Td3Config(policy_delay=math.nan), "policy_delay must be >= 1, got nan"),
        (lambda: DqnConfig(target_sync=math.nan), "target_sync must be >= 1, got nan"),
        (lambda: Td3Config(batch_size=math.nan), "batch_size must be >= 1, got nan"),
        (lambda: DqnConfig(batch_size=math.nan), "batch_size must be >= 1, got nan"),
        (lambda: Td3Config(warmup_episodes=math.nan), "warmup_episodes must be >= 0, got nan"),
        (lambda: DqnConfig(warmup_episodes=math.nan), "warmup_episodes must be >= 0, got nan"),
        (lambda: Td3Config(buffer_capacity=math.nan), "batch_size 64 exceeds buffer_capacity nan"),
        (lambda: DqnConfig(buffer_capacity=math.nan), "batch_size 64 exceeds buffer_capacity nan"),
        (lambda: Td3Config(actor_hidden=(math.nan,)), "actor_hidden sizes must be >= 1, got (nan,)"),
        (lambda: Td3Config(critic_hidden=(8, math.nan)), "critic_hidden sizes must be >= 1, got (8, nan)"),
        (lambda: DqnConfig(hidden=(math.nan, 4)), "hidden sizes must be >= 1, got (nan, 4)"),
        (lambda: EnvConfig(transaction_cost=math.inf), "transaction cost must be >= 0, got inf"),
        (lambda: EnvConfig(initial_cash=math.inf), "initial cash must be > 0, got inf"),
        (lambda: DecaySchedule(math.inf, 0.05, 50.0), "schedule endpoints must be non-negative"),
        (lambda: DecaySchedule(math.inf, math.inf, 50.0), "schedule endpoints must be non-negative"),
        (lambda: DecaySchedule(1.0, 0.05, math.inf), "decay must be positive, got inf"),
        (lambda: Td3Config(actor_lr=math.inf), "actor_lr must be > 0, got inf"),
        (lambda: Td3Config(critic_lr=math.inf), "critic_lr must be > 0, got inf"),
        (lambda: Td3Config(grad_clip_norm=math.inf), "grad_clip_norm must be > 0, got inf"),
        (lambda: DqnConfig(learning_rate=math.inf), "learning_rate must be > 0, got inf"),
        (lambda: EnvConfig(window=10.5), "window must be an integer, got 10.5"),
        (lambda: EnvConfig(annualization_days=math.inf), "annualization days must be an integer, got inf"),
        (lambda: Td3Config(policy_delay=1.5), "policy_delay must be an integer, got 1.5"),
        (lambda: DqnConfig(target_sync=True), "target_sync must be an integer, got True"),
        (lambda: Td3Config(batch_size=8.0), "batch_size must be an integer, got 8.0"),
        (lambda: DqnConfig(warmup_episodes=True), "warmup_episodes must be an integer, got True"),
        (lambda: Td3Config(buffer_capacity=math.inf), "buffer_capacity must be an integer, got inf"),
        (lambda: Td3Config(actor_hidden=(8.5,)), "actor_hidden sizes must be integers, got (8.5,)"),
        (lambda: Td3Config(critic_hidden=(8, True)), "critic_hidden sizes must be integers, got (8, True)"),
        (lambda: DqnConfig(hidden=(4.0,)), "hidden sizes must be integers, got (4.0,)"),
    ], ids=["transaction_cost", "initial", "final", "action_low", "action_high", "window",
            "annualization_days", "policy_delay", "target_sync", "td3_batch_size", "dqn_batch_size",
            "td3_warmup_episodes", "dqn_warmup_episodes", "td3_buffer_capacity",
            "dqn_buffer_capacity", "actor_hidden", "critic_hidden", "hidden",
            "inf_transaction_cost", "inf_initial_cash", "inf_initial", "inf_final", "inf_decay",
            "inf_actor_lr", "inf_critic_lr", "inf_grad_clip_norm", "inf_learning_rate",
            "int_window", "int_annualization_days", "int_policy_delay", "int_target_sync",
            "int_batch_size", "int_warmup_episodes", "int_buffer_capacity", "int_actor_hidden",
            "int_critic_hidden", "int_hidden"])
    def test_nan_fails_each_range_check(self, build, message):
        # a config built in Python skips the JSON reader's type and finite-number checks
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            build()

    def test_numpy_integers_pass_the_integer_fields(self):
        env = EnvConfig(window=np.int64(5), annualization_days=np.int32(252))
        assert (env.window, env.annualization_days) == (5, 252)
        Td3Config(policy_delay=np.int64(3), batch_size=np.int64(8), actor_hidden=(np.int16(8),))
        DqnConfig(target_sync=np.uint8(5), warmup_episodes=np.int64(0), buffer_capacity=np.int64(64))

    @pytest.mark.parametrize("overrides,key", [
        ({"env": {"window": 4, "transacton_cost": 5}}, "env.transacton_cost"),
        ({"epsiodes": 3}, "epsiodes"),
        ({"dataset": {"path": "p.csv", "colums": {}}}, "dataset.colums"),
        ({"dataset": {"path": "p.csv", "columns": {"closing": "Close"}}}, "dataset.columns.closing"),
        ({"td3": {"exploration_noise": {"inital": 0.4}}}, "td3.exploration_noise.inital"),
        ({"dqn": {"hiden": [8]}}, "dqn.hiden"),
        ({"ttest": {"alfa": 0.05}}, "ttest.alfa"),
    ])
    def test_rejects_unknown_keys_by_dotted_path(self, tmp_path, overrides, key):
        raw = base_config(tmp_path, **overrides)
        with pytest.raises(ValueError, match=rf"unknown config key {re.escape(key)}$"):
            config_from_dict(raw)

    @pytest.mark.parametrize("overrides,key", [
        ({"episodes": "50"}, "episodes"),
        ({"episodes": 3.0}, "episodes"),
        ({"workers": True}, "workers"),
        ({"seeds": 0}, "seeds"),
        ({"seeds": [0, "1"]}, r"seeds\[1\]"),
        ({"env": {"transaction_cost": "0.1"}}, "env.transaction_cost"),
        ({"env": {"window": 4.5}}, "env.window"),
        ({"td3": {"actor_hidden": [8.0]}}, r"td3.actor_hidden\[0\]"),
        ({"td3": {"policy_noise": {"decay": None}}}, "td3.policy_noise.decay"),
        ({"dqn": 5}, "dqn"),
        ({"dataset": {"path": 3}}, "dataset.path"),
        ({"ttest": {"pairs": [["random_c", 1]]}}, r"ttest.pairs\[0\]\[1\]"),
    ])
    def test_rejects_wrong_types_by_key(self, tmp_path, overrides, key):
        raw = base_config(tmp_path, **overrides)
        with pytest.raises(ValueError, match=rf"config key {key}: expected"):
            config_from_dict(raw)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("overrides,key", [
        ({"env": {"window": 4, "transaction_cost": "@"}}, "env.transaction_cost"),
        ({"td3": {"action_low": "@"}}, "td3.action_low"),
        ({"td3": {"exploration_noise": {"initial": "@"}}}, "td3.exploration_noise.initial"),
        ({"dqn": {"actions": ["@", 1.0]}}, "dqn.actions[0]"),
    ])
    def test_rejects_non_finite_numbers_by_key(self, tmp_path, constant, overrides, key):
        """json reads NaN, Infinity and -Infinity as floats; the reader names the key."""
        text = json.dumps(base_config(tmp_path, **overrides)).replace('"@"', constant)
        with pytest.raises(ValueError) as err:
            config_from_dict(json.loads(text))
        assert str(err.value) == f"config key {key}: expected a finite number, got {float(constant)!r}"

    def test_reads_a_config_with_a_byte_order_mark(self, tmp_path):
        raw = base_config(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(raw).encode())
        assert harness.read_config(path) == raw

    def test_accepts_integers_for_floats_and_partial_schedules(self, tmp_path):
        raw = base_config(tmp_path, env={"window": 4, "transaction_cost": 1},
                          td3={"exploration_noise": {"decay": 20}, "grad_clip_norm": 2})
        cfg = config_from_dict(raw)
        assert cfg.env.transaction_cost == 1
        assert cfg.td3.exploration_noise == DecaySchedule(0.5, 0.05, 20)
        assert cfg.td3.grad_clip_norm == 2

    def test_agent_config_errors_surface_through_the_reader(self, tmp_path):
        raw = base_config(tmp_path, td3={"batch_size": 8, "buffer_capacity": 4})
        with pytest.raises(ValueError, match="^batch_size 8 exceeds buffer_capacity 4$"):
            config_from_dict(raw)

    def test_full_defaults_round_trip(self):
        """Every field written out as JSON reads back to the defaults."""
        defaults = ExperimentConfig(dataset_path="prices.csv")
        raw = json.loads(json.dumps(asdict(defaults)))  # tuples become lists
        raw["dataset"] = {"path": raw.pop("dataset_path"), "columns": raw.pop("columns")}
        raw["ttest"] = {"pairs": raw.pop("ttest_pairs"), "alpha": raw.pop("alpha")}
        assert config_from_dict(raw) == defaults
        raw["dataset"]["columns"] = dict(DEFAULT_COLUMNS)
        assert config_from_dict(raw).columns == DEFAULT_COLUMNS

    @pytest.mark.xfail(strict=True, raises=ValueError,
                       reason="the echo names ExperimentConfig's fields (dataset_path), which "
                              "config_from_dict rejects; mending it moves the echo's bytes")
    def test_the_config_echo_reads_back(self, tmp_path):
        """resolved_config.json, read as a config, gives the run's config back."""
        every_group = base_config(tmp_path, split={"train_frac": 0.7, "valid_frac": 0.1,
                                                   "test_frac": 0.2})
        every_group["dataset"]["columns"] = {"close": "Close"}
        for raw in ({"dataset": {"path": "prices.csv"}}, every_group):
            cfg = config_from_dict(raw)
            assert config_from_dict(json.loads(json.dumps(resolved_config(cfg)))) == cfg

    def test_readme_configs_are_read(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        worked = json.loads(re.search(r"cat > cfg\.json <<'EOF'\n(.*?)\nEOF", readme, re.S).group(1))
        library = ast.literal_eval(re.search(r"config_from_dict\((\{.*?\})\)", readme, re.S).group(1))
        defaults = ExperimentConfig(dataset_path="prices.csv")
        # the Configuration block spells out the defaults, with a cost and five seeds
        assert config_from_dict(block) == replace(
            defaults, env=replace(defaults.env, transaction_cost=0.1), seeds=(0, 1, 2, 3, 4))
        assert config_from_dict(worked).strategies == ("td3", "td3_sign", "td3_d3", "buy_hold",
                                                       "random_d")
        assert config_from_dict(library).seeds == (0, 1, 2)

    def test_resolved_echo_is_json_serializable(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        blob = json.dumps(resolved_config(cfg), sort_keys=True)
        assert "transaction_cost" in blob


class TestEvaluatePolicy:
    def test_equity_and_actions_align(self, rng, tmp_path):
        series = random_walk(30, rng)
        score, equity, actions = evaluate_policy(constant_policy(0.5), series,
                                                 EnvConfig(window=3), "half_long", seed=0)
        steps = len(series) - 1 - 3
        assert len(actions) == steps
        assert len(equity) == steps + 1
        daily = (equity[1:] - equity[:-1]) / equity[:-1]
        assert len(daily) == steps
        assert score.sharpe == sharpe(daily, EnvConfig().annualization_days)
        assert score.return_pct == pytest.approx(return_pct(equity[0], equity[-1]))
        # the dates evaluate_strategies passes start at the first decision bar
        emit_run(score, [d.isoformat() for d in series.dates()[3:]], equity, actions, tmp_path)
        dates = [line.split(",")[0] for line in
                 (tmp_path / "actions_half_long_0.csv").read_text().splitlines()[1:]]
        assert dates[0] == series.dates()[3].isoformat()
        assert dates[len(actions) - 1] == series.dates()[-2].isoformat()

    def test_hold_fee_suppression(self):
        series = make_series([50.0] * 7)
        env_cfg = EnvConfig(window=1, transaction_cost=1.0, initial_cash=100_000.0)
        _, bh, _ = evaluate_policy(constant_policy(1.0), series, env_cfg, "buy_hold", 0,
                                   hold_fees=True)
        _, daily, _ = evaluate_policy(constant_policy(1.0), series, env_cfg, "long", 0,
                                      hold_fees=False)
        # two fee events versus one per day on a flat price
        assert bh[-1] == pytest.approx(100_000.0 * 0.99 * 0.99, rel=1e-12)
        assert daily[-1] == pytest.approx(100_000.0 * 0.99**5, rel=1e-12)

    def test_series_are_read_only_float64(self, rng):
        series = random_walk(30, rng)
        _, equity, actions = evaluate_policy(constant_policy(1), series, EnvConfig(window=3),
                                             "long", 0)
        for values in (equity, actions):
            assert values.dtype == np.float64 and not values.flags.writeable
            if values.size:
                with pytest.raises(ValueError, match="read-only"):
                    values[0] = 0.0

    def test_degenerate_run_gets_zero_sharpe(self, rng):
        series = random_walk(20, rng)
        score, _, _ = evaluate_policy(constant_policy(0.0), series, EnvConfig(window=2), "idle", 0)
        assert score.sharpe == 0.0
        assert score.return_pct == 0.0


class TestEvaluateStrategies:
    def test_td3_strategies_share_one_policies_call(self, tmp_path, monkeypatch):
        raw = base_config(tmp_path, strategies=["td3", "td3_sign", "td3_d3"], seeds=[0])
        cfg = config_from_dict(raw)
        agent = make_agent(cfg, "td3", 0)
        agent.nets["actor"].weights[-1][:] = 0.0
        agent.nets["actor"].biases[-1][:] = -0.3  # tanh(-0.3): short for td3 and td3_sign, flat for td3_d3
        # the close doubles on bar 10: both shorts are wiped there, td3_d3 trades on
        segment = make_series([100.0] * 10 + [200.0] * 10)
        unshared = {
            "td3": evaluate_policy(lambda rows: [greedy_action(agent, r) for r in rows],
                                   segment, cfg.env, "td3", 0),
            "td3_sign": evaluate_policy(lambda rows: [sign_discretize(greedy_action(agent, r)) for r in rows],
                                        segment, cfg.env, "td3_sign", 0),
            "td3_d3": evaluate_policy(lambda rows: [d3_discretize(greedy_action(agent, r)) for r in rows],
                                      segment, cfg.env, "td3_d3", 0),
        }
        policies_rows, forward_rows = [], []
        policies = agent.policies
        monkeypatch.setattr(agent, "policies",
                            lambda rows: policies_rows.append(len(rows)) or policies(rows))
        forward = neuralnet.forward
        monkeypatch.setattr(neuralnet, "forward",
                            lambda net, x, **kw: forward_rows.append(len(x)) or forward(net, x, **kw))
        os.makedirs(cfg.output_dir)  # where run_experiment makes it
        reports = evaluate_strategies(cfg, {"td3": agent}, segment, 0)
        # the scores and the emitted curves are those of the unshared passes
        assert_same_reports(reports, {s: run[0] for s, run in unshared.items()})
        dates = [d.isoformat() for d in segment.dates()[cfg.env.window :]]
        os.makedirs(tmp_path / "unshared")
        for score, equity, actions in unshared.values():
            emit_run(score, dates, equity, actions, tmp_path / "unshared")
        names = curve_names(unshared, [0])
        assert output_files(cfg.output_dir) == names
        assert_same_outputs(cfg.output_dir, tmp_path / "unshared", names)
        steps = {s: len(read_curve(cfg.output_dir, "actions", s, 0)) for s in reports}
        assert steps == {"td3": 6, "td3_sign": 6, "td3_d3": 15}
        rows = max(steps.values())  # td3_d3 is never wiped, so it visits every decision row
        assert policies_rows == [rows]  # one call serves all three strategies
        assert len(forward_rows) == math.ceil(rows / agent.config.batch_size) == 2
        assert forward_rows == [8, 7]

    def test_reports_retain_no_curve(self, tmp_path):
        """The curves go to disk as each pass ends; each returned Score keeps its two
        scores in a constant size, whatever the number of bars."""
        baselines = ["random_c", "random_d", "buy_hold", "sell_hold", "long", "short"]
        cfg = config_from_dict(base_config(tmp_path, strategies=baselines, seeds=[0]))
        segment = random_walk(4_000, np.random.default_rng(3), scale=0.005)
        bars = len(segment) - cfg.env.window
        os.makedirs(cfg.output_dir)  # where run_experiment makes it
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            reports = evaluate_strategies(cfg, {}, segment, 0)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown <= 4096 * len(reports)  # the curves take 24 bytes or more a bar
        for strategy, score in reports.items():
            # a slotted record of four scalars: no __dict__, no array
            assert type(score) is Score and not hasattr(score, "__dict__")
            values = [getattr(score, name) for name in score.__slots__]
            assert values[:2] == [strategy, 0]
            assert not any(isinstance(value, np.ndarray) for value in values)
            assert len(read_curve(cfg.output_dir, "equity", strategy, 0)) == bars  # no wipe


class TestValidation:
    """Validation passes run the agents' batched ``policies``; training drops the replay ring."""

    def config(self, tmp_path, **overrides):
        raw = base_config(tmp_path, **overrides)
        raw["dataset"]["path"] = str(write_dataset(tmp_path, n=400, name="long.csv")[0])
        return config_from_dict(raw)

    @pytest.mark.parametrize("kind,module", [("td3", td3_module), ("tdqn", dqn_module)])
    def test_one_forward_per_block_of_rows(self, tmp_path, monkeypatch, kind, module):
        cfg = self.config(tmp_path)
        _, valid_seg, _ = load_segments(cfg)
        agent = make_agent(cfg, kind, 0)
        calls, own = [], []
        forward = neuralnet.forward
        monkeypatch.setattr(neuralnet, "forward",
                            lambda net, x, **kw: calls.append(len(x)) or forward(net, x, **kw))
        # the agent module's own binding is not on this path: neuralnet.forward_rows stacks the rows
        monkeypatch.setattr(module, "forward", lambda net, x, **kw: own.append(len(x)) or forward(net, x, **kw))
        _, _, actions = evaluate_policy(agent.policies, valid_seg, cfg.env, "validation", -1)
        rows = len(valid_seg) - cfg.env.window - 1
        assert own == []
        assert len(actions) == rows == 35
        assert len(calls) == math.ceil(rows / agent.config.batch_size) == 5
        assert sum(calls) == rows

    @pytest.mark.parametrize("kind", ["td3", "tdqn"])
    def test_selects_the_row_by_row_best_episode(self, tmp_path, kind):
        cfg = self.config(tmp_path, episodes=5)  # one warmup and four learning episodes
        train_seg, valid_seg, _ = load_segments(cfg)
        agent, _ = train_agent_for_seed(cfg, kind, 0, train_seg, valid_seg)

        scores, snapshots = [], []

        def record(a, episode):
            scores.append(validation_sharpe(a, valid_seg, cfg.env))
            snapshots.append(a.snapshot())

        train(make_agent(cfg, kind, 0), train_seg, cfg.env, cfg.episodes, 0, on_episode_end=record)
        best = scores.index(max(scores))
        assert math.isfinite(scores[best]) and len(set(scores)) > 2
        selected = agent.snapshot()
        assert all(np.array_equal(selected[name], theta) for name, theta in snapshots[best].items())

    def test_a_degenerate_pass_scores_minus_inf_and_is_never_selected(self, tmp_path, monkeypatch):
        """Flat equity or a wipe on the first step has no Sharpe ratio; a negative one still wins."""
        cfg = self.config(tmp_path, strategies=["td3"], seeds=[0], episodes=4)
        train_seg, _, _ = load_segments(cfg)
        # window 4: the first step settles 100 -> 200, where a full short is wiped
        valid_seg = make_series([100.0] * 5 + [200.0, 190.0, 200.0, 180.0, 185.0, 170.0, 172.0])
        plans = {0: [0.0] * 7, 1: [-1.0] * 7, 2: [0.0] + [0.5] * 6, 3: [0.0] * 7}
        scores = {}
        for episode, plan in plans.items():
            score, _, actions = evaluate_policy(lambda rows, plan=plan: plan, valid_seg, cfg.env,
                                                "validation", -1, degenerate_sharpe=-math.inf)
            scores[episode] = score.sharpe
            if episode == 1:
                assert len(actions) == 1  # wiped on its first step
        assert scores[0] == scores[1] == scores[3] == -math.inf < scores[2] < 0.0

        snapshots, make = {}, harness.make_agent

        def scripted(cfg, kind, seed):  # validation passes follow the plans, episode by episode
            agent = make(cfg, kind, seed)

            def policies(rows):
                snapshots[agent.episodes_trained - 1] = agent.snapshot()
                return plans[agent.episodes_trained - 1]

            agent.policies = policies
            return agent

        monkeypatch.setattr(harness, "make_agent", scripted)
        agent, _ = train_agent_for_seed(cfg, "td3", 0, train_seg, valid_seg)
        selected = agent.snapshot()
        assert sorted(snapshots) == [0, 1, 2, 3]
        assert all(np.array_equal(selected[name], theta) for name, theta in snapshots[2].items())
        assert not all(np.array_equal(selected[name], theta) for name, theta in snapshots[3].items())

    def test_trained_agents_drop_replay_rows_and_still_save_and_evaluate(self, tmp_path):
        cfg = self.config(tmp_path, strategies=["td3", "td3_sign", "tdqn"], seeds=[0], episodes=2)
        train_seg, valid_seg, test_seg = load_segments(cfg)
        os.makedirs(harness.checkpoint_dir(cfg))  # where run_experiment makes it
        agents = train_seed(cfg, 0, train_seg, valid_seg)
        for agent in agents.values():
            assert not hasattr(agent, "buffer")
        reports = evaluate_strategies(cfg, agents, test_seg, 0)
        reloaded = replace(cfg, output_dir=str(tmp_path / "reloaded"))
        os.makedirs(reloaded.output_dir)
        assert_same_reports(evaluate_strategies(reloaded, load_agents(cfg, 0), test_seg, 0), reports)
        names = curve_names(cfg.strategies, [0])
        assert output_files(reloaded.output_dir) == names
        assert_same_outputs(cfg.output_dir, reloaded.output_dir, names)


class TestCompareReport:
    def reports(self, values, strategy):
        return [Score(strategy=strategy, seed=i, return_pct=v, sharpe=v / 2.0)
                for i, v in enumerate(values)]

    def test_identical_metrics_keep_null(self):
        reports = {
            "a": self.reports([1.0, 2.0, 3.0], "a"),
            "b": self.reports([1.0, 2.0, 3.0], "b"),
        }
        rows = compare_report(reports, [("a", "b")], alpha=0.01)
        assert {r.metric for r in rows} == {"return_pct", "sharpe"}
        for row in rows:
            assert row.result.t0 == 0.0
            assert row.result.p_value == 0.5
            assert not row.result.reject

    def test_constructed_separation_rejects(self):
        x = [1.0, 1.1, 0.9, 1.05]
        reports = {
            "worse": self.reports(x, "worse"),
            "better": self.reports([v + 1.0 for v in x], "better"),
        }
        rows = compare_report(reports, [("worse", "better")], alpha=0.01)
        for row in rows:
            assert row.result.t0 < -100
            assert row.result.p_value < 0.01
            assert row.result.reject

    def test_misaligned_lists_rejected(self):
        reports = {
            "a": self.reports([1.0, 2.0], "a"),
            "b": self.reports([1.0, 2.0, 3.0], "b"),
        }
        with pytest.raises(ValueError, match="misaligned"):
            compare_report(reports, [("a", "b")], alpha=0.01)

    def test_unevaluated_strategy_rejected(self):
        with pytest.raises(ValueError, match="unevaluated"):
            compare_report({"a": self.reports([1.0, 2.0], "a")}, [("a", "zzz")], alpha=0.01)


class TestRunExperiment:
    def test_deterministic_strategy_rows_identical_across_seeds(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path, strategies=["buy_hold"], seeds=[0, 1, 2]))
        table, reports, _ = run_experiment(cfg)
        runs = reports["buy_hold"]
        assert len({r.return_pct for r in runs}) == 1
        assert table[0].return_pct == pytest.approx(runs[0].return_pct)

    def test_outputs_exist_and_roundtrip(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        _, reports, _ = run_experiment(cfg)
        for strategy in cfg.strategies:
            assert len(reports[strategy]) == len(cfg.seeds)
        out = cfg.output_dir
        assert os.path.exists(os.path.join(out, "comparison.csv"))
        assert os.path.exists(os.path.join(out, "resolved_config.json"))
        assert os.path.exists(os.path.join(out, "ttest.csv"))
        for strategy in cfg.strategies:
            for seed in cfg.seeds:
                assert os.path.exists(os.path.join(out, f"equity_{strategy}_{seed}.csv"))
                assert os.path.exists(os.path.join(out, f"actions_{strategy}_{seed}.csv"))

        # re-reading the equity files reproduces every fresh score bit for bit
        reread = harness.read_scores(cfg, cfg.strategies)
        for strategy in cfg.strategies:
            for fresh, again in zip(reports[strategy], reread[strategy], strict=True):
                assert (again.strategy, again.seed) == (fresh.strategy, fresh.seed)
                assert again.return_pct == fresh.return_pct
                assert again.sharpe == fresh.sharpe

    def test_actions_stay_in_bounds(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        run_experiment(cfg)
        for strategy in cfg.strategies:
            for seed in cfg.seeds:
                actions = read_curve(cfg.output_dir, "actions", strategy, seed)
                assert actions and all(-1.0 <= a <= 1.0 for a in actions)

    def test_byte_identical_reruns(self, tmp_path):
        raw = base_config(tmp_path)
        cfg_a = config_from_dict({**raw, "output_dir": str(tmp_path / "out_a")})
        cfg_b = config_from_dict({**raw, "output_dir": str(tmp_path / "out_b")})
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        files_a = sorted(os.listdir(cfg_a.output_dir))
        files_b = sorted(os.listdir(cfg_b.output_dir))
        assert [f for f in files_a if f.endswith(".csv")] == [f for f in files_b if f.endswith(".csv")]
        for name in files_a:
            full_a = os.path.join(cfg_a.output_dir, name)
            if not os.path.isfile(full_a):
                continue
            if name == "resolved_config.json":
                continue  # embeds the differing output_dir, by design
            with open(full_a, "rb") as fh:
                blob_a = fh.read()
            with open(os.path.join(cfg_b.output_dir, name), "rb") as fh:
                blob_b = fh.read()
            assert blob_a == blob_b, name

    def test_worker_pool_matches_sequential(self, tmp_path):
        raw = base_config(tmp_path, strategies=["td3", "buy_hold", "random_c"])
        cfg_seq = config_from_dict({**raw, "output_dir": str(tmp_path / "seq")})
        cfg_par = config_from_dict({**raw, "output_dir": str(tmp_path / "par"), "workers": 2})
        table_seq, reports_seq, _ = run_experiment(cfg_seq)
        table_par, reports_par, _ = run_experiment(cfg_par)
        assert table_seq == table_par
        assert reports_seq.keys() == reports_par.keys()
        for strategy in reports_seq:
            assert len(reports_seq[strategy]) == len(reports_par[strategy])
            for a, b in zip(reports_seq[strategy], reports_par[strategy]):
                assert_same_reports(a, b)
                # a worker sends back scores alone; its curves are in the files compared below
                assert type(b) is Score and not hasattr(b, "__dict__")
        # the workers write each seed's checkpoints, logs and curves themselves
        names = output_files(cfg_seq.output_dir)
        assert names == output_files(cfg_par.output_dir)
        assert len(names) == 27  # 18 curves, 3 checkpoints, 3 training logs, table, t-tests, config
        assert_same_outputs(cfg_seq.output_dir, cfg_par.output_dir, names)

    def test_importing_the_package_loads_no_worker_pool(self):
        """Only ``workers > 1`` pays for multiprocessing; a plain run never imports it."""
        src = os.path.dirname(os.path.dirname(tradelab.__file__))
        code = ("import sys, tradelab, tradelab.cli, tradelab.harness; "
                "print(*sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
                "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "\n"

    def test_the_pool_has_no_more_processes_than_seeds(self, tmp_path, monkeypatch):
        """``map_seeds`` asks for min(workers, seeds) processes, and runs a lone seed in
        this process; a recording stand-in takes the pool's place, so nothing forks."""
        import concurrent.futures
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, seeds):
                return map(fn, seeds)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        raw = base_config(tmp_path)
        for workers, seeds, want in ((8, [0, 1], [2]), (4, [0], []), (2, [0, 1, 2], [2]), (3, [5, 6, 7], [3])):
            pools.clear()
            cfg = config_from_dict({**raw, "workers": workers, "seeds": seeds})
            assert list(map_seeds(cfg, lambda seed: -seed)) == [-seed for seed in seeds]
            assert pools == want, (workers, seeds)

    def test_a_failed_seed_keeps_the_files_of_the_seeds_before_it(self, tmp_path, monkeypatch):
        strategies = ["td3", "tdqn", "buy_hold", "random_c"]
        raw = base_config(tmp_path, strategies=strategies, seeds=[0, 1], episodes=2)
        whole = config_from_dict({**raw, "output_dir": str(tmp_path / "whole")})
        cut = config_from_dict({**raw, "output_dir": str(tmp_path / "cut")})
        run_experiment(whole)
        trained = harness.train_agent_for_seed

        def fail_on_seed_1(cfg, kind, seed, *segments):
            if seed == 1:
                raise RuntimeError("seed 1 failed")
            return trained(cfg, kind, seed, *segments)

        monkeypatch.setattr(harness, "train_agent_for_seed", fail_on_seed_1)
        with pytest.raises(RuntimeError, match="seed 1 failed"):
            run_experiment(cut)
        names = output_files(cut.output_dir)
        assert names == sorted(
            [f"checkpoints/{kind}_seed0.npz" for kind in ("td3", "tdqn")]
            + [f"training_log_{kind}_0.csv" for kind in ("td3", "tdqn")]
            + [f"{name}_{s}_0.csv" for s in strategies for name in ("equity", "actions")])
        assert_same_outputs(whole.output_dir, cut.output_dir, names)
        # the cross-seed files come only after the last seed
        assert not os.path.exists(os.path.join(cut.output_dir, "comparison.csv"))

    def test_readme_library_block_runs_as_written(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
        path, _ = write_dataset(tmp_path, n=400)
        read = harness.config_from_dict

        def small(raw):  # the block's config on a small series and a short run
            return read({**raw, "dataset": {"path": str(path)}, "env": {"window": 20},
                         "episodes": 2, "td3": {"warmup_episodes": 1},
                         "dqn": {"warmup_episodes": 1}, "output_dir": str(tmp_path / "out")})

        monkeypatch.setattr(harness, "config_from_dict", small)
        exec(compile(block, "README.md (Library use)", "exec"), {})
        printed = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in printed] == ["td3", "buy_hold"]
        assert (tmp_path / "out" / "comparison.csv").exists()

    def test_missing_dataset(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        cfg = type(cfg)(**{**cfg.__dict__, "dataset_path": str(tmp_path / "gone.csv")})
        with pytest.raises(FileNotFoundError, match=f"^no such data file: {re.escape(cfg.dataset_path)}$"):
            run_experiment(cfg)
        assert not os.path.exists(cfg.output_dir)


class TestCsvFormat:
    def test_headers_newlines_and_precision(self, tmp_path):
        score = Score(strategy="unit", seed=3, return_pct=10.0, sharpe=1.2300000000000002)
        os.makedirs(tmp_path / "fmt")
        emit_outputs(build_table({"unit": [score]}, ["unit"]), [], tmp_path / "fmt", {})
        emit_run(score, ["2020-01-01", "2020-01-02"], np.array([1.0, 1.1]),
                 np.array([0.123456789012345678]), tmp_path / "fmt")
        with open(tmp_path / "fmt" / "comparison.csv", "rb") as fh:
            blob = fh.read()
        assert b"\r" not in blob
        text = blob.decode("utf-8").splitlines()
        assert text[0] == "strategy,return_pct,sharpe"
        assert float(text[1].split(",")[2]) == 1.2300000000000002  # 17 digits round-trip
        with open(tmp_path / "fmt" / "actions_unit_3.csv") as fh:
            action_line = fh.read().splitlines()[1]
        assert float(action_line.split(",")[1]) == 0.123456789012345678

    def test_each_value_has_the_bytes_of_format_17g(self, tmp_path, monkeypatch):
        """Each file-wide "%.17g" template writes what format(x, ".17g") gives, row by row:
        a curve, the comparison table, the t-tests and a training log."""
        values = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                  0.1, 1 / 3, -1e300, 123456789.0]
        values += np.random.default_rng(4).standard_normal(200).tolist()
        dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(len(values) + 1))
        emit_run(Score(strategy="unit", seed=0, return_pct=0.0, sharpe=0.0),
                 [d.isoformat() for d in dates], np.array(values + [1.0]), np.array(values),
                 tmp_path)
        lines = [f"{d.isoformat()},{format(x, '.17g')}" for d, x in zip(dates, values)]
        assert (tmp_path / "actions_unit_0.csv").read_text() == "\n".join(["date,action"] + lines) + "\n"

        def read_lines(name):
            return (tmp_path / name).read_text().splitlines()

        pairs = list(zip(values, values[::-1]))
        g = [(format(x, ".17g"), format(y, ".17g")) for x, y in pairs]
        emit_outputs(tuple(ComparisonRow(f"s{i}", x, y) for i, (x, y) in enumerate(pairs)),
                     [TTestRow(f"s{i}_vs_s0", "sharpe", TTestResult(x, y, df=i, reject=False))
                      for i, (x, y) in enumerate(pairs)], tmp_path, {})
        assert read_lines("comparison.csv") == ["strategy,return_pct,sharpe"] + [
            f"s{i},{x},{y}" for i, (x, y) in enumerate(g)]
        assert read_lines("ttest.csv") == ["pair,metric,t0,df,p_value"] + [
            f"s{i}_vs_s0,sharpe,{x},{i},{y}" for i, (x, y) in enumerate(g)]

        records = [{"episode": i, "warmup": i < 3, "total_reward": x, "final_cash": y, "mean_loss": x}
                   for i, (x, y) in enumerate(pairs)]
        cfg = config_from_dict(base_config(tmp_path, strategies=["tdqn"], output_dir=str(tmp_path)))
        monkeypatch.setattr(harness, "train_agent_for_seed",
                            lambda cfg, kind, seed, *segments: (make_agent(cfg, kind, seed), records))
        os.makedirs(harness.checkpoint_dir(cfg))
        train_seed(cfg, 0, None, None)
        assert read_lines("training_log_tdqn_0.csv") == [
            "episode,warmup,total_reward,final_cash,mean_loss",
            *(f"{i},{int(i < 3)},{x},{y},{x}" for i, (x, y) in enumerate(g))]


class TestCli:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw, indent=1))
        return path

    def test_compare_then_ttest(self, tmp_path, capsys):
        raw = base_config(tmp_path)
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["compare", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "strategy" in out and "buy_hold" in out
        ttest_csv = tmp_path / "out" / "ttest.csv"
        written = ttest_csv.read_bytes()
        ttest_csv.unlink()
        assert main(["ttest", "--config", str(cfg_path),
                     "--pairs", "random_c:buy_hold"]) == 0
        # rebuilt from the equity curves, the t-tests match the ones compare ran
        assert ttest_csv.read_bytes() == written
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2 and out.splitlines()[-2:] == printed

    def test_train_then_evaluate(self, tmp_path):
        raw = base_config(tmp_path, strategies=["td3", "buy_hold"], seeds=[0],
                          episodes=2)
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = os.path.join(raw["output_dir"], "checkpoints", "td3_seed0.npz")
        assert os.path.exists(ckpt)
        assert os.path.exists(os.path.join(raw["output_dir"], "training_log_td3_0.csv"))
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        assert os.path.exists(os.path.join(raw["output_dir"], "equity_td3_0.csv"))

    def test_train_over_workers_matches_sequential(self, tmp_path, capsys, monkeypatch):
        """``train`` runs its seeds in ``workers`` processes, with the training logs,
        checkpoint arrays and stdout of a sequential run."""
        raw = base_config(tmp_path, strategies=["td3", "tdqn", "buy_hold"], seeds=[0, 1],
                          episodes=2)
        seq_path = self.write_config(tmp_path, raw)
        par_path = tmp_path / "par.json"
        par_path.write_text(json.dumps({**raw, "workers": 2}))
        trained, train_seed = [], cli.train_seed  # seeds trained in this process
        monkeypatch.setattr(cli, "train_seed", lambda cfg, seed, *segments:
                            trained.append(seed) or train_seed(cfg, seed, *segments))
        out, seq_dir = Path(raw["output_dir"]), tmp_path / "seq"
        capsys.readouterr()
        assert main(["train", "--config", str(seq_path)]) == 0
        seq_out = capsys.readouterr()
        assert trained == [0, 1]
        out.rename(seq_dir)
        assert main(["train", "--config", str(par_path)]) == 0
        par_out = capsys.readouterr()
        assert trained == [0, 1]  # the workers trained both seeds
        assert par_out.out == seq_out.out and par_out.err == seq_out.err == ""
        assert len(seq_out.out.splitlines()) == 4
        names = output_files(seq_dir)
        assert names == output_files(out)
        assert len(names) == 8  # 4 checkpoints, 4 training logs
        assert_same_outputs(seq_dir, out, names)

    def test_compare_equals_train_then_evaluate(self, tmp_path):
        raw = base_config(tmp_path, seeds=[0, 1], episodes=2,
                          ttest={"pairs": [["td3_sign", "td3"]]},
                          strategies=["td3", "td3_sign", "td3_d3", "tdqn", "buy_hold", "random_c"])
        compare_dir, split_dir = tmp_path / "compare", tmp_path / "split"
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["compare", "--config", str(cfg_path), "--output-dir", str(compare_dir)]) == 0
        for verb in ("train", "evaluate"):
            assert main([verb, "--config", str(cfg_path), "--output-dir", str(split_dir)]) == 0

        names = output_files(compare_dir)
        assert names == output_files(split_dir)
        assert len(names) == 35  # 24 curves, 4 checkpoints, 4 training logs, table, t-tests, config
        assert_same_outputs(compare_dir, split_dir, names)

    def test_evaluate_memory_is_flat_in_the_seed_count(self, tmp_path, capsys):
        """Six seeds peak where two do: a seed leaves only its scores behind."""
        baselines = ["random_c", "buy_hold", "sell_hold", "short"]
        raw = base_config(tmp_path, strategies=baselines,
                          split={"train_frac": 0.1, "valid_frac": 0.1, "test_frac": 0.8})
        raw["dataset"]["path"] = str(write_dataset(tmp_path, n=2000, name="long.csv")[0])
        cfg_path = self.write_config(tmp_path, raw)
        bars = len(load_segments(config_from_dict(raw))[2]) - 4

        def peak(seeds):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert main(["evaluate", "--config", str(cfg_path), "--seeds", seeds]) == 0
            return tracemalloc.get_traced_memory()[1] - before

        tracemalloc.start()
        try:
            peak("0,1")  # one-time allocations come before the measured calls
            two, six = peak("0,1"), peak("0,1,2,3,4,5")
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        curves = 4 * len(baselines) * 24 * bars  # four more seeds' equity, actions and dates
        slack = 64 * 1024
        assert slack < curves / 8
        assert six - two <= slack, (two, six)

    def test_evaluate_writes_and_frees_each_seed_before_the_next_loads(self, tmp_path, monkeypatch):
        raw = base_config(tmp_path, strategies=["td3", "tdqn", "buy_hold"], episodes=1)
        cfg = config_from_dict(raw)
        for seed in cfg.seeds:
            for kind in ("td3", "tdqn"):
                os.makedirs(os.path.dirname(harness.checkpoint_path(cfg, kind, seed)), exist_ok=True)
                make_agent(cfg, kind, seed).save(harness.checkpoint_path(cfg, kind, seed))
        seen, loaded, load = {}, [], harness.load_agents

        def watched(cfg, seed):
            seen[seed] = ([name for name in output_files(cfg.output_dir) if name.endswith(".csv")],
                          [ref() for ref in loaded])
            agents = load(cfg, seed)
            loaded.extend(weakref.ref(agent) for agent in agents.values())
            return agents

        monkeypatch.setattr(harness, "load_agents", watched)
        assert main(["evaluate", "--config", str(self.write_config(tmp_path, raw))]) == 0
        assert sorted(seen) == list(cfg.seeds)
        for seed, (curves, agents) in seen.items():
            # the earlier seeds' two CSVs per strategy are on disk, and their agents are gone
            assert curves == curve_names(cfg.strategies, cfg.seeds[: cfg.seeds.index(seed)])
            assert agents == [None] * 2 * seed

    def test_evaluate_over_workers_matches_sequential_and_splits_missing_files(self, tmp_path,
                                                                                capsys):
        """``workers`` runs evaluate's seeds in a pool with the same bytes; a worker's missing
        checkpoint keeps its path across the process boundary (exit 2), while a missing
        dataset stays an exit-1 error."""
        raw = base_config(tmp_path, strategies=["td3", "tdqn", "buy_hold", "random_c"],
                          seeds=[0, 1], episodes=1)
        seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
        seq_path = self.write_config(tmp_path, {**raw, "output_dir": str(seq_dir)})
        par_path = tmp_path / "par.json"
        par_path.write_text(json.dumps({**raw, "output_dir": str(par_dir), "workers": 2}))
        assert main(["train", "--config", str(seq_path)]) == 0
        shutil.copytree(seq_dir, par_dir)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(seq_path)]) == 0
        seq_out = capsys.readouterr()
        assert main(["evaluate", "--config", str(par_path)]) == 0
        par_out = capsys.readouterr()
        assert par_out.out == seq_out.out and par_out.err == seq_out.err == ""
        names = output_files(seq_dir)
        assert names == output_files(par_dir)
        assert len(names) == 27  # 16 curves, 4 checkpoints, 4 training logs, table, t-tests, config
        assert_same_outputs(seq_dir, par_dir, names)

        ckpt = par_dir / "checkpoints" / "tdqn_seed1.npz"
        ckpt.unlink()
        assert main(["evaluate", "--config", str(par_path)]) == 2
        assert capsys.readouterr().err == f"missing checkpoint {ckpt}; run `tradelab train` first\n"

        data = tmp_path / "gone.csv"
        par_path.write_text(json.dumps({**raw, "dataset": {"path": str(data)},
                                        "output_dir": str(par_dir), "workers": 2}))
        assert main(["evaluate", "--config", str(par_path)]) == 1
        assert capsys.readouterr().err == f"error: no such data file: {data}\n"

    def test_workers_flag_on_train_and_evaluate(self, tmp_path, capsys, monkeypatch):
        """``--workers`` sets ``workers`` for train and evaluate as for compare: both run
        their seeds in worker processes, and evaluate writes the curves, table and
        t-tests of a sequential evaluate."""
        raw = base_config(tmp_path, strategies=["td3", "tdqn", "buy_hold", "random_c"],
                          seeds=[0, 1], episodes=1)
        cfg_path = self.write_config(tmp_path, raw)
        out, seq_dir = Path(raw["output_dir"]), tmp_path / "seq"
        ran, train_seed, load_agents = [], cli.train_seed, harness.load_agents  # seeds run in this process
        monkeypatch.setattr(cli, "train_seed", lambda cfg, seed, *segments:
                            ran.append(seed) or train_seed(cfg, seed, *segments))
        monkeypatch.setattr(harness, "load_agents", lambda cfg, seed:
                            ran.append(seed) or load_agents(cfg, seed))
        assert main(["train", "--config", str(cfg_path), "--workers", "2"]) == 0
        assert ran == []  # the workers trained both seeds
        shutil.copytree(out, seq_dir)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg_path), "--output-dir", str(seq_dir)]) == 0
        seq_out = capsys.readouterr()
        assert ran == [0, 1]
        assert main(["evaluate", "--config", str(cfg_path), "--workers", "2"]) == 0
        par_out = capsys.readouterr()
        assert ran == [0, 1]  # the workers loaded both seeds' agents
        assert par_out.out == seq_out.out and par_out.err == seq_out.err == ""
        names = output_files(seq_dir)
        assert names == output_files(out)
        assert len(names) == 27  # 16 curves, 4 checkpoints, 4 training logs, table, t-tests, config
        assert_same_outputs(seq_dir, out, names)

    def test_evaluate_without_checkpoint_fails(self, tmp_path, capsys):
        raw = base_config(tmp_path, strategies=["td3"], seeds=[0])
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["evaluate", "--config", str(cfg_path)]) == 2
        ckpt = os.path.join(raw["output_dir"], "checkpoints", "td3_seed0.npz")
        assert capsys.readouterr().err == f"missing checkpoint {ckpt}; run `tradelab train` first\n"

    def test_evaluate_with_a_directory_for_a_checkpoint_fails(self, tmp_path, capsys):
        raw = base_config(tmp_path, strategies=["td3"], seeds=[0])
        ckpt = os.path.join(raw["output_dir"], "checkpoints", "td3_seed0.npz")
        os.makedirs(ckpt)
        assert main(["evaluate", "--config", str(self.write_config(tmp_path, raw))]) == 1
        assert capsys.readouterr().err == f"error: {ckpt}: Is a directory\n"

    def test_evaluate_with_another_window_fails(self, tmp_path, capsys):
        raw = base_config(tmp_path, strategies=["td3", "tdqn"], seeds=[0], episodes=1)
        raw["env"]["window"] = 6
        assert main(["train", "--config", str(self.write_config(tmp_path, raw))]) == 0
        capsys.readouterr()
        raw["env"]["window"] = 8
        assert main(["evaluate", "--config", str(self.write_config(tmp_path, raw))]) == 1
        ckpt = os.path.join(raw["output_dir"], "checkpoints", "td3_seed0.npz")
        err = capsys.readouterr().err
        assert err == (f"error: {ckpt}: checkpoint actor has layer dims (6, 8, 1), "
                       "but env.window 8 builds (8, 8, 1)\n")

    @pytest.mark.parametrize("damage,message", [
        ("drop_array", "critic2.b1 is not a file in the archive"),
        ("truncate", "File is not a zip file"),
        ("nan_weight", "checkpoint array actor.w0 is not finite"),
    ])
    def test_evaluate_with_a_half_written_checkpoint_fails(self, tmp_path, capsys, damage, message):
        raw = base_config(tmp_path, strategies=["td3"], seeds=[0])
        cfg = config_from_dict(raw)
        ckpt = harness.checkpoint_path(cfg, "td3", 0)
        os.makedirs(os.path.dirname(ckpt))
        make_agent(cfg, "td3", 0).save(ckpt)  # where `tradelab train` writes it
        if damage == "truncate":
            with open(ckpt, "r+b") as fh:
                fh.truncate(200)
        else:
            with np.load(ckpt) as data:
                arrays = {key: data[key] for key in data.files}
            if damage == "drop_array":
                del arrays["critic2.b1"]
            else:
                arrays["actor.w0"][0, 0] = np.nan  # the actor's first weight
            np.savez(ckpt, **arrays)
        assert main(["evaluate", "--config", str(self.write_config(tmp_path, raw))]) == 1
        assert capsys.readouterr().err == f"error: {ckpt}: {message}\n"

    def test_compare_warns_about_skipped_work(self, tmp_path):
        raw = base_config(tmp_path, strategies=["long"], seeds=[0])
        del raw["ttest"]  # the default pairs need agent strategies
        data = raw["dataset"]["path"]
        with open(data, "a", encoding="utf-8") as fh:
            fh.write("2030-01-01,null,null,null,null,null\n")
        src = os.path.dirname(os.path.dirname(tradelab.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "tradelab.cli", "compare", "--config",
             str(self.write_config(tmp_path, raw))],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            f"{data}: dropped 1 row(s) with blank or unparseable fields",
            "skipping t-test pair(s) td3_sign:td3, td3_d3:td3: strategies not requested",
            "skipping all t-tests: a paired t-test needs at least 2 seeds, got 1",
        ]

    def test_train_without_trainable_strategy_fails(self, tmp_path, capsys):
        raw = base_config(tmp_path, strategies=["buy_hold"])
        raw["dataset"]["path"] = str(tmp_path / "absent.csv")  # the check runs before the load
        assert main(["train", "--config", str(self.write_config(tmp_path, raw))]) == 2
        assert capsys.readouterr().err == "no trainable strategies requested; nothing to do\n"
        assert not os.path.exists(raw["output_dir"])

    def test_ttest_without_equity_curves_fails(self, tmp_path, capsys):
        raw = base_config(tmp_path)
        assert main(["ttest", "--config", str(self.write_config(tmp_path, raw))]) == 2
        curve = os.path.join(raw["output_dir"], "equity_buy_hold_0.csv")
        assert capsys.readouterr().err == (
            f"missing {curve}; run `tradelab compare` or `evaluate` first\n")

    def test_ttest_on_one_seed_names_the_seed_shortfall(self, tmp_path, capsys):
        raw = base_config(tmp_path, strategies=["long", "short"], seeds=[0],
                          ttest={"pairs": [["long", "short"]]})
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["compare", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["ttest", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "error: a paired t-test needs at least 2 seeds, got 1\n"

    @pytest.mark.parametrize("edit,message", [
        (lambda lines: lines[:1], "1: an equity curve needs at least 2 rows, got 0"),
        (lambda lines: lines[:2], "2: an equity curve needs at least 2 rows, got 1"),
        (lambda lines: ["date,value", *lines[1:]], "1: no cash column"),
        (lambda lines: [*lines[:2], lines[2].split(",")[0] + ",abc", *lines[3:]],
         "3: cash must be a finite number > 0, got 'abc'"),
        (lambda lines: [*lines[:3], lines[3].split(",")[0] + ",0", *lines[4:]],
         "4: cash must be a finite number > 0, got '0'"),
        (lambda lines: [*lines[:2], lines[2].split(",")[0] + ",nan", *lines[3:]],
         "3: cash must be a finite number > 0, got 'nan'"),
        (lambda lines: [*lines[:2], lines[2].split(",")[0], *lines[3:]],
         "3: cash must be a finite number > 0, got None"),
    ])
    def test_ttest_on_a_half_written_curve_names_its_line(self, tmp_path, capsys, edit, message):
        raw = base_config(tmp_path, strategies=["long", "short"], seeds=[0, 1],
                          ttest={"pairs": [["long", "short"]]})
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["compare", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        curve = Path(raw["output_dir"]) / "equity_long_0.csv"
        curve.write_text("\n".join(edit(curve.read_text().splitlines())) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way to the message
            assert main(["ttest", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {curve}:{message}\n"

    @pytest.mark.parametrize("target", ["config", "dataset", "curve"])
    def test_unreadable_input_names_its_path(self, tmp_path, capsys, target):
        raw = base_config(tmp_path, strategies=["long", "short"], seeds=[0, 1],
                          ttest={"pairs": [["long", "short"]]})
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["compare", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        path = {"config": cfg_path, "dataset": Path(raw["dataset"]["path"]),
                "curve": Path(raw["output_dir"]) / "equity_long_0.csv"}[target]
        verb = "ttest" if target == "curve" else "compare"
        path.write_bytes(path.read_bytes() + b"\xff\n")  # not UTF-8
        assert main([verb, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")
        if target == "dataset":  # a bar whose low exceeds its high is named by its line
            path.write_text("Date,Open,High,Low,Close,Volume\n2020-01-01,1,1,1,1,1\n"
                            "2020-01-02,1,1,1,1,1\n2020-01-03,1,1,2,1,1\n")
            assert main([verb, "--config", str(cfg_path)]) == 1
            assert capsys.readouterr().err == (
                f"error: {path}:4: low exceeds open/close/high on 2020-01-03\n")
        path.unlink()
        path.mkdir()
        assert main([verb, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: Is a directory\n"

    def test_bad_config_reports_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["compare", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,message", [
        ({"env": {"window": 4, "transacton_cost": 5}}, "unknown config key env.transacton_cost"),
        ({"episodes": "50"}, "config key episodes: expected int, got '50'"),
        ({"env": {"window": 4, "transaction_cost": float("nan")}},
         "config key env.transaction_cost: expected a finite number, got nan"),
        ({"td3": {"actor_hidden": [0]}}, "actor_hidden sizes must be >= 1, got (0,)"),
        ({"dqn": {"epsilon": {"initial": 2}}}, "epsilon.initial must lie in [0, 1], got 2"),
    ])
    def test_invalid_config_reports_the_key(self, tmp_path, capsys, overrides, message):
        raw = base_config(tmp_path, **overrides)
        raw["dataset"]["path"] = str(tmp_path / "absent.csv")  # each check runs before the load
        assert main(["compare", "--config", str(self.write_config(tmp_path, raw))]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(raw["output_dir"])

    def test_seed_override(self, tmp_path):
        raw = base_config(tmp_path, strategies=["buy_hold"])
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["compare", "--config", str(cfg_path), "--seeds", "7"]) == 0
        assert os.path.exists(os.path.join(raw["output_dir"], "equity_buy_hold_7.csv"))

    def test_zero_workers_rejected(self, tmp_path, capsys):
        raw = base_config(tmp_path, strategies=["buy_hold"])
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["compare", "--config", str(cfg_path), "--workers", "0"]) == 1
        assert capsys.readouterr().err == "error: workers must be >= 1\n"
        assert not os.path.exists(raw["output_dir"])

    @pytest.mark.parametrize("overrides,flags", [
        ({"strategies": []}, []),
        ({}, ["--strategies", ","]),
    ])
    def test_empty_strategy_list_fails(self, tmp_path, capsys, overrides, flags):
        raw = base_config(tmp_path, **overrides)
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["compare", "--config", str(cfg_path), *flags]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "strategies" in err[0]
        assert not os.path.exists(raw["output_dir"])

    def test_strategy_override_validates_with_the_config(self, tmp_path, capsys):
        raw = base_config(tmp_path)
        del raw["strategies"]  # the default list has mrma/tfma, which window 4 cannot feed
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["compare", "--config", str(cfg_path)]) == 1
        assert "need env.window >= 20" in capsys.readouterr().err
        assert main(["compare", "--config", str(cfg_path), "--strategies", "long"]) == 0
        assert os.path.exists(os.path.join(raw["output_dir"], "equity_long_0.csv"))

    @pytest.mark.parametrize("flag,message", [
        ("mrma", "mrma/tfma with ma_window 20 need env.window >= 20"),
        ("long,momentum", "unknown strategies ['momentum']"),
        ("long,long", "strategies must be unique; 'long' repeats"),
    ])
    def test_invalid_strategy_override_fails_by_name(self, tmp_path, capsys, flag, message):
        raw = base_config(tmp_path)
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["compare", "--config", str(cfg_path), "--strategies", flag]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not os.path.exists(raw["output_dir"])

    def test_values_that_would_fail_after_training_fail_on_read(self, tmp_path, capsys):
        raw = base_config(tmp_path, strategies=["td3", "mrma"], ma_window=1, ttest={"alpha": -3})
        assert main(["compare", "--config", str(self.write_config(tmp_path, raw))]) == 1
        assert capsys.readouterr().err == "error: ttest.alpha must lie in (0, 1), got -3\n"
        raw["ttest"] = {"alpha": 0.05}
        assert main(["compare", "--config", str(self.write_config(tmp_path, raw))]) == 1
        assert capsys.readouterr().err == "error: ma_window must be >= 2 for mrma, got 1\n"
        assert not os.path.exists(raw["output_dir"])

    def test_ttest_pair_of_one_strategy_fails_by_name(self, tmp_path, capsys):
        raw = base_config(tmp_path, strategies=["long"])
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["ttest", "--config", str(cfg_path), "--pairs", "long:long"]) == 1
        assert capsys.readouterr().err == (
            "error: t-test pair ('long', 'long') compares a strategy with itself\n")

    def test_alpha_flag_is_checked(self, tmp_path, capsys):
        raw = base_config(tmp_path, strategies=["buy_hold"])
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["ttest", "--config", str(cfg_path), "--alpha", "5"]) == 1
        assert capsys.readouterr().err == "error: ttest.alpha must lie in (0, 1), got 5.0\n"

    @pytest.mark.parametrize("strategy", ["long", "random_c"])
    def test_negative_seed_fails_before_the_data_load(self, tmp_path, capsys, strategy):
        raw = base_config(tmp_path, strategies=[strategy])
        raw["dataset"]["path"] = str(tmp_path / "absent.csv")
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["compare", "--config", str(cfg_path), "--seeds", "-1"]) == 1
        assert capsys.readouterr().err == "error: seeds must be >= 0, got -1\n"
        assert not os.path.exists(raw["output_dir"])

    @pytest.mark.parametrize("overrides,flags", [({"output_dir": ""}, []), ({}, ["--output-dir", ""])])
    def test_empty_output_dir_fails_before_the_data_load(self, tmp_path, capsys, monkeypatch,
                                                         overrides, flags):
        raw = base_config(tmp_path, strategies=["td3"], **overrides)
        raw["dataset"]["path"] = str(tmp_path / "absent.csv")
        cfg_path = self.write_config(tmp_path, raw)
        monkeypatch.chdir(tmp_path)  # where an empty output_dir would write
        assert main(["compare", "--config", str(cfg_path), *flags]) == 1
        assert capsys.readouterr().err == "error: output_dir must name a directory, got ''\n"
        assert sorted(os.listdir(tmp_path)) == ["config.json", "prices.csv"]

    @pytest.mark.parametrize("verb", ["compare", "train"])
    def test_output_dir_that_cannot_be_made_fails_before_training(self, tmp_path, capsys,
                                                                  monkeypatch, verb):
        afile = tmp_path / "afile"
        afile.write_text("")
        monkeypatch.setattr(harness, "train_agent_for_seed", lambda *args: pytest.fail("trained"))
        raw = base_config(tmp_path, strategies=["td3", "buy_hold"], output_dir=str(afile))
        assert main([verb, "--config", str(self.write_config(tmp_path, raw))]) == 1
        assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: '{afile}/checkpoints'\n"
        assert sorted(os.listdir(tmp_path)) == ["afile", "config.json", "prices.csv"]

    def test_ttest_of_no_pairs_writes_the_header_alone(self, tmp_path):
        raw = base_config(tmp_path, ttest={"pairs": []})
        os.makedirs(raw["output_dir"])
        assert main(["ttest", "--config", str(self.write_config(tmp_path, raw))]) == 0
        assert (tmp_path / "out" / "ttest.csv").read_bytes() == b"pair,metric,t0,df,p_value\n"

    def test_ttest_into_a_missing_output_dir_names_the_file(self, tmp_path, capsys):
        gone = tmp_path / "gone"
        raw = base_config(tmp_path, ttest={"pairs": []}, output_dir=str(gone))
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["ttest", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {gone / 'ttest.csv'}: No such file or directory\n"
        assert ".tmp" not in err
        assert sorted(os.listdir(tmp_path)) == ["config.json", "prices.csv"]
        (gone / "ttest.csv").mkdir(parents=True)  # a directory fails the final move
        assert main(["ttest", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {gone / 'ttest.csv'}: Is a directory\n"
        assert ".tmp" not in err
        assert output_files(tmp_path) == ["config.json", "prices.csv"]

    def test_flags_replace_only_their_fields(self, tmp_path, monkeypatch):
        """``--pairs`` keeps the file's ``ttest.alpha``, and ``--alpha`` its pairs."""
        raw = base_config(tmp_path, ttest={"pairs": [["long", "short"]], "alpha": 0.3})
        cfg_path = self.write_config(tmp_path, raw)
        seen = []
        monkeypatch.setattr(cli, "cmd_ttest", lambda cfg: seen.append(cfg) or 0)
        assert main(["ttest", "--config", str(cfg_path), "--pairs", "random_c:buy_hold"]) == 0
        assert main(["ttest", "--config", str(cfg_path), "--alpha", "0.2"]) == 0
        assert [(cfg.ttest_pairs, cfg.alpha) for cfg in seen] == [
            ((("random_c", "buy_hold"),), 0.3), ((("long", "short"),), 0.2)]

    @pytest.mark.parametrize("verb,overrides,flag,message", [
        ("compare", {"seeds": "x"}, ["--seeds", "1"], "config key seeds: expected a list, got 'x'"),
        ("ttest", {"ttest": {"alpha": "high"}}, ["--alpha", "0.05"],
         "config key ttest.alpha: expected float, got 'high'"),
    ])
    def test_a_flag_does_not_hide_a_mistyped_key(self, tmp_path, capsys, verb, overrides, flag,
                                                 message):
        raw = base_config(tmp_path, **overrides)
        assert main([verb, "--config", str(self.write_config(tmp_path, raw)), *flag]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(raw["output_dir"])

    def test_bad_seed_names_the_flag(self, tmp_path, capsys):
        raw = base_config(tmp_path, strategies=["buy_hold"])
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["compare", "--config", str(cfg_path), "--seeds", "1,x"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --seeds: ") and "'x'" in err
        assert not os.path.exists(raw["output_dir"])

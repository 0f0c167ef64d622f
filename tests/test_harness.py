import ast
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import tradelab
import tradelab.agents.dqn as dqn_module
import tradelab.agents.td3 as td3_module
from tradelab.agents import DecaySchedule, train
from tradelab.baselines import d3_discretize, sign_discretize
from tradelab.cli import main
from tradelab.data import DEFAULT_COLUMNS, SplitSpec
from tradelab.env import EnvConfig
from tradelab.harness import (
    ExperimentConfig,
    build_table,
    compare_report,
    config_from_dict,
    emit_outputs,
    evaluate_policy,
    evaluate_strategies,
    load_agents,
    load_config,
    load_segments,
    make_agent,
    resolved_config,
    run_experiment,
    save_agents,
    train_agent_for_seed,
    train_agents,
)
from tradelab.stats import RunReport, return_pct

from helpers import constant_policy, make_series, random_walk
from oracles import validation_sharpe


def write_dataset(tmp_path, n=100, seed=5, name="prices.csv"):
    gen = np.random.default_rng(seed)
    series = random_walk(n, gen)
    lines = ["Date,Open,High,Low,Close,Volume"]
    for date, close in zip(series.dates(), series.closes().tolist()):
        lines.append(f"{date.isoformat()},{close},{close},{close},{close},100")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path, series


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

    @pytest.mark.parametrize("overrides,message", [
        ({"strategies": ["long", "long", "short"]}, "strategies must be unique; 'long' repeats"),
        ({"ttest": {"pairs": [["long", "short"], ["short", "long"], ["long", "short"]]}},
         "t-test pairs must be unique; 'long:short' repeats"),
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
    ])
    def test_rejects_values_that_would_fail_after_training(self, tmp_path, overrides, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_dict(base_config(tmp_path, **overrides))

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
    def test_equity_and_actions_align(self, rng):
        series = random_walk(30, rng)
        report = evaluate_policy(constant_policy(0.5), series, EnvConfig(window=3),
                                 "half_long", seed=0)
        steps = len(series) - 1 - 3
        assert len(report.actions) == steps
        assert len(report.equity) == steps + 1
        assert len(report.daily_returns) == steps
        assert report.return_pct == pytest.approx(
            return_pct(report.equity[0], report.equity[-1]))
        assert report.dates[0] == series.dates()[3]
        assert report.action_dates[-1] == series.dates()[-2]

    def test_hold_fee_suppression(self):
        series = make_series([50.0] * 7)
        env_cfg = EnvConfig(window=1, transaction_cost=1.0, initial_cash=100_000.0)
        bh = evaluate_policy(constant_policy(1.0), series, env_cfg, "buy_hold", 0, hold_fees=True)
        daily = evaluate_policy(constant_policy(1.0), series, env_cfg, "long", 0, hold_fees=False)
        # two fee events versus one per day on a flat price
        assert bh.equity[-1] == pytest.approx(100_000.0 * 0.99 * 0.99, rel=1e-12)
        assert daily.equity[-1] == pytest.approx(100_000.0 * 0.99**5, rel=1e-12)

    def test_degenerate_run_gets_zero_sharpe(self, rng):
        series = random_walk(20, rng)
        report = evaluate_policy(constant_policy(0.0), series, EnvConfig(window=2), "idle", 0)
        assert report.sharpe == 0.0
        assert report.return_pct == 0.0


class TestEvaluateStrategies:
    def test_td3_strategies_share_one_policies_call(self, tmp_path, monkeypatch):
        raw = base_config(tmp_path, strategies=["td3", "td3_sign", "td3_d3"], seeds=[0])
        cfg = config_from_dict(raw)
        agent = make_agent(cfg, "td3", 0)
        agent.actor.weights[-1][:] = 0.0
        agent.actor.biases[-1][:] = -0.3  # tanh(-0.3): short for td3 and td3_sign, flat for td3_d3
        # the close doubles on bar 10: both shorts are wiped there, td3_d3 trades on
        segment = make_series([100.0] * 10 + [200.0] * 10)
        unshared = {
            "td3": evaluate_policy(lambda rows: [agent.policy(r) for r in rows],
                                   segment, cfg.env, "td3", 0),
            "td3_sign": evaluate_policy(lambda rows: [sign_discretize(agent.policy(r)) for r in rows],
                                        segment, cfg.env, "td3_sign", 0),
            "td3_d3": evaluate_policy(lambda rows: [d3_discretize(agent.policy(r)) for r in rows],
                                      segment, cfg.env, "td3_d3", 0),
        }
        policies_rows, forward_rows = [], []
        policies = agent.policies
        monkeypatch.setattr(agent, "policies",
                            lambda rows: policies_rows.append(len(rows)) or policies(rows))
        forward = td3_module.forward
        monkeypatch.setattr(td3_module, "forward",
                            lambda net, x, **kw: forward_rows.append(len(x)) or forward(net, x, **kw))
        reports = evaluate_strategies(cfg, {"td3": agent}, segment, 0)
        assert reports == unshared
        steps = {s: len(r.actions) for s, r in reports.items()}
        assert steps == {"td3": 6, "td3_sign": 6, "td3_d3": 15}
        rows = max(steps.values())  # td3_d3 is never wiped, so it visits every decision row
        assert policies_rows == [rows]  # one call serves all three strategies
        assert len(forward_rows) == math.ceil(rows / agent.config.batch_size) == 2
        assert forward_rows == [8, 7]


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
        calls = []
        forward = module.forward
        monkeypatch.setattr(module, "forward",
                            lambda net, x, **kw: calls.append(len(x)) or forward(net, x, **kw))
        report = evaluate_policy(agent.policies, valid_seg, cfg.env, "validation", -1)
        rows = len(valid_seg) - cfg.env.window - 1
        assert len(report.actions) == rows == 35
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

    def test_trained_agents_drop_replay_rows_and_still_save_and_evaluate(self, tmp_path):
        cfg = self.config(tmp_path, strategies=["td3", "td3_sign", "tdqn"], seeds=[0], episodes=2)
        train_seg, valid_seg, test_seg = load_segments(cfg)
        agents, logs = train_agents(cfg, 0, train_seg, valid_seg)
        for agent in agents.values():
            assert len(agent.buffer) == 0 and len(agent.buffer.items()) == 0
        save_agents(cfg, 0, agents, logs)
        reports = evaluate_strategies(cfg, agents, test_seg, 0)
        assert evaluate_strategies(cfg, load_agents(cfg, 0), test_seg, 0) == reports


class TestCompareReport:
    def reports(self, values, strategy):
        return [RunReport(strategy=strategy, seed=i, return_pct=v, sharpe=v / 2.0)
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
        table, reports, ttests = run_experiment(cfg)
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

        # re-reading an equity file reproduces the tabled return exactly
        with open(os.path.join(out, "equity_buy_hold_0.csv")) as fh:
            rows = fh.read().strip().splitlines()[1:]
        cash = [float(r.split(",")[1]) for r in rows]
        assert return_pct(cash[0], cash[-1]) == pytest.approx(
            [r for r in table if r.strategy == "buy_hold"][0].return_pct, abs=1e-9)

    def test_actions_stay_in_bounds(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        _, reports, _ = run_experiment(cfg)
        for runs in reports.values():
            for report in runs:
                assert all(-1.0 <= a <= 1.0 for a in report.actions)

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
        raw = base_config(tmp_path, strategies=["buy_hold", "random_c"])
        cfg_seq = config_from_dict({**raw, "output_dir": str(tmp_path / "seq")})
        cfg_par = config_from_dict({**raw, "output_dir": str(tmp_path / "par"), "workers": 2})
        table_seq, reports_seq, _ = run_experiment(cfg_seq)
        table_par, reports_par, _ = run_experiment(cfg_par)
        assert table_seq == table_par
        for strategy in reports_seq:
            for a, b in zip(reports_seq[strategy], reports_par[strategy]):
                assert a.equity == b.equity

    def test_missing_dataset(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        cfg = type(cfg)(**{**cfg.__dict__, "dataset_path": str(tmp_path / "gone.csv")})
        with pytest.raises(FileNotFoundError):
            run_experiment(cfg)


class TestCsvFormat:
    def test_headers_newlines_and_precision(self, tmp_path):
        report = RunReport(strategy="unit", seed=3, dates=(),
                           equity=(1.0, 1.1), daily_returns=(0.1,),
                           actions=(0.123456789012345678,),
                           return_pct=10.0, sharpe=1.2300000000000002,
                           action_dates=())
        import datetime as dt

        report = RunReport(strategy="unit", seed=3,
                           dates=(dt.date(2020, 1, 1), dt.date(2020, 1, 2)),
                           equity=(1.0, 1.1), daily_returns=(0.1,),
                           actions=(0.123456789012345678,),
                           return_pct=10.0, sharpe=1.2300000000000002,
                           action_dates=(dt.date(2020, 1, 1),))
        table = build_table({"unit": [report]}, ["unit"])
        emit_outputs(table, {"unit": [report]}, None, tmp_path / "fmt")
        with open(tmp_path / "fmt" / "comparison.csv", "rb") as fh:
            blob = fh.read()
        assert b"\r" not in blob
        text = blob.decode("utf-8").splitlines()
        assert text[0] == "strategy,return_pct,sharpe"
        assert float(text[1].split(",")[2]) == 1.2300000000000002  # 17 digits round-trip
        with open(tmp_path / "fmt" / "actions_unit_3.csv") as fh:
            action_line = fh.read().splitlines()[1]
        assert float(action_line.split(",")[1]) == 0.123456789012345678


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

    def test_compare_equals_train_then_evaluate(self, tmp_path):
        raw = base_config(tmp_path, seeds=[0, 1], episodes=2, ttest={"pairs": []},
                          strategies=["td3", "td3_sign", "td3_d3", "tdqn", "buy_hold", "random_c"])
        compare_dir, split_dir = tmp_path / "compare", tmp_path / "split"
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["compare", "--config", str(cfg_path), "--output-dir", str(compare_dir)]) == 0
        for verb in ("train", "evaluate"):
            assert main([verb, "--config", str(cfg_path), "--output-dir", str(split_dir)]) == 0

        def files(root):
            return sorted(os.path.relpath(os.path.join(d, f), root)
                          for d, _, names in os.walk(root) for f in names)

        names = files(compare_dir)
        assert names == files(split_dir)
        assert len(names) == 34  # 24 curves, 4 checkpoints, 4 training logs, table, config
        for name in names:
            a, b = compare_dir / name, split_dir / name
            if name.endswith(".npz"):
                with np.load(a) as x, np.load(b) as y:
                    assert sorted(x.files) == sorted(y.files)
                    for key in x.files:
                        assert x[key].dtype == y[key].dtype and np.array_equal(x[key], y[key]), key
            elif name == "resolved_config.json":
                x, y = json.loads(a.read_text()), json.loads(b.read_text())
                assert (x.pop("output_dir"), y.pop("output_dir")) == (str(compare_dir), str(split_dir))
                assert x == y
            else:
                assert a.read_bytes() == b.read_bytes(), name

    def test_evaluate_without_checkpoint_fails(self, tmp_path, capsys):
        raw = base_config(tmp_path, strategies=["td3"], seeds=[0])
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["evaluate", "--config", str(cfg_path)]) == 2
        ckpt = os.path.join(raw["output_dir"], "checkpoints", "td3_seed0.npz")
        assert capsys.readouterr().err == f"missing checkpoint {ckpt}; run `tradelab train` first\n"

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
        cfg_path = self.write_config(tmp_path, base_config(tmp_path, strategies=["buy_hold"]))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "no trainable strategies requested; nothing to do\n"

    def test_ttest_without_equity_curves_fails(self, tmp_path, capsys):
        raw = base_config(tmp_path)
        assert main(["ttest", "--config", str(self.write_config(tmp_path, raw))]) == 2
        curve = os.path.join(raw["output_dir"], "equity_buy_hold_0.csv")
        assert capsys.readouterr().err == (
            f"missing {curve}; run `tradelab compare` or `evaluate` first\n")

    def test_bad_config_reports_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["compare", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,message", [
        ({"env": {"window": 4, "transacton_cost": 5}}, "unknown config key env.transacton_cost"),
        ({"episodes": "50"}, "config key episodes: expected int, got '50'"),
    ])
    def test_invalid_config_reports_the_key(self, tmp_path, capsys, overrides, message):
        raw = base_config(tmp_path, **overrides)
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

    def test_alpha_flag_is_checked(self, tmp_path, capsys):
        raw = base_config(tmp_path, strategies=["buy_hold"])
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["ttest", "--config", str(cfg_path), "--alpha", "5"]) == 1
        assert capsys.readouterr().err == "error: ttest.alpha must lie in (0, 1), got 5.0\n"

    def test_bad_seed_names_the_flag(self, tmp_path, capsys):
        raw = base_config(tmp_path, strategies=["buy_hold"])
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["compare", "--config", str(cfg_path), "--seeds", "1,x"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --seeds: ") and "'x'" in err
        assert not os.path.exists(raw["output_dir"])

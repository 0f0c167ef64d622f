"""Batch experiment harness: train, evaluate, compare, test.

One experiment = one dataset, one chronological split, one agent
configuration, a strategy list, and a seed list. Per seed the harness trains
the required agents on the train segment, selects the checkpoint with the
best validation Sharpe, evaluates everything once on the test segment, and
aggregates the per-seed reports into a comparison table plus paired t-tests.

Each stage is one function (load the segments, find the agent kinds, build,
train, save and load agents, evaluate, rebuild reports, emit); the CLI verbs
only call them.

All artifacts are plain CSV/JSON written atomically; identical configs
produce byte-identical numeric outputs.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import partial

import numpy as np

from .agents import DqnAgent, DqnConfig, ReplayBuffer, Td3Agent, Td3Config, train
from .baselines import (
    KINDS,
    StrategySpec,
    act,
    d3_discretize,
    holds_position,
    is_random,
    sign_discretize,
)
from .data import DEFAULT_COLUMNS, SplitSpec, chronological_split, load_csv
from .env import EnvConfig, TradingEnv
from .fileio import atomic_open
from .stats import RunReport, TTestResult, paired_ttest_one_sided, return_pct, sharpe

log = logging.getLogger(__name__)

# the agent each agent strategy acts with
AGENT_OF = {"td3": "td3", "td3_sign": "td3", "td3_d3": "td3", "tdqn": "tdqn"}
AGENT_STRATEGIES = tuple(AGENT_OF)
ALL_STRATEGIES = AGENT_STRATEGIES + KINDS

# stable per-strategy stream tags so evaluation rngs never collide
EVAL_STREAM = {kind: i for i, kind in enumerate(ALL_STRATEGIES)}


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_path: str
    columns: dict = field(default_factory=dict)
    split: SplitSpec = field(default_factory=SplitSpec)
    env: EnvConfig = field(default_factory=EnvConfig)
    td3: Td3Config = field(default_factory=Td3Config)
    dqn: DqnConfig = field(default_factory=DqnConfig)
    episodes: int = 50
    strategies: tuple[str, ...] = ALL_STRATEGIES
    seeds: tuple[int, ...] = (0,)
    ma_window: int = 20
    output_dir: str = "out"
    ttest_pairs: tuple[tuple[str, str], ...] = (("td3_sign", "td3"), ("td3_d3", "td3"))
    alpha: float = 0.01
    workers: int = 1

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if not self.strategies:
            raise ValueError("strategies must name at least one strategy")
        unknown = [s for s in self.strategies if s not in ALL_STRATEGIES]
        if unknown:
            raise ValueError(f"unknown strategies {unknown}; expected among {ALL_STRATEGIES}")
        for pair in self.ttest_pairs:
            if len(pair) != 2 or any(s not in ALL_STRATEGIES for s in pair):
                raise ValueError(f"invalid t-test pair {pair}")
        for name, items in (("seeds", self.seeds), ("strategies", self.strategies),
                            ("t-test pairs", [":".join(pair) for pair in self.ttest_pairs])):
            repeated = next((x for i, x in enumerate(items) if x in items[:i]), None)
            if repeated is not None:
                raise ValueError(f"{name} must be unique; {repeated!r} repeats")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"ttest.alpha must lie in (0, 1), got {self.alpha}")
        for s in self.strategies:
            if s in KINDS:  # a baseline's own checks, here rather than after training
                StrategySpec(kind=s, ma_window=self.ma_window)
        # the moving average must be defined at the first decision bar
        if any(s in self.strategies for s in ("mrma", "tfma")) and self.ma_window > self.env.window:
            raise ValueError(
                f"mrma/tfma with ma_window {self.ma_window} need env.window >= {self.ma_window}"
            )


def _read(default, value, key: str = ""):
    """``value``, a JSON value, checked against ``default`` and built in one step.

    A dataclass default takes an object of its fields and gives
    ``replace(default, **changes)``; a dict default takes an object of its keys
    and gives the changes alone; a tuple default takes a list whose items are
    read against ``default[0]``; a leaf takes a value of its default's type (an
    int for a float, a bool for neither). A mismatch is a ValueError naming the
    dotted ``key`` ("" at the top).
    """
    if is_dataclass(default) or isinstance(default, dict):
        if not isinstance(value, dict):
            raise ValueError(f"config key {key or '(top level)'}: expected an object, got {value!r}")
        known = default
        if is_dataclass(default):
            known = {f.name: getattr(default, f.name) for f in fields(default)}
        changes = {}
        for name, item in value.items():
            path = f"{key}.{name}" if key else name
            if name not in known:
                raise ValueError(f"unknown config key {path}")
            changes[name] = _read(known[name], item, path)
        return replace(default, **changes) if is_dataclass(default) else changes
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"config key {key}: expected a list, got {value!r}")
        return tuple(_read(default[0], item, f"{key}[{i}]") for i, item in enumerate(value))
    allowed = (int, float) if isinstance(default, float) else type(default)
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ValueError(f"config key {key}: expected {type(default).__name__}, got {value!r}")
    return value


# JSON groups whose keys are ExperimentConfig fields under other names
_GROUPS = {"dataset": {"path": "dataset_path", "columns": "columns"},
           "ttest": {"pairs": "ttest_pairs", "alpha": "alpha"}}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a plain (JSON-shaped) dict.

    Every default comes from the config dataclasses. An unknown key or a
    value of the wrong JSON type is a ValueError naming the dotted key.
    """
    defaults = ExperimentConfig(dataset_path="")  # the path itself is required below
    shape = {f.name: getattr(defaults, f.name) for f in fields(defaults)}
    for group, names in _GROUPS.items():
        shape[group] = {key: shape.pop(name) for key, name in names.items()}
    shape["dataset"]["columns"] = DEFAULT_COLUMNS  # the keys a column remap may name
    changes = _read(shape, raw)
    for group, names in _GROUPS.items():
        changes.update((names[key], value) for key, value in changes.pop(group, {}).items())
    if "dataset_path" not in changes:
        raise ValueError("config must name a dataset path under dataset.path")
    return ExperimentConfig(**changes)


def read_config(path):
    """The JSON value of the config file at ``path``, before any validation."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON config: {exc}") from None


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_config(path))


def resolved_config(cfg: ExperimentConfig) -> dict:
    """The fully-resolved configuration, for echoing into the output dir."""
    return asdict(cfg)


# -- data and agents -------------------------------------------------------


def load_segments(cfg: ExperimentConfig):
    """The (train, validation, test) segments of the configured dataset."""
    prices = load_csv(cfg.dataset_path, cfg.columns or None)
    return chronological_split(prices, cfg.split, window=cfg.env.window)


def agent_kinds(strategies) -> list[str]:
    """The agents ``strategies`` act with, td3 before tdqn."""
    return list(dict.fromkeys(AGENT_OF[s] for s in AGENT_STRATEGIES if s in strategies))


def make_agent(cfg: ExperimentConfig, kind: str, seed: int):
    if kind == "td3":
        return Td3Agent(cfg.env.window, cfg.td3, seed=seed)
    if kind == "tdqn":
        return DqnAgent(cfg.env.window, cfg.dqn, seed=seed)
    raise ValueError(f"not a trainable strategy: {kind!r}")


def checkpoint_path(cfg: ExperimentConfig, kind: str, seed: int) -> str:
    return os.path.join(cfg.output_dir, "checkpoints", f"{kind}_seed{seed}.npz")


def save_agents(cfg: ExperimentConfig, seed: int, agents: dict, logs: dict) -> dict[str, str]:
    """Write each agent's checkpoint and training log; returns kind -> checkpoint path."""
    paths = {}
    for kind, agent in agents.items():
        paths[kind] = checkpoint_path(cfg, kind, seed)
        os.makedirs(os.path.dirname(paths[kind]), exist_ok=True)
        agent.save(paths[kind])
    emit_training_logs(logs, seed, cfg.output_dir)
    return paths


def load_agents(cfg: ExperimentConfig, seed: int) -> dict:
    """The saved agents the strategy list needs; a missing checkpoint raises
    FileNotFoundError with the checkpoint path as its ``filename``."""
    agents = {}
    for kind in agent_kinds(cfg.strategies):
        agents[kind] = make_agent(cfg, kind, seed)
        agents[kind].load(checkpoint_path(cfg, kind, seed))
    return agents


# -- evaluation ------------------------------------------------------------


def run_report(strategy: str, seed: int, equity, annualization_days: int, **curves) -> RunReport:
    """The report of one run from its equity curve; ``curves`` are the other RunReport series.

    A run whose Sharpe ratio is undefined (constant equity) scores 0.0.
    """
    daily = tuple((b - a) / a for a, b in zip(equity, equity[1:]))
    try:
        sharpe_val = sharpe(daily, annualization_days)
    except ValueError:
        sharpe_val = 0.0  # degenerate run (constant equity): no risk, no ratio
    return RunReport(strategy=strategy, seed=seed, equity=tuple(equity), daily_returns=daily,
                     return_pct=return_pct(equity[0], equity[-1]), sharpe=sharpe_val, **curves)


def read_reports(cfg: ExperimentConfig, strategies) -> dict[str, list[RunReport]]:
    """Reports rebuilt from the emitted equity curves of ``strategies``, one per seed.

    A missing curve raises FileNotFoundError with its path as ``filename``.
    """
    reports = {}
    for strategy in strategies:
        reports[strategy] = []
        for seed in cfg.seeds:
            path = os.path.join(cfg.output_dir, f"equity_{strategy}_{seed}.csv")
            with open(path, encoding="utf-8") as fh:
                equity = [float(row["cash"]) for row in csv.DictReader(fh)]
            reports[strategy].append(run_report(strategy, seed, equity,
                                                cfg.env.annualization_days))
    return reports


def evaluate_policy(policy, segment, env_config: EnvConfig, strategy: str, seed: int,
                    hold_fees: bool = False) -> RunReport:
    """Run one chronological pass of ``policy`` over ``segment``.

    ``policy(rows)`` maps the segment's decision rows (rows ``0 .. last_t -
    first_t`` of the observation table, row i for bar ``first_t + i``) to one
    action per row; the pass stops early at a wipe. With ``hold_fees`` the
    configured transaction cost applies only on the first and final step
    (single open / single close emulation for the hold strategies).
    """
    env = TradingEnv(segment, env_config)
    rows = env.observation_table()[: env.last_t - env.first_t + 1]
    actions = policy(rows)
    if len(actions) != len(rows):
        raise ValueError(f"policy returned {len(actions)} actions for {len(rows)} rows")
    env.reset()
    equity = [env.cash]
    for action in actions:
        tc = 0.0 if hold_fees and env.t not in (env.first_t, env.last_t) else None
        env.step(float(action), tc=tc)
        equity.append(env.cash)
        if env.terminal:
            break
    dates = segment.dates()
    return run_report(strategy, seed, equity, env_config.annualization_days,
                      dates=dates[env.first_t : env.t + 1],
                      actions=tuple(map(float, actions[: env.t - env.first_t])),
                      action_dates=dates[env.first_t : env.t])


def train_agent_for_seed(cfg: ExperimentConfig, kind: str, seed: int, train_segment, valid_segment):
    """Train one agent, keeping the episode with the best validation Sharpe (-inf when undefined).

    Validation runs the agent's batched ``policies``. The trained agent's
    replay buffer is emptied: it is training-only state.
    """
    agent = make_agent(cfg, kind, seed)
    best = {"score": -math.inf, "snapshot": None}

    def on_episode_end(a, episode):
        report = evaluate_policy(a.policies, valid_segment, cfg.env, "validation", -1)
        try:
            s = sharpe(report.daily_returns, cfg.env.annualization_days)
        except ValueError:
            s = -math.inf
        if s > best["score"]:
            best["score"] = s
            best["snapshot"] = a.snapshot()

    log = train(agent, train_segment, cfg.env, cfg.episodes, seed, on_episode_end=on_episode_end)
    if best["snapshot"] is not None:
        agent.restore(best["snapshot"])
    agent.buffer = ReplayBuffer(agent.buffer.capacity)
    return agent, log


def train_agents(cfg: ExperimentConfig, seed: int, train_segment, valid_segment):
    """(agents, training logs), each keyed by agent kind, for the strategy list."""
    agents, logs = {}, {}
    for kind in agent_kinds(cfg.strategies):
        agents[kind], logs[kind] = train_agent_for_seed(cfg, kind, seed, train_segment,
                                                        valid_segment)
    return agents, logs


_DISCRETIZERS = {"td3_sign": sign_discretize, "td3_d3": d3_discretize}


def evaluate_strategies(cfg: ExperimentConfig, agents: dict, segment, seed: int) -> dict[str, RunReport]:
    """One test-segment pass per requested strategy for one seed.

    An agent's actions come from one ``policies`` call, made on the first pass
    that needs them and shared by all of its strategies; they carry the bits
    of one single-row forward per bar. A baseline calls ``act`` once per bar.
    """
    agent_actions: dict[str, list] = {}  # agent kind -> its raw action per decision row

    def actions(strategy, rows):
        if strategy in AGENT_STRATEGIES:
            kind = AGENT_OF[strategy]
            if kind not in agent_actions:
                agent_actions[kind] = agents[kind].policies(rows)
            return list(map(_DISCRETIZERS.get(strategy, float), agent_actions[kind]))
        spec = StrategySpec(kind=strategy, ma_window=cfg.ma_window)
        rng = np.random.default_rng([seed, EVAL_STREAM[strategy]]) if is_random(strategy) else None
        return [act(spec, cfg.env.window + i, segment, rng) for i in range(len(rows))]

    return {strategy: evaluate_policy(partial(actions, strategy), segment, cfg.env, strategy, seed,
                                      hold_fees=holds_position(strategy))
            for strategy in cfg.strategies}


def run_seed(cfg: ExperimentConfig, seed: int) -> dict:
    """Everything one seed contributes: trained agents evaluated on the test segment."""
    train_seg, valid_seg, test_seg = load_segments(cfg)
    agents, logs = train_agents(cfg, seed, train_seg, valid_seg)
    reports = evaluate_strategies(cfg, agents, test_seg, seed)
    return {"reports": reports, "agents": agents, "logs": logs}


# -- aggregation -------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    strategy: str
    return_pct: float
    sharpe: float


def collect_reports(cfg: ExperimentConfig, per_seed: list[dict]) -> dict[str, list[RunReport]]:
    """Seed-ordered report lists per strategy, from one {strategy: report} dict per seed."""
    return {strategy: [reports[strategy] for reports in per_seed] for strategy in cfg.strategies}


def build_table(reports: dict[str, list[RunReport]], order) -> tuple[ComparisonRow, ...]:
    """The comparison table: one row of mean metrics per strategy, in ``order``."""
    rows = []
    for strategy in order:
        runs = reports[strategy]
        rows.append(ComparisonRow(
            strategy=strategy,
            return_pct=float(np.mean([r.return_pct for r in runs])),
            sharpe=float(np.mean([r.sharpe for r in runs])),
        ))
    return tuple(rows)


@dataclass(frozen=True)
class TTestRow:
    pair: str
    metric: str
    result: TTestResult


def compare_report(reports: dict[str, list[RunReport]], pairs, alpha: float) -> list[TTestRow]:
    """Paired one-sided tests per (pair, metric); x is the first id of each pair."""
    rows = []
    for x_id, y_id in pairs:
        xs, ys = reports.get(x_id), reports.get(y_id)
        if xs is None or ys is None:
            raise ValueError(f"t-test pair ({x_id}, {y_id}) references unevaluated strategies")
        if len(xs) != len(ys):
            raise ValueError(f"misaligned report lists for ({x_id}, {y_id}): {len(xs)} vs {len(ys)}")
        if [r.seed for r in xs] != [r.seed for r in ys]:
            raise ValueError(f"report lists for ({x_id}, {y_id}) are not seed-aligned")
        for metric in ("return_pct", "sharpe"):
            x = [getattr(r, metric) for r in xs]
            y = [getattr(r, metric) for r in ys]
            rows.append(TTestRow(
                pair=f"{x_id}_vs_{y_id}",
                metric=metric,
                result=paired_ttest_one_sided(x, y, alpha=alpha),
            ))
    return rows


# -- emission ----------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_atomic(path, text: str) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def emit_outputs(table: tuple[ComparisonRow, ...], reports: dict[str, list[RunReport]],
                 ttests: list[TTestRow] | None, outdir, resolved: dict | None = None) -> list[str]:
    """Write comparison.csv, per-run equity/action CSVs, ttest.csv, config echo."""
    os.makedirs(outdir, exist_ok=True)
    written = []

    lines = ["strategy,return_pct,sharpe"]
    for row in table:
        lines.append(f"{row.strategy},{_fmt(row.return_pct)},{_fmt(row.sharpe)}")
    path = os.path.join(outdir, "comparison.csv")
    _write_atomic(path, "\n".join(lines) + "\n")
    written.append(path)

    # format each date once, not once per row of every file
    iso = {d: d.isoformat() for d in {d for runs in reports.values() for r in runs for d in r.dates}}
    for strategy, runs in reports.items():
        for report in runs:
            eq = ["date,cash"]
            eq += [f"{iso[d]},{_fmt(c)}" for d, c in zip(report.dates, report.equity)]
            path = os.path.join(outdir, f"equity_{strategy}_{report.seed}.csv")
            _write_atomic(path, "\n".join(eq) + "\n")
            written.append(path)

            ac = ["date,action"]
            ac += [f"{iso[d]},{_fmt(a)}" for d, a in zip(report.action_dates, report.actions)]
            path = os.path.join(outdir, f"actions_{strategy}_{report.seed}.csv")
            _write_atomic(path, "\n".join(ac) + "\n")
            written.append(path)

    if ttests:
        written.append(emit_ttests(ttests, outdir))

    if resolved is not None:
        path = os.path.join(outdir, "resolved_config.json")
        _write_atomic(path, json.dumps(resolved, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written


def emit_ttests(ttests: list[TTestRow], outdir) -> str:
    """Write ttest.csv; returns its path."""
    lines = ["pair,metric,t0,df,p_value"]
    for row in ttests:
        r = row.result
        lines.append(f"{row.pair},{row.metric},{_fmt(r.t0)},{r.df},{_fmt(r.p_value)}")
    path = os.path.join(outdir, "ttest.csv")
    _write_atomic(path, "\n".join(lines) + "\n")
    return path


def emit_training_logs(logs: dict, seed: int, outdir) -> None:
    os.makedirs(outdir, exist_ok=True)
    for kind, records in logs.items():
        lines = ["episode,warmup,total_reward,final_cash,mean_loss"]
        for rec in records:
            lines.append(
                f"{rec['episode']},{int(rec['warmup'])},{_fmt(rec['total_reward'])},"
                f"{_fmt(rec['final_cash'])},{_fmt(rec['mean_loss'])}"
            )
        _write_atomic(os.path.join(outdir, f"training_log_{kind}_{seed}.csv"),
                      "\n".join(lines) + "\n")


# -- the full experiment -------------------------------------------------------


def _run_seed_task(args):
    cfg, seed = args
    return seed, run_seed(cfg, seed)


def run_experiment(cfg: ExperimentConfig):
    """Train, select, evaluate, aggregate, and emit everything.

    Returns (table, reports, ttests): the comparison rows, a map from strategy
    id to its seed-ordered list of RunReports, and the t-test rows.
    """
    if not os.path.exists(cfg.dataset_path):
        raise FileNotFoundError(f"no such data file: {cfg.dataset_path}")

    tasks = [(cfg, seed) for seed in cfg.seeds]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = dict(pool.map(_run_seed_task, tasks))
    else:
        results = dict(map(_run_seed_task, tasks))

    # seed order, regardless of completion order
    reports = collect_reports(cfg, [results[seed]["reports"] for seed in cfg.seeds])
    for seed in cfg.seeds:
        save_agents(cfg, seed, results[seed]["agents"], results[seed]["logs"])

    table = build_table(reports, cfg.strategies)
    requested = set(cfg.strategies)
    pairs = [p for p in cfg.ttest_pairs if set(p) <= requested]
    dropped = [":".join(p) for p in cfg.ttest_pairs if not set(p) <= requested]
    if dropped:
        log.warning("skipping t-test pair(s) %s: strategies not requested", ", ".join(dropped))
    if cfg.ttest_pairs and len(cfg.seeds) < 2:
        log.warning("skipping all t-tests: a paired t-test needs at least 2 seeds, got %d",
                    len(cfg.seeds))
        pairs = []
    ttests = compare_report(reports, pairs, cfg.alpha) if pairs else []
    emit_outputs(table, reports, ttests, cfg.output_dir, resolved_config(cfg))
    return table, reports, ttests

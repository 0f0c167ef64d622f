"""Batch experiment harness: train, evaluate, compare, test.

One experiment = one dataset, one chronological split, one agent
configuration, a strategy list, and a seed list. The dataset is loaded and
split once. :func:`run_seed` is the unit of work: for one seed it trains the
required agents, keeping the checkpoint with the best validation Sharpe, and
writes their checkpoints and training logs (:func:`train_seed`), or loads the
saved ones (:func:`load_agents`); evaluates every strategy once on the test
segment, writing each pass's curves as soon as it ends (:func:`emit_run`);
and returns only its Scores, so memory does not grow with the seed count.
:func:`run_experiment`, the one loop over the seeds for ``compare`` and
``evaluate`` alike (through :func:`map_seeds`, which ``train`` uses too),
then aggregates the scores into a comparison table plus paired t-tests and
writes the cross-seed files (:func:`emit_outputs`).

Each seed's files are on disk as soon as the seed finishes, so a run that
fails keeps the files of every seed that finished; the cross-seed files
appear only after the last seed. The CLI verbs only call these stages.

All artifacts are plain CSV/JSON written atomically, every CSV by
:func:`_write_csv`, into the output directory that :func:`run_experiment`
makes once, before the first seed; identical configs produce byte-identical
numeric outputs.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import partial

import numpy as np

from .agents import DqnAgent, DqnConfig, Td3Agent, Td3Config, train
from .baselines import HOLDS, KINDS, RANDOM, TECHNICAL, act, d3_discretize, sign_discretize
from .data import DEFAULT_COLUMNS, SplitSpec, chronological_split, load_csv
from .env import EnvConfig, TradingEnv
from .fileio import atomic_open, reading
from .stats import Score, TTestResult, paired_ttest_one_sided, return_pct, sharpe

log = logging.getLogger(__name__)

# the agent each agent strategy acts with
AGENT_OF = {"td3": "td3", "td3_sign": "td3", "td3_d3": "td3", "tdqn": "tdqn"}
AGENT_STRATEGIES = tuple(AGENT_OF)
ALL_STRATEGIES = AGENT_STRATEGIES + KINDS

# stable per-strategy stream tags so evaluation rngs never collide
EVAL_STREAM = {kind: i for i, kind in enumerate(ALL_STRATEGIES)}

# why compare and evaluate skip their t-tests, and why ttest fails
TOO_FEW_SEEDS = "a paired t-test needs at least 2 seeds, got {}"


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
        if min(self.seeds) < 0:  # a seed keys numpy's generators, which take none below 0
            raise ValueError(f"seeds must be >= 0, got {min(self.seeds)}")
        if not self.strategies:
            raise ValueError("strategies must name at least one strategy")
        unknown = [s for s in self.strategies if s not in ALL_STRATEGIES]
        if unknown:
            raise ValueError(f"unknown strategies {unknown}; expected among {ALL_STRATEGIES}")
        for pair in self.ttest_pairs:
            if len(pair) != 2 or any(s not in ALL_STRATEGIES for s in pair):
                raise ValueError(f"invalid t-test pair {pair}")
            if pair[0] == pair[1]:
                raise ValueError(f"t-test pair {pair} compares a strategy with itself")
        for name, items in (("seeds", self.seeds), ("strategies", self.strategies),
                            ("t-test pairs", [":".join(pair) for pair in self.ttest_pairs])):
            repeated = next((x for i, x in enumerate(items) if x in items[:i]), None)
            if repeated is not None:
                raise ValueError(f"{name} must be unique; {repeated!r} repeats")
        if not self.output_dir:
            raise ValueError("output_dir must name a directory, got ''")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"ttest.alpha must lie in (0, 1), got {self.alpha}")
        technical = [s for s in self.strategies if s in TECHNICAL]
        if technical:  # the moving average must be defined at the first decision bar
            if self.ma_window < 2:
                raise ValueError(f"ma_window must be >= 2 for {technical[0]}, got {self.ma_window}")
            if self.ma_window > self.env.window:
                raise ValueError(
                    f"mrma/tfma with ma_window {self.ma_window} need env.window >= {self.ma_window}"
                )


def _read(default, value, key: str = ""):
    """``value``, a JSON value, checked against ``default`` and built in one step.

    A dataclass default takes an object of its fields and gives
    ``replace(default, **changes)``; a dict default takes an object of its keys
    and gives the changes alone; a tuple default takes a list whose items are
    read against ``default[0]``; a leaf takes a value of its default's type (an
    int for a float, a bool for neither), and a float leaf a finite one. A
    mismatch is a ValueError naming the dotted ``key`` ("" at the top).
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
    if isinstance(value, float) and not math.isfinite(value):  # json reads NaN and Infinity
        raise ValueError(f"config key {key}: expected a finite number, got {value!r}")
    return value


# JSON groups whose keys are ExperimentConfig fields under other names
_GROUPS = {"dataset": {"path": "dataset_path", "columns": "columns"},
           "ttest": {"pairs": "ttest_pairs", "alpha": "alpha"}}


def config_from_dict(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from a plain (JSON-shaped) dict.

    Every default comes from the config dataclasses. An unknown key or a
    value of the wrong JSON type is a ValueError naming the dotted key.
    ``overrides`` (the CLI's flags) maps field names to values that replace
    the file's for those fields alone, before the one validation.
    """
    defaults = ExperimentConfig(dataset_path="")  # the path itself is required below
    shape = {f.name: getattr(defaults, f.name) for f in fields(defaults)}
    for group, names in _GROUPS.items():
        shape[group] = {key: shape.pop(name) for key, name in names.items()}
    shape["dataset"]["columns"] = DEFAULT_COLUMNS  # the keys a column remap may name
    changes = _read(shape, raw)
    for group, names in _GROUPS.items():
        changes.update((names[key], value) for key, value in changes.pop(group, {}).items())
    changes.update(overrides or {})
    if "dataset_path" not in changes:
        raise ValueError("config must name a dataset path under dataset.path")
    return ExperimentConfig(**changes)


def read_config(path):
    """The JSON value of the config file at ``path``, before any validation."""
    with reading(path) as fh:
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


def checkpoint_dir(cfg: ExperimentConfig) -> str:
    return os.path.join(cfg.output_dir, "checkpoints")


def checkpoint_path(cfg: ExperimentConfig, kind: str, seed: int) -> str:
    return os.path.join(checkpoint_dir(cfg), f"{kind}_seed{seed}.npz")


def load_agents(cfg: ExperimentConfig, seed: int) -> dict:
    """The saved agents the strategy list needs; a missing checkpoint raises
    FileNotFoundError with the checkpoint path as its ``filename``."""
    agents = {}
    for kind in agent_kinds(cfg.strategies):
        agents[kind] = make_agent(cfg, kind, seed)
        agents[kind].load(checkpoint_path(cfg, kind, seed))
    return agents


# -- evaluation ------------------------------------------------------------


def score_curve(strategy: str, seed: int, equity, annualization_days: int,
                degenerate_sharpe: float = 0.0) -> Score:
    """The Score of one run from its equity curve.

    A run whose Sharpe ratio is undefined (constant equity, or fewer than two
    returns) scores ``degenerate_sharpe``: 0.0 for a reported run, which has
    no risk and so no ratio.
    """
    equity = np.asarray(equity, dtype=np.float64)
    daily = (equity[1:] - equity[:-1]) / equity[:-1]  # the bits of (b - a) / a per step
    try:
        sharpe_val = sharpe(daily, annualization_days)
    except ValueError:
        sharpe_val = degenerate_sharpe
    return Score(strategy, seed, return_pct(float(equity[0]), float(equity[-1])), sharpe_val)


def _read_equity(path) -> list[float]:
    """The ``cash`` column of an emitted equity curve: at least 2 rows, each cash a
    finite number > 0, or a ValueError naming ``<path>:<line>``."""
    with reading(path) as fh:
        reader = csv.DictReader(fh)
        if "cash" not in (reader.fieldnames or ()):
            raise ValueError(f"{path}:1: no cash column")
        equity = []
        for row in reader:
            try:
                cash = float(row["cash"])
            except (TypeError, ValueError):  # TypeError: a short row reads None
                cash = math.nan
            if not (math.isfinite(cash) and cash > 0):
                raise ValueError(f"{path}:{reader.line_num}: cash must be a finite number > 0, "
                                 f"got {row['cash']!r}")
            equity.append(cash)
    if len(equity) < 2:
        raise ValueError(f"{path}:{reader.line_num}: an equity curve needs at least 2 rows, "
                         f"got {len(equity)}")
    return equity


def read_scores(cfg: ExperimentConfig, strategies) -> dict[str, list[Score]]:
    """The Scores of ``strategies`` rebuilt from their emitted equity curves, one per seed.

    A missing curve raises FileNotFoundError with its path as ``filename``.
    """
    def score(strategy, seed):
        path = os.path.join(cfg.output_dir, f"equity_{strategy}_{seed}.csv")
        return score_curve(strategy, seed, _read_equity(path), cfg.env.annualization_days)

    return {strategy: [score(strategy, seed) for seed in cfg.seeds] for strategy in strategies}


def evaluate_policy(policy, segment, env_config: EnvConfig, strategy: str, seed: int,
                    hold_fees: bool = False, degenerate_sharpe: float = 0.0):
    """Run one chronological pass of ``policy`` over ``segment``; returns its
    ``(score, equity, actions)``, the last two read-only float64 arrays.

    ``policy(rows)`` maps the segment's decision rows (rows ``0 .. last_t -
    first_t`` of the observation table, row i for bar ``first_t + i``) to one
    action per row; the pass stops early at a wipe, and ``actions[i]`` is the
    one taken on bar ``first_t + i``. With ``hold_fees`` the configured
    transaction cost applies only on the first and final step (single open /
    single close emulation for the hold strategies). A pass whose Sharpe
    ratio is undefined scores ``degenerate_sharpe``.
    """
    env = TradingEnv(segment, env_config)
    rows = env.observation_table()[: env.last_t - env.first_t + 1]
    actions = policy(rows)
    if len(actions) != len(rows):
        raise ValueError(f"policy returned {len(actions)} actions for {len(rows)} rows")
    # the cost of each step, None for the configured one; with hold_fees, 0.0 on all but the ends
    fees = [None] + [0.0 if hold_fees else None] * (len(actions) - 2) + [None]
    env.reset()
    equity = [env.cash]
    step, append = env.step, equity.append
    for action, tc in zip(actions, fees):
        terminal = step(float(action), tc)[1]
        append(env.cash)
        if terminal:
            break
    equity = np.asarray(equity, dtype=np.float64)
    actions = np.asarray(actions[: env.t - env.first_t], dtype=np.float64)
    equity.flags.writeable = actions.flags.writeable = False
    return (score_curve(strategy, seed, equity, env_config.annualization_days, degenerate_sharpe),
            equity, actions)


def train_agent_for_seed(cfg: ExperimentConfig, kind: str, seed: int, train_segment, valid_segment):
    """Train one agent, keeping the episode with the best validation Sharpe.

    Validation runs the agent's batched ``policies``; a pass whose Sharpe is
    undefined scores -inf, so it never displaces a scored episode.
    """
    agent = make_agent(cfg, kind, seed)
    best = {"score": -math.inf, "snapshot": None}

    def on_episode_end(a, episode):
        s = evaluate_policy(a.policies, valid_segment, cfg.env, "validation", -1,
                            degenerate_sharpe=-math.inf)[0].sharpe
        if s > best["score"]:
            best["score"] = s
            best["snapshot"] = a.snapshot()

    log = train(agent, train_segment, cfg.env, cfg.episodes, seed, on_episode_end=on_episode_end)
    if best["snapshot"] is not None:
        agent.restore(best["snapshot"])
    return agent, log


def train_seed(cfg: ExperimentConfig, seed: int, train_segment, valid_segment) -> dict:
    """Train the agents the strategy list needs for one seed, writing each agent's
    checkpoint and training log as it finishes; returns the agents by kind."""
    agents = {}
    for kind in agent_kinds(cfg.strategies):
        agents[kind], records = train_agent_for_seed(cfg, kind, seed, train_segment, valid_segment)
        agents[kind].save(checkpoint_path(cfg, kind, seed))
        keys = ("episode", "warmup", "total_reward", "final_cash", "mean_loss")  # one column each
        _write_csv(os.path.join(cfg.output_dir, f"training_log_{kind}_{seed}.csv"), ",".join(keys),
                   "%d,%d,%.17g,%.17g,%.17g", [[record[key] for record in records] for key in keys])
    return agents


_DISCRETIZERS = {"td3_sign": sign_discretize, "td3_d3": d3_discretize}


def evaluate_strategies(cfg: ExperimentConfig, agents: dict, segment, seed: int) -> dict[str, Score]:
    """One test-segment pass per requested strategy for one seed, its curves written
    as soon as it ends; returns the {strategy: Score} scores.

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
        rng = np.random.default_rng([seed, EVAL_STREAM[strategy]]) if strategy in RANDOM else None
        return [act(strategy, cfg.env.window + i, segment, rng, cfg.ma_window)
                for i in range(len(rows))]

    # each date of the pass formatted once per seed
    dates = [d.isoformat() for d in segment.dates()[cfg.env.window :]]

    def one_pass(strategy):
        score, equity, taken = evaluate_policy(partial(actions, strategy), segment, cfg.env,
                                               strategy, seed, hold_fees=strategy in HOLDS)
        emit_run(score, dates, equity, taken, cfg.output_dir)
        return score

    return {strategy: one_pass(strategy) for strategy in cfg.strategies}


def run_seed(cfg: ExperimentConfig, segments, seed: int,
             from_checkpoints: bool = False) -> dict[str, Score]:
    """One seed end to end on the (train, validation, test) ``segments``: train and
    save its agents, or with ``from_checkpoints`` load the saved ones; evaluate every
    strategy and write its curves; returns its {strategy: Score} scores."""
    train_seg, valid_seg, test_seg = segments
    agents = (load_agents(cfg, seed) if from_checkpoints
              else train_seed(cfg, seed, train_seg, valid_seg))
    return evaluate_strategies(cfg, agents, test_seg, seed)


# -- aggregation -------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    strategy: str
    return_pct: float
    sharpe: float


def build_table(reports: dict[str, list[Score]], order) -> tuple[ComparisonRow, ...]:
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


def compare_report(reports: dict[str, list[Score]], pairs,
                   alpha: float) -> list[TTestRow]:
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
        if len(xs) < 2:
            raise ValueError(TOO_FEW_SEEDS.format(len(xs)))
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


def _write_csv(path, header: str, row_format: str, columns) -> None:
    """Write a CSV file atomically: the ``header`` line, then each row through the
    template ``row_format`` ("%.17g" reads a float back bit for bit), in one ``%`` step
    for the whole file; ``columns`` holds one sequence per header name, of one length."""
    width, rows = len(columns), len(columns[0])
    cells = [None] * (width * rows)
    for i, column in enumerate(columns):
        cells[i::width] = column
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{header}\n" + f"{row_format}\n" * rows % tuple(cells))


def emit_run(score: Score, dates, equity, actions, outdir) -> None:
    """Write the equity and action CSVs of one pass from its float64 arrays;
    ``dates`` are the ISO texts of its bars from the first decision bar on."""
    for name, column, series in (("equity", "cash", equity), ("actions", "action", actions)):
        _write_csv(os.path.join(outdir, f"{name}_{score.strategy}_{score.seed}.csv"),
                   f"date,{column}", "%s,%.17g", (dates[: len(series)], series.tolist()))


def emit_outputs(table: tuple[ComparisonRow, ...], ttests: list[TTestRow], outdir,
                 resolved: dict) -> None:
    """Write the cross-seed files: comparison.csv, ttest.csv when there are
    t-tests, and the config echo."""
    _write_csv(os.path.join(outdir, "comparison.csv"), "strategy,return_pct,sharpe",
               "%s,%.17g,%.17g", ([row.strategy for row in table],
                                  [row.return_pct for row in table], [row.sharpe for row in table]))
    if ttests:
        emit_ttests(ttests, outdir)
    with atomic_open(os.path.join(outdir, "resolved_config.json"), "w", encoding="utf-8",
                     newline="\n") as fh:
        fh.write(json.dumps(resolved, indent=2, sort_keys=True) + "\n")


def emit_ttests(ttests: list[TTestRow], outdir) -> None:
    """Write ttest.csv; with no t-tests, its header alone."""
    _write_csv(os.path.join(outdir, "ttest.csv"), "pair,metric,t0,df,p_value", "%s,%s,%.17g,%d,%.17g",
               [[row.pair for row in ttests], [row.metric for row in ttests]]
               + [[getattr(row.result, name) for row in ttests] for name in ("t0", "df", "p_value")])


# -- the full experiment -------------------------------------------------------


def map_seeds(cfg: ExperimentConfig, fn):
    """Yield ``fn(seed)`` for each configured seed, in seed order, each as soon as it
    and the seeds before it are done. The seeds run in min(``workers``, seeds)
    processes, so ``fn`` and its results must pickle; with one, they run in this one."""
    workers = min(cfg.workers, len(cfg.seeds))
    if workers <= 1:
        yield from map(fn, cfg.seeds)
        return
    from concurrent.futures import ProcessPoolExecutor  # multiprocessing loads only for a pool
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, cfg.seeds)  # in seed order, whatever finishes first


def run_experiment(cfg: ExperimentConfig, from_checkpoints: bool = False):
    """Run every seed, training its agents or loading them ``from_checkpoints``, then
    aggregate and write the cross-seed files.

    The output directory (with ``checkpoints`` when training) is made before the first seed.

    Returns (table, reports, ttests): the comparison rows, a map from strategy
    id to its seed-ordered list of Scores (:func:`read_scores` rebuilds them
    from the emitted curves), and the t-test rows.
    """
    segments = load_segments(cfg)
    os.makedirs(cfg.output_dir if from_checkpoints else checkpoint_dir(cfg), exist_ok=True)
    per_seed = list(map_seeds(cfg, partial(run_seed, cfg, segments,
                                           from_checkpoints=from_checkpoints)))
    reports = {strategy: [scores[strategy] for scores in per_seed] for strategy in cfg.strategies}
    table = build_table(reports, cfg.strategies)
    requested = set(cfg.strategies)
    pairs = [p for p in cfg.ttest_pairs if set(p) <= requested]
    dropped = [":".join(p) for p in cfg.ttest_pairs if not set(p) <= requested]
    if dropped:
        log.warning("skipping t-test pair(s) %s: strategies not requested", ", ".join(dropped))
    if cfg.ttest_pairs and len(cfg.seeds) < 2:
        log.warning("skipping all t-tests: %s", TOO_FEW_SEEDS.format(len(cfg.seeds)))
        pairs = []
    ttests = compare_report(reports, pairs, cfg.alpha) if pairs else []
    emit_outputs(table, ttests, cfg.output_dir, resolved_config(cfg))
    return table, reports, ttests

"""Batch command-line interface.

Verbs:
  train      train the agents required by the strategy list, save checkpoints
  evaluate   evaluate strategies on the test segment using saved checkpoints
  compare    full pipeline: train, evaluate, aggregate, t-test, emit outputs
  ttest      recompute metrics from emitted equity CSVs and run the t-tests

Each verb parses its arguments, calls the harness stages and prints.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ExperimentConfig,
    agent_kinds,
    build_table,
    collect_reports,
    compare_report,
    config_from_dict,
    emit_outputs,
    emit_ttests,
    evaluate_strategies,
    load_agents,
    load_segments,
    read_config,
    read_reports,
    resolved_config,
    run_experiment,
    save_agents,
    train_agents,
)


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError as exc:  # int() names the bad item
        raise ValueError(f"--seeds: {exc}") from None


def _parse_pairs(text: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ValueError(f"pair {chunk!r} must look like x:y")
        pairs.append((parts[0].strip(), parts[1].strip()))
    return tuple(pairs)


def _apply_overrides(raw, args):
    """The raw config with the command-line flags applied, so that one
    ``config_from_dict`` validates the result."""
    updates, ttest = {}, {}
    if getattr(args, "seeds", None):
        updates["seeds"] = _parse_seeds(args.seeds)
    if getattr(args, "output_dir", None):
        updates["output_dir"] = args.output_dir
    if getattr(args, "strategies", None):
        updates["strategies"] = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    if getattr(args, "workers", None) is not None:
        updates["workers"] = args.workers
    if getattr(args, "pairs", None):
        ttest["pairs"] = _parse_pairs(args.pairs)
    if getattr(args, "alpha", None) is not None:
        ttest["alpha"] = args.alpha
    if not isinstance(raw, dict):
        return raw  # config_from_dict rejects it
    if ttest:
        base = raw.get("ttest", {})
        updates["ttest"] = {**base, **ttest} if isinstance(base, dict) else base
    return {**raw, **updates}


def cmd_train(cfg: ExperimentConfig) -> int:
    train_seg, valid_seg, _ = load_segments(cfg)
    if not agent_kinds(cfg.strategies):
        print("no trainable strategies requested; nothing to do", file=sys.stderr)
        return 2
    for seed in cfg.seeds:
        agents, logs = train_agents(cfg, seed, train_seg, valid_seg)
        for kind, path in save_agents(cfg, seed, agents, logs).items():
            print(f"trained {kind} seed {seed} -> {path}")
    return 0


def cmd_evaluate(cfg: ExperimentConfig) -> int:
    _, _, test_seg = load_segments(cfg)
    per_seed = []
    for seed in cfg.seeds:
        try:
            agents = load_agents(cfg, seed)
        except FileNotFoundError as exc:
            print(f"missing checkpoint {exc.filename}; run `tradelab train` first", file=sys.stderr)
            return 2
        per_seed.append(evaluate_strategies(cfg, agents, test_seg, seed))
    reports = collect_reports(cfg, per_seed)
    table = build_table(reports, cfg.strategies)
    emit_outputs(table, reports, None, cfg.output_dir, resolved_config(cfg))
    _print_table(table)
    return 0


def cmd_compare(cfg: ExperimentConfig) -> int:
    table, _, ttests = run_experiment(cfg)
    _print_table(table)
    _print_ttests(ttests)
    return 0


def cmd_ttest(cfg: ExperimentConfig) -> int:
    try:
        reports = read_reports(cfg, sorted({s for pair in cfg.ttest_pairs for s in pair}))
    except FileNotFoundError as exc:
        print(f"missing {exc.filename}; run `tradelab compare` or `evaluate` first", file=sys.stderr)
        return 2
    ttests = compare_report(reports, cfg.ttest_pairs, cfg.alpha)
    _print_ttests(ttests)
    emit_ttests(ttests, cfg.output_dir)
    return 0


def _print_ttests(ttests) -> None:
    for row in ttests:
        r = row.result
        verdict = "reject H0" if r.reject else "keep H0"
        print(f"{row.pair} [{row.metric}]: t0={r.t0:.4f} df={r.df} p={r.p_value:.6g} ({verdict})")


def _print_table(table) -> None:
    print(f"{'strategy':<12} {'return_pct':>12} {'sharpe':>10}")
    for row in table.rows:
        print(f"{row.strategy:<12} {row.return_pct:>12.4f} {row.sharpe:>10.4f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tradelab",
                                     description="Daily-trading RL laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "train agents and save checkpoints"),
        ("evaluate", "evaluate strategies from saved checkpoints"),
        ("compare", "full pipeline: train, evaluate, compare, t-test"),
        ("ttest", "paired t-tests from emitted equity curves"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--seeds", help="comma-separated seed list override")
        p.add_argument("--output-dir", help="output directory override")
        if name in ("train", "evaluate", "compare"):
            p.add_argument("--strategies", help="comma-separated strategy list override")
        if name == "compare":
            p.add_argument("--workers", type=int, help="parallel seed workers")
        if name == "ttest":
            p.add_argument("--pairs", help="comma-separated x:y strategy pairs")
            p.add_argument("--alpha", type=float, help="significance level")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_dict(_apply_overrides(read_config(args.config), args))
        handler = {
            "train": cmd_train,
            "evaluate": cmd_evaluate,
            "compare": cmd_compare,
            "ttest": cmd_ttest,
        }[args.command]
        return handler(cfg)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

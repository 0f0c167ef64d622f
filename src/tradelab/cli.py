"""Batch command-line interface.

Verbs:
  train      train the agents required by the strategy list, save checkpoints
  evaluate   compare's pipeline on the agents saved by train, instead of training
  compare    full pipeline: train, evaluate, aggregate, t-test, emit outputs
  ttest      recompute metrics from emitted equity CSVs and run the t-tests

Each verb parses its arguments, calls the harness stages and prints;
``compare`` and ``evaluate`` both run ``harness.run_experiment``, and
``train`` runs its seeds through the same ``harness.map_seeds``.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from .harness import (
    ExperimentConfig,
    agent_kinds,
    checkpoint_dir,
    checkpoint_path,
    compare_report,
    config_from_dict,
    emit_ttests,
    load_segments,
    map_seeds,
    read_config,
    read_scores,
    run_experiment,
    train_seed,
)


def _parse_names(text: str) -> tuple[str, ...]:
    """The items of a comma-separated list flag, stripped; blank items are skipped."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, _parse_names(text)))
    except ValueError as exc:  # int() names the bad item
        raise ValueError(f"--seeds: {exc}") from None


def _parse_pairs(text: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for chunk in _parse_names(text):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ValueError(f"pair {chunk!r} must look like x:y")
        pairs.append((parts[0].strip(), parts[1].strip()))
    return tuple(pairs)


# the parser of each flag whose text is a list, by the field it sets
_LIST_PARSERS = {"seeds": _parse_seeds, "strategies": _parse_names, "ttest_pairs": _parse_pairs}


def _train_kinds(cfg: ExperimentConfig, segments, seed: int) -> list[str]:
    """Train and save one seed's agents; returns their kinds, which are all the
    parent prints, so the agents stay in the worker."""
    return list(train_seed(cfg, seed, *segments))


def cmd_train(cfg: ExperimentConfig) -> int:
    if not agent_kinds(cfg.strategies):
        print("no trainable strategies requested; nothing to do", file=sys.stderr)
        return 2
    train_seg, valid_seg, _ = load_segments(cfg)
    os.makedirs(checkpoint_dir(cfg), exist_ok=True)
    trained = map_seeds(cfg, partial(_train_kinds, cfg, (train_seg, valid_seg)))
    for seed, kinds in zip(cfg.seeds, trained):
        for kind in kinds:
            print(f"trained {kind} seed {seed} -> {checkpoint_path(cfg, kind, seed)}")
    return 0


def cmd_evaluate(cfg: ExperimentConfig) -> int:
    try:
        return cmd_compare(cfg, from_checkpoints=True)
    except FileNotFoundError as exc:
        if exc.filename is None:  # the dataset's "no such data file", an exit-1 error
            raise
        print(f"missing checkpoint {exc.filename}; run `tradelab train` first", file=sys.stderr)
        return 2


def cmd_compare(cfg: ExperimentConfig, from_checkpoints: bool = False) -> int:
    table, _, ttests = run_experiment(cfg, from_checkpoints)
    _print_table(table)
    _print_ttests(ttests)
    return 0


def cmd_ttest(cfg: ExperimentConfig) -> int:
    try:
        scores = read_scores(cfg, sorted({s for pair in cfg.ttest_pairs for s in pair}))
    except FileNotFoundError as exc:
        print(f"missing {exc.filename}; run `tradelab compare` or `evaluate` first", file=sys.stderr)
        return 2
    ttests = compare_report(scores, cfg.ttest_pairs, cfg.alpha)
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
    for row in table:
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
        # each other flag's dest is the ExperimentConfig field it sets
        p.add_argument("--seeds", help="comma-separated seed list override")
        p.add_argument("--output-dir", help="output directory override")
        if name in ("train", "evaluate", "compare"):
            p.add_argument("--strategies", help="comma-separated strategy list override")
            p.add_argument("--workers", type=int, help="parallel seed workers")
        if name == "ttest":
            p.add_argument("--pairs", dest="ttest_pairs", help="comma-separated x:y strategy pairs")
            p.add_argument("--alpha", type=float, help="significance level")
    return parser


def main(argv=None) -> int:
    """Run one verb and return its exit code. Each flag given sets the config field
    of its dest, validated with the file; bad input, a missing dataset and an output
    directory that cannot be made print ``error: ...`` and return 1."""
    flags = vars(build_parser().parse_args(argv))
    command, path = flags.pop("command"), flags.pop("config")
    try:
        fields = {name: _LIST_PARSERS[name](value) if name in _LIST_PARSERS else value
                  for name, value in flags.items() if value is not None}
        cfg = config_from_dict(read_config(path), fields)
        handler = {
            "train": cmd_train,
            "evaluate": cmd_evaluate,
            "compare": cmd_compare,
            "ttest": cmd_ttest,
        }[command]
        return handler(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

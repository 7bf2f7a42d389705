"""Command-line interface.

Subcommands call the pipeline's stage functions in harness and print:
teacher, search, prune (one-shot: the job with zero DST steps), eval, report,
and run (the full chain). Exit codes: 0 success, 1 config or usage error,
2 stage failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, ExperimentConfig, parse_config
from .harness import (StageError, calibration_set, check_fits, evaluate, load_dataset,
                      prepare_teacher, report, run_experiment, run_single,
                      select_distribution, stage, write_distribution)
from .nn import load_masks, load_network, save_network
from .nn.checkpoint import atomic_write
from .sparsity import mask_summary
from .training import build_masks


def _add_common(p):
    p.add_argument("--config", "-c", default=None, help="key=value config file")
    p.add_argument("--override", "-o", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptsparse",
        description="Post-training sparsity toolkit: prune small pre-trained "
                    "networks with a tiny calibration set.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in [
        ("teacher", "build/train the dense teacher and save its checkpoint"),
        ("search", "evolutionary sparsity-distribution search"),
        ("prune", "one-shot magnitude pruning, mask export"),
        ("eval", "evaluate a checkpoint (optionally masked) on the eval split"),
        ("run", "full pipeline: teacher -> (search) -> train -> eval"),
    ]:
        p = sub.add_parser(name, help=descr)
        _add_common(p)
        if name == "eval":
            p.add_argument("--checkpoint", required=True)
            p.add_argument("--masks", default=None)
    p = sub.add_parser("report", help="comparison table across run directories")
    p.add_argument("dirs", nargs="+", help="run directories holding metrics.csv")
    p.add_argument("--csv-out", default=None)
    return parser


def _setup(args, *overrides) -> ExperimentConfig:
    """The config with the command's own overrides applied last, so
    validation sees the job the command runs."""
    return parse_config(args.config, [*args.override, *overrides])


def cmd_teacher(args) -> int:
    cfg = _setup(args)
    splits = load_dataset(cfg)
    teacher = prepare_teacher(cfg, splits, seed=cfg.data_seed)
    path = os.path.join(cfg.out_dir, "teacher.ckpt")
    with stage("artifacts"):
        save_network(teacher, path)
    print(f"teacher saved to {path} (eval top-1 {evaluate(teacher, splits):.4f})")
    return 0


def cmd_search(args) -> int:
    cfg = _setup(args)
    if cfg.nm_pattern:
        raise ConfigError("search does not apply to N:M runs")
    seed = cfg.seeds[0]
    splits = load_dataset(cfg)
    teacher = prepare_teacher(cfg, splits, seed=cfg.data_seed)
    calib = calibration_set(cfg, splits, seed)
    dist, stats = select_distribution(cfg, teacher, calib, seed)
    with stage("artifacts"):
        write_distribution(cfg.out_dir, dist, stats)
    print(mask_summary(build_masks(teacher, dist)))
    print(f"distribution saved to {os.path.join(cfg.out_dir, 'distribution.json')}")
    return 0


def cmd_prune(args) -> int:
    cfg = _setup(args, "iterations=0")
    splits = load_dataset(cfg)
    teacher = prepare_teacher(cfg, splits, seed=cfg.data_seed)
    row = run_single(cfg, splits, teacher, cfg.seeds[0], cfg.out_dir)
    with open(os.path.join(cfg.out_dir, "masks.txt")) as f:
        print(f.read(), end="")
    print(f"one-shot top-1: {row.top1:.4f}")
    return 0


def cmd_eval(args) -> int:
    splits = load_dataset(_setup(args))
    with stage("eval"):
        net = load_network(args.checkpoint)
        check_fits(net, splits)
        masks = load_masks(args.masks) if args.masks else None
    print(f"top1={evaluate(net, splits, masks):.6f}")
    return 0


def cmd_run(args) -> int:
    cfg = _setup(args)
    rows = run_experiment(cfg)
    for row in rows:
        print(",".join(row.as_list()))
    print(f"metrics written to {os.path.join(cfg.out_dir, 'metrics.csv')}")
    return 0


def cmd_report(args) -> int:
    text, csv_text = report(args.dirs)
    print(text)
    if args.csv_out:
        with stage("artifacts"), atomic_write(args.csv_out) as f:
            f.write(csv_text)
        print(f"csv written to {args.csv_out}")
    return 0


COMMANDS = {
    "teacher": cmd_teacher,
    "search": cmd_search,
    "prune": cmd_prune,
    "eval": cmd_eval,
    "run": cmd_run,
    "report": cmd_report,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

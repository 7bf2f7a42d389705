"""Command-line interface.

Subcommands map to pipeline stages: teacher, search, prune (one-shot),
train, eval, report, and run (the full chain). Exit codes: 0 success,
1 config error, 2 stage failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, ExperimentConfig, parse_config
from .harness import (MetricsRow, StageError, load_dataset, oneshot_prune,
                      prepare_teacher, report, run_experiment, run_single,
                      select_distribution, write_metrics, _flatten_if_mlp)
from .data import CalibrationSet, sample_calibration
from .nn import load_network, save_network
from .sparsity import load_masks, mask_summary, save_masks


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
        ("train", "dynamic sparse training against the teacher"),
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


def _setup(args) -> tuple[ExperimentConfig, str]:
    cfg = parse_config(args.config, args.override)
    out = cfg.resolved_out_dir()
    os.makedirs(out, exist_ok=True)
    return cfg, out


def cmd_teacher(args) -> int:
    cfg, out = _setup(args)
    splits = load_dataset(cfg)
    teacher = prepare_teacher(cfg, splits, seed=cfg.data_seed)
    path = os.path.join(out, "teacher.ckpt")
    save_network(teacher, path)
    eval_x = _flatten_if_mlp(cfg, splits.eval_x)
    print(f"teacher saved to {path} "
          f"(eval top-1 {teacher.accuracy(eval_x, splits.eval_y):.4f})")
    return 0


def _teacher_and_calib(cfg, seed):
    splits = load_dataset(cfg)
    teacher = prepare_teacher(cfg, splits, seed=cfg.data_seed)
    calib = sample_calibration(splits, cfg.calib_size, seed,
                               balanced=cfg.calib_balanced)
    calib = CalibrationSet(inputs=_flatten_if_mlp(cfg, calib.inputs),
                           labels=calib.labels, seed=calib.seed)
    return splits, teacher, calib


def cmd_search(args) -> int:
    cfg, out = _setup(args)
    seed = cfg.seeds[0]
    _, teacher, calib = _teacher_and_calib(cfg, seed)
    dist, _ = select_distribution(cfg, teacher, calib, seed, out_dir=out)
    if dist is None:
        raise ConfigError("search does not apply to N:M runs")
    path = os.path.join(out, "distribution.json")
    with open(path, "w") as f:
        f.write(dist.to_json() + "\n")
    numels = [teacher.layers[i].weight.size for i in dist.layer_indices]
    print(dist.summary(numels))
    print(f"distribution saved to {path}")
    return 0


def cmd_prune(args) -> int:
    cfg, out = _setup(args)
    splits, teacher, calib = _teacher_and_calib(cfg, cfg.seeds[0])
    dist, _ = select_distribution(cfg, teacher, calib, cfg.seeds[0], out_dir=out)
    try:
        student, masks = oneshot_prune(cfg, teacher, dist)
    except ValueError as exc:
        raise StageError("prune", str(exc)) from exc
    try:
        top1 = student.accuracy(_flatten_if_mlp(cfg, splits.eval_x), splits.eval_y,
                                masks=masks)
    except ValueError as exc:
        raise StageError("eval", str(exc)) from exc
    save_network(student, os.path.join(out, "student.ckpt"))
    save_masks(masks, os.path.join(out, "masks.bin"))
    print(mask_summary(masks))
    print(f"one-shot top-1: {top1:.4f}")
    return 0


def cmd_train(args) -> int:
    cfg, out = _setup(args)
    splits = load_dataset(cfg)
    teacher = prepare_teacher(cfg, splits, seed=cfg.data_seed)
    rows = [run_single(cfg, splits, teacher, seed, os.path.join(out, f"seed{seed}"))
            for seed in cfg.seeds]
    write_metrics(rows, os.path.join(out, "metrics.csv"))
    for row in rows:
        print(",".join(row.as_list()))
    return 0


def cmd_eval(args) -> int:
    cfg, _ = _setup(args)
    splits = load_dataset(cfg)
    try:
        net = load_network(args.checkpoint)
        masks = load_masks(args.masks) if args.masks else None
        top1 = net.accuracy(_flatten_if_mlp(cfg, splits.eval_x), splits.eval_y,
                            masks=masks)
    except (ValueError, OSError) as exc:
        raise StageError("eval", str(exc)) from exc
    print(f"top1={top1:.6f}")
    return 0


def cmd_run(args) -> int:
    cfg, out = _setup(args)
    rows = run_experiment(cfg)
    for row in rows:
        print(",".join(row.as_list()))
    print(f"metrics written to {os.path.join(out, 'metrics.csv')}")
    return 0


def cmd_report(args) -> int:
    text, csv_text = report(args.dirs)
    print(text)
    if args.csv_out:
        with open(args.csv_out, "w") as f:
            f.write(csv_text)
        print(f"csv written to {args.csv_out}")
    return 0


COMMANDS = {
    "teacher": cmd_teacher,
    "search": cmd_search,
    "prune": cmd_prune,
    "train": cmd_train,
    "eval": cmd_eval,
    "run": cmd_run,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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

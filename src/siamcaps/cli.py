"""Command-line entry points.

Subcommands: train, eval, gradcheck, gridsearch, plot.
Exit codes: 0 ok, 1 check failed, 2 usage/configuration error.
Dataset root comes from --data_dir or the SCN_DATA_DIR environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .checkpoint import CheckpointError
from .harness import (RunConfig, coerce_value, emit_plot, eval_run,
                      gridsearch_run, make_config, train_run)

_USAGE_ERRORS = (ValueError, OSError)


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE",
                     help="flat key = value config file")
    for f in dataclasses.fields(RunConfig):
        sub.add_argument(f"--{f.name}", metavar="V",
                         help=argparse.SUPPRESS)


def _collect_overrides(args: argparse.Namespace) -> dict:
    out = {}
    for f in dataclasses.fields(RunConfig):
        raw = getattr(args, f.name, None)
        if raw is not None:
            out[f.name] = coerce_value(f.name, raw)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siamcaps",
        description="Siamese capsule-network face verification harness")
    subs = parser.add_subparsers(dest="command", required=True)

    train = subs.add_parser("train", help="train a model, emit metrics.csv "
                                          "and checkpoints")
    _add_config_flags(train)

    ev = subs.add_parser("eval", help="evaluate a checkpoint, emit eval.csv "
                                      "and density.csv")
    ev.add_argument("--checkpoint", required=True, metavar="FILE")
    _add_config_flags(ev)

    gc = subs.add_parser("gradcheck", help="finite-difference check of "
                                           "every layer")
    gc.add_argument("--seed", type=int, default=0)

    gs = subs.add_parser("gridsearch", help="margin x metric sweep with "
                                            "contrastive loss")
    _add_config_flags(gs)

    plot = subs.add_parser("plot", help="loss-curve SVG from a metrics.csv")
    plot.add_argument("--metrics", required=True, metavar="FILE")
    plot.add_argument("--out", required=True, metavar="FILE")
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    return make_config(getattr(args, "config", None),
                       _collect_overrides(args))


def _print_epoch(row: dict) -> None:
    fold = f"fold {row['fold']} " if "fold" in row else ""
    print(f"{fold}epoch {row['epoch']} train_loss={row['train_loss']:.6g} "
          f"val_loss={row['val_loss']:.6g} test_loss={row['test_loss']:.6g} "
          f"wall_ms={row['wall_ms']} pairs/s={row['pairs_per_s']:.1f}",
          file=sys.stderr, flush=True)


def _cmd_train(args) -> int:
    cfg = _config_from(args)
    res = train_run(cfg, on_epoch=_print_epoch)
    if cfg.kfold_k >= 2:
        print(f"k-fold summary: {os.path.join(res.run_dir, 'summary.csv')}")
        print(f"folds run: {len(res.folds)}")
        print(f"mean test_loss={res.final_test_loss:.6g} "
              f"test_accuracy={res.final_test_accuracy:.4f}")
        return 0
    last = res.rows[-1]
    print(f"run dir: {res.run_dir}")
    print(f"epochs run: {len(res.rows)}")
    print(f"final train_loss={last['train_loss']:.6g} "
          f"test_loss={last['test_loss']:.6g} "
          f"test_accuracy={last['test_accuracy']:.4f}")
    return 0


def _cmd_eval(args) -> int:
    res = eval_run(args.checkpoint, _config_from(args))
    print(f"loss={res.loss:.6g} accuracy={res.accuracy:.4f} "
          f"threshold={res.threshold:.6g}")
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradcheck import format_report, run_suite, suite_passes
    results = run_suite(seed=args.seed)
    print(format_report(results))
    return 0 if suite_passes(results) else 1


def _cmd_gridsearch(args) -> int:
    rows = gridsearch_run(_config_from(args))
    for r in rows:
        print(f"m={r['margin']:g} metric={r['metric']} "
              f"test_loss={r['test_loss']:.6g} "
              f"test_accuracy={r['test_accuracy']:.4f}")
    return 0


def _cmd_plot(args) -> int:
    emit_plot(args.metrics, args.out)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "gridsearch": _cmd_gridsearch,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

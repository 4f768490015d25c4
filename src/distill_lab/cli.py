"""Command-line entry point.

Subcommands, each parser carrying its handler as ``run``: train,
invert-roundtrip, figure2, sdedit-demo, check. Shared flags: --config PATH,
--seed N, --out DIR, --check. Exit codes: 0 success, 2 configuration error
(a size too large for memory included) or an output file that cannot be
written, 3 numerical divergence, 4 failed check. A command prints no numpy
floating-point warnings: each non-finite result is checked and reported.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import acceptance, experiments, schedule
from .config import ExperimentConfig, load_config
from .denoiser import Denoiser, load_checkpoint, save_checkpoint, train
from .errors import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_DIVERGENCE,
    EXIT_OK,
    ConfigError,
    DivergenceError,
    MismatchError,
)

__all__ = ["main"]


def _out_dir(cfg: ExperimentConfig) -> Path:
    path = Path(cfg.output.dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {path}: {exc.strerror}") from exc
    return path


def _load_model(cfg: ExperimentConfig, checkpoint: str) -> Denoiser:
    d, ckpt_t = load_checkpoint(checkpoint)
    if ckpt_t != cfg.schedule.t:
        raise MismatchError(
            f"checkpoint was trained with T={ckpt_t}, config says T={cfg.schedule.t}"
        )
    return d


def _check_count(flag: str, value: int, low: int) -> None:
    try:
        schedule._check_count(value, flag, low)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cell(value: float, width: int, digits: int) -> str:
    """``value`` right-aligned in ``width`` characters with ``digits``
    decimals, in exponent form when the fixed-point text would not fit."""
    text = f"{value:.{digits}f}"
    return f"{text if len(text) <= width else f'{value:.{width - 8}e}':>{width}}"


def cmd_train(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg)
    s = cfg.build_schedule()
    dataset, d = cfg.build_dataset(), cfg.build_model()
    t0 = time.perf_counter()
    losses = train(d, dataset, s, cfg.training)
    elapsed = time.perf_counter() - t0
    ckpt_path = out / "model.ckpt"
    save_checkpoint(d, ckpt_path, cfg.schedule.t)
    lines = ("%d,%.17g" % row for row in enumerate(losses))
    experiments.write_csv(out / "train_log.csv", ["step", "loss"], lines)
    print(f"trained {cfg.training.steps} steps in {elapsed:.1f}s "
          f"(loss {losses[0]:.4f} -> {losses[-1]:.4f})")
    print(f"checkpoint: {ckpt_path}")
    print(f"training log: {out / 'train_log.csv'}")
    return EXIT_OK


def cmd_invert_roundtrip(cfg: ExperimentConfig, args) -> int:
    _check_count("--k", args.k, 0)
    experiments.check_roundtrip_grid(cfg)
    out = _out_dir(cfg)
    d = _load_model(cfg, args.checkpoint)
    rng = np.random.default_rng(cfg.dataset.seed + 202)
    rows = experiments.run_roundtrip_report(cfg, d, rng, args.k)
    report_path = out / "roundtrip.csv"
    lines = ("%d,%d,%.17g" % row for row in rows)
    experiments.write_csv(report_path, ["index", "label", "max_abs_error"], lines)
    if not rows:
        print("empty report (k = 0)")
        return EXIT_OK
    worst = max(err for _, _, err in rows)
    ok = worst < experiments.ROUNDTRIP_TOLERANCE
    print(f"round-trip over {len(rows)} points: max abs err {worst:.3e} "
          f"({'PASS' if ok else 'FAIL'} at {experiments.ROUNDTRIP_TOLERANCE:.0e})")
    print(f"report: {report_path}")
    if args.check and not ok:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_figure2(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg)
    d = _load_model(cfg, args.checkpoint)
    summary = experiments.run_figure2(cfg, d, out_dir=out)
    print(f"{'objective':>9}  {'mean disp':>10}  {'mean |dist|':>11}  "
          f"{'frac class2':>11}  {'diverged':>8}")
    for name, row in summary.rows.items():
        print(f"{name:>9}  {_cell(row['mean_displacement'], 10, 3)}  "
              f"{_cell(row['mean_abs_boundary_dist'], 11, 3)}  "
              f"{_cell(row['frac_class2_side'], 11, 2)}  {row['diverged_runs']:>8}")
    for name, passed in summary.checks.items():
        print(f"  check {name}: {'pass' if passed else 'FAIL'}")
    print(f"CSV output in {out}")
    if args.check and not all(summary.checks.values()):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_sdedit_demo(cfg: ExperimentConfig, args) -> int:
    _check_count("--points", args.points, 1)
    _check_count("--grid-points", args.grid_points, 0)
    experiments.check_sdedit_schedule(cfg)
    out = _out_dir(cfg)
    d = _load_model(cfg, args.checkpoint)
    rows = experiments.run_sdedit_sweep(cfg, d, args.points, args.grid_points)
    path = out / "sdedit_sweep.csv"
    lines = ("%.17g,%.17g" % row for row in rows)
    experiments.write_csv(path, ["t0_ratio", "mean_displacement"], lines)
    for ratio, mean in rows:
        print(f"t0_ratio {ratio:4.2f}: mean displacement {mean:.4f}")
    print(f"sweep: {path}")
    # the check: an identity at ratio 0 that the top ratio rises above
    if args.check and len(rows) > 1 and not rows[0][1] == 0.0 < rows[-1][1]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_check(cfg: ExperimentConfig, args) -> int:
    results = acceptance.run_all(cfg)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distill-lab",
        description="2D score-distillation editing laboratory",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="INI config file (defaults built in)")
    common.add_argument("--seed", type=int, default=None, help="master seed override")
    common.add_argument("--out", default=None, help="output directory override")
    common.add_argument("--check", action="store_true",
                        help="exit nonzero when the command's checks fail")

    sp = parser.add_subparsers(dest="command", required=True)
    p = sp.add_parser("train", parents=[common], help="train the toy denoiser")
    p.set_defaults(run=cmd_train)

    p = sp.add_parser("invert-roundtrip", parents=[common],
                      help="invert and replay random points; report errors")
    p.add_argument("checkpoint", help="model checkpoint path")
    p.add_argument("--k", type=int, default=50, help="number of points")
    p.set_defaults(run=cmd_invert_roundtrip)

    p = sp.add_parser("figure2", parents=[common],
                      help="run the three-objective trajectory comparison")
    p.add_argument("checkpoint", help="model checkpoint path")
    p.set_defaults(run=cmd_figure2)

    p = sp.add_parser("sdedit-demo", parents=[common],
                      help="sweep the partial-noising ratio and report displacement")
    p.add_argument("checkpoint", help="model checkpoint path")
    p.add_argument("--grid-points", type=int, default=10)
    p.add_argument("--points", type=int, default=100)
    p.set_defaults(run=cmd_sdedit_demo)

    p = sp.add_parser("check", parents=[common], help="run the full acceptance suite")
    p.set_defaults(run=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "(overflow|invalid value|divide by zero) encountered",
                                RuntimeWarning)
        try:
            cfg = load_config(args.config, master_seed=args.seed, out_dir=args.out)
            return args.run(cfg, args)
        except (ConfigError, MismatchError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        except MemoryError as exc:
            # numpy refuses an array larger than memory outright: a size set too large
            print(f"config error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        except DivergenceError as exc:
            print(f"numerical divergence: {exc}", file=sys.stderr)
            return EXIT_DIVERGENCE
        except OSError as exc:
            # the readers raise ConfigError or MismatchError, so an OSError is a failed write
            print(f"config error: cannot write {exc.filename or 'an output file'}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Checks of the benchmark itself, on reduced sizes (a few seconds):

- the denoiser-row formulas equal the rows counted at today's denoiser entry
  points (predict: 1 row; cfg_predict: 1-2; cfg_predict_batch: n-2n;
  loss_and_grad: n), for every workload's commands, at omega 7.5 and 1;
- traced and untraced passes write identical bytes, the tracer sees the
  denoiser through every namespace that binds it, self times add up to the
  root spans, and uninstalling restores every binding;
- ``train`` at the default config still writes the fixture byte for byte;
- the ``-X importtime`` parser sums only the outermost scipy imports.

Run from the root of a checkout:

    PYTHONPATH=src python3 perfbench/selftest.py
"""

from __future__ import annotations

import functools
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as wl
from run import scipy_import_s
from tracer import Tracer

REDUCED_INI = """
[distill]
steps = 6
n_runs = 2
omega = {omega}
[training]
steps = 5
"""
INVERT_K = 2
SDEDIT_POINTS = 8
SDEDIT_GRID_POINTS = 5


def reduced_steps(config: Path) -> dict[str, tuple[wl.Step, ...]]:
    ckpt = str(wl.FIXTURE)
    conf = ("--config", str(config))
    return {
        "figure2": (wl.Step(("figure2", ckpt, *conf)),),
        "invert-roundtrip": (wl.Step(("invert-roundtrip", ckpt, "--k", str(INVERT_K), *conf)),),
        "train": (wl.Step(("train", *conf), gated=False),),
        "sdedit-demo": (wl.Step(("sdedit-demo", ckpt, "--points", str(SDEDIT_POINTS),
                                 "--grid-points", str(SDEDIT_GRID_POINTS), *conf)),),
    }


def formula_rows(command: str, cfg) -> int:
    if command == "figure2":
        d = cfg.distill
        return wl.figure2_rows(d.steps, d.n_runs, d.objectives, d.omega)
    if command == "invert-roundtrip":
        return wl.invert_rows(INVERT_K, cfg.schedule.t // cfg.subsequence.stride, cfg.distill.omega)
    if command == "train":
        return wl.train_rows(cfg.training.steps, cfg.training.batch_size, cfg.dataset.n)
    return wl.sdedit_rows(SDEDIT_POINTS, SDEDIT_GRID_POINTS)


class RowCounter:
    """Counts rows at the denoiser's evaluation entry points, in every
    namespace that binds them; nested entries (cfg_predict -> predict) are
    counted once, at the outermost call."""

    RULES = {
        "predict": lambda args: 1,
        "cfg_predict": lambda args: wl.rows_per_prediction(args[4]),
        "cfg_predict_batch": lambda args: args[1].shape[0] * wl.rows_per_prediction(args[4]),
        "loss_and_grad": lambda args: args[2].shape[0],
    }

    def __init__(self):
        self.rows = 0
        self._depth = 0
        self._patches = []

    def install(self) -> None:
        from distill_lab import denoiser

        originals = {name: getattr(denoiser, name) for name in self.RULES}
        wrappers = {name: self._wrap(fn, self.RULES[name]) for name, fn in originals.items()}
        for mod in [m for n, m in sys.modules.items() if n.startswith("distill_lab")]:
            for attr, value in list(vars(mod).items()):
                for name, fn in originals.items():
                    if value is fn:
                        setattr(mod, attr, wrappers[name])
                        self._patches.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in self._patches:
            setattr(mod, attr, fn)
        self._patches.clear()

    def _wrap(self, fn, rule):
        @functools.wraps(fn)
        def counted(*args):
            if self._depth == 0:
                self.rows += rule(args)
            self._depth += 1
            try:
                return fn(*args)
            finally:
                self._depth -= 1
        return counted


def check_row_formulas(cli, work: Path) -> list[str]:
    from distill_lab.config import load_config

    failures = []
    for omega in (7.5, 1.0):
        ini = work / f"reduced-{omega}.ini"
        ini.write_text(REDUCED_INI.format(omega=omega), encoding="utf-8")
        cfg = load_config(str(ini), master_seed=wl.DEFAULT_SEED)
        for command, steps in reduced_steps(ini).items():
            counter = RowCounter()
            counter.install()
            try:
                run = wl.run_pass(cli.main, steps, wl.DEFAULT_SEED, work / f"rows-{omega}-{command}")
            finally:
                counter.uninstall()
            if run.exit_codes != [0]:
                failures.append(f"{command} at omega {omega}: exit {run.exit_codes} {run.error}")
            elif counter.rows != formula_rows(command, cfg):
                failures.append(f"{command} at omega {omega}: counted {counter.rows} rows, "
                                f"formula says {formula_rows(command, cfg)}")
    return failures


def check_tracer(cli, work: Path) -> list[str]:
    from distill_lab import denoiser, distill, latentops

    failures = []
    ini = work / "reduced-trace.ini"
    ini.write_text(REDUCED_INI.format(omega=7.5), encoding="utf-8")
    bound_before = (distill.cfg_predict, latentops.cfg_predict)
    tracer = Tracer()
    for command, steps in reduced_steps(ini).items():
        plain = wl.run_pass(cli.main, steps, wl.DEFAULT_SEED, work / f"plain-{command}")
        tracer.reset()
        tracer.install()
        try:
            traced = wl.run_pass(cli.main, steps, wl.DEFAULT_SEED, work / f"traced-{command}")
        finally:
            tracer.uninstall()
        for a, b in zip(plain.out_dirs, traced.out_dirs):
            bytes_a = {p.name: p.read_bytes() for p in a.iterdir()}
            bytes_b = {p.name: p.read_bytes() for p in b.iterdir()}
            if bytes_a != bytes_b:
                failures.append(f"{command}: traced and untraced outputs differ")
        layer_of = {span[0]: span[2] for span in tracer.spans}
        callers = {layer_of.get(span[1]) for span in tracer.spans if span[2] == "denoiser"}
        wanted = {"figure2": {"distill"}, "invert-roundtrip": {"latentops"},
                  "sdedit-demo": {"latentops"}, "train": {"cli"}}[command]
        if not wanted <= callers:
            failures.append(f"{command}: denoiser entered from {callers}, expected {wanted}")
        roots = sum(end - start for _, parent, _, _, start, end in tracer.spans if parent is None)
        selfs = sum(t["self_s"] for t in tracer.layer_totals().values())
        if abs(roots - selfs) > 1e-6:
            failures.append(f"{command}: self times sum to {selfs}, root spans to {roots}")
    if (distill.cfg_predict, latentops.cfg_predict) != bound_before or \
            distill.cfg_predict is not denoiser.cfg_predict:
        failures.append("uninstall left a wrapped binding behind")
    return failures


def check_fixture_repeats(cli, work: Path) -> list[str]:
    expected = wl.load_expected()
    if wl.sha256_file(wl.FIXTURE) != expected["fixture_sha256"]:
        return ["the fixture does not match its stored digest"]
    run = wl.run_pass(cli.main, (wl.Step(("train",), gated=False),), wl.DEFAULT_SEED, work / "train")
    if run.exit_codes != [0]:
        return [f"train: exit {run.exit_codes} {run.error}"]
    if wl.sha256_file(run.out_dirs[0] / "model.ckpt") != expected["fixture_sha256"]:
        return ["train at the default config no longer writes the fixture's bytes"]
    return []


def check_importtime_parser(cli, work: Path) -> list[str]:
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |       scipy.stats._x",
        "import time:        10 |         60 |     scipy.stats",
        "import time:         5 |         65 |   distill_lab.acceptance",
        "import time:         1 |        366 | distill_lab.cli",
    ])
    got = scipy_import_s(log)
    return [] if abs(got - 360e-6) < 1e-12 else [f"importtime parser: got {got}, want 360e-6"]


def main() -> int:
    from distill_lab import cli

    wl.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=wl.WORK))
    failed = 0
    try:
        for check in (check_row_formulas, check_tracer, check_fixture_repeats,
                      check_importtime_parser):
            failures = check(cli, work)
            print(f"{'PASS' if not failures else 'FAIL'} {check.__name__}")
            for line in failures:
                print(f"    {line}")
            failed += bool(failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

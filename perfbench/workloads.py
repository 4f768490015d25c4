"""The benchmark's workloads: the CLI commands each one runs, the denoiser
rows those commands imply, and the checks on the files they write.

Every workload goes through ``distill_lab.cli.main``, the path users take.
The workload seed reaches the program only as ``--seed N``; everything else
is the built-in default config. ``edit``, ``invert`` and the ``sdedit-demo``
half of ``batch`` read the stored fixture checkpoint, so a change to the
training path cannot cascade into the inference checks.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixtures" / "model.ckpt"
EXPECTED = HERE / "fixtures" / "expected.json"
WORK = HERE / ".work"  # scratch outputs; ignored by git

# The CLI's own default master seed: ``--seed 7`` reproduces the default
# config, and so the fixture checkpoint, byte for byte.
DEFAULT_SEED = 7

INVERT_K = 50
SDEDIT_POINTS = 4000
SDEDIT_GRID_POINTS = 20
SDEDIT_STEPS = 20  # run_sdedit_sweep's default chain length
SDEDIT_OMEGA = 0.0  # run_sdedit_sweep's default guidance weight
ROUNDTRIP_TOLERANCE = 1e-8

# Guided predictions per optimisation step of each figure2 objective.
_PREDICTIONS_PER_STEP = {"sds": 1, "dds": 2, "pds": 2}


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload pass. ``gated`` outputs must repeat
    byte for byte; ungated ones (training) are checked by content only."""

    argv: tuple[str, ...]
    gated: bool = True

    @property
    def name(self) -> str:
        return self.argv[0]


def steps_for(workload: str) -> tuple[Step, ...]:
    ckpt = str(FIXTURE)
    if workload == "edit":
        return (Step(("figure2", ckpt, "--check")),)
    if workload == "invert":
        return (Step(("invert-roundtrip", ckpt, "--k", str(INVERT_K), "--check")),)
    if workload == "batch":
        return (
            Step(("train",), gated=False),
            Step(("sdedit-demo", ckpt, "--points", str(SDEDIT_POINTS),
                  "--grid-points", str(SDEDIT_GRID_POINTS), "--check")),
        )
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


WORKLOADS = ("edit", "invert", "batch")

# The reference block (reference.py) each workload's pass times are divided by.
REFERENCE_KIND = {"edit": "rows1", "invert": "rows1", "batch": "batched"}


# -- denoiser rows (NFE) implied by the workload parameters -------------------

def rows_per_prediction(omega: float) -> int:
    """A guided prediction costs one row at omega in {0, 1}, else two."""
    return 1 if omega in (0.0, 1.0) else 2


def figure2_rows(steps: int, n_runs: int, objectives, omega: float) -> int:
    per_step = sum(_PREDICTIONS_PER_STEP[o] for o in objectives)
    return steps * n_runs * per_step * rows_per_prediction(omega)


def invert_rows(k: int, grid_len: int, omega: float) -> int:
    """Invert plus replay: one guided prediction per level each way."""
    return k * 2 * grid_len * rows_per_prediction(omega)


def train_rows(steps: int, batch_size: int, n: int) -> int:
    return steps * min(batch_size, n)


def sdedit_rows(points: int, grid_points: int, n_steps: int = SDEDIT_STEPS,
                omega: float = SDEDIT_OMEGA) -> int:
    """The sweep denoises every point from round(ratio * n_steps) down to 0."""
    grid = np.arange(grid_points) / max(grid_points, 1)
    levels = sum(int(round(float(r) * n_steps)) for r in grid)
    return points * levels * rows_per_prediction(omega)


def expected_rows(workload: str, cfg) -> int:
    """Denoiser rows one pass evaluates, from the resolved default config."""
    if workload == "edit":
        d = cfg.distill
        return figure2_rows(d.steps, d.n_runs, d.objectives, d.omega)
    if workload == "invert":
        return invert_rows(INVERT_K, cfg.schedule.t // cfg.subsequence.stride, cfg.distill.omega)
    if workload == "batch":
        t = cfg.training
        return (train_rows(t.steps, t.batch_size, cfg.dataset.n)
                + sdedit_rows(SDEDIT_POINTS, SDEDIT_GRID_POINTS))
    raise ValueError(f"unknown workload {workload!r}")


# -- running and checking one pass --------------------------------------------

@dataclass
class PassRun:
    """What one pass did: exit codes, stdout bytes, and its output folders."""

    out_dirs: list[Path]
    exit_codes: list[int | None]
    stdout_bytes: int = 0
    error: str | None = None


def run_pass(main, steps: tuple[Step, ...], seed: int, pass_dir: Path) -> PassRun:
    """Run each step through ``main`` in-process, stdout captured.

    Only this function belongs inside a timed region; checking is separate.
    """
    run = PassRun(out_dirs=[], exit_codes=[])
    for index, step in enumerate(steps):
        out = pass_dir / f"{index}-{step.name}"
        run.out_dirs.append(out)
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                rc = main([*step.argv, "--seed", str(seed), "--out", str(out)])
        except Exception as exc:  # a crashing pass is a failed pass, not a crashed benchmark
            run.exit_codes.append(None)
            run.error = f"{step.name}: {exc!r}"
            break
        finally:
            run.stdout_bytes += len(buf.getvalue().encode("utf-8"))
        run.exit_codes.append(rc)
    return run


@dataclass
class PassCheck:
    """Outcome of checking one pass's outputs."""

    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)  # gated files only
    ckpt_digest: str | None = None
    roundtrip_max_err: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_pass(run: PassRun, steps: tuple[Step, ...], cfg) -> PassCheck:
    """Exit codes, per-command invariants and the digests of gated files."""
    check = PassCheck()
    if run.error is not None:
        check.problems.append(run.error)
    for step, out, rc in zip(steps, run.out_dirs, run.exit_codes):
        if rc != 0:
            check.problems.append(f"{step.name}: exit code {rc}")
            continue
        try:
            _INVARIANTS[step.name](out, cfg, check)
        except Exception as exc:  # unreadable or malformed output fails the pass
            check.problems.append(f"{step.name}: output unreadable ({exc!r})")
            continue
        if step.gated:
            for path in sorted(out.iterdir()):
                check.digests[f"{out.name}/{path.name}"] = sha256_file(path)
    return check


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_figure2(out: Path, cfg, check: PassCheck) -> None:
    d = cfg.distill
    missing = [
        f"fig2_traj_{o}_{r:03d}.csv" for o in d.objectives for r in range(d.n_runs)
        if not (out / f"fig2_traj_{o}_{r:03d}.csv").is_file()
    ]
    if missing:
        check.problems.append(f"figure2: {len(missing)} trajectory files missing")
    for row in _read_rows(out / "fig2_summary.csv"):
        if row["diverged_runs"] != "0":
            check.problems.append(f"figure2: {row['objective']} diverged")
    for row in _read_rows(out / "fig2_meta.csv"):
        if row["key"].startswith("check_") and row["value"] != "pass":
            check.problems.append(f"figure2: {row['key']} failed")


def _check_roundtrip(out: Path, cfg, check: PassCheck) -> None:
    errs = [float(row["max_abs_error"]) for row in _read_rows(out / "roundtrip.csv")]
    if len(errs) != INVERT_K:
        check.problems.append(f"invert-roundtrip: {len(errs)} rows, expected {INVERT_K}")
        return
    check.roundtrip_max_err = max(errs)
    if not check.roundtrip_max_err < ROUNDTRIP_TOLERANCE:
        check.problems.append(f"invert-roundtrip: max error {check.roundtrip_max_err:.3e}")


def _check_train(out: Path, cfg, check: PassCheck) -> None:
    from distill_lab.denoiser import load_checkpoint

    losses = [float(row["loss"]) for row in _read_rows(out / "train_log.csv")]
    if len(losses) != cfg.training.steps or not all(math.isfinite(v) for v in losses):
        check.problems.append("train: loss log incomplete or non-finite")
    ckpt = out / "model.ckpt"
    _, trained_t = load_checkpoint(ckpt)
    if trained_t != cfg.schedule.t:
        check.problems.append(f"train: checkpoint loads back with T={trained_t}")
    check.ckpt_digest = sha256_file(ckpt)


def _check_sdedit(out: Path, cfg, check: PassCheck) -> None:
    means = [float(row["mean_displacement"]) for row in _read_rows(out / "sdedit_sweep.csv")]
    if len(means) != SDEDIT_GRID_POINTS or means[0] != 0.0 or not means[-1] > means[0]:
        check.problems.append("sdedit-demo: sweep is not an identity at 0 rising to the top")


_INVARIANTS = {
    "figure2": _check_figure2,
    "invert-roundtrip": _check_roundtrip,
    "train": _check_train,
    "sdedit-demo": _check_sdedit,
}


def load_expected() -> dict:
    """Stored digests: the fixture's, and each workload's gated outputs at
    the default seed (written by ``record.py``)."""
    return json.loads(EXPECTED.read_text(encoding="utf-8"))

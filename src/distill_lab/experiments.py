"""Experiment drivers: the two-marginal trajectory comparison, the partial
-noising sweep, and the inversion round-trip report.

The trajectory comparison starts identity generators at samples of class 1
and optimizes them toward class 2 under each objective with matched seeds,
then aggregates endpoint displacement and distance to the class boundary
(the perpendicular bisector of the two configured class means, computed
from the configuration, never hard-coded).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .denoiser import ClassSpec, Denoiser
from .distill import (
    EditProblem,
    TrajectoryRecord,
    identity_generator,
    optimize_batch,
    write_trajectory_csv,
)
from .errors import ConfigError
from .latentops import generate_with_latents_batch, invert, sdedit_batch
from .schedule import NoiseSchedule, TimestepSubsequence

__all__ = [
    "ObjectiveAggregate",
    "Figure2Summary",
    "boundary_frame",
    "signed_boundary_distance",
    "run_figure2",
    "check_sdedit_schedule",
    "run_sdedit_sweep",
    "run_roundtrip_report",
]

SDEDIT_STEPS = 20
SDEDIT_OMEGA = 0.0


def boundary_frame(class_params: tuple[ClassSpec, ClassSpec]) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint and unit normal of the bisector between the class means.

    The normal points toward class 2, so positive signed distances are on
    the class-2 side.
    """
    m1 = np.asarray(class_params[0].mean, dtype=float)
    m2 = np.asarray(class_params[1].mean, dtype=float)
    gap = m2 - m1
    norm = np.linalg.norm(gap)
    if norm == 0:
        raise ValueError("class means coincide; the boundary is undefined")
    return (m1 + m2) / 2.0, gap / norm


def signed_boundary_distance(points: np.ndarray, class_params) -> np.ndarray:
    center, normal = boundary_frame(class_params)
    return (np.atleast_2d(points) - center) @ normal


@dataclass
class ObjectiveAggregate:
    """Endpoint statistics for one objective across seeded runs."""

    objective: str
    endpoints: np.ndarray
    displacements: np.ndarray
    signed_dists: np.ndarray
    diverged_runs: int

    @property
    def mean_displacement(self) -> float:
        return float(np.mean(self.displacements))

    @property
    def mean_signed_dist(self) -> float:
        return float(np.mean(self.signed_dists))

    @property
    def mean_abs_dist(self) -> float:
        return float(np.mean(np.abs(self.signed_dists)))

    @property
    def frac_class2_side(self) -> float:
        return float(np.mean(self.signed_dists > 0))


@dataclass
class Figure2Summary:
    """Aggregates of the trajectory comparison plus its ordering checks."""

    n_runs: int
    aggregates: dict[str, ObjectiveAggregate]
    starts: np.ndarray
    checks: dict[str, bool] = field(default_factory=dict)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())


def _evaluate_checks(summary: Figure2Summary) -> None:
    agg = summary.aggregates
    if not {"sds", "dds", "pds"} <= set(agg):
        return
    pds, sds, dds = agg["pds"], agg["sds"], agg["dds"]
    summary.checks["pds_smallest_displacement"] = pds.mean_displacement < min(
        sds.mean_displacement, dds.mean_displacement
    )
    summary.checks["pds_nearest_boundary"] = (
        pds.mean_abs_dist < sds.mean_abs_dist and pds.mean_abs_dist < dds.mean_abs_dist
    )
    summary.checks["sds_crosses_boundary"] = sds.frac_class2_side >= 0.8
    summary.checks["dds_crosses_boundary"] = dds.frac_class2_side >= 0.8
    summary.checks["no_divergence"] = all(a.diverged_runs == 0 for a in agg.values())


def run_figure2(
    cfg: ExperimentConfig,
    d: Denoiser,
    s: NoiseSchedule,
    sub: TimestepSubsequence,
    out_dir: str | Path | None = None,
) -> Figure2Summary:
    """Run the seeded trajectory comparison; optionally emit all CSVs.

    Runs share seeds across objectives, so every objective sees the same
    start points, timestep draws and noises; each step draws one sample per
    run, which all objectives of that run read. Every objective x run job
    advances in lockstep through one :func:`optimize_batch` call, with the
    same bits as running each job alone.
    """
    dist = cfg.distill
    class_params = cfg.class_params()
    rng = np.random.default_rng(dist.base_seed)
    starts = np.asarray(class_params[0].mean) + class_params[0].std * rng.standard_normal(
        (dist.n_runs, 2)
    )

    jobs = [
        (
            EditProblem(
                x0_src=starts[run],
                y_src=1,
                gen=identity_generator(starts[run]),
                y_tgt=2,
                omega=dist.omega,
                sub=sub,
            ),
            objective,
            dist.base_seed + 1 + run,
        )
        for objective in dist.objectives
        for run in range(dist.n_runs)
    ]
    flat = optimize_batch(
        jobs, dist.steps, dist.lr, d, s, w_mode=dist.w_mode, optimizer=dist.optimizer
    )
    records: dict[str, list[TrajectoryRecord]] = {
        objective: flat[k * dist.n_runs : (k + 1) * dist.n_runs]
        for k, objective in enumerate(dist.objectives)
    }

    aggregates = {}
    for objective in dist.objectives:
        endpoints = np.array([rec.endpoint for rec in records[objective]])
        displacements = np.linalg.norm(endpoints - starts, axis=1)
        aggregates[objective] = ObjectiveAggregate(
            objective=objective,
            endpoints=endpoints,
            displacements=displacements,
            signed_dists=signed_boundary_distance(endpoints, class_params),
            diverged_runs=sum(rec.diverged for rec in records[objective]),
        )

    summary = Figure2Summary(n_runs=dist.n_runs, aggregates=aggregates, starts=starts)
    _evaluate_checks(summary)
    if out_dir is not None:
        _emit_figure2_files(Path(out_dir), cfg, summary, records, class_params)
    return summary


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _emit_figure2_files(out_dir, cfg, summary, records, class_params) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    points = {}
    for objective, recs in records.items():
        for run, rec in enumerate(recs):
            path = out_dir / f"fig2_traj_{objective}_{run:03d}.csv"
            points[objective, run] = write_trajectory_csv(rec, path)

    with open(out_dir / "fig2_endpoints.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["objective", "run", "seed", "start_x", "start_y", "endpoint_x", "endpoint_y",
             "displacement", "signed_boundary_dist", "diverged"]
        )
        for objective, agg in summary.aggregates.items():
            for run in range(summary.n_runs):
                writer.writerow(
                    [
                        objective,
                        run,
                        cfg.distill.base_seed + 1 + run,
                        _fmt(summary.starts[run, 0]),
                        _fmt(summary.starts[run, 1]),
                        _fmt(agg.endpoints[run, 0]),
                        _fmt(agg.endpoints[run, 1]),
                        _fmt(agg.displacements[run]),
                        _fmt(agg.signed_dists[run]),
                        int(records[objective][run].diverged),
                    ]
                )

    with open(out_dir / "fig2_summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["objective", "n_runs", "mean_displacement", "mean_signed_boundary_dist",
             "mean_abs_boundary_dist", "frac_class2_side", "diverged_runs"]
        )
        for objective, agg in summary.aggregates.items():
            writer.writerow(
                [
                    objective,
                    summary.n_runs,
                    _fmt(agg.mean_displacement),
                    _fmt(agg.mean_signed_dist),
                    _fmt(agg.mean_abs_dist),
                    _fmt(agg.frac_class2_side),
                    agg.diverged_runs,
                ]
            )

    center, normal = boundary_frame(class_params)
    tangent = np.array([-normal[1], normal[0]])
    span = 1.5 * np.linalg.norm(
        np.asarray(class_params[1].mean) - np.asarray(class_params[0].mean)
    )
    with open(out_dir / "fig2_plotdata.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "objective", "run", "step", "x", "y"])
        for endpoint_sign in (-1.0, 1.0):
            p = center + endpoint_sign * span * tangent
            writer.writerow(["boundary", "", "", "", _fmt(p[0]), _fmt(p[1])])
        for run in range(summary.n_runs):
            writer.writerow(
                ["start", "", run, "", _fmt(summary.starts[run, 0]), _fmt(summary.starts[run, 1])]
            )
        # the trajectory rows reuse the point text of the trajectory files
        lines = []
        for (objective, run), xy in points.items():
            prefix = f"trajectory,{objective},{run},"
            lines += [f"{prefix}{step},{point}" for step, point in enumerate(xy)]
            lines.append(f"endpoint,{objective},{run},{len(xy) - 1},{xy[-1]}")
        fh.write("\r\n".join([*lines, ""]))

    with open(out_dir / "fig2_meta.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        writer.writerow(["steps", cfg.distill.steps])
        writer.writerow(["n_runs", cfg.distill.n_runs])
        writer.writerow(["lr", _fmt(cfg.distill.lr)])
        writer.writerow(["omega", _fmt(cfg.distill.omega)])
        writer.writerow(["w_mode", cfg.distill.w_mode])
        writer.writerow(["optimizer", cfg.distill.optimizer])
        writer.writerow(["defaults_origin", "lab-chosen; no published reference values"])
        for name, passed in summary.checks.items():
            writer.writerow([f"check_{name}", "pass" if passed else "fail"])


def check_sdedit_schedule(cfg: ExperimentConfig) -> None:
    """ConfigError unless the schedule has a distinct level for each of the
    sweep's SDEDIT_STEPS denoising steps."""
    if cfg.schedule.t < SDEDIT_STEPS:
        raise ConfigError(f"the sdedit sweep denoises in {SDEDIT_STEPS} steps, "
                          f"so it needs schedule.t >= {SDEDIT_STEPS}, got {cfg.schedule.t}")


def run_sdedit_sweep(
    cfg: ExperimentConfig,
    d: Denoiser,
    s: NoiseSchedule,
    n_points: int = 100,
    grid: np.ndarray | None = None,
) -> list[tuple[float, float]]:
    """Mean displacement of class-1 points after partial noising/denoising,
    for each starting ratio on the grid. Returns (ratio, mean) pairs.

    The sweep denoises unconditionally (omega = 0), which isolates the
    operator's own identity decay: conditional guidance re-attracts points
    to their class core and flattens the curve. The default grid steps by
    0.1 from 0 so every ratio lands on a distinct position of the 20-step
    chain.
    """
    if grid is None:
        grid = np.arange(10) / 10.0
    class_params = cfg.class_params()
    rng = np.random.default_rng(cfg.dataset.seed + 101)
    points = np.asarray(class_params[0].mean) + class_params[0].std * rng.standard_normal(
        (n_points, 2)
    )
    rows = []
    for ratio in grid:
        edited = sdedit_batch(points, 1, float(ratio), d, SDEDIT_OMEGA, s, rng, SDEDIT_STEPS)
        rows.append((float(ratio), float(np.mean(np.linalg.norm(edited - points, axis=1)))))
    return rows


def run_roundtrip_report(
    cfg: ExperimentConfig,
    d: Denoiser,
    s: NoiseSchedule,
    sub: TimestepSubsequence,
    k: int = 50,
) -> list[tuple[int, int, float]]:
    """Invert and replay k random points; returns (index, label, abs error).

    Points are inverted one at a time, in the order their draws come from
    the generator, then replayed together.
    """
    class_params = cfg.class_params()
    rng = np.random.default_rng(cfg.dataset.seed + 202)
    labels = [1 + idx % 2 for idx in range(int(k))]
    points, seqs = [], []
    for label in labels:
        spec = class_params[label - 1]
        x0 = np.asarray(spec.mean) + spec.std * rng.standard_normal(2)
        points.append(x0)
        seqs.append(invert(x0, label, d, cfg.distill.omega, s, sub, rng))
    backs = generate_with_latents_batch(seqs, labels, d, cfg.distill.omega, s, sub)
    return [
        (idx, label, float(np.max(np.abs(back - x0))))
        for idx, (label, x0, back) in enumerate(zip(labels, points, backs))
    ]

"""Experiment drivers and the CSV writer: the two-marginal trajectory
comparison, the partial-noising sweep, and the inversion round-trip report.
Each driver takes the config, the model and its own arguments.

The trajectory comparison starts identity generators at samples of class 1
and optimizes them toward class 2 under each objective with matched seeds.
:func:`score` gives every edit, of any arm, its per-run columns:
displacement and signed distance to the class boundary (the perpendicular
bisector of the two configured class means, computed from the
configuration, never hard-coded), with a non-finite score marking the run
diverged. Every summary is a reduction in :data:`SUMMARY_COLUMNS`. Every
CSV the lab writes goes through :func:`write_csv`, every float as ``%.17g``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import count, islice
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .denoiser import POINT_DIM, ClassSpec, Denoiser
from .distill import EditProblem, TrajectoryRecord, identity_generator, optimize_batch
from .errors import ConfigError
from .latentops import check_sdedit_levels, generate_with_latents_batch, invert, sdedit_batch
from .schedule import _check_count

__all__ = [
    "Figure2Summary",
    "SUMMARY_COLUMNS",
    "boundary_frame",
    "score",
    "write_csv",
    "write_trajectory_csv",
    "run_figure2",
    "check_sdedit_schedule",
    "check_roundtrip_grid",
    "run_sdedit_sweep",
    "run_roundtrip_report",
]

SDEDIT_OMEGA = 0.0
ROUNDTRIP_TOLERANCE = 1e-8  # a round trip passes when every max abs error is below this
CSV_BLOCK_ROWS = 512  # rows per write: few writes, and a block's text stays small


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


def score(starts: np.ndarray, endpoints: np.ndarray, class_params) -> dict[str, np.ndarray]:
    """Per-run columns of the edits taking ``starts`` to ``endpoints``, both
    (n, 2): ``displacement``; ``signed_boundary_dist``, positive on the
    class-2 side (:func:`boundary_frame`); and ``diverged``, set where
    either is not finite. Every arm is scored here."""
    center, normal = boundary_frame(class_params)
    displacement = np.linalg.norm(endpoints - starts, axis=1)
    signed = (endpoints - center) @ normal
    return {"displacement": displacement, "signed_boundary_dist": signed,
            "diverged": ~(np.isfinite(displacement) & np.isfinite(signed))}


# Each fig2_summary.csv column after ``objective``: its reduction over one
# objective's run columns. All are written as %.17g, which prints a count
# as its integer.
SUMMARY_COLUMNS: dict[str, Callable[[dict[str, np.ndarray]], float | int]] = {
    "n_runs": lambda c: len(c["displacement"]),
    "mean_displacement": lambda c: float(np.mean(c["displacement"])),
    "mean_signed_boundary_dist": lambda c: float(np.mean(c["signed_boundary_dist"])),
    "mean_abs_boundary_dist": lambda c: float(np.mean(np.abs(c["signed_boundary_dist"]))),
    "frac_class2_side": lambda c: float(np.mean(c["signed_boundary_dist"] > 0)),
    "diverged_runs": lambda c: int(np.sum(c["diverged"])),
}


@dataclass
class Figure2Summary:
    """Per objective, the runs' :func:`score` columns (a diverged trajectory
    marks its run diverged) and its summary row, plus the checks."""

    columns: dict[str, dict[str, np.ndarray]]
    rows: dict[str, dict[str, float | int]]
    checks: dict[str, bool]


def _figure2_checks(rows: dict[str, dict[str, float | int]]) -> dict[str, bool]:
    """The ordering and crossing checks when all three objectives ran, then
    ``no_divergence`` over whichever objectives ran."""
    checks = {}
    if {"sds", "dds", "pds"} <= set(rows):
        for name, key in (("pds_smallest_displacement", "mean_displacement"),
                          ("pds_nearest_boundary", "mean_abs_boundary_dist")):
            checks[name] = all(rows["pds"][key] < rows[other][key] for other in ("sds", "dds"))
        for objective in ("sds", "dds"):
            checks[f"{objective}_crosses_boundary"] = rows[objective]["frac_class2_side"] >= 0.8
    checks["no_divergence"] = all(row["diverged_runs"] == 0 for row in rows.values())
    return checks


def write_csv(path, header: list[str], lines: Iterable[str]) -> None:
    """Write the header row, then ``lines`` (any iterable of each row's
    comma-joined text) in blocks of ``CSV_BLOCK_ROWS`` rows, one write per
    block, so a generator's rows are never all alive at once: UTF-8, CRLF
    line ends, no field quoted. That is ``csv.writer``'s output, because no
    field the lab writes holds a comma, quote or line break."""
    rows = iter(lines)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        while block := list(islice(rows, CSV_BLOCK_ROWS)):
            block.append("")
            fh.write("\r\n".join(block))


def _column_text(template: str, values: np.ndarray) -> list[str]:
    """Each row of ``values`` rendered by ``template``, formatted in one pass."""
    return ((template + "\n") * len(values) % tuple(values.ravel().tolist())).splitlines()


def write_trajectory_csv(record: TrajectoryRecord, path) -> list[str]:
    """One row per step: step, theta components, rendered point, grad norm.

    Every float is formatted once, a column at a time. When theta holds the
    rendered point's bytes (an identity generator), the point text fills the
    theta columns too. Returns each row's rendered point as its ``"x,y"``
    text, for callers that write the points again.
    """
    n_theta = record.theta.shape[1]
    header = ["step", *[f"theta{j}" for j in range(n_theta)], "x0_tgt_x", "x0_tgt_y", "grad_norm"]
    points = _column_text("%.17g,%.17g", record.x0_tgt)
    thetas = points  # an identity generator's theta is its point, bit for bit
    if n_theta != POINT_DIM or record.theta.tobytes() != record.x0_tgt.tobytes():
        thetas = _column_text(",".join(["%.17g"] * n_theta), record.theta)
    grad_norms = _column_text("%.17g", record.grad_norm)
    rows = zip(count(), thetas, points, grad_norms)
    write_csv(path, header, (f"{step},{theta},{point},{g}" for step, theta, point, g in rows))
    return points


def run_figure2(
    cfg: ExperimentConfig, d: Denoiser, out_dir: str | Path | None = None
) -> Figure2Summary:
    """Run the seeded trajectory comparison; optionally emit all CSVs.

    Runs share seeds across objectives, so every objective sees the same
    start points, timestep draws and noises; each step draws one sample per
    run, which all objectives of that run read. Every objective x run job
    advances in lockstep through one :func:`optimize_batch` call, with the
    same bits as running each job alone.
    """
    dist = cfg.distill
    s = cfg.build_schedule()
    sub = cfg.build_subsequence(s)
    class_params = cfg.class_params()
    starts = class_params[0].sample(np.random.default_rng(dist.base_seed), dist.n_runs)

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

    columns = {}
    for objective, recs in records.items():
        endpoints = np.array([r.endpoint for r in recs])
        cols = columns[objective] = score(starts, endpoints, class_params)
        cols["diverged"] |= np.array([r.diverged for r in recs])
    rows = {
        objective: {name: reduce(cols) for name, reduce in SUMMARY_COLUMNS.items()}
        for objective, cols in columns.items()
    }
    summary = Figure2Summary(columns, rows, _figure2_checks(rows))
    if out_dir is not None:
        _emit_figure2_files(Path(out_dir), cfg, summary, records, starts.tolist(), class_params)
    return summary


def _emit_figure2_files(out_dir, cfg, summary, records, starts, class_params) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    scored = list(next(iter(summary.columns.values())))  # score's column names
    write_csv(
        out_dir / "fig2_endpoints.csv",
        ["objective", "run", "seed", "start_x", "start_y", "endpoint_x", "endpoint_y", *scored],
        (
            ("%s,%d,%d" + ",%.17g" * (4 + len(scored))) % (
                objective, run, rec.seed, *starts[run], *rec.endpoint.tolist(), *scores
            )
            for objective, cols in summary.columns.items()
            for run, (rec, *scores) in enumerate(
                zip(records[objective], *(col.tolist() for col in cols.values()))
            )
        ),
    )
    write_csv(
        out_dir / "fig2_summary.csv",
        ["objective", *SUMMARY_COLUMNS],
        (",".join([objective, *("%.17g" % v for v in row.values())])
         for objective, row in summary.rows.items()),
    )

    write_csv(
        out_dir / "fig2_plotdata.csv",
        ["kind", "objective", "run", "step", "x", "y"],
        _plot_rows(out_dir, records, starts, class_params),
    )

    dist = cfg.distill
    meta = [
        "steps,%d" % dist.steps,
        "n_runs,%d" % dist.n_runs,
        "lr,%.17g" % dist.lr,
        "omega,%.17g" % dist.omega,
        f"w_mode,{dist.w_mode}",
        f"optimizer,{dist.optimizer}",
        "defaults_origin,lab-chosen; no published reference values",
    ]
    meta += [f"check_{name},{'pass' if ok else 'fail'}" for name, ok in summary.checks.items()]
    write_csv(out_dir / "fig2_meta.csv", ["key", "value"], meta)


def _plot_rows(out_dir, records, starts, class_params) -> Iterator[str]:
    """The ``fig2_plotdata.csv`` rows. Each ``fig2_traj_*`` file is written
    when its trajectory's rows come up, and its point text is reused for
    them, so one trajectory's text is alive at a time."""
    center, normal = boundary_frame(class_params)
    tangent = np.array([-normal[1], normal[0]])
    span = 1.5 * np.linalg.norm(
        np.asarray(class_params[1].mean) - np.asarray(class_params[0].mean)
    )
    for endpoint_sign in (-1.0, 1.0):
        yield "boundary,,,,%.17g,%.17g" % tuple(center + endpoint_sign * span * tangent)
    for run, xy in enumerate(starts):
        yield "start,,%d,,%.17g,%.17g" % (run, *xy)
    for objective, recs in records.items():
        for run, rec in enumerate(recs):
            points = write_trajectory_csv(rec, out_dir / f"fig2_traj_{objective}_{run:03d}.csv")
            prefix = f"trajectory,{objective},{run},"
            yield from (f"{prefix}{step},{point}" for step, point in enumerate(points))
            yield f"endpoint,{objective},{run},{len(points) - 1},{points[-1]}"


def check_sdedit_schedule(cfg: ExperimentConfig) -> None:
    """ConfigError unless cfg's schedule holds the sweep's chain (check_sdedit_levels)."""
    try:
        check_sdedit_levels(cfg.schedule.t)
    except ValueError as exc:
        raise ConfigError(f"schedule.t: {exc}") from None


def check_roundtrip_grid(cfg: ExperimentConfig) -> None:
    """ConfigError unless points can be inverted on the configured grid."""
    if cfg.subsequence.stride == 1:
        raise ConfigError("inversion needs sigma > 0 at the grid's first step; "
                          "subsequence.stride = 1 puts it at timestep 1, where sigma is zero")


def run_sdedit_sweep(
    cfg: ExperimentConfig, d: Denoiser, n_points: int, grid_points: int
) -> list[tuple[float, float]]:
    """Mean displacement of ``n_points`` class-1 points after partial
    noising/denoising, for each of the ``grid_points`` starting ratios
    ``arange(grid_points) / grid_points``. Returns (ratio, mean) pairs.

    The sweep denoises unconditionally (omega = 0), which isolates the
    operator's own identity decay: conditional guidance re-attracts points
    to their class core and flattens the curve. With 10 grid points the
    ratios step by 0.1 from 0, so every ratio lands on a distinct position
    of the 20-step chain. ``n_points`` >= 1 and ``grid_points`` >= 0 are counts.
    """
    n_points = _check_count(n_points, "n_points", 1)
    grid_points = _check_count(grid_points, "grid_points", 0)
    s = cfg.build_schedule()
    grid = np.arange(grid_points) / max(grid_points, 1)
    rng = np.random.default_rng(cfg.dataset.seed + 101)
    class_params = cfg.class_params()
    points = class_params[0].sample(rng, n_points)
    mean_displacement = SUMMARY_COLUMNS["mean_displacement"]
    rows = []
    for ratio in grid:
        edited = sdedit_batch(points, 1, float(ratio), d, SDEDIT_OMEGA, s, rng)
        rows.append((float(ratio), mean_displacement(score(points, edited, class_params))))
    return rows


def run_roundtrip_report(
    cfg: ExperimentConfig, d: Denoiser, rng: np.random.Generator, k: int
) -> list[tuple[int, int, float]]:
    """Invert and replay k points drawn from ``rng``, labels alternating 1, 2;
    returns (index, label, max abs error) per point.

    Each point is drawn and then inverted, one at a time, from ``rng``; the
    points are then replayed together. ``k`` is a count of at least 0.
    """
    k = _check_count(k, "k", 0)
    s = cfg.build_schedule()
    sub = cfg.build_subsequence(s)
    class_params = cfg.class_params()
    labels = 1 + np.arange(k) % 2  # an int64 array, so k = 0 gives integer labels too
    points, seqs = [], []
    for label in labels:
        x0 = class_params[label - 1].sample(rng, 1)[0]
        points.append(x0)
        seqs.append(invert(x0, label, d, cfg.distill.omega, s, sub, rng))
    backs = generate_with_latents_batch(seqs, labels, d, cfg.distill.omega, s, sub)
    return [
        (idx, label, float(np.max(np.abs(back - x0))))
        for idx, (label, x0, back) in enumerate(zip(labels.tolist(), points, backs))
    ]

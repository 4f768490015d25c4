"""Distillation gradients over parametric 2D generators.

Three objectives drive a generator g(theta) toward a target condition:

  - noise matching: residual w(t) * (eps_hat(x_t, y_tgt) - eps), the
    generation-oriented score distillation update;
  - prediction differencing: residual w(t) * (eps_hat_tgt - eps_hat_src)
    under one shared forward noise, removing the common noisy component;
  - latent matching: residual psi(i) * (x0_tgt - x0_src)
    + chi(i) * (eps_hat_tgt - eps_hat_src), the expansion of matching the
    source and target stochastic latents under shared noises.

All residuals are pulled back through the generator's exact adjoint; the
predictor's own Jacobian is deliberately omitted everywhere.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .denoiser import POINT_DIM, Denoiser, eps
from .denoiser import cfg_predict  # noqa: F401  perfbench/selftest.py reads distill.cfg_predict
from .errors import DivergenceError
from .latentops import SharedNoiseDraw, draw_shared_noise, stochastic_latent
from .optim import AdamState, adam_step
from .schedule import NoiseSchedule, TimestepSubsequence, pds_coeffs

__all__ = [
    "OBJECTIVES",
    "WEIGHT_MODES",
    "OPTIMIZERS",
    "Generator",
    "identity_generator",
    "affine_generator",
    "EditProblem",
    "TrajectoryRecord",
    "resolve_weight",
    "sds_grad",
    "dds_grad",
    "pds_grad",
    "pds_grad_latent_form",
    "optimize",
    "optimize_batch",
    "write_trajectory_csv",
]

OBJECTIVES = ("sds", "dds", "pds")
WEIGHT_MODES = ("const", "one_minus_alpha_bar")
OPTIMIZERS = ("gd", "adam")


def render_rows(kind: str, theta: np.ndarray, latent: np.ndarray | None) -> np.ndarray:
    """Rendered points (n, 2) of n generators of one kind: theta (n, p) and,
    read only by the affine kind, latent (n, 2)."""
    if kind == "identity":
        return theta.copy()
    a = theta[:, :4].reshape(-1, POINT_DIM, POINT_DIM)
    return (a @ latent.reshape(-1, POINT_DIM, 1))[:, :, 0] + theta[:, 4:6]


def pullback_rows(kind: str, latent: np.ndarray | None, cotangent: np.ndarray) -> np.ndarray:
    """Row k contracts the x0-space cotangent[k] to a gradient over theta[k]."""
    if kind == "identity":
        return cotangent.copy()
    outer = cotangent[:, :, None] * latent.reshape(-1, 1, POINT_DIM)
    return np.concatenate([outer.reshape(len(cotangent), -1), cotangent], axis=1)


@dataclass
class Generator:
    """Differentiable generator theta -> x0 with its exact adjoint.

    ``kind`` is "identity" (theta is the point) or "affine" (x0 = A @ u + b
    for a fixed latent input u, theta = [A.ravel(), b]). ``render`` and
    ``pullback`` are the one-row case of :func:`render_rows`/:func:`pullback_rows`.
    """

    kind: str
    theta: np.ndarray
    latent: np.ndarray | None = None

    def render(self) -> np.ndarray:
        return render_rows(self.kind, self.theta[None], self.latent)[0]

    def pullback(self, cotangent: np.ndarray) -> np.ndarray:
        """Contract a cotangent in x0-space to a gradient over theta."""
        v = np.asarray(cotangent, dtype=float)
        return pullback_rows(self.kind, self.latent, v[None])[0]

    def copy(self) -> "Generator":
        return Generator(
            kind=self.kind,
            theta=self.theta.copy(),
            latent=None if self.latent is None else self.latent.copy(),
        )


def identity_generator(x0: np.ndarray) -> Generator:
    return Generator(kind="identity", theta=np.asarray(x0, dtype=float).copy())


def affine_generator(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> Generator:
    theta = np.concatenate([np.asarray(a, dtype=float).ravel(), np.asarray(b, dtype=float)])
    latent = np.array(u, dtype=float)
    if theta.shape != (6,) or latent.shape != (POINT_DIM,):
        raise ValueError("affine generator needs a 2x2 matrix, a 2-vector and a 2-vector latent u")
    return Generator(kind="affine", theta=theta, latent=latent)


@dataclass
class EditProblem:
    """One editing instance: a source point/condition and a target generator."""

    x0_src: np.ndarray
    y_src: int
    gen: Generator
    y_tgt: int
    omega: float
    sub: TimestepSubsequence


@dataclass
class TrajectoryRecord:
    """Per-step log of one optimization run, one array row per step.

    Row k of ``theta`` (m, p), ``x0_tgt`` (m, 2) and ``grad_norm`` (m,) is
    the state after step k; row 0 is the start, with gradient norm 0, and
    m is 1 plus the number of completed steps.
    """

    objective_kind: str
    seed: int
    theta: np.ndarray
    x0_tgt: np.ndarray
    grad_norm: np.ndarray
    diverged: bool = False

    @property
    def endpoint(self) -> np.ndarray:
        return self.x0_tgt[-1]

    @property
    def start(self) -> np.ndarray:
        return self.x0_tgt[0]


def resolve_weight(mode: str, s: NoiseSchedule, t: int | np.ndarray) -> float | np.ndarray:
    """Weight w(t) of the noise-matching and prediction-differencing
    residuals; ``t`` may be an array of timesteps."""
    if mode == "const":
        return 1.0
    if mode == "one_minus_alpha_bar":
        return 1.0 - s.alpha_bar[t]
    raise ValueError(f"unknown weight mode {mode!r}; expected one of {WEIGHT_MODES}")


@dataclass
class _RowPlan:
    """The rows of one ``eps`` call for n objective rows: the n targets, then
    one row per source group at the group's point ``x0_src``. ``rows`` names
    the objective row each call row takes its timestep and noise from.
    Residual k subtracts row ``ref[k]`` of [eps_cur; source predictions];
    ``pds`` lists the latent-matching rows, whose sources are ``pds_x0_src``.
    """

    rows: np.ndarray
    y: np.ndarray
    x0_src: np.ndarray
    ref: np.ndarray
    pds: np.ndarray
    pds_x0_src: np.ndarray


def _row_plan(
    kind: np.ndarray, y_tgt: np.ndarray, group: np.ndarray, x0_src: np.ndarray, y_src: np.ndarray
) -> _RowPlan:
    """The plan of n rows with objectives ``kind`` and target labels
    ``y_tgt``; ``group[k]`` indexes row k's source in ``x0_src`` and
    ``y_src`` and is not read for sds rows, which have no source side."""
    n = len(kind)
    two = np.flatnonzero(kind != "sds")
    groups, first, src = np.unique(group[two], return_index=True, return_inverse=True)
    ref = np.arange(n)
    ref[two] = n + src
    pds = np.flatnonzero(kind == "pds")
    return _RowPlan(
        rows=np.concatenate([np.arange(n), two[first]]),
        y=np.concatenate([y_tgt, y_src[groups]]),
        x0_src=x0_src[groups],
        ref=ref,
        pds=pds,
        pds_x0_src=x0_src[group[pds]],
    )


def _residuals(
    d: Denoiser,
    s: NoiseSchedule,
    omega: float,
    plan: _RowPlan,
    t: np.ndarray,
    eps_cur: np.ndarray,
    x0_tgt: np.ndarray,
    spring: np.ndarray,
    scale: np.ndarray,
) -> np.ndarray:
    """Residuals of n objectives from one batch-invariant ``eps`` call.

    Row k is scale[k] * (eps_hat_tgt - ref) with ref = eps_cur for sds and
    its group's source prediction under the same noise otherwise; pds rows
    add spring[k] * (x0_tgt - x0_src). Since each prediction row is bitwise
    its batch-1 value, a row's residual does not depend on what else is in
    the batch or on which rows share its source row, and source == target
    gives exactly zero. A non-finite prediction makes its row's residual
    non-finite.
    """
    tt = t[plan.rows]
    x0 = np.concatenate([x0_tgt, plan.x0_src])
    out = eps(d, s.noised(x0, tt, eps_cur[plan.rows]), plan.y, tt, omega)
    n = len(t)
    ref = np.concatenate([eps_cur, out[n:]])[plan.ref]
    res = scale[:, None] * (out[:n] - ref)
    res[plan.pds] += spring[plan.pds, None] * (x0_tgt[plan.pds] - plan.pds_x0_src)
    return res


def _grad_one(
    prob: EditProblem, kind: str, draw: SharedNoiseDraw, d: Denoiser, s: NoiseSchedule,
    spring: float, scale: float,
) -> np.ndarray:
    """One objective's residual, through :func:`_residuals`, pulled back to theta."""
    plan = _row_plan(np.array([kind]), np.array([prob.y_tgt]), np.zeros(1, dtype=int),
                     np.asarray(prob.x0_src, dtype=float)[None, :], np.array([prob.y_src]))
    (res,) = _residuals(
        d, s, prob.omega, plan, np.array([int(prob.sub.tau[draw.i])]), draw.eps_cur[None, :],
        prob.gen.render()[None, :], np.array([spring]), np.array([scale]),
    )
    if not np.isfinite(res).all():
        raise DivergenceError("non-finite residual")
    return prob.gen.pullback(res)


def sds_grad(
    gen: Generator,
    y_tgt: int,
    draw: SharedNoiseDraw,
    d: Denoiser,
    omega: float,
    w_t: float,
    s: NoiseSchedule,
    sub: TimestepSubsequence,
) -> np.ndarray:
    """Noise-matching gradient w(t) * (eps_hat - eps) pulled back to theta."""
    # sds has no source side; the target stands in for the unread source
    prob = EditProblem(gen.render(), y_tgt, gen, y_tgt, omega, sub)
    return _grad_one(prob, "sds", draw, d, s, 0.0, w_t)


def dds_grad(
    prob: EditProblem,
    draw: SharedNoiseDraw,
    d: Denoiser,
    w_t: float,
    s: NoiseSchedule,
) -> np.ndarray:
    """Prediction-difference gradient under one shared forward noise."""
    return _grad_one(prob, "dds", draw, d, s, 0.0, w_t)


def pds_grad(
    prob: EditProblem,
    draw: SharedNoiseDraw,
    d: Denoiser,
    s: NoiseSchedule,
) -> np.ndarray:
    """Latent-matching gradient in its expanded form.

    The residual psi(i) * (x0_tgt - x0_src) + chi(i) * (eps_hat_tgt -
    eps_hat_src) never touches the predecessor-level noise: the shared
    eps_prev cancels identically when the two latents are subtracted, so
    the gradient is exactly invariant to it.
    """
    coeffs = pds_coeffs(s, prob.sub, draw.i)
    return _grad_one(prob, "pds", draw, d, s, coeffs.psi, coeffs.chi)


def pds_grad_latent_form(
    prob: EditProblem,
    draw: SharedNoiseDraw,
    d: Denoiser,
    s: NoiseSchedule,
) -> np.ndarray:
    """Latent-matching gradient as w(t) * (z_tgt - z_src); verification form."""
    x0_tgt = prob.gen.render()
    z_tgt = stochastic_latent(x0_tgt, prob.y_tgt, draw, d, prob.omega, s, prob.sub)
    z_src = stochastic_latent(prob.x0_src, prob.y_src, draw, d, prob.omega, s, prob.sub)
    w = pds_coeffs(s, prob.sub, draw.i).latent_weight
    return prob.gen.pullback(w * (z_tgt - z_src))


def optimize(
    prob: EditProblem,
    objective_kind: str,
    steps: int,
    lr: float,
    seed: int,
    d: Denoiser,
    s: NoiseSchedule,
    w_mode: str = "const",
    optimizer: str = "gd",
) -> TrajectoryRecord:
    """Run one seeded optimization of the generator under one objective.

    Each step draws a fresh shared-noise sample, evaluates the chosen
    gradient and applies one update. The record holds theta, the rendered
    point and the gradient norm after every step; a non-finite state aborts
    the run and flags the partial record. This is :func:`optimize_batch`
    with a single job.
    """
    return optimize_batch([(prob, objective_kind, seed)], steps, lr, d, s, w_mode, optimizer)[0]


@dataclass
class _KindBlock:
    """Live jobs of one generator kind: indices, thetas (n, p), latents, Adam moments."""

    kind: str
    ids: np.ndarray
    theta: np.ndarray
    latent: np.ndarray | None
    adam: AdamState | None

    def keep(self, ok: np.ndarray) -> None:
        self.ids, self.theta = self.ids[ok], self.theta[ok]
        self.latent = None if self.latent is None else self.latent[ok]
        if self.adam is not None:
            self.adam.m, self.adam.v = self.adam.m[ok], self.adam.v[ok]


def optimize_batch(
    jobs: Iterable[tuple[EditProblem, str, int]],
    steps: int,
    lr: float,
    d: Denoiser,
    s: NoiseSchedule,
    w_mode: str = "const",
    optimizer: str = "gd",
) -> list[TrajectoryRecord]:
    """Run seeded optimizations in lockstep; one record per job, in order.

    Each job is ``(EditProblem, objective, seed)`` and advances exactly as
    :func:`optimize` would run it alone: every step draws each live job's
    shared-noise sample from a generator seeded with its seed, then one
    batch-invariant ``eps`` call evaluates the target and source rows of all
    live jobs. A draw reads only the seed's stream and the grid's sampling
    range, so jobs with the same seed and range share one generator, which
    draws once per step while any of them is live. A source prediction
    reads only the draw, the grid, the source point and its label, so dds
    and pds jobs that agree on all four share one source row. Thetas and
    Adam moments are stacked per generator kind and updated with one array
    operation per kind and step. A job whose predictions or parameters go
    non-finite is dropped from the stacks and flagged, and its record (a
    slice of a shared history block) is cut to its last finite row; the
    other jobs' bits do not change. What a step gathers of the live jobs is
    rebuilt only when one drops. The jobs must share one guidance weight
    omega.
    """
    jobs = list(jobs)
    for _, objective, _ in jobs:
        if objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}; expected one of {OPTIMIZERS}")
    if w_mode not in WEIGHT_MODES:
        raise ValueError(f"unknown w_mode {w_mode!r}; expected one of {WEIGHT_MODES}")
    if not isinstance(steps, numbers.Integral) or steps < 0:
        raise ValueError(f"steps must be a non-negative integer, got {steps!r}")
    if not (lr > 0 and math.isfinite(lr)):
        raise ValueError(f"lr must be positive and finite, got {lr!r}")
    omegas = {prob.omega for prob, _, _ in jobs}
    if len(omegas) > 1:
        raise ValueError(f"jobs must share one omega, got {sorted(omegas)}")
    if not jobs:
        return []
    (omega,) = omegas

    n_rows = int(steps) + 1
    x0_hist = np.empty((len(jobs), n_rows, POINT_DIM))
    norm_hist = np.zeros((len(jobs), n_rows))
    kept = np.full(len(jobs), n_rows)  # rows each record keeps
    gen_kind = np.array([prob.gen.kind for prob, _, _ in jobs])
    theta_hist, blocks = {}, []  # per kind, (jobs, steps + 1, p); its jobs' rows are written
    for g in dict.fromkeys(gen_kind.tolist()):
        ids = np.flatnonzero(gen_kind == g)
        theta = np.array([jobs[j][0].gen.theta for j in ids], dtype=float)
        latent = None if g == "identity" else np.array([jobs[j][0].gen.latent for j in ids])
        adam = AdamState.for_params(theta) if optimizer == "adam" else None
        blocks.append(_KindBlock(g, ids, theta, latent, adam))
        theta_hist[g] = np.empty((len(jobs), n_rows, theta.shape[1]))
        theta_hist[g][ids, 0] = theta
        x0_hist[ids, 0] = render_rows(g, theta, latent)

    # one generator per distinct (seed, sampling range); its draw serves every job on it
    job_keys = [(int(seed), prob.sub.lo_index, prob.sub.hi_index) for prob, _, seed in jobs]
    subs = {key: prob.sub for key, (prob, _, _) in zip(job_keys, jobs)}  # draws read lo/hi only
    number = {key: g for g, key in enumerate(subs)}
    stream = np.array([number[key] for key in job_keys])
    stream_subs = list(subs.values())
    rngs = [np.random.default_rng(seed) for seed, _, _ in subs]

    # every job's grid tables end to end, so one gather reads all live jobs
    grids = {id(prob.sub): prob.sub for prob, _, _ in jobs}
    starts = np.cumsum([0] + [len(sub.tau) for sub in grids.values()])
    base = dict(zip(grids, starts.tolist()))
    offset = np.array([base[id(prob.sub)] for prob, _, _ in jobs])
    tau = np.concatenate([sub.tau for sub in grids.values()])
    psi = np.concatenate([sub.psi for sub in grids.values()])
    chi = np.concatenate([sub.chi for sub in grids.values()])

    kind = np.array([objective for _, objective, _ in jobs])
    y_tgt = np.array([prob.y_tgt for prob, _, _ in jobs])
    y_src = np.array([prob.y_src for prob, _, _ in jobs])
    x0_src = np.array([prob.x0_src for prob, _, _ in jobs], dtype=float)
    # jobs with one stream, grid, source point and source label read one
    # source prediction; the first such job numbers their group
    first = {}
    keys = zip(stream.tolist(), offset.tolist(), (x.tobytes() for x in x0_src), y_src.tolist())
    group = np.array([first.setdefault(key, j) for j, key in enumerate(keys)])

    plan = None  # with the gathers built beside it, rebuilt only when a job drops
    for k in range(1, n_rows):
        if plan is None:
            blocks = [block for block in blocks if block.ids.size]
            if not blocks:
                break
            # rows grouped by generator kind; eps is batch-invariant, so row order is free
            live = np.concatenate([block.ids for block in blocks])
            live_streams, row_stream = np.unique(stream[live], return_inverse=True)
            draws = [(stream_subs[g], rngs[g]) for g in live_streams.tolist()]
            row_offset, is_pds = offset[live], kind[live] == "pds"
            plan = _row_plan(kind[live], y_tgt[live], group[live], x0_src, y_src)
            splits = np.cumsum([block.ids.size for block in blocks])[:-1]
        drawn = [draw_shared_noise(sub, rng) for sub, rng in draws]
        at = row_offset + np.array([i for i, _ in drawn])[row_stream]
        t = tau[at]
        res = _residuals(
            d, s, omega, plan, t, np.array([noise[1] for _, noise in drawn])[row_stream],
            x0_hist[live, k - 1], psi[at], np.where(is_pds, chi[at], resolve_weight(w_mode, s, t)),
        )
        for block, part in zip(blocks, np.split(res, splits)):
            grad = pullback_rows(block.kind, block.latent, part)
            if block.adam is not None:
                adam_step(block.theta, grad, block.adam, lr)
            else:
                block.theta -= lr * grad
            # a non-finite residual always leaves theta non-finite
            ok = np.isfinite(block.theta).all(axis=1)
            if not ok.all():
                kept[block.ids[~ok]] = k
                block.keep(ok)
                grad = grad[ok]
                plan = None
            theta_hist[block.kind][block.ids, k] = block.theta
            x0_hist[block.ids, k] = render_rows(block.kind, block.theta, block.latent)
            # np.linalg.norm's own arithmetic, one dot product per row
            norm_hist[block.ids, k] = np.sqrt((grad[:, None, :] @ grad[:, :, None])[:, 0, 0])
    return [
        TrajectoryRecord(objective, int(seed), theta_hist[gen_kind[j]][j, :m],
                         x0_hist[j, :m], norm_hist[j, :m], diverged=bool(m < n_rows))
        for j, ((_, objective, seed), m) in enumerate(zip(jobs, kept.tolist()))
    ]


def write_trajectory_csv(record: TrajectoryRecord, path) -> list[str]:
    """One row per step: step, theta components, rendered point, grad norm.

    Every float is formatted once with ``%.17g`` and the file is written at
    once; the bytes are those of ``csv.writer`` with every float as
    ``f"{v:.17g}"``. When theta holds the rendered point's bytes (an
    identity generator), the point text fills the theta columns too.
    Returns each row's rendered point as its ``"x,y"`` text, for callers
    that write the points again.
    """
    n_theta = record.theta.shape[1]
    header = ",".join(
        ["step", *[f"theta{j}" for j in range(n_theta)], "x0_tgt_x", "x0_tgt_y", "grad_norm"]
    )
    points = ["%.17g,%.17g" % (x, y) for x, y in record.x0_tgt.tolist()]
    thetas = points  # an identity generator's theta is its point, bit for bit
    if n_theta != POINT_DIM or record.theta.tobytes() != record.x0_tgt.tobytes():
        template = ",".join(["%.17g"] * n_theta)
        thetas = [template % tuple(theta) for theta in record.theta.tolist()]
    rows = zip(range(len(points)), thetas, points, record.grad_norm.tolist())
    lines = ["%d,%s,%s,%.17g" % row for row in rows]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([header, *lines, ""]))
    return points

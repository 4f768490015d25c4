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
``objective_grad`` is one objective's gradient for one shared-noise draw
``(i, noise)``; ``optimize_batch`` applies that gradient to seeded jobs in
lockstep, and ``pds_grad_latent_form`` is the latent-difference form that
pds is checked against. The module does no file I/O: trajectories are
written by ``experiments.write_trajectory_csv``.
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
from .latentops import draw_shared_noise, stochastic_latents
from .optim import AdamState, adam_step
from .schedule import NoiseSchedule, TimestepSubsequence

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
    "objective_grad",
    "pds_grad_latent_form",
    "optimize_batch",
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


def objective_grad(prob: EditProblem, objective: str, draw: tuple[int, np.ndarray], d: Denoiser,
                   s: NoiseSchedule, w_mode: str = "const") -> np.ndarray:
    """Gradient over theta of one objective for one draw ``(i, noise)``: the
    residual :func:`optimize_batch` applies (weight ``resolve_weight(w_mode)``
    for sds and dds, the grid's psi(i) and chi(i) for pds), pulled back. No
    residual reads eps_prev (``noise[0]``): for pds it cancels identically in
    z_tgt - z_src. ValueError for an unknown objective or weight mode or an
    index outside the sampling range; DivergenceError for a non-finite residual.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    i, noise = draw
    sub = prob.sub
    _check_sampled(sub, i)
    t = int(sub.tau[i])
    w = resolve_weight(w_mode, s, t)  # read for every objective, so a bad mode always fails
    scale = sub.chi[i] if objective == "pds" else w
    plan = _row_plan(np.array([objective]), np.array([prob.y_tgt]), np.zeros(1, dtype=int),
                     np.asarray(prob.x0_src, dtype=float)[None, :], np.array([prob.y_src]))
    (res,) = _residuals(d, s, prob.omega, plan, np.array([t]), noise[1:],
                        prob.gen.render()[None, :], sub.psi[i : i + 1], np.array([scale]))
    if not np.isfinite(res).all():
        raise DivergenceError("non-finite residual")
    return prob.gen.pullback(res)


def pds_grad_latent_form(prob: EditProblem, draw: tuple[int, np.ndarray], d: Denoiser,
                         s: NoiseSchedule) -> np.ndarray:
    """Latent-matching gradient as w(t) * (z_tgt - z_src) for one draw
    ``(i, noise)``; the verification form of pds's :func:`objective_grad`.
    ValueError for an index outside the sampling range."""
    i, noise = draw
    _check_sampled(prob.sub, i)
    z_tgt, z_src = (
        stochastic_latents(x0, y, np.array([i]), noise[:1], noise[1:], d, prob.omega, s, prob.sub)[0]
        for x0, y in ((prob.gen.render(), prob.y_tgt), (prob.x0_src, prob.y_src))
    )
    return prob.gen.pullback(prob.sub.latent_weight[i] * (z_tgt - z_src))


def _check_sampled(sub: TimestepSubsequence, i: int) -> None:
    if not sub.lo_index <= i <= sub.hi_index:
        raise ValueError(f"index {i} outside the sampling range [{sub.lo_index}, {sub.hi_index}]")


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
    it would alone, in a batch of one: every step draws each live job's
    shared-noise sample from a generator seeded with its seed, then one
    batch-invariant ``eps`` call evaluates the target and source rows of all
    live jobs; a job's update is lr times its :func:`objective_grad` for
    that draw (or its Adam step). A draw reads only the seed's stream and the grid's sampling
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


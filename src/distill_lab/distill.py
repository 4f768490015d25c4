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

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .denoiser import (POINT_DIM, Denoiser, LabelPlan, _as_point, _check_omega, _check_positive,
                       _labels, eps)
from .denoiser import cfg_predict  # noqa: F401  perfbench/selftest.py reads distill.cfg_predict
from .errors import DivergenceError
from .latentops import draw_shared_noise, stochastic_latents
from .optim import AdamState, adam_step
from .schedule import NoiseSchedule, TimestepSubsequence, _check_count, _check_integers

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
    "check_settings",
    "objective_grad",
    "pds_grad_latent_form",
    "optimize_batch",
]

OBJECTIVES = ("sds", "dds", "pds")
_WEIGHTS = {"const": lambda s, t: 1.0, "one_minus_alpha_bar": lambda s, t: 1.0 - s.alpha_bar[t]}
WEIGHT_MODES = tuple(_WEIGHTS)
OPTIMIZERS = ("gd", "adam")


@dataclass
class Generator:
    """Linear generator x0 = matrix @ theta, theta (p,) and matrix (2, p),
    with its exact adjoint r -> r @ matrix. Both are stored as float arrays;
    a float array is kept, not copied."""

    theta: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.theta.ndim != 1 or self.matrix.shape != (POINT_DIM, self.theta.size):
            raise ValueError(f"generator needs a (p,) theta and a ({POINT_DIM}, p) matrix, "
                             f"got {self.theta.shape} and {self.matrix.shape}")

    def render(self) -> np.ndarray:
        return self.matrix @ self.theta

    def pullback(self, cotangent: np.ndarray) -> np.ndarray:
        """Contract a cotangent in x0-space to a gradient over theta."""
        return _as_point(cotangent, "cotangent") @ self.matrix


def identity_generator(x0: np.ndarray) -> Generator:
    return Generator(np.array(x0, dtype=float), np.eye(POINT_DIM))


def affine_generator(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> Generator:
    """x0 = A @ u + b for a fixed latent input u, theta = [A.ravel(), b]."""
    u = _as_point(u, "latent u")
    theta = np.concatenate([np.asarray(a, dtype=float).ravel(), np.asarray(b, dtype=float)])
    return Generator(theta, np.hstack([np.kron(np.eye(POINT_DIM), u), np.eye(POINT_DIM)]))


@dataclass
class EditProblem:
    """One editing instance: a source point/condition and a target generator.
    ``x0_src`` is stored as a float array and both labels as ints; ValueError
    unless it is a 2-vector, each label is one integer in 0 (null) ..
    NUM_CLASSES and omega is a finite real."""

    x0_src: np.ndarray
    y_src: int
    gen: Generator
    y_tgt: int
    omega: float
    sub: TimestepSubsequence

    def __post_init__(self):
        self.x0_src = _as_point(self.x0_src, "x0_src")
        for name in ("y_src", "y_tgt"):
            y = _labels(getattr(self, name), name)
            if y.ndim:
                raise ValueError(f"{name} must be one label (0-d), got shape {y.shape}")
            setattr(self, name, int(y))
        _check_omega(self.omega)


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


def resolve_weight(mode: str, s: NoiseSchedule, t: int | np.ndarray) -> float | np.ndarray:
    """Weight w(t) of the noise-matching and prediction-differencing
    residuals; ``t`` may be an array of timesteps."""
    _known(mode, WEIGHT_MODES, "w_mode")
    return _WEIGHTS[mode](s, t)


def _known(name, names: tuple[str, ...], what: str) -> None:
    if name not in names:
        raise ValueError(f"unknown {what} {name!r}; expected one of {names}")


@dataclass
class _RowPlan:
    """The rows of one ``eps`` call for n jobs: the n targets, then one row
    per source group at the group's point. ``x0`` holds the call rows' clean
    points; the caller writes the targets into ``x0[:n]``, the sources are
    written once. Call row r reads its timestep and noise from the draw of
    stream ``stream[r]``, at offset ``offset[r]`` in the grid tables ``tau``,
    ``psi`` and ``chi``; stream g draws from the grid and seed ``draws[g]``.
    Residual k subtracts row ``ref[k]`` of [eps_cur; source predictions];
    ``pds`` lists the latent-matching rows, whose source point is
    ``x0[ref[k]]``.
    """

    labels: LabelPlan
    x0: np.ndarray
    stream: np.ndarray
    offset: np.ndarray
    tau: np.ndarray
    psi: np.ndarray
    chi: np.ndarray
    ref: np.ndarray
    pds: np.ndarray
    draws: list[tuple[TimestepSubsequence, int]]


def _row_plan(jobs: list[tuple[EditProblem, str, int]]) -> _RowPlan:
    """The plan of the jobs ``(EditProblem, objective, seed)``, job k on
    target row k. Jobs with the same seed and sampling range read one draw
    stream; dds and pds jobs that also share the grid, the source point and
    its label read one source row. sds jobs have no source side."""
    n, probs = len(jobs), [prob for prob, _, _ in jobs]
    keys = [(seed, prob.sub.lo_index, prob.sub.hi_index) for prob, _, seed in jobs]
    streams = {key: prob.sub for key, prob in zip(keys, probs)}  # draws read lo/hi only
    number = {key: g for g, key in enumerate(streams)}
    stream = np.array([number[key] for key in keys])
    # every job's grid tables end to end, so one gather reads all jobs
    grids = {id(prob.sub): prob.sub for prob in probs}
    starts = np.cumsum([0] + [len(sub.tau) for sub in grids.values()])
    base = dict(zip(grids, starts.tolist()))
    offset = np.array([base[id(prob.sub)] for prob in probs])
    tau, psi, chi = (np.concatenate([getattr(sub, name) for sub in grids.values()])
                     for name in ("tau", "psi", "chi"))
    kind = np.array([objective for _, objective, _ in jobs])
    y_src = np.array([prob.y_src for prob in probs])
    x0_src = np.array([prob.x0_src for prob in probs], dtype=float)
    two = np.flatnonzero(kind != "sds")
    lead = {}  # source key -> the first job of its group, which numbers the group
    src_keys = zip(stream[two].tolist(), offset[two].tolist(),
                   (x.tobytes() for x in x0_src[two]), y_src[two].tolist())
    group = [lead.setdefault(key, j) for j, key in zip(two.tolist(), src_keys)]
    sources = np.array(list(lead.values()), dtype=int)
    ref = np.arange(n)
    ref[two] = n + np.searchsorted(sources, group)
    rows = np.concatenate([np.arange(n), sources])
    y = np.concatenate([[prob.y_tgt for prob in probs], y_src[sources]])
    x0 = np.concatenate([np.empty((n, POINT_DIM)), x0_src[sources]])
    return _RowPlan(
        labels=LabelPlan(y, len(rows)), x0=x0, stream=stream[rows], offset=offset[rows],
        tau=tau, psi=psi, chi=chi, ref=ref, pds=np.flatnonzero(kind == "pds"),
        draws=[(sub, seed) for (seed, _, _), sub in streams.items()],
    )


def _residuals(
    d: Denoiser,
    s: NoiseSchedule,
    omega: float,
    w_mode: str,
    plan: _RowPlan,
    i: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """Residuals of the plan's n objective rows from one batch-invariant
    ``eps`` call, stream g drawing grid index ``i[g]`` and noise eps_cur
    ``noise[g]``; the targets are the rows ``plan.x0[:n]``.

    Row k is scale[k] * (eps_hat_tgt - ref) with ref = eps_cur for sds and
    its group's source prediction under the same noise otherwise; scale is
    chi(i) for pds and ``resolve_weight(w_mode)`` otherwise, and pds rows add
    psi(i) * (x0_tgt - x0_src). Since each prediction row is bitwise its
    batch-1 value, a row's residual does not depend on what else is in the
    batch or on which rows share its source row, and source == target gives
    exactly zero. A non-finite prediction makes its row's residual non-finite.
    """
    n = len(plan.ref)
    at = plan.offset + i[plan.stream]
    t = plan.tau[at]
    refs = noise[plan.stream]
    out = eps(d, s.noised(plan.x0, t, refs), plan.labels, t, omega)
    refs[n:] = out[n:]  # [eps_cur; source predictions], the rows ref reads
    at, t = at[:n], t[:n]
    pds = plan.pds
    scale = np.full(n, resolve_weight(w_mode, s, t))
    scale[pds] = plan.chi[at[pds]]
    res = scale[:, None] * (out[:n] - refs[plan.ref])
    res[pds] += plan.psi[at[pds], None] * (plan.x0[pds] - plan.x0[plan.ref[pds]])
    return res


def objective_grad(prob: EditProblem, objective: str, draw: tuple[int, np.ndarray], d: Denoiser,
                   s: NoiseSchedule, w_mode: str = "const") -> np.ndarray:
    """Gradient over theta of one objective for one draw ``(i, noise)``: the
    residual :func:`optimize_batch` applies (weight ``resolve_weight(w_mode)``
    for sds and dds, the grid's psi(i) and chi(i) for pds), pulled back. No
    residual reads eps_prev (``noise[0]``): for pds it cancels identically in
    z_tgt - z_src. ValueError for an unknown objective or weight mode or a
    draw :func:`_check_draw` rejects; DivergenceError for a non-finite residual.
    """
    _known(objective, OBJECTIVES, "objective")
    i, noise = _check_draw(prob.sub, draw)
    plan = _row_plan([(prob, objective, 0)])  # the draw is given: seed 0 is not read
    plan.x0[0] = prob.gen.render()
    (res,) = _residuals(d, s, prob.omega, w_mode, plan, np.array([i]), noise[1:])
    if not np.isfinite(res).all():
        raise DivergenceError("non-finite residual")
    return prob.gen.pullback(res)


def pds_grad_latent_form(prob: EditProblem, draw: tuple[int, np.ndarray], d: Denoiser,
                         s: NoiseSchedule) -> np.ndarray:
    """Latent-matching gradient as w(t) * (z_tgt - z_src) for one draw
    ``(i, noise)``; the verification form of pds's :func:`objective_grad`.
    ValueError for a draw :func:`_check_draw` rejects."""
    i, noise = _check_draw(prob.sub, draw)
    z_tgt, z_src = (
        stochastic_latents(x0, y, np.array([i]), noise[:1], noise[1:], d, prob.omega, s, prob.sub)[0]
        for x0, y in ((prob.gen.render(), prob.y_tgt), (prob.x0_src, prob.y_src))
    )
    return prob.gen.pullback(prob.sub.latent_weight[i] * (z_tgt - z_src))


def _check_draw(sub: TimestepSubsequence, draw) -> tuple[int, np.ndarray]:
    """The draw ``(i, noise)`` with noise as floats; ValueError unless i is an
    integer in the sampling range and noise has shape (2, 2)."""
    i, noise = draw
    noise = np.asarray(noise, dtype=float)
    _check_integers(i, "draw index")
    if np.ndim(i) or not sub.lo_index <= i <= sub.hi_index:
        raise ValueError(f"index {i} outside the sampling range [{sub.lo_index}, {sub.hi_index}]")
    if noise.shape != (2, POINT_DIM):
        raise ValueError(f"draw noise has shape {noise.shape}, expected (2, {POINT_DIM})")
    return i, noise


def check_settings(
    objectives: Iterable[str], steps: int, lr: float, w_mode: str, optimizer: str
) -> int:
    """``steps`` as an int; ValueError unless every objective, the weight mode
    and the optimizer are known, ``steps`` is a count (``steps must be >= 0,
    got -1``) and ``lr`` a positive real (``lr must be a positive finite
    real, got nan``): the settings every :func:`optimize_batch` run must have."""
    for objective in objectives:
        _known(objective, OBJECTIVES, "objective")
    _known(optimizer, OPTIMIZERS, "optimizer")
    _known(w_mode, WEIGHT_MODES, "w_mode")
    _check_positive(lr, "lr")
    return _check_count(steps, "steps", 0)


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
    it would alone: every step draws each job's shared-noise sample from a
    generator seeded with its seed, then one batch-invariant ``eps`` call
    evaluates the target and source rows of all jobs, planned once per call
    by the planner :func:`objective_grad` uses; a job's update is lr times
    its gradient for that draw (or its Adam step). Jobs with the same seed
    and sampling range share one generator, which draws once per step; dds
    and pds jobs that also share the grid, the source point and its label
    share one source row. The jobs' thetas, matrices and Adam moments form
    one block, zero-padded to the widest theta (a padded column has zero
    gradient, so it stays exactly 0), and each step renders, pulls back and
    updates all jobs with one array operation each; records are slices of
    one shared history block. A job whose predictions or parameters go
    non-finite is flagged and its record is cut to its last finite row; its
    row stays in the batch, held at NaN (which raises no floating-point
    signal), until every job is flagged or the run ends, and the other
    jobs' bits do not change. The jobs must share one omega.
    """
    jobs = [(prob, objective, _check_count(seed, "job seed", 0)) for prob, objective, seed in jobs]
    steps = check_settings([objective for _, objective, _ in jobs], steps, lr, w_mode, optimizer)
    omegas = {prob.omega for prob, _, _ in jobs}
    if len(omegas) > 1:
        raise ValueError(f"jobs must share one omega, got {sorted(omegas)}")
    if not jobs:
        return []
    (omega,) = omegas

    n, n_rows = len(jobs), steps + 1
    width = [prob.gen.theta.size for prob, _, _ in jobs]
    theta, mat = np.zeros((n, max(width))), np.zeros((n, POINT_DIM, max(width)))
    for j, (prob, _, _) in enumerate(jobs):
        theta[j, : width[j]], mat[j, :, : width[j]] = prob.gen.theta, prob.gen.matrix
    adam = AdamState.for_params(theta) if optimizer == "adam" else None
    plan = _row_plan(jobs)
    theta_hist, x0_hist = np.empty((n, n_rows, theta.shape[1])), np.empty((n, n_rows, POINT_DIM))
    norm_hist = np.zeros((n, n_rows))
    kept = np.full(n, n_rows)  # rows each record keeps
    theta_hist[:, 0] = theta
    x0_hist[:, 0] = plan.x0[:n] = (mat @ theta[..., None])[..., 0]

    draws = [(sub, np.random.default_rng(seed)) for sub, seed in plan.draws]
    i, noise = np.empty(len(draws), dtype=np.int64), np.empty((len(draws), POINT_DIM))
    for k in range(1, n_rows):
        for g, (sub, rng) in enumerate(draws):
            i[g], pair = draw_shared_noise(sub, rng)
            noise[g] = pair[1]  # eps_cur; no residual reads eps_prev
        res = _residuals(d, s, omega, w_mode, plan, i, noise)
        grad = (res[:, None, :] @ mat)[:, 0, :]
        if adam is not None:
            adam_step(theta, grad, adam, lr)
        else:
            theta -= lr * grad
        # a non-finite residual always leaves theta non-finite; a flagged
        # row is held at NaN, whose arithmetic raises no signal
        ok = np.isfinite(theta).all(axis=1)
        if not ok.all():
            kept[~ok] = np.minimum(kept[~ok], k)
            theta[~ok] = grad[~ok] = np.nan
        theta_hist[:, k] = theta
        x0_hist[:, k] = plan.x0[:n] = (mat @ theta[..., None])[..., 0]
        # np.linalg.norm's own arithmetic, one dot product per row
        norm_hist[:, k] = np.sqrt((grad[:, None, :] @ grad[:, :, None])[:, 0, 0])
        if kept.max() < n_rows:
            break
    return [
        TrajectoryRecord(objective, seed, theta_hist[j, :m, : width[j]],
                         x0_hist[j, :m], norm_hist[j, :m], diverged=bool(m < n_rows))
        for j, ((_, objective, seed), m) in enumerate(zip(jobs, kept.tolist()))
    ]

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

import csv
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .denoiser import POINT_DIM, Denoiser, eps
from .denoiser import cfg_predict  # noqa: F401  perfbench/selftest.py reads distill.cfg_predict
from .errors import DivergenceError
from .latentops import SharedNoiseDraw, sample_shared_noise, stochastic_latent
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
    "TrajectoryStep",
    "TrajectoryRecord",
    "resolve_weight",
    "sds_grad",
    "dds_grad",
    "pds_grad",
    "pds_grad_latent_form",
    "pds_objective",
    "optimize",
    "optimize_batch",
    "write_trajectory_csv",
]

OBJECTIVES = ("sds", "dds", "pds")
WEIGHT_MODES = ("const", "one_minus_alpha_bar")
OPTIMIZERS = ("gd", "adam")


@dataclass
class Generator:
    """Differentiable generator theta -> x0 with its exact adjoint.

    ``kind`` is "identity" (theta is the point) or "affine"
    (x0 = A @ u + b for a fixed latent input u, theta = [A.ravel(), b]).
    """

    kind: str
    theta: np.ndarray
    latent: np.ndarray | None = None

    def render(self) -> np.ndarray:
        if self.kind == "identity":
            return self.theta.copy()
        a = self.theta[:4].reshape(POINT_DIM, POINT_DIM)
        return a @ self.latent + self.theta[4:6]

    def pullback(self, cotangent: np.ndarray) -> np.ndarray:
        """Contract a cotangent in x0-space to a gradient over theta."""
        v = np.asarray(cotangent, dtype=float)
        if self.kind == "identity":
            return v.copy()
        return np.concatenate([np.outer(v, self.latent).ravel(), v])

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
    if theta.shape != (6,):
        raise ValueError("affine generator needs a 2x2 matrix and a 2-vector")
    return Generator(kind="affine", theta=theta, latent=np.asarray(u, dtype=float).copy())


@dataclass
class EditProblem:
    """One editing instance: a source point/condition and a target generator."""

    x0_src: np.ndarray
    y_src: int
    gen: Generator
    y_tgt: int
    omega: float
    sub: TimestepSubsequence


@dataclass(frozen=True)
class TrajectoryStep:
    step: int
    theta: np.ndarray
    x0_tgt: np.ndarray
    grad_norm: float


@dataclass
class TrajectoryRecord:
    """Per-step log of one optimization run."""

    objective_kind: str
    seed: int
    steps: list[TrajectoryStep] = field(default_factory=list)
    diverged: bool = False

    @property
    def endpoint(self) -> np.ndarray:
        return self.steps[-1].x0_tgt

    @property
    def start(self) -> np.ndarray:
        return self.steps[0].x0_tgt


def resolve_weight(mode: str, s: NoiseSchedule, t: int | np.ndarray) -> float | np.ndarray:
    """Weight w(t) of the noise-matching and prediction-differencing
    residuals; ``t`` may be an array of timesteps."""
    if mode == "const":
        return 1.0
    if mode == "one_minus_alpha_bar":
        return 1.0 - s.alpha_bar[t]
    raise ValueError(f"unknown weight mode {mode!r}; expected one of {WEIGHT_MODES}")


def _residuals(
    d: Denoiser,
    s: NoiseSchedule,
    omega: float,
    kind: np.ndarray,
    t: np.ndarray,
    eps_cur: np.ndarray,
    x0_tgt: np.ndarray,
    y_tgt: np.ndarray,
    x0_src: np.ndarray,
    y_src: np.ndarray,
    spring: np.ndarray,
    scale: np.ndarray,
) -> np.ndarray:
    """Residuals of n objectives from one batch-invariant ``eps`` call.

    Row k is scale[k] * (eps_hat_tgt - ref) with ref = eps_cur for sds and
    the source prediction under the same noise otherwise; pds rows add
    spring[k] * (x0_tgt - x0_src). The source point and label are read only
    for dds and pds rows. Since each prediction row is bitwise its batch-1
    value, a row's residual does not depend on what else is in the batch,
    and source == target gives exactly zero. A non-finite prediction makes
    its row's residual non-finite.
    """
    two = kind != "sds"
    t2 = t[two]
    x_t_tgt = s.sqrt_ab[t, None] * x0_tgt + s.sqrt_1m_ab[t, None] * eps_cur
    x_t_src = s.sqrt_ab[t2, None] * x0_src[two] + s.sqrt_1m_ab[t2, None] * eps_cur[two]
    out = eps(
        d,
        np.concatenate([x_t_tgt, x_t_src]),
        np.concatenate([y_tgt, y_src[two]]),
        np.concatenate([t, t2]),
        omega,
    )
    n = len(t)
    ref = eps_cur.copy()
    ref[two] = out[n:]
    res = scale[:, None] * (out[:n] - ref)
    pds = kind == "pds"
    res[pds] += spring[pds, None] * (x0_tgt[pds] - x0_src[pds])
    return res


def _grad_one(
    d: Denoiser,
    s: NoiseSchedule,
    omega: float,
    kind: str,
    gen: Generator,
    y_tgt: int,
    x0_src: np.ndarray,
    y_src: int,
    draw: SharedNoiseDraw,
    t: int,
    spring: float,
    scale: float,
) -> np.ndarray:
    """One objective's residual, through :func:`_residuals`, pulled back to theta."""
    (res,) = _residuals(
        d, s, omega, np.array([kind]), np.array([t]), draw.eps_cur[None, :],
        gen.render()[None, :], np.array([y_tgt]), np.asarray(x0_src, dtype=float)[None, :],
        np.array([y_src]), np.array([spring]), np.array([scale]),
    )
    if not np.isfinite(res).all():
        raise DivergenceError("non-finite residual")
    return gen.pullback(res)


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
    t = int(sub.tau[draw.i])
    # sds has no source side; the target stands in for the unread source
    return _grad_one(d, s, omega, "sds", gen, y_tgt, gen.render(), y_tgt, draw, t, 0.0, w_t)


def dds_grad(
    prob: EditProblem,
    draw: SharedNoiseDraw,
    d: Denoiser,
    w_t: float,
    s: NoiseSchedule,
) -> np.ndarray:
    """Prediction-difference gradient under one shared forward noise."""
    t = int(prob.sub.tau[draw.i])
    return _grad_one(
        d, s, prob.omega, "dds", prob.gen, prob.y_tgt, prob.x0_src, prob.y_src, draw, t, 0.0, w_t
    )


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
    t = int(prob.sub.tau[draw.i])
    return _grad_one(
        d, s, prob.omega, "pds", prob.gen, prob.y_tgt, prob.x0_src, prob.y_src, draw, t,
        coeffs.psi, coeffs.chi,
    )


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


def pds_objective(
    prob: EditProblem,
    draw: SharedNoiseDraw,
    d: Denoiser,
    s: NoiseSchedule,
) -> float:
    """Squared latent mismatch ||z_tgt - z_src||^2 for one draw."""
    x0_tgt = prob.gen.render()
    z_tgt = stochastic_latent(x0_tgt, prob.y_tgt, draw, d, prob.omega, s, prob.sub)
    z_src = stochastic_latent(prob.x0_src, prob.y_src, draw, d, prob.omega, s, prob.sub)
    diff = z_tgt - z_src
    return float(diff @ diff)


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
class _Run:
    """Working state of one job of :func:`optimize_batch`."""

    gen: Generator
    rng: np.random.Generator
    record: TrajectoryRecord
    x0: np.ndarray
    adam: AdamState | None


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
    shared-noise sample from that job's own generator seeded with its seed,
    then one batch-invariant ``eps`` call evaluates the target and source
    rows of all live jobs. A job whose predictions or parameters go
    non-finite is flagged and takes no further steps; the other jobs' bits
    do not change. The jobs must share one guidance weight omega.
    """
    jobs = list(jobs)
    for _, objective, _ in jobs:
        if objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}; expected one of {OPTIMIZERS}")
    omegas = {prob.omega for prob, _, _ in jobs}
    if len(omegas) > 1:
        raise ValueError(f"jobs must share one omega, got {sorted(omegas)}")
    if not jobs:
        return []
    (omega,) = omegas

    runs = []
    for prob, objective, seed in jobs:
        gen = prob.gen.copy()
        x0 = gen.render()
        record = TrajectoryRecord(objective_kind=objective, seed=int(seed))
        record.steps.append(
            TrajectoryStep(step=0, theta=gen.theta.copy(), x0_tgt=x0, grad_norm=0.0)
        )
        adam = AdamState.for_params(gen.theta) if optimizer == "adam" else None
        runs.append(_Run(gen, np.random.default_rng(seed), record, x0, adam))
    kind = np.array([objective for _, objective, _ in jobs])
    y_tgt = np.array([prob.y_tgt for prob, _, _ in jobs])
    y_src = np.array([prob.y_src for prob, _, _ in jobs])
    x0_src = np.array([prob.x0_src for prob, _, _ in jobs], dtype=float)
    subs = [prob.sub for prob, _, _ in jobs]

    live = np.arange(len(jobs))
    for k in range(1, int(steps) + 1):
        if live.size == 0:
            break
        draws = [sample_shared_noise(subs[j], runs[j].rng) for j in live]
        t = np.array([subs[j].tau[draw.i] for j, draw in zip(live, draws)])
        pds = kind[live] == "pds"
        spring = np.array([subs[j].psi[draw.i] for j, draw in zip(live, draws)])
        chi = np.array([subs[j].chi[draw.i] for j, draw in zip(live, draws)])
        res = _residuals(
            d, s, omega, kind[live], t, np.array([draw.eps_cur for draw in draws]),
            np.array([runs[j].x0 for j in live]), y_tgt[live], x0_src[live], y_src[live],
            spring, np.where(pds, chi, resolve_weight(w_mode, s, t)),
        )
        survivors = []
        for j, r in zip(live, res):
            run = runs[j]
            # a non-finite residual always leaves theta non-finite
            grad = run.gen.pullback(r)
            if run.adam is not None:
                adam_step(run.gen.theta, grad, run.adam, lr)
            else:
                run.gen.theta -= lr * grad
            if not np.isfinite(run.gen.theta).all():
                run.record.diverged = True
                continue
            run.x0 = run.gen.render()
            run.record.steps.append(
                TrajectoryStep(
                    step=k,
                    theta=run.gen.theta.copy(),
                    x0_tgt=run.x0,
                    # np.linalg.norm's own arithmetic for a 1-D vector
                    grad_norm=math.sqrt(grad.dot(grad)),
                )
            )
            survivors.append(j)
        live = np.array(survivors, dtype=int)
    return [run.record for run in runs]


def write_trajectory_csv(record: TrajectoryRecord, path) -> None:
    """One row per step: step, theta components, rendered point, grad norm."""
    n_theta = record.steps[0].theta.size
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step", *[f"theta{j}" for j in range(n_theta)], "x0_tgt_x", "x0_tgt_y", "grad_norm"]
        )
        for row in record.steps:
            writer.writerow(
                [
                    row.step,
                    *[f"{v:.17g}" for v in row.theta],
                    f"{row.x0_tgt[0]:.17g}",
                    f"{row.x0_tgt[1]:.17g}",
                    f"{row.grad_norm:.17g}",
                ]
            )

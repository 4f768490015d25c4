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
from dataclasses import dataclass, field, replace

import numpy as np

from .denoiser import POINT_DIM, Denoiser, cfg_predict, eps
from .errors import DivergenceError
from .latentops import SharedNoiseDraw, forward_sample, sample_shared_noise, stochastic_latent
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


def resolve_weight(mode: str, s: NoiseSchedule, t: int) -> float:
    if mode == "const":
        return 1.0
    if mode == "one_minus_alpha_bar":
        return float(1.0 - s.alpha_bar[t])
    raise ValueError(f"unknown weight mode {mode!r}; expected one of {WEIGHT_MODES}")


def _check_finite(v: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise DivergenceError(f"non-finite {what}")
    return v


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
    x0 = gen.render()
    x_t = forward_sample(x0, t, draw.eps_cur, s)
    eps_hat = _check_finite(cfg_predict(d, x_t, y_tgt, t, omega), "noise prediction")
    return gen.pullback(w_t * (eps_hat - draw.eps_cur))


def _predict_pair(
    x_t_tgt: np.ndarray, x_t_src: np.ndarray, prob: EditProblem, t: int, d: Denoiser
) -> tuple[np.ndarray, np.ndarray]:
    # Target and source share one eval; each row is bitwise its batch-1 value,
    # which keeps the source == target gradients exactly zero.
    out = eps(d, np.stack([x_t_tgt, x_t_src]), [prob.y_tgt, prob.y_src], t, prob.omega)
    return (
        _check_finite(out[0], "target prediction"),
        _check_finite(out[1], "source prediction"),
    )


def dds_grad(
    prob: EditProblem,
    draw: SharedNoiseDraw,
    d: Denoiser,
    w_t: float,
    s: NoiseSchedule,
) -> np.ndarray:
    """Prediction-difference gradient under one shared forward noise."""
    t = int(prob.sub.tau[draw.i])
    x0_tgt = prob.gen.render()
    x_t_tgt = forward_sample(x0_tgt, t, draw.eps_cur, s)
    x_t_src = forward_sample(prob.x0_src, t, draw.eps_cur, s)
    eps_tgt, eps_src = _predict_pair(x_t_tgt, x_t_src, prob, t, d)
    return prob.gen.pullback(w_t * (eps_tgt - eps_src))


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
    x0_tgt = prob.gen.render()
    x_t_tgt = forward_sample(x0_tgt, t, draw.eps_cur, s)
    x_t_src = forward_sample(prob.x0_src, t, draw.eps_cur, s)
    eps_tgt, eps_src = _predict_pair(x_t_tgt, x_t_src, prob, t, d)
    residual = coeffs.psi * (x0_tgt - prob.x0_src) + coeffs.chi * (eps_tgt - eps_src)
    return prob.gen.pullback(residual)


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
    the run and flags the partial record.
    """
    if objective_kind not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective_kind!r}; expected one of {OBJECTIVES}")
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}; expected one of {OPTIMIZERS}")
    rng = np.random.default_rng(seed)
    prob = replace(prob, gen=prob.gen.copy())
    gen = prob.gen
    record = TrajectoryRecord(objective_kind=objective_kind, seed=int(seed))
    record.steps.append(
        TrajectoryStep(step=0, theta=gen.theta.copy(), x0_tgt=gen.render(), grad_norm=0.0)
    )
    opt_state = AdamState.for_params(gen.theta) if optimizer == "adam" else None
    for k in range(1, int(steps) + 1):
        draw = sample_shared_noise(prob.sub, rng)
        t = int(prob.sub.tau[draw.i])
        w_t = resolve_weight(w_mode, s, t)
        try:
            if objective_kind == "sds":
                grad = sds_grad(gen, prob.y_tgt, draw, d, prob.omega, w_t, s, prob.sub)
            elif objective_kind == "dds":
                grad = dds_grad(prob, draw, d, w_t, s)
            else:
                grad = pds_grad(prob, draw, d, s)
        except DivergenceError:
            record.diverged = True
            break
        if optimizer == "adam":
            adam_step(gen.theta, grad, opt_state, lr)
        else:
            gen.theta -= lr * grad
        if not np.all(np.isfinite(gen.theta)):
            record.diverged = True
            break
        record.steps.append(
            TrajectoryStep(
                step=k,
                theta=gen.theta.copy(),
                x0_tgt=gen.render(),
                grad_norm=float(np.linalg.norm(grad)),
            )
        )
    return record


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

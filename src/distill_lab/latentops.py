"""Forward-process sampling, posterior means, stochastic latents and editing.

The stochastic latent of a clean point x0 at a grid step is the noise that,
injected into the generative step from tau[i] to tau[i-1], lands exactly on
the forward-drawn state at tau[i-1]:

    z = (x_prev - mu(x_cur)) / sigma,   mu(x) = gamma * x0_estimate(x) + delta * x

with gamma, delta, sigma read from the fine schedule at t = tau[i]. Because
the definition is a rearrangement of the generative step, replaying the
recorded latents reproduces the source trajectory exactly, for any noise
predictor; swapping in a new condition during the replay edits the point
while keeping the trajectory anchored to the source.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .denoiser import POINT_DIM, Denoiser, cfg_predict, cfg_predict_batch, eps
from .errors import DegenerateTimestepError, DivergenceError, MismatchError
from .schedule import (
    NoiseSchedule,
    TimestepSubsequence,
    posterior_coeffs,
    posterior_coeffs_pair,
)

__all__ = [
    "SharedNoiseDraw",
    "StochasticLatentSequence",
    "draw_shared_noise",
    "sample_shared_noise",
    "forward_sample",
    "tweedie_estimate",
    "posterior_mean_pred",
    "stochastic_latent",
    "invert",
    "generate_with_latents",
    "generate_with_latents_batch",
    "sdedit_batch",
]


@dataclass(frozen=True)
class SharedNoiseDraw:
    """One Monte-Carlo draw: a grid index and the two noises for its levels.

    The same draw object must be handed to both the source and the target
    side of any two-sided computation; the sharing contract is structural,
    not conventional.
    """

    i: int
    eps_prev: np.ndarray
    eps_cur: np.ndarray


@dataclass
class StochasticLatentSequence:
    """Latents of one point along the generative traversal of a grid.

    Arrays are ordered top-down (grid index S first, 1 last). ``x_top`` is
    the recorded state at the highest level so a replay starts from the
    identical point. ``T`` and ``tau`` identify the schedule and grid the
    sequence was computed on.
    """

    latents: np.ndarray
    x_top: np.ndarray
    T: int
    tau: np.ndarray


def draw_shared_noise(sub: TimestepSubsequence, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Draw i uniformly from the grid's sampling range plus the two noises,
    rows eps_prev and eps_cur of a (2, 2) array (the bits of two (2,) draws)."""
    i = int(rng.integers(sub.lo_index, sub.hi_index + 1))
    return i, rng.standard_normal((2, POINT_DIM))


def sample_shared_noise(sub: TimestepSubsequence, rng: np.random.Generator) -> SharedNoiseDraw:
    """One :func:`draw_shared_noise` draw as a :class:`SharedNoiseDraw`."""
    i, noise = draw_shared_noise(sub, rng)
    return SharedNoiseDraw(i=i, eps_prev=noise[0], eps_cur=noise[1])


def forward_sample(x0: np.ndarray, t: int, eps: np.ndarray, s: NoiseSchedule) -> np.ndarray:
    """Noising map sqrt(alpha_bar_t) * x0 + sqrt(1 - alpha_bar_t) * eps."""
    t = s.check_t(t)
    ab = s.alpha_bar[t]
    return math.sqrt(ab) * np.asarray(x0, dtype=float) + math.sqrt(1.0 - ab) * np.asarray(
        eps, dtype=float
    )


def tweedie_estimate(
    x_t: np.ndarray, y: int, t: int, d: Denoiser, omega: float, s: NoiseSchedule
) -> np.ndarray:
    """One-step denoised estimate (x_t - sqrt(1 - alpha_bar_t) * eps_hat) / sqrt(alpha_bar_t)."""
    t = s.check_t(t)
    eps_hat = cfg_predict(d, x_t, y, t, omega)
    ab = s.alpha_bar[t]
    return (np.asarray(x_t, dtype=float) - math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(ab)


def posterior_mean_pred(
    x_t: np.ndarray, y: int, t: int, d: Denoiser, omega: float, s: NoiseSchedule
) -> np.ndarray:
    """Model posterior mean gamma_t * x0_estimate + delta_t * x_t."""
    pc = posterior_coeffs(s, t)
    return pc.gamma * tweedie_estimate(x_t, y, t, d, omega, s) + pc.delta * np.asarray(
        x_t, dtype=float
    )


def _latents(
    x0: np.ndarray,
    y: int,
    idx: np.ndarray,
    eps_prev: np.ndarray,
    eps_cur: np.ndarray,
    d: Denoiser,
    omega: float,
    s: NoiseSchedule,
    sub: TimestepSubsequence,
) -> np.ndarray:
    """Latents of x0 at grid indices ``idx`` given each index's two level
    noises (rows of ``eps_prev`` / ``eps_cur``), from one ``eps`` call.

    Given the noises the latents do not depend on each other, so all of
    them share one batch; every row's arithmetic is the single-draw one.
    """
    t_cur = sub.tau[idx]
    t_prev = sub.tau[idx - 1]
    sigma = s.sigma[t_cur]
    if np.any(sigma == 0.0):
        bad = int(t_cur[np.argmax(sigma == 0.0)])
        raise DegenerateTimestepError(
            f"sigma is zero at timestep {bad}; the stochastic latent is undefined"
        )
    x_prev = s.sqrt_ab[t_prev][:, None] * x0 + s.sqrt_1m_ab[t_prev][:, None] * eps_prev
    # Level 0 is the clean point itself (alpha_bar[0] = 1 kills the noise term).
    x_prev[t_prev == 0] = x0
    x_cur = s.sqrt_ab[t_cur][:, None] * x0 + s.sqrt_1m_ab[t_cur][:, None] * eps_cur
    eps_hat = eps(d, x_cur, y, t_cur, omega)
    x0_est = (x_cur - s.sqrt_1m_ab[t_cur][:, None] * eps_hat) / s.sqrt_ab[t_cur][:, None]
    mu = s.gamma[t_cur][:, None] * x0_est + s.delta[t_cur][:, None] * x_cur
    return (x_prev - mu) / sigma[:, None]


def stochastic_latent(
    x0: np.ndarray,
    y: int,
    draw: SharedNoiseDraw,
    d: Denoiser,
    omega: float,
    s: NoiseSchedule,
    sub: TimestepSubsequence,
) -> np.ndarray:
    """Latent z = (x_prev - mu(x_cur)) / sigma for one draw; deterministic."""
    i = int(draw.i)
    if not 1 <= i <= sub.S:
        raise ValueError(f"draw index {i} outside the grid [1, {sub.S}]")
    x0 = np.asarray(x0, dtype=float)
    eps_prev = np.asarray(draw.eps_prev, dtype=float)[None, :]
    eps_cur = np.asarray(draw.eps_cur, dtype=float)[None, :]
    return _latents(x0, y, np.array([i]), eps_prev, eps_cur, d, omega, s, sub)[0]


def invert(
    x0: np.ndarray,
    y: int,
    d: Denoiser,
    omega: float,
    s: NoiseSchedule,
    sub: TimestepSubsequence,
    rng: np.random.Generator,
) -> StochasticLatentSequence:
    """Compute the latents of x0 at every grid step, top-down.

    One fresh noise is drawn per grid level; step i pairs the level-(i-1)
    and level-i noises, so consecutive steps share the level state they
    have in common. That sharing is what makes the recorded trajectory
    replayable: feeding the latents back reconstructs x0 exactly. All S
    latents come from one ``eps`` call.
    """
    x0 = np.asarray(x0, dtype=float)
    n = sub.S
    eps_levels = np.zeros((n + 1, POINT_DIM))
    eps_levels[1:] = rng.standard_normal((n, POINT_DIM))
    x_top = forward_sample(x0, int(sub.tau[n]), eps_levels[n], s)
    idx = np.arange(n, 0, -1)
    latents = _latents(x0, y, idx, eps_levels[idx - 1], eps_levels[idx], d, omega, s, sub)
    return StochasticLatentSequence(latents=latents, x_top=x_top, T=s.T, tau=np.array(sub.tau))


def generate_with_latents(
    seq: StochasticLatentSequence,
    y_new: int,
    d: Denoiser,
    omega: float,
    s: NoiseSchedule,
    sub: TimestepSubsequence,
) -> np.ndarray:
    """Replay the generative traversal from seq.x_top, substituting the
    recorded latents for fresh noise, under a possibly new condition."""
    return generate_with_latents_batch([seq], y_new, d, omega, s, sub)[0]


def generate_with_latents_batch(
    seqs: list[StochasticLatentSequence],
    y_new,
    d: Denoiser,
    omega: float,
    s: NoiseSchedule,
    sub: TimestepSubsequence,
) -> np.ndarray:
    """Replay k latent sequences together, shape (k, 2).

    ``y_new`` is one condition for all or one per sequence. The traversal
    stays sequential over levels; each level is one ``eps`` call over the
    k points, and every point's result equals its own replay bitwise.
    """
    for seq in seqs:
        if s.T != seq.T or not np.array_equal(np.asarray(sub.tau), np.asarray(seq.tau)):
            raise MismatchError("latent sequence was computed on a different schedule or grid")
        if seq.latents.shape != (sub.S, POINT_DIM):
            raise MismatchError(
                f"latent sequence has shape {seq.latents.shape}, grid expects {(sub.S, POINT_DIM)}"
            )
    if not seqs:
        return np.empty((0, POINT_DIM))
    x = np.array([seq.x_top for seq in seqs], dtype=float)
    latents = np.stack([seq.latents for seq in seqs], axis=1)
    for k, i in enumerate(range(sub.S, 0, -1)):
        t = int(sub.tau[i])
        eps_hat = eps(d, x, y_new, t, omega)
        x0_est = (x - s.sqrt_1m_ab[t] * eps_hat) / s.sqrt_ab[t]
        x = s.gamma[t] * x0_est + s.delta[t] * x + s.sigma[t] * latents[k]
        if not np.all(np.isfinite(x)):
            raise DivergenceError(f"non-finite state while replaying latents at t={t}")
    return x


def _denoise_grid(T: int, n_steps: int) -> np.ndarray:
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    levels = np.round(np.arange(n_steps + 1) * (T / n_steps)).astype(np.int64)
    if np.any(np.diff(levels) < 1):
        raise ValueError(f"n_steps={n_steps} is too fine for T={T}")
    return levels


def sdedit_batch(
    x0: np.ndarray,
    y: int,
    t0_ratio: float,
    d: Denoiser,
    omega: float,
    s: NoiseSchedule,
    rng: np.random.Generator,
    n_steps: int = 20,
) -> np.ndarray:
    """Partially noise a batch of points to level t0 and denoise back down.

    The denoising runs over an ``n_steps``-point coarse grid spanning the
    whole schedule; ``t0_ratio`` selects the starting position on that grid,
    so 0 is an exact identity and 1 is a full resampling that forgets the
    input almost entirely.
    """
    if not 0.0 <= t0_ratio <= 1.0:
        raise ValueError(f"t0_ratio must be in [0, 1], got {t0_ratio}")
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    levels = _denoise_grid(s.T, int(n_steps))
    k0 = int(round(t0_ratio * n_steps))
    if k0 == 0:
        return x0.copy()
    t0 = int(levels[k0])
    x = forward_sample(x0, t0, rng.standard_normal(x0.shape), s)
    for k in range(k0, 0, -1):
        t = int(levels[k])
        pc = posterior_coeffs_pair(s, int(levels[k - 1]), t)
        eps_hat = cfg_predict_batch(d, x, y, t, omega)
        x_tilde = (x - s.sqrt_1m_ab[t] * eps_hat) / s.sqrt_ab[t]
        x = pc.gamma * x_tilde + pc.delta * x + pc.sigma * rng.standard_normal(x.shape)
    return x

"""Shared-noise draws, stochastic latents and the generative chain.

A draw ``(i, noise)`` is a grid index and a (2, 2) array whose rows are the
noises eps_prev and eps_cur of levels tau[i-1] and tau[i]; source and
target sides of a two-sided computation read the same draw.

The stochastic latent of a clean point x0 at a grid step is the noise that,
injected into the generative step from tau[i] to tau[i-1], lands exactly on
the forward-drawn state at tau[i-1]:

    z = (x_prev - mu(x_cur)) / sigma,   mu(x) = gamma * x0_estimate(x) + delta * x

with gamma, delta, sigma read from the fine schedule at t = tau[i]. Because
the definition is a rearrangement of the generative step, replaying the
recorded latents reproduces the source trajectory exactly, for any noise
predictor; swapping in a new condition during the replay edits the point
while keeping the trajectory anchored to the source.

Ancestral sampling, latent replay and partial noising all run their reverse
chain through one function, ``_generate``, whose step mean is the one the
latents are taken against. The three differ only in their steps, their
noise (fresh draws or recorded latents) and their predictor: the replay
uses the batch-invariant ``eps``, the two samplers the gemm
``cfg_predict_batch``. Each chain runs with numpy's OpenBLAS held at one
thread, process-wide, as ``train`` does, and the caller's count is restored
when the chain returns or raises; so the samplers' bits do not depend on the
host's thread count, and no second thread spins through the chain's
single-threaded tanh and step arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import POINT_DIM, Denoiser, LabelPlan, _one_blas_thread, cfg_predict_batch, eps
from .denoiser import cfg_predict  # noqa: F401  perfbench/selftest.py reads latentops.cfg_predict
from .errors import DegenerateTimestepError, DivergenceError, MismatchError
from .schedule import NoiseSchedule, TimestepSubsequence, posterior_coeffs_pair

__all__ = [
    "StochasticLatentSequence",
    "draw_shared_noise",
    "stochastic_latents",
    "invert",
    "generate_with_latents_batch",
    "ancestral_sample_batch",
    "sdedit_batch",
    "check_sdedit_levels",
    "SDEDIT_STEPS",
]

SDEDIT_STEPS = 20  # steps of sdedit_batch's coarse denoising grid over the whole schedule


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


def _step_mean(s: NoiseSchedule, x: np.ndarray, t, eps_hat: np.ndarray, gamma, delta) -> np.ndarray:
    """Mean gamma * x0_estimate(x) + delta * x of the generative step from x
    at t, given the noise prediction at x; ``t``, ``gamma`` and ``delta`` are
    scalars or one per row."""
    return gamma * s.x0_estimate(x, t, eps_hat) + delta * x


def _generate(predict, d: Denoiser, x: np.ndarray, y, omega: float, s: NoiseSchedule,
              steps, noise) -> np.ndarray:
    """Run the generative chain from x, one step per (t, gamma, delta, sigma)
    of ``steps``: the k-th step sets x to its :func:`_step_mean` plus
    sigma * noise(k), with the prediction ``predict(d, x, y, t, omega)``, on
    one BLAS thread. DivergenceError when a step leaves x non-finite."""
    with _one_blas_thread():
        for k, (t, gamma, delta, sigma) in enumerate(steps):
            eps_hat = predict(d, x, y, t, omega)
            x = _step_mean(s, x, t, eps_hat, gamma, delta) + sigma * noise(k)
            if not np.all(np.isfinite(x)):
                raise DivergenceError(f"non-finite state in the generative chain at t={t}")
    return x


def _fine_steps(s: NoiseSchedule, ts) -> list[tuple]:
    """Generative steps at timesteps ``ts`` with the fine schedule's coefficients."""
    return [(int(t), s.gamma[t], s.delta[t], s.sigma[t]) for t in ts]


def stochastic_latents(
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
    noises (rows of ``eps_prev`` / ``eps_cur``), from one ``eps`` call; a
    draw ``(i, noise)`` is ``[i], noise[:1], noise[1:]``. Each row is bitwise
    its batch-1 value. ValueError for an ``idx`` that is not a 1-D integer
    array, noise arrays that are not (len(idx), 2) or an index outside
    [1, S]; DivergenceError when a latent is non-finite.
    """
    idx, x0 = np.asarray(idx), np.asarray(x0, dtype=float)
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"idx must be a 1-D integer array, got {idx.dtype} of shape {idx.shape}")
    for name, noise in (("eps_prev", eps_prev), ("eps_cur", eps_cur)):
        if np.shape(noise) != (len(idx), POINT_DIM):
            raise ValueError(f"{name} must have shape ({len(idx)}, {POINT_DIM}), "
                             f"got {np.shape(noise)}")
    outside = (idx < 1) | (idx > sub.S)
    if outside.any():
        raise ValueError(f"draw index {int(idx[outside][0])} outside the grid [1, {sub.S}]")
    t_cur = sub.tau[idx]
    t_prev = sub.tau[idx - 1]
    sigma = s.sigma[t_cur]
    if np.any(sigma == 0.0):
        bad = int(t_cur[np.argmax(sigma == 0.0)])
        raise DegenerateTimestepError(
            f"sigma is zero at timestep {bad}; the stochastic latent is undefined"
        )
    x_prev = s.noised(x0, t_prev, eps_prev)
    # Level 0 is the clean point itself (alpha_bar[0] = 1 kills the noise term).
    x_prev[t_prev == 0] = x0
    x_cur = s.noised(x0, t_cur, eps_cur)
    eps_hat = eps(d, x_cur, y, t_cur, omega)
    mu = _step_mean(s, x_cur, t_cur, eps_hat, s.gamma[t_cur][:, None], s.delta[t_cur][:, None])
    z = (x_prev - mu) / sigma[:, None]
    finite = np.isfinite(z).all(axis=1)
    if not finite.all():
        bad = int(t_cur[np.argmin(finite)])
        raise DivergenceError(f"non-finite stochastic latent at t={bad}")
    return z


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
    latents come from one ``eps`` call; a non-finite latent raises
    DivergenceError.
    """
    x0 = np.asarray(x0, dtype=float)
    n = sub.S
    eps_levels = np.zeros((n + 1, POINT_DIM))
    eps_levels[1:] = rng.standard_normal((n, POINT_DIM))
    x_top = s.noised(x0, int(sub.tau[n]), eps_levels[n])
    idx = np.arange(n, 0, -1)
    latents = stochastic_latents(x0, y, idx, eps_levels[idx - 1], eps_levels[idx], d, omega, s, sub)
    return StochasticLatentSequence(latents=latents, x_top=x_top, T=s.T, tau=np.array(sub.tau))


# Not exported; perfbench/worker.py probe_roundtrip still reads it.
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

    ``y_new`` is one condition for all or one per sequence, checked once
    into a :class:`LabelPlan` that every level reads. The traversal stays
    sequential over levels; each level is one ``eps`` call over the k
    points, and every point's result equals its own replay bitwise.
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
    labels = LabelPlan(y_new, len(seqs))
    latents = np.stack([seq.latents for seq in seqs], axis=1)
    steps = _fine_steps(s, sub.tau[sub.S : 0 : -1])
    return _generate(eps, d, x, labels, omega, s, steps, lambda k: latents[k])


def ancestral_sample_batch(
    d: Denoiser,
    y: int,
    n: int,
    s: NoiseSchedule,
    omega: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """n independent ancestral samples conditioned on y, shape (n, 2).

    Runs the full fine-grained generative chain from pure noise. The final
    step has sigma_1 = 0, so the last transition is deterministic.
    """
    x = rng.standard_normal((n, POINT_DIM))
    steps = _fine_steps(s, range(s.T, 0, -1))
    return _generate(cfg_predict_batch, d, x, y, omega, s, steps,
                     lambda k: rng.standard_normal((n, POINT_DIM)))


def check_sdedit_levels(T: int) -> None:
    """ValueError unless T levels hold sdedit_batch's SDEDIT_STEPS distinct steps."""
    if T < SDEDIT_STEPS:
        raise ValueError(f"sdedit denoises in {SDEDIT_STEPS} steps, "
                         f"so it needs T >= {SDEDIT_STEPS}, got T={T}")


def sdedit_batch(
    x0: np.ndarray,
    y: int,
    t0_ratio: float,
    d: Denoiser,
    omega: float,
    s: NoiseSchedule,
    rng: np.random.Generator,
) -> np.ndarray:
    """Partially noise a batch of points to level t0 and denoise back down.

    The denoising runs over a coarse grid of SDEDIT_STEPS + 1 evenly spaced
    levels from 0 to T, so the schedule needs T >= SDEDIT_STEPS (ValueError
    otherwise); ``t0_ratio`` selects the starting position on that grid,
    so 0 is an exact identity and 1 is a full resampling that forgets the
    input almost entirely. A step that turns non-finite raises
    DivergenceError, as in every chain of :func:`_generate`.
    """
    if not 0.0 <= t0_ratio <= 1.0:
        raise ValueError(f"t0_ratio must be in [0, 1], got {t0_ratio}")
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    check_sdedit_levels(s.T)
    levels = np.round(np.arange(SDEDIT_STEPS + 1) * (s.T / SDEDIT_STEPS)).astype(np.int64)
    k0 = int(round(t0_ratio * SDEDIT_STEPS))
    if k0 == 0:
        return x0.copy()
    down = levels[k0::-1].tolist()
    x = s.noised(x0, down[0], rng.standard_normal(x0.shape))
    steps = [(t, *posterior_coeffs_pair(s, t_prev, t)) for t, t_prev in zip(down, down[1:])]
    return _generate(cfg_predict_batch, d, x, y, omega, s, steps,
                     lambda k: rng.standard_normal(x0.shape))

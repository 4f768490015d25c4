"""Variance schedules, posterior coefficients and timestep subsequences.

Timesteps are 1-based. All schedule arrays have length T+1 with index 0
reserved for the clean-data convention slot (beta[0] = 0, alpha[0] = 1,
alpha_bar[0] = 1) so that ``alpha_bar[t - 1]`` is defined for every valid t.

The forward-process posterior q(x_{t-1} | x_t, x_0) is the Gaussian with
mean gamma_t * x_0 + delta_t * x_t and noise scale sigma_t, where

    gamma_t = sqrt(alpha_bar[t-1]) * (1 - alpha[t]) / (1 - alpha_bar[t])
    delta_t = sqrt(alpha[t]) * (1 - alpha_bar[t-1]) / (1 - alpha_bar[t])
    sigma_t = (1 - alpha_bar[t-1]) / (1 - alpha_bar[t]) * beta[t]

These satisfy the consecutive-step identity

    gamma_t + delta_t * sqrt(alpha_bar[t]) = sqrt(alpha_bar[t-1]),

which is why the latent-matching coefficients (psi, chi) vanish on
consecutive timesteps and are only non-trivial on strided subsequences.

Every coefficient is read from a table built once: ``s.gamma[t]``,
``s.delta[t]``, ``s.sigma[t]`` per timestep and ``sub.psi[i]``,
``sub.chi[i]``, ``sub.latent_weight[i]`` per grid index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NoiseSchedule",
    "TimestepSubsequence",
    "build_linear_schedule",
    "posterior_coeffs_pair",
    "build_subsequence",
]


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable discrete variance schedule over timesteps 1..T.

    Besides the three defining arrays it carries per-timestep tables, built
    once from them: ``sqrt_ab`` = sqrt(alpha_bar), ``sqrt_1m_ab`` =
    sqrt(1 - alpha_bar), and the posterior coefficients ``gamma``,
    ``delta``, ``sigma`` (index 0 unused; t = 1 holds the exact degenerate
    values 1, 0, 0). :meth:`noised` and :meth:`x0_estimate` are the noising
    arithmetic every sampler, objective and training step uses.
    """

    T: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    sqrt_ab: np.ndarray = field(init=False, repr=False, compare=False)
    sqrt_1m_ab: np.ndarray = field(init=False, repr=False, compare=False)
    gamma: np.ndarray = field(init=False, repr=False, compare=False)
    delta: np.ndarray = field(init=False, repr=False, compare=False)
    sigma: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ab = self.alpha_bar
        ab_prev = ab[:-1]
        den = 1.0 - ab[1:]
        gamma = np.zeros(self.T + 1)
        delta = np.zeros(self.T + 1)
        sigma = np.zeros(self.T + 1)
        gamma[1:] = np.sqrt(ab_prev) * (1.0 - self.alpha[1:]) / den
        delta[1:] = np.sqrt(self.alpha[1:]) * (1.0 - ab_prev) / den
        sigma[1:] = (1.0 - ab_prev) / den * self.beta[1:]
        # alpha_bar[0] = 1 forces the t = 1 values exactly; evaluating the
        # formulas would only add rounding noise to the degenerate step.
        gamma[1], delta[1], sigma[1] = 1.0, 0.0, 0.0
        tables = {
            "sqrt_ab": np.sqrt(ab),
            "sqrt_1m_ab": np.sqrt(1.0 - ab),
            "gamma": gamma,
            "delta": delta,
            "sigma": sigma,
        }
        for name, table in tables.items():
            object.__setattr__(self, name, _readonly(table))

    def noised(self, x0: np.ndarray, t, noise: np.ndarray) -> np.ndarray:
        """Forward-process state sqrt(alpha_bar_t) * x0 + sqrt(1 - alpha_bar_t) * noise;
        ``t`` is one timestep in [0, T], or one per row of ``x0``."""
        sqrt_ab, sqrt_1m_ab = self._at(t)
        return sqrt_ab * x0 + sqrt_1m_ab * noise

    def x0_estimate(self, x_t: np.ndarray, t, eps_hat: np.ndarray) -> np.ndarray:
        """One-step denoised estimate (x_t - sqrt(1 - alpha_bar_t) * eps_hat) /
        sqrt(alpha_bar_t); ``t`` is one timestep in [0, T], or one per row of ``x_t``."""
        sqrt_ab, sqrt_1m_ab = self._at(t)
        return (x_t - sqrt_1m_ab * eps_hat) / sqrt_ab

    def _at(self, t) -> tuple:
        """(sqrt_ab[t], sqrt_1m_ab[t]) as scalars, or as columns that scale
        row k by the value at t[k]; ValueError for a timestep outside [0, T]."""
        per_row = getattr(t, "ndim", 0) > 0
        lo, hi = (t.min(initial=0), t.max(initial=0)) if per_row else (t, t)
        if lo < 0 or hi > self.T:
            raise ValueError(f"timestep {lo if lo < 0 else hi} outside [0, {self.T}]")
        if per_row:
            return self.sqrt_ab[t][:, None], self.sqrt_1m_ab[t][:, None]
        return self.sqrt_ab[t], self.sqrt_1m_ab[t]


@dataclass(frozen=True)
class TimestepSubsequence:
    """Strided timestep grid tau_1 < ... < tau_S with a sampling index range.

    ``tau`` has length S+1 with the sentinel tau[0] = 0 (the clean-data
    level), mirroring the schedule's convention slot. Monte-Carlo index
    sampling is restricted to [lo_index, hi_index]; lo_index >= 2 so the
    in-grid predecessor tau[i-1] always has sigma > 0.

    ``psi``, ``chi`` and ``latent_weight`` are the latent-matching
    coefficients at every grid index i, computed once by
    :func:`build_subsequence` from the schedule the grid was built on. With
    t = tau[i], the common factor

        f = sqrt(alpha_bar[tau[i-1]]) - gamma_t - delta_t * sqrt(alpha_bar[t])

    gives psi = 2 f^2 / sigma_t^2 and
    chi = 2 f * gamma_t * sqrt(1/alpha_bar[t] - 1) / sigma_t^2, where gamma,
    delta, sigma are the fine-schedule coefficients at t and only the
    leading alpha_bar term reads the strided predecessor. ``latent_weight``
    = 2 f / sigma_t is the scale that makes
    latent_weight * (z_tgt - z_src) equal the expanded residual.

    The tables hold NaN where a coefficient is undefined: at the sentinel
    i = 0 and wherever sigma_t = 0 (t = 1, index 1 of a stride-1 grid).
    """

    tau: np.ndarray
    lo_index: int
    hi_index: int
    psi: np.ndarray = field(repr=False, compare=False)
    chi: np.ndarray = field(repr=False, compare=False)
    latent_weight: np.ndarray = field(repr=False, compare=False)

    @property
    def S(self) -> int:
        return len(self.tau) - 1


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def build_linear_schedule(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Build a linear beta schedule from beta_start to beta_end inclusive."""
    T = int(T)
    if T < 2:
        raise ValueError(f"need T >= 2, got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError(
            f"betas must satisfy 0 < beta_start <= beta_end < 1, "
            f"got ({beta_start}, {beta_end})"
        )
    beta = np.zeros(T + 1)
    beta[1:] = np.linspace(beta_start, beta_end, T)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    # the chi table reads 1 / alpha_bar, which overflows once alpha_bar is subnormal
    if alpha_bar[T] < np.finfo(float).tiny:
        raise ValueError(
            f"alpha_bar[T] = {alpha_bar[T]:.3g} underflows below the smallest normal float; "
            f"lower T, beta_start or beta_end"
        )
    return NoiseSchedule(
        T=T,
        beta=_readonly(beta),
        alpha=_readonly(alpha),
        alpha_bar=_readonly(alpha_bar),
    )


def posterior_coeffs_pair(s: NoiseSchedule, t_prev: int, t_cur: int) -> tuple[float, float, float]:
    """Posterior coefficients (gamma, delta, sigma) for a single jump t_cur -> t_prev.

    Generalizes the schedule's ``gamma``/``delta``/``sigma`` tables to
    non-consecutive levels by replacing alpha[t] with the effective step factor
    alpha_bar[t_cur] / alpha_bar[t_prev]. ``t_prev`` may be 0 (the clean
    level), in which case the jump is deterministic (gamma=1, sigma=0).

    Used by the plain coarse-grid sampler (partial noising / denoising);
    the latent-matching coefficients deliberately do NOT use this
    re-derived chain, since on a re-derived chain the consecutive-step
    identity would zero them out again.
    """
    t_prev, t_cur = int(t_prev), int(t_cur)
    if not 0 <= t_prev < t_cur <= s.T:
        raise ValueError(f"need 0 <= t_prev < t_cur <= {s.T}, got ({t_prev}, {t_cur})")
    ab_prev = float(s.alpha_bar[t_prev])
    ab_cur = float(s.alpha_bar[t_cur])
    eff_alpha = ab_cur / ab_prev
    den = 1.0 - ab_cur
    gamma = math.sqrt(ab_prev) * (1.0 - eff_alpha) / den
    delta = math.sqrt(eff_alpha) * (1.0 - ab_prev) / den
    sigma = (1.0 - ab_prev) / den * (1.0 - eff_alpha)
    return gamma, delta, sigma


def _grid_index(x: float, rounder) -> int:
    # Ratio * length products like 0.02 * 500 land a hair off the integer
    # they mean; snap before applying ceil/floor.
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest)
    return int(rounder(x))


def build_subsequence(
    s: NoiseSchedule, stride: int, lo_ratio: float, hi_ratio: float
) -> TimestepSubsequence:
    """Build the strided grid tau_i = floor(stride * i), its sampling range
    and its coefficient tables (see :class:`TimestepSubsequence`).

    The sampling range is [max(2, ceil(lo_ratio * S)), floor(hi_ratio * S)].
    The common factor f is computed through the consecutive-step identity as
    sqrt(alpha_bar[tau[i-1]]) - sqrt(alpha_bar[t - 1]); this is equal to the
    literal expression but cancellation-free, and makes the stride-1
    degeneracy (psi = chi = 0) exact.
    """
    stride = int(stride)
    if stride < 1:
        raise ValueError(f"need stride >= 1, got {stride}")
    if not (0.0 <= lo_ratio < hi_ratio <= 1.0):
        raise ValueError(f"need 0 <= lo_ratio < hi_ratio <= 1, got ({lo_ratio}, {hi_ratio})")
    n = s.T // stride
    if n < 1:
        raise ValueError(f"stride {stride} leaves an empty subsequence for T={s.T}")
    tau = np.zeros(n + 1, dtype=np.int64)
    tau[1:] = np.minimum(stride * np.arange(1, n + 1, dtype=np.int64), s.T)
    lo_index = max(2, _grid_index(lo_ratio * n, math.ceil))
    hi_index = _grid_index(hi_ratio * n, math.floor)
    if lo_index >= hi_index:
        raise ValueError(
            f"sampling range [{lo_index}, {hi_index}] is empty for S={n}; "
            f"widen the ratio range or reduce the stride"
        )
    t_cur = tau[1:]
    sigma = s.sigma[t_cur]
    sigma_sq = sigma * sigma
    f = s.sqrt_ab[tau[:-1]] - s.sqrt_ab[t_cur - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = 2.0 * f * f / sigma_sq
        chi = 2.0 * f * s.gamma[t_cur] * np.sqrt(1.0 / s.alpha_bar[t_cur] - 1.0) / sigma_sq
        latent_weight = 2.0 * f / sigma
    return TimestepSubsequence(
        tau=_readonly(tau),
        lo_index=lo_index,
        hi_index=hi_index,
        psi=_grid_table(psi, sigma),
        chi=_grid_table(chi, sigma),
        latent_weight=_grid_table(latent_weight, sigma),
    )


def _grid_table(values: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Per-grid-index table: NaN at the sentinel and where sigma_t = 0."""
    table = np.full(len(values) + 1, np.nan)
    table[1:] = np.where(sigma == 0.0, np.nan, values)
    return _readonly(table)

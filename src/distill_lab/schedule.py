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
``sub.chi[i]``, ``sub.latent_weight[i]`` per grid index. Only sdedit's
coarse jumps, from t_cur down to t_prev, are computed per call: one set of
columns from ``_posterior`` with alpha[t] = alpha_bar[t_cur] / alpha_bar[t_prev].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NoiseSchedule",
    "TimestepSubsequence",
    "build_linear_schedule",
    "build_subsequence",
]


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable discrete variance schedule over timesteps 1..T.

    Besides the three defining arrays it carries per-timestep tables, built
    once from them: ``sqrt_ab`` = sqrt(alpha_bar), ``sqrt_1m_ab`` =
    sqrt(1 - alpha_bar), and the posterior coefficients ``gamma``,
    ``delta``, ``sigma`` (index 0 unused; t = 1 holds exactly 1, 0, 0, as
    alpha_bar[0] = 1 and alpha_bar[1] = alpha[1]). :meth:`noised` and
    :meth:`x0_estimate` are the noising arithmetic every sampler, objective
    and training step uses.
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
        gamma, delta, sigma = np.zeros((3, self.T + 1))
        gamma[1:], delta[1:], sigma[1:] = _posterior(ab[:-1], ab[1:], self.alpha[1:], self.beta[1:])
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
        row k by the value at t[k]; ValueError for a non-integer timestep or one outside [0, T]."""
        _check_integers(t, "timesteps")
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


def _check_integers(v, what: str) -> None:
    """ValueError unless ``v`` is an int or has an integer dtype (bool has neither)."""
    dtype = getattr(v, "dtype", None)
    if type(v) is not int and (dtype is None or dtype.kind not in "iu"):
        got = type(v).__name__ if dtype is None else dtype
        raise ValueError(f"{what} must be an integer or have an integer dtype, got {got}")


def _check_count(v, what: str, low: int) -> int:
    """``v`` as an int; ValueError unless it is one integer (:func:`_check_integers`) >= low."""
    _check_integers(v, what)
    if getattr(v, "ndim", 0) or v < low:
        raise ValueError(f"{what} must be >= {low}, got {v}")
    return int(v)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def build_linear_schedule(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Build a linear beta schedule from beta_start to beta_end inclusive.
    ``T`` is a count (``T must be >= 2, got 1``; see :func:`_check_count`)."""
    T = _check_count(T, "T", 2)
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


def _posterior(ab_prev, ab_cur, alpha, beta):
    """(gamma, delta, sigma) of the jump from alpha_bar ``ab_cur`` to
    ``ab_prev`` with step factor ``alpha`` and step variance ``beta``: the
    module docstring's formulas, elementwise over arrays or on floats."""
    den = 1.0 - ab_cur
    gamma = np.sqrt(ab_prev) * (1.0 - alpha) / den
    delta = np.sqrt(alpha) * (1.0 - ab_prev) / den
    sigma = (1.0 - ab_prev) / den * beta
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
    degeneracy (psi = chi = 0) exact. ``stride`` is a count
    (``stride must be >= 1, got 0``; see :func:`_check_count`).
    """
    stride = _check_count(stride, "stride", 1)
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

"""Reference evaluations that only the tests call.

``tweedie_estimate`` and ``posterior_mean_pred`` are written with
``math.sqrt`` and the schedule's ``gamma``/``delta`` tables rather than its
``x0_estimate`` and the samplers' step mean, so the tests compare the
package against arithmetic it does not share.
"""

import math

import numpy as np

from distill_lab.denoiser import cfg_predict
from distill_lab.latentops import stochastic_latents


def tweedie_estimate(x_t, y, t, d, omega, s):
    """One-step denoised estimate (x_t - sqrt(1 - alpha_bar_t) * eps_hat) / sqrt(alpha_bar_t)."""
    assert 1 <= t <= s.T, f"timestep {t} outside [1, {s.T}]"
    eps_hat = cfg_predict(d, x_t, y, t, omega)
    ab = s.alpha_bar[t]
    return (np.asarray(x_t, dtype=float) - math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(ab)


def posterior_mean_pred(x_t, y, t, d, omega, s):
    """Model posterior mean gamma_t * x0_estimate + delta_t * x_t."""
    assert 1 <= t <= s.T, f"timestep {t} outside [1, {s.T}]"
    return s.gamma[t] * tweedie_estimate(x_t, y, t, d, omega, s) + s.delta[t] * np.asarray(
        x_t, dtype=float
    )


def one_latent(x0, y, draw, d, omega, s, sub):
    """The stochastic latent of x0 for one draw ``(i, noise)``."""
    i, noise = draw
    return stochastic_latents(x0, y, np.array([i]), noise[:1], noise[1:], d, omega, s, sub)[0]


def pds_objective(prob, draw, d, s):
    """Squared latent mismatch ||z_tgt - z_src||^2 for one draw."""
    z_tgt = one_latent(prob.gen.render(), prob.y_tgt, draw, d, prob.omega, s, prob.sub)
    z_src = one_latent(prob.x0_src, prob.y_src, draw, d, prob.omega, s, prob.sub)
    diff = z_tgt - z_src
    return float(diff @ diff)

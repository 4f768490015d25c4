"""Reference evaluations that only the tests call.

``tweedie_estimate`` and ``posterior_mean_pred`` are written with
``math.sqrt`` and ``posterior_coeffs`` rather than the schedule's
``x0_estimate`` and the samplers' step mean, so the tests compare the
package against arithmetic it does not share.
"""

import math

import numpy as np

from distill_lab.denoiser import cfg_predict
from distill_lab.latentops import stochastic_latent
from distill_lab.schedule import posterior_coeffs


def tweedie_estimate(x_t, y, t, d, omega, s):
    """One-step denoised estimate (x_t - sqrt(1 - alpha_bar_t) * eps_hat) / sqrt(alpha_bar_t)."""
    t = s.check_t(t)
    eps_hat = cfg_predict(d, x_t, y, t, omega)
    ab = s.alpha_bar[t]
    return (np.asarray(x_t, dtype=float) - math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(ab)


def posterior_mean_pred(x_t, y, t, d, omega, s):
    """Model posterior mean gamma_t * x0_estimate + delta_t * x_t."""
    pc = posterior_coeffs(s, t)
    return pc.gamma * tweedie_estimate(x_t, y, t, d, omega, s) + pc.delta * np.asarray(
        x_t, dtype=float
    )


def pds_objective(prob, draw, d, s):
    """Squared latent mismatch ||z_tgt - z_src||^2 for one draw."""
    x0_tgt = prob.gen.render()
    z_tgt = stochastic_latent(x0_tgt, prob.y_tgt, draw, d, prob.omega, s, prob.sub)
    z_src = stochastic_latent(prob.x0_src, prob.y_src, draw, d, prob.omega, s, prob.sub)
    diff = z_tgt - z_src
    return float(diff @ diff)

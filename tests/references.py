"""Reference evaluations that only the tests call.

``tweedie_estimate`` and ``posterior_mean_pred`` are written with
``math.sqrt`` and the schedule's ``gamma``/``delta`` tables rather than its
``x0_estimate`` and the samplers' step mean, and ``coarse_jump`` with
``math.sqrt`` on floats rather than the schedule's ``_posterior``, so the
tests compare the package against arithmetic it does not share.
``backward`` allocates a fresh array per layer, ``gathered_guided`` builds
every feature row on its own, and ``train_by_steps`` trains one step at a
time.
"""

import math

import numpy as np

from distill_lab.denoiser import (
    NULL_LABEL,
    NUM_CLASSES,
    POINT_DIM,
    _layer_views,
    eps,
    loss_and_grad,
    time_embedding,
)
from distill_lab.errors import DivergenceError
from distill_lab.latentops import stochastic_latents
from distill_lab.optim import AdamState, adam_step


def tweedie_estimate(x_t, y, t, d, omega, s):
    """One-step denoised estimate (x_t - sqrt(1 - alpha_bar_t) * eps_hat) / sqrt(alpha_bar_t)."""
    assert 1 <= t <= s.T, f"timestep {t} outside [1, {s.T}]"
    eps_hat = eps(d, x_t, y, t, omega)[0]
    ab = s.alpha_bar[t]
    return (np.asarray(x_t, dtype=float) - math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(ab)


def posterior_mean_pred(x_t, y, t, d, omega, s):
    """Model posterior mean gamma_t * x0_estimate + delta_t * x_t."""
    assert 1 <= t <= s.T, f"timestep {t} outside [1, {s.T}]"
    return s.gamma[t] * tweedie_estimate(x_t, y, t, d, omega, s) + s.delta[t] * np.asarray(
        x_t, dtype=float
    )


def coarse_jump(s, t_prev, t_cur):
    """(gamma, delta, sigma) of sdedit's jump from level t_cur down to t_prev:
    the posterior formulas with alpha[t] replaced by the step factor
    alpha_bar[t_cur] / alpha_bar[t_prev]."""
    assert 0 <= t_prev < t_cur <= s.T, f"need 0 <= {t_prev} < {t_cur} <= {s.T}"
    ab_prev, ab_cur = float(s.alpha_bar[t_prev]), float(s.alpha_bar[t_cur])
    jump = ab_cur / ab_prev
    den = 1.0 - ab_cur
    return (math.sqrt(ab_prev) * (1.0 - jump) / den,
            math.sqrt(jump) * (1.0 - ab_prev) / den,
            (1.0 - ab_prev) / den * (1.0 - jump))


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


def backward(d, cache, cotangent):
    """Vector-Jacobian product of the gemm forward w.r.t. the flat params,
    with a fresh array per layer."""
    grad = np.zeros_like(d.params)
    layers = d.layers()
    g = cotangent
    for k, (gw, gb) in reversed(list(enumerate(_layer_views(grad, d.arch)))):
        gw[:] = cache[k].T @ g
        gb[:] = g.sum(axis=0)
        if k > 0:
            g = (g @ layers[k][0].T) * (1.0 - cache[k] ** 2)
    return grad


def gathered_guided(d, x, y, t, omega):
    """Guidance e_null + omega * (e_y - e_null) for the (n, 2) points ``x``
    sharing label ``y`` and timestep ``t``, on the gemm forward with a fresh
    array per layer. Each forward's feature rows gather n time-embedding rows
    and scatter n one-hot entries; omega = 1 and omega = 0 return one forward."""
    n = len(x)

    def forward(label):
        onehot = np.zeros((n, NUM_CLASSES + 1))
        onehot[np.arange(n), np.full(n, label)] = 1.0
        h = np.concatenate([x, time_embedding(np.full(n, t), d.t_embed_dim), onehot], axis=1)
        for w, b in d.layers()[:-1]:
            h = np.tanh(h @ w + b)
        w, b = d.layers()[-1]
        return h @ w + b

    if omega == 1.0:
        return forward(y)
    e_null = forward(NULL_LABEL)
    if omega == 0.0:
        return e_null
    return e_null + omega * (forward(y) - e_null)


def train_by_steps(d, dataset, s, cfg):
    """Yield the pre-update loss of each training step, run one at a time:
    the step's four draws (indices, timesteps, noises, null-label mask), then
    ``loss_and_grad``, then ``adam_step``; DivergenceError at a non-finite
    loss, before that step's update."""
    points, labels = dataset
    rng = np.random.default_rng(cfg.seed)
    n = points.shape[0]
    for _ in range(cfg.steps):
        idx = rng.integers(0, n, size=min(cfg.batch_size, n))
        t = rng.integers(1, s.T + 1, size=idx.size)
        noise = rng.standard_normal((idx.size, POINT_DIM))
        y = np.where(rng.random(idx.size) < cfg.null_cond_prob, NULL_LABEL, labels[idx])
        loss, grad = loss_and_grad(d, s, points[idx], y, t, noise)
        if not math.isfinite(loss):
            raise DivergenceError(f"training loss is non-finite ({loss})")
        if d.opt_state is None:
            d.opt_state = AdamState.for_params(d.params)
        adam_step(d.params, grad, d.opt_state, cfg.learning_rate)
        yield loss

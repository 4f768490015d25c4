"""Executable acceptance suite: every release criterion as a timed check.

Each criterion function takes the shared fixtures (schedule, grid, dataset,
one trained model) and returns a result with a pass flag and a one-line
detail. ``run_all`` evaluates everything with a single master seed; the
CLI ``check`` subcommand prints one line per criterion and the pytest
suite asserts each result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import distill, experiments, latentops
from .config import ExperimentConfig
from .denoiser import Denoiser, TwoMarginalDataset, cfg_predict, loss_and_grad, train
from .errors import ConfigError
from .schedule import NoiseSchedule, TimestepSubsequence, build_subsequence

__all__ = ["CriterionResult", "Fixtures", "check_config", "build_fixtures", "run_all", "CRITERIA"]

MASTER_SEED = 7
FORM_STRIDES = (2, 5, 10)  # criterion 2's grids, beside criterion 1's stride-1 grid


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name} ({self.detail}; {self.seconds:.2f}s)"


@dataclass
class Fixtures:
    cfg: ExperimentConfig
    schedule: NoiseSchedule
    sub: TimestepSubsequence
    dataset: TwoMarginalDataset
    trained: Denoiser
    train_seconds: float


def check_config(cfg: ExperimentConfig) -> None:
    """ConfigError when cfg's schedule cannot hold the grids and the sdedit
    chain that the criteria fix, or when cfg's grid cannot be inverted;
    :func:`build_fixtures` calls it before it trains."""
    s = cfg.build_schedule()
    try:
        for stride in (1, *FORM_STRIDES):
            build_subsequence(s, stride, 0.02, 0.98)
    except ValueError:
        raise ConfigError(f"check builds grids of stride 1, 2, 5 and 10; the stride-{stride} "
                          f"grid does not fit in schedule.t = {s.T}") from None
    experiments.check_sdedit_schedule(cfg)
    experiments.check_roundtrip_grid(cfg)


def build_fixtures(cfg: ExperimentConfig | None = None) -> Fixtures:
    if cfg is None:
        cfg = ExperimentConfig()
    check_config(cfg)
    s = cfg.build_schedule()
    sub = cfg.build_subsequence(s)
    dataset, d = cfg.build_dataset(), cfg.build_model()
    t0 = time.perf_counter()
    train(d, dataset, s, cfg.training)
    train_seconds = time.perf_counter() - t0
    return Fixtures(
        cfg=cfg, schedule=s, sub=sub, dataset=dataset, trained=d, train_seconds=train_seconds
    )


def _random_denoiser(rng: np.random.Generator, hidden=(16, 16), scale=0.8) -> Denoiser:
    d = Denoiser.create(num_classes=2, t_embed_dim=4, hidden=hidden, seed=0)
    d.params[:] = scale * rng.standard_normal(d.params.size)
    return d


def _random_problem(rng: np.random.Generator, sub: TimestepSubsequence) -> distill.EditProblem:
    """Source point and label, identity-generator target, target label, omega."""
    return distill.EditProblem(
        x0_src=rng.standard_normal(2), y_src=int(rng.integers(1, 3)),
        gen=distill.identity_generator(rng.standard_normal(2)),
        y_tgt=int(rng.integers(1, 3)), omega=float(rng.uniform(0.0, 8.0)), sub=sub,
    )


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(a - b)) / denom


def criterion_1_coefficient_identity(fx: Fixtures) -> CriterionResult:
    """|gamma_t + delta_t sqrt(ab_t) - sqrt(ab_{t-1})| < 1e-10 for t in [2, T],
    and psi = chi = 0 across a stride-1 grid."""
    t0 = time.perf_counter()
    s = fx.schedule
    worst = float(np.abs(s.gamma[2:] + s.delta[2:] * s.sqrt_ab[2:] - s.sqrt_ab[1:-1]).max())
    sub1 = build_subsequence(s, 1, 0.02, 0.98)
    sampled = slice(sub1.lo_index, sub1.hi_index + 1)
    worst_coeff = float(np.abs([sub1.psi[sampled], sub1.chi[sampled]]).max())
    seconds = time.perf_counter() - t0
    passed = worst < 1e-10 and worst_coeff < 1e-10 and seconds < 1.0
    return CriterionResult(
        1,
        "posterior coefficient identity and stride-1 degeneracy",
        passed,
        f"max identity gap {worst:.2e}, max stride-1 coeff {worst_coeff:.2e}",
        seconds,
    )


def criterion_2_form_equivalence(fx: Fixtures) -> CriterionResult:
    """Expanded and latent-difference gradients agree to rel err < 1e-8
    over 100 random (model, draw, stride) configurations."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 20)
    s = fx.schedule
    worst = 0.0
    for _ in range(100):
        stride = int(rng.choice(FORM_STRIDES))
        sub = build_subsequence(s, stride, 0.02, 0.98)
        d = _random_denoiser(rng)
        prob = _random_problem(rng, sub)
        draw = latentops.draw_shared_noise(sub, rng)
        g1 = distill.objective_grad(prob, "pds", draw, d, s)
        g2 = distill.pds_grad_latent_form(prob, draw, d, s)
        worst = max(worst, _rel_err(g1, g2))
    seconds = time.perf_counter() - t0
    passed = worst < 1e-8 and seconds < 5.0
    return CriterionResult(
        2, "expanded vs latent-difference gradient forms", passed,
        f"max rel err {worst:.2e}", seconds,
    )


def criterion_3_zero_at_identity(fx: Fixtures) -> CriterionResult:
    """DDS and PDS gradients are exactly zero when source equals target."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 30)
    s, sub = fx.schedule, fx.sub
    all_zero = True
    for _ in range(100):
        d = _random_denoiser(rng)
        x0 = rng.standard_normal(2)
        y = int(rng.integers(1, 3))
        prob = distill.EditProblem(
            x0_src=x0.copy(),
            y_src=y,
            gen=distill.identity_generator(x0),
            y_tgt=y,
            omega=float(rng.uniform(0.0, 8.0)),
            sub=sub,
        )
        draw = latentops.draw_shared_noise(sub, rng)
        g_dds = distill.objective_grad(prob, "dds", draw, d, s)
        g_pds = distill.objective_grad(prob, "pds", draw, d, s)
        if not (np.all(g_dds == 0.0) and np.all(g_pds == 0.0)):
            all_zero = False
            break
    seconds = time.perf_counter() - t0
    return CriterionResult(
        3, "exact zero gradients at source == target", all_zero,
        "bitwise zero over 100 draws" if all_zero else "nonzero gradient found",
        seconds,
    )


def criterion_4_inversion_roundtrip(fx: Fixtures) -> CriterionResult:
    """invert -> replay reconstructs 50 random points to < 1e-8 under both
    the trained model and a random-weight model."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 40)
    random_model = Denoiser.create(seed=MASTER_SEED + 41, random_head=True)
    worst = max(
        err
        for d in (fx.trained, random_model)
        for _, _, err in experiments.run_roundtrip_report(fx.cfg, d, rng, 50)
    )
    seconds = time.perf_counter() - t0
    passed = worst < 1e-8 and seconds < 30.0
    return CriterionResult(
        4, "inversion round-trip", passed, f"max abs err {worst:.2e}", seconds
    )


def criterion_5_gradient_oracles(fx: Fixtures) -> CriterionResult:
    """(a) backprop vs central differences; (b) frozen-prediction objective
    gradient vs the expanded residual; (c) generator pullbacks vs render."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 50)
    s, sub = fx.schedule, fx.sub
    h = 1e-5

    # (a) training-loss gradient on a 3-example batch, full parameter vector
    d = _random_denoiser(rng, hidden=(8, 8), scale=0.6)
    x0 = rng.standard_normal((3, 2))
    y = rng.integers(0, 3, size=3)
    t = rng.integers(1, s.T + 1, size=3)
    eps = rng.standard_normal((3, 2))
    _, grad = loss_and_grad(d, s, x0, y, t, eps)
    fd = np.empty_like(grad)
    for j in range(d.params.size):
        d.params[j] += h
        up, _ = loss_and_grad(d, s, x0, y, t, eps)
        d.params[j] -= 2 * h
        dn, _ = loss_and_grad(d, s, x0, y, t, eps)
        d.params[j] += h
        fd[j] = (up - dn) / (2 * h)
    err_a = _rel_err(grad, fd)

    # (b) objective gradient with frozen predictions vs the expanded residual
    err_b = 0.0
    for _ in range(10):
        d2 = _random_denoiser(rng)
        i, noise = draw = latentops.draw_shared_noise(sub, rng)
        x_src = rng.standard_normal(2)
        x_tgt = rng.standard_normal(2)
        y_src, y_tgt = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        omega = float(rng.uniform(0.0, 8.0))
        prob = distill.EditProblem(
            x0_src=x_src, y_src=y_src, gen=distill.identity_generator(x_tgt),
            y_tgt=y_tgt, omega=omega, sub=sub,
        )
        residual = distill.objective_grad(prob, "pds", draw, d2, s)
        t_cur = int(sub.tau[i])
        t_prev = int(sub.tau[i - 1])
        gamma, delta, sigma = s.gamma[t_cur], s.delta[t_cur], s.sigma[t_cur]
        x_t_base = s.noised(x_tgt, t_cur, noise[1])
        eps_frozen = cfg_predict(d2, x_t_base, y_tgt, t_cur, omega)
        z_src = latentops.stochastic_latents(x_src, y_src, np.array([i]), noise[:1], noise[1:],
                                             d2, omega, s, sub)[0]

        def frozen_objective(x: np.ndarray) -> float:
            x_prev = s.noised(x, t_prev, noise[0]) if t_prev else x
            x_cur = s.noised(x, t_cur, noise[1])
            ab = s.alpha_bar[t_cur]
            x0_est = (x_cur - np.sqrt(1.0 - ab) * eps_frozen) / np.sqrt(ab)
            z_tgt = (x_prev - (gamma * x0_est + delta * x_cur)) / sigma
            diff = z_tgt - z_src
            return float(diff @ diff)

        fd_grad = np.empty(2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd_grad[j] = (frozen_objective(x_tgt + e) - frozen_objective(x_tgt - e)) / (2 * h)
        err_b = max(err_b, _rel_err(residual, fd_grad))

    # (c) pullbacks against finite differences of render
    err_c = 0.0
    gens = [
        distill.identity_generator(rng.standard_normal(2)),
        distill.affine_generator(
            rng.standard_normal((2, 2)), rng.standard_normal(2), rng.standard_normal(2)
        ),
    ]
    for gen in gens:
        n = gen.theta.size
        jac = np.empty((2, n))
        for j in range(n):
            gen.theta[j] += h
            up = gen.render()
            gen.theta[j] -= 2 * h
            dn = gen.render()
            gen.theta[j] += h
            jac[:, j] = (up - dn) / (2 * h)
        analytic = np.vstack([gen.pullback(np.eye(2)[k]) for k in range(2)])
        err_c = max(err_c, _rel_err(analytic, jac))

    seconds = time.perf_counter() - t0
    passed = err_a < 1e-4 and err_b < 1e-4 and err_c < 1e-6
    return CriterionResult(
        5, "gradient oracles",
        passed,
        f"backprop {err_a:.2e}, frozen-objective {err_b:.2e}, pullback {err_c:.2e}",
        seconds,
    )


def criterion_6_eps_prev_invariance(fx: Fixtures) -> CriterionResult:
    """The expanded gradient is bitwise invariant to the predecessor noise."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 60)
    s, sub = fx.schedule, fx.sub
    exact = True
    for _ in range(100):
        d = _random_denoiser(rng)
        prob = _random_problem(rng, sub)
        i, base = latentops.draw_shared_noise(sub, rng)
        grads = []
        for _ in range(3):
            noise = np.stack([rng.standard_normal(2), base[1]])
            grads.append(distill.objective_grad(prob, "pds", (i, noise), d, s))
        if not (np.array_equal(grads[0], grads[1]) and np.array_equal(grads[0], grads[2])):
            exact = False
            break
    seconds = time.perf_counter() - t0
    return CriterionResult(
        6, "predecessor-noise invariance", exact,
        "bitwise equal across 3 noises x 100 draws" if exact else "gradient changed",
        seconds,
    )


def criterion_7_figure2_ordering(fx: Fixtures) -> CriterionResult:
    """Latent matching ends closest to its start and to the boundary,
    within the time budget including training."""
    t0 = time.perf_counter()
    summary = experiments.run_figure2(fx.cfg, fx.trained)
    seconds = time.perf_counter() - t0
    agg = summary.aggregates
    pds, sds, dds = agg["pds"], agg["sds"], agg["dds"]
    total = seconds + fx.train_seconds
    passed = (
        summary.checks["pds_smallest_displacement"]
        and summary.checks["pds_nearest_boundary"]
        and total < 300.0
    )
    return CriterionResult(
        7, "trajectory-comparison ordering",
        passed,
        f"displacement pds {pds.mean_displacement:.2f} vs sds {sds.mean_displacement:.2f} / "
        f"dds {dds.mean_displacement:.2f}; |boundary dist| pds {pds.mean_abs_dist:.2f} vs "
        f"sds {sds.mean_abs_dist:.2f} / dds {dds.mean_abs_dist:.2f}; "
        f"total {total:.1f}s incl. training",
        seconds,
    )


def criterion_8_generative_sanity(fx: Fixtures) -> CriterionResult:
    """At least 90% of 200 class-1 samples land nearer the class-1 mean."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 80)
    samples = latentops.ancestral_sample_batch(
        fx.trained, 1, 200, fx.schedule, fx.cfg.training.sample_omega, rng
    )
    m1 = np.asarray(fx.dataset.class_params[0].mean)
    m2 = np.asarray(fx.dataset.class_params[1].mean)
    nearer = np.linalg.norm(samples - m1, axis=1) < np.linalg.norm(samples - m2, axis=1)
    frac = float(np.mean(nearer))
    seconds = time.perf_counter() - t0
    return CriterionResult(
        8, "generative sanity", frac >= 0.9, f"class-1 fraction {frac:.3f}", seconds
    )


def rank_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman's rho for tie-free samples: the Pearson correlation of the ranks."""
    rank_a = np.argsort(np.argsort(a)).astype(float)
    rank_b = np.argsort(np.argsort(b)).astype(float)
    return float(np.corrcoef(rank_a, rank_b)[0, 1])


def criterion_9_sdedit_limits(fx: Fixtures) -> CriterionResult:
    """Ratio 0 is an exact identity; displacement grows with the ratio."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 90)
    x0 = rng.standard_normal((1, 2))
    out = latentops.sdedit_batch(
        x0, 1, 0.0, fx.trained, fx.cfg.training.sample_omega, fx.schedule, rng
    )
    identity_exact = np.array_equal(out, x0)
    rows = experiments.run_sdedit_sweep(fx.cfg, fx.trained, 200, 10)
    ratios = np.array([r for r, _ in rows])
    means = np.array([m for _, m in rows])
    rho = rank_correlation(ratios, means)
    seconds = time.perf_counter() - t0
    passed = identity_exact and rho > 0.9
    return CriterionResult(
        9, "partial-noising limits", passed,
        f"identity exact: {identity_exact}, Spearman rho {rho:.3f}", seconds,
    )


CRITERIA = [
    criterion_1_coefficient_identity,
    criterion_2_form_equivalence,
    criterion_3_zero_at_identity,
    criterion_4_inversion_roundtrip,
    criterion_5_gradient_oracles,
    criterion_6_eps_prev_invariance,
    criterion_7_figure2_ordering,
    criterion_8_generative_sanity,
    criterion_9_sdedit_limits,
]


def run_all(cfg: ExperimentConfig | None = None) -> list[CriterionResult]:
    fx = build_fixtures(cfg)
    return [criterion(fx) for criterion in CRITERIA]

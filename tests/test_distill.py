import csv
import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from distill_lab import denoiser, distill
from distill_lab.distill import (
    OBJECTIVES,
    OPTIMIZERS,
    WEIGHT_MODES,
    EditProblem,
    Generator,
    TrajectoryRecord,
    affine_generator,
    identity_generator,
    objective_grad,
    optimize_batch,
    pds_grad_latent_form,
    resolve_weight,
)
from distill_lab import experiments
from distill_lab.experiments import CSV_BLOCK_ROWS, run_figure2, write_csv, write_trajectory_csv
from distill_lab.latentops import draw_shared_noise
from distill_lab.denoiser import Denoiser, cfg_predict, eps, _layer_views
from distill_lab.errors import DivergenceError
from distill_lab.optim import AdamState, adam_step
from distill_lab.schedule import build_subsequence
from references import one_latent, pds_objective, posterior_mean_pred


def constant_model(eps: np.ndarray) -> Denoiser:
    d = Denoiser.create(seed=0)
    w, b = _layer_views(d.params, d.arch)[-1]
    w[:] = 0.0
    b[:] = np.asarray(eps, dtype=float)
    return d


def rough_model(rng, hidden=(16, 16)) -> Denoiser:
    d = Denoiser.create(t_embed_dim=4, hidden=hidden, seed=0)
    d.params[:] = 0.7 * rng.standard_normal(d.params.size)
    return d


def make_problem(rng, sub, gen_point=None, src_point=None, y_src=1, y_tgt=2, omega=7.5):
    src = np.asarray(src_point if src_point is not None else rng.standard_normal(2), dtype=float)
    tgt = np.asarray(gen_point if gen_point is not None else rng.standard_normal(2), dtype=float)
    return EditProblem(
        x0_src=src, y_src=y_src, gen=identity_generator(tgt), y_tgt=y_tgt, omega=omega, sub=sub
    )


class TestGenerators:
    def test_identity_render_and_pullback(self):
        gen = identity_generator(np.array([1.0, -2.0]))
        assert np.array_equal(gen.render(), [1.0, -2.0])
        v = np.array([0.3, 0.4])
        assert np.array_equal(gen.pullback(v), v)

    def test_affine_render(self, rng):
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal(2)
        u = rng.standard_normal(2)
        gen = affine_generator(a, b, u)
        assert gen.render() == pytest.approx(a @ u + b, rel=1e-15)

    @pytest.mark.parametrize("u", [[1.0, 2.0, 3.0], [[1.0], [2.0]], 1.0])
    def test_affine_rejects_latent_of_wrong_shape(self, u):
        with pytest.raises(ValueError, match="latent u"):
            affine_generator(np.eye(2), np.zeros(2), np.array(u))

    @pytest.mark.parametrize("kind, theta, latent", [
        ("Identity", np.zeros(2), None),
        ("quadratic", np.zeros(2), None),
        ("identity", np.zeros(6), None),
        ("identity", np.zeros((1, 2)), None),
        ("affine", np.zeros(6), None),
        ("affine", np.zeros(2), np.zeros(2)),
        ("affine", np.zeros(6), np.zeros(3)),
    ])
    def test_rejects_unknown_kind_or_wrong_shape(self, kind, theta, latent):
        with pytest.raises(ValueError, match="generator"):
            Generator(kind, theta, latent)

    @pytest.mark.parametrize("kind", ["identity", "affine"])
    def test_pullback_matches_render_finite_differences(self, kind, rng):
        if kind == "identity":
            gen = identity_generator(rng.standard_normal(2))
        else:
            gen = affine_generator(
                rng.standard_normal((2, 2)), rng.standard_normal(2), rng.standard_normal(2)
            )
        h = 1e-6
        jac = np.empty((2, gen.theta.size))
        for j in range(gen.theta.size):
            gen.theta[j] += h
            up = gen.render()
            gen.theta[j] -= 2 * h
            dn = gen.render()
            gen.theta[j] += h
            jac[:, j] = (up - dn) / (2 * h)
        analytic = np.vstack([gen.pullback(np.eye(2)[k]) for k in range(2)])
        assert np.linalg.norm(analytic - jac) / np.linalg.norm(jac) < 1e-6

    def test_affine_pullback_contracts_cotangent(self, rng):
        # adjoint identity: <J v, w> == <v, J^T w> for random directions
        gen = affine_generator(
            rng.standard_normal((2, 2)), rng.standard_normal(2), rng.standard_normal(2)
        )
        w = rng.standard_normal(2)
        v = rng.standard_normal(6)
        jac = np.vstack([gen.pullback(np.eye(2)[k]) for k in range(2)])
        assert (jac @ v) @ w == pytest.approx(v @ gen.pullback(w), rel=1e-12)


class TestSdsGrad:
    def test_oracle_prediction_gives_zero(self, schedule, subsequence, rng):
        eps = rng.standard_normal(2)
        d = constant_model(eps)
        draw = (200, np.array([np.zeros(2), eps]))
        prob = make_problem(rng, subsequence, y_tgt=1, omega=1.0)
        grad = objective_grad(prob, "sds", draw, d, schedule)
        assert np.all(grad == 0.0)

    def test_identity_pullback_passes_residual(self, schedule, subsequence, rng):
        d = rough_model(rng)
        i, noise = draw = draw_shared_noise(subsequence, rng)
        prob = make_problem(rng, subsequence, y_tgt=2, omega=3.0)
        t = int(subsequence.tau[i])
        x_t = schedule.noised(prob.gen.render(), t, noise[1])
        w = 1.0 - schedule.alpha_bar[t]
        expected = w * (cfg_predict(d, x_t, 2, t, 3.0) - noise[1])
        got = objective_grad(prob, "sds", draw, d, schedule, "one_minus_alpha_bar")
        assert np.array_equal(got, expected)

    def test_on_distribution_residuals_shrink(
        self, trained_model, schedule, subsequence, default_config
    ):
        rng = np.random.default_rng(44)
        m2 = np.asarray(default_config.class_params()[1].mean)

        def mean_norm(point):
            prob = make_problem(None, subsequence, gen_point=point, src_point=point, omega=1.0)
            total = 0.0
            for _ in range(100):
                draw = draw_shared_noise(subsequence, rng)
                total += np.linalg.norm(objective_grad(prob, "sds", draw, trained_model, schedule))
            return total / 100

        assert mean_norm(m2) < mean_norm(m2 + np.array([5.0, 3.0]))


class TestDdsGrad:
    def test_exact_zero_at_identity(self, schedule, subsequence, rng):
        for _ in range(20):
            d = rough_model(rng)
            x0 = rng.standard_normal(2)
            prob = make_problem(rng, subsequence, gen_point=x0, src_point=x0, y_src=1, y_tgt=1)
            draw = draw_shared_noise(subsequence, rng)
            grad = objective_grad(prob, "dds", draw, d, schedule)
            assert np.all(grad == 0.0)

    def test_swapping_roles_negates_residual(self, schedule, subsequence, rng):
        d = rough_model(rng)
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        draw = draw_shared_noise(subsequence, rng)
        fwd = objective_grad(make_problem(rng, subsequence, gen_point=b, src_point=a, y_src=1,
                                          y_tgt=2), "dds", draw, d, schedule)
        rev = objective_grad(make_problem(rng, subsequence, gen_point=a, src_point=b, y_src=2,
                                          y_tgt=1), "dds", draw, d, schedule)
        assert np.array_equal(fwd, -rev)

    def test_residual_equals_two_direct_predictions(self, schedule, subsequence, rng):
        d = rough_model(rng)
        prob = make_problem(rng, subsequence, omega=4.0)
        i, noise = draw = draw_shared_noise(subsequence, rng)
        t = int(subsequence.tau[i])
        x_t_tgt = schedule.noised(prob.gen.render(), t, noise[1])
        x_t_src = schedule.noised(prob.x0_src, t, noise[1])
        expected = cfg_predict(d, x_t_tgt, prob.y_tgt, t, 4.0) - cfg_predict(
            d, x_t_src, prob.y_src, t, 4.0
        )
        assert np.array_equal(objective_grad(prob, "dds", draw, d, schedule), expected)


class TestPdsGrad:
    def test_exact_zero_at_identity(self, schedule, subsequence, rng):
        for _ in range(20):
            d = rough_model(rng)
            x0 = rng.standard_normal(2)
            prob = make_problem(rng, subsequence, gen_point=x0, src_point=x0, y_src=2, y_tgt=2)
            draw = draw_shared_noise(subsequence, rng)
            assert np.all(objective_grad(prob, "pds", draw, d, schedule) == 0.0)

    def test_condition_blind_model_leaves_pure_attraction(self, schedule, subsequence, rng):
        # constant predictions erase the prediction difference, leaving
        # psi * (x0_tgt - x0_src) through the pullback
        d = constant_model(np.array([0.2, -0.4]))
        prob = make_problem(rng, subsequence)
        draw = draw_shared_noise(subsequence, rng)
        expected = prob.sub.psi[draw[0]] * (prob.gen.render() - prob.x0_src)
        assert objective_grad(prob, "pds", draw, d, schedule) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("stride", [2, 5, 10])
    def test_equals_latent_form(self, schedule, stride, rng):
        sub = build_subsequence(schedule, stride, 0.02, 0.98)
        worst = 0.0
        for _ in range(30):
            d = rough_model(rng)
            prob = make_problem(rng, sub, omega=float(rng.uniform(0, 8)))
            draw = draw_shared_noise(sub, rng)
            g1 = objective_grad(prob, "pds", draw, d, schedule)
            g2 = pds_grad_latent_form(prob, draw, d, schedule)
            worst = max(worst, np.linalg.norm(g1 - g2) / max(np.linalg.norm(g1), 1e-300))
        assert worst < 1e-8

    def test_consecutive_grid_gives_identically_zero_gradient(self, schedule, rng):
        # psi = chi = 0 on a stride-1 grid, so the gradient vanishes even
        # for distinct source/target pairs
        sub1 = build_subsequence(schedule, 1, 0.02, 0.98)
        for _ in range(10):
            d = rough_model(rng)
            prob = make_problem(rng, sub1)
            draw = draw_shared_noise(sub1, rng)
            assert np.all(objective_grad(prob, "pds", draw, d, schedule) == 0.0)

    def test_exactly_invariant_to_predecessor_noise(self, schedule, subsequence, rng):
        d = rough_model(rng)
        prob = make_problem(rng, subsequence)
        i, base = draw_shared_noise(subsequence, rng)
        grads = []
        for _ in range(3):
            draw = (i, np.array([rng.standard_normal(2), base[1]]))
            grads.append(objective_grad(prob, "pds", draw, d, schedule))
        assert np.array_equal(grads[0], grads[1])
        assert np.array_equal(grads[0], grads[2])

    def test_predecessor_contribution_cancels_in_latent_difference(
        self, trained_model, schedule, subsequence, rng
    ):
        x_src, x_tgt = np.array([-2.0, 0.3]), np.array([0.5, 0.1])
        i, base = draw_shared_noise(subsequence, rng)
        diffs = []
        for _ in range(3):
            draw = (i, np.array([rng.standard_normal(2), base[1]]))
            z_tgt = one_latent(x_tgt, 2, draw, trained_model, 7.5, schedule, subsequence)
            z_src = one_latent(x_src, 1, draw, trained_model, 7.5, schedule, subsequence)
            diffs.append(z_tgt - z_src)
        assert np.max(np.abs(diffs[0] - diffs[1])) < 1e-9
        assert np.max(np.abs(diffs[0] - diffs[2])) < 1e-9


class TestPdsObjective:
    def test_zero_at_identity(self, schedule, subsequence, rng):
        d = rough_model(rng)
        x0 = rng.standard_normal(2)
        prob = make_problem(rng, subsequence, gen_point=x0, src_point=x0, y_src=1, y_tgt=1)
        draw = draw_shared_noise(subsequence, rng)
        assert pds_objective(prob, draw, d, schedule) == 0.0

    def test_nonnegative(self, schedule, subsequence, rng):
        for _ in range(20):
            d = rough_model(rng)
            prob = make_problem(rng, subsequence)
            draw = draw_shared_noise(subsequence, rng)
            assert pds_objective(prob, draw, d, schedule) >= 0.0

    def test_matches_expanded_recomputation(self, schedule, subsequence, rng):
        # direct recomputation: sigma^-2 || (x_prev diff) - (mu diff) ||^2
        d = rough_model(rng)
        prob = make_problem(rng, subsequence, omega=3.0)
        i, noise = draw = draw_shared_noise(subsequence, rng)
        t_cur = int(subsequence.tau[i])
        t_prev = int(subsequence.tau[i - 1])
        x_tgt = prob.gen.render()
        xp_t = schedule.noised(x_tgt, t_prev, noise[0])
        xp_s = schedule.noised(prob.x0_src, t_prev, noise[0])
        xc_t = schedule.noised(x_tgt, t_cur, noise[1])
        xc_s = schedule.noised(prob.x0_src, t_cur, noise[1])
        mu_t = posterior_mean_pred(xc_t, prob.y_tgt, t_cur, d, 3.0, schedule)
        mu_s = posterior_mean_pred(xc_s, prob.y_src, t_cur, d, 3.0, schedule)
        diff = (xp_t - xp_s) - (mu_t - mu_s)
        expected = float(diff @ diff) / schedule.sigma[t_cur] ** 2
        assert pds_objective(prob, draw, d, schedule) == pytest.approx(expected, rel=1e-9)

    def test_frozen_prediction_gradient_matches_residual(self, schedule, subsequence, rng):
        d = rough_model(rng)
        x_tgt = rng.standard_normal(2)
        prob = make_problem(rng, subsequence, gen_point=x_tgt, omega=2.0)
        i, noise = draw = draw_shared_noise(subsequence, rng)
        residual = objective_grad(prob, "pds", draw, d, schedule)
        t_cur = int(subsequence.tau[i])
        t_prev = int(subsequence.tau[i - 1])
        gamma, delta, sigma = schedule.gamma[t_cur], schedule.delta[t_cur], schedule.sigma[t_cur]
        x_t_base = schedule.noised(x_tgt, t_cur, noise[1])
        eps_frozen = cfg_predict(d, x_t_base, prob.y_tgt, t_cur, 2.0)
        z_src = one_latent(prob.x0_src, prob.y_src, draw, d, 2.0, schedule, subsequence)

        def frozen(x):
            x_prev = schedule.noised(x, t_prev, noise[0])
            x_cur = schedule.noised(x, t_cur, noise[1])
            ab = schedule.alpha_bar[t_cur]
            est = (x_cur - np.sqrt(1 - ab) * eps_frozen) / np.sqrt(ab)
            z_tgt = (x_prev - (gamma * est + delta * x_cur)) / sigma
            diff = z_tgt - z_src
            return float(diff @ diff)

        h = 1e-5
        fd = np.array(
            [
                (frozen(x_tgt + h * np.eye(2)[j]) - frozen(x_tgt - h * np.eye(2)[j])) / (2 * h)
                for j in range(2)
            ]
        )
        assert np.linalg.norm(residual - fd) / np.linalg.norm(fd) < 1e-4


class TestObjectiveGrad:
    @pytest.mark.parametrize("kind", ["identity", "affine"])
    @pytest.mark.parametrize("w_mode", WEIGHT_MODES)
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_is_the_step_optimize_batch_applies(
        self, trained_model, schedule, subsequence, objective, w_mode, kind
    ):
        # the gradient the acceptance criteria certify is the one figure2
        # applies: one gd step from the same seed moves theta by lr times it
        src = np.array([-2.0, 0.3])
        a = np.array([[1.1, 0.2], [-0.1, 0.9]])
        gen = identity_generator(src) if kind == "identity" else affine_generator(a, [0.4, 0.1], src)
        prob = EditProblem(x0_src=src, y_src=1, gen=gen, y_tgt=2, omega=7.5, sub=subsequence)
        seed, lr = 29, 0.01
        draw = draw_shared_noise(subsequence, np.random.default_rng(seed))
        grad = objective_grad(prob, objective, draw, trained_model, schedule, w_mode)
        (rec,) = optimize_batch([(prob, objective, seed)], 1, lr, trained_model, schedule, w_mode)
        assert rec.theta[1].tobytes() == (rec.theta[0] - lr * grad).tobytes()
        assert rec.grad_norm[1] == np.linalg.norm(grad)

    @pytest.mark.parametrize("objective", [*OBJECTIVES, "pds latent form"])
    def test_rejects_index_outside_sampling_range(self, schedule, subsequence, rng, objective):
        # criterion 2 compares pds's two forms, so both accept the same indices
        d = rough_model(rng)
        prob = make_problem(rng, subsequence)
        for i in (subsequence.lo_index - 1, subsequence.hi_index + 1):
            draw = (i, np.zeros((2, 2)))
            with pytest.raises(ValueError, match="sampling range"):
                if objective in OBJECTIVES:
                    objective_grad(prob, objective, draw, d, schedule)
                else:
                    pds_grad_latent_form(prob, draw, d, schedule)

    def test_rejects_unknown_objective_and_weight_mode(self, schedule, subsequence, rng):
        d = rough_model(rng)
        prob = make_problem(rng, subsequence)
        draw = draw_shared_noise(subsequence, rng)
        with pytest.raises(ValueError, match="objective"):
            objective_grad(prob, "vsd", draw, d, schedule)
        for objective in OBJECTIVES:
            with pytest.raises(ValueError, match="weight mode"):
                objective_grad(prob, objective, draw, d, schedule, "quadratic")

    def test_non_finite_residual_raises(self, schedule, subsequence, rng):
        bad = Denoiser.create(seed=1)
        bad.params[:] = np.nan
        draw = draw_shared_noise(subsequence, rng)
        with pytest.raises(DivergenceError, match="non-finite residual"):
            objective_grad(make_problem(rng, subsequence), "dds", draw, bad, schedule)


class TestOptimize:
    def test_zero_steps_records_initial_state_only(self, trained_model, schedule, subsequence, rng):
        prob = make_problem(rng, subsequence, gen_point=[-2.0, 0.0], src_point=[-2.0, 0.0])
        (rec,) = optimize_batch([(prob, "pds", 5)], 0, 0.01, trained_model, schedule)
        assert len(rec.theta) == len(rec.x0_tgt) == len(rec.grad_norm) == 1
        assert rec.grad_norm[0] == 0.0
        assert not rec.diverged

    def test_identical_seeds_identical_records(self, trained_model, schedule, subsequence, rng):
        prob = make_problem(rng, subsequence, gen_point=[-2.0, 0.1], src_point=[-2.0, 0.1])
        (a,) = optimize_batch([(prob, "dds", 99)], 25, 0.01, trained_model, schedule)
        (b,) = optimize_batch([(prob, "dds", 99)], 25, 0.01, trained_model, schedule)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.grad_norm, b.grad_norm)

    def test_does_not_mutate_input_problem(self, trained_model, schedule, subsequence, rng):
        start = np.array([-2.0, 0.1])
        prob = make_problem(rng, subsequence, gen_point=start, src_point=start)
        optimize_batch([(prob, "sds", 1)], 10, 0.05, trained_model, schedule)
        assert np.array_equal(prob.gen.theta, start)

    def test_divergence_flags_partial_record(self, trained_model, schedule, subsequence, rng):
        # an update large enough to overflow theta must stop the run
        prob = make_problem(rng, subsequence, gen_point=[-2.0, 0.0], src_point=[-2.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            (rec,) = optimize_batch([(prob, "sds", 3)], 50, 1e308, trained_model, schedule)
        assert rec.diverged
        assert len(rec.theta) < 51

    def test_non_finite_prediction_flags_partial_record(self, schedule, subsequence, rng):
        bad = Denoiser.create(seed=1)
        bad.params[:] = np.nan
        prob = make_problem(rng, subsequence, gen_point=[-2.0, 0.0], src_point=[1.0, 1.0])
        (rec,) = optimize_batch([(prob, "dds", 3)], 10, 0.01, bad, schedule)
        assert rec.diverged
        assert len(rec.theta) == 1

    def test_adam_option_runs(self, trained_model, schedule, subsequence, rng):
        prob = make_problem(rng, subsequence, gen_point=[-2.0, 0.0], src_point=[-2.0, 0.0])
        (rec,) = optimize_batch([(prob, "pds", 7)], 20, 0.05, trained_model, schedule,
                                optimizer="adam")
        assert len(rec.theta) == 21
        assert not rec.diverged

    def test_rejects_unknown_objective(self, trained_model, schedule, subsequence, rng):
        prob = make_problem(rng, subsequence)
        with pytest.raises(ValueError):
            optimize_batch([(prob, "vsd", 1)], 5, 0.01, trained_model, schedule)


def reference_optimize(prob, objective, steps, lr, seed, d, s, w_mode="const", optimizer="gd"):
    """One run, one step at a time, every prediction evaluated alone."""
    rng = np.random.default_rng(seed)
    gen = replace(prob.gen, theta=prob.gen.theta.copy())
    thetas, points, norms = [gen.theta.copy()], [gen.render()], [0.0]
    diverged = False
    adam = AdamState.for_params(gen.theta) if optimizer == "adam" else None
    for k in range(1, steps + 1):
        i, noise = draw_shared_noise(prob.sub, rng)
        t = int(prob.sub.tau[i])
        w_t = 1.0 if w_mode == "const" else float(1.0 - s.alpha_bar[t])
        x0 = gen.render()
        e_tgt = cfg_predict(d, s.noised(x0, t, noise[1]), prob.y_tgt, t, prob.omega)
        if objective == "sds":
            e_ref = noise[1]
        else:
            x_t_src = s.noised(prob.x0_src, t, noise[1])
            e_ref = cfg_predict(d, x_t_src, prob.y_src, t, prob.omega)
        if not (np.all(np.isfinite(e_tgt)) and np.all(np.isfinite(e_ref))):
            diverged = True
            break
        if objective == "pds":
            residual = prob.sub.psi[i] * (x0 - prob.x0_src) + prob.sub.chi[i] * (e_tgt - e_ref)
        else:
            residual = w_t * (e_tgt - e_ref)
        grad = gen.pullback(residual)
        if adam is not None:
            adam_step(gen.theta, grad, adam, lr)
        else:
            gen.theta -= lr * grad
        if not np.all(np.isfinite(gen.theta)):
            diverged = True
            break
        thetas.append(gen.theta.copy())
        points.append(gen.render())
        norms.append(float(np.linalg.norm(grad)))
    return TrajectoryRecord(objective_kind=objective, seed=seed, theta=np.array(thetas),
                            x0_tgt=np.array(points), grad_norm=np.array(norms), diverged=diverged)


def record_bits(rec):
    assert len(rec.theta) == len(rec.x0_tgt) == len(rec.grad_norm)
    rows = [
        (step, rec.theta[step].tobytes(), rec.x0_tgt[step].tobytes(),
         np.float64(rec.grad_norm[step]).tobytes())
        for step in range(len(rec.theta))
    ]
    return rec.objective_kind, rec.seed, rec.diverged, rows


def mixed_jobs(sub, rng, omega=7.5):
    """sds, dds and pds on identity and affine generators, two seeds each."""
    jobs = []
    for seed in (3, 41):
        for objective in ("sds", "dds", "pds"):
            src = np.array([-2.0, 0.0]) + 0.5 * rng.standard_normal(2)
            a = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
            gens = [identity_generator(src), affine_generator(a, src - a @ src, src)]
            for gen in gens:
                prob = EditProblem(x0_src=src, y_src=1, gen=gen, y_tgt=2, omega=omega, sub=sub)
                jobs.append((prob, objective, seed))
    return jobs


def spring_blowup(sub, frac):
    """The grid with an infinite spring coefficient from ``frac`` of its
    sampling range up, so a pds job's theta goes non-finite at its first
    draw there."""
    psi = sub.psi.copy()
    psi[sub.lo_index + int(frac * (sub.hi_index - sub.lo_index)) :] = np.inf
    return replace(sub, psi=psi)


class TestOptimizeBatch:
    """Lockstep records equal the per-job reference loop bit for bit."""

    @pytest.mark.parametrize("optimizer", ["gd", "adam"])
    @pytest.mark.parametrize("w_mode", ["const", "one_minus_alpha_bar"])
    def test_equals_per_job_reference(
        self, trained_model, schedule, subsequence, w_mode, optimizer
    ):
        jobs = mixed_jobs(subsequence, np.random.default_rng(5))
        lr = 0.05 if optimizer == "adam" else 0.01
        got = optimize_batch(jobs, 12, lr, trained_model, schedule, w_mode, optimizer)
        assert len(got) == len(jobs)
        for (prob, objective, seed), rec in zip(jobs, got):
            ref = reference_optimize(prob, objective, 12, lr, seed, trained_model, schedule,
                                     w_mode, optimizer)
            assert record_bits(rec) == record_bits(ref)
            assert len(rec.theta) == 13 and not rec.diverged

    def test_zero_steps(self, trained_model, schedule, subsequence):
        jobs = mixed_jobs(subsequence, np.random.default_rng(6))
        got = optimize_batch(jobs, 0, 0.01, trained_model, schedule)
        for (prob, objective, seed), rec in zip(jobs, got):
            ref = reference_optimize(prob, objective, 0, 0.01, seed, trained_model, schedule)
            assert record_bits(rec) == record_bits(ref)
            assert len(rec.theta) == 1

    def test_diverging_job_leaves_the_others_unchanged(self, trained_model, schedule, subsequence):
        # an infinite spring coefficient on the upper half of the sampling
        # range sends this pds job's theta non-finite at its first draw there
        psi = subsequence.psi.copy()
        psi[(subsequence.lo_index + subsequence.hi_index) // 2 :] = np.inf
        bad_sub = replace(subsequence, psi=psi)
        jobs = mixed_jobs(subsequence, np.random.default_rng(7))
        prob, _, _ = jobs[0]
        jobs.insert(3, (replace(prob, sub=bad_sub), "pds", 11))
        with np.errstate(invalid="ignore", over="ignore"):
            got = optimize_batch(jobs, 20, 0.01, trained_model, schedule)
            refs = [
                reference_optimize(prob, objective, 20, 0.01, seed, trained_model, schedule)
                for prob, objective, seed in jobs
            ]
        assert [rec.diverged for rec in got] == [k == 3 for k in range(len(jobs))]
        assert len(got[3].theta) == 3  # seed 11 first draws the upper half at step 3
        for rec, ref in zip(got, refs):
            assert record_bits(rec) == record_bits(ref)

    def test_a_job_alone_equals_its_batch_record(self, trained_model, schedule, subsequence):
        jobs = mixed_jobs(subsequence, np.random.default_rng(8))
        batch = optimize_batch(jobs, 6, 0.01, trained_model, schedule)
        for job, rec in zip(jobs, batch):
            (alone,) = optimize_batch([job], 6, 0.01, trained_model, schedule)
            assert record_bits(alone) == record_bits(rec)

    def test_shared_draw_survives_a_diverging_member(
        self, trained_model, schedule, subsequence, monkeypatch
    ):
        # same seed and grid: one stream serves both jobs. The pds job starts
        # at 1e308 with its source at -1e308, so its spring term overflows and
        # it diverges at step 1; the sds job must keep drawing the same stream.
        huge = np.array([1e308, 1e308])
        bad = EditProblem(x0_src=-huge, y_src=1, gen=identity_generator(huge), y_tgt=2,
                          omega=7.5, sub=subsequence)
        good = make_problem(np.random.default_rng(10), subsequence, gen_point=[-2.0, 0.2],
                            src_point=[-2.0, 0.2])
        jobs = [(bad, "pds", 5), (good, "sds", 5)]
        draws = []

        def counted(sub, rng):
            draws.append(sub)
            return draw_shared_noise(sub, rng)

        monkeypatch.setattr(distill, "draw_shared_noise", counted)
        with np.errstate(over="ignore", invalid="ignore"):
            got = optimize_batch(jobs, 15, 0.01, trained_model, schedule)
            refs = [
                reference_optimize(prob, objective, 15, 0.01, seed, trained_model, schedule)
                for prob, objective, seed in jobs
            ]
        assert len(draws) == 15
        assert got[0].diverged and len(got[0].theta) == 1
        assert not got[1].diverged and len(got[1].theta) == 16
        for rec, ref in zip(got, refs):
            assert record_bits(rec) == record_bits(ref)

    def test_adam_job_diverging_mid_run_among_mixed_kinds(
        self, trained_model, schedule, subsequence
    ):
        # an affine pds job under Adam meets an infinite spring at its first
        # upper-half draw; identity and affine jobs around it keep their bits
        jobs = mixed_jobs(subsequence, np.random.default_rng(13))
        prob, _, _ = jobs[1]
        assert prob.gen.kind == "affine"
        jobs.insert(5, (replace(prob, sub=spring_blowup(subsequence, 0.5)), "pds", 11))
        with np.errstate(invalid="ignore", over="ignore"):
            got = optimize_batch(jobs, 20, 0.05, trained_model, schedule, optimizer="adam")
            refs = [
                reference_optimize(prob, objective, 20, 0.05, seed, trained_model, schedule,
                                   optimizer="adam")
                for prob, objective, seed in jobs
            ]
        assert [rec.diverged for rec in got] == [k == 5 for k in range(len(jobs))]
        assert len(got[5].theta) == 3
        for rec, ref in zip(got, refs):
            assert record_bits(rec) == record_bits(ref)

    @staticmethod
    def jobs_diverging_at_steps_3_and_9(sub):
        """The mixed jobs with two pds jobs inserted at 2 and 3 that meet an
        infinite spring at steps 3 and 9."""
        jobs = mixed_jobs(sub, np.random.default_rng(14))
        prob, _, _ = jobs[0]
        bad = replace(prob, sub=spring_blowup(sub, 0.8))
        jobs[2:2] = [(bad, "pds", 21), (bad, "pds", 22)]
        return jobs

    def test_jobs_diverging_at_different_steps(self, trained_model, schedule, subsequence):
        jobs = self.jobs_diverging_at_steps_3_and_9(subsequence)
        with np.errstate(invalid="ignore", over="ignore"):
            got = optimize_batch(jobs, 30, 0.01, trained_model, schedule)
            refs = [
                reference_optimize(prob, objective, 30, 0.01, seed, trained_model, schedule)
                for prob, objective, seed in jobs
            ]
        assert [rec.diverged for rec in got] == [k in (2, 3) for k in range(len(jobs))]
        assert (len(got[2].theta), len(got[3].theta)) == (3, 9)
        for rec, ref in zip(got, refs):
            assert record_bits(rec) == record_bits(ref)

    def test_one_row_plan_per_call(self, trained_model, schedule, subsequence, monkeypatch):
        # jobs flagged at steps 3 and 9 stay in the batch: the plan is not rebuilt
        jobs = self.jobs_diverging_at_steps_3_and_9(subsequence)
        plans, real = [], distill._row_plan

        def counted(*args):
            plans.append(args)
            return real(*args)

        monkeypatch.setattr(distill, "_row_plan", counted)
        for optimizer in OPTIMIZERS:
            plans.clear()
            with np.errstate(invalid="ignore", over="ignore"):
                got = optimize_batch(jobs, 30, 0.01, trained_model, schedule, optimizer=optimizer)
            assert [rec.diverged for rec in got] == [k in (2, 3) for k in range(len(jobs))]
            assert len(plans) == 1

    def test_labels_are_checked_once_per_call(
        self, trained_model, schedule, subsequence, monkeypatch
    ):
        # every step's eps call reads one label plan, checked when it is built
        checks, evals, real_plan, real_eps = [], [], denoiser.LabelPlan.__init__, distill.eps
        monkeypatch.setattr(denoiser.LabelPlan, "__init__",
                            lambda *a: checks.append(a) or real_plan(*a))
        monkeypatch.setattr(distill, "eps", lambda *a: evals.append(a) or real_eps(*a))
        jobs = mixed_jobs(subsequence, np.random.default_rng(15))
        for optimizer in OPTIMIZERS:
            checks.clear()
            evals.clear()
            optimize_batch(jobs, 12, 0.01, trained_model, schedule, optimizer=optimizer)
            assert (len(checks), len(evals)) == (1, 12)

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_nan_start_is_flagged_without_a_signal(
        self, trained_model, schedule, subsequence, optimizer
    ):
        # no errstate: a floating-point signal from the NaN row would raise.
        # The NaN job shares its seed, grid and source with the dds jobs at 2, 3.
        jobs = mixed_jobs(subsequence, np.random.default_rng(20))
        prob, _, seed = jobs[2]
        nan_job = (replace(prob, gen=identity_generator(np.array([np.nan, 0.0]))), "pds", seed)
        jobs.insert(4, nan_job)
        lr = 0.05 if optimizer == "adam" else 0.01
        got = optimize_batch(jobs, 30, lr, trained_model, schedule, optimizer=optimizer)
        assert got[4].diverged and len(got[4].theta) == 1
        assert [rec.diverged for rec in got] == [k == 4 for k in range(len(jobs))]
        for k, ((prob, objective, seed), rec) in enumerate(zip(jobs, got)):
            if k != 4:
                ref = reference_optimize(prob, objective, 30, lr, seed, trained_model, schedule,
                                         optimizer=optimizer)
                assert record_bits(rec) == record_bits(ref)

    def test_every_job_diverged_stops_the_loop(
        self, schedule, subsequence, monkeypatch
    ):
        bad = Denoiser.create(seed=1)
        bad.params[:] = np.nan
        jobs = mixed_jobs(subsequence, np.random.default_rng(15))
        draws = []

        def counted(sub, rng):
            draws.append(sub)
            return draw_shared_noise(sub, rng)

        monkeypatch.setattr(distill, "draw_shared_noise", counted)
        for optimizer in OPTIMIZERS:
            draws.clear()
            got = optimize_batch(jobs, 25, 0.01, bad, schedule, optimizer=optimizer)
            assert len(draws) == 2  # one step, one draw for each of the two seeds
            for (prob, objective, seed), rec in zip(jobs, got):
                ref = reference_optimize(prob, objective, 25, 0.01, seed, bad, schedule,
                                         optimizer=optimizer)
                assert rec.diverged and len(rec.theta) == 1
                assert record_bits(rec) == record_bits(ref)

    @pytest.mark.parametrize("copies", [1, 2])
    def test_array_calls_per_step_do_not_grow_with_jobs(
        self, trained_model, schedule, subsequence, monkeypatch, copies
    ):
        # 12 (or 24) jobs over two generator kinds: each row function and
        # adam_step runs at most once per kind and step, never once per job
        jobs = mixed_jobs(subsequence, np.random.default_rng(16)) * copies
        kinds = len({prob.gen.kind for prob, _, _ in jobs})
        calls = dict.fromkeys(["render_rows", "pullback_rows", "adam_step"], 0)
        for name in calls:
            fn = getattr(distill, name)

            def counted(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(distill, name, counted)
        steps = 7
        optimize_batch(jobs, steps, 0.05, trained_model, schedule, optimizer="adam")
        assert len(jobs) == 12 * copies and kinds == 2
        # render_rows also draws row 0 of the history, once per kind
        assert calls["render_rows"] <= kinds * (steps + 1)
        assert calls["pullback_rows"] <= kinds * steps
        assert calls["adam_step"] <= kinds * steps

    @staticmethod
    def eps_rows(monkeypatch):
        """Rows handed to ``eps`` by distill, as a one-item list that grows."""
        rows = [0]

        def counted(d, x, y, t, omega):
            rows[0] += len(x)
            return eps(d, x, y, t, omega)

        monkeypatch.setattr(distill, "eps", counted)
        return rows

    @staticmethod
    def assert_matches_reference(jobs, steps, d, s):
        got = optimize_batch(jobs, steps, 0.01, d, s)
        for (prob, objective, seed), rec in zip(jobs, got):
            ref = reference_optimize(prob, objective, steps, 0.01, seed, d, s)
            assert record_bits(rec) == record_bits(ref)
        return got

    def test_one_source_row_per_seed_grid_and_source(
        self, trained_model, schedule, subsequence, monkeypatch
    ):
        prob = make_problem(np.random.default_rng(18), subsequence, gen_point=[-2.0, 0.3],
                            src_point=[-2.1, 0.2])
        jobs = [(prob, objective, 4) for objective in ("sds", "dds", "pds")]
        rows = self.eps_rows(monkeypatch)
        self.assert_matches_reference(jobs, 9, trained_model, schedule)
        # three target rows and one source row per step
        assert rows[0] == 9 * 4

    @pytest.mark.parametrize("differs", ["y_src", "x0_src", "negative_zero", "grid"])
    def test_no_shared_source_row_when_the_source_side_differs(
        self, trained_model, schedule, subsequence, monkeypatch, differs
    ):
        prob = make_problem(np.random.default_rng(19), subsequence, gen_point=[0.0, 0.3],
                            src_point=[0.0, 0.2])
        if differs == "y_src":
            other = replace(prob, y_src=2)
        elif differs == "x0_src":
            other = replace(prob, x0_src=prob.x0_src + [0.0, 1e-12])
        elif differs == "negative_zero":
            other = replace(prob, x0_src=np.array([-0.0, 0.2]))
        else:
            # the same sampling range, hence the same stream, on other timesteps
            sub = build_subsequence(schedule, 1, 0.01, 0.49)
            assert (sub.lo_index, sub.hi_index) == (subsequence.lo_index, subsequence.hi_index)
            other = replace(prob, sub=sub)
        jobs = [(prob, "dds", 4), (other, "pds", 4)]
        rows = self.eps_rows(monkeypatch)
        self.assert_matches_reference(jobs, 9, trained_model, schedule)
        assert rows[0] == 9 * 4

    def test_shared_source_row_outlives_a_diverging_member(
        self, trained_model, schedule, subsequence, monkeypatch
    ):
        # an affine dds job whose latent input is huge: its first update
        # sends A @ u to infinity, so it is flagged at step 2; the pds job on
        # its seed, grid and source keeps reading the shared source row
        src = np.array([-2.0, 0.2])
        a, u = np.eye(2), np.array([1e300, 0.0])
        blowup = EditProblem(x0_src=src, y_src=1, gen=affine_generator(a, src - a @ u, u),
                             y_tgt=2, omega=7.5, sub=subsequence)
        partner = make_problem(None, subsequence, gen_point=[-2.0, 0.4], src_point=src)
        jobs = [(blowup, "dds", 6), (partner, "pds", 6)]
        rows = self.eps_rows(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            got = self.assert_matches_reference(jobs, 10, trained_model, schedule)
        assert got[0].diverged and len(got[0].theta) == 2
        assert not got[1].diverged and len(got[1].theta) == 11
        # two target rows and one source row on every step: the flagged job
        # stays in the batch, held at NaN
        assert rows[0] == 10 * 3

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_flagged_job_signals_as_its_reference(
        self, trained_model, schedule, subsequence, optimizer
    ):
        # at lr 1e308 these jobs overflow on step 2 (identity pds) and step 1
        # (affine sds on a huge latent); held at NaN, a flagged job raises no
        # floating-point signal that the reference loop, which stops, does not
        src = np.array([-2.0, 0.2])
        a, u = np.eye(2), np.array([1e300, 0.0])
        point = make_problem(None, subsequence, gen_point=[-2.0, 0.0], src_point=[-2.0, 0.0])
        affine = EditProblem(x0_src=src, y_src=1, gen=affine_generator(a, src - a @ u, u),
                             y_tgt=2, omega=7.5, sub=subsequence)
        jobs = [(point, "pds", 3), (affine, "sds", 3)]

        def signals(run):
            log = []
            with np.errstate(all="call", call=lambda kind, flag: log.append(kind)):
                return run(), log

        for job, length in zip(jobs, (2, 1)):
            (got,), got_log = signals(lambda: optimize_batch(
                [job], 20, 1e308, trained_model, schedule, optimizer=optimizer))
            prob, objective, seed = job
            ref, ref_log = signals(lambda: reference_optimize(
                prob, objective, 20, 1e308, seed, trained_model, schedule, optimizer=optimizer))
            assert got.diverged and len(got.theta) == length
            assert record_bits(got) == record_bits(ref)
            assert got_log and got_log == ref_log

    @pytest.mark.parametrize(
        "arg, kwargs",
        [
            ("steps", {"steps": -1}),
            ("steps", {"steps": 2.5}),
            ("lr", {"lr": float("nan")}),
            ("lr", {"lr": -0.01}),
            ("w_mode", {"steps": 0, "w_mode": "quadratic"}),
        ],
        ids=["negative_steps", "fractional_steps", "nan_lr", "negative_lr", "unknown_w_mode"],
    )
    def test_rejects_bad_argument_before_any_work(
        self, trained_model, schedule, subsequence, monkeypatch, arg, kwargs
    ):
        def no_work(*args):
            raise AssertionError("optimize_batch started work before validating")

        monkeypatch.setattr(distill, "render_rows", no_work)
        monkeypatch.setattr(distill, "draw_shared_noise", no_work)
        call = {"steps": 3, "lr": 0.01, "w_mode": "const"} | kwargs
        jobs = mixed_jobs(subsequence, np.random.default_rng(17))
        with pytest.raises(ValueError, match=arg):
            optimize_batch(jobs, call["steps"], call["lr"], trained_model, schedule,
                           call["w_mode"])

    def test_rejects_mixed_omega(self, trained_model, schedule, subsequence):
        jobs = mixed_jobs(subsequence, np.random.default_rng(9))
        prob, objective, seed = jobs[0]
        jobs.append((replace(prob, omega=3.0), objective, seed))
        with pytest.raises(ValueError, match="omega"):
            optimize_batch(jobs, 1, 0.01, trained_model, schedule)


def reference_trajectory_csv(record, path):
    """The trajectory layout through ``csv.writer``, one ``f"{v:.17g}"`` per float."""
    n_theta = record.theta.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step", *[f"theta{j}" for j in range(n_theta)], "x0_tgt_x", "x0_tgt_y", "grad_norm"]
        )
        for step in range(len(record.theta)):
            writer.writerow(
                [
                    step,
                    *[f"{v:.17g}" for v in record.theta[step]],
                    f"{record.x0_tgt[step, 0]:.17g}",
                    f"{record.x0_tgt[step, 1]:.17g}",
                    f"{record.grad_norm[step]:.17g}",
                ]
            )


EDGE_VALUES = [-0.0, 5e-324, 1e308, 0.1, 3.0, -7.0, 1e16, 2.0**53, -1e-300, 0.0]


def csv_case(name, d, s, sub):
    rng = np.random.default_rng(12)
    start = np.array([-2.0, 0.1])
    identity = make_problem(rng, sub, gen_point=start, src_point=start)
    a = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
    affine = replace(identity, gen=affine_generator(a, start - a @ start, start))
    if name == "identity":
        return optimize_batch([(identity, "pds", 11)], 6, 0.01, d, s)[0]
    if name == "affine":
        return optimize_batch([(affine, "dds", 11)], 6, 0.01, d, s)[0]
    if name == "step_zero_only":
        return optimize_batch([(affine, "sds", 11)], 0, 0.01, d, s)[0]
    if name == "diverged":
        with np.errstate(over="ignore", invalid="ignore"):
            (rec,) = optimize_batch([(identity, "sds", 3)], 50, 1e308, d, s)
        assert rec.diverged and 1 < len(rec.theta) < 51
        return rec
    vals = np.array(EDGE_VALUES)
    if name in ("identity_negative_zero", "theta_negative_zero_point_positive_zero"):
        # theta is the point, as for an identity generator; in the second
        # case the point holds +0.0 where theta holds -0.0 (adding 0.0 does that)
        theta = np.array([np.roll(vals, k)[:2] for k in range(len(vals))])
        x0 = theta.copy() if name == "identity_negative_zero" else theta + 0.0
        assert (x0.tobytes() == theta.tobytes()) == (name == "identity_negative_zero")
        return TrajectoryRecord(objective_kind="pds", seed=0, theta=theta, x0_tgt=x0,
                                grad_norm=np.abs(vals))
    # edge values in every column, as the 2- and 6-theta layouts
    n_theta = 2 if name == "edge_identity" else 6
    rows = len(vals)
    return TrajectoryRecord(
        objective_kind="sds",
        seed=0,
        theta=np.array([np.roll(vals, k)[:n_theta] for k in range(rows)]),
        x0_tgt=np.array([np.roll(vals, k + 3)[:2] for k in range(rows)]),
        grad_norm=np.roll(np.abs(vals), 5),
    )


class TestWeightsAndCsv:
    def test_weight_modes(self, schedule):
        assert resolve_weight("const", schedule, 500) == 1.0
        assert resolve_weight("one_minus_alpha_bar", schedule, 500) == pytest.approx(
            1.0 - schedule.alpha_bar[500]
        )
        with pytest.raises(ValueError):
            resolve_weight("quadratic", schedule, 500)

    @pytest.mark.parametrize(
        "case",
        [
            "identity", "affine", "step_zero_only", "diverged", "edge_identity", "edge_affine",
            "identity_negative_zero", "theta_negative_zero_point_positive_zero",
        ],
    )
    def test_trajectory_csv_bytes_match_csv_writer(
        self, case, trained_model, schedule, subsequence, tmp_path
    ):
        rec = csv_case(case, trained_model, schedule, subsequence)
        points = write_trajectory_csv(rec, tmp_path / "new.csv")
        reference_trajectory_csv(rec, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert points == [f"{x:.17g},{y:.17g}" for x, y in rec.x0_tgt]

    def test_trajectory_csv_layout(self, trained_model, schedule, subsequence, rng, tmp_path):
        prob = make_problem(rng, subsequence, gen_point=[-1.8, 0.2], src_point=[-1.8, 0.2])
        (rec,) = optimize_batch([(prob, "pds", 11)], 5, 0.01, trained_model, schedule)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(rec, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "theta0", "theta1", "x0_tgt_x", "x0_tgt_y", "grad_norm"]
        assert len(rows) == 7
        # 17-significant-digit floats reparse exactly
        for text, value in zip(rows[3][1:3], rec.theta[2]):
            assert float(text) == value


def csv_writer_bytes(rows) -> bytes:
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode("utf-8")


class TestBlockWriter:
    @pytest.mark.parametrize("n_rows", [0, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS])
    @pytest.mark.parametrize("as_generator", [False, True])
    def test_bytes_match_csv_writer(self, n_rows, as_generator, tmp_path, monkeypatch):
        rows = [[str(k), f"{k / 7:.17g}", f"{-k * 1e-300:.17g}"] for k in range(n_rows)]
        lines = [",".join(row) for row in rows]
        writes = []

        def recording_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write
            fh.write = lambda text: writes.append(text) or write(text)
            return fh

        monkeypatch.setattr(experiments, "open", recording_open, raising=False)
        write_csv(tmp_path / "new.csv", ["a", "b", "c"], iter(lines) if as_generator else lines)
        assert (tmp_path / "new.csv").read_bytes() == csv_writer_bytes([["a", "b", "c"], *rows])
        # the header, then one write per block of rows
        assert len(writes) == 1 + -(-n_rows // CSV_BLOCK_ROWS)

    @pytest.mark.parametrize("n_theta", [2, 6])
    def test_trajectory_longer_than_a_block(self, n_theta, tmp_path):
        rng = np.random.default_rng(21)
        m = CSV_BLOCK_ROWS + 2
        x0 = rng.standard_normal((m, 2)) * 10.0 ** rng.integers(-300, 300, (m, 2))
        theta = x0.copy() if n_theta == 2 else rng.standard_normal((m, n_theta))
        rec = TrajectoryRecord(objective_kind="dds", seed=0, theta=theta, x0_tgt=x0,
                               grad_norm=np.abs(rng.standard_normal(m)))
        points = write_trajectory_csv(rec, tmp_path / "new.csv")
        reference_trajectory_csv(rec, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert points == [f"{x:.17g},{y:.17g}" for x, y in x0]


def test_figure2_files_stream(default_config, trained_model, tmp_path):
    # the default figure2: 3 objectives x 20 runs x 300 steps, about 3 MB of
    # CSV. Holding every file's text until it is written peaks near 7.1 MB of
    # traced memory; streaming one trajectory at a time peaks near 1.3 MB. The
    # bound sits more than 2x from each.
    dist = default_config.distill
    assert (dist.objectives, dist.n_runs, dist.steps) == (("sds", "dds", "pds"), 20, 300)
    tracemalloc.start()
    try:
        run_figure2(default_config, trained_model, out_dir=tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(list(tmp_path.glob("fig2_traj_*.csv"))) == 60
    assert peak < 3.25e6

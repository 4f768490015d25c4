import math

import numpy as np
import pytest

from distill_lab import denoiser, latentops
from distill_lab.denoiser import Denoiser, _layer_views, cfg_predict, cfg_predict_batch
from distill_lab.errors import DegenerateTimestepError, DivergenceError, MismatchError
from distill_lab.latentops import (
    StochasticLatentSequence,
    ancestral_sample_batch,
    draw_shared_noise,
    generate_with_latents,
    generate_with_latents_batch,
    invert,
    sdedit_batch,
    stochastic_latents,
)
from distill_lab.schedule import build_linear_schedule, build_subsequence, posterior_coeffs_pair
from references import one_latent, posterior_mean_pred, tweedie_estimate


def constant_model(eps: np.ndarray) -> Denoiser:
    """A denoiser that predicts the fixed vector eps for every input."""
    d = Denoiser.create(seed=0)
    w, b = _layer_views(d.params, d.arch)[-1]
    w[:] = 0.0
    b[:] = np.asarray(eps, dtype=float)
    return d


def reference_invert(x0, y, d, omega, s, sub, rng):
    """Latents and top state of x0, one level at a time, top-down."""
    n = sub.S
    eps_levels = np.zeros((n + 1, 2))
    eps_levels[1:] = rng.standard_normal((n, 2))
    latents = []
    for i in range(n, 0, -1):
        t_cur, t_prev = int(sub.tau[i]), int(sub.tau[i - 1])
        x_prev = x0 if t_prev == 0 else s.noised(x0, t_prev, eps_levels[i - 1])
        x_cur = s.noised(x0, t_cur, eps_levels[i])
        e = cfg_predict(d, x_cur, y, t_cur, omega)
        ab = s.alpha_bar[t_cur]
        x0_est = (x_cur - math.sqrt(1.0 - ab) * e) / math.sqrt(ab)
        mu = s.gamma[t_cur] * x0_est + s.delta[t_cur] * x_cur
        latents.append((x_prev - mu) / s.sigma[t_cur])
    return np.array(latents), s.noised(x0, int(sub.tau[n]), eps_levels[n])


def reference_replay(x_top, latents, y, d, omega, s, sub):
    """One point's generative traversal, one level at a time."""
    x = np.array(x_top, dtype=float)
    for k, i in enumerate(range(sub.S, 0, -1)):
        t = int(sub.tau[i])
        e = cfg_predict(d, x, y, t, omega)
        ab = s.alpha_bar[t]
        x0_est = (x - math.sqrt(1.0 - ab) * e) / math.sqrt(ab)
        x = s.gamma[t] * x0_est + s.delta[t] * x + s.sigma[t] * latents[k]
    return x


class TestForwardSample:
    """The forward-process state ``NoiseSchedule.noised`` that the
    inversion, sdedit and the objectives' residuals all draw."""

    def test_zero_noise_limit(self, schedule):
        x0 = np.array([1.5, -2.5])
        got = schedule.noised(x0, 700, np.zeros(2))
        assert np.array_equal(got, math.sqrt(schedule.alpha_bar[700]) * x0)

    def test_zero_signal_limit(self, schedule):
        eps = np.array([0.3, 0.9])
        got = schedule.noised(np.zeros(2), 700, eps)
        assert np.array_equal(got, math.sqrt(1.0 - schedule.alpha_bar[700]) * eps)

    def test_matches_independent_evaluation(self, schedule):
        x0, eps = np.array([1.0, 1.0]), np.array([1.0, -1.0])
        ab = schedule.alpha_bar[500]
        expected = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
        assert schedule.noised(x0, 500, eps) == pytest.approx(expected, rel=1e-15)

    def test_marginal_statistics(self, schedule, rng):
        x0 = np.array([0.8, -1.2])
        t = 400
        draws = rng.standard_normal((100_000, 2))
        samples = schedule.noised(x0, t, draws)
        ab = schedule.alpha_bar[t]
        se_mean = math.sqrt((1.0 - ab) / len(draws))
        assert np.all(np.abs(samples.mean(axis=0) - np.sqrt(ab) * x0) < 3 * se_mean)
        se_var = (1.0 - ab) * math.sqrt(2.0 / (len(draws) - 1))
        assert np.all(np.abs(samples.var(axis=0) - (1.0 - ab)) < 3 * se_var)


class TestTweedieEstimate:
    def test_oracle_prediction_recovers_x0(self, schedule):
        eps = np.array([0.7, -0.2])
        d = constant_model(eps)
        x0 = np.array([-1.1, 0.4])
        x_t = schedule.noised(x0, 350, eps)
        got = tweedie_estimate(x_t, 1, 350, d, 1.0, schedule)
        assert got == pytest.approx(x0, abs=1e-12)

    def test_zero_prediction_rescales(self, schedule):
        d = Denoiser.create(seed=4)  # zero head -> predicts 0
        x_t = np.array([0.5, 0.5])
        got = tweedie_estimate(x_t, 1, 350, d, 1.0, schedule)
        assert np.array_equal(got, x_t / math.sqrt(schedule.alpha_bar[350]))

    def test_forward_then_tweedie_roundtrip(self, schedule, rng):
        worst = 0.0
        for _ in range(100):
            x0 = rng.standard_normal(2) * 2.0
            eps = rng.standard_normal(2)
            t = int(rng.integers(1, schedule.T + 1))
            d = constant_model(eps)
            x_t = schedule.noised(x0, t, eps)
            back = tweedie_estimate(x_t, 2, t, d, 1.0, schedule)
            worst = max(worst, float(np.max(np.abs(back - x0))))
        assert worst < 1e-10


class TestPosteriorMeanPred:
    def test_degenerate_step_returns_estimate(self, schedule, random_model):
        x_t = np.array([0.9, -0.3])
        mu = posterior_mean_pred(x_t, 1, 1, random_model, 1.0, schedule)
        x0_est = tweedie_estimate(x_t, 1, 1, random_model, 1.0, schedule)
        assert np.array_equal(mu, x0_est)

    def test_oracle_expansion(self, schedule, rng):
        # with exact noise predictions the mean collapses to
        # sqrt(ab[t-1]) x0 + delta sqrt(1-ab[t]) eps
        for t in (2, 137, 600, 1000):
            x0 = rng.standard_normal(2)
            eps = rng.standard_normal(2)
            d = constant_model(eps)
            x_t = schedule.noised(x0, t, eps)
            mu = posterior_mean_pred(x_t, 1, t, d, 1.0, schedule)
            expected = (
                math.sqrt(schedule.alpha_bar[t - 1]) * x0
                + schedule.delta[t] * math.sqrt(1.0 - schedule.alpha_bar[t]) * eps
            )
            assert mu == pytest.approx(expected, abs=1e-11)

    def test_affine_for_linear_model(self, schedule):
        # constant predictions make the mean affine in x_t
        d = constant_model(np.array([0.1, 0.2]))
        xs = [np.zeros(2), np.array([1.0, -1.0]), np.array([2.0, -2.0])]
        mus = [posterior_mean_pred(x, 1, 450, d, 1.0, schedule) for x in xs]
        assert np.max(np.abs((mus[1] - mus[0]) - (mus[2] - mus[1]))) < 1e-12


class TestStochasticLatent:
    def test_zero_noise_oracle_algebra(self, schedule, subsequence):
        # zero noises + zero predictions: z = (sqrt(ab[prev]) - sqrt(ab[t-1])) x0 / sigma
        d = Denoiser.create(seed=5)
        x0 = np.array([1.3, -0.4])
        z = one_latent(x0, 1, (250, np.zeros((2, 2))), d, 1.0, schedule, subsequence)
        t_cur = int(subsequence.tau[250])
        t_prev = int(subsequence.tau[249])
        factor = math.sqrt(schedule.alpha_bar[t_prev]) - math.sqrt(schedule.alpha_bar[t_cur - 1])
        assert z == pytest.approx(factor * x0 / schedule.sigma[t_cur], rel=1e-9)

    def test_stride_one_zero_noise_latent_vanishes(self, schedule):
        sub1 = build_subsequence(schedule, 1, 0.02, 0.98)
        d = Denoiser.create(seed=5)
        z = one_latent(np.array([0.7, 0.7]), 1, (500, np.zeros((2, 2))), d, 1.0, schedule, sub1)
        assert np.max(np.abs(z)) < 1e-10

    def test_deterministic(self, trained_model, schedule, subsequence, rng):
        draw = draw_shared_noise(subsequence, rng)
        x0 = np.array([-1.9, 0.2])
        a = one_latent(x0, 1, draw, trained_model, 7.5, schedule, subsequence)
        b = one_latent(x0, 1, draw, trained_model, 7.5, schedule, subsequence)
        assert np.array_equal(a, b)

    def test_affine_in_predecessor_noise(self, trained_model, schedule, subsequence, rng):
        # x_prev is the only place eps_prev enters, linearly, for any model
        i, base = draw_shared_noise(subsequence, rng)
        e = rng.standard_normal(2)
        zs = []
        for scale in (0.0, 1.0, 2.0):
            draw = (i, np.array([scale * e, base[1]]))
            zs.append(one_latent(np.array([0.5, 0.5]), 2, draw, trained_model, 7.5, schedule, subsequence))
        assert np.max(np.abs((zs[1] - zs[0]) - (zs[2] - zs[1]))) < 1e-9

    def test_affine_in_both_noises_for_linear_model(self, schedule, subsequence, rng):
        d = constant_model(np.array([0.3, -0.1]))
        e_prev, e_cur = rng.standard_normal(2), rng.standard_normal(2)
        zs = []
        for scale in (0.0, 1.0, 2.0):
            draw = (300, scale * np.array([e_prev, e_cur]))
            zs.append(one_latent(np.array([0.5, -0.5]), 1, draw, d, 1.0, schedule, subsequence))
        assert np.max(np.abs((zs[1] - zs[0]) - (zs[2] - zs[1]))) < 1e-9

    def test_degenerate_sigma_raises(self, schedule):
        sub1 = build_subsequence(schedule, 1, 0.02, 0.98)
        d = Denoiser.create(seed=5)
        with pytest.raises(DegenerateTimestepError):
            one_latent(np.zeros(2), 1, (1, np.zeros((2, 2))), d, 1.0, schedule, sub1)

    def test_rejects_index_outside_grid(self, random_model, schedule, subsequence):
        noise = np.zeros((2, 2))
        for bad in (0, subsequence.S + 1):
            with pytest.raises(ValueError, match=f"draw index {bad} outside the grid"):
                stochastic_latents(np.zeros(2), 1, np.array([3, bad]), noise, noise,
                                   random_model, 1.0, schedule, subsequence)

    @pytest.mark.parametrize(
        "idx, prev_shape, cur_shape",
        [
            (np.array([3.0]), (1, 2), (1, 2)),
            (np.array([[3]]), (1, 2), (1, 2)),
            (np.array(3), (1, 2), (1, 2)),
            (np.array([3, 4]), (1, 2), (1, 2)),
            (np.array([3]), (1, 2), (1, 3)),
            (np.array([3]), (2,), (2,)),
        ],
        ids=["float idx", "2-D idx", "0-D idx", "one noise row for two indices",
             "eps_cur of wrong width", "unbatched noise"],
    )
    def test_rejects_malformed_indices_and_noise(self, random_model, schedule, subsequence,
                                                 idx, prev_shape, cur_shape):
        # neither a bare IndexError nor one noise row silently broadcast over indices
        with pytest.raises(ValueError, match="idx must be|must have shape"):
            stochastic_latents(np.zeros(2), 1, idx, np.zeros(prev_shape), np.zeros(cur_shape),
                               random_model, 1.0, schedule, subsequence)

    def test_indices_share_one_batch_bitwise(self, trained_model, schedule, subsequence, rng):
        # several draws of one point in one call: each row is its draw alone
        draws = [draw_shared_noise(subsequence, rng) for _ in range(6)]
        idx = np.array([i for i, _ in draws])
        noise = np.array([n for _, n in draws])
        x0 = np.array([-1.9, 0.2])
        z = stochastic_latents(x0, 1, idx, noise[:, 0], noise[:, 1], trained_model, 7.5,
                               schedule, subsequence)
        for row, draw in zip(z, draws):
            assert row.tobytes() == one_latent(x0, 1, draw, trained_model, 7.5, schedule,
                                               subsequence).tobytes()

    def test_substitution_rule_reconstructs_single_step(
        self, trained_model, schedule, subsequence, rng
    ):
        # the latent is defined so that mu + sigma * z lands back on the
        # forward-drawn predecessor state
        for _ in range(20):
            x0 = rng.standard_normal(2)
            i, noise = draw = draw_shared_noise(subsequence, rng)
            t_cur = int(subsequence.tau[i])
            t_prev = int(subsequence.tau[i - 1])
            x_prev = schedule.noised(x0, t_prev, noise[0])
            x_cur = schedule.noised(x0, t_cur, noise[1])
            z = one_latent(x0, 1, draw, trained_model, 7.5, schedule, subsequence)
            mu = posterior_mean_pred(x_cur, 1, t_cur, trained_model, 7.5, schedule)
            assert np.max(np.abs(mu + schedule.sigma[t_cur] * z - x_prev)) < 1e-12


class TestInvert:
    def test_bitwise_deterministic(self, trained_model, schedule, subsequence):
        x0 = np.array([-2.2, 0.5])
        a = invert(x0, 1, trained_model, 7.5, schedule, subsequence, np.random.default_rng(3))
        b = invert(x0, 1, trained_model, 7.5, schedule, subsequence, np.random.default_rng(3))
        assert np.array_equal(a.latents, b.latents)
        assert np.array_equal(a.x_top, b.x_top)

    def test_sequence_length_matches_grid(self, random_model, schedule, subsequence, rng):
        seq = invert(np.zeros(2), 1, random_model, 1.0, schedule, subsequence, rng)
        assert seq.latents.shape == (subsequence.S, 2)

    @pytest.mark.parametrize("model_fixture", ["trained_model", "random_model"])
    @pytest.mark.parametrize("omega", [1.0, 7.5])
    def test_equals_per_level_reference(self, model_fixture, omega, schedule, subsequence, request):
        d = request.getfixturevalue(model_fixture)
        for seed in range(3):
            x0 = np.random.default_rng(100 + seed).standard_normal(2) * 1.5
            seq = invert(x0, 1 + seed % 2, d, omega, schedule, subsequence, np.random.default_rng(seed))
            ref_latents, ref_top = reference_invert(
                x0, 1 + seed % 2, d, omega, schedule, subsequence, np.random.default_rng(seed)
            )
            assert np.array_equal(seq.latents, ref_latents)
            assert np.array_equal(seq.x_top, ref_top)

    def test_stride_one_grid_is_degenerate(self, random_model, schedule, rng):
        sub1 = build_subsequence(schedule, 1, 0.02, 0.98)
        with pytest.raises(DegenerateTimestepError):
            invert(np.zeros(2), 1, random_model, 1.0, schedule, sub1, rng)


class TestGenerateWithLatents:
    @pytest.mark.parametrize("model_fixture", ["trained_model", "random_model"])
    def test_roundtrip_reconstructs_source(self, model_fixture, schedule, subsequence, rng, request):
        d = request.getfixturevalue(model_fixture)
        worst = 0.0
        for _ in range(10):
            x0 = rng.standard_normal(2) * 1.5
            seq = invert(x0, 1, d, 7.5, schedule, subsequence, rng)
            back = generate_with_latents(seq, 1, d, 7.5, schedule, subsequence)
            worst = max(worst, float(np.max(np.abs(back - x0))))
        assert worst < 1e-8

    @pytest.mark.parametrize("model_fixture", ["trained_model", "random_model"])
    def test_batch_equals_per_point_reference(self, model_fixture, schedule, subsequence, rng, request):
        d = request.getfixturevalue(model_fixture)
        labels = [1, 2, 2, 1, 1]
        seqs = [invert(rng.standard_normal(2), y, d, 7.5, schedule, subsequence, rng) for y in labels]
        # replay under the recorded conditions and under swapped ones
        for y_new in (labels, [3 - y for y in labels]):
            batch = generate_with_latents_batch(seqs, y_new, d, 7.5, schedule, subsequence)
            for seq, y, got in zip(seqs, y_new, batch):
                ref = reference_replay(seq.x_top, seq.latents, y, d, 7.5, schedule, subsequence)
                assert np.array_equal(got, ref)
                assert np.array_equal(got, generate_with_latents(seq, y, d, 7.5, schedule, subsequence))

    def test_labels_are_checked_once_per_replay(
        self, trained_model, schedule, subsequence, rng, monkeypatch
    ):
        # every level's eps call reads one label plan, checked when it is built
        labels = [1, 2, 2, 1]
        seqs = [invert(rng.standard_normal(2), y, trained_model, 7.5, schedule, subsequence, rng)
                for y in labels]
        checks, evals, real_plan, real_eps = [], [], denoiser.LabelPlan.__init__, latentops.eps
        monkeypatch.setattr(denoiser.LabelPlan, "__init__",
                            lambda *a: checks.append(a) or real_plan(*a))
        monkeypatch.setattr(latentops, "eps", lambda *a: evals.append(a) or real_eps(*a))
        for y_new in (labels, 2):
            checks.clear()
            evals.clear()
            generate_with_latents_batch(seqs, y_new, trained_model, 7.5, schedule, subsequence)
            assert (len(checks), len(evals)) == (1, subsequence.S)

    def test_batch_of_none(self, random_model, schedule, subsequence):
        got = generate_with_latents_batch([], 1, random_model, 7.5, schedule, subsequence)
        assert got.shape == (0, 2)

    def test_new_condition_moves_toward_target_class(
        self, trained_model, schedule, subsequence, default_config, rng
    ):
        class1, class2 = default_config.class_params()
        m1, m2 = np.asarray(class1.mean), np.asarray(class2.mean)
        direction = (m2 - m1) / np.linalg.norm(m2 - m1)
        shifts = []
        for _ in range(20):
            x0 = m1 + class1.std * rng.standard_normal(2)
            seq = invert(x0, 1, trained_model, 7.5, schedule, subsequence, rng)
            edited = generate_with_latents(seq, 2, trained_model, 7.5, schedule, subsequence)
            shifts.append(float((edited - x0) @ direction))
        assert np.mean(shifts) > 0.5

    def test_zero_latents_with_oracle_model_is_mean_iteration(self, schedule, subsequence):
        d = constant_model(np.array([0.05, -0.1]))
        x_top = np.array([0.4, 1.1])
        seq = StochasticLatentSequence(
            latents=np.zeros((subsequence.S, 2)),
            x_top=x_top,
            T=schedule.T,
            tau=np.array(subsequence.tau),
        )
        got = generate_with_latents(seq, 1, d, 1.0, schedule, subsequence)
        x = x_top.copy()
        for i in range(subsequence.S, 0, -1):
            x = posterior_mean_pred(x, 1, int(subsequence.tau[i]), d, 1.0, schedule)
        assert np.array_equal(got, x)

    def test_roundtrip_over_strides_omegas_and_models(self, schedule):
        # seeded property sweep: each trial draws a random-head model, a
        # guidance weight and a point, and replays on one of four strides
        rng = np.random.default_rng(2311)
        worst = 0.0
        for trial in range(24):
            sub = build_subsequence(schedule, (2, 3, 5, 10)[trial % 4], 0.02, 0.98)
            d = Denoiser.create(seed=int(rng.integers(2**31)), random_head=True)
            omega = float(rng.uniform(0.0, 8.0))
            y = int(rng.integers(1, 3))
            x0 = rng.standard_normal(2) * 2.0
            seq = invert(x0, y, d, omega, schedule, sub, rng)
            back = generate_with_latents(seq, y, d, omega, schedule, sub)
            worst = max(worst, float(np.max(np.abs(back - x0))))
        assert worst < 1e-8

    def test_grid_mismatch_rejected(self, random_model, schedule, subsequence, rng):
        seq = invert(np.zeros(2), 1, random_model, 1.0, schedule, subsequence, rng)
        other = build_subsequence(schedule, 5, 0.02, 0.98)
        with pytest.raises(MismatchError):
            generate_with_latents(seq, 1, random_model, 1.0, schedule, other)


class TestSdedit:
    def test_zero_ratio_is_exact_identity(self, trained_model, schedule, rng):
        x0 = np.array([[-1.7, 0.9]])
        out = sdedit_batch(x0, 1, 0.0, trained_model, 2.0, schedule, rng)
        assert np.array_equal(out, x0)

    def test_deterministic_under_seed(self, trained_model, schedule):
        x0 = np.array([[-1.7, 0.9]])
        a = sdedit_batch(x0, 1, 0.15, trained_model, 2.0, schedule, np.random.default_rng(8))
        b = sdedit_batch(x0, 1, 0.15, trained_model, 2.0, schedule, np.random.default_rng(8))
        assert np.array_equal(a, b)

    def test_default_operating_range_stays_close(self, trained_model, schedule, default_config,
                                                 rng):
        # small starting ratios perturb without losing the point's identity
        class1 = default_config.class_params()[0]
        points = np.asarray(class1.mean) + class1.std * rng.standard_normal((50, 2))
        edited = sdedit_batch(points, 1, 0.2, trained_model, 2.0, schedule, rng)
        displacement = np.linalg.norm(edited - points, axis=1)
        assert np.mean(displacement) < 1.0

    def test_full_ratio_forgets_the_input(self, trained_model, schedule, rng):
        # outputs from two far-apart inputs should be indistinguishable
        a = sdedit_batch(np.tile([-2.0, 0.0], (200, 1)), 1, 1.0, trained_model, 2.0, schedule, rng)
        b = sdedit_batch(np.tile([5.0, 5.0], (200, 1)), 1, 1.0, trained_model, 2.0, schedule, rng)
        gap = np.linalg.norm(a.mean(axis=0) - b.mean(axis=0))
        spread = max(np.linalg.norm(a.std(axis=0)), np.linalg.norm(b.std(axis=0)))
        assert gap < 3.0 * spread / math.sqrt(200) * 3  # means agree within MC error
        assert abs(a.std() - b.std()) < 0.2

    @pytest.mark.parametrize("omega", [0.0, 2.0])
    @pytest.mark.parametrize("ratio", [0.15, 0.5, 1.0])
    def test_equals_per_step_reference(self, trained_model, schedule, ratio, omega):
        # the sampler runs the shared chain loop; the reference rebuilds
        # each step with posterior_coeffs_pair and math.sqrt
        n_steps = 20
        levels = [round(k * schedule.T / n_steps) for k in range(n_steps + 1)]

        def reference(x0, rng):
            k0 = round(ratio * n_steps)
            ab = schedule.alpha_bar[levels[k0]]
            x = math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * rng.standard_normal(x0.shape)
            for k in range(k0, 0, -1):
                t = levels[k]
                gamma, delta, sigma = posterior_coeffs_pair(schedule, levels[k - 1], t)
                eps_hat = cfg_predict_batch(trained_model, x, 1, t, omega)
                ab = schedule.alpha_bar[t]
                x_tilde = (x - math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(ab)
                x = gamma * x_tilde + delta * x + sigma * rng.standard_normal(x.shape)
            return x

        x0 = np.random.default_rng(3).standard_normal((16, 2))
        got = sdedit_batch(x0, 1, ratio, trained_model, omega, schedule, np.random.default_rng(9))
        assert np.array_equal(got, reference(x0, np.random.default_rng(9)))

    def test_rejects_bad_ratio(self, trained_model, schedule, rng):
        with pytest.raises(ValueError):
            sdedit_batch(np.zeros((1, 2)), 1, 1.5, trained_model, 2.0, schedule, rng)

    @pytest.mark.parametrize("T", [10, 19])
    def test_rejects_a_schedule_with_fewer_levels_than_steps(self, trained_model, rng, T):
        # the 20-step grid needs a distinct level per step, at ratio 0 too
        short = build_linear_schedule(T, 1e-4, 0.02)
        for ratio in (0.0, 0.5):
            with pytest.raises(ValueError, match="T >= 20"):
                sdedit_batch(np.zeros((1, 2)), 1, ratio, trained_model, 2.0, short, rng)


class TestDivergence:
    """Every reverse chain stops with DivergenceError on a non-finite state,
    and the inversion on a non-finite latent."""

    @pytest.fixture()
    def nan_bias_model(self, trained_model):
        # the trained model with its last output bias set to NaN, so every
        # prediction's second coordinate is NaN
        d = Denoiser(
            params=trained_model.params.copy(),
            arch=trained_model.arch,
            t_embed_dim=trained_model.t_embed_dim,
        )
        d.layers()[-1][1][-1] = np.nan
        return d

    def test_ancestral_chain(self, nan_bias_model, small_schedule, rng):
        with pytest.raises(DivergenceError, match="non-finite"):
            ancestral_sample_batch(nan_bias_model, 1, 4, small_schedule, 2.0, rng)

    def test_invert(self, nan_bias_model, schedule, subsequence, rng):
        with pytest.raises(DivergenceError, match="non-finite stochastic latent"):
            invert(np.array([-2.0, 0.3]), 1, nan_bias_model, 7.5, schedule, subsequence, rng)

    def test_stochastic_latent(self, nan_bias_model, schedule, subsequence, rng):
        draw = draw_shared_noise(subsequence, rng)
        with pytest.raises(DivergenceError, match="non-finite stochastic latent"):
            one_latent(np.zeros(2), 1, draw, nan_bias_model, 7.5, schedule, subsequence)

    def test_replay(self, nan_bias_model, trained_model, schedule, subsequence, rng):
        seq = invert(np.array([-2.0, 0.3]), 1, trained_model, 7.5, schedule, subsequence, rng)
        with pytest.raises(DivergenceError, match="non-finite"):
            generate_with_latents(seq, 1, nan_bias_model, 7.5, schedule, subsequence)

    @pytest.mark.parametrize("omega", [0.0, 2.0])
    def test_sdedit(self, nan_bias_model, schedule, rng, omega):
        with pytest.raises(DivergenceError, match="non-finite"):
            sdedit_batch(np.zeros((4, 2)), 1, 0.25, nan_bias_model, omega, schedule, rng)

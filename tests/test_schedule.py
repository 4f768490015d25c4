import math

import numpy as np
import pytest

from distill_lab.schedule import build_linear_schedule, build_subsequence, posterior_coeffs_pair


class TestBuildLinearSchedule:
    def test_endpoints(self, schedule):
        assert schedule.beta[1] == 1e-4
        assert schedule.beta[1000] == 0.02

    def test_first_alpha_bar_is_single_factor(self, schedule):
        assert schedule.alpha_bar[1] == pytest.approx(0.9999, abs=1e-15)

    def test_alpha_bar_against_bruteforce_product(self, schedule):
        # independent oracle: plain python loop over the same betas
        prod = 1.0
        for t in range(1, 1001):
            prod *= 1.0 - (1e-4 + (t - 1) * (0.02 - 1e-4) / 999)
        assert schedule.alpha_bar[1000] == pytest.approx(prod, rel=1e-12)

    def test_convention_slot(self, schedule):
        assert schedule.alpha_bar[0] == 1.0
        assert schedule.alpha[0] == 1.0
        assert schedule.beta[0] == 0.0

    def test_alpha_bar_strictly_decreasing(self, schedule):
        assert np.all(np.diff(schedule.alpha_bar) < 0)

    def test_product_consistency(self, schedule):
        ratio = schedule.alpha_bar[1:] / schedule.alpha_bar[:-1]
        assert np.max(np.abs(ratio - schedule.alpha[1:]) / schedule.alpha[1:]) < 1e-12

    def test_beta_non_decreasing_inside_unit_interval(self, schedule):
        assert np.all(np.diff(schedule.beta[1:]) >= 0)
        assert np.all((schedule.beta[1:] > 0) & (schedule.beta[1:] < 1))

    def test_arrays_are_immutable(self, schedule):
        with pytest.raises(ValueError):
            schedule.beta[1] = 0.5

    @pytest.mark.parametrize(
        "args",
        [
            (1, 1e-4, 0.02),
            (1000, 0.0, 0.02),
            (1000, 1e-4, 1.0),
            (1000, 0.02, 1e-4),
        ],
    )
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            build_linear_schedule(*args)

    def test_rejects_alpha_bar_underflow(self):
        # alpha_bar[T] == 0.0 here; 1 / alpha_bar in the chi table would overflow
        with pytest.raises(ValueError, match="underflows"):
            build_linear_schedule(2000, 0.45, 0.5)


class TestPosteriorTables:
    def test_identity_holds_for_every_t(self, schedule):
        worst = 0.0
        for t in range(1, schedule.T + 1):
            gap = abs(
                schedule.gamma[t] + schedule.delta[t] * math.sqrt(schedule.alpha_bar[t])
                - math.sqrt(schedule.alpha_bar[t - 1])
            )
            worst = max(worst, gap)
        assert worst < 1e-10

    def test_matches_independent_formulas_at_t500(self, schedule):
        # duplicate-formula oracle, written out without shared helpers
        t = 500
        ab_prev, ab = schedule.alpha_bar[t - 1], schedule.alpha_bar[t]
        alpha, beta = schedule.alpha[t], schedule.beta[t]
        gamma, delta, sigma = schedule.gamma[t], schedule.delta[t], schedule.sigma[t]
        assert gamma == pytest.approx(math.sqrt(ab_prev) * (1 - alpha) / (1 - ab), rel=1e-14)
        assert delta == pytest.approx(math.sqrt(alpha) * (1 - ab_prev) / (1 - ab), rel=1e-14)
        assert sigma == pytest.approx((1 - ab_prev) / (1 - ab) * beta, rel=1e-14)

    def test_tables_equal_scalar_formulas(self, small_schedule):
        s = small_schedule
        for t in range(2, s.T + 1):
            ab_prev, ab_cur = float(s.alpha_bar[t - 1]), float(s.alpha_bar[t])
            den = 1.0 - ab_cur
            assert s.gamma[t] == math.sqrt(ab_prev) * (1.0 - float(s.alpha[t])) / den
            assert s.delta[t] == math.sqrt(float(s.alpha[t])) * (1.0 - ab_prev) / den
            assert s.sigma[t] == (1.0 - ab_prev) / den * float(s.beta[t])
        for t in range(s.T + 1):
            assert s.sqrt_ab[t] == math.sqrt(s.alpha_bar[t])
            assert s.sqrt_1m_ab[t] == math.sqrt(1.0 - s.alpha_bar[t])
        assert (s.gamma[1], s.delta[1], s.sigma[1]) == (1.0, 0.0, 0.0)

    def test_noising_methods_per_row_equal_scalar_formulas(self, small_schedule, rng):
        # noised and x0_estimate take one timestep or one per row; row k of a
        # per-row call equals the math.sqrt formula at t[k], bit for bit
        s = small_schedule
        t = np.arange(s.T + 1)
        x0, noise = rng.standard_normal((2, s.T + 1, 2))
        x_t = s.noised(x0, t, noise)
        est = s.x0_estimate(x_t[1:], t[1:], noise[1:])
        for k in range(s.T + 1):
            ab = float(s.alpha_bar[k])
            row = math.sqrt(ab) * x0[k] + math.sqrt(1.0 - ab) * noise[k]
            assert np.array_equal(x_t[k], row)
            assert np.array_equal(s.noised(x0[k], k, noise[k]), row)
            if k:
                back = (x_t[k] - math.sqrt(1.0 - ab) * noise[k]) / math.sqrt(ab)
                assert np.array_equal(est[k - 1], back)
                assert np.array_equal(s.x0_estimate(x_t[k], k, noise[k]), back)

    @pytest.mark.parametrize("method", ["noised", "x0_estimate"])
    @pytest.mark.parametrize("t", [-1, "T + 1"])
    @pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per_row"])
    def test_noising_methods_reject_timesteps_outside_range(self, schedule, method, t, per_row):
        # -1 must not wrap to the T state, and T + 1 must not be a bare IndexError
        t = schedule.T + 1 if t == "T + 1" else t
        x = np.zeros((3, 2))
        ts = np.array([5, t, 0]) if per_row else t
        with pytest.raises(ValueError, match=f"timestep {t} outside"):
            getattr(schedule, method)(x, ts, x)

    def test_pair_form_reduces_to_consecutive(self, schedule):
        for t in (2, 100, 500, 1000):
            one = (schedule.gamma[t], schedule.delta[t], schedule.sigma[t])
            two = posterior_coeffs_pair(schedule, t - 1, t)
            assert two == pytest.approx(one, rel=1e-11)

    def test_pair_form_from_clean_level_is_deterministic(self, schedule):
        assert posterior_coeffs_pair(schedule, 0, 400) == (1.0, 0.0, 0.0)

    def test_pair_form_rejects_bad_order(self, schedule):
        for t_prev, t_cur in ((10, 10), (-1, 10), (0, schedule.T + 1)):
            with pytest.raises(ValueError):
                posterior_coeffs_pair(schedule, t_prev, t_cur)


class TestBuildSubsequence:
    def test_default_grid_matches_reference_range(self, schedule):
        sub = build_subsequence(schedule, 2, 0.02, 0.98)
        assert sub.S == 500
        assert sub.lo_index == 10
        assert sub.hi_index == 490
        assert sub.tau[1] == 2 and sub.tau[500] == 1000

    def test_stride_one_is_identity_grid(self, schedule):
        sub = build_subsequence(schedule, 1, 0.0, 1.0)
        assert sub.S == 1000
        assert np.array_equal(sub.tau[1:], np.arange(1, 1001))

    def test_small_grid_by_hand(self):
        s = build_linear_schedule(10, 1e-4, 0.02)
        sub = build_subsequence(s, 2, 0.2, 1.0)
        assert sub.tau[1:].tolist() == [2, 4, 6, 8, 10]
        assert sub.lo_index == 2
        assert sub.hi_index == 5

    def test_sentinel_level(self, schedule):
        sub = build_subsequence(schedule, 2, 0.02, 0.98)
        assert sub.tau[0] == 0

    def test_rejects_empty_grid(self):
        s = build_linear_schedule(10, 1e-4, 0.02)
        with pytest.raises(ValueError):
            build_subsequence(s, 11, 0.0, 1.0)

    def test_rejects_empty_sampling_range(self):
        s = build_linear_schedule(10, 1e-4, 0.02)
        with pytest.raises(ValueError):
            build_subsequence(s, 5, 0.9, 1.0)  # S = 2, lo = 2 = hi

    def test_rejects_bad_ratios(self, schedule):
        with pytest.raises(ValueError):
            build_subsequence(schedule, 2, 0.9, 0.1)
        with pytest.raises(ValueError):
            build_subsequence(schedule, 0, 0.0, 1.0)


class TestPdsTables:
    def test_stride_one_coefficients_vanish(self, schedule):
        sub = build_subsequence(schedule, 1, 0.02, 0.98)
        sampled = slice(sub.lo_index, sub.hi_index + 1)
        assert np.all(sub.psi[sampled] == 0.0)
        assert np.all(sub.chi[sampled] == 0.0)

    def test_stride_one_coefficients_vanish_on_random_schedules(self):
        # up to T = 2000 and beta = 0.2, alpha_bar stays above 1e-194
        rng = np.random.default_rng(17)
        for _ in range(200):
            T = int(rng.integers(3, 2001))
            beta_start, beta_end = np.sort(rng.uniform(1e-5, 0.2, size=2))
            s = build_linear_schedule(T, beta_start, beta_end)
            sub = build_subsequence(s, 1, 0.0, 1.0)
            # index 1 is t = 1, where sigma is zero and the tables hold NaN
            assert np.isnan(sub.psi[1]) and np.isnan(sub.chi[1])
            assert np.all(sub.psi[2:] == 0.0) and np.all(sub.chi[2:] == 0.0)

    def test_stride_one_coefficients_vanish_near_alpha_bar_underflow(self):
        # alpha_bar[T] is about 3.3e-298 here, the smallest range of normal
        # floats; 1 / alpha_bar stays finite, so no table overflows
        s = build_linear_schedule(2000, 0.29, 0.29)
        assert 0.0 < s.alpha_bar[s.T] < 1e-290
        sub1 = build_subsequence(s, 1, 0.0, 1.0)
        assert np.all(sub1.psi[2:] == 0.0) and np.all(sub1.chi[2:] == 0.0)
        sub2 = build_subsequence(s, 2, 0.0, 1.0)
        for name in ("psi", "chi", "latent_weight"):
            assert np.all(np.isfinite(getattr(sub2, name)[1:]))

    def test_stride_two_psi_positive(self, subsequence):
        assert subsequence.psi[250] > 0.0

    def test_chi_sign_follows_common_factor(self, subsequence):
        # the common factor is positive for stride >= 2, so chi > 0 as well
        for i in (10, 123, 250, 490):
            assert subsequence.chi[i] > 0.0
            assert subsequence.psi[i] >= 0.0

    def test_matches_literal_formula(self, schedule, subsequence):
        # duplicate-formula oracle: the literal expression with gamma/delta
        worst = 0.0
        for i in range(subsequence.lo_index, subsequence.hi_index + 1, 7):
            t_cur = int(subsequence.tau[i])
            t_prev = int(subsequence.tau[i - 1])
            gamma, delta, sigma = schedule.gamma[t_cur], schedule.delta[t_cur], schedule.sigma[t_cur]
            f = (
                math.sqrt(schedule.alpha_bar[t_prev])
                - gamma
                - delta * math.sqrt(schedule.alpha_bar[t_cur])
            )
            psi = 2.0 * f * f / sigma**2
            chi = 2.0 * f * gamma * math.sqrt(1.0 / schedule.alpha_bar[t_cur] - 1.0) / sigma**2
            worst = max(worst, abs(subsequence.psi[i] - psi) / psi,
                        abs(subsequence.chi[i] - chi) / abs(chi))
        assert worst < 1e-8

    def test_cross_check_ratio(self, schedule, subsequence):
        # chi^2 / psi = 2 gamma^2 (1/ab - 1) / sigma^2 whenever psi > 0
        for i in (10, 100, 250, 400, 490):
            t = int(subsequence.tau[i])
            expected = (2.0 * schedule.gamma[t] ** 2 * (1.0 / schedule.alpha_bar[t] - 1.0)
                        / schedule.sigma[t] ** 2)
            assert subsequence.chi[i] ** 2 / subsequence.psi[i] == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("stride", [2, 5, 10])
    def test_vanishes_only_on_consecutive_pairs(self, schedule, stride):
        sub = build_subsequence(schedule, stride, 0.02, 0.98)
        for i in range(sub.lo_index, sub.hi_index + 1, 13):
            consecutive = sub.tau[i - 1] == sub.tau[i] - 1
            assert (sub.psi[i] == 0.0 and sub.chi[i] == 0.0) == consecutive

    @pytest.mark.parametrize("stride", [1, 2, 3, 10])
    def test_grid_arrays_equal_scalar_formula(self, schedule, stride):
        # every defined entry, sampled or not, against the scalar arithmetic
        sub = build_subsequence(schedule, stride, 0.02, 0.98)
        for name in ("psi", "chi", "latent_weight"):
            assert np.isnan(getattr(sub, name)[0])
        for i in range(1, sub.S + 1):
            t_cur, t_prev = int(sub.tau[i]), int(sub.tau[i - 1])
            gamma, sigma = schedule.gamma[t_cur], schedule.sigma[t_cur]
            if sigma == 0.0:
                assert np.isnan(sub.psi[i]) and np.isnan(sub.chi[i])
                continue
            f = math.sqrt(schedule.alpha_bar[t_prev]) - math.sqrt(schedule.alpha_bar[t_cur - 1])
            sigma_sq = sigma * sigma
            psi = 2.0 * f * f / sigma_sq
            chi = 2.0 * f * gamma * math.sqrt(1.0 / schedule.alpha_bar[t_cur] - 1.0) / sigma_sq
            assert sub.psi[i] == psi
            assert sub.chi[i] == chi
            assert sub.latent_weight[i] == 2.0 * f / sigma
            if stride == 1:
                assert psi == chi == 0.0


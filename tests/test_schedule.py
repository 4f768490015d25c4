import math

import numpy as np
import pytest

from distill_lab.errors import DegenerateTimestepError
from distill_lab.schedule import (
    build_linear_schedule,
    build_subsequence,
    pds_coeffs,
    posterior_coeffs,
    posterior_coeffs_pair,
)


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


class TestPosteriorCoeffs:
    def test_degenerate_first_step(self, schedule):
        pc = posterior_coeffs(schedule, 1)
        assert (pc.gamma, pc.delta, pc.sigma) == (1.0, 0.0, 0.0)

    def test_identity_holds_for_every_t(self, schedule):
        worst = 0.0
        for t in range(1, schedule.T + 1):
            pc = posterior_coeffs(schedule, t)
            gap = abs(
                pc.gamma + pc.delta * math.sqrt(schedule.alpha_bar[t])
                - math.sqrt(schedule.alpha_bar[t - 1])
            )
            worst = max(worst, gap)
        assert worst < 1e-10

    def test_matches_independent_formulas_at_t500(self, schedule):
        # duplicate-formula oracle, written out without shared helpers
        t = 500
        ab_prev, ab = schedule.alpha_bar[t - 1], schedule.alpha_bar[t]
        alpha, beta = schedule.alpha[t], schedule.beta[t]
        pc = posterior_coeffs(schedule, t)
        assert pc.gamma == pytest.approx(math.sqrt(ab_prev) * (1 - alpha) / (1 - ab), rel=1e-14)
        assert pc.delta == pytest.approx(math.sqrt(alpha) * (1 - ab_prev) / (1 - ab), rel=1e-14)
        assert pc.sigma == pytest.approx((1 - ab_prev) / (1 - ab) * beta, rel=1e-14)

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

    @pytest.mark.parametrize("t", [0, -3, 1001])
    def test_rejects_out_of_range(self, schedule, t):
        with pytest.raises(ValueError):
            posterior_coeffs(schedule, t)

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

    def test_pair_form_reduces_to_consecutive(self, schedule):
        for t in (2, 100, 500, 1000):
            one = posterior_coeffs(schedule, t)
            two = posterior_coeffs_pair(schedule, t - 1, t)
            assert two.gamma == pytest.approx(one.gamma, rel=1e-11)
            assert two.delta == pytest.approx(one.delta, rel=1e-11)
            assert two.sigma == pytest.approx(one.sigma, rel=1e-11)

    def test_pair_form_from_clean_level_is_deterministic(self, schedule):
        pc = posterior_coeffs_pair(schedule, 0, 400)
        assert pc.gamma == 1.0
        assert pc.delta == 0.0
        assert pc.sigma == 0.0

    def test_pair_form_rejects_bad_order(self, schedule):
        with pytest.raises(ValueError):
            posterior_coeffs_pair(schedule, 10, 10)
        with pytest.raises(ValueError):
            posterior_coeffs_pair(schedule, -1, 10)


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


class TestPdsCoeffs:
    def test_stride_one_coefficients_vanish(self, schedule):
        sub = build_subsequence(schedule, 1, 0.02, 0.98)
        for i in range(sub.lo_index, sub.hi_index + 1, 37):
            c = pds_coeffs(schedule, sub, i)
            assert c.psi == 0.0
            assert c.chi == 0.0

    def test_stride_two_psi_positive(self, schedule, subsequence):
        c = pds_coeffs(schedule, subsequence, 250)
        assert c.psi > 0.0

    def test_chi_sign_follows_common_factor(self, schedule, subsequence):
        # the common factor is positive for stride >= 2, so chi > 0 as well
        for i in (10, 123, 250, 490):
            c = pds_coeffs(schedule, subsequence, i)
            assert c.chi > 0.0
            assert c.psi >= 0.0

    def test_matches_literal_formula(self, schedule, subsequence):
        # duplicate-formula oracle: the literal expression with gamma/delta
        worst = 0.0
        for i in range(subsequence.lo_index, subsequence.hi_index + 1, 7):
            t_cur = int(subsequence.tau[i])
            t_prev = int(subsequence.tau[i - 1])
            pc = posterior_coeffs(schedule, t_cur)
            f = (
                math.sqrt(schedule.alpha_bar[t_prev])
                - pc.gamma
                - pc.delta * math.sqrt(schedule.alpha_bar[t_cur])
            )
            psi = 2.0 * f * f / pc.sigma**2
            chi = 2.0 * f * pc.gamma * math.sqrt(1.0 / schedule.alpha_bar[t_cur] - 1.0) / pc.sigma**2
            c = pds_coeffs(schedule, subsequence, i)
            worst = max(worst, abs(c.psi - psi) / psi, abs(c.chi - chi) / abs(chi))
        assert worst < 1e-8

    def test_cross_check_ratio(self, schedule, subsequence):
        # chi^2 / psi = 2 gamma^2 (1/ab - 1) / sigma^2 whenever psi > 0
        for i in (10, 100, 250, 400, 490):
            t = int(subsequence.tau[i])
            pc = posterior_coeffs(schedule, t)
            c = pds_coeffs(schedule, subsequence, i)
            expected = 2.0 * pc.gamma**2 * (1.0 / schedule.alpha_bar[t] - 1.0) / pc.sigma**2
            assert c.chi**2 / c.psi == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("stride", [2, 5, 10])
    def test_vanishes_only_on_consecutive_pairs(self, schedule, stride):
        sub = build_subsequence(schedule, stride, 0.02, 0.98)
        for i in range(sub.lo_index, sub.hi_index + 1, 13):
            c = pds_coeffs(schedule, sub, i)
            consecutive = sub.tau[i - 1] == sub.tau[i] - 1
            assert (c.psi == 0.0 and c.chi == 0.0) == consecutive

    @pytest.mark.parametrize("stride", [1, 2, 3, 10])
    def test_grid_arrays_equal_scalar_formula(self, schedule, stride):
        # every defined entry, sampled or not, against the scalar arithmetic
        sub = build_subsequence(schedule, stride, 0.02, 0.98)
        for name in ("psi", "chi", "latent_weight"):
            assert np.isnan(getattr(sub, name)[0])
        for i in range(1, sub.S + 1):
            t_cur, t_prev = int(sub.tau[i]), int(sub.tau[i - 1])
            pc = posterior_coeffs(schedule, t_cur)
            if pc.sigma == 0.0:
                assert np.isnan(sub.psi[i]) and np.isnan(sub.chi[i])
                continue
            f = math.sqrt(schedule.alpha_bar[t_prev]) - math.sqrt(schedule.alpha_bar[t_cur - 1])
            sigma_sq = pc.sigma * pc.sigma
            psi = 2.0 * f * f / sigma_sq
            chi = 2.0 * f * pc.gamma * math.sqrt(1.0 / schedule.alpha_bar[t_cur] - 1.0) / sigma_sq
            assert sub.psi[i] == psi
            assert sub.chi[i] == chi
            assert sub.latent_weight[i] == 2.0 * f / pc.sigma
            if stride == 1:
                assert psi == chi == 0.0

    def test_rejects_out_of_range_index(self, schedule, subsequence):
        with pytest.raises(ValueError):
            pds_coeffs(schedule, subsequence, subsequence.lo_index - 1)
        with pytest.raises(ValueError):
            pds_coeffs(schedule, subsequence, subsequence.hi_index + 1)

    def test_degenerate_first_timestep_error(self):
        # stride 1 with a sampling range forced down to i = 1 is impossible by
        # construction (lo >= 2), so exercise the sigma guard directly
        s = build_linear_schedule(10, 1e-4, 0.02)
        sub = build_subsequence(s, 1, 0.0, 1.0)
        object.__setattr__(sub, "lo_index", 1)
        with pytest.raises(DegenerateTimestepError):
            pds_coeffs(s, sub, 1)

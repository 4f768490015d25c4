import hashlib
import math
import os
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from references import backward, gathered_guided, train_by_steps

from distill_lab import denoiser, latentops
from distill_lab.denoiser import (
    NULL_LABEL,
    ClassSpec,
    Denoiser,
    LabelPlan,
    TrainConfig,
    _features,
    _forward,
    cfg_predict,
    cfg_predict_batch,
    eps,
    load_checkpoint,
    loss_and_grad,
    predict,
    sample_two_marginal_dataset,
    save_checkpoint,
    time_embedding,
    train,
)
from distill_lab.distill import EditProblem, identity_generator
from distill_lab.errors import DivergenceError, MismatchError
from distill_lab.latentops import (ancestral_sample_batch, generate_with_latents_batch, invert,
                                   sdedit_batch, stochastic_latents)
from distill_lab.schedule import build_subsequence


class TestDataset:
    def test_deterministic_under_seed(self, default_config):
        a = sample_two_marginal_dataset(1000, default_config.class_params(), seed=7)
        b = sample_two_marginal_dataset(1000, default_config.class_params(), seed=7)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_balanced_labels(self, dataset):
        _, labels = dataset
        assert np.sum(labels == 1) == np.sum(labels == 2)
        assert set(np.unique(labels)) == {1, 2}

    def test_class_means_within_monte_carlo_error(self, dataset, default_config):
        points, labels = dataset
        for label, spec in zip((1, 2), default_config.class_params()):
            pts = points[labels == label]
            tol = 3.0 * spec.std / math.sqrt(len(pts))
            assert np.all(np.abs(pts.mean(axis=0) - spec.mean) < tol)

    def test_class_sample_of_one_is_the_single_point_draw(self):
        # a per-point draw is sample(rng, 1)[0]: the bits of the (2,) draw it replaced
        spec = ClassSpec(mean=np.array([-2.0, 0.3]), std=0.7)
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(50):
            old = np.asarray(spec.mean) + spec.std * a.standard_normal(2)
            assert spec.sample(b, 1)[0].tobytes() == old.tobytes()
        assert spec.sample(b, 3).shape == (3, 2)

    def test_rejects_degenerate_covariance(self):
        bad = (
            ClassSpec(mean=np.array([-2.0, 0.0]), std=0.0),
            ClassSpec(mean=np.array([2.0, 0.0]), std=0.5),
        )
        with pytest.raises(ValueError):
            sample_two_marginal_dataset(100, bad, seed=0)

    def test_rejects_overlapping_classes(self):
        bad = (
            ClassSpec(mean=np.array([-0.1, 0.0]), std=0.5),
            ClassSpec(mean=np.array([0.1, 0.0]), std=0.5),
        )
        with pytest.raises(ValueError):
            sample_two_marginal_dataset(100, bad, seed=0)

    def test_rejects_odd_n(self, default_config):
        with pytest.raises(ValueError):
            sample_two_marginal_dataset(101, default_config.class_params(), seed=0)


class TestTrainConfig:
    def test_rejects_nonpositive_learning_rate(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    def test_rejects_bad_null_cond_prob(self):
        with pytest.raises(ValueError):
            TrainConfig(null_cond_prob=1.0)
        with pytest.raises(ValueError):
            TrainConfig(null_cond_prob=-0.1)

    @pytest.mark.parametrize("sizes", [{"t_embed_dim": 3}, {"hidden": (0,)}])
    def test_rejects_sizes_no_denoiser_has(self, sizes):
        with pytest.raises(ValueError):
            TrainConfig(**sizes)


class TestPredict:
    def test_zero_initialized_head_outputs_zero(self):
        d = Denoiser.create(seed=5)
        for x, y, t in [((0.0, 0.0), 1, 1), ((3.0, -2.0), 2, 500), ((-1.0, 1.0), NULL_LABEL, 1000)]:
            assert np.array_equal(predict(d, np.array(x), y, t), np.zeros(2))

    def test_deterministic(self, random_model):
        x = np.array([0.4, -0.9])
        a = predict(random_model, x, 1, 321)
        b = predict(random_model, x, 1, 321)
        assert np.array_equal(a, b)

    def test_rejects_invalid_label(self, random_model):
        with pytest.raises(ValueError):
            predict(random_model, np.zeros(2), 3, 10)
        with pytest.raises(ValueError):
            predict(random_model, np.zeros(2), -1, 10)

    def test_single_weight_jacobian_matches_finite_difference(self, schedule, rng):
        # perturb individual weights; the analytic jacobian entry is the
        # backward pass seeded with a one-hot cotangent
        from distill_lab.denoiser import _Fit

        d = Denoiser.create(t_embed_dim=4, hidden=(8, 8), seed=2, random_head=True)
        x = rng.standard_normal((1, 2))
        y = np.array([1])
        t = np.array([137])
        h = 1e-5
        for out_dim in (0, 1):
            cot = np.zeros((1, 2))
            cot[0, out_dim] = 1.0
            _, cache = scratch_forward(d, x, y, t)
            analytic = _Fit(d, 1).backward(d, cache, cot)
            for j in rng.integers(0, d.params.size, size=25):
                d.params[j] += h
                up = scratch_forward(d, x, y, t)[0][0, out_dim]
                d.params[j] -= 2 * h
                dn = scratch_forward(d, x, y, t)[0][0, out_dim]
                d.params[j] += h
                fd = (up - dn) / (2 * h)
                if abs(fd) > 1e-12:
                    assert analytic[j] == pytest.approx(fd, rel=1e-4)


class TestCfgPredict:
    def test_omega_one_equals_conditional(self, random_model):
        x = np.array([0.2, 0.6])
        assert np.array_equal(
            cfg_predict(random_model, x, 2, 55, 1.0), predict(random_model, x, 2, 55)
        )

    def test_omega_zero_equals_unconditional(self, random_model):
        x = np.array([0.2, 0.6])
        assert np.array_equal(
            cfg_predict(random_model, x, 2, 55, 0.0), predict(random_model, x, NULL_LABEL, 55)
        )

    def test_large_omega_matches_direct_arithmetic(self, random_model):
        x = np.array([-0.7, 0.1])
        e_null = predict(random_model, x, NULL_LABEL, 200)
        e_cond = predict(random_model, x, 1, 200)
        got = cfg_predict(random_model, x, 1, 200, 100.0)
        assert np.array_equal(got, e_null + 100.0 * (e_cond - e_null))

    def test_affine_in_omega(self, random_model):
        x = np.array([1.0, -1.0])
        a = cfg_predict(random_model, x, 2, 400, 2.0)
        b = cfg_predict(random_model, x, 2, 400, 5.0)
        c = cfg_predict(random_model, x, 2, 400, 8.0)
        assert np.max(np.abs((b - a) - (c - b))) < 1e-10


class TestEps:
    """The batched evaluation path: every row is bitwise its single-row value."""

    @staticmethod
    def batch_with_duplicates(n, seed):
        rng = np.random.default_rng(seed)
        x = 2.0 * rng.standard_normal((n, 2))
        y = rng.integers(0, 3, size=n)
        t = rng.integers(1, 1001, size=n)
        # the same row at the front, the middle and the end of the batch
        for j in {n // 2, n - 1} - {0}:
            x[j], y[j], t[j] = x[0], y[0], t[0]
        return x, y, t

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 240, 1000])
    @pytest.mark.parametrize("omega", [0.0, 1.0, 7.5])
    def test_rows_equal_single_row_evaluation(self, trained_model, n, omega):
        x, y, t = self.batch_with_duplicates(n, seed=n)
        batch = eps(trained_model, x, y, t, omega)
        assert batch.shape == (n, 2)
        for i in range(n):
            single = eps(trained_model, x[i : i + 1], y[i : i + 1], t[i : i + 1], omega)
            assert np.array_equal(batch[i], single[0])
        for j in {n // 2, n - 1}:
            assert np.array_equal(batch[j], batch[0])

    @pytest.mark.parametrize("omega", [0.0, 1.0, 7.5])
    def test_rows_follow_a_random_permutation_of_the_batch(self, trained_model, omega):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 300))
            x = 2.0 * rng.standard_normal((n, 2))
            y = rng.integers(0, 3, size=n)
            t = rng.integers(1, 1001, size=n)
            perm = rng.permutation(n)
            batch = eps(trained_model, x, y, t, omega)
            shuffled = eps(trained_model, x[perm], y[perm], t[perm], omega)
            assert shuffled.tobytes() == batch[perm].tobytes()

    def test_single_row_equals_batch_one_forward(self, random_model):
        x, y, t = self.batch_with_duplicates(50, seed=3)
        for i in range(50):
            row = (x[i : i + 1], y[i : i + 1], t[i : i + 1])
            want = scratch_forward(random_model, *row)[0]
            assert np.array_equal(eps(random_model, *row, 1.0), want)

    def test_guidance_combines_null_and_conditional_rows(self, random_model):
        x, _, t = self.batch_with_duplicates(7, seed=4)
        y = np.full(7, 2)
        e_null = eps(random_model, x, NULL_LABEL, t, 1.0)
        e_cond = eps(random_model, x, y, t, 1.0)
        assert np.array_equal(eps(random_model, x, y, t, 3.5), e_null + 3.5 * (e_cond - e_null))
        assert np.array_equal(eps(random_model, x, y, t, 0.0), e_null)

    def test_time_table_rows_equal_time_embedding(self, random_model):
        table = random_model.time_rows(np.arange(1001))
        for t in range(1001):
            assert np.array_equal(table[t], time_embedding(np.array([t]), random_model.t_embed_dim)[0])

    def test_time_table_rebuilds_once_per_doubling(self, random_model, monkeypatch):
        builds = []

        def counted(t, dim):
            builds.append(len(t))
            return time_embedding(t, dim)

        monkeypatch.setattr(denoiser, "time_embedding", counted)
        for t in range(1, 1001):
            rows = random_model.time_rows(np.array([t]))
            assert np.array_equal(rows, time_embedding(np.array([t]), random_model.t_embed_dim))
        assert len(builds) <= 11
        assert builds[-1] == 1024

    @pytest.mark.parametrize("t", [10**6, 2**40], ids=["1e6", "2^40"])
    def test_time_table_stops_at_its_cap(self, t):
        # a timestep far above any schedule's T must not size the table
        d = Denoiser.create(seed=5, random_head=True)
        x = np.zeros((3, 2))
        for tt in (500, t, np.array([5, t, 7])):
            eps(d, x, 1, tt, 7.5)
            assert len(d._t_table) == 512 < denoiser._T_TABLE_ROWS  # built at t = 500
            rows = d.time_rows(tt)
            assert rows.shape == np.shape(tt) + (d.t_embed_dim,)
            assert rows.tobytes() == time_embedding(np.ravel(tt), d.t_embed_dim).tobytes()

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("predict_rows", [eps, cfg_predict_batch])
    def test_rejects_non_finite_omega(self, random_model, predict_rows, omega):
        want = re.escape(f"omega must be a finite real, got {omega!r}")
        with pytest.raises(ValueError, match=want):
            predict_rows(random_model, np.zeros((2, 2)), 1, 5, omega)

    def test_layer_cache_follows_replaced_params(self):
        d = Denoiser.create(seed=5, random_head=True)
        x = np.array([[0.3, -0.2]])
        assert np.any(eps(d, x, 1, 10, 1.0) != 0.0)
        d.params = np.zeros_like(d.params)
        assert np.array_equal(eps(d, x, 1, 10, 1.0), np.zeros((1, 2)))

    def test_rejects_invalid_rows(self, random_model):
        x = np.zeros((2, 2))
        with pytest.raises(ValueError):
            eps(random_model, x, [1, 3], 10, 2.0)
        with pytest.raises(ValueError):
            eps(random_model, x, 1, [10, 0], 2.0)
        with pytest.raises(ValueError):
            eps(random_model, x, [1, 2, 1], 10, 2.0)

    def test_empty_batch(self, random_model):
        assert eps(random_model, np.empty((0, 2)), 1, 10, 2.0).shape == (0, 2)

    @pytest.mark.parametrize("x", [[0.3, -0.8], np.array([0.3, -0.8])], ids=["list", "array"])
    def test_one_point_is_one_row(self, random_model, x):
        got = eps(random_model, x, 1, 10, 2.0)
        assert got.tobytes() == eps(random_model, np.array([[0.3, -0.8]]), 1, 10, 2.0).tobytes()

    @pytest.mark.parametrize("shape", [(4,), (2, 1, 2), (3, 3), (1,), (0,)])
    def test_rejects_x_that_is_neither_a_point_nor_rows(self, random_model, shape):
        # a flat (4,) or a (2, 1, 2) array must not be read as two points
        want = re.escape(f"x has shape {shape}, expected (n, 2)")
        with pytest.raises(ValueError, match=want):
            eps(random_model, np.zeros(shape), 1, 10, 2.0)


def one_seq(d, s, sub):
    """A latent sequence of the origin under label 1, to replay."""
    return invert(np.zeros(2), 1, d, 1.0, s, sub, np.random.default_rng(0))


class TestOmegaRule:
    """Every entry point that takes omega checks it by one rule: a finite real."""

    ENTRY_POINTS = {
        "eps": lambda d, s, sub, omega: eps(d, np.zeros((3, 2)), 1, 5, omega),
        "cfg_predict_batch": lambda d, s, sub, omega: cfg_predict_batch(
            d, np.zeros((3, 2)), 1, 5, omega),
        "ancestral_sample_batch": lambda d, s, sub, omega: ancestral_sample_batch(
            d, 1, 3, s, omega, np.random.default_rng(0)),
        "sdedit_batch": lambda d, s, sub, omega: sdedit_batch(
            np.zeros((3, 2)), 1, 0.5, d, omega, s, np.random.default_rng(0)),
        "invert": lambda d, s, sub, omega: invert(
            np.zeros(2), 1, d, omega, s, sub, np.random.default_rng(0)),
        "stochastic_latents": lambda d, s, sub, omega: stochastic_latents(
            np.zeros(2), 1, np.array([1]), np.zeros((1, 2)), np.zeros((1, 2)), d, omega, s, sub),
        "generate_with_latents_batch": lambda d, s, sub, omega: generate_with_latents_batch(
            [one_seq(d, s, sub)], 1, d, omega, s, sub),
        "no sequences": lambda d, s, sub, omega: generate_with_latents_batch(
            [], 1, d, omega, s, sub),
        "EditProblem": lambda d, s, sub, omega: EditProblem(
            np.zeros(2), 1, identity_generator(np.zeros(2)), 2, omega, sub),
    }

    @pytest.fixture()
    def call(self, random_model, small_schedule):
        sub = build_subsequence(small_schedule, 2, 0.02, 0.98)
        return lambda entry, omega: self.ENTRY_POINTS[entry](random_model, small_schedule, sub,
                                                             omega)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, "7.5", None, np.array(2.0),
                                       np.array([2.0])],
                             ids=["nan", "inf", "str", "None", "0-d array", "1-d array"])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_rejects_what_is_not_a_finite_real(self, call, entry, omega):
        with pytest.raises(ValueError, match="omega must be a finite real"):
            call(entry, omega)

    @pytest.mark.parametrize("omega", [2, 2.0, np.float64(2.0)], ids=["int", "float", "float64"])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_accepts_real_scalars(self, call, entry, omega):
        call(entry, omega)


# Every entry point that takes labels, called on three rows (one point for
# the point-wise ones) with the labels ``y``.
LABEL_ENTRY_POINTS = {
    "eps": lambda d, s, sub, y: eps(d, np.zeros((3, 2)), y, 5, 2.0),
    "cfg_predict_batch": lambda d, s, sub, y: cfg_predict_batch(d, np.zeros((3, 2)), y, 5, 2.0),
    "LabelPlan": lambda d, s, sub, y: LabelPlan(y, 3),
    "EditProblem": lambda d, s, sub, y: EditProblem(
        np.zeros(2), 1, identity_generator(np.zeros(2)), y, 2.0, sub),
    "loss_and_grad": lambda d, s, sub, y: loss_and_grad(d, s, np.zeros((3, 2)), y, 5,
                                                        np.zeros((3, 2))),
    "invert": lambda d, s, sub, y: invert(np.zeros(2), y, d, 2.0, s, sub,
                                          np.random.default_rng(0)),
    "stochastic_latents": lambda d, s, sub, y: stochastic_latents(
        np.zeros(2), y, np.array([1]), np.zeros((1, 2)), np.zeros((1, 2)), d, 2.0, s, sub),
    "replay": lambda d, s, sub, y: generate_with_latents_batch([one_seq(d, s, sub)], y, d, 2.0,
                                                               s, sub),
    "no sequences": lambda d, s, sub, y: generate_with_latents_batch([], y, d, 2.0, s, sub),
    "ancestral_sample_batch": lambda d, s, sub, y: ancestral_sample_batch(
        d, y, 3, s, 2.0, np.random.default_rng(0)),
    "sdedit_batch": lambda d, s, sub, y: sdedit_batch(
        np.zeros((3, 2)), y, 0.5, d, 2.0, s, np.random.default_rng(0)),
}

# Every entry point that takes timesteps, called on three rows at timestep ``t``.
TIMESTEP_ENTRY_POINTS = {
    "eps": lambda d, s, t: eps(d, np.zeros((3, 2)), 1, t, 2.0),
    "cfg_predict_batch": lambda d, s, t: cfg_predict_batch(d, np.zeros((3, 2)), 1, t, 2.0),
    "loss_and_grad": lambda d, s, t: loss_and_grad(d, s, np.zeros((3, 2)), 1, t,
                                                   np.zeros((3, 2))),
    "noised": lambda d, s, t: s.noised(np.zeros((3, 2)), t, np.zeros((3, 2))),
    "x0_estimate": lambda d, s, t: s.x0_estimate(np.zeros((3, 2)), t, np.zeros((3, 2))),
}


@pytest.fixture()
def call_with_labels(random_model, small_schedule):
    sub = build_subsequence(small_schedule, 2, 0.02, 0.98)
    return lambda entry, y: LABEL_ENTRY_POINTS[entry](random_model, small_schedule, sub, y)


@pytest.fixture()
def call_with_timesteps(random_model, small_schedule):
    return lambda entry, t: TIMESTEP_ENTRY_POINTS[entry](random_model, small_schedule, t)


class TestLabelRule:
    """Every entry point that takes labels checks their range by one rule:
    0 (null) .. NUM_CLASSES, one message."""

    @pytest.mark.parametrize("y", [3, -1, np.int64(3), np.uint64(3), np.int8(-1)],
                             ids=["3", "-1", "int64", "uint64", "int8"])
    @pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
    def test_rejects_labels_outside_the_range(self, call_with_labels, entry, y):
        with pytest.raises(ValueError, match=re.escape(f"must lie in 0 (null) .. 2, got {y}")):
            call_with_labels(entry, y)

    @pytest.mark.parametrize("y", [0, 2, np.int8(1), np.uint64(2)],
                             ids=["0", "2", "int8", "uint64"])
    @pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
    def test_accepts_labels_in_the_range(self, call_with_labels, entry, y):
        call_with_labels(entry, y)


NOT_INTEGERS = pytest.mark.parametrize(
    "v, got",
    [(True, "bool"), (np.bool_(True), "bool"), (1.0, "float"), (np.float64(1.0), "float64")],
    ids=["bool", "np.bool_", "float", "float64"])


class TestIntegerRule:
    """Every entry point that takes labels or timesteps checks that they are
    integers by one rule, one message: an int or an integer dtype, not bool."""

    @NOT_INTEGERS
    @pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
    def test_rejects_labels_that_are_not_integers(self, call_with_labels, entry, v, got):
        # a label read as an array reports its dtype: 1.0 is float64 there
        with pytest.raises(ValueError, match=re.escape(
                f"must be an integer or have an integer dtype, got {got}")):
            call_with_labels(entry, v)

    @NOT_INTEGERS
    @pytest.mark.parametrize("entry", TIMESTEP_ENTRY_POINTS)
    def test_rejects_timesteps_that_are_not_integers(self, call_with_timesteps, entry, v, got):
        with pytest.raises(ValueError, match=re.escape(
                f"timesteps must be an integer or have an integer dtype, got {got}")):
            call_with_timesteps(entry, v)

    @pytest.mark.parametrize("entry", TIMESTEP_ENTRY_POINTS)
    @pytest.mark.parametrize("t", [np.int8(5), np.uint64(5), np.array([5, 6, 7], dtype=np.int8),
                                   np.array([5, 6, 7], dtype=np.uint64)],
                             ids=["int8", "uint64", "int8_rows", "uint64_rows"])
    def test_accepts_integer_timesteps_of_any_width(self, call_with_timesteps, entry, t):
        def bits(result):  # loss_and_grad returns (loss, grad), the others one array
            return [np.asarray(v).tobytes() for v in
                    (result if isinstance(result, tuple) else (result,))]

        assert bits(call_with_timesteps(entry, t)) == \
            bits(call_with_timesteps(entry, np.asarray(t, dtype=np.int64)))


def one_hot(y):
    """The one-hot label columns of the labels ``y``."""
    return LabelPlan(y, len(y)).cond


def scratch_forward(d, x, y, t, per_row=False):
    """One forward of the rows (x, y, t) on the model's scratch, as eps and
    cfg_predict_batch run theirs: (output, activation cache)."""
    feats, *bufs = d.scratch(x.shape[0])
    return _forward(d, _features(d, x, t, one_hot(y), out=feats), bufs, per_row)


def reference_forward(d, x, y, t):
    """The gemm forward with a fresh array per layer: tanh(h @ w + b)."""
    h = _features(d, x, t, one_hot(y))
    cache = [h]
    layers = d.layers()
    for w, b in layers[:-1]:
        h = np.tanh(h @ w + b)
        cache.append(h)
    w, b = layers[-1]
    return h @ w + b, cache


def reference_rows_forward(d, x, y, t):
    """The per-row forward with a fresh array per layer: each layer is a stack
    of (1, k) @ (k, m) products."""
    h = _features(d, x, t, one_hot(y))
    layers = d.layers()
    for w, b in layers[:-1]:
        h = np.tanh((h[:, None, :] @ w)[:, 0, :] + b)
    w, b = layers[-1]
    return (h[:, None, :] @ w)[:, 0, :] + b


def reference_eps(d, x, y, t, omega):
    """Guidance from one joint per-row forward of the n null and n conditional
    rows; ``y`` and ``t`` are length-n arrays."""
    n = x.shape[0]
    null = np.full(n, NULL_LABEL)
    if omega == 1.0:
        return reference_rows_forward(d, x, y, t)
    if omega == 0.0:
        return reference_rows_forward(d, x, null, t)
    out = reference_rows_forward(
        d, np.concatenate([x, x]), np.concatenate([null, y]), np.concatenate([t, t])
    )
    e_null, e_cond = out[:n], out[n:]
    return e_null + omega * (e_cond - e_null)


def gemm_rows(n, seed):
    rng = np.random.default_rng(seed)
    return 2.0 * rng.standard_normal((n, 2)), rng.integers(0, 3, size=n), rng.integers(1, 1001, size=n)


class TestPerRowForward:
    """eps writes into the same per-model scratch; its bits must not change."""

    def test_eps_equals_reference(self):
        d = Denoiser.create(seed=314, random_head=True)
        for params in (d.params, Denoiser.create(seed=9, random_head=True).params):
            d.params = params
            for n in (0, 1, 3, 128, 1000, 2500):
                x, y, t = gemm_rows(n, seed=n)
                for omega in (0.0, 1.0, 7.5, -0.5):
                    want = reference_eps(d, x, y, t, omega)
                    assert np.array_equal(eps(d, x, y, t, omega), want)

    @pytest.mark.parametrize("n", [1, 500, 2500])
    def test_one_forward_per_part(self, random_model, monkeypatch, n):
        # eps stacks a part's conditional and null rows into one forward of
        # twice its rows; the gemm kernel runs two forwards of its rows, and
        # omega = 0 or 1 one on either kernel
        rows, forward = [], denoiser._forward

        def counted(d, feats, *args):
            rows.append(len(feats))
            return forward(d, feats, *args)

        monkeypatch.setattr(denoiser, "_forward", counted)
        x, y, t = gemm_rows(n, seed=n)
        parts = [min(denoiser._PART_ROWS, n - r) for r in range(0, n, denoiser._PART_ROWS)]
        for omega, evals in ((7.5, 2), (0.0, 1), (1.0, 1)):
            rows.clear()
            eps(random_model, x, y, t, omega)
            assert sorted(rows) == sorted(evals * p for p in parts), omega
            rows.clear()
            cfg_predict_batch(random_model, x, 2, 300, omega)
            assert sorted(rows) == sorted(parts * evals), omega

    def test_eps_and_gemm_results_survive_each_other(self, random_model):
        x, y, t = gemm_rows(200, seed=7)
        rows = eps(random_model, x, y, t, 7.5)
        batch = cfg_predict_batch(random_model, x, 2, 300, 7.5)
        rows_copy, batch_copy = rows.copy(), batch.copy()
        eps(random_model, x, y, t, 7.5)
        assert np.array_equal(rows, rows_copy)
        cfg_predict_batch(random_model, x, 2, 300, 7.5)
        assert np.array_equal(batch, batch_copy)
        assert np.array_equal(rows, reference_eps(random_model, x, y, t, 7.5))


class TestLabelPlan:
    """A label plan is the labels checked once; eps reads it as the raw labels."""

    @staticmethod
    def rows(n, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 3, size=n)
        y[: min(n, 3)] = [0, 1, 2][: min(n, 3)]  # null, 1 and 2 in every batch of 3 or more
        return 2.0 * rng.standard_normal((n, 2)), y, rng.integers(1, 1001, size=n)

    @pytest.mark.parametrize("n", [1, 2, 50, 500])
    @pytest.mark.parametrize("omega", [0.0, 1.0, 2.0, 7.5])
    def test_plan_equals_per_call_evaluation(self, trained_model, n, omega):
        x, y, t = self.rows(n, seed=n)
        plan = LabelPlan(y, n)
        for tt in (t, np.int64(t[0]), int(t[-1])):
            got = eps(trained_model, x, plan, tt, omega)
            assert got.tobytes() == eps(trained_model, x, y, tt, omega).tobytes()
            want = reference_eps(trained_model, x, y, np.broadcast_to(tt, (n,)), omega)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("omega", [0.0, 1.0, 2.0, 7.5])
    def test_scalar_label_plan_on_both_forwards(self, trained_model, omega):
        x, _, t = self.rows(50, seed=5)
        plan = LabelPlan(2, 50)
        assert eps(trained_model, x, plan, t, omega).tobytes() == \
            eps(trained_model, x, 2, t, omega).tobytes()
        assert cfg_predict_batch(trained_model, x, plan, 300, omega).tobytes() == \
            cfg_predict_batch(trained_model, x, 2, 300, omega).tobytes()

    @pytest.mark.parametrize(
        "y, want",
        [
            ([1, 3], "labels must lie in 0 (null) .. 2"),
            ([-1, 1], "labels must lie in 0 (null) .. 2"),
            ([1.0, 2.0], "labels must be an integer or have an integer dtype, got float64"),
            ([1, 2, 1], "labels have shape (3,), expected (2,)"),
            ([[1], [2]], "labels have shape (2, 1), expected (2,)"),
        ],
    )
    def test_bad_labels_raise_when_the_plan_is_built(self, random_model, y, want):
        with pytest.raises(ValueError, match=re.escape(want)):
            LabelPlan(y, 2)
        with pytest.raises(ValueError, match=re.escape(want)):
            eps(random_model, np.zeros((2, 2)), y, 10, 2.0)

    def test_plan_for_other_rows_is_rejected(self, random_model):
        plan = LabelPlan([1, 2], 2)
        with pytest.raises(ValueError, match=re.escape("labels have shape (2,), expected (3,)")):
            eps(random_model, np.zeros((3, 2)), plan, 10, 2.0)

    def test_no_stale_rows(self, trained_model):
        x, y, t = self.rows(50, seed=9)
        other = np.where(y == 2, 1, 2)
        want = {k: eps(trained_model, x, labels, t, 7.5).tobytes()
                for k, labels in (("y", y.copy()), ("other", other))}
        plan, other_plan = LabelPlan(y, 50), LabelPlan(other, 50)
        for _ in range(2):  # alternate two plans over one model's scratch
            assert eps(trained_model, x, plan, t, 7.5).tobytes() == want["y"]
            assert eps(trained_model, x, other_plan, t, 7.5).tobytes() == want["other"]
        # the plan keeps the labels it was built with; raw labels are read anew
        y[:] = other
        assert eps(trained_model, x, plan, t, 7.5).tobytes() == want["y"]
        assert eps(trained_model, x, y, t, 7.5).tobytes() == want["other"]
        with pytest.raises(ValueError):
            plan.labels[0] = 1
        with pytest.raises(ValueError):
            plan.cond[0] = 0.0


class TestLineAlignment:
    """Weights and scratch start on a 64-byte cache line, which only moves time."""

    def test_parameters_and_scratch_start_on_a_cache_line(self, tmp_path):
        d = Denoiser.create(seed=3, random_head=True)
        save_checkpoint(d, tmp_path / "m.ckpt", T=1000)
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        assert np.array_equal(loaded.params, d.params)
        for params in (d.params, loaded.params):
            assert params.ctypes.data % 64 == 0
        for n in (1, 7, 80, 1000):
            assert [buf.ctypes.data % 64 for buf in d.scratch(n)] == [0] * (len(d.arch) - 1)

    def test_bits_do_not_depend_on_where_the_weights_start(self, trained_model):
        x, y, t = gemm_rows(200, seed=11)
        want = (eps(trained_model, x, y, t, 7.5).tobytes(),
                cfg_predict_batch(trained_model, x, 1, 500, 2.0).tobytes())
        size = trained_model.params.size
        for offset in range(1, 8):  # 8 to 56 bytes past a cache line
            raw = np.empty(size + 15)
            start = -raw.ctypes.data % 64 // 8 + offset
            d = Denoiser(params=raw[start : start + size], arch=trained_model.arch,
                         t_embed_dim=trained_model.t_embed_dim)
            d.params[:] = trained_model.params
            assert (eps(d, x, y, t, 7.5).tobytes(),
                    cfg_predict_batch(d, x, 1, 500, 2.0).tobytes()) == want


class TestGemmForward:
    """The gemm forward writes into per-model scratch; its bits must not change."""

    def test_output_and_cache_equal_reference(self):
        d = Denoiser.create(seed=314, random_head=True)
        for params in (d.params, Denoiser.create(seed=9, random_head=True).params):
            d.params = params
            for n in (0, 1, 3, 128, 4000):
                x, y, t = gemm_rows(n, seed=n)
                out, cache = scratch_forward(d, x, y, t)
                ref_out, ref_cache = reference_forward(d, x, y, t)
                assert np.array_equal(out, ref_out)
                assert len(cache) == len(ref_cache)
                for got, want in zip(cache, ref_cache):
                    assert np.array_equal(got, want)

    def test_guided_batch_keeps_the_first_forward(self, random_model):
        x, _, _ = gemm_rows(300, seed=1)
        e_null = reference_forward(random_model, x, np.full(300, NULL_LABEL), np.full(300, 77))[0]
        e_cond = reference_forward(random_model, x, np.full(300, 2), np.full(300, 77))[0]
        got = cfg_predict_batch(random_model, x, 2, 77, 2.5)
        assert np.array_equal(got, e_null + 2.5 * (e_cond - e_null))

    @pytest.mark.parametrize("y, t", [(-1, 10), (3, 10), (1, 0), (1, "T + 1")])
    def test_loss_and_grad_rejects_invalid_rows(self, random_model, schedule, y, t):
        t = schedule.T + 1 if t == "T + 1" else t
        with pytest.raises(ValueError):
            loss_and_grad(random_model, schedule, np.zeros((1, 2)), np.array([y]), np.array([t]),
                          np.zeros((1, 2)))

    @pytest.mark.parametrize("y, t", [(1.5, 10), (1, 2.7)], ids=["float_label", "float_timestep"])
    def test_rejects_non_integer_labels_and_timesteps(self, random_model, schedule, y, t):
        # a fractional value must not be truncated to a valid integer row
        x = np.zeros((1, 2))
        with pytest.raises(ValueError, match="integer dtype"):
            eps(random_model, x, y, t, 2.0)
        with pytest.raises(ValueError, match="integer dtype"):
            loss_and_grad(random_model, schedule, x, np.array([y]), np.array([t]), x)
        with pytest.raises(ValueError, match="integer dtype"):
            cfg_predict_batch(random_model, x, y, t, 2.0)

    def test_loss_and_grad_equal_reference(self, random_model, schedule):
        x0, y, t = gemm_rows(128, seed=2)
        noise = np.random.default_rng(3).standard_normal((128, 2))
        loss, grad = loss_and_grad(random_model, schedule, x0, y, t, noise)
        ab = schedule.alpha_bar[t][:, None]
        x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * noise
        out, cache = reference_forward(random_model, x_t, y, t)
        resid = out - noise
        assert loss == float(np.mean(np.sum(resid**2, axis=1)))
        assert np.array_equal(grad, backward(random_model, cache, 2.0 * resid / 128))

    def test_scratch_reused_only_at_the_same_row_count(self, random_model):
        for per_row in (False, True):
            first = scratch_forward(random_model, *gemm_rows(64, seed=4), per_row)[1]
            same = scratch_forward(random_model, *gemm_rows(64, seed=5), per_row)[1]
            other = scratch_forward(random_model, *gemm_rows(65, seed=6), per_row)[1]
            for k in range(1, len(first)):
                assert np.shares_memory(first[k], same[k])
                assert not np.shares_memory(first[k], other[k])

    @pytest.mark.parametrize("shape", [(2,), (3, 1), (2, 3), (1, 2, 2)])
    def test_guided_batch_rejects_wrong_shape(self, random_model, shape):
        with pytest.raises(ValueError, match="shape"):
            cfg_predict_batch(random_model, np.zeros(shape), 1, 10, 2.0)
        with pytest.raises(ValueError, match=re.escape(f"x has shape {shape}, expected (n, 2)")):
            cfg_predict_batch(random_model, np.zeros(shape).tolist(), 1, 10, 2.0)

    def test_guided_batch_takes_a_list(self, random_model):
        x = [[0.3, -0.8], [1.5, 2.0], [-1.0, 0.0]]
        got = cfg_predict_batch(random_model, x, 2, 300, 2.0)
        assert got.tobytes() == cfg_predict_batch(random_model, np.array(x), 2, 300, 2.0).tobytes()

    @pytest.mark.parametrize("omega", [0.0, 1.0, 2.0])
    def test_guided_batch_equals_gathered_feature_forward(self, trained_model, omega):
        # cfg_predict_batch builds one feature row's embedding and one-hot
        # label and broadcasts them; the bits are those of n gathered rows
        x, _, _ = gemm_rows(4000, seed=8)
        for y, t in ((1, 1), (2, 500), (1, 1000)):
            got = cfg_predict_batch(trained_model, x, y, t, omega)
            assert got.tobytes() == gathered_guided(trained_model, x, y, t, omega).tobytes()

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="minor-fault counts are Linux-specific"
    )
    @pytest.mark.parametrize(
        "n, predict_batch",
        [
            (4000, lambda d, x: cfg_predict_batch(d, x, 1, 500, 2.0)),
            (1000, lambda d, x: eps(d, x, 1, np.arange(1, 1001), 7.5)),
        ],
        ids=["gemm", "per-row"],
    )
    def test_large_batch_forward_adds_no_page_faults(self, trained_model, n, predict_batch):
        resource = pytest.importorskip("resource")
        x = np.random.default_rng(0).standard_normal((n, 2))
        predict_batch(trained_model, x)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            predict_batch(trained_model, x)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2000


class TestParts:
    """A guided call of over _PART_ROWS rows runs as fixed parts on several
    threads; 2,500 rows are parts of 1,024, 1,024 and 452 rows."""

    N = 2500
    PARTS = [slice(0, 1024), slice(1024, 2048), slice(2048, 2500)]

    @classmethod
    def predictors(cls, seed):
        x, y, t = gemm_rows(cls.N, seed)
        return {"eps": lambda d, omega: eps(d, x, y, t, omega),
                "gemm": lambda d, omega: cfg_predict_batch(d, x, 2, 300, omega)}

    def test_parts_do_not_depend_on_the_worker_count(self, random_model, monkeypatch):
        # with two CPUs the first part waits until a part starts on a second
        # thread, so both threads run parts
        ran, second = [], threading.Event()
        guided_rows = denoiser._guided_rows

        def recording(d, x, *args):
            ran.append((threading.get_ident(), len(x)))
            if len({ident for ident, _ in ran}) > 1:
                second.set()
            elif denoiser._cpus() > 1:
                assert second.wait(10)
            return guided_rows(d, x, *args)

        monkeypatch.setattr(denoiser, "_guided_rows", recording)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for name, predict in self.predictors(seed=3).items():
                for omega in (0.0, 1.0, 7.5):
                    got = {}
                    for cpus in (1, 2):
                        monkeypatch.setattr(denoiser, "_cpus", lambda: cpus)
                        ran.clear()
                        second.clear()
                        got[cpus] = predict(random_model, omega).tobytes()
                        assert sorted(rows for _, rows in ran) == [452, 1024, 1024]
                        assert len({ident for ident, _ in ran}) == cpus
                    assert got[1] == got[2], (name, omega)
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.parametrize("omega", [0.0, 1.0, 7.5])
    def test_each_gemm_part_equals_the_part_alone(self, trained_model, omega):
        x, _, _ = gemm_rows(self.N, seed=4)
        whole = cfg_predict_batch(trained_model, x, 1, 500, omega)
        for part in self.PARTS:
            alone = cfg_predict_batch(trained_model, x[part], 1, 500, omega)
            assert whole[part].tobytes() == alone.tobytes()

    def test_a_part_raising_in_a_worker_propagates(self, random_model, monkeypatch):
        # the caller's first part waits until the worker has raised in one of its own
        guided_rows, raised = denoiser._guided_rows, threading.Event()

        def failing(*args):
            if threading.current_thread() is threading.main_thread():
                assert raised.wait(10)
                return guided_rows(*args)
            raised.set()
            raise RuntimeError("part failed")

        monkeypatch.setattr(denoiser, "_cpus", lambda: 2)
        monkeypatch.setattr(denoiser, "_guided_rows", failing)
        x, y, t = gemm_rows(self.N, seed=5)
        with pytest.raises(RuntimeError, match="part failed"):
            eps(random_model, x, y, t, 7.5)
        monkeypatch.setattr(denoiser, "_guided_rows", guided_rows)
        assert eps(random_model, x, y, t, 7.5).tobytes() == reference_eps(
            random_model, x, y, t, 7.5).tobytes()

    @pytest.mark.parametrize("mode", ["raise", "ignore"])
    def test_parts_run_under_the_callers_error_state(self, random_model, monkeypatch, mode):
        # only the middle part, which the second thread mostly takes, turns
        # invalid: whichever thread runs it, the caller's error state holds
        # (pyproject turns an escaped RuntimeWarning into an error)
        monkeypatch.setattr(denoiser, "_cpus", lambda: 2)
        x, y, t = gemm_rows(self.N, seed=6)
        x[self.PARTS[1]] = np.inf
        for _ in range(20):
            with np.errstate(all=mode):
                if mode == "ignore":
                    assert np.isnan(eps(random_model, x, y, t, 7.5)[self.PARTS[1]]).all()
                    continue
                with pytest.raises(FloatingPointError, match="invalid value"):
                    eps(random_model, x, y, t, 7.5)

    def test_a_forked_child_builds_its_own_pool(self, monkeypatch):
        parent = denoiser._part_pool()
        monkeypatch.setattr(denoiser, "_pool", (os.getpid() + 1, parent))
        child = denoiser._part_pool()
        try:
            assert child is not parent
            assert denoiser._part_pool() is child
        finally:
            child.shutdown()


class TestTrainStep:
    def test_oracle_predictions_give_zero_loss(self, schedule, rng):
        # zero injected noise with a zero-output model: exact residual match
        d = Denoiser.create(seed=5)
        x0 = rng.standard_normal((4, 2))
        y = np.array([1, 2, 1, NULL_LABEL])
        t = np.array([10, 200, 600, 999])
        eps = np.zeros((4, 2))
        loss, grad = loss_and_grad(d, schedule, x0, y, t, eps)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_parameter_gradient_matches_finite_difference(self, schedule, rng):
        d = Denoiser.create(t_embed_dim=4, hidden=(8, 8), seed=11, random_head=True)
        d.params += 0.3 * rng.standard_normal(d.params.size)
        x0 = rng.standard_normal((3, 2))
        y = rng.integers(0, 3, size=3)
        t = rng.integers(1, schedule.T + 1, size=3)
        eps = rng.standard_normal((3, 2))
        _, grad = loss_and_grad(d, schedule, x0, y, t, eps)
        h = 1e-5
        fd = np.empty_like(grad)
        for j in range(d.params.size):
            d.params[j] += h
            up, _ = loss_and_grad(d, schedule, x0, y, t, eps)
            d.params[j] -= 2 * h
            dn, _ = loss_and_grad(d, schedule, x0, y, t, eps)
            d.params[j] += h
            fd[j] = (up - dn) / (2 * h)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-4

    def test_returns_pre_update_loss_and_makes_progress(self, schedule, dataset):
        d = Denoiser.create(seed=21)
        cfg = TrainConfig(steps=2000, batch_size=128, seed=21)
        losses = train(d, dataset, schedule, cfg)
        early = float(np.mean(losses[:50]))
        late = float(np.mean(losses[-50:]))
        assert late < early

    def test_held_out_loss_decreases_from_initialization(self, schedule, dataset):
        # fixed evaluation batch with frozen timesteps and noises, never trained on
        rng = np.random.default_rng(77)
        x0 = np.array([-2.0, 0.0]) + 0.5 * rng.standard_normal((256, 2))
        y = np.ones(256, dtype=int)
        t = rng.integers(1, schedule.T + 1, size=256)
        eps = rng.standard_normal((256, 2))
        d = Denoiser.create(seed=23)
        before, _ = loss_and_grad(d, schedule, x0, y, t, eps)
        train(d, dataset, schedule, TrainConfig(steps=2000, batch_size=128, seed=23))
        after, _ = loss_and_grad(d, schedule, x0, y, t, eps)
        assert after < before

    def test_divergence_raises(self, schedule, dataset):
        d = Denoiser.create(seed=3)
        d.params[:] = np.nan
        cfg = TrainConfig(steps=1, batch_size=8, seed=0)
        points, labels = dataset
        with pytest.raises(DivergenceError):
            train(d, (points[:8], labels[:8]), schedule, cfg)

    def test_rejects_empty_batch(self, schedule):
        d = Denoiser.create(seed=3)
        with pytest.raises(ValueError, match="empty dataset"):
            train(d, (np.empty((0, 2)), np.empty(0, dtype=int)), schedule, TrainConfig())

    @pytest.mark.parametrize("n_labels", [5, 12])
    def test_rejects_labels_of_another_length(self, schedule, dataset, monkeypatch, n_labels):
        # caught before the first draw, so no step trains on a part of the data
        points, labels = dataset
        d = Denoiser.create(seed=3)
        before = d.params.copy()
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
        with pytest.raises(ValueError, match=f"10 points but {n_labels} labels"):
            train(d, (points[:10], labels[:n_labels]), schedule, TrainConfig(steps=20))
        assert d.params.tobytes() == before.tobytes()

    def test_gradient_is_not_reused_across_calls(self, random_model, schedule):
        # acceptance criterion 5 holds one call's gradient across later calls
        x0, y, t = gemm_rows(16, seed=8)
        noise = np.random.default_rng(9).standard_normal((16, 2))
        _, first = loss_and_grad(random_model, schedule, x0, y, t, noise)
        kept = first.copy()
        _, second = loss_and_grad(random_model, schedule, x0[::-1].copy(), y, t, 2.0 * noise)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()


# Steps per block of train at batch 128
BLOCK = denoiser._BLOCK_ROWS // 128


class TestTrainBlocks:
    """train builds a block of steps' inputs at once; its params and losses
    equal those of training one step at a time, to the bit."""

    @staticmethod
    def both(dataset, schedule, cfg):
        blocked, stepped = Denoiser.create(seed=cfg.seed), Denoiser.create(seed=cfg.seed)
        losses = train(blocked, dataset, schedule, cfg)
        want = list(train_by_steps(stepped, dataset, schedule, cfg))
        assert np.array(losses).tobytes() == np.array(want).tobytes()
        assert blocked.params.tobytes() == stepped.params.tobytes()

    @pytest.mark.parametrize("steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize("null_cond_prob", [0.0, TrainConfig.null_cond_prob])
    def test_equals_training_by_steps(self, schedule, dataset, steps, null_cond_prob):
        cfg = TrainConfig(steps=steps, batch_size=128, null_cond_prob=null_cond_prob, seed=6)
        self.both(dataset, schedule, cfg)

    @pytest.mark.parametrize("null_cond_prob", [0.0, TrainConfig.null_cond_prob])
    def test_batch_at_least_the_dataset(self, schedule, dataset, null_cond_prob):
        points, labels = dataset
        small = (points[::50], labels[::50])
        cfg = TrainConfig(steps=70, batch_size=len(labels), null_cond_prob=null_cond_prob, seed=6)
        self.both(small, schedule, cfg)

    def test_divergence_inside_a_block(self, schedule, dataset, monkeypatch):
        points, labels = dataset
        points = points[:200].copy()
        points[77] = np.nan
        nan_data = (points, labels[:200])
        cfg = TrainConfig(steps=40, batch_size=8, seed=2)  # one block at batch 8
        stepped, blocked = Denoiser.create(seed=2), Denoiser.create(seed=2)
        done = []
        with pytest.raises(DivergenceError):
            for loss in train_by_steps(stepped, nan_data, schedule, cfg):
                done.append(loss)
        # the NaN point is first drawn by a later step, inside the first block
        assert 1 < len(done) + 1 < cfg.steps

        calls = []
        step = denoiser._train_step

        def counted(*args):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr(denoiser, "_train_step", counted)
        fns = denoiser._blas_thread_fns()
        threads = fns[0]() if fns else None
        with pytest.raises(DivergenceError):
            train(blocked, nan_data, schedule, cfg)
        assert (fns[0]() if fns else None) == threads
        # same step diverges, and its update is not applied
        assert len(calls) == len(done) + 1
        assert blocked.opt_state.step == stepped.opt_state.step == len(done)
        assert blocked.params.tobytes() == stepped.params.tobytes()


@pytest.fixture()
def blas_threads():
    """The OpenBLAS thread-count getter, with the count set to 2 for the test
    and put back afterwards."""
    fns = denoiser._blas_thread_fns()
    if fns is None:
        pytest.skip("no bundled OpenBLAS whose thread count can be read and set")
    get, set_ = fns
    before = get()
    set_(2)
    yield get
    set_(before)


class TestTrainBlasThreads:
    """train runs its steps on one BLAS thread and restores the caller's count."""

    CFG = TrainConfig(steps=20, batch_size=128, seed=4)

    def test_steps_see_one_thread(self, blas_threads, schedule, dataset, monkeypatch):
        seen = []
        train_step = denoiser._train_step

        def recording_step(*args):
            seen.append(blas_threads())
            return train_step(*args)

        monkeypatch.setattr(denoiser, "_train_step", recording_step)
        train(Denoiser.create(seed=4), dataset, schedule, self.CFG)
        assert seen == [1] * self.CFG.steps

    def test_caller_count_restored(self, blas_threads, schedule, dataset):
        train(Denoiser.create(seed=4), dataset, schedule, self.CFG)
        assert blas_threads() == 2

    def test_caller_count_restored_on_divergence(self, blas_threads, schedule):
        nan_points = (np.full((4, 2), np.nan), np.array([1, 1, 2, 2]))
        with pytest.raises(DivergenceError):
            train(Denoiser.create(seed=4), nan_points, schedule, self.CFG)
        assert blas_threads() == 2

    def test_overlapping_trains_restore_once(self, blas_threads, schedule, dataset, monkeypatch):
        # train "a" starts first and returns first; "b" must keep one thread
        # after "a" returns, and the count goes back to 2 when "b" returns
        a_in, b_in, a_done = threading.Event(), threading.Event(), threading.Event()
        waited, seen_after_a = [], []
        train_step = denoiser._train_step

        def step(*args):
            name = threading.current_thread().name
            if name == "a" and not a_in.is_set():
                a_in.set()
                waited.append(b_in.wait(10))
            elif name == "b" and not b_in.is_set():
                b_in.set()
                waited.append(a_done.wait(10))
                seen_after_a.append(blas_threads())
            return train_step(*args)

        def run_a():
            train(Denoiser.create(seed=4), dataset, schedule, self.CFG)
            a_done.set()

        def run_b():
            waited.append(a_in.wait(10))
            train(Denoiser.create(seed=5), dataset, schedule, self.CFG)

        monkeypatch.setattr(denoiser, "_train_step", step)
        threads = [threading.Thread(target=run_a, name="a"), threading.Thread(target=run_b, name="b")]
        for th in threads:
            th.start()
        for th in threads:
            th.join(30)
        assert not any(th.is_alive() for th in threads)
        assert waited == [True, True, True]
        assert seen_after_a == [1]
        assert blas_threads() == 2

    def test_same_params_without_the_library(self, blas_threads, schedule, dataset, monkeypatch):
        one_thread = Denoiser.create(seed=4)
        train(one_thread, dataset, schedule, self.CFG)
        monkeypatch.setattr(denoiser, "_blas_thread_fns", lambda: None)
        caller_threads = Denoiser.create(seed=4)
        train(caller_threads, dataset, schedule, self.CFG)
        assert blas_threads() == 2
        assert one_thread.params.tobytes() == caller_threads.params.tobytes()

    @pytest.mark.parametrize("batch_size", [128, 512, 1000])
    def test_params_do_not_depend_on_caller_count(self, blas_threads, schedule, dataset, batch_size):
        # at batch 1000 OpenBLAS's two-thread weight-gradient gemm differs from
        # its one-thread result in the last bits; train gives the same bits
        # whatever count its caller runs at
        cfg = TrainConfig(steps=20, batch_size=batch_size, seed=4)
        params = []
        for count in (2, 1):
            denoiser._blas_thread_fns()[1](count)
            d = Denoiser.create(seed=4)
            train(d, dataset, schedule, cfg)
            assert blas_threads() == count
            params.append(d.params.tobytes())
        assert params[0] == params[1]


class TestSamplerBlasThreads:
    """Every reverse chain runs its steps on one BLAS thread and restores the
    caller's count."""

    @staticmethod
    def chain(name, d, s, sub):
        """A run of the named chain on fixed inputs, and the predictor name
        that latentops calls at each of its steps."""
        rng = np.random.default_rng(8)
        if name == "ancestral":
            return (lambda: ancestral_sample_batch(d, 1, 8, s, 2.0, rng)), "cfg_predict_batch"
        if name == "sdedit":
            x0 = rng.standard_normal((8, 2))
            return (lambda: sdedit_batch(x0, 2, 0.5, d, 2.0, s, rng)), "cfg_predict_batch"
        seq = invert(np.array([-2.0, 0.3]), 1, d, 2.0, s, sub, rng)
        return (lambda: latentops.generate_with_latents(seq, 2, d, 2.0, s, sub)), "eps"

    @pytest.mark.parametrize("name", ["ancestral", "sdedit", "replay"])
    def test_chain_steps_see_one_thread(self, blas_threads, trained_model, schedule, subsequence,
                                        monkeypatch, name):
        run, predictor = self.chain(name, trained_model, schedule, subsequence)
        seen = []
        predict = getattr(latentops, predictor)

        def recording(*args):
            seen.append(blas_threads())
            return predict(*args)

        monkeypatch.setattr(latentops, predictor, recording)
        run()
        assert seen and seen == [1] * len(seen)
        assert blas_threads() == 2

    @pytest.mark.parametrize("name", ["ancestral", "sdedit"])
    def test_caller_count_restored_on_divergence(self, blas_threads, trained_model, schedule,
                                                 subsequence, name):
        nan_bias = Denoiser(params=trained_model.params.copy(), arch=trained_model.arch,
                            t_embed_dim=trained_model.t_embed_dim)
        nan_bias.layers()[-1][1][-1] = np.nan
        run, _ = self.chain(name, nan_bias, schedule, subsequence)
        with pytest.raises(DivergenceError, match="generative chain"):
            run()
        assert blas_threads() == 2

    @pytest.mark.parametrize("name, rows", [("sdedit", 4000), ("ancestral", 200)])
    def test_output_does_not_depend_on_caller_count(self, blas_threads, trained_model, schedule,
                                                    name, rows):
        outs = []
        for count in (2, 1):
            denoiser._blas_thread_fns()[1](count)
            rng = np.random.default_rng(11)
            if name == "sdedit":
                x0 = 2.0 * rng.standard_normal((rows, 2))
                outs.append(sdedit_batch(x0, 2, 1.0, trained_model, 0.0, schedule, rng))
            else:
                outs.append(ancestral_sample_batch(trained_model, 1, rows, schedule, 2.0, rng))
            assert blas_threads() == count
        assert outs[0].shape == (rows, 2)
        assert outs[0].tobytes() == outs[1].tobytes()


class TestAncestralSample:
    def test_deterministic_under_seed(self, trained_model, schedule):
        a = ancestral_sample_batch(trained_model, 1, 1, schedule, 2.0, np.random.default_rng(5))
        b = ancestral_sample_batch(trained_model, 1, 1, schedule, 2.0, np.random.default_rng(5))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("omega", [0.0, 1.0, 2.0])
    def test_equals_per_level_reference(self, trained_model, schedule, omega):
        # the sampler runs the shared chain loop; the reference writes each
        # level out with the coefficient tables and math.sqrt
        def reference(rng):
            x = rng.standard_normal((16, 2))
            for t in range(schedule.T, 0, -1):
                eps_hat = cfg_predict_batch(trained_model, x, 1, t, omega)
                ab = schedule.alpha_bar[t]
                x_tilde = (x - math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(ab)
                x = (schedule.gamma[t] * x_tilde + schedule.delta[t] * x
                     + schedule.sigma[t] * rng.standard_normal((16, 2)))
            return x

        got = ancestral_sample_batch(trained_model, 1, 16, schedule, omega, np.random.default_rng(6))
        assert np.array_equal(got, reference(np.random.default_rng(6)))

    def test_final_step_noise_scale_is_zero(self, schedule):
        assert schedule.sigma[1] == 0.0

    def test_conditional_samples_classify_correctly(self, trained_model, schedule, default_config):
        rng = np.random.default_rng(17)
        samples = ancestral_sample_batch(trained_model, 1, 200, schedule, 2.0, rng)
        m1, m2 = (np.asarray(spec.mean) for spec in default_config.class_params())
        nearer = np.linalg.norm(samples - m1, axis=1) < np.linalg.norm(samples - m2, axis=1)
        assert np.mean(nearer) >= 0.9


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, trained_model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_model, path, 1000)
        loaded, t = load_checkpoint(path)
        assert t == 1000
        assert loaded.arch == trained_model.arch
        assert loaded.t_embed_dim == trained_model.t_embed_dim
        assert np.array_equal(loaded.params, trained_model.params)

    def test_byte_identical_for_identical_models(self, tmp_path, schedule, dataset):
        blobs = []
        for run in range(2):
            d = Denoiser.create(seed=33)
            train(d, dataset, schedule, TrainConfig(steps=50, batch_size=32, seed=33))
            path = tmp_path / f"m{run}.ckpt"
            save_checkpoint(d, path, schedule.T)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_default_training_writes_the_benchmark_fixture(self, trained_model, tmp_path):
        # the shared model is trained at the default config, which is the
        # one the benchmark's fixture checkpoint was written with
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_model, path, T=1000)
        fixture = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "model.ckpt"
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == hashlib.sha256(fixture.read_bytes()).hexdigest()

    def test_rejects_wrong_kind(self, tmp_path):
        from distill_lab.flatfile import write_flat_file

        path = tmp_path / "other.bin"
        write_flat_file(path, "latents", {"T": "10"}, np.zeros(3))
        with pytest.raises(MismatchError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "drop, changes",
        [
            (("arch",), {}),
            (("num_classes",), {}),
            ((), {"T": "ten"}),
            ((), {"arch": "13,64,x,2"}),
            ((), {"num_classes": "3"}),
        ],
    )
    def test_rejects_missing_or_malformed_header(self, tmp_path, trained_model, drop, changes):
        from distill_lab.flatfile import read_flat_file, write_flat_file

        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_model, path, 1000)
        kind, header, payload = read_flat_file(path)
        header = {k: v for k, v in header.items() if k not in drop}
        header.update(changes)
        write_flat_file(path, kind, header, payload)
        with pytest.raises(MismatchError):
            load_checkpoint(path)

    def test_rejects_truncated_payload(self, tmp_path, trained_model):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_model, path, 1000)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(MismatchError):
            load_checkpoint(path)

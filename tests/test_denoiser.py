import hashlib
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from distill_lab import denoiser
from distill_lab.denoiser import (
    NULL_LABEL,
    ClassSpec,
    Denoiser,
    TrainConfig,
    TwoMarginalDataset,
    _backward,
    _features,
    _forward,
    cfg_predict,
    cfg_predict_batch,
    default_class_params,
    eps,
    load_checkpoint,
    loss_and_grad,
    predict,
    sample_two_marginal_dataset,
    save_checkpoint,
    time_embedding,
    train,
    train_step,
)
from distill_lab.errors import DivergenceError, MismatchError
from distill_lab.latentops import ancestral_sample_batch


class TestDataset:
    def test_deterministic_under_seed(self):
        a = sample_two_marginal_dataset(1000, seed=7)
        b = sample_two_marginal_dataset(1000, seed=7)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_balanced_labels(self, dataset):
        assert np.sum(dataset.labels == 1) == np.sum(dataset.labels == 2)
        assert set(np.unique(dataset.labels)) == {1, 2}

    def test_class_means_within_monte_carlo_error(self, dataset):
        for label, spec in zip((1, 2), dataset.class_params):
            pts = dataset.points[dataset.labels == label]
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

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            sample_two_marginal_dataset(101, seed=0)


class TestTrainConfig:
    def test_rejects_nonpositive_learning_rate(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    def test_rejects_bad_null_cond_prob(self):
        with pytest.raises(ValueError):
            TrainConfig(null_cond_prob=1.0)
        with pytest.raises(ValueError):
            TrainConfig(null_cond_prob=-0.1)


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
        from distill_lab.denoiser import _backward, _forward

        d = Denoiser.create(t_embed_dim=4, hidden=(8, 8), seed=2, random_head=True)
        x = rng.standard_normal((1, 2))
        y = np.array([1])
        t = np.array([137])
        h = 1e-5
        for out_dim in (0, 1):
            cot = np.zeros((1, 2))
            cot[0, out_dim] = 1.0
            _, cache = _forward(d, x, y, t)
            analytic = _backward(d, cache, cot)
            for j in rng.integers(0, d.params.size, size=25):
                d.params[j] += h
                up = _forward(d, x, y, t)[0][0, out_dim]
                d.params[j] -= 2 * h
                dn = _forward(d, x, y, t)[0][0, out_dim]
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
        from distill_lab.denoiser import _forward

        x, y, t = self.batch_with_duplicates(50, seed=3)
        for i in range(50):
            row = (x[i : i + 1], y[i : i + 1], t[i : i + 1])
            assert np.array_equal(eps(random_model, *row, 1.0), _forward(random_model, *row)[0])

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


def reference_forward(d, x, y, t):
    """The gemm forward with a fresh array per layer: tanh(h @ w + b)."""
    h = _features(d, x, y, t)
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
    h = _features(d, x, y, t)
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
            for n in (0, 1, 3, 128, 1000):
                x, y, t = gemm_rows(n, seed=n)
                for omega in (0.0, 1.0, 7.5):
                    want = reference_eps(d, x, y, t, omega)
                    assert np.array_equal(eps(d, x, y, t, omega), want)

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


class TestGemmForward:
    """The gemm forward writes into per-model scratch; its bits must not change."""

    def test_output_and_cache_equal_reference(self):
        d = Denoiser.create(seed=314, random_head=True)
        for params in (d.params, Denoiser.create(seed=9, random_head=True).params):
            d.params = params
            for n in (0, 1, 3, 128, 4000):
                x, y, t = gemm_rows(n, seed=n)
                out, cache = _forward(d, x, y, t)
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
        assert np.array_equal(grad, _backward(random_model, cache, 2.0 * resid / 128))

    def test_scratch_reused_only_at_the_same_row_count(self, random_model):
        for per_row in (False, True):
            first = _forward(random_model, *gemm_rows(64, seed=4), per_row)[1]
            same = _forward(random_model, *gemm_rows(64, seed=5), per_row)[1]
            other = _forward(random_model, *gemm_rows(65, seed=6), per_row)[1]
            for k in range(1, len(first)):
                assert np.shares_memory(first[k], same[k])
                assert not np.shares_memory(first[k], other[k])

    @pytest.mark.parametrize("shape", [(2,), (3, 1), (2, 3), (1, 2, 2)])
    def test_guided_batch_rejects_wrong_shape(self, random_model, shape):
        with pytest.raises(ValueError, match="shape"):
            cfg_predict_batch(random_model, np.zeros(shape), 1, 10, 2.0)

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
        rng = np.random.default_rng(0)
        with pytest.raises(DivergenceError):
            train_step(d, (dataset.points[:8], dataset.labels[:8]), schedule, cfg, rng)

    def test_rejects_empty_batch(self, schedule):
        d = Denoiser.create(seed=3)
        with pytest.raises(ValueError):
            train_step(
                d,
                (np.empty((0, 2)), np.empty(0, dtype=int)),
                schedule,
                TrainConfig(),
                np.random.default_rng(0),
            )


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

        def recording_step(*args):
            seen.append(blas_threads())
            return train_step(*args)

        monkeypatch.setattr(denoiser, "train_step", recording_step)
        train(Denoiser.create(seed=4), dataset, schedule, self.CFG)
        assert seen == [1] * self.CFG.steps

    def test_caller_count_restored(self, blas_threads, schedule, dataset):
        train(Denoiser.create(seed=4), dataset, schedule, self.CFG)
        assert blas_threads() == 2

    def test_caller_count_restored_on_divergence(self, blas_threads, schedule):
        nan_points = TwoMarginalDataset(
            points=np.full((4, 2), np.nan),
            labels=np.array([1, 1, 2, 2]),
            class_params=default_class_params(),
        )
        with pytest.raises(DivergenceError):
            train(Denoiser.create(seed=4), nan_points, schedule, self.CFG)
        assert blas_threads() == 2

    def test_overlapping_trains_restore_once(self, blas_threads, schedule, dataset, monkeypatch):
        # train "a" starts first and returns first; "b" must keep one thread
        # after "a" returns, and the count goes back to 2 when "b" returns
        a_in, b_in, a_done = threading.Event(), threading.Event(), threading.Event()
        waited, seen_after_a = [], []

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

        monkeypatch.setattr(denoiser, "train_step", step)
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

    def test_conditional_samples_classify_correctly(self, trained_model, schedule, dataset):
        rng = np.random.default_rng(17)
        samples = ancestral_sample_batch(trained_model, 1, 200, schedule, 2.0, rng)
        m1 = np.asarray(dataset.class_params[0].mean)
        m2 = np.asarray(dataset.class_params[1].mean)
        nearer = np.linalg.norm(samples - m1, axis=1) < np.linalg.norm(samples - m2, axis=1)
        assert np.mean(nearer) >= 0.9


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, trained_model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_model, path, 1000)
        loaded, t = load_checkpoint(path)
        assert t == 1000
        assert loaded.arch == trained_model.arch
        assert loaded.num_classes == trained_model.num_classes
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

"""The count rule and the positive-real rule, each checked at every entry
point that takes a size, a count, a seed or a step size."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from distill_lab import cli, config
from distill_lab.config import ExperimentConfig, ScheduleConfig
from distill_lab.denoiser import (
    ClassSpec,
    Denoiser,
    TrainConfig,
    check_class_separation,
    check_dataset_size,
    cfg_predict_batch,
    eps,
    loss_and_grad,
    sample_two_marginal_dataset,
    save_checkpoint,
    train,
)
from distill_lab.distill import EditProblem, check_settings, identity_generator, optimize_batch
from distill_lab.errors import ConfigError
from distill_lab.experiments import run_roundtrip_report, run_sdedit_sweep
from distill_lab.latentops import ancestral_sample_batch
from distill_lab.schedule import build_linear_schedule, build_subsequence


def bits(result):
    """A comparable form of ``result``: bytes and dtype of each array, type
    and repr of everything else, so an int8 where an int is meant shows."""
    if isinstance(result, (list, tuple)):
        return [bits(r) for r in result]
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.tobytes()
    if hasattr(result, "__dataclass_fields__"):
        return bits([getattr(result, name) for name in result.__dataclass_fields__])
    return type(result).__name__, repr(result)


class Lab:
    """A small schedule, grid, config and random model, with the runs that
    the entry points below share."""

    def __init__(self, tmp_path):
        self.cfg = replace(ExperimentConfig(), schedule=ScheduleConfig(t=50))
        self.s = self.cfg.build_schedule()
        self.sub = self.cfg.build_subsequence(self.s)
        self.d = Denoiser.create(t_embed_dim=4, hidden=(6,), seed=3, random_head=True)
        self.tmp_path = tmp_path

    def train(self, **sizes):
        cfg = TrainConfig(**{"steps": 2, "batch_size": 3, "hidden": (3,), "t_embed_dim": 4} | sizes)
        d = Denoiser.create(cfg.t_embed_dim, cfg.hidden, seed=1, random_head=True)
        dataset = sample_two_marginal_dataset(8, self.cfg.class_params(), seed=0)
        return cfg.steps, cfg.batch_size, train(d, dataset, self.s, cfg), d.params, d.arch

    def create(self, **sizes):
        d = Denoiser.create(**{"t_embed_dim": 4, "hidden": (5,)} | sizes, seed=2, random_head=True)
        return d.params, d.arch, d.t_embed_dim, eps(d, np.ones((2, 2)), 1, 7, 2.0)

    def optimize(self, steps=2, seed=3):
        prob = EditProblem(np.array([-2.0, 0.0]), 1, identity_generator(np.array([-2.0, 0.1])),
                           2, 2.0, self.sub)
        return optimize_batch([(prob, "pds", seed), (prob, "sds", 4)], steps, 0.01, self.d, self.s)

    def validate(self, section, **values):
        return config._validate(replace(self.cfg, **{
            section: replace(getattr(self.cfg, section), **values)}))

    def save(self, T):
        path = self.tmp_path / "model.ckpt"
        save_checkpoint(self.d, path, T)
        return path.read_bytes()


# name: (what the message names, the rule's lower bound, a good value, call)
COUNT_ENTRY_POINTS = {
    "TrainConfig steps": ("training steps", 1, 3, lambda lab, v: lab.train(steps=v)),
    "TrainConfig batch_size": ("batch_size", 1, 3, lambda lab, v: lab.train(batch_size=v)),
    "TrainConfig hidden": ("hidden width", 1, 3, lambda lab, v: lab.train(hidden=(v,))),
    "TrainConfig t_embed_dim": ("t_embed_dim", 2, 4, lambda lab, v: lab.train(t_embed_dim=v)),
    "Denoiser.create hidden": ("hidden width", 1, 3, lambda lab, v: lab.create(hidden=(5, v))),
    "Denoiser.create t_embed_dim": ("t_embed_dim", 2, 4,
                                    lambda lab, v: lab.create(t_embed_dim=v)),
    "check_settings steps": ("steps", 0, 2,
                             lambda lab, v: check_settings(["pds"], v, 0.01, "const", "gd")),
    "optimize_batch steps": ("steps", 0, 2, lambda lab, v: lab.optimize(steps=v)),
    "optimize_batch seed": ("job seed", 0, 3, lambda lab, v: lab.optimize(seed=v)),
    "build_linear_schedule": ("T", 2, 50, lambda lab, v: build_linear_schedule(v, 1e-3, 0.05)),
    "build_subsequence": ("stride", 1, 2,
                          lambda lab, v: build_subsequence(lab.s, v, 0.02, 0.98)),
    "config seed": ("dataset.seed", 0, 3, lambda lab, v: lab.validate("dataset", seed=v)),
    "config n_runs": ("distill.n_runs", 1, 3, lambda lab, v: lab.validate("distill", n_runs=v)),
    "cli count flag": ("--k", 0, 3, lambda lab, v: cli._check_count("--k", v, 0)),
    "check_dataset_size": ("dataset size", 2, 4, lambda lab, v: check_dataset_size(v)),
    "sample_two_marginal_dataset": ("dataset size", 2, 4, lambda lab, v: (
        sample_two_marginal_dataset(v, lab.cfg.class_params(), seed=0))),
    "run_roundtrip_report": ("k", 0, 2, lambda lab, v: run_roundtrip_report(
        lab.cfg, lab.d, np.random.default_rng(0), v)),
    "run_sdedit_sweep n_points": ("n_points", 1, 3,
                                  lambda lab, v: run_sdedit_sweep(lab.cfg, lab.d, v, 2)),
    "run_sdedit_sweep grid_points": ("grid_points", 0, 2,
                                     lambda lab, v: run_sdedit_sweep(lab.cfg, lab.d, 3, v)),
    "save_checkpoint": ("T", 2, 50, lambda lab, v: lab.save(v)),
    "ancestral_sample_batch": ("n", 0, 3, lambda lab, v: ancestral_sample_batch(
        lab.d, 1, v, lab.s, 2.0, np.random.default_rng(0))),
}


@pytest.fixture()
def lab(tmp_path):
    return Lab(tmp_path)


class TestCountRule:
    """Every size, count and seed is checked by one rule, with one message:
    an integer by the integer rule, 0-d, and at least the entry's bound."""

    @pytest.mark.parametrize("bad", ["fractional", "bool", "float64", "1-element array", "low - 1"])
    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    def test_rejects_what_is_not_a_count(self, lab, entry, bad):
        what, low, good, call = COUNT_ENTRY_POINTS[entry]
        v, message = {
            "fractional": (2.5, f"{what} must be an integer or have an integer dtype, got float"),
            "bool": (True, f"{what} must be an integer or have an integer dtype, got bool"),
            "float64": (np.float64(3.0),
                        f"{what} must be an integer or have an integer dtype, got float64"),
            "1-element array": (np.array([good]), f"{what} must be >= {low}, got [{good}]"),
            "low - 1": (low - 1, f"{what} must be >= {low}, got {low - 1}"),
        }[bad]
        with pytest.raises((ValueError, ConfigError), match=f"^{re.escape(message)}$"):
            call(lab, v)
        assert not (lab.tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("width", [np.int8, np.uint64])
    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    def test_integers_of_any_width_give_the_int_bits(self, lab, entry, width):
        _, _, good, call = COUNT_ENTRY_POINTS[entry]
        assert bits(call(lab, width(good))) == bits(call(lab, good))

    @pytest.mark.parametrize("t", [0, np.int8(0), np.array([3, 0, 2])], ids=["0", "int8", "rows"])
    @pytest.mark.parametrize("entry", ["eps", "cfg_predict_batch", "loss_and_grad"])
    def test_timesteps_below_one_take_the_count_message(self, lab, entry, t):
        call = {
            "eps": lambda: eps(lab.d, np.zeros((3, 2)), 1, t, 2.0),
            "cfg_predict_batch": lambda: cfg_predict_batch(lab.d, np.zeros((3, 2)), 1, t, 2.0),
            "loss_and_grad": lambda: loss_and_grad(lab.d, lab.s, np.zeros((3, 2)), 1, t,
                                                   np.zeros((3, 2))),
        }[entry]
        with pytest.raises(ValueError, match="^timesteps must be >= 1, got 0$"):
            call()

    def test_a_sweep_of_no_points_raises_before_any_draw(self, lab):
        # it used to average an empty column, with numpy's RuntimeWarning
        with pytest.raises(ValueError, match="^n_points must be >= 1, got 0$"):
            run_sdedit_sweep(lab.cfg, lab.d, 0, 2)


def classes(std):
    return (ClassSpec(mean=np.array([-5.0, 0.0]), std=std),
            ClassSpec(mean=np.array([5.0, 0.0]), std=0.5))


# name: (what the message names, call)
POSITIVE_ENTRY_POINTS = {
    "TrainConfig learning_rate": ("learning_rate", lambda lab, v: TrainConfig(learning_rate=v)),
    "check_settings lr": ("lr", lambda lab, v: check_settings(["sds"], 2, v, "const", "gd")),
    "optimize_batch lr": ("lr", lambda lab, v: optimize_batch([], 2, v, lab.d, lab.s)),
    "class std": ("class 1 std", lambda lab, v: check_class_separation(classes(v))),
    "sample_two_marginal_dataset": ("class 1 std", lambda lab, v: sample_two_marginal_dataset(
        4, classes(v), seed=0)),
}


class TestPositiveRule:
    """Every step size and class std is checked by one rule, with one
    message: a finite real above 0."""

    @pytest.mark.parametrize("v", [math.inf, math.nan, 0.0, -1.0, "0.1", True],
                             ids=["inf", "nan", "0.0", "-1.0", "str", "bool"])
    @pytest.mark.parametrize("entry", POSITIVE_ENTRY_POINTS)
    def test_rejects_what_is_not_a_positive_finite_real(self, lab, entry, v):
        what, call = POSITIVE_ENTRY_POINTS[entry]
        message = f"{what} must be a positive finite real, got {v!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(lab, v)

    @pytest.mark.parametrize("v", [0.25, np.float64(0.25), 1], ids=["float", "float64", "int"])
    @pytest.mark.parametrize("entry", POSITIVE_ENTRY_POINTS)
    def test_accepts_positive_reals(self, lab, entry, v):
        _, call = POSITIVE_ENTRY_POINTS[entry]
        call(lab, v)

import numpy as np
import pytest

from distill_lab.config import ExperimentConfig
from distill_lab.denoiser import Denoiser, sample_two_marginal_dataset, train
from distill_lab.schedule import build_linear_schedule


@pytest.fixture(scope="session")
def default_config():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def schedule(default_config):
    return default_config.build_schedule()


@pytest.fixture(scope="session")
def subsequence(default_config, schedule):
    return default_config.build_subsequence(schedule)


@pytest.fixture(scope="session")
def dataset(default_config):
    return sample_two_marginal_dataset(
        default_config.dataset.n,
        default_config.class_params(),
        default_config.dataset.seed,
    )


@pytest.fixture(scope="session")
def trained_model(default_config, schedule, dataset):
    """One model trained with the default config, shared across the session."""
    d = Denoiser.create(
        t_embed_dim=default_config.training.t_embed_dim,
        hidden=default_config.training.hidden,
        seed=default_config.training.seed,
    )
    train(d, dataset, schedule, default_config.training)
    return d


@pytest.fixture()
def random_model():
    """Random-weight model at initialization scale, non-degenerate head."""
    return Denoiser.create(seed=314, random_head=True)


@pytest.fixture()
def small_schedule():
    return build_linear_schedule(50, 1e-3, 0.05)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)

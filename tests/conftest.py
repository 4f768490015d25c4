import numpy as np
import pytest

from distill_lab.config import ExperimentConfig
from distill_lab.denoiser import Denoiser, train
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
    return default_config.build_dataset()


@pytest.fixture(scope="session")
def trained_model(default_config, schedule, dataset):
    """One model trained with the default config, shared across the session."""
    d = default_config.build_model()
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

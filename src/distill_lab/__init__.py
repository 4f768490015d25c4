"""distill-lab: score-distillation editing over a self-contained 2D diffusion model.

The package builds a small class-conditional noise predictor on a
two-Gaussian dataset and exposes three gradient-based editing objectives
over differentiable generators, together with stochastic-latent inversion,
a partial-noising editor, and a seeded experiment harness with an
executable acceptance suite (``distill-lab check``).
"""

from .config import ExperimentConfig, load_config
from .denoiser import (
    Denoiser,
    TrainConfig,
    TwoMarginalDataset,
    cfg_predict,
    eps,
    predict,
    sample_two_marginal_dataset,
    train,
    train_step,
)
from .distill import (
    EditProblem,
    Generator,
    TrajectoryRecord,
    dds_grad,
    optimize,
    optimize_batch,
    pds_grad,
    pds_grad_latent_form,
    sds_grad,
)
from .latentops import (
    SharedNoiseDraw,
    StochasticLatentSequence,
    ancestral_sample_batch,
    forward_sample,
    generate_with_latents,
    generate_with_latents_batch,
    invert,
    sdedit_batch,
    stochastic_latent,
)
from .schedule import (
    NoiseSchedule,
    PdsCoeffs,
    PosteriorCoeffs,
    TimestepSubsequence,
    build_linear_schedule,
    build_subsequence,
    pds_coeffs,
    posterior_coeffs,
)

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "load_config",
    "Denoiser",
    "TrainConfig",
    "TwoMarginalDataset",
    "cfg_predict",
    "eps",
    "predict",
    "sample_two_marginal_dataset",
    "train",
    "train_step",
    "EditProblem",
    "Generator",
    "TrajectoryRecord",
    "dds_grad",
    "optimize",
    "optimize_batch",
    "pds_grad",
    "pds_grad_latent_form",
    "sds_grad",
    "SharedNoiseDraw",
    "StochasticLatentSequence",
    "ancestral_sample_batch",
    "forward_sample",
    "generate_with_latents",
    "generate_with_latents_batch",
    "invert",
    "sdedit_batch",
    "stochastic_latent",
    "NoiseSchedule",
    "PdsCoeffs",
    "PosteriorCoeffs",
    "TimestepSubsequence",
    "build_linear_schedule",
    "build_subsequence",
    "pds_coeffs",
    "posterior_coeffs",
    "__version__",
]

"""distill-lab: score-distillation editing over a self-contained 2D diffusion model.

The package builds a small class-conditional noise predictor on a
two-Gaussian dataset and exposes three gradient-based editing objectives
over differentiable generators, together with stochastic-latent inversion,
a partial-noising editor, and a seeded experiment harness with an
executable acceptance suite (``distill-lab check``). A Monte-Carlo draw is
the ``(i, noise)`` pair that ``objective_grad`` and ``stochastic_latents`` read.
"""

from .config import ExperimentConfig, load_config
from .denoiser import (
    Denoiser,
    LabelPlan,
    TrainConfig,
    cfg_predict,
    eps,
    predict,
    sample_two_marginal_dataset,
    train,
)
from .distill import (
    EditProblem,
    Generator,
    TrajectoryRecord,
    objective_grad,
    optimize_batch,
    pds_grad_latent_form,
)
from .latentops import (
    StochasticLatentSequence,
    ancestral_sample_batch,
    draw_shared_noise,
    generate_with_latents,
    generate_with_latents_batch,
    invert,
    sdedit_batch,
    stochastic_latents,
)
from .schedule import (
    NoiseSchedule,
    TimestepSubsequence,
    build_linear_schedule,
    build_subsequence,
)

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "load_config",
    "Denoiser",
    "LabelPlan",
    "TrainConfig",
    "cfg_predict",
    "eps",
    "predict",
    "sample_two_marginal_dataset",
    "train",
    "EditProblem",
    "Generator",
    "TrajectoryRecord",
    "objective_grad",
    "optimize_batch",
    "pds_grad_latent_form",
    "StochasticLatentSequence",
    "ancestral_sample_batch",
    "draw_shared_noise",
    "generate_with_latents",
    "generate_with_latents_batch",
    "invert",
    "sdedit_batch",
    "stochastic_latents",
    "NoiseSchedule",
    "TimestepSubsequence",
    "build_linear_schedule",
    "build_subsequence",
    "__version__",
]

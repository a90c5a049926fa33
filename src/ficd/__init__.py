"""Fisher-information guided conditional diffusion sampling.

Small numpy library for studying guided reverse diffusion at desk
scale. Score models are either analytic Gaussian mixtures (with exact
score Jacobians) or tiny learned networks. Samplers support exact
posterior-Jacobian guidance, a cheap Fisher-information surrogate, and
a manifold-projection baseline, and everything is checked against
closed-form oracles.

ficd needs numpy only: no part of the package imports scipy, which
``pyproject.toml`` lists under the ``test`` extra for the tests'
references.
"""

from ficd.analytics import (
    benchmark_steps,
    bound_verification,
    deviation_bound,
    deviation_bound_check,
    linear_gaussian_posterior,
    phase_profile,
    samples_to_csv,
    sliced_wasserstein,
    tilted_gmm_oracle,
    trace_to_csv,
)
from ficd.config import ConfigError, ExperimentConfig
from ficd.guidance import (
    Condition,
    DistanceEnergy,
    EnergyFunction,
    LinearMeasurementEnergy,
    QuadraticEnergy,
)
from ficd.posterior import (
    PosteriorPartStrategy,
    cramer_rao_bound,
    fisher_information,
    posterior_coefficient,
    tweedie_posterior_mean,
)
from ficd.presets import PRESETS
from ficd.sampler import (
    ChainFailureError,
    Discretization,
    RunTrace,
    SamplerConfig,
    sample,
)
from ficd.schedule import NoiseSchedule, linear_schedule
from ficd.scoremodel import (
    GaussianMixture,
    GaussianMixtureScore,
    LearnedScoreModel,
    NetSpec,
    ScoreModel,
    load_model,
    save_model,
    train_dsm,
)

__version__ = "0.1.0"

__all__ = [
    "benchmark_steps",
    "bound_verification",
    "deviation_bound",
    "deviation_bound_check",
    "linear_gaussian_posterior",
    "phase_profile",
    "samples_to_csv",
    "sliced_wasserstein",
    "tilted_gmm_oracle",
    "trace_to_csv",
    "ConfigError",
    "ExperimentConfig",
    "Condition",
    "DistanceEnergy",
    "EnergyFunction",
    "LinearMeasurementEnergy",
    "QuadraticEnergy",
    "PosteriorPartStrategy",
    "cramer_rao_bound",
    "fisher_information",
    "posterior_coefficient",
    "tweedie_posterior_mean",
    "PRESETS",
    "ChainFailureError",
    "Discretization",
    "RunTrace",
    "SamplerConfig",
    "sample",
    "NoiseSchedule",
    "linear_schedule",
    "GaussianMixture",
    "GaussianMixtureScore",
    "LearnedScoreModel",
    "NetSpec",
    "ScoreModel",
    "load_model",
    "save_model",
    "train_dsm",
    "__version__",
]

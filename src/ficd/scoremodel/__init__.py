"""Score oracles: analytic Gaussian-mixture scores and a small learned net."""

from ficd.scoremodel.base import ScoreModel, eps_to_score, finite_diff_jacobian
from ficd.scoremodel.gmm import (
    GaussianMixture,
    GaussianMixtureScore,
    mixture_logpdf,
)
from ficd.scoremodel.mlp import (
    LearnedScoreModel,
    NetSpec,
    TrainingDivergedError,
    load_model,
    save_model,
    sinusoidal_time_embedding,
    train_dsm,
)

__all__ = [
    "ScoreModel",
    "eps_to_score",
    "finite_diff_jacobian",
    "GaussianMixture",
    "GaussianMixtureScore",
    "mixture_logpdf",
    "NetSpec",
    "LearnedScoreModel",
    "TrainingDivergedError",
    "sinusoidal_time_embedding",
    "train_dsm",
    "save_model",
    "load_model",
]

"""Score oracles: analytic Gaussian-mixture scores and a small learned net."""

from ficd.scoremodel.base import (
    ScoreModel,
    eps_to_score,
    finite_diff_jacobian,
    score_to_eps,
)
from ficd.scoremodel.gmm import (
    GaussianMixture,
    GaussianMixtureScore,
    marginal_mixture,
    mixture_logpdf,
    mixture_score,
    mixture_score_jacobian,
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
    "score_to_eps",
    "finite_diff_jacobian",
    "GaussianMixture",
    "GaussianMixtureScore",
    "marginal_mixture",
    "mixture_logpdf",
    "mixture_score",
    "mixture_score_jacobian",
    "NetSpec",
    "LearnedScoreModel",
    "TrainingDivergedError",
    "sinusoidal_time_embedding",
    "train_dsm",
    "save_model",
    "load_model",
]

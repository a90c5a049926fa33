"""Posterior-mean estimation, score-derivative information, and its bound.

The guided samplers split the conditional score into a measurement part
and a posterior part. This module owns the posterior side: the
denoised-mean estimate, the pullback of an energy gradient through that
estimate's derivative (exact, or by the cheap scalar surrogates that
replace it), and the schedule-only bound the surrogate is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ficd.schedule import NoiseSchedule, alpha_bar, check_step
from ficd.scoremodel.base import ScoreModel

__all__ = [
    "PosteriorPartStrategy",
    "FisherInfo",
    "tweedie_posterior_mean",
    "tweedie_from_score",
    "fisher_information",
    "cramer_rao_bound",
    "posterior_coefficient",
    "posterior_pullback",
    "strategy_name",
]


class PosteriorPartStrategy(Enum):
    """How the derivative of the denoised mean enters the guidance term.

    EXACT uses the full transpose-Jacobian product, FICD the scalar
    2 / sqrt(alpha_bar_t) obtained by substituting the information bound
    for the score derivative, MPGD the scalar sqrt(alpha_bar_{t-1}), and
    UNIT the constant 1 (an ablation).
    """

    EXACT = "exact"
    FICD = "ficd"
    MPGD = "mpgd"
    UNIT = "unit"


@dataclass(frozen=True)
class FisherInfo:
    """Pointwise score derivative with its most conservative scalar summary:
    (d, d) and a float at a point, (N, d, d) and (N,) for rows."""

    matrix: np.ndarray
    spectral_radius: float | np.ndarray


def tweedie_from_score(x: np.ndarray, score: np.ndarray, abar: float) -> np.ndarray:
    """Denoised-mean estimate from an already computed score value.

    The result is a new array; x and score are only read.
    """
    if abar <= 0.0:
        raise ZeroDivisionError("alpha_bar_t must be positive to denoise")
    # Built in place, in the order of (x + (1 - abar) score) / sqrt(abar).
    out = (1.0 - abar) * score
    out += x
    out /= math.sqrt(abar)
    return out


def tweedie_posterior_mean(
    model: ScoreModel, schedule: NoiseSchedule, x: np.ndarray, t: int
) -> np.ndarray:
    """E[x_0 | x_t] at rows x (N, d) via the score:
    (x + (1 - alpha_bar_t) s(x, t)) / sqrt(alpha_bar_t)."""
    check_step(schedule, t)
    x = np.asarray(x, dtype=np.float64)
    return tweedie_from_score(x, model.score(x, t), alpha_bar(schedule, t))


def fisher_information(model: ScoreModel, x: np.ndarray, t: int) -> FisherInfo:
    """The model's score Jacobian plus its spectral radius, at a point (d,)
    or at each of rows (N, d), as ``ScoreModel.jacobian`` takes them.

    The radius is the largest eigenvalue magnitude; signs are
    deliberately dropped since the derivative of a well-behaved score is
    negative-definite and the bound applies to magnitudes.
    """
    J = model.jacobian(x, t)
    if not np.all(np.isfinite(J)):
        raise ValueError(f"non-finite score derivative at t={t}")
    radius = np.max(np.abs(np.linalg.eigvals(J)), axis=-1)
    return FisherInfo(matrix=J, spectral_radius=radius if radius.ndim else float(radius))


def cramer_rao_bound(schedule: NoiseSchedule, t: int) -> float:
    """Schedule-only information ceiling 1 / (1 - alpha_bar_t)."""
    check_step(schedule, t)
    abar = alpha_bar(schedule, t)
    if abar >= 1.0:
        raise ZeroDivisionError("bound undefined at alpha_bar_t = 1")
    return 1.0 / (1.0 - abar)


def posterior_coefficient(
    strategy: PosteriorPartStrategy, schedule: NoiseSchedule, t: int
) -> float:
    """Scalar stand-in at step t; the MPGD value reads alpha_bar at t - 1."""
    check_step(schedule, t)
    if strategy is PosteriorPartStrategy.EXACT:
        raise ValueError("EXACT has no scalar coefficient; use posterior_pullback")
    if strategy is PosteriorPartStrategy.FICD:
        return 2.0 / math.sqrt(alpha_bar(schedule, t))
    if strategy is PosteriorPartStrategy.MPGD:
        return math.sqrt(alpha_bar(schedule, t - 1))
    return 1.0


def posterior_pullback(
    strategy: PosteriorPartStrategy,
    model: ScoreModel,
    schedule: NoiseSchedule,
    x: np.ndarray,
    t: int,
    g: np.ndarray,
) -> np.ndarray:
    """The energy gradient g at the denoised mean, pulled back onto x_t.

    EXACT applies the transposed derivative of the denoised mean,
    (g + (1 - alpha_bar_t) J^T g) / sqrt(alpha_bar_t), through the
    model's score_vjp without materializing J; every other strategy
    scales g by its posterior_coefficient. This is the one place the
    strategies differ. Non-finite rows pass through unchanged.
    """
    if strategy is PosteriorPartStrategy.EXACT:
        check_step(schedule, t)
        abar = alpha_bar(schedule, t)
        # The denoised mean is affine in the score, so its pullback has the
        # Tweedie form with J^T g in the score's place.
        return tweedie_from_score(g, model.score_vjp(x, t, g), abar)
    return posterior_coefficient(strategy, schedule, t) * g


def strategy_name(strategy: PosteriorPartStrategy | None) -> str:
    """The configuration name of a strategy; None, unguided, is "uncond"."""
    return "uncond" if strategy is None else strategy.value

"""Score-model interface, the noise-to-score conversion, and the difference oracle."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from ficd.schedule import NoiseSchedule, alpha_bar

__all__ = ["ScoreModel", "eps_to_score", "finite_diff_jacobian"]


class ScoreModel(ABC):
    """A score oracle s(x, t) approximating the gradient of log p(x_t).

    A model implements ``score`` and ``score_vjp``; ``jacobian`` is
    derived from ``score_vjp`` unless the model has a closed form.
    Evaluation is deterministic for fixed (x, t) and instances are
    immutable once built, so one model may serve many sampling chains
    concurrently. ``x`` may be a single point of shape (d,) or a batch
    of shape (N, d); the result matches the input shape. ``t`` is a
    step index in 1..T shared by the whole batch.
    """

    @property
    @abstractmethod
    def dim(self) -> int:
        """Dimension d of the state space."""

    @abstractmethod
    def score(self, x: np.ndarray, t: int) -> np.ndarray:
        """Score s(x, t) with the same leading shape as x."""

    def jacobian(self, x: np.ndarray, t: int) -> np.ndarray:
        """Derivative of the score w.r.t. x: (d, d), or (N, d, d) for a batch.

        Row i is score_vjp(x, t, e_i), the pullback of the i-th unit
        vector; a model with a closed form overrides this.
        """
        rows = []
        for i in range(self.dim):
            unit = np.zeros_like(x, dtype=np.float64)
            unit[..., i] = 1.0
            rows.append(self.score_vjp(x, t, unit))
        return np.stack(rows, axis=-2)

    def score_vjp(self, x: np.ndarray, t: int, v: np.ndarray) -> np.ndarray:
        """Transpose-Jacobian action J(x, t)^T v, shaped like x; the exact pullback."""
        raise NotImplementedError(f"{type(self).__name__} has no score_vjp")


def eps_to_score(eps_pred: np.ndarray, schedule: NoiseSchedule, t: int) -> np.ndarray:
    """Convert a noise prediction to a score: -eps_pred / sqrt(1 - alpha_bar_t)."""
    abar = alpha_bar(schedule, t)
    if abar >= 1.0:
        raise ZeroDivisionError("alpha_bar_t = 1 leaves no noise to invert")
    return -np.asarray(eps_pred) / math.sqrt(1.0 - abar)


def finite_diff_jacobian(
    model: ScoreModel, x: np.ndarray, t: int, h: float | None = None
) -> np.ndarray:
    """Central-difference Jacobian of the score at a single point.

    Column j is (s(x + h e_j, t) - s(x - h e_j, t)) / (2 h). The default
    step h = 1e-4 * (1 + max|x_i|) balances truncation against rounding
    at double precision.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("finite_diff_jacobian expects a single point of shape (d,)")
    d = x.size
    if h is None:
        h = 1e-4 * (1.0 + float(np.max(np.abs(x))))
    if h <= 0.0:
        raise ValueError("h must be positive")
    J = np.empty((d, d), dtype=np.float64)
    for j in range(d):
        bumped = np.tile(x, (2, 1))
        bumped[0, j] += h
        bumped[1, j] -= h
        s_plus = model.score(bumped[0], t)
        s_minus = model.score(bumped[1], t)
        if not (np.all(np.isfinite(s_plus)) and np.all(np.isfinite(s_minus))):
            raise ValueError(f"non-finite score while probing coordinate {j} at t={t}")
        J[:, j] = (s_plus - s_minus) / (2.0 * h)
    return J

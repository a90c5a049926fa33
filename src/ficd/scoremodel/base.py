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
    derived from ``score_vjp``, so each model states its derivative once.
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
        vector. All rows come from one score_vjp call: each point is
        repeated d times against the d unit vectors.
        """
        d = self.dim
        points = np.repeat(np.atleast_2d(x), d, axis=0)
        units = np.tile(np.eye(d), (len(points) // d, 1))
        return self.score_vjp(points, t, units).reshape(np.shape(x)[:-1] + (d, d))

    def score_vjp(self, x: np.ndarray, t: int, v: np.ndarray) -> np.ndarray:
        """Transpose-Jacobian action J(x, t)^T v, shaped like x; the exact pullback."""
        raise NotImplementedError(f"{type(self).__name__} has no score_vjp")


def _as_batch(x: np.ndarray, d: int):
    """x as float64 rows (N, d), and whether it was a single point (d,);
    ValueError naming the expected shape for any other shape."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.shape != (d,):
            raise ValueError(f"point has dimension {x.shape}, expected ({d},)")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"batch has shape {x.shape}, expected (N, {d})")
    return x, False


def _as_vjp_batches(x: np.ndarray, v: np.ndarray, d: int):
    """x and v as float64 rows, and whether x was a single point; v is one
    row for all of x's or one row for each, else a ValueError names the
    expected shape."""
    x, single = _as_batch(x, d)
    v, _ = _as_batch(v, d)
    if len(v) not in (1, len(x)):
        raise ValueError(f"v has shape {v.shape}, expected ({len(x)}, {d}) or ({d},)")
    return x, v, single


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
    at double precision. On a model that rounds its score to float32, as
    the learned model does, the same step reads about 1e-3 to 2e-3
    relative error from rounding alone; check the algebra of such a model
    on a float64 copy of it instead (``tests/float64_twin.py`` is one).
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

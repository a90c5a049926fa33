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
    concurrently. ``score`` and ``score_vjp`` take float64 rows x of
    shape (N, d), one row per chain, and ``score_vjp``'s v has x's
    shape; any other shape, a single point (d,) included, is a
    ValueError naming the expected one. Only the point-wise helpers,
    ``jacobian`` and ``posterior.fisher_information``, also take a
    point (d,). ``t`` is a step index in 1..T shared by all rows.
    """

    @property
    @abstractmethod
    def dim(self) -> int:
        """Dimension d of the state space."""

    @abstractmethod
    def score(self, x: np.ndarray, t: int) -> np.ndarray:
        """Score s(x, t) of rows x (N, d), as rows (N, d)."""

    def jacobian(self, x: np.ndarray, t: int) -> np.ndarray:
        """Derivative of the score w.r.t. x: (d, d) at a point, (N, d, d) for rows.

        Row i is score_vjp(x, t, e_i), the pullback of the i-th unit
        vector. All rows come from one score_vjp call: each point is
        repeated d times against the d unit vectors. Any other shape of x
        is a ValueError naming the shape passed.
        """
        d = self.dim
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[-1] != d:
            raise ValueError(f"x has shape {x.shape}, expected ({d},) or (N, {d})")
        points = np.repeat(np.atleast_2d(x), d, axis=0)
        units = np.tile(np.eye(d), (len(points) // d, 1))
        return self.score_vjp(points, t, units).reshape(x.shape[:-1] + (d, d))

    def score_vjp(self, x: np.ndarray, t: int, v: np.ndarray) -> np.ndarray:
        """Transpose-Jacobian action J(x, t)^T v of rows x and v (N, d); the exact pullback."""
        raise NotImplementedError(f"{type(self).__name__} has no score_vjp")


def _as_rows(x: np.ndarray, d: int) -> np.ndarray:
    """x as float64 rows (N, d); ValueError naming that shape for any other."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"x has shape {x.shape}, expected (N, {d})")
    return x


def _as_vjp_rows(x: np.ndarray, v: np.ndarray, d: int):
    """x and v as float64 rows of one shape (N, d); ValueError naming the
    expected shape otherwise."""
    x = _as_rows(x, d)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != x.shape:
        raise ValueError(f"v has shape {v.shape}, expected {x.shape}, the shape of x")
    return x, v


def eps_to_score(eps_pred: np.ndarray, schedule: NoiseSchedule, t: int) -> np.ndarray:
    """Convert a noise prediction to a score: -eps_pred / sqrt(1 - alpha_bar_t)."""
    abar = alpha_bar(schedule, t)
    if abar >= 1.0:
        raise ZeroDivisionError("alpha_bar_t = 1 leaves no noise to invert")
    return -np.asarray(eps_pred) / math.sqrt(1.0 - abar)


def finite_diff_jacobian(
    model: ScoreModel, x: np.ndarray, t: int, h: float | None = None
) -> np.ndarray:
    """Central-difference Jacobian of the score at a single point (d,).

    Column j is (s(x + h e_j, t) - s(x - h e_j, t)) / (2 h); all 2 d
    bumped points go through one ``score`` call. The default
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
    # Row j of the first half bumps coordinate j up, of the second half down.
    steps = h * np.eye(d)
    s = model.score(np.concatenate([x + steps, x - steps]), t)
    bad = np.flatnonzero(~np.isfinite(s).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite score while probing coordinate {bad[0] % d} at t={t}")
    return (s[:d] - s[d:]).T / (2.0 * h)

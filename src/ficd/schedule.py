"""Forward-process noise schedules and the coefficients derived from them.

A schedule is its beta vector: everything downstream (samplers, bounds,
benchmarks) reads beta_t and the running product alpha_bar_t of
1 - beta_t from here, and a learned model's dump stores the betas
themselves. The configured schedule is always ``linear_schedule``; any
other beta vector enters as a ``NoiseSchedule`` directly. Steps are
indexed t = 1..T, and alpha_bar(0) = 1 by convention (the empty
product, i.e. clean data).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NoiseSchedule",
    "linear_schedule",
    "alpha_bar",
    "check_step",
    "middle_third",
]


@dataclass(frozen=True)
class NoiseSchedule:
    """Variance-preserving noise schedule with cached per-step products.

    Attributes
    ----------
    betas : ndarray, shape (T,)
        Noise rates beta_t in (0, 1); step t lives at index t - 1.
    alpha_bars : ndarray, shape (T,)
        Running products prod_{s<=t} (1 - beta_s), strictly decreasing;
        computed from betas.

    Instances are immutable (the arrays are marked read-only), so they
    can be shared freely across threads.
    """

    betas: np.ndarray
    alpha_bars: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        betas = np.array(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError("betas must be a non-empty 1-d array")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise ValueError("every beta_t must lie strictly inside (0, 1)")
        alpha_bars = np.cumprod(1.0 - betas)
        if np.any(np.diff(alpha_bars) >= 0.0):
            raise ValueError("alpha_bars must be strictly decreasing")
        for name, arr in (("betas", betas), ("alpha_bars", alpha_bars)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def T(self) -> int:
        return int(self.betas.size)


def linear_schedule(T: int, beta_min: float = 1e-4, beta_max: float = 0.02) -> NoiseSchedule:
    """Linearly interpolated beta schedule.

    beta_t = beta_min + (t - 1) * (beta_max - beta_min) / (T - 1) for
    t = 1..T; a single-step schedule uses beta_1 = beta_min.

    Parameters
    ----------
    T : int
        Number of diffusion steps, at least 1.
    beta_min, beta_max : float
        Endpoints of the interpolation, each in (0, 1) with
        beta_min <= beta_max.
    """
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ValueError(f"T must be a positive integer, got {T!r}")
    if not (0.0 < beta_min < 1.0) or not (0.0 < beta_max < 1.0):
        raise ValueError("beta bounds must lie strictly inside (0, 1)")
    if beta_min > beta_max:
        raise ValueError("beta_min must not exceed beta_max")
    if T == 1:
        return NoiseSchedule(np.array([beta_min], dtype=np.float64))
    t = np.arange(1, T + 1, dtype=np.float64)
    return NoiseSchedule(beta_min + (t - 1.0) * ((beta_max - beta_min) / (T - 1)))


def alpha_bar(schedule: NoiseSchedule, t: int) -> float:
    """Running product alpha_bar_t, with alpha_bar(0) = 1."""
    if not 0 <= t <= schedule.T:
        raise IndexError(f"t must lie in 0..{schedule.T}, got {t}")
    if t == 0:
        return 1.0
    return float(schedule.alpha_bars[t - 1])


def check_step(schedule: NoiseSchedule, t: int) -> None:
    """Raise IndexError unless t is a reverse-step index, 1..T."""
    if not 1 <= t <= schedule.T:
        raise IndexError(f"t must lie in 1..{schedule.T}, got {t}")


def middle_third(T: int) -> tuple[int, int]:
    """First and last step of the middle third of t = 1..T: (T//3 + 1, 2T//3)."""
    return T // 3 + 1, (2 * T) // 3

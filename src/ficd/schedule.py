"""Forward-process noise schedules and the coefficients derived from them.

Everything downstream (samplers, bounds, benchmarks) reads beta_t,
alpha_t = 1 - beta_t, and the running product alpha_bar_t from here.
Steps are indexed t = 1..T, and alpha_bar(0) = 1 by convention (the
empty product, i.e. clean data). The ``key = value`` line parser here
reads both the schedule record and the configuration file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseSchedule",
    "linear_schedule",
    "cosine_schedule",
    "alpha_bar",
    "check_step",
    "parse_key_value_text",
    "schedule_to_text",
    "schedule_from_text",
]

# Relative slack allowed when re-deriving alpha_bars from betas; anything
# above this means the arrays were not produced by a running product.
_RECOMPUTE_RTOL = 1e-12


@dataclass(frozen=True)
class NoiseSchedule:
    """Variance-preserving noise schedule with cached per-step products.

    Attributes
    ----------
    betas : ndarray, shape (T,)
        Noise rates beta_t in (0, 1); step t lives at index t - 1.
    alphas : ndarray, shape (T,)
        1 - betas.
    alpha_bars : ndarray, shape (T,)
        Running products prod_{s<=t} alpha_s, strictly decreasing.
    kind : str
        Generating rule, "linear" or "cosine".
    beta_min, beta_max : float
        Endpoint parameters of the generating rule. Together with T and
        kind they are enough to rebuild betas bit-exactly.

    Instances are immutable (the arrays are marked read-only), so they
    can be shared freely across threads.
    """

    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray
    kind: str
    beta_min: float
    beta_max: float

    def __post_init__(self) -> None:
        betas = np.array(self.betas, dtype=np.float64)
        alphas = np.array(self.alphas, dtype=np.float64)
        alpha_bars = np.array(self.alpha_bars, dtype=np.float64)
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError("betas must be a non-empty 1-d array")
        if alphas.shape != betas.shape or alpha_bars.shape != betas.shape:
            raise ValueError("betas, alphas and alpha_bars must share one shape")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise ValueError("every beta_t must lie strictly inside (0, 1)")
        if np.max(np.abs(alphas - (1.0 - betas))) > 1e-15:
            raise ValueError("alphas must equal 1 - betas")
        recomputed = np.cumprod(alphas)
        if np.max(np.abs(alpha_bars - recomputed) / recomputed) > _RECOMPUTE_RTOL:
            raise ValueError("alpha_bars is not the running product of alphas")
        if np.any(np.diff(alpha_bars) >= 0.0):
            raise ValueError("alpha_bars must be strictly decreasing")
        for name, arr in (("betas", betas), ("alphas", alphas), ("alpha_bars", alpha_bars)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def T(self) -> int:
        return int(self.betas.size)

    @classmethod
    def from_betas(cls, betas: np.ndarray, kind: str = "custom") -> "NoiseSchedule":
        """Build a schedule from an explicit beta vector."""
        betas = np.asarray(betas, dtype=np.float64)
        alphas = 1.0 - betas
        return cls(
            betas=betas,
            alphas=alphas,
            alpha_bars=np.cumprod(alphas),
            kind=kind,
            beta_min=float(betas[0]),
            beta_max=float(betas[-1]),
        )


def _validate_beta_bounds(T: int, beta_min: float, beta_max: float) -> None:
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ValueError(f"T must be a positive integer, got {T!r}")
    if not (0.0 < beta_min < 1.0) or not (0.0 < beta_max < 1.0):
        raise ValueError("beta bounds must lie strictly inside (0, 1)")
    if beta_min > beta_max:
        raise ValueError("beta_min must not exceed beta_max")


def linear_schedule(T: int, beta_min: float = 1e-4, beta_max: float = 0.02) -> NoiseSchedule:
    """Linearly interpolated beta schedule.

    beta_t = beta_min + (t - 1) * (beta_max - beta_min) / (T - 1) for
    t = 1..T; a single-step schedule uses beta_1 = beta_min. The formula
    is evaluated exactly as written so that a schedule rebuilt from its
    serialized record reproduces the beta vector bit for bit.

    Parameters
    ----------
    T : int
        Number of diffusion steps, at least 1.
    beta_min, beta_max : float
        Endpoints of the interpolation, each in (0, 1) with
        beta_min <= beta_max.
    """
    _validate_beta_bounds(T, beta_min, beta_max)
    if T == 1:
        betas = np.array([beta_min], dtype=np.float64)
    else:
        t = np.arange(1, T + 1, dtype=np.float64)
        betas = beta_min + (t - 1.0) * ((beta_max - beta_min) / (T - 1))
    alphas = 1.0 - betas
    return NoiseSchedule(
        betas=betas,
        alphas=alphas,
        alpha_bars=np.cumprod(alphas),
        kind="linear",
        beta_min=float(beta_min),
        beta_max=float(beta_max),
    )


def cosine_schedule(T: int, beta_max: float = 0.999) -> NoiseSchedule:
    """Squared-cosine alpha_bar profile with per-step betas clipped at beta_max.

    Uses f(t) = cos((t / T + s) / (1 + s) * pi / 2) ** 2 with the usual
    offset s = 0.008 and beta_t = min(1 - f(t) / f(t - 1), beta_max).
    Offered as a configuration option; the linear rule is the default
    everywhere.
    """
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ValueError(f"T must be a positive integer, got {T!r}")
    if not (0.0 < beta_max < 1.0):
        raise ValueError("beta_max must lie strictly inside (0, 1)")
    s = 0.008
    grid = np.arange(0, T + 1, dtype=np.float64)
    f = np.cos((grid / T + s) / (1.0 + s) * (math.pi / 2.0)) ** 2
    betas = np.minimum(1.0 - f[1:] / f[:-1], beta_max)
    alphas = 1.0 - betas
    return NoiseSchedule(
        betas=betas,
        alphas=alphas,
        alpha_bars=np.cumprod(alphas),
        kind="cosine",
        beta_min=float(betas[0]),
        beta_max=float(beta_max),
    )


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


def parse_key_value_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped.

    Raises ValueError naming the first line that is neither.
    """
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = body.partition("=")
        out[key.strip()] = value.strip()
    return out


def schedule_to_text(schedule: NoiseSchedule) -> str:
    """Flat key = value record {T, beta_min, beta_max, kind}."""
    return (
        f"T = {schedule.T}\n"
        f"beta_min = {schedule.beta_min!r}\n"
        f"beta_max = {schedule.beta_max!r}\n"
        f"kind = {schedule.kind}\n"
    )


def schedule_from_text(text: str) -> NoiseSchedule:
    """Rebuild a schedule from its serialized record.

    Linear schedules reproduce their beta vector bit-exactly from
    (T, beta_min, beta_max). Cosine schedules regenerate from
    (T, beta_max); the recorded beta_min is descriptive for that kind
    and is checked loosely rather than fed back in.
    """
    fields = parse_key_value_text(text)
    expected = {"T", "beta_min", "beta_max", "kind"}
    if set(fields) != expected:
        raise ValueError(f"schedule record must have exactly the keys {sorted(expected)}, got {sorted(fields)}")
    T = int(fields["T"])
    beta_min = float(fields["beta_min"])
    beta_max = float(fields["beta_max"])
    kind = fields["kind"]
    if kind == "linear":
        return linear_schedule(T, beta_min, beta_max)
    if kind == "cosine":
        schedule = cosine_schedule(T, beta_max=beta_max)
        if abs(schedule.beta_min - beta_min) > 1e-9:
            raise ValueError("recorded beta_min does not match the regenerated cosine schedule")
        return schedule
    raise ValueError(f"unknown schedule kind {kind!r}")

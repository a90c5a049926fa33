"""Energy functions on the denoised mean and the conditions they compare against.

An energy scores how far a denoised estimate sits from the condition;
its gradient, pulled back by ``posterior.posterior_pullback``, is the
conditional term the samplers subtract. Energies accept a single point
(d,) or a batch (N, d) and return correspondingly shaped values.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Condition",
    "EnergyFunction",
    "QuadraticEnergy",
    "DistanceEnergy",
    "LinearMeasurementEnergy",
    "guidance_gradient_norm",
]


@dataclass(frozen=True)
class Condition:
    """The c an energy compares against.

    It carries a target point y, or a measurement pair (A, y).
    """

    kind: str
    y: np.ndarray | None = None
    A: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind == "target":
            if self.y is None or self.A is not None:
                raise ValueError("target condition carries y only")
        elif self.kind == "measurement":
            if self.y is None or self.A is None:
                raise ValueError("measurement condition carries A and y")
            if np.atleast_2d(self.A).shape[0] != np.atleast_1d(self.y).size:
                raise ValueError("measurement rows of A must match the length of y")
        else:
            raise ValueError(f"unknown condition kind {self.kind!r}")
        for name in ("y", "A"):
            value = getattr(self, name)
            if value is not None:
                arr = np.array(value, dtype=np.float64)
                if not np.isfinite(arr).all():
                    raise ValueError(f"condition {name} must be finite")
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    @classmethod
    def target(cls, y) -> "Condition":
        return cls(kind="target", y=np.atleast_1d(np.asarray(y, dtype=np.float64)))

    @classmethod
    def measurement(cls, A, y) -> "Condition":
        return cls(
            kind="measurement",
            A=np.atleast_2d(np.asarray(A, dtype=np.float64)),
            y=np.atleast_1d(np.asarray(y, dtype=np.float64)),
        )


class EnergyFunction(ABC):
    """Non-negative differentiable mismatch between a denoised point and c."""

    @abstractmethod
    def value(self, x0_hat: np.ndarray, c: Condition) -> float | np.ndarray: ...

    @abstractmethod
    def grad(self, x0_hat: np.ndarray, c: Condition) -> np.ndarray: ...


def _target_diff(x0_hat: np.ndarray, c: Condition) -> np.ndarray:
    if c.kind != "target":
        raise ValueError(f"this energy expects a target condition, got {c.kind!r}")
    x0_hat = np.asarray(x0_hat, dtype=np.float64)
    if x0_hat.shape[-1] != c.y.size:
        raise ValueError(f"dimension mismatch: point has {x0_hat.shape[-1]}, target has {c.y.size}")
    return x0_hat - c.y


class QuadraticEnergy(EnergyFunction):
    """Squared distance to a target point: value |x - y|^2, grad 2 (x - y).

    The gradient norm grows without bound, so no global ceiling exists.
    """

    def value(self, x0_hat, c):
        diff = _target_diff(x0_hat, c)
        return np.sum(diff * diff, axis=-1)

    def grad(self, x0_hat, c):
        return 2.0 * _target_diff(x0_hat, c)


class DistanceEnergy(EnergyFunction):
    """Plain distance to a target point; its gradient is unit-norm away from y."""

    def value(self, x0_hat, c):
        diff = _target_diff(x0_hat, c)
        return np.linalg.norm(diff, axis=-1)

    def grad(self, x0_hat, c):
        diff = _target_diff(x0_hat, c)
        norm = np.linalg.norm(diff, axis=-1, keepdims=True)
        return np.divide(diff, norm, out=np.zeros_like(diff), where=norm > 0.0)


class LinearMeasurementEnergy(EnergyFunction):
    """Squared residual of a linear observation: |A x - y|^2."""

    def _residual(self, x0_hat, c):
        if c.kind != "measurement":
            raise ValueError(f"this energy expects a measurement condition, got {c.kind!r}")
        x0_hat = np.asarray(x0_hat, dtype=np.float64)
        if x0_hat.shape[-1] != c.A.shape[1]:
            raise ValueError(
                f"dimension mismatch: point has {x0_hat.shape[-1]}, A has {c.A.shape[1]} columns"
            )
        r = x0_hat @ c.A.T  # the product is a new array, so x0_hat is never written
        r -= c.y
        return r

    def value(self, x0_hat, c):
        r = self._residual(x0_hat, c)
        return np.sum(r * r, axis=-1)

    def grad(self, x0_hat, c):
        r = self._residual(x0_hat, c)
        r *= 2.0
        return r @ c.A


def guidance_gradient_norm(gradient: np.ndarray) -> float | np.ndarray:
    """Euclidean norm of a guidance gradient: a float for a point (d,), an
    (N,) array for a batch (N, d).

    Formed in one pass as sqrt(einsum(g, g)), without rescaling. For
    d <= 2 that has the bits of ``np.linalg.norm(g, axis=-1)``; for d >= 3
    the sum of squares runs in another order, and the norm can differ from
    it by a few units in the last place. An inf or nan row gives inf or
    nan, and so does a finite row whose sum of squares overflows (near
    |g| = 1e154), without the RuntimeWarning ``np.linalg.norm`` raises there.
    """
    gradient = np.asarray(gradient, dtype=np.float64)
    norm = np.sqrt(np.einsum("...j,...j->...", gradient, gradient))
    return float(norm) if norm.ndim == 0 else norm

"""Gaussian mixtures with closed-form scores under the forward noising process.

The variance-preserving marginal of a mixture is again a mixture with
means sqrt(alpha_bar_t) mu_i and covariances
alpha_bar_t Sigma_i + (1 - alpha_bar_t) I, so the score and its
derivative, stated once as ``score_vjp``, are exact at every noise level.
These are the reference models every approximation is checked against.

Evaluation is arithmetic only: each step's marginal is factored and
inverted once, every component is evaluated with one product against
its stored inverse covariance, and a one-component mixture skips the
log densities and their normalizer, since its responsibility is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import logsumexp

from ficd.schedule import NoiseSchedule, alpha_bar, check_step
from ficd.scoremodel.base import ScoreModel

__all__ = [
    "GaussianMixture",
    "GaussianMixtureScore",
    "marginal_mixture",
    "mixture_logpdf",
]


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of K Gaussians in d dimensions.

    weights : (K,), non-negative, summing to 1 within 1e-12
    means : (K, d)
    covariances : (K, d, d), each symmetric positive-definite
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self) -> None:
        w = np.atleast_1d(np.array(self.weights, dtype=np.float64))
        m = np.atleast_2d(np.array(self.means, dtype=np.float64))
        c = np.array(self.covariances, dtype=np.float64)
        if c.ndim == 2:
            c = c[None, :, :]
        K, d = m.shape
        if w.shape != (K,) or c.shape != (K, d, d):
            raise ValueError(
                f"inconsistent mixture shapes: weights {w.shape}, means {m.shape}, covariances {c.shape}"
            )
        if np.any(w < 0.0):
            raise ValueError("mixture weights must be non-negative")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1 within 1e-12")
        for i in range(K):
            if not np.allclose(c[i], c[i].T, rtol=0.0, atol=1e-12):
                raise ValueError(f"covariance {i} is not symmetric")
            try:
                np.linalg.cholesky(c[i])
            except np.linalg.LinAlgError:
                raise ValueError(f"covariance {i} is not positive-definite") from None
        for name, arr in (("weights", w), ("means", m), ("covariances", c)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def K(self) -> int:
        return int(self.weights.size)

    @property
    def d(self) -> int:
        return int(self.means.shape[1])

    @classmethod
    def isotropic(cls, weights, means, variances) -> "GaussianMixture":
        """Shortcut for sigma_i**2 * I covariances."""
        means = np.atleast_2d(np.asarray(means, dtype=np.float64))
        variances = np.atleast_1d(np.asarray(variances, dtype=np.float64))
        K, d = means.shape
        covs = np.stack([v * np.eye(d) for v in variances])
        return cls(weights=np.asarray(weights, dtype=np.float64), means=means, covariances=covs)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n points; component choices and noise both come from rng."""
        idx = rng.choice(self.K, size=n, p=self.weights)
        z = rng.standard_normal((n, self.d))
        out = np.empty((n, self.d))
        for i in range(self.K):
            sel = idx == i
            if not np.any(sel):
                continue
            L = np.linalg.cholesky(self.covariances[i])
            out[sel] = self.means[i] + z[sel] @ L.T
        return out


def marginal_mixture(gmm: GaussianMixture, abar: float) -> GaussianMixture:
    """Mixture describing x_t when x_0 follows gmm and alpha_bar_t = abar."""
    if not 0.0 <= abar <= 1.0:
        raise ValueError("abar must lie in [0, 1]")
    d = gmm.d
    covs = abar * gmm.covariances + (1.0 - abar) * np.eye(d)
    return GaussianMixture(
        weights=gmm.weights, means=np.sqrt(abar) * gmm.means, covariances=covs
    )


class _Factored(NamedTuple):
    """A mixture with every factorization done: evaluation only multiplies."""

    log_weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, d)
    log_dets: np.ndarray  # (K,)
    inv_covs: np.ndarray  # (K, d, d)


def _factor(mix: GaussianMixture) -> _Factored:
    K, d = mix.K, mix.d
    log_dets = np.empty(K)
    inv_covs = np.empty((K, d, d))
    for i in range(K):
        factor = cho_factor(mix.covariances[i], lower=True)
        log_dets[i] = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
        inv_covs[i] = cho_solve(factor, np.eye(d))
    log_weights = np.log(np.maximum(mix.weights, 1e-300))
    return _Factored(log_weights, mix.means, log_dets, inv_covs)


def _components(factored: _Factored, x: np.ndarray):
    """Score terms g_i = -(x - mu_i) Sigma_i^{-1} (K, N, d) and quadratic
    forms -(x - mu_i) . g_i (K, N), from one product with each stored
    inverse; non-finite rows of x (flagged chains) pass through silently."""
    K, d = factored.means.shape
    g = np.empty((K, len(x), d))
    quad = np.empty((K, len(x)))
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(K):
            diff = x - factored.means[i]
            g[i] = -(diff @ factored.inv_covs[i])
            quad[i] = -np.einsum("nj,nj->n", diff, g[i])
    return g, quad


def _log_joint(factored: _Factored, quad: np.ndarray) -> np.ndarray:
    """log w_i + log N(x; mu_i, Sigma_i) per component, (K, N)."""
    d = factored.means.shape[1]
    return factored.log_weights[:, None] - 0.5 * (
        quad + factored.log_dets[:, None] + d * np.log(2.0 * np.pi)
    )


def _responsibilities(factored: _Factored, x: np.ndarray):
    """Responsibilities r (K, N) and score terms g (K, N, d). A row whose
    quadratic forms are all non-finite has nan responsibilities, silently;
    with K = 1, r is 1, no log density is formed, and the row of g is nan."""
    g, quad = _components(factored, x)
    if len(g) == 1:
        g[0, ~np.isfinite(quad[0])] = np.nan
        return np.ones_like(quad), g
    log_joint = _log_joint(factored, quad)
    with np.errstate(invalid="ignore"):
        r = np.exp(log_joint - logsumexp(log_joint, axis=0))
    return r, g


def _as_batch(x: np.ndarray, d: int):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.shape != (d,):
            raise ValueError(f"point has dimension {x.shape}, expected ({d},)")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"batch has shape {x.shape}, expected (N, {d})")
    return x, False


def mixture_logpdf(mix: GaussianMixture, x: np.ndarray) -> np.ndarray:
    x, single = _as_batch(x, mix.d)
    factored = _factor(mix)
    _, quad = _components(factored, x)
    log_norm = logsumexp(_log_joint(factored, quad), axis=0)
    return float(log_norm[0]) if single else log_norm


class GaussianMixtureScore(ScoreModel):
    """Closed-form score of a mixture prior under the forward noising process.

    Construction factors the marginal of every step 1..T once and keeps
    log-determinants and inverse covariances, T K d^2 floats; evaluation
    runs products only. With K = 1 the score is -(x - mu) Sigma^{-1}. A
    row whose quadratic form is not finite (a flagged chain, or one near
    |x| = 1e200) comes out as a nan row, silently, for every K.
    """

    def __init__(self, gmm: GaussianMixture, schedule: NoiseSchedule):
        self.gmm = gmm
        self.schedule = schedule
        self._factored = [
            _factor(marginal_mixture(gmm, alpha_bar(schedule, t)))
            for t in range(1, schedule.T + 1)
        ]

    @property
    def dim(self) -> int:
        return self.gmm.d

    def _at(self, t: int) -> _Factored:
        check_step(self.schedule, t)
        return self._factored[t - 1]

    def score(self, x: np.ndarray, t: int) -> np.ndarray:
        """Gradient of the step-t log density: sum_i r_i(x) g_i(x), g_i = -Sigma_i^{-1}(x - mu_i)."""
        factored = self._at(t)
        x, single = _as_batch(x, self.dim)
        r, g = _responsibilities(factored, x)
        s = g[0] if len(g) == 1 else np.einsum("kn,knd->nd", r, g)
        return s[0] if single else s

    def score_vjp(self, x: np.ndarray, t: int, v: np.ndarray) -> np.ndarray:
        """J v without forming J, the step-t log density's second derivative.

        J is sum_i r_i (-Sigma_i^{-1}) plus the responsibility-weighted
        covariance of the g_i vectors, sum_i r_i g_i g_i^T - s s^T; it is
        symmetric, so J v is also the pullback J^T v. A nan or inf row of v
        comes out as a nan row, silently.
        """
        factored = self._at(t)
        x, single = _as_batch(x, self.dim)
        v, _ = _as_batch(v, self.dim)
        if v.shape[0] == 1 and x.shape[0] > 1:
            v = np.broadcast_to(v, x.shape)
        r, g = _responsibilities(factored, x)
        with np.errstate(invalid="ignore"):
            s = np.einsum("kn,knd->nd", r, g)
            gv = np.einsum("knd,nd->kn", g, v)
            out = -np.einsum("kn,knd->nd", r, v @ factored.inv_covs)
            out += np.einsum("kn,knd->nd", r * gv, g)
            out -= s * np.einsum("nd,nd->n", s, v)[:, None]
        return out[0] if single else out

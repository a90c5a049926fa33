"""Gaussian mixtures with closed-form scores under the forward noising process.

The variance-preserving marginal of a mixture is again a mixture with
means sqrt(alpha_bar_t) mu_i and covariances
alpha_bar_t Sigma_i + (1 - alpha_bar_t) I, so the score and its
derivative, stated once as ``score_vjp``, are exact at every noise level.
These are the reference models every approximation is checked against.

Evaluation is arithmetic only: each step's marginal is factored once,
the solves call LAPACK potrs directly, and a one-component mixture
skips the log-sum-exp normalizer, whose value it has in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs
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
    """A mixture with every factorization done: evaluation only solves."""

    log_weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, d)
    cholesky: np.ndarray  # (K, d, d) lower factors
    log_dets: np.ndarray  # (K,)
    inv_covs: np.ndarray  # (K, d, d), read by score_vjp as one matmul


def _solve(cholesky: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b for a lower Cholesky factor L.

    LAPACK potrs with the arguments ``cho_solve`` passes it, without that
    wrapper's batching and checks: no finiteness check, so nan rows
    (flagged chains) pass through as nan.
    """
    x, info = dpotrs(cholesky, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _factor(mix: GaussianMixture) -> _Factored:
    K, d = mix.K, mix.d
    cholesky = np.empty((K, d, d))
    log_dets = np.empty(K)
    inv_covs = np.empty((K, d, d))
    for i in range(K):
        cholesky[i] = cho_factor(mix.covariances[i], lower=True)[0]
        log_dets[i] = 2.0 * float(np.sum(np.log(np.diag(cholesky[i]))))
        inv_covs[i] = _solve(cholesky[i], np.eye(d))
    log_weights = np.log(np.maximum(mix.weights, 1e-300))
    return _Factored(log_weights, mix.means, cholesky, log_dets, inv_covs)


def _responsibilities(factored: _Factored, x: np.ndarray):
    """Per-component responsibilities r (K, N), score terms g (K, N, d),
    and the mixture log-density (N,)."""
    K, d = factored.means.shape
    N = x.shape[0]
    g = np.empty((K, N, d))
    log_joint = np.empty((K, N))
    for i in range(K):
        diff = x - factored.means[i]
        solved = _solve(factored.cholesky[i], diff.T).T
        g[i] = -solved
        quad = np.einsum("nj,nj->n", diff, solved)
        log_joint[i] = factored.log_weights[i] - 0.5 * (
            quad + factored.log_dets[i] + d * np.log(2.0 * np.pi)
        )
    if K == 1:
        # logsumexp over one term, in closed form with the same bits: a + 0.0
        # where finite, log(exp(a)) for +-inf and nan rows.
        a = log_joint[0]
        with np.errstate(divide="ignore", over="ignore"):
            log_norm = np.where(np.isfinite(a), a + 0.0, np.log(np.exp(a)))
    else:
        log_norm = logsumexp(log_joint, axis=0)
    r = np.exp(log_joint - log_norm)
    return r, g, log_norm


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
    _, _, log_norm = _responsibilities(_factor(mix), x)
    return float(log_norm[0]) if single else log_norm


class GaussianMixtureScore(ScoreModel):
    """Closed-form score of a mixture prior under the forward noising process.

    Construction factors the marginal of every step 1..T once: Cholesky
    factors, log-determinants and inverse covariances, 2 T K d^2 floats.
    Evaluation then runs solves and products only. With K = 1 the
    normalizer is the component's own log density, equal bit for bit to
    what logsumexp returns, nan and inf rows of flagged chains included.
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
        r, g, _ = _responsibilities(factored, x)
        s = np.einsum("kn,knd->nd", r, g)
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
        r, g, _ = _responsibilities(factored, x)
        with np.errstate(invalid="ignore"):
            s = np.einsum("kn,knd->nd", r, g)
            gv = np.einsum("knd,nd->kn", g, v)
            out = -np.einsum("kn,knd->nd", r, v @ factored.inv_covs)
            out += np.einsum("kn,knd->nd", r * gv, g)
            out -= s * np.einsum("nd,nd->n", s, v)[:, None]
        return out[0] if single else out

"""Gaussian mixtures with closed-form scores under the forward noising process.

The variance-preserving marginal of a mixture is again a mixture with
means sqrt(alpha_bar_t) mu_i and covariances
alpha_bar_t Sigma_i + (1 - alpha_bar_t) I, so the score and its
derivative, stated once as ``score_vjp``, are exact at every noise level.
These are the reference models every approximation is checked against.

Evaluation is arithmetic only: the marginals of all T steps are factored
and inverted in one stacked pass at construction, every component is
evaluated with one product against its stored inverse covariance, and a
one-component mixture skips the log densities and their normalizer,
since its responsibility is 1.

The module needs numpy only. ``_factor`` takes numpy's Cholesky of the
stacked covariances and stores each inverse as Li^T Li, Li = L^{-1}. On
the presets' marginals (diagonal at d = 2, the identity at d = 16) that
has the bits of scipy's ``cho_factor``/``cho_solve``; on dense
covariances the inverse differs from ``cho_solve`` in the last bits.
``_logsumexp`` has the bits of scipy's. scipy is a test dependency only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ficd.schedule import NoiseSchedule, check_step
from ficd.scoremodel.base import ScoreModel, _as_batch, _as_vjp_batches

__all__ = [
    "GaussianMixture",
    "GaussianMixtureScore",
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


class _Factored(NamedTuple):
    """A mixture with every factorization done: evaluation only multiplies."""

    log_weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, d)
    log_dets: np.ndarray  # (K,)
    inv_covs: np.ndarray  # (K, d, d)


def _factor(weights, means, covariances) -> _Factored:
    """Cholesky factors L of a stack (..., K, d, d) of covariances, all in
    one call; each Sigma^{-1} is stored as Li^T Li with Li = L^{-1}, and
    the log weights are broadcast to the stack's (..., K)."""
    L = np.linalg.cholesky(covariances)
    log_dets = 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)
    # b is an explicit stack of identities: numpy 1.x reads a 2-d b
    # against a stacked L as a stack of vectors, not as one matrix.
    Li = np.linalg.solve(L, np.broadcast_to(np.eye(L.shape[-1]), L.shape))
    inv_covs = np.swapaxes(Li, -1, -2) @ Li
    log_weights = np.broadcast_to(np.log(np.maximum(weights, 1e-300)), log_dets.shape)
    return _Factored(log_weights, means, log_dets, inv_covs)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=0)) for a real (K, N) array, with the bits of
    scipy 1.17's ``scipy.special.logsumexp(a, axis=0)``: the maximal terms
    of a column are split out of the shifted sum (m of them, so the sum
    is m (1 + s)), and a column whose result is not finite (a nan, an
    inf, or all -inf) takes the direct log(sum(exp(a))) instead."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=0)
        is_max = a == a_max
        m = np.sum(is_max, axis=0, dtype=np.float64)
        shifted = np.where(is_max, -np.inf, a) - a_max
        s = np.sum(np.exp(shifted), axis=0)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    finite = np.isfinite(out)
    if not finite.all():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.where(finite, out, np.log(np.sum(np.exp(a), axis=0)))
    return out


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
        r = np.exp(log_joint - _logsumexp(log_joint))
    return r, g


def mixture_logpdf(mix: GaussianMixture, x: np.ndarray) -> np.ndarray:
    """Log density of mix at a point (d,), as a float, or at each row of a
    batch (N, d), as an (N,) array."""
    x, single = _as_batch(x, mix.d)
    factored = _factor(mix.weights, mix.means, mix.covariances)
    _, quad = _components(factored, x)
    log_norm = _logsumexp(_log_joint(factored, quad))
    return float(log_norm[0]) if single else log_norm


class GaussianMixtureScore(ScoreModel):
    """Closed-form score of a mixture prior under the forward noising process.

    Construction factors all T K marginal covariances, steps 1..T, in one
    stacked pass and keeps log-determinants and inverse covariances,
    T K d^2 floats; evaluation runs products only. With K = 1 the score
    is -(x - mu) Sigma^{-1}. A row whose quadratic form is not finite (a
    flagged chain, or one near |x| = 1e200) comes out as a nan row,
    silently, for every K.
    """

    def __init__(self, gmm: GaussianMixture, schedule: NoiseSchedule):
        self.gmm = gmm
        self.schedule = schedule
        # The marginals of steps 1..T, stacked (T, K, ...).
        abar = schedule.alpha_bars[:, None, None, None]
        stacked = _factor(
            gmm.weights,
            np.sqrt(abar[..., 0]) * gmm.means,
            abar * gmm.covariances + (1.0 - abar) * np.eye(gmm.d),
        )
        self._factored = [_Factored(*f) for f in zip(*stacked)]

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
        x, v, single = _as_vjp_batches(x, v, self.dim)
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

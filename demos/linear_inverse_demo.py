"""
Four guidance strategies on one conjugate posterior
===================================================

Observing y = x + noise with unit noise variance under a standard
normal prior gives the textbook posterior N(y / 2, I / 2). Each
strategy scales the conditional term differently, so each needs its own
step size to track that posterior; the matched rho rule supplies
exactly that scaling. With it, all four strategies land on the same
posterior, which is the point of this script.
"""

import numpy as np

from ficd import (
    Condition,
    GaussianMixture,
    GaussianMixtureScore,
    LinearMeasurementEnergy,
    PosteriorPartStrategy,
    SamplerConfig,
    linear_gaussian_posterior,
    linear_schedule,
    sample,
)
from ficd.config import resolve_rho

schedule = linear_schedule(200)
prior = GaussianMixture.isotropic([1.0], [[0.0, 0.0]], [1.0])
model = GaussianMixtureScore(prior, schedule)

A = np.eye(2)
y = np.array([1.0, 1.0])
noise_var = 1.0
condition = Condition.measurement(A, y)
energy = LinearMeasurementEnergy()

# The closed-form answer this run should reproduce.
exact = linear_gaussian_posterior(np.zeros(2), np.eye(2), A, y, noise_var)
print("posterior mean:", exact.mean.round(4))
print("posterior cov diagonal:", np.diag(exact.covariance).round(4))
print()

# lam = 1 / (2 noise_var) makes the quadratic energy the Gaussian
# log-likelihood; matched rho then adapts per strategy.
lam = 1.0 / (2.0 * noise_var)
for strategy in PosteriorPartStrategy:
    rho = resolve_rho("matched", schedule, strategy, noise_var)
    config = SamplerConfig(
        T=200, strategy=strategy, rho=rho, lam=lam, n_chains=2000, seed=0
    )
    samples, _ = sample(config, model, energy, condition)
    mean = samples.mean(axis=0)
    err = np.linalg.norm(mean - exact.mean)
    print(
        f"{strategy.value:>5}: sample mean {mean.round(4)}"
        f"  |mean error| {err:.4f}"
        f"  var diagonal {samples.var(axis=0).round(4)}"
    )

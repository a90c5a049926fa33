"""
Guided sampling against a closed-form tilted mixture
====================================================

A Gaussian mixture times exp(-lam |x - c|^2) is again a Gaussian
mixture, with shifted component means and reweighted components. That
gives an exact target to hold guided samples against: run the sampler
with a quadratic energy pulling toward c and compare the cloud it
produces with direct draws from the tilted density.
"""

import numpy as np

from ficd import (
    Condition,
    GaussianMixture,
    GaussianMixtureScore,
    QuadraticEnergy,
    SamplerConfig,
    PosteriorPartStrategy,
    linear_schedule,
    sample,
    sliced_wasserstein,
    tilted_gmm_oracle,
)
from ficd.config import resolve_rho

# The prior: two overlapping modes on the x axis.
gmm = GaussianMixture.isotropic([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], [0.6, 0.6])
schedule = linear_schedule(200)
model = GaussianMixtureScore(gmm, schedule)

# The condition: a quadratic pull toward a point off to the upper right.
lam = 0.3
target = np.array([0.5, 0.25])
oracle = tilted_gmm_oracle(gmm, target, lam)
print("prior weights:   ", gmm.weights.round(3))
print("tilted weights:  ", oracle.weights.round(3))
print("tilted means:\n", oracle.means.round(3))

# Matched rho keeps the guided chain on the posterior track; two
# time-travel repeats let probability mass cross between the modes.
rho = resolve_rho("matched", schedule, PosteriorPartStrategy.FICD, 1.0 / (2.0 * lam))
config = SamplerConfig(
    T=200,
    strategy=PosteriorPartStrategy.FICD,
    rho=rho,
    lam=lam,
    time_travel_repeats=2,
    n_chains=2000,
    seed=0,
)
guided, _ = sample(config, model, QuadraticEnergy(), Condition.target(target))

# Score the cloud against exact draws. The self-distance between two
# independent oracle draws is the Monte-Carlo floor at this sample size.
rng = np.random.default_rng(1000)
draw_a = oracle.sample(rng, 2000)
draw_b = oracle.sample(rng, 2000)
uncond, _ = sample(SamplerConfig(T=200, strategy=None, n_chains=2000, seed=0), model)

print()
print(f"oracle self-distance (floor):  {sliced_wasserstein(draw_a, draw_b):.4f}")
print(f"guided samples vs oracle:      {sliced_wasserstein(guided, draw_a):.4f}")
print(f"unguided samples vs oracle:    {sliced_wasserstein(uncond, draw_a):.4f}")
print()
print(f"guided right-mode mass: {(guided[:, 0] > 0).mean():.3f}"
      f" (oracle {oracle.weights[1]:.3f})")

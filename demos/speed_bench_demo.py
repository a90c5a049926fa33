"""
What skipping the Jacobian pass buys
====================================

The exact strategy back-propagates the energy gradient through the
score network at every step (one vector-Jacobian pass on top of the
score evaluation). The scalar strategy replaces that pass with a single
multiply, so its per-step cost is just the score evaluation. On a net
wide enough for the extra pass to matter, the run-time gap is plain.

Timing does not depend on the weights, so an untrained net of the
benchmark width is enough here.
"""

import numpy as np

from ficd import (
    LearnedScoreModel,
    NetSpec,
    PosteriorPartStrategy,
    SamplerConfig,
    benchmark_steps,
    linear_schedule,
)

schedule = linear_schedule(200)
model = LearnedScoreModel.init(
    NetSpec(hidden_width=256, hidden_layers=3, time_embed_dim=32),
    schedule,
    2,
    rng=np.random.default_rng(0),
)

table = benchmark_steps(
    model,
    [
        SamplerConfig(T=200, strategy=s, rho=0.05, n_chains=256, seed=0)
        for s in (PosteriorPartStrategy.EXACT, PosteriorPartStrategy.FICD)
    ],
    repetitions=5,
)
print(table.to_text())

ratio = table.row("ficd").median_run_s / table.row("exact").median_run_s
print(f"\nficd / exact median run time: {ratio:.3f}")
print("per step, ficd makes 1 score call and 0 Jacobian-pullback calls;")
print("exact makes 1 score call and 1 pullback call. These count calls, not")
print("network passes: on this MLP the pullback runs its own forward, so an")
print("exact step does two forwards and one backward, ficd one forward.")

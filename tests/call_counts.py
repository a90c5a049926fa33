"""Count the score and score_vjp calls a sampling run makes.

A run's cost per step is its calls into the model, so tests count them
on an untimed run instead of trusting a table that states them.
"""

from ficd.posterior import PosteriorPartStrategy
from ficd.sampler import BLOCK_SIZE, sample


class CallCountingModel:
    """Delegates to a real model, recording (method, t, rows) per call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    @property
    def schedule(self):
        return self.inner.schedule

    @property
    def dim(self):
        return self.inner.dim

    def score(self, x, t):
        self.calls.append(("score", t, len(x)))
        return self.inner.score(x, t)

    def score_vjp(self, x, t, v):
        self.calls.append(("score_vjp", t, len(x)))
        return self.inner.score_vjp(x, t, v)


def recorded_calls(config, model, energy=None, condition=None):
    """One run of ``config``: its recorded calls, the calls of one score per
    block per executed step (plus one score_vjp for exact) in order, and
    the run's trace. Time-travel repeats are executed steps."""
    counting = CallCountingModel(model)
    _, trace = sample(config, counting, energy, condition)
    N = config.n_chains
    blocks = [min(BLOCK_SIZE, N - lo) for lo in range(0, N, BLOCK_SIZE)]
    methods = ["score"]
    if config.strategy is PosteriorPartStrategy.EXACT:
        methods.append("score_vjp")
    expected = [
        (method, int(t), rows) for t in trace.t for rows in blocks for method in methods
    ]
    return counting.calls, expected, trace
